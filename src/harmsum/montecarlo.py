"""Monte Carlo sampling of the random signed sum X_N = sum s_n / b_n and
comparison with the limiting density.

Sign vectors come from a counter-based generator (Philox) addressed by
sample index: each sample owns a fixed number of 256-bit counter blocks,
so any chunking of the sample range reproduces identical draws. Bit i of
byte k of a sample's raw words is the sign of term 8k + i (1 is +), so
word w holds the signs of terms 64w to 64w + 63. A chunk is summed in
tiles of at most 4,096 samples, whose vectors stay in cache (the `mc`
benchmark job at N = 10^4 peaks at about 45 MiB RSS): a tile's words are
drawn in pieces of at most 2^22 random bits, each transposed into the
tile's buffer of one row per word position, and byte k of a sample is
looked up in a 256-entry table of the signed sums of its 8 terms, built
once per run. The 8 lookups of a word are added plainly, the word
partials into the total with Kahan compensation, in the same order
whatever the chunk, tile or piece, so reports are bit-reproducible for a
fixed seed. The moments are numpy pairwise sums per chunk, joined by
math.fsum, within a stated bound of exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .analytic import densities, interval_probability
from .exact import ENUM_CAP, MEMORY_GIB, _check_cap, _check_memory, _scaled_sums
from .sequences import SequenceSpec, terms_array

DENSITY_EPS = 1e-8
CHUNK = 1 << 16  # samples per internal chunk; counter addressing makes draws chunk-invariant
_TILE = 1 << 12  # samples per tile, fewer where their words pass 2^26 bits (8 MiB)
_PIECE = 1 << 22  # random bits a tile draws at a time (512 KiB), at least one sample's


@dataclass(frozen=True)
class SimulationConfig:
    spec: SequenceSpec
    n: int
    samples: int
    seed: int
    interval: tuple[float, float]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.samples < 1:
            raise ValueError("samples must be >= 1")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in 64 unsigned bits")
        lo, hi = self.interval
        if not lo < hi:
            raise ValueError("interval needs lo < hi")
        object.__setattr__(self, "interval", (float(lo), float(hi)))


@dataclass(frozen=True)
class SimulationReport:
    empirical_prob: float
    predicted: float
    standard_error: float
    z_score: float
    sample_mean: float
    sample_variance: float


@dataclass(frozen=True)
class HistogramRow:
    center: float
    empirical: float
    expected: float


def _blocks_per_sample(n: int) -> int:
    # one 256-bit Philox counter block yields four 64-bit words
    words = -(-n // 64)
    return -(-words // 4)


def _tile_samples(blocks: int, count: int) -> int:
    return max(1, min(count, _TILE, (1 << 26) // (256 * blocks)))


def _piece_samples(blocks: int, tile: int) -> int:
    return max(1, min(tile, _PIECE // (256 * blocks)))


def _byte_tables(inv_terms: np.ndarray) -> np.ndarray:
    """T[k, v] = sum_i (2 bit_i(v) - 1) / b_{8k+i} over i < 8, with 1/b
    zero-padded to a multiple of 8 terms so a partial last byte adds 0."""
    nbytes = -(-len(inv_terms) // 8)
    padded = np.zeros(8 * nbytes)
    padded[: len(inv_terms)] = inv_terms
    signs = 2.0 * ((np.arange(256)[:, None] >> np.arange(8)) & 1) - 1.0
    return np.einsum("vi,ki->kv", signs, padded.reshape(nbytes, 8), optimize=False)


def _chunk_sums(
    inv_terms: np.ndarray, seed: int, start: int, count: int, tables: np.ndarray | None = None
) -> np.ndarray:
    """X values for samples [start, start+count), independent of chunking;
    tables, if given, are _byte_tables(inv_terms)."""
    n = len(inv_terms)
    nbytes = -(-n // 8)
    nwords = -(-n // 64)
    blocks = _blocks_per_sample(n)
    bg = np.random.Philox(key=seed)
    bg.advance(start * blocks)
    if tables is None:
        tables = _byte_tables(inv_terms)
    out = np.empty(count)
    s = _tile_samples(blocks, count)
    # a tile's words, one row per word position: byte i of word w of sample
    # j is signs[w, 8j + i], in the words' native order, which is byte
    # 8w + i of the sample's raw words
    words = np.empty((nwords, s), dtype=np.uint64)
    signs = words.view(np.uint8)
    acc = np.empty((5, s))
    p = _piece_samples(blocks, s)
    for r in range(0, count, s):
        k = min(s, count - r)
        # the Philox stream runs on from piece to piece and tile to tile:
        # the chunk's draws, each piece transposed into its columns
        for a in range(0, k, p):
            m = min(p, k - a)
            words[:, a : a + m] = bg.random_raw(m * 4 * blocks).reshape(m, 4 * blocks)[:, :nwords].T
        acc[:2, :k] = 0.0
        total, comp, part, buf, t = acc[:, :k]
        for w in range(nwords):
            g = 8 * w
            tables[g].take(signs[w, 0 : 8 * k : 8], out=part, mode="wrap")
            for i in range(1, min(8, nbytes - g)):
                part += tables[g + i].take(signs[w, i : 8 * k : 8], out=buf, mode="wrap")
            # Kahan step total += part, in place
            part -= comp
            np.add(total, part, out=t)
            np.subtract(t, total, out=comp)
            comp -= part
            total, t = t, total
        out[r : r + k] = total
    return out


def _iter_chunks(config: SimulationConfig, memory_gib: float):
    nbytes = -(-config.n // 8)
    nwords = -(-config.n // 64)
    blocks = _blocks_per_sample(config.n)
    # 2^28 random bits a chunk, at least 1024 samples: chunk boundaries fix
    # simulate's pairwise partials, so this cap keeps the moments' bits
    cap = max(1024, (1 << 28) // (256 * blocks))
    # Price the run before allocating: the tables (2 KiB per byte position),
    # built once per run, 1/b and its padded copy; per sample of the largest
    # chunk, its output and the consumer's three float64-sized vectors from
    # the last chunk (at most: histogram's values, mask and bin indices); per
    # sample of one tile, its transposed words, five accumulators and take's
    # index copy; per sample of one piece, its raw words.
    largest = min(CHUNK, cap, config.samples)
    tile = _tile_samples(blocks, largest)
    piece = _piece_samples(blocks, tile)
    _check_memory(
        2048 * nbytes + 128 * nbytes + 32 * largest + tile * (8 * nwords + 48)
        + piece * 32 * blocks,
        memory_gib,
    )
    inv = 1.0 / terms_array(config.spec, config.n).astype(np.float64)
    tables = _byte_tables(inv)
    done = 0
    while done < config.samples:
        c = min(CHUNK, cap, config.samples - done)
        yield _chunk_sums(inv, config.seed, done, c, tables)
        done += c


def simulate(
    config: SimulationConfig, *, eps: float = DENSITY_EPS, memory_gib: float | None = None
) -> SimulationReport:
    """Sample X_N and compare the interval frequency against the integral
    of the limiting density over the same half-open interval [lo, hi).
    memory_gib is the budget the sampler is priced against (default
    MEMORY_GIB).

    Over the m sampled values x_j, with u = 2^-53 and g(k) = ku / (1 - ku),
    sample_mean is within g(35) * sum |x_j| / m of their exact mean, and
    sample_variance within 4 g(35) * sum x_j^2 / (m - 1) of their exact
    sample variance."""
    if not eps > 0:  # before any sampling, not after it
        raise ValueError("eps must be positive")
    budget = MEMORY_GIB if memory_gib is None else memory_gib
    lo, hi = config.interval
    hits = 0
    sum_parts: list[float] = []
    sq_parts: list[float] = []
    for vals in _iter_chunks(config, budget):
        hits += int(np.count_nonzero((vals >= lo) & (vals < hi)))
        sum_parts.append(float(np.add.reduce(vals)))
        sq_parts.append(float(np.add.reduce(np.square(vals, out=vals))))
    m = config.samples
    p = hits / m
    se = math.sqrt(p * (1.0 - p) / m)
    predicted = interval_probability(config.spec, lo, hi, eps, memory_gib=budget)
    diff = p - predicted
    if se > 0.0:
        z = diff / se
    else:
        z = 0.0 if diff == 0.0 else math.copysign(math.inf, diff)
    # The error bound of the docstring. numpy's add.reduce over a contiguous
    # float64 vector is pairwise (Higham, SIAM J. Sci. Comput. 14, 1993):
    # blocks of at most 128 values are summed by 8 interleaved accumulators
    # (at most 24 rounded additions on any value's path, reached at 127
    # values) and the blocks are joined by halving, one addition per level,
    # so a value of a chunk of c <= CHUNK = 2^16 samples meets at most
    # h = ceil(log2 c) + 17 <= 33 roundings and a chunk's partial errs by at
    # most g(h) times the chunk's sum of |x|. math.fsum rounds the sum of
    # the partials once and the division once more: with A = sum |x_j| the
    # mean errs by at most g(h + 2) A / m = g(35) A / m. Each square is
    # rounded once before its h additions and the fsum, so
    # Q = sum x_j^2 is within g(35) Q. With M the exact mean and e the
    # mean's error, m M^2 <= Q and m |M| |e| <= g(35) A^2 / m <= g(35) Q
    # (Cauchy-Schwarz: A^2 <= m Q), so m * mean * mean, two roundings,
    # is within (g(2) + 2 g(35)) Q + O(u^2) Q of m M^2; the subtraction and
    # the division add g(2) relative to the difference, which is at most Q.
    # In total the variance errs by at most (3 g(35) + 2 g(2) + O(u^2)) Q,
    # less than 4 g(35) Q, over m - 1.
    mean = math.fsum(sum_parts) / m
    var = (math.fsum(sq_parts) - m * mean * mean) / (m - 1) if m > 1 else 0.0
    return SimulationReport(
        empirical_prob=p,
        predicted=predicted,
        standard_error=se,
        z_score=z,
        sample_mean=mean,
        sample_variance=var,
    )


def exhaustive_probability(
    config: SimulationConfig, *, memory_gib: float | None = None
) -> Fraction:
    """Exact P[X_N in [lo, hi)) over all 2^n equiprobable sign vectors;
    n is capped at ENUM_CAP and the enumeration priced against memory_gib
    (default MEMORY_GIB)."""
    _check_cap(config.n, None, ENUM_CAP, ENUM_CAP, False)
    terms = [int(t) for t in terms_array(config.spec, config.n)]
    den, sums = _scaled_sums(terms, MEMORY_GIB if memory_gib is None else memory_gib)
    lo, hi = config.interval
    lo_s = Fraction(lo) * den
    hi_s = Fraction(hi) * den
    count = sum(1 for s in sums if lo_s <= s < hi_s)
    return Fraction(count, 1 << config.n)


def histogram(
    config: SimulationConfig, bins: int, *, eps: float = DENSITY_EPS,
    memory_gib: float | None = None,
) -> list[HistogramRow]:
    """Normalized histogram of X_N over the config interval next to the
    density at each bin center. Bins partition [lo, hi) half-open, and the
    empirical column normalizes by the in-interval count, so it sums to 1
    after multiplying by the bin width."""
    if bins < 2:
        raise ValueError("bins must be >= 2")
    if not eps > 0:
        raise ValueError("eps must be positive")
    lo, hi = config.interval
    width = (hi - lo) / bins
    budget = MEMORY_GIB if memory_gib is None else memory_gib
    counts = np.zeros(bins, dtype=np.int64)
    for vals in _iter_chunks(config, budget):
        ok = (vals >= lo) & (vals < hi)
        # (x - lo) / width lies in [0, bins] for x in [lo, hi), and rounds up
        # to bins for some x just below hi, which belongs to the top bin
        idx = np.floor((vals[ok] - lo) / width).astype(np.int64)
        counts += np.bincount(np.minimum(idx, bins - 1, out=idx), minlength=bins)
    in_range = int(counts.sum())
    centers = lo + width * (np.arange(bins) + 0.5)
    rows = []
    for count, sample in zip(counts, densities(config.spec, centers, eps, memory_gib=budget)):
        emp = count / (in_range * width) if in_range else 0.0
        rows.append(HistogramRow(center=sample.x, empirical=float(emp), expected=sample.g))
    return rows
