"""Monte Carlo sampling of the random signed sum X_N = sum s_n / b_n and
comparison with the limiting density.

Sign vectors come from a counter-based generator (Philox) addressed by
sample index: each sample owns a fixed number of 256-bit counter blocks,
so any chunking of the sample range reproduces identical draws. Bit i of
byte k of a sample's raw words is the sign of term 8k + i (1 is +). Each
byte position has a 256-entry table of the signed sums of its 8 terms, so
a sample's sum is one table lookup per byte: lookups are added plainly in
groups of 8 bytes (64 terms), and the group partials are added into the
total with Kahan compensation. Every sample is summed in the same order
whatever the chunk, so reports are bit-reproducible for a fixed seed.
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
_TILE = 1 << 16  # sign bytes per transpose tile, small enough to stay in cache


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


def _byte_tables(inv_terms: np.ndarray) -> np.ndarray:
    """T[k, v] = sum_i (2 bit_i(v) - 1) / b_{8k+i} over i < 8, with 1/b
    zero-padded to a multiple of 8 terms so a partial last byte adds 0."""
    nbytes = -(-len(inv_terms) // 8)
    padded = np.zeros(8 * nbytes)
    padded[: len(inv_terms)] = inv_terms
    signs = 2.0 * ((np.arange(256)[:, None] >> np.arange(8)) & 1) - 1.0
    return np.einsum("vi,ki->kv", signs, padded.reshape(nbytes, 8), optimize=False)


def _chunk_sums(inv_terms: np.ndarray, seed: int, start: int, count: int) -> np.ndarray:
    """X values for samples [start, start+count), independent of chunking."""
    n = len(inv_terms)
    nbytes = -(-n // 8)
    blocks = _blocks_per_sample(n)
    bg = np.random.Philox(key=seed)
    bg.advance(start * blocks)
    raw = bg.random_raw(count * 4 * blocks).reshape(count, 4 * blocks).view(np.uint8)
    # one row per byte position; copied in tiles of samples, since a plain
    # transpose reads one byte per cache line
    signs = np.empty((nbytes, count), dtype=np.uint8)
    rows = max(256, _TILE // nbytes)
    for r in range(0, count, rows):
        signs[:, r : r + rows] = raw[r : r + rows, :nbytes].T
    del raw
    tables = _byte_tables(inv_terms)
    total = np.zeros(count)
    comp = np.zeros(count)
    part = np.empty(count)
    buf = np.empty(count)
    t = np.empty(count)
    for g in range(0, nbytes, 8):
        tables[g].take(signs[g], out=part)
        for k in range(g + 1, min(g + 8, nbytes)):
            part += tables[k].take(signs[k], out=buf)
        # Kahan step total += part, in place
        part -= comp
        np.add(total, part, out=t)
        np.subtract(t, total, out=comp)
        comp -= part
        total, t = t, total
    return total


def _iter_chunks(config: SimulationConfig, memory_gib: float | None):
    nbytes = -(-config.n // 8)
    blocks = _blocks_per_sample(config.n)
    # 2^28 random bits a chunk: its raw Philox words, 32 bytes per counter
    # block, stay at most 32 MiB regardless of n, and its sign bytes are no
    # larger; the 1024-sample floor only binds past 2^18 terms
    cap = max(1024, (1 << 28) // (256 * blocks))
    # Price the run before allocating: 2 KiB of tables per byte position,
    # 1/b and its padded copy, and per sample of the largest chunk its raw
    # words, its sign bytes and eight float64-sized vectors (five in
    # _chunk_sums, the index copy made by take, the consumer's temporaries).
    largest = min(CHUNK, cap, config.samples)
    _check_memory(
        2048 * nbytes + 128 * nbytes + largest * (32 * blocks + nbytes + 64),
        MEMORY_GIB if memory_gib is None else memory_gib,
    )
    inv = 1.0 / terms_array(config.spec, config.n).astype(np.float64)
    done = 0
    while done < config.samples:
        c = min(CHUNK, cap, config.samples - done)
        yield _chunk_sums(inv, config.seed, done, c)
        done += c


def simulate(
    config: SimulationConfig, *, eps: float = DENSITY_EPS, memory_gib: float | None = None
) -> SimulationReport:
    """Sample X_N and compare the interval frequency against the integral
    of the limiting density over the same half-open interval [lo, hi).
    memory_gib is the budget the sampler is priced against (default
    MEMORY_GIB)."""
    lo, hi = config.interval
    hits = 0
    sum_parts: list[float] = []
    sq_parts: list[float] = []
    for vals in _iter_chunks(config, memory_gib):
        hits += int(np.count_nonzero((vals >= lo) & (vals < hi)))
        sum_parts.append(math.fsum(vals))
        sq_parts.append(math.fsum(vals * vals))
    m = config.samples
    p = hits / m
    se = math.sqrt(p * (1.0 - p) / m)
    predicted = interval_probability(config.spec, lo, hi, eps)
    diff = p - predicted
    if se > 0.0:
        z = diff / se
    else:
        z = 0.0 if diff == 0.0 else math.copysign(math.inf, diff)
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
    lo, hi = config.interval
    width = (hi - lo) / bins
    counts = np.zeros(bins, dtype=np.int64)
    for vals in _iter_chunks(config, memory_gib):
        idx = np.floor((vals - lo) / width).astype(np.int64)
        ok = (idx >= 0) & (idx < bins) & (vals >= lo) & (vals < hi)
        counts += np.bincount(idx[ok], minlength=bins)
    in_range = int(counts.sum())
    centers = lo + width * (np.arange(bins) + 0.5)
    rows = []
    for count, sample in zip(counts, densities(config.spec, centers, eps)):
        emp = count / (in_range * width) if in_range else 0.0
        rows.append(HistogramRow(center=sample.x, empirical=float(emp), expected=sample.g))
    return rows
