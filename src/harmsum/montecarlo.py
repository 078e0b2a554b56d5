"""Monte Carlo sampling of the random signed sum X_N = sum s_n / b_n and
comparison with the limiting density.

Sign vectors come from a counter-based generator (Philox) addressed by
sample index: each sample owns a fixed number of 256-bit counter blocks,
so any chunking of the sample range reproduces identical draws. Per-sample
sums are accumulated in double precision with Kahan compensation over
64-column blocks; einsum with optimize=False keeps the reduction order
fixed. Reports are bit-reproducible for a fixed seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .analytic import densities, interval_probability
from .exact import ENUM_CAP, MEMORY_GIB, _check_cap, _scaled_sums
from .sequences import SequenceSpec, terms_array

DENSITY_EPS = 1e-8
CHUNK = 1 << 16  # samples per internal chunk; counter addressing makes draws chunk-invariant


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


def _chunk_sums(inv_terms: np.ndarray, seed: int, start: int, count: int) -> np.ndarray:
    """X values for samples [start, start+count), independent of chunking."""
    n = len(inv_terms)
    blocks = _blocks_per_sample(n)
    bg = np.random.Philox(key=seed)
    bg.advance(start * blocks)
    raw = bg.random_raw(count * 4 * blocks).reshape(count, 4 * blocks)
    bits = np.unpackbits(raw.view(np.uint8), axis=1, bitorder="little")[:, :n]
    total = np.zeros(count)
    comp = np.zeros(count)
    for j in range(0, n, 64):
        signs = 2.0 * bits[:, j : j + 64].astype(np.float64) - 1.0
        part = np.einsum("ij,j->i", signs, inv_terms[j : j + 64], optimize=False)
        y = part - comp
        t = total + y
        comp = (t - total) - y
        total = t
    return total


def _iter_chunks(config: SimulationConfig):
    inv = 1.0 / terms_array(config.spec, config.n).astype(np.float64)
    # keep the unpacked bit matrix near 256 MiB regardless of n
    per_sample = 256 * _blocks_per_sample(config.n)
    cap = max(1024, (1 << 28) // per_sample)
    done = 0
    while done < config.samples:
        c = min(CHUNK, cap, config.samples - done)
        yield _chunk_sums(inv, config.seed, done, c)
        done += c


def simulate(config: SimulationConfig, *, eps: float = DENSITY_EPS) -> SimulationReport:
    """Sample X_N and compare the interval frequency against the integral
    of the limiting density over the same half-open interval [lo, hi)."""
    lo, hi = config.interval
    hits = 0
    sum_parts: list[float] = []
    sq_parts: list[float] = []
    for vals in _iter_chunks(config):
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


def exhaustive_probability(config: SimulationConfig) -> Fraction:
    """Exact P[X_N in [lo, hi)) over all 2^n equiprobable sign vectors;
    n is capped at ENUM_CAP."""
    _check_cap(config.n, None, ENUM_CAP, ENUM_CAP, False)
    terms = [int(t) for t in terms_array(config.spec, config.n)]
    den, sums = _scaled_sums(terms, MEMORY_GIB)
    lo, hi = config.interval
    lo_s = Fraction(lo) * den
    hi_s = Fraction(hi) * den
    count = sum(1 for s in sums if lo_s <= s < hi_s)
    return Fraction(count, 1 << config.n)


def histogram(
    config: SimulationConfig, bins: int, *, eps: float = DENSITY_EPS
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
    for vals in _iter_chunks(config):
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
