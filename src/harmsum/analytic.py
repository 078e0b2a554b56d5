"""Cosine-product kernels, their infinite-product limit, the limiting
density and interval probabilities, and finite-range inequality checks.

The kernel rho_N(x) = prod_{n<=N} cos(pi x / b_n) is evaluated in double
precision, each block of terms by xs in one numpy multiply.reduce that
keeps every x's factors in term order. One tail-corrected kernel,
`_kernel`, evaluates the limit rho(x): it multiplies M >= 1024 factors by
exp(-(pi x)^2 T_2/2 - (pi x)^4 T_4/12), with T_j = sum_{n>M} b_n^-j the
closed-form series of the family minus its first 1024 terms, both summed
in integer fixed point and rounded once to 40-digit decimals, less each
further dyadic block of terms summed in numpy double-double. Every node is
bounded by the rest of the -log cos series, as a relative error of at most
1, plus a worst-case rounding term, which takes in the error bound of T_j.
`cosine_product_limit` (the `rho` subcommand) is that kernel at one node,
with its bound; its doublings of M reuse T_j at the M before.

The density g(x) = 2 * integral_0^inf cos(2 pi u x) rho(2u) du and the
interval probability, a sine transform of rho(2u), are trapezoid sums
over one grid u = ih on [0, U], U from a sampled envelope of |rho(2u)|
and h from a dyadic ladder. Their error estimate adds the node bound to
two estimates: |T_h - T_2h| and the envelope tail.

The finite-range scans (`exponential_bound_suite`, `sandwich_suite`)
draw all their (x, delta) pairs first and evaluate them in one batch:
|rho_N| from one `_rho_batch` call, the far counts and the near-multiple
counts over blocks of pairs, the latter in closed form per term. The
one-pair functions are the same code at a single pair. Terms of every
form (list, tuple, SequenceTerms, array) go through one check,
`sequences._terms`, which serves the exact layer too.
The kernel, the scans and the decay grid are priced against a
`memory_gib` budget, MEMORY_GIB by default, before they allocate.
"""

from __future__ import annotations

import decimal
import math
from dataclasses import dataclass
from decimal import Decimal
from functools import lru_cache

import numpy as np

from .errors import CertificateError, DivergedTruncation, TruncationFailure
from .sequences import (
    KIND_AP, KIND_CUSTOM, KIND_NONPRIMES, KIND_OMEGA, KIND_PK, KIND_PRIMES, SequenceSpec,
    _terms, count_up_to, terms_array,
)
from .exact import ENUM_CAP, MEMORY_GIB, SIGNS, _check_cap, _check_memory, _expand

KERNEL_M = 1024            # fewest terms the tail-corrected kernel multiplies
DENSITY_U = 8.0            # first cut tried for the transforms
DENSITY_U_CAP = 4096.0
DENSITY_TOL = 1e-12        # the transforms never work to a looser tolerance
FLOAT_SLACK = 1e-9

_BLOCK = 256               # xs per block of _rho_batch
_ENTRIES = 2**16           # float64 entries per block of _rho_batch and the scans: 512 KiB
# sum_{k>=3} a_k over the series -log cos t = sum_k a_k t^(2k): every a_k is
# positive, so the remainder after t^4/12 is at most _C6 t^6 for |t| <= 1
_C6 = -math.log(math.cos(1.0)) - 0.5 - 1.0 / 12.0

# placeholder constant for the decay-range endpoint exp(c' log^2 n); the
# magnitude of the true admissible constant is not pinned anywhere, so the
# default is flagged in every report that uses it
C_PRIME_DEFAULT = (1.0 / (2.0 * 1.518 * math.e)) ** 2


@dataclass(frozen=True)
class RhoValue:
    """A kernel evaluation; n is the factor count, or None for the
    infinite-product limit, in which case terms_used records the truncation
    M and tail_bound the certified bound on |value - rho(x)|, truncation
    and rounding both."""

    x: float
    n: int | None
    value: float
    tail_bound: float | None = None
    terms_used: int | None = None


@dataclass(frozen=True)
class DensitySample:
    x: float
    g: float
    quadrature_error_estimate: float
    truncation_m: int
    truncation_u: float


@dataclass(frozen=True)
class BoundCheckReport:
    """Outcome of a finite-range inequality scan; passed iff violations
    is empty. c_prime fields only apply to the decay check."""

    a: float | None
    x_lo: float
    x_hi: float
    samples: int
    violations: tuple[float, ...]
    passed: bool
    c_prime: float | None = None
    c_prime_defaulted: bool = False


def _finite(x: float) -> float:
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"x must be finite, got {x}")
    return x


def _one_pair(delta: float, x: float) -> tuple[np.ndarray, np.ndarray]:
    """(deltas, xs) of the single pair that the one-pair functions check."""
    if not 0 <= delta <= 0.5:
        raise ValueError("delta must lie in [0, 1/2]")
    return np.array([float(delta)]), np.array([_finite(x)])


def cosine_product(seq, x: float) -> RhoValue:
    """rho_N(x) = prod over the given terms of cos(pi x / b)."""
    terms = _terms(seq)
    x = _finite(x)
    return RhoValue(x=x, n=len(terms), value=float(_rho_batch(terms, [x])[0]))


def _rho_batch(terms: np.ndarray, xs) -> np.ndarray:
    """prod over the terms of cos(pi x / b) at every x of xs, multiplied in
    term order for each x, so an x's bits never depend on the other xs.

    Each (x-block, term-block) writes its cosines into rows 1.. of one
    reused block and the running product into row 0. A multiply.reduce
    over axis 0 then multiplies row by row (numpy pairs only additions),
    so every x sees the order of a loop over the terms."""
    terms = np.asarray(terms, dtype=np.float64)
    px = np.pi * np.asarray(xs, dtype=np.float64)
    out = np.ones(len(px))
    buf = np.empty(_batch_entries(len(terms), len(px)))
    rows = _batch_rows(min(len(px), _BLOCK))
    for c in range(0, len(px), _BLOCK):
        p, prod = px[c : c + _BLOCK], out[c : c + _BLOCK]
        for i in range(0, len(terms), rows):
            t = terms[i : i + rows, None]
            block = buf[: (len(t) + 1) * len(p)].reshape(len(t) + 1, len(p))
            block[0] = prod
            np.cos(np.divide(p, t, out=block[1:]), out=block[1:])
            np.multiply.reduce(block, axis=0, out=prod)
    return out


def _batch_rows(cols: int) -> int:
    """Factor rows per _rho_batch block of cols xs: with the product row
    they fill _ENTRIES entries, so a block of few xs takes many terms."""
    return max(1, _ENTRIES // max(cols, 1) - 1)


def _batch_entries(n: int, count: int) -> int:
    """Entries of the block _rho_batch reuses for n terms and count xs."""
    cols = min(count, _BLOCK)
    return (min(n, _batch_rows(cols)) + 1) * cols


def cosine_product_limit(
    spec: SequenceSpec, x: float, eps: float, *, memory_gib: float = MEMORY_GIB
) -> RhoValue:
    """The infinite product lim_N rho_N(x): the tail-corrected kernel at the
    one node |x|, with its certified bound as tail_bound.

    M starts at the kernel's M for |x| and doubles while the bound is above
    eps and its truncation part is what exceeds it. DivergedTruncation is
    raised once the rounding part alone exceeds eps; that part is at least
    9 M 2^-53, about 1e-12 at M = 1024, so the doubling ends. x = 0 gives
    1 exactly, with bound 0 and no terms. Every M is priced against
    memory_gib before its terms are sieved.
    """
    if not eps > 0:
        raise ValueError("eps must be positive")
    x = _finite(x)
    if x == 0.0:
        return RhoValue(x=x, n=None, value=1.0, tail_bound=0.0, terms_used=0)
    m = 0
    while True:
        m, kernel = _kernel(spec, abs(x), 2 * m, memory_gib)
        (value,), (bound,), (rounding,) = kernel(np.array([abs(x)]))
        if bound <= eps:
            return RhoValue(
                x=x, n=None, value=float(value), tail_bound=float(bound), terms_used=m
            )
        if rounding > eps:
            raise DivergedTruncation(
                f"rounding bound {rounding:.2e} alone exceeds eps={eps:.1e} at M={m}"
            )


def _rows(width: int) -> int:
    """Pairs per block of the counts, so a block holds about _ENTRIES entries."""
    return max(1, _ENTRIES // width)


def _far_counts(terms: np.ndarray, deltas: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """#{n : dist(x/b_n, nearest integer) >= delta} for every pair, in
    blocks of _rows(N) pairs."""
    terms = terms.astype(np.float64)
    out = np.empty(len(xs), dtype=np.int64)
    step = _rows(len(terms))
    for c in range(0, len(xs), step):
        t = xs[c : c + step, None] / terms
        t -= np.rint(t)
        out[c : c + step] = np.count_nonzero(np.abs(t, out=t) >= deltas[c : c + step, None], 1)
    return out


def count_far_from_integer(seq, delta: float, x: float) -> int:
    """#{n : dist(x/b_n, nearest integer) >= delta}."""
    return int(_far_counts(_terms(seq), *_one_pair(delta, x))[0])


def _near_counts(terms: np.ndarray, ys: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """For every pair, the pairs (m, b) with b | m over the integers m in
    (x-y, x+y) and the back half of the terms (index n >= ceil(N/2)). The
    multiples of b in [m_lo, m_hi] number floor(m_hi/b) - floor((m_lo-1)/b),
    m <= 0 included, so the count is O(N) per pair, whatever the width."""
    if not np.all(np.abs(xs) + ys < 2.0**63):
        raise ValueError("x - y and x + y must be finite and within 64-bit integers")
    window = terms[(len(terms) + 1) // 2 - 1 :]
    below = np.floor(xs - ys).astype(np.int64)  # m_lo - 1
    top = np.maximum(np.ceil(xs + ys).astype(np.int64) - 1, below)  # m_hi, or none
    out = np.empty(len(xs), dtype=np.int64)
    step = _rows(len(window))
    for c in range(0, len(xs), step):
        multiples = top[c : c + step, None] // window
        multiples -= below[c : c + step, None] // window
        out[c : c + step] = multiples.sum(axis=1)
    return out


def count_near_multiples(seq, y: float, x: float) -> int:
    """Over integers m with x-y < m < x+y, count pairs (m, b) with b | m,
    b running over the back half of the terms (index n >= ceil(N/2))."""
    if y < 0:
        raise ValueError("y must be >= 0")
    return int(_near_counts(_terms(seq), np.array([float(y)]), np.array([float(x)]))[0])


def sigma_minus(w: float, m: int) -> float:
    """sum over divisors d of m of d^(-w)."""
    if w <= 0:
        raise ValueError("w must be positive")
    if m < 1:
        raise ValueError("m must be >= 1")
    total = 0.0
    d = 1
    while d * d <= m:
        if m % d == 0:
            total += d ** (-w)
            if d != m // d:
                total += (m // d) ** (-w)
        d += 1
    return total


def _exp_holds(terms: np.ndarray, deltas: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """|rho_N(x)| <= exp(-pi^2 delta^2 / 2 * far_count) + FLOAT_SLACK, per pair."""
    lhs = np.abs(_rho_batch(terms, xs))
    count = _far_counts(terms, deltas, xs)
    return lhs <= np.exp(-(math.pi ** 2) * deltas ** 2 / 2.0 * count) + FLOAT_SLACK


def check_exponential_bound(seq, delta: float, x: float) -> bool:
    """|rho_N(x)| <= exp(-pi^2 delta^2 / 2 * far_count) up to float slack."""
    return bool(_exp_holds(_terms(seq), *_one_pair(delta, x))[0])


def _sandwich_holds(terms: np.ndarray, deltas: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """N/2 - near_count(delta b_N) - 1 <= far_count <= N, per pair."""
    n = len(terms)
    far = _far_counts(terms, deltas, xs)
    near = _near_counts(terms, deltas * float(terms[-1]), xs)
    return (n / 2 - near - 1 <= far) & (far <= n)


def _scan(holds, seq, pairs: int, seed: int, x_max: float, memory_gib: float) -> BoundCheckReport:
    """The x of random (x, delta) pairs, x in [0, x_max), delta in
    [0, 1/2), for which holds(terms, deltas, xs) is False, every pair in one
    batch. The pairs and the counting blocks are priced before the draw:
    72 B per pair (x, delta, |rho_N| or the near counts, the far counts and
    the bound's temporaries), 24 B per entry of a counting block and 16 B
    per entry of a _rho_batch block."""
    terms = _terms(seq)
    if not 0.0 < x_max < math.inf:
        raise ValueError(f"x_max must be finite and positive, got {x_max}")
    n = len(terms)
    _check_memory(
        72 * pairs + 24 * min(pairs, _rows(n)) * n + 16 * _batch_entries(n, pairs),
        memory_gib,
    )
    rng = np.random.default_rng(seed)
    xs = rng.uniform(0.0, x_max, pairs)
    deltas = rng.uniform(0.0, 0.5, pairs)
    violations = tuple(xs[~holds(terms, deltas, xs)].tolist())
    return BoundCheckReport(
        a=None, x_lo=0.0, x_hi=x_max, samples=pairs, violations=violations,
        passed=not violations,
    )


def exponential_bound_suite(
    seq, pairs: int = 1000, seed: int = 0, x_max: float = 1000.0, *,
    memory_gib: float = MEMORY_GIB,
) -> BoundCheckReport:
    """Random (x, delta) scan of check_exponential_bound."""
    return _scan(_exp_holds, seq, pairs, seed, x_max, memory_gib)


def sandwich_suite(
    seq, pairs: int = 200, seed: int = 0, x_max: float = 1000.0, *,
    memory_gib: float = MEMORY_GIB,
) -> BoundCheckReport:
    """Random scan of the counting sandwich: with y = delta * b_N,
    far_count >= N/2 - near_multiple_count(y) - 1 and far_count <= N."""
    return _scan(_sandwich_holds, seq, pairs, seed, x_max, memory_gib)


def check_decay(
    spec: SequenceSpec,
    n: int,
    a: float,
    grid: int,
    *,
    c_prime: float | None = None,
    x_cap: float = 1e6,
    memory_gib: float = MEMORY_GIB,
) -> BoundCheckReport:
    """Scan |rho_N(x)| < x^(-a) on a log grid over [N, exp(c' log^2 N)].

    With the default placeholder c' the window is empty below astronomical
    N, making the report vacuous (samples=0, flagged); pass an explicit
    c_prime for a substantive scan. Finite-range diagnostic, not a proof.
    a, c_prime and x_cap must be finite; the grid is priced before it is
    built, at 48 B per node and a _rho_batch block.
    """
    defaulted = c_prime is None
    cp = C_PRIME_DEFAULT if defaulted else float(c_prime)
    for name, value in (("a", a), ("c_prime", cp), ("x_cap", x_cap)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if a < 0 or grid < 1:
        raise ValueError("need a >= 0 and grid >= 1")
    _check_memory(48 * grid + 16 * _batch_entries(n, grid), memory_gib)
    x_lo = float(n)
    try:
        x_hi = min(x_cap, math.exp(cp * math.log(n) ** 2))
    except OverflowError:  # the range ends beyond every float
        x_hi = x_cap
    xs = np.geomspace(x_lo, x_hi, grid) if x_lo <= x_hi else np.empty(0)
    rho = np.abs(_rho_batch(terms_array(spec, n), xs))
    violations = tuple(float(v) for v in xs[rho >= xs ** (-a)])
    return BoundCheckReport(
        a=a, x_lo=x_lo, x_hi=x_hi, samples=len(xs), violations=violations,
        passed=not violations, c_prime=cp, c_prime_defaulted=defaulted,
    )


# -- smooth test function and the expectation identity ----------------------


def smooth_bump(y):
    """(1 - y^2)^2 on [-1, 1], zero outside; C^1 with compact support."""
    y = np.asarray(y, dtype=np.float64)
    out = np.where(np.abs(y) <= 1.0, (1.0 - y * y) ** 2, 0.0)
    return float(out) if out.ndim == 0 else out


def smooth_bump_transform(x):
    """Fourier transform of smooth_bump: integral of (1-y^2)^2 e^(-2 pi i x y).

    Real and even. Closed form with a = 2 pi x:
    -16 sin a / a^3 - 48 cos a / a^4 + 48 sin a / a^5, with a Taylor series
    takeover near 0 (value 16/15 at x = 0).
    """
    x = np.asarray(x, dtype=np.float64)
    a = 2.0 * np.pi * x
    small = np.abs(a) < 0.5
    a_safe = np.where(small, 1.0, a)
    closed = (
        -16.0 * np.sin(a_safe) / a_safe**3
        - 48.0 * np.cos(a_safe) / a_safe**4
        + 48.0 * np.sin(a_safe) / a_safe**5
    )
    a2 = a * a
    series = 16.0 / 15.0 - 8.0 * a2 / 105.0 + 2.0 * a2 * a2 / 945.0 - a2 * a2 * a2 / 31185.0
    out = np.where(small, series, closed)
    return float(out) if out.ndim == 0 else out


def expectation_identity(seq, *, x_max: float = 600.0, step: float = 0.005):
    """Two routes to E[bump(X_N)], X_N the random signed sum over the terms.

    Returns (exact, quadrature): `exact` averages the bump over all 2^N
    outcomes (every sign vector, summed in float); `quadrature` computes
    2 * integral_0^x_max bump_transform(x) * rho_N(2x) dx by composite
    Simpson with the given step. The transform decays like x^-4, so the
    x_max tail is ~1e-10 at the default settings. N is capped at ENUM_CAP,
    x_max and step must be finite and positive, and both phases are priced
    against MEMORY_GIB before either allocates.
    """
    terms = _terms(seq).astype(np.float64)
    _check_cap(len(terms), ENUM_CAP)
    if not (0.0 < x_max < math.inf and 0.0 < step < math.inf):
        raise ValueError(f"x_max and step must be finite and positive, got {x_max} and {step}")
    # Float outcomes, each within N u sum 1/b of exact (u = 2^-53: the
    # rounded 1/b and N - 1 rounded additions of partial sums below sum
    # 1/b), so the bump's mean, whose slope is below 1.6, moves by less than
    # 1.6 N u sum 1/b. Both phases are priced first: the outcomes at 25 B
    # each (8 for them, 17 for the mask and smooth_bump's two temporaries),
    # then, once they are freed, 64 B per quadrature node (the nodes and the
    # transform's temporaries; 57 measured) and _rho_batch's two float64
    # blocks. The node count is still a float here, so a tiny step is
    # refused before it becomes an int.
    _check_memory(
        max(
            25 * 2 ** len(terms),
            64 * (x_max / step + 2) + 16 * _batch_entries(len(terms), _BLOCK),
        ),
        MEMORY_GIB,
    )
    exact = float(np.mean(smooth_bump(_expand(1.0 / terms, SIGNS))))

    npts = max(2, int(round(x_max / step)))
    if npts % 2 == 1:
        npts += 1  # composite Simpson needs an even panel count
    xs = np.linspace(0.0, x_max, npts + 1)
    integrand = smooth_bump_transform(xs) * _rho_batch(terms, 2.0 * xs)
    weights = np.ones(npts + 1)  # composite Simpson
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    return exact, 2.0 * float(x_max / npts / 3.0 * np.dot(weights, integrand))


# -- tail sums ---------------------------------------------------------------
#
# T_j(m) = sum_{n>m} b_n^-j for j = 2, 4. Past the first KERNEL_M terms it
# is the full series S_j = sum_n b_n^-j minus that head. Both are summed in
# Python-int fixed point, each term floored once at a scale of 2^bits with
# bits >= _K, and rounded once to a 40-digit decimal, so the difference
# keeps full float precision however small the tail: S_4 - head cancels
# about 18 digits for the primes at M = 2^16, which a double-double head
# would not survive. Each further dyadic block sum_{M<n<=2M} b_n^-j is
# summed in numpy double-double, its value converted exactly to decimal and
# subtracted there, so T_j(2M) reuses T_j(M). Nothing here runs at import.

_DEC = decimal.Context(prec=40)
_WIDE = decimal.Context(prec=60)
_K = 200                   # fraction bits, at least, of the fixed-point sums

# B_2, B_4, ..., B_30 as (numerator, denominator)
_BERNOULLI = (
    (1, 6), (-1, 30), (1, 42), (-1, 30), (5, 66), (-691, 2730), (7, 6), (-3617, 510),
    (43867, 798), (-174611, 330), (854513, 138), (-236364091, 2730), (8553103, 6),
    (-23749461029, 870), (8615841276005, 14322),
)


def _decimal(value: int, bits: int) -> Decimal:
    """value 2^-bits, rounded once to 40 digits."""
    return _DEC.divide(Decimal(value), Decimal(1 << bits))


def _fixed_hurwitz(s: int, a: int, q: int, bits: int) -> int:
    """2^bits zeta(s, a/q), zeta(s, z) = sum_{i>=0} (z + i)^-s, for integer
    s >= 2 and a, q >= 1. Each term is one floor division of integers, so
    within a unit of 2^-bits. For s >= 40 the terms with z + i < 14
    directly: every later one is below 14^-40 and all of them below 2e-46.
    Otherwise 32 terms directly and the rest by the Euler-Maclaurin
    (polygamma) asymptotic series at w = z + 32, whose 16th omitted term is
    below 1e-40; its coefficients B_2k/(2k)! are exact rationals. So 49
    units at most, plus that term."""
    scale = q**s << bits
    if s >= 40:
        return sum(scale // (a + i * q) ** s for i in range(max(1, 14 - a // q)))
    total = sum(scale // (a + i * q) ** s for i in range(32))
    w = a + 32 * q  # z + 32 = w / q
    total += (q ** (s - 1) << bits) // ((s - 1) * w ** (s - 1))
    total += scale // (2 * w**s)
    rising = s  # s (s+1) ... (s+2k-2)
    for k, (num, den) in enumerate(_BERNOULLI, 1):
        e = s + 2 * k - 1  # the term is B_2k/(2k)! rising w^-e
        total += (num * rising * q**e << bits) // (den * math.factorial(2 * k) * w**e)
        rising *= (s + 2 * k - 1) * (s + 2 * k)
    return total


def _hurwitz(s: int, a: int, q: int = 1) -> Decimal:
    """zeta(s, a/q) to 40 digits, from _fixed_hurwitz at bits = _K +
    s * bitlength(a // q): a/q < 2^bitlength(a // q), so the leading term
    (a/q)^-s alone is above 2^(_K - bits), and the fixed-point error is
    below 2^-194 relative."""
    bits = _K + s * (a // q).bit_length()
    return _decimal(_fixed_hurwitz(s, a, q, bits), bits)


def _mobius(k: int) -> int:
    result, p = 1, 2
    while p * p <= k:
        if k % p == 0:
            k //= p
            if k % p == 0:
                return 0
            result = -result
        p += 1
    return -result if k > 1 else result


def _log_zeta(s: int, bits: int) -> int:
    """2^bits log zeta(s) = 2^bits log(1 + x), x = zeta(s, 2), for s >= 2.
    Once s >= 16, x < 2^-15 and log(1 + x) is its alternating series in
    fixed point: each power and term floored once, the powers' errors
    shrinking by 2^-15 a step, within 2 units a term. Below that, at 60
    digits, so within 1e-60."""
    x = _fixed_hurwitz(s, 2, 1, bits)
    if s < 16:
        with decimal.localcontext(_WIDE):
            return int(_WIDE.ln(1 + Decimal(x) / (1 << bits)) * (1 << bits))
    total, power, n = 0, x, 1
    while power:
        total += power // n if n % 2 else -(power // n)
        power = power * x >> bits
        n += 1
    return total


@lru_cache(maxsize=None)
def _prime_zeta(s: int) -> Decimal:
    """P(s) = sum over primes p^-s = sum_k mu(k)/k log zeta(ks) (Froberg,
    BIT 8, 1968), to 40 digits; log zeta(ks) < 2^(1-ks), so terms past
    ks = 140 are below 1e-42. The sum is in fixed point at bits = _K + s,
    as P(s) > 2^-s: each log within 1e-60 or a few dozen units, and each
    division by k floored once."""
    bits = _K + s
    total = 0
    k = 1
    while k == 1 or k * s < 140:
        mu = _mobius(k)
        if mu:
            total += mu * (_log_zeta(k * s, bits) // k)
        k += 1
    return _decimal(total, bits)


def _elementary(k: int, power_sums: list[Decimal]) -> Decimal:
    """e_k from the power sums p_1..p_k by Newton's identities."""
    e = [Decimal(1)]
    for n in range(1, k + 1):
        e.append(sum((-1) ** (i - 1) * e[n - i] * power_sums[i - 1] for i in range(1, n + 1)) / n)
    return e[k]


@lru_cache(maxsize=None)
def _series(spec: SequenceSpec, j: int) -> Decimal:
    """S_j = sum over every term of b^-j, for j >= 2."""
    with decimal.localcontext(_DEC):
        if spec.kind == KIND_PRIMES:
            return _prime_zeta(j)
        if spec.kind == KIND_PK:  # e_k of {p^-j}
            return _elementary(spec.k, [_prime_zeta(j * m) for m in range(1, spec.k + 1)])
        if spec.kind == KIND_OMEGA:
            # e_k of {x_p = 1/(p^j - 1)}, the prime-power sums; the m-th power
            # sum of x_p is sum_{i>=0} C(m+i-1, i) P(j(m+i))
            sums = []
            for m in range(1, spec.k + 1):
                total, i = Decimal(0), 0
                while math.comb(m + i - 1, i) * 2.0 ** (-j * (m + i)) > 1e-45:
                    total += math.comb(m + i - 1, i) * _prime_zeta(j * (m + i))
                    i += 1
                sums.append(total)
            return _elementary(spec.k, sums)
        if spec.kind == KIND_NONPRIMES:  # 1 and the composites: zeta(j) - P(j)
            return 1 + _hurwitz(j, 2) - _prime_zeta(j)
        if spec.kind == KIND_AP:  # q^-j zeta(j, a/q)
            return _hurwitz(j, spec.a, spec.q) / Decimal(spec.q) ** j
        return _power_sum(spec.values, j)


def _power_sum(terms, j: int) -> Decimal:
    """sum b^-j over the positive integers b of terms, to 40 digits, within
    1e-39 relative. In fixed point at bits = _K + j * bitlength(max b): each
    b^-j is at least 2^(_K - bits), so its one floor division errs by below
    2^-200 relative, as does the sum, which is rounded once to 40 digits."""
    bits = _K + j * max(terms, default=1).bit_length()
    one = 1 << bits
    return _decimal(sum(one // b**j for b in terms), bits)


# Double-double arithmetic (Dekker 1971; Ogita, Rump & Oishi, SIAM J. Sci.
# Comput. 26, 2005) on numpy arrays, in round-to-nearest with u = 2^-53.
# Every value is positive and far from overflow and underflow: the terms
# lie in [1, 2^63), so b^-4 >= 2^-252.


def _two_sum(a, b):
    """(s, e): s = fl(a + b) and s + e = a + b exactly (Knuth)."""
    s = a + b
    v = s - a
    return s, (a - (s - v)) + (b - v)


def _two_prod(a, b):
    """(p, e): p = fl(a b) and p + e = a b exactly (Dekker, Veltkamp's split)."""
    p = a * b
    c = 134217729.0 * a  # 2^27 + 1
    ah = c - (c - a)
    c = 134217729.0 * b
    bh = c - (c - b)
    al, bl = a - ah, b - bh
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _dd_square(h, l):
    """(h + l)^2 as a normalized double-double, for |l| <= 2.1u h: within
    14 u^2 relative (the omitted l^2 and two roundings). h^2 = p + e is
    Dekker's product with one split, as 2 (hh hl) is exact."""
    p = h * h
    c = 134217729.0 * h
    hh = c - (c - h)
    hl = h - hh
    e = ((hh * hh - p) + 2.0 * (hh * hl)) + hl * hl
    e += 2.0 * (h * l)
    s = p + e  # fast two-sum: |e| <= 5.2u p
    return s, e - (s - p)


def _inverse_powers(b: np.ndarray):
    """b^-2 and b^-4 as normalized double-doubles (hi, lo) for int64 terms
    b >= 1, within 35 u^2 and 76 u^2 relative.

    b = s + e exactly from its high and low 32 bits. With r = fl(1/s) and
    p + q = r s exactly, 1 - p is exact (p is within 2u of 1), so
    R = 1 - r b = (1 - p) - q - r e is computed within 4u^2 and r R within
    6u^2 r; as 1/b = r / (1 - R) = r (1 + R) + O(R^2) with |R| <= 2u,
    (r, r R) is within 10 u^2 of 1/b. A squaring doubles the relative error
    and adds 14 u^2 (6 u^2 once the input is normalized)."""
    s, e = _two_sum(
        (b >> 32).astype(np.float64) * 4294967296.0, (b & 0xFFFFFFFF).astype(np.float64)
    )
    r = 1.0 / s
    p, q = _two_prod(r, s)
    inv2 = _dd_square(r, r * (((1.0 - p) - q) - r * e))
    return inv2, _dd_square(*inv2)


def _dd_total(h, l):
    """The sum of nonnegative normalized double-doubles (h_i, l_i) by a
    pairwise tree. An addition rounds l_a + l_b and then its sum with the
    TwoSum error of h_a + h_b, erring by at most 3u^2 (1 + u) fl(h_a + h_b),
    so a level errs by 3.1 u^2 of the total and D levels by 3.1 D u^2."""
    while len(h) > 1:
        if len(h) % 2:
            h, l = np.append(h, 0.0), np.append(l, 0.0)
        s, e = _two_sum(h[::2], h[1::2])
        e += l[::2] + l[1::2]
        h = s + e  # fast two-sum: |e| <= 2.1u s
        l = e - (h - s)
    return h[0], l[0]


_DD_CHUNK = 2**14          # terms per double-double pass: 14 tree levels
# a chunk's sum is within (76 + 3.1 * 14) u^2 < 2^-99 relative, and adding
# the chunks' hi and lo in 40-digit decimal, below 1e-39 relative per
# chunk, keeps a block's sum within _DD_REL for any block numpy can hold
_DD_REL = 2.0**-98


def _block_sums(b: np.ndarray) -> tuple[Decimal, Decimal]:
    """(sum b^-2, sum b^-4) over the int64 terms b, each within _DD_REL
    relative: numpy double-double per chunk of _DD_CHUNK terms, the chunks'
    hi and lo added exactly converted in decimal."""
    totals = [Decimal(0), Decimal(0)]
    with decimal.localcontext(_DEC):
        for c in range(0, len(b), _DD_CHUNK):
            for k, (h, l) in enumerate(_inverse_powers(b[c : c + _DD_CHUNK])):
                hi, lo = _dd_total(h, l)
                totals[k] += Decimal(float(hi)) + Decimal(float(lo))
    return totals[0], totals[1]


# T_j(m) as 40-digit decimals, each with a bound on its absolute error, by
# (spec, KERNEL_M, m): KERNEL_M fixes the route, so a value's bits never
# depend on the calls before it
_TAILS: dict[tuple[SequenceSpec, int, int], list[tuple[Decimal, float]]] = {}


def _tail_decimals(spec: SequenceSpec, terms: np.ndarray) -> list[tuple[Decimal, float]]:
    """[(T_2(m), its error bound), (T_4(m), its error bound)] past the
    m = len(terms) first terms of spec.

    A finite sequence sums its tail directly, within 1e-39 relative
    (`_power_sum`). Otherwise S_j (within 1e-38, checked against mpmath)
    minus the head (within 1e-39 relative), the difference rounded once to
    40 digits, when m <= KERNEL_M. Past that, T_j(m) is the T_j of the
    largest KERNEL_M 2^i below m minus the block after it."""
    m = len(terms)
    key = (spec, KERNEL_M, m)
    if key not in _TAILS:
        with decimal.localcontext(_DEC):
            if spec.kind == KIND_CUSTOM:
                tails = [_power_sum(spec.values[m:], j) for j in (2, 4)]
                _TAILS[key] = [(t, 1e-39 * (len(spec.values) - m) * float(t)) for t in tails]
            elif m <= KERNEL_M:
                _TAILS[key] = [
                    (_series(spec, j) - _power_sum(terms.tolist(), j),
                     1e-38 + 1e-39 * (m + 1) * float(_series(spec, j)))
                    for j in (2, 4)
                ]
            else:
                prev = KERNEL_M << ((m - 1) // KERNEL_M).bit_length() - 1
                _TAILS[key] = [
                    (t - block, err + _DD_REL * float(block) + 5e-40 * float(t))
                    for (t, err), block in zip(
                        _tail_decimals(spec, terms[:prev]), _block_sums(terms[prev:])
                    )
                ]
    return _TAILS[key]


def _tail_sums(spec: SequenceSpec, terms: np.ndarray):
    """((T_2(m), T_4(m)), (e_2, e_4)) past the m = len(terms) first terms of
    spec. e_j is the part of T_j's error bound beyond u/2 relative, which
    the kernel's rounding allows for. Each T_j is checked against the
    certified range 0 <= T_j <= 1/((j-1) b_m^(j-1)) that holds for any
    strictly increasing integer sequence."""
    out, extra = [], []
    for j, (t, err) in zip((2, 4), _tail_decimals(spec, terms)):
        t = float(t)
        if not 0.0 <= t <= 1.0 / ((j - 1) * float(terms[-1]) ** (j - 1)):
            raise CertificateError(
                f"T_{j}({len(terms)}) = {t!r} for {spec.label()} is outside its bounds"
            )
        out.append(t)
        extra.append(max(0.0, err - 2.0**-54 * t))
    return (out[0], out[1]), (extra[0], extra[1])


# -- tail-corrected kernel, density and interval probability ----------------


def _kernel(
    spec: SequenceSpec, x_max: float, least: int = 0, memory_gib: float = MEMORY_GIB
):
    """(M, kernel) for |x| <= x_max, M the smallest KERNEL_M * 2^i, and at
    least `least`, with pi x_max <= b_{M+1} (or every term of a finite
    sequence), priced against memory_gib before any sieve runs: kernel(xs)
    is (values, bounds, rounding), a value being the product of the first M
    factors times exp(-(pi x)^2 T_2/2 - (pi x)^4 T_4/12) and rounding the
    rounding part of its bound."""
    cap = len(spec.values) if spec.kind == KIND_CUSTOM else math.inf

    def size(count: int) -> int:
        """The smallest KERNEL_M * 2^i >= max(count, least), or cap if less."""
        m = KERNEL_M
        while m < max(count, least):
            m *= 2
        return min(m, cap)

    # b_n >= n, so fewer than pi x_max terms lie below pi x_max: M is priced
    # before any sieve runs, at 24 B per term (the int64 terms, their float64
    # copy and reciprocals) and 16 B more for a sieved family (the sieve's
    # collected pieces and their concatenation), plus 40 B per term of the
    # decimal head (its Python ints) and 136 B per term of a double-double
    # chunk if M may pass KERNEL_M (its temporaries)
    below = math.ceil(math.pi * x_max) - 1
    most = size(below)
    per_term = 24 if spec.kind in (KIND_AP, KIND_CUSTOM) else 40
    chunk = min(_DD_CHUNK, max(0, most - KERNEL_M))
    _check_memory(per_term * most + 40 * KERNEL_M + 136 * chunk, memory_gib)
    m = size(count_up_to(spec, below))
    ints = terms_array(spec, m)
    (t2, t4), (e2, e4) = _tail_sums(spec, ints)
    terms = ints.astype(np.float64)
    # sum_{n>M} b_n^-6 <= 1/(5 b_M^5), and 0 once a finite sequence is used up
    t6 = 0.0 if m == cap else 1.0 / (5.0 * float(terms[-1]) ** 5)
    inv_sum = math.fsum(1.0 / terms)

    def kernel(xs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        px = np.pi * np.abs(xs)
        expo = px**2 * (t2 / 2.0) + px**4 * (t4 / 12.0)
        values = _rho_batch(terms, xs) * np.exp(-expo)
        # truncation: rho = value * exp(-r), 0 <= r <= _C6 (pi x)^6 T_6, as each
        # t = pi x / b_n past M is at most 1. r >= 0, as every term of
        # -log cos t - t^2/2 - t^4/12 is positive for |t| <= 1, so the
        # relative error 1 - exp(-r) is at most min(r, 1). Rounding, worst
        # case (u = 2^-53): per factor 3u|t| from its argument, 8u from cos
        # (4 ulp assumed) and u from the product; 11u relative in the
        # exponent, which allows each T_j an error of u/2 beyond its rounding
        # to float, e_j being the rest of its bound; 3u in exp and product
        trunc = np.minimum(_C6 * px**6 * t6, 1.0)
        rounding = (9 * m + 3.0 * px * inv_sum + 3.0 + 11.0 * expo) * 2.0**-53
        rounding += px**2 * (e2 / 2.0) + px**4 * (e4 / 12.0)
        return values, np.abs(values) * trunc + rounding * (1.0 + trunc), rounding

    return m, kernel


@dataclass(frozen=True)
class _Grid:
    """rho(2u) and its bound at u = 0, h, ..., cut; max |rho(2u)| sampled on [cut/2, cut]."""

    cut: float
    h: float
    m: int
    values: np.ndarray
    bounds: np.ndarray
    envelope: float


def _step(spec: SequenceSpec, ax: float) -> float:
    """Trapezoid step for frequency ax: the largest 2^-k, k >= 4, with
    1/(2h) >= ax + w. The rule at step 2h aliases mass from distance
    1/(2h) - ax; w = sqrt(80 S_2) puts that beyond Hoeffding's 2 exp(-40)."""
    if not math.isfinite(ax):
        raise ValueError("x, lo and hi must be finite")
    w = math.sqrt(80.0 * float(_series(spec, 2)))
    return 2.0 ** -max(4, math.ceil(math.log2(2.0 * (ax + w))))


def _grid(spec: SequenceSpec, eps: float, h: float, memory_gib: float) -> _Grid:
    """Kernel nodes at step h (a power of two, at most 1/16) out to a cut
    that doubles from DENSITY_U until the envelope, at the 65 nodes cut/128
    apart on [cut/2, cut], is below min(eps, DENSITY_TOL). Those nodes do
    not depend on h, so the cut, M (from the largest node, 2 cut) and each
    node's value are the same for every request. A doubling evaluates only
    the new nodes, unless M grows with it."""
    if not eps > 0:
        raise ValueError("eps must be positive")
    tol = min(eps, DENSITY_TOL)
    cut, m, values, bounds = DENSITY_U, 0, np.empty(0), np.empty(0)
    while cut <= DENSITY_U_CAP:
        wider, kernel = _kernel(spec, 2.0 * cut, memory_gib=memory_gib)
        keep = len(values) if wider == m else 0
        m = wider
        more, more_bounds, _ = kernel(2.0 * h * np.arange(keep, round(cut / h) + 1))
        values = np.concatenate([values[:keep], more])
        bounds = np.concatenate([bounds[:keep], more_bounds])
        envelope = float(np.abs(values[len(values) // 2 :: round(cut / 128 / h)]).max())
        if envelope < tol:
            return _Grid(cut, h, m, values, bounds, envelope)
        cut *= 2.0
    raise TruncationFailure(
        f"kernel envelope {envelope:.2e} not below {tol:.1e} by U={DENSITY_U_CAP}"
    )


def _transform(grid: _Grid, h: float, factor, scale: float) -> tuple[float, float]:
    """2 * integral_0^cut factor(u) rho(2u) du by the trapezoid rule at step
    h, a multiple of the grid's, and its error estimate: |T_h - T_2h| plus
    2 cut scale (largest node bound + envelope), where |factor| <= scale."""
    stride = round(h / grid.h)
    v = grid.values[::stride]
    f = factor(h * np.arange(len(v))) * v
    f[[0, -1]] /= 2.0
    fine = 2.0 * h * math.fsum(f)
    coarse = 4.0 * h * math.fsum(f[::2])
    reach = 2.0 * grid.cut * scale * (float(grid.bounds[::stride].max()) + grid.envelope)
    return fine, abs(fine - coarse) + reach


def densities(
    spec: SequenceSpec, xs, eps: float, *, memory_gib: float = MEMORY_GIB
) -> list[DensitySample]:
    """g(x) = 2 * integral_0^inf cos(2 pi u x) rho(2u) du at every x in xs.
    One grid (`_grid`) serves the request; each distinct |x| is integrated
    once at its own step (`_step`), so `densities(xs) == [density(x) for x
    in xs]` and g is even in x exactly. The kernel is priced against
    memory_gib."""
    xs = [float(x) for x in xs]
    steps = {abs(x): _step(spec, abs(x)) for x in xs}
    grid = _grid(spec, eps, min(steps.values(), default=_step(spec, 0.0)), memory_gib)
    by_ax = {
        ax: _transform(grid, h, lambda u, ax=ax: np.cos(2.0 * np.pi * ax * u), 1.0)
        for ax, h in steps.items()
    }
    return [DensitySample(x, *by_ax[abs(x)], grid.m, grid.cut) for x in xs]


def density(
    spec: SequenceSpec, x: float, eps: float, *, memory_gib: float = MEMORY_GIB
) -> DensitySample:
    """g(x) at one point; see `densities`."""
    return densities(spec, [x], eps, memory_gib=memory_gib)[0]


def _interval(
    spec: SequenceSpec, lo: float, hi: float, eps: float, memory_gib: float = MEMORY_GIB
) -> tuple[float, float]:
    """(P(lo < X < hi), its error estimate) by the sine transform
    2 * integral_0^inf rho(2u) (sin 2 pi u hi - sin 2 pi u lo) / (2 pi u) du,
    its integrand written (hi - lo) cos(pi u (hi + lo)) sinc(u (hi - lo))."""
    if not lo < hi:
        raise ValueError("need lo < hi")
    h = _step(spec, max(abs(lo), abs(hi)))
    width, mid = hi - lo, hi + lo
    def factor(u):
        return width * np.cos(np.pi * mid * u) * np.sinc(width * u)

    return _transform(_grid(spec, eps, h, memory_gib), h, factor, width)


def interval_probability(
    spec: SequenceSpec, lo: float, hi: float, eps: float, *, memory_gib: float = MEMORY_GIB
) -> float:
    """The integral of the density over [lo, hi], a float; see `_interval`.
    The kernel is priced against memory_gib."""
    return _interval(spec, lo, hi, eps, memory_gib)[0]
