"""Cosine-product kernels, their infinite-product limit, the limiting
density and interval probabilities, and finite-range inequality checks.

The kernel rho_N(x) = prod_{n<=N} cos(pi x / b_n) is evaluated in double
precision, each block of terms by xs in one numpy multiply.reduce that
keeps every x's factors in term order. One tail-corrected kernel,
`_Kernel`, evaluates the limit rho(x): it multiplies M >= 1024 factors by
exp(-(pi x)^2 T_2/2 - (pi x)^4 T_4/12), with T_j = sum_{n>M} b_n^-j the
closed-form series of the family minus its first 1024 terms, less each
further dyadic block of terms summed in numpy double-double, all in integer
fixed point and rounded once to float. Every node is bounded by the rest
of the -log cos series, as a relative error of at most 1, plus a
worst-case rounding term, which takes in the error bound of T_j.
`cosine_product_limit` (the `rho` subcommand) is that kernel at one node,
with its bound. It grows in place: M is read from the terms it holds, and
a larger M sieves on from where the sieve stopped and sums only new blocks.

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
`memory_gib` budget, MEMORY_GIB by default, before they allocate. Only
`expectation_identity` uses the exact layer, and imports it when it runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    ENUM_CAP, MEMORY_GIB, CertificateError, DivergedTruncation, TruncationFailure, _check_cap,
    _check_memory,
)
from .sequences import (
    KIND_AP, KIND_CUSTOM, KIND_NONPRIMES, KIND_OMEGA, KIND_PK, KIND_PRIMES, SequenceSpec,
    _first_n, _sieve, _sieve_bytes, _terms, terms_array,
)
from .double_double import _dd_total, _inverse_powers

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
    kernel = _Kernel(spec, memory_gib)
    kernel.fit(abs(x))
    while True:
        (value,), (bound,), (rounding,) = kernel(np.array([abs(x)]))
        if bound <= eps:
            return RhoValue(
                x=x, n=None, value=float(value), tail_bound=float(bound), terms_used=kernel.m
            )
        if rounding > eps:
            raise DivergedTruncation(
                f"rounding bound {rounding:.2e} alone exceeds eps={eps:.1e} at M={kernel.m}"
            )
        kernel.grow(2 * kernel.m)


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
    a, c_prime and x_cap must be finite; the grid and the terms are priced
    before either is built, at 48 B per node, a _rho_batch block and, per
    term, the int64 terms, _rho_batch's float64 copy and what a sieve holds.
    """
    defaulted = c_prime is None
    cp = C_PRIME_DEFAULT if defaulted else float(c_prime)
    for name, value in (("a", a), ("c_prime", cp), ("x_cap", x_cap)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if a < 0 or grid < 1:
        raise ValueError("need a >= 0 and grid >= 1")
    _check_memory(
        48 * grid + 16 * _batch_entries(n, grid) + (16 + _sieve_bytes(spec)) * n, memory_gib
    )
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
    from .exact import SIGNS, _expand  # only the capped 2^N enumeration loads `exact`
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
# is the full series S_j = sum_n b_n^-j minus that head. Each sum is a
# Python int in units of 2^-_BITS, where b^-4 of an int64 term is at least
# 2^(_K - _BITS), each term floored once, so the difference keeps full
# float precision however much it cancels: about 18 digits for S_4 of the
# primes at M = 2^16, which a double-double head would not survive. Each
# further dyadic block sum_{M<n<=2M} b_n^-j is summed in numpy double-double
# (`double_double`) and taken to units, so T_j(2M) is T_j(M) less one block,
# and a kernel that grows keeps its T_j and sums only its new blocks. T_j is
# rounded to float once, correctly, by int true division. Each sum comes
# with err, a float bound on its distance from the exact value: its units
# and truncations, each proved where it is made. Nothing runs at import.

_K = 200                   # fraction bits, at least, of every b^-j, j <= 4
_BITS = _K + 4 * 63        # the one fixed-point scale
_UNIT = 2.0**-_BITS
_GUARD = 8                 # extra bits of the log series
_Fixed = tuple[int, float]  # a sum in units of 2^-_BITS and its error bound

# B_2, B_4, ..., B_30 as (numerator, denominator)
_BERNOULLI = (
    (1, 6), (-1, 30), (1, 42), (-1, 30), (5, 66), (-691, 2730), (7, 6), (-3617, 510),
    (43867, 798), (-174611, 330), (854513, 138), (-236364091, 2730), (8553103, 6),
    (-23749461029, 870), (8615841276005, 14322),
)


def _fixed_hurwitz(s: int, a: int, q: int, bits: int) -> _Fixed:
    """(2^bits sum_{i>=0} (a + i q)^-s, err) for integers s >= 2, a, q >= 1;
    each term is one floor division, within a unit of 2^-bits. For s >= 40
    the terms before w = a + q max(1, 14 - a // q) >= 14q; the rest sum
    below w^-s (1 + w/(q (s-1))). Otherwise 32 terms and the Euler-Maclaurin
    series at w = a + 32q: the even derivatives of (w + q i)^-s in i are all
    positive, so the remainder after the B_30 term has the sign of the next
    one and is smaller. 49 units at most, plus that cut."""
    one = 1 << bits
    n = max(1, 14 - a // q) if s >= 40 else 32
    total = sum(one // (a + i * q) ** s for i in range(n))
    w = a + n * q
    if s >= 40:
        cut = (1.0 + w / (q * (s - 1))) * float(w) ** -s
    else:
        total += one // ((s - 1) * q * w ** (s - 1))
        total += one // (2 * w**s)
        rising = s  # s (s+1) ... (s+2k-2)
        for k, (num, den) in enumerate(_BERNOULLI, 1):
            e = s + 2 * k - 1  # the term is B_2k/(2k)! rising q^(2k-1) w^-e
            num *= rising * q ** (2 * k - 1)
            total += (num << bits) // (den * math.factorial(2 * k) * w**e)
            rising *= (s + 2 * k - 1) * (s + 2 * k)
        # |B_32|/32! rising q^31 w^-(s+31), the next term
        cut = 7709321041217 * rising * q**31 / (510 * math.factorial(32) * w ** (s + 31))
    return total, cut + 49 * 2.0**-bits


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


@lru_cache(maxsize=None)
def _log_zeta(s: int, bits: int) -> _Fixed:
    """(2^bits log zeta(s), err) for s >= 2: with y = zeta(s, 2) at bits +
    _GUARD, log(1 + y) = 2 atanh(z) = 2 sum_{n odd} z^n/n, z = y/(2 + y) <
    1/4. z is floored once and each power and term once more; as z^2 < 1/16
    each power stays within 1.5 units, so the N terms sum within 2.5 N and
    those past the last nonzero power below 2. Doubled, plus a unit of
    2^-bits from the shift; log(1 + y) moves by no more than y."""
    fine = bits + _GUARD
    y, err = _fixed_hurwitz(s, 2, 1, fine)
    z = (y << fine) // ((2 << fine) + y)
    z2 = z * z >> fine
    total, power, n = 0, z, 1
    while power:
        total += power // n
        power = power * z2 >> fine
        n += 2
    return total >> _GUARD - 1, err + (5 * (n // 2) + 4) * 2.0**-fine + 2.0**-bits


@lru_cache(maxsize=None)
def _prime_zeta(s: int) -> _Fixed:
    """(P(s), err): P(s) = sum over primes p^-s = sum_k mu(k)/k log zeta(ks)
    (Froberg, BIT 8, 1968) for k = 1 and each ks < s + 140, each log / k
    floored once more. Past that, log zeta(t) < zeta(t) - 1 <= 2^(1-t) for
    t >= 3, so the terms from the first k left out, whose ks >= s + 140,
    sum below 2^(2-ks)/k <= 2^(-138-s): 2^-138 relative to P(s) >= 2^-s.
    The cut is relative because the power sums of `omega-k` weigh P(s), s
    up to about 180, by binomials up to about 10^9."""
    total, err, k = 0, 0.0, 1
    while k == 1 or (k - 1) * s < 140:
        mu = _mobius(k)
        if mu:
            v, e = _log_zeta(k * s, _BITS)
            total += mu * (v // k)
            err += e / k + _UNIT
        k += 1
    return total, err + 2.0 ** (2 - k * s) / k


def _elementary(k: int, sums: list[_Fixed]) -> _Fixed:
    """(e_k, err) from the power sums by Newton's identities. The p_i, of
    x <= 1/3 with p_1 < 1, and the e_i lie in [0, 1), and each product and
    division is floored once, so e_n is within n (max err + 2 units)."""
    e = [1 << _BITS]
    for n in range(1, k + 1):
        e.append(sum(
            (-1) ** (i - 1) * (e[n - i] * sums[i - 1][0] >> _BITS) for i in range(1, n + 1)
        ) // n)
    return e[k], k * (max(err for _, err in sums) + 2 * _UNIT)


@lru_cache(maxsize=None)
def _series(spec: SequenceSpec, j: int) -> _Fixed:
    """(S_j, err), S_j = sum over every term of b^-j, for j = 2, 4."""
    if spec.kind == KIND_PRIMES:
        return _prime_zeta(j)
    if spec.kind == KIND_PK:  # e_k of {p^-j}
        return _elementary(spec.k, [_prime_zeta(j * m) for m in range(1, spec.k + 1)])
    if spec.kind == KIND_OMEGA:
        # e_k of {x_p = 1/(p^j - 1)}, the prime-power sums; the m-th power
        # sum of x_p is sum_{i>=0} C(m+i-1, i) P(j(m+i)). P(t) <= 2^(1-t), and
        # the ratio r of t = C 2^-j(m+i) to the next falls in i, so the terms
        # from the first t <= 1e-45 on sum below 2t/(1-r)
        sums = []
        for m in range(1, spec.k + 1):
            total, err, i = 0, 0.0, 0
            while (t := (c := math.comb(m + i - 1, i)) * 2.0 ** (-j * (m + i))) > 1e-45:
                p, e = _prime_zeta(j * (m + i))
                total, err, i = total + c * p, err + c * e, i + 1
            r = (m + i) / (i + 1) / 2**j
            sums.append((total, err + (2 * t / (1 - r) if r < 1 else math.inf)))
        return _elementary(spec.k, sums)
    if spec.kind == KIND_NONPRIMES:  # 1 and the composites: zeta(j) - P(j)
        (h, eh), (p, ep) = _fixed_hurwitz(j, 2, 1, _BITS), _prime_zeta(j)
        return (1 << _BITS) + h - p, eh + ep
    if spec.kind == KIND_AP:
        return _fixed_hurwitz(j, spec.a, spec.q, _BITS)
    return _power_sums(spec.values)[j // 2 - 1]


def _power_sums(terms) -> list[_Fixed]:
    """[(sum b^-2, err), (sum b^-4, err)] over the integer terms b, each
    term within a unit: b^-4 is b^-2 floored and divided by b^2 again, as
    floor(floor(x/a)/c) = floor(x/(ac)), faster than dividing by b^4."""
    inv2 = [(1 << _BITS) // (b * b) for b in terms]
    err = len(inv2) * _UNIT
    return [(sum(inv2), err), (sum(v // (b * b) for v, b in zip(inv2, terms)), err)]


_DD_CHUNK = 2**14          # terms per double-double pass: 14 tree levels
# a chunk's sum is within (76 + 3.1 * 14) u^2 < 2^-99 relative, and taking
# its hi and lo to units truncates below a unit each, under 2^-198 of a sum
# above 2^-252, so a block's sum is within _DD_REL for any block numpy holds
_DD_REL = 2.0**-98


def _block_sums(b: np.ndarray) -> tuple[int, int]:
    """(sum b^-2, sum b^-4) in units over the int64 terms b, each within
    _DD_REL relative: numpy double-double per chunk of _DD_CHUNK terms."""
    totals = [0, 0]
    for c in range(0, len(b), _DD_CHUNK):
        for k, (h, l) in enumerate(_inverse_powers(b[c : c + _DD_CHUNK])):
            hi, lo = _dd_total(h, l)
            totals[k] += int(hi * 2.0**_BITS) + int(lo * 2.0**_BITS)
    return totals[0], totals[1]


def _tails(spec: SequenceSpec, terms: np.ndarray, edge: int = 0, tails=None):
    """[(T_2(m), err), (T_4(m), err)] in units past the m = len(terms) first
    terms of spec, going on from tails, those past the first edge terms, if
    given.

    A finite sequence sums its tail directly. Otherwise the route starts at
    S_j minus the first min(m, KERNEL_M) terms, and takes off one block
    after another, each ending at twice its start or at m; edge must lie on
    it. So a value's bits depend on m and KERNEL_M alone."""
    m = len(terms)
    if spec.kind == KIND_CUSTOM:
        return _power_sums(spec.values[m:])
    if tails is None:
        edge = min(m, KERNEL_M)
        series = _series(spec, 2), _series(spec, 4)
        heads = _power_sums(terms[:edge].tolist())
        tails = [(s - h, e + he) for (s, e), (h, he) in zip(series, heads)]
    while edge < m:
        end = min(2 * edge, m)
        tails = [
            (t - block, err + _DD_REL * _UNIT * block)
            for (t, err), block in zip(tails, _block_sums(terms[edge:end]))
        ]
        edge = end
    return tails


def _tail_sums(spec: SequenceSpec, terms: np.ndarray, tails=None):
    """((T_2(m), T_4(m)), (e_2, e_4)) past the m = len(terms) first terms of
    spec, from tails, their `_tails`, summed here if not given. e_j is the
    part of T_j's error bound beyond u/2 relative, which the kernel's
    rounding allows for. Each T_j is checked against the certified range
    0 <= T_j <= 1/((j-1) b_m^(j-1)) that holds for any strictly increasing
    integer sequence."""
    out, extra = [], []
    if tails is None:
        tails = _tails(spec, terms)
    for j, (t, err) in zip((2, 4), tails):
        t = t / (1 << _BITS)
        if not 0.0 <= t <= 1.0 / ((j - 1) * float(terms[-1]) ** (j - 1)):
            raise CertificateError(
                f"T_{j}({len(terms)}) = {t!r} for {spec.label()} is outside its bounds"
            )
        out.append(t)
        extra.append(max(0.0, err - 2.0**-54 * t))
    return (out[0], out[1]), (extra[0], extra[1])


# -- tail-corrected kernel, density and interval probability ----------------


class _Kernel:
    """The tail-corrected kernel of spec, grown in place: it holds every
    term it has sieved and T_j(M), so a larger M sieves and sums only what
    lies past them, bit for bit as if built at that M at once. kernel(xs)
    is (values, bounds, rounding), a value being the product of the first
    M factors times exp(-(pi x)^2 T_2/2 - (pi x)^4 T_4/12) and rounding the
    rounding part of its bound."""

    def __init__(self, spec: SequenceSpec, memory_gib: float):
        self.spec, self.memory_gib, self.m, self.tails = spec, memory_gib, 0, None
        self.cap = len(spec.values) if spec.kind == KIND_CUSTOM else math.inf
        self.ints, self.end = np.empty(0, np.int64), 0  # every term below end

    def _hold(self, n: int) -> np.ndarray:
        """The terms held, at least n of them; a sieve goes on from where it
        stopped."""
        masks = _sieve(self.spec)
        if masks is None:
            self.ints = terms_array(self.spec, n)
        elif len(self.ints) < n:
            more, self.end = _first_n(masks, n - len(self.ints), self.end)
            self.ints = np.concatenate([self.ints, more])
        return self.ints

    def fit(self, x_max: float) -> None:
        """Grow for |x| <= x_max: fewer than pi x_max terms lie below it."""
        self.grow(KERNEL_M, math.ceil(math.pi * x_max) - 1)

    def grow(self, m: int, below: int = 0) -> None:
        """Grow to M = m 2^i, m being KERNEL_M 2^j, for the least i with
        below < b_{M+1}, read from the terms held, or to every term of a
        finite sequence with fewer. M never shrinks. b_n >= n, so M is
        priced before any sieve runs, at the least m 2^i >= below: 24 B per
        term (the int64 terms, their float64 copy and reciprocals) and what
        a sieve holds (`sequences._sieve_bytes`), plus 40 B per term of the
        head (its Python ints) and 136 B per term of a double-double chunk
        if M may pass KERNEL_M (its temporaries)."""
        most = m
        while most < below:
            most *= 2
        most = min(most, self.cap)
        per_term = 24 + _sieve_bytes(self.spec)
        chunk = min(_DD_CHUNK, max(0, most - KERNEL_M))
        _check_memory(per_term * most + 40 * KERNEL_M + 136 * chunk, self.memory_gib)
        while below > m < self.cap and self._hold(m + 1)[m] <= below:
            m *= 2
        m = min(m, self.cap)
        if m > self.m:
            ints = self._hold(m)[:m]
            self.tails = _tails(self.spec, ints, self.m, self.tails)
            (self.t2, self.t4), (self.e2, self.e4) = _tail_sums(self.spec, ints, self.tails)
            self.terms = ints.astype(np.float64)
            # sum_{n>M} b_n^-6 <= 1/(5 b_M^5), and 0 once a finite sequence is used up
            self.t6 = 0.0 if m == self.cap else 1.0 / (5.0 * float(self.terms[-1]) ** 5)
            self.inv_sum = math.fsum(1.0 / self.terms)
            self.m = m

    def __call__(self, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        px = np.pi * np.abs(xs)
        expo = px**2 * (self.t2 / 2.0) + px**4 * (self.t4 / 12.0)
        values = _rho_batch(self.terms, xs) * np.exp(-expo)
        # truncation: rho = value * exp(-r), 0 <= r <= _C6 (pi x)^6 T_6, as each
        # t = pi x / b_n past M is at most 1. r >= 0, as every term of
        # -log cos t - t^2/2 - t^4/12 is positive for |t| <= 1, so the
        # relative error 1 - exp(-r) is at most min(r, 1). Rounding, worst
        # case (u = 2^-53): per factor 3u|t| from its argument, 8u from cos
        # (4 ulp assumed) and u from the product; 11u relative in the
        # exponent, which allows each T_j an error of u/2 beyond its rounding
        # to float, e_j being the rest of its bound; 3u in exp and product
        trunc = np.minimum(_C6 * px**6 * self.t6, 1.0)
        rounding = (9 * self.m + 3.0 * px * self.inv_sum + 3.0 + 11.0 * expo) * 2.0**-53
        rounding += px**2 * (self.e2 / 2.0) + px**4 * (self.e4 / 12.0)
        return values, np.abs(values) * trunc + rounding * (1.0 + trunc), rounding


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
    w = math.sqrt(80.0 * (_series(spec, 2)[0] / (1 << _BITS)))
    return 2.0 ** -max(4, math.ceil(math.log2(2.0 * (ax + w))))


def _grid(spec: SequenceSpec, eps: float, h: float, memory_gib: float) -> _Grid:
    """Kernel nodes at step h (a power of two, at most 1/16) out to a cut
    that doubles from DENSITY_U until the envelope, at the 65 nodes cut/128
    apart on [cut/2, cut], is below min(eps, DENSITY_TOL). Those nodes do
    not depend on h, so the cut, M (from the largest node, 2 cut) and each
    node's value are the same for every request. A doubling grows the
    kernel, and evaluates every node again, only when M grows with it."""
    if not eps > 0:
        raise ValueError("eps must be positive")
    if spec.kind == KIND_CUSTOM:
        raise TruncationFailure("a finite list's sum has atoms, so it has no density")
    tol = min(eps, DENSITY_TOL)
    kernel = _Kernel(spec, memory_gib)
    cut, values, bounds = DENSITY_U, np.empty(0), np.empty(0)
    while cut <= DENSITY_U_CAP:
        m = kernel.m
        kernel.fit(2.0 * cut)
        keep = len(values) if kernel.m == m else 0
        more, more_bounds, _ = kernel(2.0 * h * np.arange(keep, round(cut / h) + 1))
        values = np.concatenate([values[:keep], more])
        bounds = np.concatenate([bounds[:keep], more_bounds])
        envelope = float(np.abs(values[len(values) // 2 :: round(cut / 128 / h)]).max())
        if envelope < tol:
            return _Grid(cut, h, kernel.m, values, bounds, envelope)
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
