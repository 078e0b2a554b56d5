"""Cosine-product kernels, their infinite-product limit, the limiting
density, and finite-range inequality checks.

The kernel rho_N(x) = prod_{n<=N} cos(pi x / b_n) is evaluated in double
precision. The infinite product is truncated at M terms with a certified
tail bound: log|cos t| >= -t^2 for |t| <= 1 gives

    |rho - rho_M| <= |rho_M| * (pi x)^2 * sum_{n>M} 1/b_n^2

once b_M >= pi x, and the tail sum is bounded by 1/M in general (terms are
strictly increasing integers, so b_n >= n) and by 1/(M log^2 M) for the
prime sequence. The reported tail_bound adds a float-rounding allowance
of |rho_M| * sqrt(M) * 1e-15: an RMS estimate of M roundings with random
signs, not a bound. So tail_bound certifies the truncation and estimates
the rounding.

The density g(x) = 2 * integral_0^inf cos(2 pi u x) rho(2u) du is computed
by adaptive Simpson quadrature on [0, U], where U doubles until a sampled
envelope of |rho(2u)| on [U, 2U] drops below the working tolerance. The
envelope does not depend on x, so `densities` chooses U once per request,
and it keeps one request-local table of kernel nodes u -> rho(2u) that
every x of the request shares: a node is computed once however many
quadratures touch it. Every rho(2u) evaluation carries its own truncation
certificate; each sample records the worst truncation parameters and an
error estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DivergedTruncation, TruncationFailure
from .sequences import KIND_PK, KIND_PRIMES, SequenceSpec, SequenceTerms, terms_array
from .exact import ENUM_CAP, MEMORY_GIB, _as_terms, _check_cap, _scaled_sums

RHO_TERM_CAP = 10**8
DENSITY_POINT_EPS = 1e-7   # per-point floor for rho tolerances inside density
DENSITY_U_CAP = 4096.0
FLOAT_SLACK = 1e-9

# placeholder constant for the decay-range endpoint exp(c' log^2 n); the
# magnitude of the true admissible constant is not pinned anywhere, so the
# default is flagged in every report that uses it
C_PRIME_DEFAULT = (1.0 / (2.0 * 1.518 * math.e)) ** 2


@dataclass(frozen=True)
class RhoValue:
    """A kernel evaluation; n is the factor count, or None for the
    infinite-product limit, in which case terms_used records the truncation
    and tail_bound its certified bound plus an estimated rounding
    allowance."""

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


class _TermCache:
    """Grow-on-demand float64 view of a sequence's terms."""

    def __init__(self, spec: SequenceSpec):
        self.spec = spec
        self.arr = np.empty(0, dtype=np.float64)
        self.finite_len = len(spec.values) if spec.kind == "custom" else None

    def upto(self, m: int) -> np.ndarray:
        if self.finite_len is not None:
            m = min(m, self.finite_len)
        if m > len(self.arr):
            size = m if self.finite_len is not None else max(64, 1 << (m - 1).bit_length())
            self.arr = terms_array(self.spec, size).astype(np.float64)
        return self.arr[:m]


@lru_cache(maxsize=16)
def _term_cache(spec: SequenceSpec) -> _TermCache:
    return _TermCache(spec)


def _terms_as_array(seq) -> np.ndarray:
    if isinstance(seq, SequenceTerms):
        return np.array(seq.terms, dtype=np.float64)
    if isinstance(seq, np.ndarray):
        return seq.astype(np.float64)
    return np.array(_as_terms(seq), dtype=np.float64)


def cosine_product(seq, x: float) -> RhoValue:
    """rho_N(x) = prod over the given terms of cos(pi x / b)."""
    terms = _terms_as_array(seq)
    value = float(np.cos(np.pi * float(x) / terms).prod())
    return RhoValue(x=float(x), n=len(terms), value=value)


def _rho_batch(terms: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """|terms|-factor kernel at many x at once."""
    out = np.ones(len(xs))
    block = max(1, 2**22 // max(len(xs), 1))
    for i in range(0, len(terms), block):
        out *= np.cos(np.pi * np.outer(xs, 1.0 / terms[i : i + block])).prod(axis=1)
    return out


def _tail_square_sum_bound(spec: SequenceSpec, m: int) -> float:
    # sum_{n>m} 1/b_n^2 <= 1/m since b_n >= n; the prime sequence also has
    # b_n > n log n, sharpening this to 1/(m log^2 m)
    bound = 1.0 / m
    if spec.kind == KIND_PRIMES or (spec.kind == KIND_PK and spec.k == 1):
        bound = min(bound, 1.0 / (m * math.log(m) ** 2))
    return bound


def cosine_product_limit(
    spec: SequenceSpec, x: float, eps: float, *, term_cap: int = RHO_TERM_CAP
) -> RhoValue:
    """The infinite product lim_N rho_N(x), truncated with a certificate.

    Doubles the truncation point M from max(64, 4|x|) until tail_bound
    drops below eps; raises DivergedTruncation when M would pass term_cap
    first. tail_bound is the certified truncation bound plus the rounding
    allowance |rho_M| * sqrt(M) * 1e-15, which is an estimate, not a
    bound. For a finite custom sequence the truncation term is zero once
    every term is used.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    ax = abs(float(x))
    if ax == 0.0:
        return RhoValue(x=float(x), n=None, value=1.0, tail_bound=0.0, terms_used=0)
    cache = _term_cache(spec)
    m = max(64, math.ceil(4 * ax))
    if cache.finite_len is not None:
        m = min(m, cache.finite_len)
    done = 0
    prod = 1.0
    while True:
        terms = cache.upto(m)
        m = len(terms)
        prod *= float(np.cos(np.pi * ax / terms[done:m]).prod()) if m > done else 1.0
        done = m
        if cache.finite_len is not None and m == cache.finite_len:
            tail_sq = 0.0
        else:
            tail_sq = _tail_square_sum_bound(spec, m)
        # rounding allowance, an estimate rather than a bound: ~1 ulp per
        # factor accumulating with random signs, so RMS sqrt(m) with a
        # safety factor on the machine epsilon
        bound = abs(prod) * ((math.pi * ax) ** 2 * tail_sq + math.sqrt(m) * 1e-15)
        if bound <= eps:
            return RhoValue(
                x=float(x), n=None, value=prod, tail_bound=bound, terms_used=m
            )
        if m >= term_cap or (cache.finite_len is not None and m == cache.finite_len):
            raise DivergedTruncation(
                f"tail bound {bound:.2e} still above eps={eps:.1e} at M={m}"
            )
        m = min(m * 2, term_cap)


def count_far_from_integer(seq, delta: float, x: float) -> int:
    """#{n : dist(x/b_n, nearest integer) >= delta}."""
    if not 0 <= delta <= 0.5:
        raise ValueError("delta must lie in [0, 1/2]")
    t = float(x) / _terms_as_array(seq)
    dist = np.abs(t - np.rint(t))
    return int(np.count_nonzero(dist >= delta))


def count_near_multiples(seq, y: float, x: float) -> int:
    """Over integers m with x-y < m < x+y, count pairs (m, b) with b | m,
    b running over the back half of the terms (index n >= ceil(N/2))."""
    if y < 0:
        raise ValueError("y must be >= 0")
    terms = _as_terms(seq)
    n = len(terms)
    window = np.array(terms[(n + 1) // 2 - 1 :], dtype=np.int64)
    m_lo = math.floor(x - y) + 1
    m_hi = math.ceil(x + y) - 1
    if m_hi < m_lo:
        return 0
    ms = np.arange(m_lo, m_hi + 1, dtype=np.int64)
    return int((ms[:, None] % window[None, :] == 0).sum())


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


def check_exponential_bound(seq, delta: float, x: float) -> bool:
    """|rho_N(x)| <= exp(-pi^2 delta^2 / 2 * far_count) up to float slack."""
    lhs = abs(cosine_product(seq, x).value)
    count = count_far_from_integer(seq, delta, x)
    rhs = math.exp(-(math.pi ** 2) * delta ** 2 / 2.0 * count) + FLOAT_SLACK
    return lhs <= rhs


def exponential_bound_suite(
    seq, pairs: int = 1000, seed: int = 0, x_max: float = 1000.0
) -> BoundCheckReport:
    """Random (x, delta) scan of check_exponential_bound."""
    terms = _terms_as_array(seq)
    rng = np.random.default_rng(seed)
    xs = rng.uniform(0.0, x_max, pairs)
    deltas = rng.uniform(0.0, 0.5, pairs)
    violations = tuple(
        float(x) for x, d in zip(xs, deltas) if not check_exponential_bound(terms, d, x)
    )
    return BoundCheckReport(
        a=None,
        x_lo=0.0,
        x_hi=x_max,
        samples=pairs,
        violations=violations,
        passed=not violations,
    )


def sandwich_suite(
    seq, pairs: int = 200, seed: int = 0, x_max: float = 1000.0
) -> BoundCheckReport:
    """Random scan of the counting sandwich: with y = delta * b_N,
    far_count >= N/2 - near_multiple_count(y) - 1 and far_count <= N."""
    terms = _as_terms(seq)
    n = len(terms)
    rng = np.random.default_rng(seed)
    xs = rng.uniform(0.0, x_max, pairs)
    deltas = rng.uniform(0.0, 0.5, pairs)
    violations = []
    for x, d in zip(xs, deltas):
        s = count_far_from_integer(terms, d, x)
        dcnt = count_near_multiples(terms, d * terms[-1], x)
        if not (s >= n / 2 - dcnt - 1 and s <= n):
            violations.append(float(x))
    return BoundCheckReport(
        a=None,
        x_lo=0.0,
        x_hi=x_max,
        samples=pairs,
        violations=tuple(violations),
        passed=not violations,
    )


def check_decay(
    spec: SequenceSpec,
    n: int,
    a: float,
    grid: int,
    *,
    c_prime: float | None = None,
    x_cap: float = 1e6,
) -> BoundCheckReport:
    """Scan |rho_N(x)| < x^(-a) on a log grid over [N, exp(c' log^2 N)].

    With the default placeholder c' the window is empty below astronomical
    N, making the report vacuous (samples=0, flagged); pass an explicit
    c_prime for a substantive scan. Finite-range diagnostic, not a proof.
    """
    if a < 0 or grid < 1:
        raise ValueError("need a >= 0 and grid >= 1")
    defaulted = c_prime is None
    cp = C_PRIME_DEFAULT if defaulted else float(c_prime)
    x_lo = float(n)
    x_hi = min(x_cap, math.exp(cp * math.log(n) ** 2))
    if x_hi < x_lo:
        return BoundCheckReport(
            a=a, x_lo=x_lo, x_hi=x_hi, samples=0, violations=(),
            passed=True, c_prime=cp, c_prime_defaulted=defaulted,
        )
    terms = terms_array(spec, n).astype(np.float64)
    xs = np.geomspace(x_lo, x_hi, grid)
    rho = np.abs(_rho_batch(terms, xs))
    bad = rho >= xs ** (-a)
    violations = tuple(float(v) for v in xs[bad])
    return BoundCheckReport(
        a=a, x_lo=x_lo, x_hi=x_hi, samples=grid, violations=violations,
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
    outcomes (exact enumeration, float evaluation); `quadrature` computes
    2 * integral_0^x_max bump_transform(x) * rho_N(2x) dx by composite
    Simpson with the given step. The transform decays like x^-4, so the
    x_max tail is ~1e-10 at the default settings. N is capped at ENUM_CAP.
    """
    terms = _as_terms(seq)
    _check_cap(len(terms), None, ENUM_CAP, ENUM_CAP, False)
    den, sums = _scaled_sums(terms, MEMORY_GIB)
    outcomes = np.array(sums, dtype=np.float64) / den
    exact = float(np.mean(smooth_bump(outcomes)))

    npts = int(round(x_max / step))
    if npts % 2 == 1:
        npts += 1  # composite Simpson needs an even panel count
    xs = np.linspace(0.0, x_max, npts + 1)
    integrand = smooth_bump_transform(xs) * _rho_batch(np.array(terms, float), 2.0 * xs)
    return exact, 2.0 * _simpson(integrand, x_max / npts)


def _simpson(values: np.ndarray, h: float) -> float:
    """Composite Simpson over an odd number of values spaced h apart."""
    weights = np.ones(len(values))
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    return float(h / 3.0 * np.dot(weights, values))


# -- density -----------------------------------------------------------------


def _adaptive_simpson(f, a, b, fa, fm, fb, tol, depth):
    m = 0.5 * (a + b)
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    flm = f(lm)
    frm = f(rm)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    err = (left + right - whole) / 15.0
    if abs(err) <= tol or depth <= 0:
        return left + right + err, abs(err)
    sl, el = _adaptive_simpson(f, a, m, fa, flm, fm, tol / 2.0, depth - 1)
    sr, er = _adaptive_simpson(f, m, b, fm, frm, fb, tol / 2.0, depth - 1)
    return sl + sr, el + er


def _density_at(node, ax: float, U: float, eps_pt: float) -> tuple[float, float, int]:
    """(g, error estimate, worst M over the kernel nodes touched) at |x| = ax,
    by adaptive Simpson on panels of half a cosine period over [0, U]."""
    worst_m = 0

    def f(u: float) -> float:
        nonlocal worst_m
        v, m = node(u)
        if m > worst_m:
            worst_m = m
        return math.cos(2.0 * math.pi * u * ax) * v

    width = 0.5 if ax <= 1.0 else 0.5 / ax  # half-period of the cosine factor
    total = 0.0
    err_total = 0.0
    a = 0.0
    while a < U - 1e-12:
        b = min(a + width, U)
        tol = eps_pt * (b - a) / U
        fa, fm, fb = f(a), f(0.5 * (a + b)), f(b)
        s, e = _adaptive_simpson(f, a, b, fa, fm, fb, tol, 24)
        total += s
        err_total += e
        a = b
    return 2.0 * total, 2.0 * err_total + 2.0 * U * eps_pt, worst_m


def densities(spec: SequenceSpec, xs, eps: float) -> list[DensitySample]:
    """g(x) = 2 * integral_0^inf cos(2 pi u x) rho(2u) du at every x in xs,
    truncated at U.

    U doubles from 8 until a 65-point envelope of |rho(2u)| on [U, 2U]
    falls below the working tolerance (the requested eps floored at
    1e-7, which keeps truncation points desk-scale; the error estimate
    accounts for it). The envelope does not depend on x, so U is found
    once, and every kernel node rho(2u) is computed once for the whole
    request and shared by all x. Each distinct |x| is integrated once;
    g is even in x by construction. A sample's truncation_m is the worst
    M over the envelope nodes and the nodes its own quadrature touched.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    eps_pt = max(eps, DENSITY_POINT_EPS)
    table: dict[float, tuple[float, int]] = {}  # u -> (rho(2u), terms_used)

    def node(u: float) -> tuple[float, int]:
        hit = table.get(u)
        if hit is None:
            rv = cosine_product_limit(spec, 2.0 * u, eps_pt)
            hit = table[u] = (rv.value, rv.terms_used)
        return hit

    U = 8.0
    while True:
        samples = np.linspace(U, 2.0 * U, 65)
        envelope = max(abs(node(float(u))[0]) for u in samples)
        if envelope < eps_pt:
            break
        U *= 2.0
        if U > DENSITY_U_CAP:
            raise TruncationFailure(
                f"kernel envelope {envelope:.2e} not below {eps_pt:.1e} by U={DENSITY_U_CAP}"
            )
    envelope_m = max(m for _, m in table.values())

    by_ax: dict[float, tuple[float, float, int]] = {}
    out = []
    for x in xs:
        x = float(x)
        ax = abs(x)
        if ax not in by_ax:
            by_ax[ax] = _density_at(node, ax, U, eps_pt)
        g, est, m = by_ax[ax]
        out.append(DensitySample(
            x=x, g=g, quadrature_error_estimate=est,
            truncation_m=max(envelope_m, m), truncation_u=U,
        ))
    return out


def density(spec: SequenceSpec, x: float, eps: float) -> DensitySample:
    """g(x) at one point; see `densities`, which serves many x at the
    cost of one."""
    return densities(spec, [x], eps)[0]


def interval_probability(spec: SequenceSpec, lo: float, hi: float, eps: float) -> float:
    """integral over [lo, hi] of the density, by composite Simpson over
    density samples (an odd grid, at least 33 points, ~8 per unit length)."""
    if not lo < hi:
        raise ValueError("need lo < hi")
    npts = max(33, 1 + 2 * math.ceil(4.0 * (hi - lo)))
    xs = np.linspace(lo, hi, npts)
    values = np.array([d.g for d in densities(spec, xs, eps)])
    return _simpson(values, (hi - lo) / (npts - 1))
