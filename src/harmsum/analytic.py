"""Cosine-product kernels, their infinite-product limit, the limiting
density and interval probabilities, and finite-range inequality checks.

The kernel rho_N(x) = prod_{n<=N} cos(pi x / b_n) is evaluated in double
precision. One tail-corrected kernel, `_kernel`, evaluates the limit
rho(x): it multiplies M >= 1024 factors by exp(-(pi x)^2 T_2/2 -
(pi x)^4 T_4/12), with T_j = sum_{n>M} b_n^-j in closed form for every
family, and bounds every node by the rest of the -log cos series plus a
worst-case rounding term. `cosine_product_limit` (the `rho` subcommand)
is that kernel at one node, with its bound.

The density g(x) = 2 * integral_0^inf cos(2 pi u x) rho(2u) du and the
interval probability, a sine transform of rho(2u), are trapezoid sums
over one grid u = ih on [0, U], U from a sampled envelope of |rho(2u)|
and h from a dyadic ladder. Their error estimate adds the node bound to
two estimates: |T_h - T_2h| and the envelope tail.
"""

from __future__ import annotations

import decimal
import math
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import CertificateError, DivergedTruncation, TruncationFailure
from .sequences import (
    KIND_AP, KIND_CUSTOM, KIND_NONPRIMES, KIND_OMEGA, KIND_PK, KIND_PRIMES, SequenceSpec,
    SequenceTerms, count_up_to, terms_array,
)
from .exact import ENUM_CAP, MEMORY_GIB, SIGNS, _as_terms, _check_cap, _check_memory, _expand

KERNEL_M = 1024            # fewest terms the tail-corrected kernel multiplies
DENSITY_U = 8.0            # first cut tried for the transforms
DENSITY_U_CAP = 4096.0
DENSITY_TOL = 1e-12        # the transforms never work to a looser tolerance
FLOAT_SLACK = 1e-9

_BLOCK = 1024              # factors and xs per block of _rho_batch: 8 MiB
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


def _terms_as_array(seq) -> np.ndarray:
    if isinstance(seq, SequenceTerms):
        return np.array(seq.terms, dtype=np.float64)
    if isinstance(seq, np.ndarray):
        return seq.astype(np.float64)
    return np.array(_as_terms(seq), dtype=np.float64)


def _finite(x: float) -> float:
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"x must be finite, got {x}")
    return x


def cosine_product(seq, x: float) -> RhoValue:
    """rho_N(x) = prod over the given terms of cos(pi x / b)."""
    terms = _terms_as_array(seq)
    x = _finite(x)
    return RhoValue(x=x, n=len(terms), value=float(_rho_batch(terms, [x])[0]))


def _rho_batch(terms: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """prod over the terms of cos(pi x / b) at every x of xs, multiplied in
    term order for each x, so an x's bits never depend on the other xs."""
    px = np.pi * np.asarray(xs, dtype=np.float64)
    out = np.ones(len(px))
    for c in range(0, len(px), _BLOCK):
        for i in range(0, len(terms), _BLOCK):
            for row in np.cos(px[c : c + _BLOCK] / terms[i : i + _BLOCK, None]):
                out[c : c + _BLOCK] *= row
    return out


def cosine_product_limit(spec: SequenceSpec, x: float, eps: float) -> RhoValue:
    """The infinite product lim_N rho_N(x): the tail-corrected kernel at the
    one node |x|, with its certified bound as tail_bound.

    M starts at the kernel's M for |x| and doubles while the bound is above
    eps and its truncation part is what exceeds it. DivergedTruncation is
    raised once the rounding part alone exceeds eps; that part is at least
    9 M 2^-53, about 1e-12 at M = 1024, so the doubling ends. x = 0 gives
    1 exactly, with bound 0 and no terms.
    """
    if not eps > 0:
        raise ValueError("eps must be positive")
    x = _finite(x)
    if x == 0.0:
        return RhoValue(x=x, n=None, value=1.0, tail_bound=0.0, terms_used=0)
    m = 0
    while True:
        m, kernel = _kernel(spec, abs(x), 2 * m)
        (value,), (bound,), (rounding,) = kernel(np.array([abs(x)]))
        if bound <= eps:
            return RhoValue(
                x=x, n=None, value=float(value), tail_bound=float(bound), terms_used=m
            )
        if rounding > eps:
            raise DivergedTruncation(
                f"rounding bound {rounding:.2e} alone exceeds eps={eps:.1e} at M={m}"
            )


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


def _scan(pairs: int, seed: int, x_max: float, holds) -> BoundCheckReport:
    """The x of random (x, delta) pairs, x in [0, x_max), delta in
    [0, 1/2), for which holds(x, delta) fails."""
    if not math.isfinite(x_max):
        raise ValueError(f"x_max must be finite, got {x_max}")
    rng = np.random.default_rng(seed)
    xs = rng.uniform(0.0, x_max, pairs)
    deltas = rng.uniform(0.0, 0.5, pairs)
    violations = tuple(float(x) for x, d in zip(xs, deltas) if not holds(x, d))
    return BoundCheckReport(
        a=None, x_lo=0.0, x_hi=x_max, samples=pairs, violations=violations,
        passed=not violations,
    )


def exponential_bound_suite(
    seq, pairs: int = 1000, seed: int = 0, x_max: float = 1000.0
) -> BoundCheckReport:
    """Random (x, delta) scan of check_exponential_bound."""
    terms = _terms_as_array(seq)
    return _scan(pairs, seed, x_max, lambda x, d: check_exponential_bound(terms, d, x))


def sandwich_suite(
    seq, pairs: int = 200, seed: int = 0, x_max: float = 1000.0
) -> BoundCheckReport:
    """Random scan of the counting sandwich: with y = delta * b_N,
    far_count >= N/2 - near_multiple_count(y) - 1 and far_count <= N."""
    terms = _as_terms(seq)
    n = len(terms)

    def holds(x, d):
        s = count_far_from_integer(terms, d, x)
        return n / 2 - count_near_multiples(terms, d * terms[-1], x) - 1 <= s <= n

    return _scan(pairs, seed, x_max, holds)


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
    xs = np.geomspace(x_lo, x_hi, grid) if x_lo <= x_hi else np.empty(0)
    rho = np.abs(_rho_batch(terms_array(spec, n).astype(np.float64), xs))
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
    terms = _as_terms(seq)
    _check_cap(len(terms), None, ENUM_CAP, ENUM_CAP, False)
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
        max(25 * 2 ** len(terms), 64 * (x_max / step + 2) + 16 * _BLOCK * min(len(terms), _BLOCK)),
        MEMORY_GIB,
    )
    exact = float(np.mean(smooth_bump(_expand([1.0 / b for b in terms], SIGNS))))

    npts = max(2, int(round(x_max / step)))
    if npts % 2 == 1:
        npts += 1  # composite Simpson needs an even panel count
    xs = np.linspace(0.0, x_max, npts + 1)
    integrand = smooth_bump_transform(xs) * _rho_batch(np.array(terms, float), 2.0 * xs)
    weights = np.ones(npts + 1)  # composite Simpson
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    return exact, 2.0 * float(x_max / npts / 3.0 * np.dot(weights, integrand))


# -- tail sums ---------------------------------------------------------------
#
# T_j(m) = sum_{n>m} b_n^-j is the full series S_j = sum_n b_n^-j minus its
# first m terms, both in 40-digit decimal arithmetic, so the difference keeps
# full float precision however small the tail. Nothing here runs at import.

_DEC = decimal.Context(prec=40)


@lru_cache(maxsize=None)
def _bernoulli(count: int) -> tuple[Fraction, ...]:
    """B_2, B_4, ..., B_{2 count}."""
    b = [Fraction(1)]
    for m in range(1, 2 * count + 1):
        b.append(-sum(math.comb(m + 1, j) * b[j] for j in range(m)) / (m + 1))
    return tuple(b[2::2])


def _hurwitz(s: int, z: Decimal) -> Decimal:
    """zeta(s, z) = sum_{i>=0} (z + i)^-s for integer s >= 2 and z > 0:
    32 terms directly, the rest by the Euler-Maclaurin (polygamma) asymptotic
    series at w = z + 32, whose 16th omitted term is below 1e-40."""
    with decimal.localcontext(_DEC):
        head = sum((z + i) ** -s for i in range(32))
        w = z + 32
        tail = w ** (1 - s) / (s - 1) + w ** -s / 2
        rising = Decimal(s)  # s (s+1) ... (s+2k-2)
        for k, b in enumerate(_bernoulli(15), 1):
            coef = Decimal(b.numerator) / (b.denominator * math.factorial(2 * k))
            tail += coef * rising * w ** (1 - s - 2 * k)
            rising *= (s + 2 * k - 1) * (s + 2 * k)
        return head + tail


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
def _prime_zeta(s: int) -> Decimal:
    """P(s) = sum over primes p^-s = sum_k mu(k)/k log zeta(ks) (Froberg,
    BIT 8, 1968); log zeta(ks) < 2^(1-ks), so terms past ks = 140 are
    below 1e-42."""
    with decimal.localcontext(_DEC):
        total = Decimal(0)
        k = 1
        while k == 1 or k * s < 140:
            mu = _mobius(k)
            if mu:
                total += mu * (1 + _hurwitz(k * s, Decimal(2))).ln() / k
            k += 1
        return total


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
            return 1 + _hurwitz(j, Decimal(2)) - _prime_zeta(j)
        if spec.kind == KIND_AP:  # q^-j zeta(j, a/q)
            return _hurwitz(j, Decimal(spec.a) / spec.q) / Decimal(spec.q) ** j
        return _power_sum(spec.values, j)


def _power_sum(terms, j: int) -> Decimal:
    with decimal.localcontext(_DEC):
        return sum(Decimal(int(b)) ** -j for b in terms)


@lru_cache(maxsize=64)
def _tail_sums(spec: SequenceSpec, m: int) -> tuple[float, float]:
    """(T_2(m), T_4(m)), each checked against the certified range
    0 <= T_j <= 1/((j-1) b_m^(j-1)) that holds for any strictly
    increasing integer sequence."""
    head = terms_array(spec, m).tolist()
    out = []
    for j in (2, 4):
        with decimal.localcontext(_DEC):
            t = float(_series(spec, j) - _power_sum(head, j))
        if not 0.0 <= t <= 1.0 / ((j - 1) * float(head[-1]) ** (j - 1)):
            raise CertificateError(f"T_{j}({m}) = {t!r} for {spec.label()} is outside its bounds")
        out.append(t)
    return out[0], out[1]


# -- tail-corrected kernel, density and interval probability ----------------


def _kernel(spec: SequenceSpec, x_max: float, least: int = 0):
    """(M, kernel) for |x| <= x_max, M the smallest KERNEL_M * 2^i, and at
    least `least`, with pi x_max <= b_{M+1} (or every term of a finite
    sequence): kernel(xs) is (values, bounds, rounding), a value being the
    product of the first M factors times exp(-(pi x)^2 T_2/2 -
    (pi x)^4 T_4/12) and rounding the rounding part of its bound."""
    cap = len(spec.values) if spec.kind == KIND_CUSTOM else math.inf

    def size(count: int) -> int:
        """The smallest KERNEL_M * 2^i >= max(count, least), or cap if less."""
        m = KERNEL_M
        while m < max(count, least):
            m *= 2
        return min(m, cap)

    # b_n >= n, so fewer than pi x_max terms lie below pi x_max: M is priced
    # before any sieve runs, at 64 B per term (the float64 terms, the int64
    # sieve output and the Python ints _tail_sums sums; 56 measured)
    below = math.ceil(math.pi * x_max) - 1
    _check_memory(64 * size(below), MEMORY_GIB)
    m = size(count_up_to(spec, below))
    terms = terms_array(spec, m).astype(np.float64)
    t2, t4 = _tail_sums(spec, m)
    # sum_{n>M} b_n^-6 <= 1/(5 b_M^5), and 0 once a finite sequence is used up
    t6 = 0.0 if m == cap else 1.0 / (5.0 * float(terms[-1]) ** 5)
    inv_sum = math.fsum(1.0 / terms)

    def kernel(xs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        px = np.pi * np.abs(xs)
        expo = px**2 * (t2 / 2.0) + px**4 * (t4 / 12.0)
        values = _rho_batch(terms, xs) * np.exp(-expo)
        # truncation: rho = value * exp(-r), 0 <= r <= _C6 (pi x)^6 T_6, as each
        # t = pi x / b_n past M is at most 1. Rounding, worst case (u = 2^-53):
        # per factor 3u|t| from its argument, 8u from cos (4 ulp assumed) and u
        # from the product; 11u relative in the exponent, 3u in exp and product
        trunc = _C6 * px**6 * t6
        rounding = (9 * m + 3.0 * px * inv_sum + 3.0 + 11.0 * expo) * 2.0**-53
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


def _grid(spec: SequenceSpec, eps: float, h: float) -> _Grid:
    """Kernel nodes at step h (a power of two, at most 1/16) out to a cut
    that doubles from DENSITY_U until the envelope, at the 65 nodes cut/128
    apart on [cut/2, cut], is below min(eps, DENSITY_TOL). Those nodes do
    not depend on h, so the cut, M (from the largest node, 2 cut) and each
    node's value are the same for every request. A doubling evaluates only
    the new nodes, unless M grows with it."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    tol = min(eps, DENSITY_TOL)
    cut, m, values, bounds = DENSITY_U, 0, np.empty(0), np.empty(0)
    while cut <= DENSITY_U_CAP:
        wider, kernel = _kernel(spec, 2.0 * cut)
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


def densities(spec: SequenceSpec, xs, eps: float) -> list[DensitySample]:
    """g(x) = 2 * integral_0^inf cos(2 pi u x) rho(2u) du at every x in xs.
    One grid (`_grid`) serves the request; each distinct |x| is integrated
    once at its own step (`_step`), so `densities(xs) == [density(x) for x
    in xs]` and g is even in x exactly."""
    xs = [float(x) for x in xs]
    steps = {abs(x): _step(spec, abs(x)) for x in xs}
    grid = _grid(spec, eps, min(steps.values(), default=_step(spec, 0.0)))
    by_ax = {
        ax: _transform(grid, h, lambda u, ax=ax: np.cos(2.0 * np.pi * ax * u), 1.0)
        for ax, h in steps.items()
    }
    return [DensitySample(x, *by_ax[abs(x)], grid.m, grid.cut) for x in xs]


def density(spec: SequenceSpec, x: float, eps: float) -> DensitySample:
    """g(x) at one point; see `densities`."""
    return densities(spec, [x], eps)[0]


def _interval(spec: SequenceSpec, lo: float, hi: float, eps: float) -> tuple[float, float]:
    """(P(lo < X < hi), its error estimate) by the sine transform
    2 * integral_0^inf rho(2u) (sin 2 pi u hi - sin 2 pi u lo) / (2 pi u) du,
    its integrand written (hi - lo) cos(pi u (hi + lo)) sinc(u (hi - lo))."""
    if not lo < hi:
        raise ValueError("need lo < hi")
    h = _step(spec, max(abs(lo), abs(hi)))
    width, mid = hi - lo, hi + lo
    def factor(u):
        return width * np.cos(np.pi * mid * u) * np.sinc(width * u)

    return _transform(_grid(spec, eps, h), h, factor, width)


def interval_probability(spec: SequenceSpec, lo: float, hi: float, eps: float) -> float:
    """The integral of the density over [lo, hi], a float; see `_interval`."""
    return _interval(spec, lo, hi, eps)[0]
