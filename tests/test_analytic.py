import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import harmsum.analytic as analytic
import harmsum.sequences as sequences
from harmsum.analytic import (
    C_PRIME_DEFAULT,
    check_decay,
    check_exponential_bound,
    cosine_product,
    cosine_product_limit,
    count_far_from_integer,
    count_near_multiples,
    densities,
    density,
    exponential_bound_suite,
    expectation_identity,
    interval_probability,
    sandwich_suite,
    sigma_minus,
    smooth_bump,
    smooth_bump_transform,
)
from harmsum.errors import CapExceeded, DivergedTruncation, ResourceLimit, TruncationFailure
from harmsum.exact import (
    ENUM_CAP, decay_profile, enumerate_sums, evaluate_signs, min_gap, min_gaps, min_signed_sum,
    min_signed_sums,
)
from harmsum.sequences import (
    KIND_AP, KIND_NONPRIMES, KIND_PK, KIND_PRIMES, SequenceSpec, _terms, generate, terms_array,
)

PRIMES = SequenceSpec.primes()
AP = SequenceSpec.arithmetic(1, 1)

# reference values from a direct 10^7 term product, recorded once
LONG_PRODUCT_PRIMES_HALF = 0.546640331661797
LONG_PRODUCT_AP_QUARTER = 0.5779936214819

# converged densities of the primes, checked in test_density_pins_converge
G0_PRIMES = 0.5466403314761479
G_HALF_PRIMES = 0.41457410367297187


def test_kernel_basics():
    terms = terms_array(PRIMES, 6)
    assert cosine_product(terms, 0.0).value == 1.0
    assert abs(cosine_product(terms_array(PRIMES, 1), 1.0).value) <= 1e-15
    assert abs(cosine_product(terms_array(PRIMES, 3), 1.0).value) <= 1e-15
    rv = cosine_product(terms, 1.5)
    expected = 1.0
    for t in terms:
        expected *= math.cos(math.pi * 1.5 / int(t))
    assert rv.value == pytest.approx(expected, abs=1e-15)
    assert rv.n == 6


def test_kernel_even_and_bounded():
    terms = terms_array(PRIMES, 25)
    rng = np.random.default_rng(10)
    for x in rng.uniform(-800.0, 800.0, 50):
        v = cosine_product(terms, float(x)).value
        assert v == cosine_product(terms, float(-x)).value
        assert abs(v) <= 1.0


def test_limit_at_zero():
    rv = cosine_product_limit(PRIMES, 0.0, 1e-10)
    assert rv.value == 1.0
    assert rv.tail_bound == 0.0
    assert rv.terms_used == 0


def test_limit_vanishing_factor():
    # the first prime factor cos(pi/2) collapses the whole product
    rv = cosine_product_limit(PRIMES, 1.0, 1e-11)
    assert abs(rv.value) <= 1e-12
    assert rv.tail_bound <= 1e-11
    rv = cosine_product_limit(AP, 0.5, 1e-10)
    assert abs(rv.value) <= 1e-12
    assert rv.terms_used == 1024


def test_limit_certified_against_long_products():
    rv = cosine_product_limit(PRIMES, 0.5, 1e-8)
    assert rv.tail_bound <= 1e-8
    assert rv.value == pytest.approx(0.5466403314680236, abs=1e-12)
    assert abs(rv.value - LONG_PRODUCT_PRIMES_HALF) <= 1.5e-8

    rv = cosine_product_limit(PRIMES, 4.0, 1e-9)
    assert rv.value == pytest.approx(-0.005389811988521717, abs=1e-12)

    rv = cosine_product_limit(AP, 0.25, 1e-7)
    assert rv.value == pytest.approx(0.5779936036464467, abs=1e-10)
    # the long product itself truncates, allow both certificates
    assert abs(rv.value - LONG_PRODUCT_AP_QUARTER) <= rv.tail_bound + 5e-8

    rv = cosine_product_limit(AP, 3.7, 1e-7)
    assert rv.value == pytest.approx(-9.932072240765049e-08, abs=1e-12)
    assert rv.terms_used == 1024


def test_limit_bounds_hold_at_any_eps():
    loose = cosine_product_limit(PRIMES, 2.0, 1e-6)
    tight = cosine_product_limit(PRIMES, 2.0, 1e-9)
    assert loose.tail_bound <= 1e-6
    assert tight.tail_bound <= 1e-9
    assert abs(loose.value - tight.value) <= loose.tail_bound + tight.tail_bound


def test_limit_truncation_bound_is_capped_at_one():
    # at x = 1e6 the product underflows to 0 and C_6 (pi x)^6 T_6 is far
    # above 1, so an uncapped bound doubled M only to shrink it; capped, the
    # kernel's first M meets eps, and agrees with one of 4M within both bounds
    x = 1e6
    kernel = analytic._Kernel(PRIMES, analytic.MEMORY_GIB)
    kernel.fit(x)
    first = kernel.m
    rv = cosine_product_limit(PRIMES, x, 1e-7)
    assert rv.terms_used == first
    kernel.grow(4 * first)
    (value,), (bound,), _ = kernel(np.array([x]))
    assert kernel.m == 4 * first
    assert abs(value - rv.value) <= bound + rv.tail_bound


def test_limit_finite_custom_is_exact():
    spec = SequenceSpec.custom((3, 7, 9))
    rv = cosine_product_limit(spec, 0.8, 1e-12)
    expected = (
        math.cos(0.8 * math.pi / 3)
        * math.cos(0.8 * math.pi / 7)
        * math.cos(0.8 * math.pi / 9)
    )
    assert rv.value == pytest.approx(expected, abs=1e-15)
    assert rv.terms_used == 3
    assert rv.tail_bound <= 1e-12


def test_limit_diverges_below_rounding_floor():
    # the rounding part of the bound is at least 9 M 2^-53, about 1e-12 at
    # M = 1024, and M only grows, so no M reaches an eps below that
    finished = SequenceSpec.custom((3, 7))  # every term used, no truncation left
    for spec, x, eps in ((PRIMES, 2.0, 1e-13), (AP, 0.25, 1e-20), (finished, 0.8, 1e-17)):
        with pytest.raises(DivergedTruncation):
            cosine_product_limit(spec, x, eps)
    for eps in (0.0, -1e-6, math.nan):
        with pytest.raises(ValueError):
            cosine_product_limit(PRIMES, 1.0, eps)
    for x in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="finite"):
            cosine_product_limit(PRIMES, x, 1e-6)
        with pytest.raises(ValueError, match="finite"):
            cosine_product(terms_array(PRIMES, 3), x)


def test_finite_kernel_tracks_limit():
    # |rho_N(x)/rho(x) - 1| <= 20 x^2 / N on x in [0, sqrt(N)]
    for n in (1000, 10000):
        terms = terms_array(PRIMES, n).astype(np.float64)
        for x in np.linspace(0.0, math.sqrt(n), 100)[1:]:
            rho_n = float(np.cos(np.pi * x / terms).prod())
            rv = cosine_product_limit(PRIMES, float(x), 1e-9)
            assert abs(rho_n / rv.value - 1.0) <= 20.0 * x * x / n


def test_count_far_from_integer():
    terms = terms_array(PRIMES, 3)
    # distances of 1/2, 1/3, 1/5 from the nearest integer: 0.5, 1/3, 0.2
    assert count_far_from_integer(terms, 0.3, 1.0) == 2
    assert count_far_from_integer(terms, 0.0, 1.0) == 3
    assert count_far_from_integer(terms_array(PRIMES, 5), 0.2, 0.0) == 0
    with pytest.raises(ValueError):
        count_far_from_integer(terms, 0.6, 1.0)
    for x in (math.inf, math.nan):
        with pytest.raises(ValueError, match="finite"):
            count_far_from_integer(terms, 0.2, x)


def test_count_far_brute():
    rng = np.random.default_rng(77)
    terms = [int(t) for t in terms_array(PRIMES, 30)]
    for _ in range(25):
        x = float(rng.uniform(0.0, 500.0))
        d = float(rng.uniform(0.0, 0.5))
        want = 0
        for b in terms:
            t = x / b
            if abs(t - round(t)) >= d:
                want += 1
        assert count_far_from_integer(np.array(terms, float), d, x) == want


def test_count_near_multiples():
    terms = terms_array(PRIMES, 4)
    # window terms {3, 5, 7}; integers 14, 15, 16 give 7|14 and 3|15, 5|15
    assert count_near_multiples(terms, 1.5, 15.0) == 3
    assert count_near_multiples(terms, 0.0, 15.0) == 0
    assert count_near_multiples(terms, 0.4, 16.0) == 0
    with pytest.raises(ValueError):
        count_near_multiples(terms, -1.0, 15.0)


def test_count_near_multiples_brute():
    # the last 25 cases have y > x, so the window reaches m <= 0, and b | 0
    rng = np.random.default_rng(123)
    terms = [int(t) for t in terms_array(PRIMES, 9)]
    window = terms[(len(terms) + 1) // 2 - 1 :]
    cases = [(float(rng.uniform(0.0, 300.0)), float(rng.uniform(0.0, 20.0))) for _ in range(25)]
    for _ in range(25):
        x = float(rng.uniform(0.0, 20.0))
        cases.append((x, x + float(rng.uniform(0.0, 40.0))))
    cases += [(0.0, 0.5), (3.0, 3.0), (-5.5, 10.0)]
    for x, y in cases:
        want = 0
        m = math.floor(x - y) + 1
        while m < x + y:
            if m > x - y:
                want += sum(1 for b in window if m % b == 0)
            m += 1
        assert count_near_multiples(terms, y, x) == want


def _brute_near(window, y, x):
    """Pairs (m, b), b | m, over the integers x - y < m < x + y, by stepping
    through the multiples of each b."""
    lo, hi = math.floor(x - y) + 1, math.ceil(x + y) - 1
    hits = 0
    for b in window:
        m = lo + (-lo) % b
        while m <= hi:
            hits += 1
            m += b
    return hits


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("n", [10, 200, 1000])
@pytest.mark.parametrize(
    "spec",
    [PRIMES, SequenceSpec.k_squarefree(2), SequenceSpec.nonprimes(), AP],
    ids=["primes", "pk2", "nonprimes", "ap"],
)
def test_scans_match_per_pair_reference(monkeypatch, spec, n, seed):
    # each scan draws its pairs as before and evaluates them in one batch:
    # every |rho_N(x)|, far count and near count it computed equals, bit
    # for bit, the one-pair function or a brute loop at that pair
    seen = {}

    def spy(name):
        inner = getattr(analytic, name)

        def wrapped(*args):
            out = inner(*args)
            seen.setdefault(name, []).append((args, out.copy()))
            return out

        monkeypatch.setattr(analytic, name, wrapped)

    for name in ("_rho_batch", "_far_counts", "_near_counts"):
        spy(name)
    terms = terms_array(spec, n)
    pairs = 60
    rng = np.random.default_rng(seed)
    xs = rng.uniform(0.0, 1000.0, pairs)
    deltas = rng.uniform(0.0, 0.5, pairs)
    assert exponential_bound_suite(terms, pairs=pairs, seed=seed).passed
    assert sandwich_suite(terms, pairs=pairs, seed=seed).passed
    monkeypatch.undo()
    [(_, rho)] = seen["_rho_batch"]
    [(far_args, far_exp), (_, far_sandwich)] = seen["_far_counts"]
    [(near_args, near)] = seen["_near_counts"]
    assert far_args[1].tolist() == deltas.tolist() and far_args[2].tolist() == xs.tolist()
    assert near_args[2].tolist() == xs.tolist()
    ints = [int(b) for b in terms]
    window = ints[(n + 1) // 2 - 1 :]
    want_far = [count_far_from_integer(terms, d, x) for x, d in zip(xs, deltas)]
    assert np.abs(rho).tolist() == [abs(cosine_product(terms, x).value) for x in xs]
    assert far_exp.tolist() == far_sandwich.tolist() == want_far
    assert near.tolist() == [_brute_near(window, d * ints[-1], x) for x, d in zip(xs, deltas)]


@pytest.mark.parametrize("suite", [exponential_bound_suite, sandwich_suite])
@pytest.mark.parametrize("n, pairs", [(10, 10**6), (3000, 2000)])
def test_scan_price_covers_the_traced_peak(monkeypatch, suite, n, pairs):
    # many pairs over few terms weigh the per-pair arrays, few pairs over
    # many terms the counting and product blocks
    priced = []
    check = analytic._check_memory
    monkeypatch.setattr(analytic, "_check_memory", lambda est, gib: (priced.append(est), check(est, gib)))
    terms = terms_array(PRIMES, n)
    np.random.default_rng(0).uniform(0.0, 1.0, 1)  # numpy.random's first use is not priced
    tracemalloc.start()
    try:
        suite(terms, pairs=pairs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert priced and peak <= priced[-1] <= 3 * peak


def test_near_count_refuses_windows_beyond_int64():
    with pytest.raises(ValueError, match="64-bit"):
        sandwich_suite(terms_array(PRIMES, 5), pairs=10, x_max=1e19)
    for x in (math.inf, math.nan):
        with pytest.raises(ValueError, match="64-bit"):
            count_near_multiples(terms_array(PRIMES, 5), 1.0, x)


@pytest.mark.parametrize(
    "bad",
    [[], [3, 2], (0, 1), [2, 2], np.array([0.0]), np.array([5.0, 3.0, -2.0]),
     np.array([2.5, 3.0]), np.array([2.0, math.nan]), np.array([2.0, math.inf]),
     np.array([[2, 3]]), [2, 2**63], np.array([2, 2**63], dtype=np.uint64), [2, "3"]],
    ids=["empty", "decreasing", "zero", "repeat", "array-zero", "array-decreasing",
         "array-fraction", "array-nan", "array-inf", "array-2d", "too-large", "uint64-wraps",
         "string"],
)
def test_terms_validated_alike(bad):
    # lists, tuples and arrays go through one check, in the analytic and the
    # exact layer alike; an unchecked array of zeros used to give value=nan,
    # a decreasing one a passed scan, and int() in the exact layer made
    # [2, 3.5] the terms [2, 3]
    for call in (
        lambda: cosine_product(bad, 1.0),
        lambda: count_far_from_integer(bad, 0.2, 1.0),
        lambda: count_near_multiples(bad, 1.0, 5.0),
        lambda: check_exponential_bound(bad, 0.2, 1.0),
        lambda: exponential_bound_suite(bad, pairs=5),
        lambda: sandwich_suite(bad, pairs=5),
        lambda: expectation_identity(bad),
        lambda: min_signed_sum(bad),
        lambda: min_signed_sums(bad, [1]),
        lambda: min_gap(bad),
        lambda: min_gaps(bad, [1]),
        lambda: evaluate_signs(bad, [1] * np.size(bad)),
        lambda: enumerate_sums(bad),
        lambda: decay_profile(bad),
    ):
        with pytest.raises(ValueError):
            call()


def test_terms_forms_agree():
    terms = terms_array(PRIMES, 12)
    forms = [terms, terms.astype(np.float64), terms.tolist(), tuple(terms.tolist()),
             generate(PRIMES, 12)]
    got = set()
    for seq in forms:
        got.add((
            cosine_product(seq, 3.3).value,
            count_far_from_integer(seq, 0.2, 41.7),
            count_near_multiples(seq, 4.0, 60.5),
            exponential_bound_suite(seq, pairs=20).violations,
        ))
    assert len(got) == 1


def test_terms_are_never_rounded_through_float64():
    # 2^53 + 1 has no float64: rounded through float64 it would be 2^53,
    # and the search would return, and certify, the minimum of another list
    big = 2**53 + 1
    assert _terms([2.0, big]).tolist() == [2, big]
    assert evaluate_signs([2.0, big], [1, -1]) == Fraction(1, 2) - Fraction(1, big)
    res = min_signed_sum([2.0, big])
    assert res.den == 2 * big
    assert res.value == Fraction(1, 2) - Fraction(1, big)


def test_sigma_minus():
    assert sigma_minus(1.0, 6) == pytest.approx(2.0, abs=1e-15)
    assert sigma_minus(2.5, 1) == 1.0
    assert sigma_minus(1.0, 12) == pytest.approx(7.0 / 3.0, abs=1e-14)
    want = sum(d ** -0.5 for d in (1, 2, 3, 4, 6, 12))
    assert sigma_minus(0.5, 12) == pytest.approx(want, abs=1e-14)
    with pytest.raises(ValueError):
        sigma_minus(0.0, 5)
    with pytest.raises(ValueError):
        sigma_minus(1.0, 0)


def test_exponential_bound_single_cases():
    terms = terms_array(PRIMES, 10)
    assert check_exponential_bound(terms, 0.3, 0.0)
    assert check_exponential_bound(terms, 0.0, 17.2)
    assert check_exponential_bound(terms, 0.25, 7.3)


def test_exponential_bound_suite():
    for n in (10, 50, 200):
        report = exponential_bound_suite(terms_array(PRIMES, n), pairs=1000, seed=0)
        assert report.passed
        assert report.samples == 1000
        assert report.violations == ()


def test_sandwich_suite():
    for n in (10, 50):
        report = sandwich_suite(terms_array(PRIMES, n), pairs=200, seed=0)
        assert report.passed
        assert report.violations == ()


def test_check_decay_default_window_is_empty():
    # the placeholder range constant keeps exp(c' log^2 n) below n at desk
    # scale, so the scan is vacuous and flagged as defaulted
    report = check_decay(PRIMES, 50, 1.0, 200)
    assert report.samples == 0
    assert report.passed
    assert report.c_prime_defaulted
    assert report.c_prime == pytest.approx(C_PRIME_DEFAULT)


def test_check_decay_substantive():
    report = check_decay(PRIMES, 50, 1.0, 200, c_prime=1.0)
    assert report.passed
    assert report.samples == 200
    assert not report.c_prime_defaulted
    assert report.x_lo == 50.0
    report = check_decay(PRIMES, 200, 2.0, 200, c_prime=1.0)
    assert report.passed
    report = check_decay(PRIMES, 50, 0.0, 20, c_prime=1.0)
    assert report.passed
    report = check_decay(PRIMES, 50, 1.0, 1, c_prime=1.0)
    assert report.samples == 1
    assert report.passed
    with pytest.raises(ValueError):
        check_decay(PRIMES, 50, -1.0, 10)
    with pytest.raises(ValueError):
        check_decay(PRIMES, 50, 1.0, 0)


def test_smooth_bump():
    assert smooth_bump(0.0) == 1.0
    assert smooth_bump(1.0) == 0.0
    assert smooth_bump(-1.0) == 0.0
    assert smooth_bump(2.5) == 0.0
    assert smooth_bump(0.5) == pytest.approx(0.5625, abs=1e-15)
    arr = smooth_bump(np.array([-2.0, 0.0, 0.5]))
    assert arr.shape == (3,)
    assert arr[0] == 0.0


def simpson_transform_oracle(x):
    ys = np.linspace(-1.0, 1.0, 20001)
    vals = (1.0 - ys * ys) ** 2 * np.cos(2.0 * math.pi * x * ys)
    h = ys[1] - ys[0]
    w = np.ones(len(ys))
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return float(h / 3.0 * np.dot(w, vals))


def test_smooth_bump_transform():
    assert smooth_bump_transform(0.0) == pytest.approx(16.0 / 15.0, abs=1e-15)
    assert smooth_bump_transform(0.25) == pytest.approx(0.89108854828046447, abs=1e-12)
    for x in (0.0, 0.1, 0.25, 0.7, 2.3):
        assert smooth_bump_transform(x) == pytest.approx(simpson_transform_oracle(x), abs=1e-9)
        assert smooth_bump_transform(-x) == smooth_bump_transform(x)
    # series and closed form agree at the takeover point
    edge = 0.5 / (2.0 * math.pi)
    assert abs(smooth_bump_transform(edge - 1e-9) - smooth_bump_transform(edge + 1e-9)) <= 1e-9


def test_expectation_identity():
    for n in (4, 8):
        exact, quad = expectation_identity(terms_array(PRIMES, n))
        assert abs(exact - quad) <= 1e-6


def test_expectation_identity_capped_before_allocating():
    terms = terms_array(PRIMES, ENUM_CAP + 1)
    tracemalloc.start()
    try:
        with pytest.raises(CapExceeded):
            expectation_identity(terms)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_expectation_identity_priced_before_allocating(monkeypatch):
    # at N = 4 the outcomes are 400 B, but the default step puts 120,001
    # quadrature nodes behind them, about 7 MB, over a 1 MiB budget, while
    # step 0.05 (12,001 nodes) fits it; a step of 1e-300 is priced as a
    # float and refused, not turned into an int
    terms = terms_array(PRIMES, 4)
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimit):
            expectation_identity(terms, step=1e-300)
        monkeypatch.setattr(analytic, "MEMORY_GIB", 2.0**-10)
        with pytest.raises(ResourceLimit):
            expectation_identity(terms)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**18
    exact, quad = expectation_identity(terms, step=0.05)
    assert abs(exact - quad) <= 1e-6


@pytest.mark.parametrize("kw", [{"step": 0.0}, {"step": -0.005}, {"step": math.nan},
                                {"step": math.inf}, {"x_max": 0.0}, {"x_max": math.inf},
                                {"x_max": math.nan}])
def test_expectation_identity_refuses_bad_quadrature(kw):
    with pytest.raises(ValueError):
        expectation_identity(terms_array(PRIMES, 4), **kw)


def test_density_even_exact():
    a = density(PRIMES, 0.7, 1e-6)
    b = density(PRIMES, -0.7, 1e-6)
    assert a.g == b.g
    assert a.truncation_u == b.truncation_u


def test_density_reference_values():
    d0 = density(PRIMES, 0.0, 1e-6)
    assert d0.g == pytest.approx(G0_PRIMES, abs=1e-9)
    assert d0.truncation_u == 32.0
    assert d0.truncation_m >= 1024
    assert d0.quadrature_error_estimate > 0.0
    assert d0.g >= -d0.quadrature_error_estimate
    d5 = density(PRIMES, 0.5, 1e-6)
    assert d5.g == pytest.approx(G_HALF_PRIMES, abs=1e-9)
    with pytest.raises(ValueError):
        density(PRIMES, 0.0, 0.0)


def test_density_periodic_kernel_fails_truncation():
    # a finite list's sum has atoms, so it has no density; this one's kernel
    # is periodic too, as powers of two make it, and never decays
    with pytest.raises(TruncationFailure):
        density(SequenceSpec.custom((2, 4, 8)), 0.0, 1e-6)


def test_interval_probability_window_tracks_density():
    g0 = density(PRIMES, 0.0, 1e-6).g
    ip = interval_probability(PRIMES, -0.01, 0.01, 1e-6)
    assert abs(ip / 0.02 - g0) <= 1e-4


def test_interval_probability_even():
    left = interval_probability(PRIMES, -0.3, 0.0, 1e-6)
    right = interval_probability(PRIMES, 0.0, 0.3, 1e-6)
    assert abs(left - right) <= 1e-12
    with pytest.raises(ValueError):
        interval_probability(PRIMES, 0.5, 0.5, 1e-6)


@pytest.mark.parametrize(
    "spec, xs",
    [(PRIMES, np.linspace(-2.0, 2.0, 9)), (AP, np.linspace(0.0, 3.0, 7))],
)
def test_densities_match_pointwise_density(spec, xs):
    # mirrored points and |x| > 1 (narrower panels) share one request
    assert densities(spec, xs, 1e-4) == [density(spec, float(x), 1e-4) for x in xs]


def test_grid_builds_its_kernel_once_per_m(monkeypatch):
    # the cut doubles from 8 to 32 while M stays 1024: the kernel is priced
    # and fitted at every doubling but sieved and built once, bit-identical
    want = densities(PRIMES, np.linspace(-2.0, 2.0, 9), 1e-8)
    sieved, built = [], []
    sieve, tail_sums = analytic._first_n, analytic._tail_sums

    def sieving(masks, n, start):
        sieved.append((n, start))
        return sieve(masks, n, start)

    def building(spec, terms, tails):
        built.append(len(terms))
        return tail_sums(spec, terms, tails)

    monkeypatch.setattr(analytic, "_first_n", sieving)
    monkeypatch.setattr(analytic, "_tail_sums", building)
    assert densities(PRIMES, np.linspace(-2.0, 2.0, 9), 1e-8) == want
    assert (want[0].truncation_u, want[0].truncation_m) == (32.0, analytic.KERNEL_M)
    assert sieved == [(analytic.KERNEL_M, 0)]
    assert built == [analytic.KERNEL_M]


def test_no_integer_is_sieved_twice(monkeypatch):
    # one density request, and one limit whose M doubles from 1024 to 2048:
    # the kernel reads M from the terms it holds and sieves on from where it
    # stopped, so the ranges asked of the prime sieve never overlap
    ranges = []
    masks = sequences._iter_prime_masks

    def recording(lo, hi):
        ranges.append((lo, hi))
        return masks(lo, hi)

    monkeypatch.setattr(sequences, "_iter_prime_masks", recording)
    densities(PRIMES, np.linspace(-2.0, 2.0, 9), 1e-8)
    density_ranges = sorted(ranges)
    ranges.clear()
    assert cosine_product_limit(PRIMES, 1536.17, 1e-11).terms_used == 2048
    for asked in (density_ranges, sorted(ranges)):
        assert asked and all(a[1] <= b[0] for a, b in zip(asked, asked[1:]))


def test_interval_probability_evaluates_each_node_once(monkeypatch):
    calls = []
    batch = analytic._rho_batch

    def recording(terms, xs):
        calls.append(np.array(xs))
        return batch(terms, xs)

    monkeypatch.setattr(analytic, "_rho_batch", recording)
    interval_probability(PRIMES, -0.1, 0.1, 1e-6)
    # one batch per cut tried (8, 16, 32), each holding only new nodes,
    # which together are exactly the grid 2u, u = 0, h, ..., 32
    assert len(calls) == 3
    nodes = np.concatenate(calls)
    h = analytic._step(PRIMES, 0.1)
    assert np.array_equal(nodes, 2.0 * h * np.arange(round(32.0 / h) + 1))


def test_rho_batch_bits_do_not_depend_on_the_batch():
    terms = terms_array(AP, 3000).astype(np.float64)  # three blocks of factors
    xs = np.linspace(0.0, 40.0, 5001)
    together = analytic._rho_batch(terms, xs)
    alone = [analytic._rho_batch(terms, xs[i : i + 1])[0] for i in (0, 1, 2500, 5000)]
    assert [together[i] for i in (0, 1, 2500, 5000)] == alone
    direct = [math.prod(math.cos(math.pi * x / b) for b in terms) for x in xs[::500]]
    assert np.allclose(together[::500], direct, rtol=0.0, atol=1e-12)


def _rho_per_row(terms, xs):
    """The product one row of cosines at a time, in blocks of 1024 terms and
    xs: the loop _rho_batch replaces, kept as its reference."""
    terms = np.asarray(terms, dtype=np.float64)
    px = np.pi * np.asarray(xs, dtype=np.float64)
    out = np.ones(len(px))
    for c in range(0, len(px), 1024):
        for i in range(0, len(terms), 1024):
            for row in np.cos(px[c : c + 1024] / terms[i : i + 1024, None]):
                out[c : c + 1024] *= row
    return out


@pytest.mark.parametrize("n", [1, 1023, 1024, 1025, 3000])
def test_rho_batch_matches_the_per_row_product(n):
    terms = terms_array(PRIMES, n)
    rng = np.random.default_rng(n)
    for count in (1, 2, 1024, 1025, 5001):
        xs = rng.uniform(-60.0, 60.0, count)
        assert np.array_equal(analytic._rho_batch(terms, xs), _rho_per_row(terms, xs))


@pytest.mark.parametrize(
    "spec", [PRIMES, AP, SequenceSpec.nonprimes(), SequenceSpec.k_squarefree(2)],
    ids=lambda s: s.label(),
)
def test_tail_corrected_kernel_within_its_bounds(spec, monkeypatch):
    # M = 64 and M = 2^16 must agree within the sum of their bounds; at
    # M = 64 the T_4 correction alone moves these values by 1e-8 to 1e-6
    # relative, far above the bound
    xs = np.array([0.3, 0.7, 1.3, 2.6, 3.3, 4.4])
    kernels = []
    for m in (64, 2**16):
        monkeypatch.setattr(analytic, "KERNEL_M", m)
        kernels.append(analytic._Kernel(spec, analytic.MEMORY_GIB))
        kernels[-1].fit(8.0)
    assert [kernel.m for kernel in kernels] == [64, 2**16]
    (near, near_bounds, _), (far, far_bounds, _) = (kernel(xs) for kernel in kernels)
    assert np.all(np.abs(near - far) <= near_bounds + far_bounds)
    assert np.all(near_bounds < 1e-8)


# -- tail sums ---------------------------------------------------------------

INFINITE = [
    PRIMES,
    SequenceSpec.k_squarefree(2),
    SequenceSpec.k_squarefree(3),
    SequenceSpec.k_distinct(1),
    SequenceSpec.k_distinct(2),
    SequenceSpec.nonprimes(),
    AP,
    SequenceSpec.arithmetic(3, 4),
]


@pytest.mark.parametrize(
    "spec", INFINITE + [SequenceSpec.custom(range(2, 9000, 3))], ids=lambda s: s.label()
)
def test_kernel_grown_in_place_equals_one_built_at_once(spec):
    # 1024 -> 2048 -> 4096, against 4096 at once: every value, bound and
    # rounding term, bit for bit; the custom list has 3,000 terms, so its
    # last growth uses it up
    xs = np.concatenate([np.linspace(0.0, 40.0, 81), [0.3, 1536.17, 3919.4]])
    grown, direct = (analytic._Kernel(spec, analytic.MEMORY_GIB) for _ in range(2))
    for m in (1024, 2048, 4096):
        grown.grow(m)
    direct.grow(4096)
    assert grown.m == direct.m == (3000 if spec.kind == "custom" else 4096)
    for got, want in zip(grown(xs), direct(xs)):
        assert np.array_equal(got, want)
    for name in ("t2", "t4", "e2", "e4", "t6", "inv_sum", "tails"):
        assert getattr(grown, name) == getattr(direct, name)


def _real(value: int) -> Fraction:
    """A fixed-point sum as the exact rational it stands for."""
    return Fraction(value, 2**analytic._BITS)


def test_prime_zeta_published_values():
    # OEIS A085548 and A085964
    for s, published in ((2, 0.45224742004106549850), (4, 0.07699313976424684494)):
        value = float(_real(analytic._prime_zeta(s)[0]))
        assert abs(value - published) <= 2 * math.ulp(published)


@pytest.mark.parametrize("spec", INFINITE, ids=lambda s: s.label())
def test_tail_sums_bracketed_by_partial_sums(spec):
    # sum_{m<n<=m'} b_n^-j <= T_j(m) <= that + 1/((j-1) b_m'^(j-1))
    m, m_far = 1024, 2**16
    terms = terms_array(spec, m_far)
    far = terms[m:].astype(np.float64)
    (t2, t4), _ = analytic._tail_sums(spec, terms[:m])
    for j, t in ((2, t2), (4, t4)):
        part = math.fsum(far ** -float(j))
        assert part <= t <= part + 1.0 / ((j - 1) * far[-1] ** (j - 1))


def test_tail_sums_finite_sequence_is_exact():
    spec = SequenceSpec.custom((3, 7, 9, 20))
    assert analytic._tail_sums(spec, terms_array(spec, 4))[0] == (0.0, 0.0)
    (t2, _), _ = analytic._tail_sums(spec, terms_array(spec, 2))
    assert t2 == pytest.approx(1 / 81 + 1 / 400, rel=1e-15)


def test_tail_sums_against_mpmath():
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        p2, p4, p8 = (mpmath.primezeta(s) for s in (2, 4, 8))
        want = {
            (PRIMES, 2): p2,
            (PRIMES, 4): p4,
            (SequenceSpec.k_squarefree(2), 2): (p2 * p2 - p4) / 2,
            (SequenceSpec.k_squarefree(2), 4): (p4 * p4 - p8) / 2,
            (SequenceSpec.nonprimes(), 2): mpmath.zeta(2) - p2,
            (SequenceSpec.arithmetic(3, 4), 2): mpmath.zeta(2, mpmath.mpf(3) / 4) / 16,
            (SequenceSpec.arithmetic(3, 4), 4): mpmath.zeta(4, mpmath.mpf(3) / 4) / 256,
        }
        for (spec, j), value in want.items():
            got = _real(analytic._series(spec, j)[0])
            assert abs(got - Fraction(mpmath.nstr(value, 30))) <= Fraction(1, 10**25)


@pytest.mark.parametrize(
    "s, a, q",
    # z = a/q with no terminating decimal, on both sides of the direct-sum
    # switch at s = 40, and a z below 1, where zeta(s, z) is large
    [(2, 1, 1), (4, 2, 1), (2, 1, 3), (4, 2, 7), (3, 7, 2), (39, 3, 4), (40, 2, 1),
     (40, 1, 3), (41, 27, 2), (57, 5, 3), (139, 2, 1)],
)
def test_hurwitz_at_rational_z_against_mpmath(s, a, q):
    # the sum over a + iq is q^-s zeta(s, a/q): within its own bound of
    # mpmath at 160 digits, and that bound within 1e-38 of zeta relative
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(160):
        want = Fraction(mpmath.nstr(mpmath.zeta(s, mpmath.mpf(a) / q), 150))
    value, err = analytic._fixed_hurwitz(s, a, q, analytic._BITS)
    assert abs(_real(value) * q**s - want) <= Fraction(err) * q**s <= max(1, want) / 10**38


@pytest.mark.parametrize("s", [2, 3, 14, 15, 16, 17, 24, 39, 40, 139])
def test_log_zeta_within_a_few_units(s):
    # log(1 + y) of the fixed-point y = zeta(s, 2) it sums at _GUARD more
    # bits, by one atanh series for every s: within 3 units of 2^-bits.
    # Against log zeta(s) itself, within its error bound, which takes in
    # the Euler-Maclaurin or direct-sum cut of y
    mpmath = pytest.importorskip("mpmath")
    bits = analytic._BITS
    y = Fraction(analytic._fixed_hurwitz(s, 2, 1, bits + analytic._GUARD)[0],
                 2 ** (bits + analytic._GUARD))
    with mpmath.workdps(200):
        near = Fraction(mpmath.nstr(mpmath.log1p(mpmath.mpf(y.numerator) / y.denominator), 190))
        exact = Fraction(mpmath.nstr(mpmath.log(mpmath.zeta(s)), 190))
    value, err = analytic._log_zeta(s, bits)
    assert abs(_real(value) - near) <= Fraction(3, 2**bits)
    assert abs(_real(value) - exact) <= err


def test_power_sum_within_its_bound():
    # within its bound, and that within 1e-39 relative of the exact sum,
    # for terms up to 2^63
    rng = np.random.default_rng(11)
    lists = [[1], [2**63 - 1], [3, 3, 7], list(range(1, 200))]
    lists += [rng.integers(1, 2**int(e), int(n)).tolist()
              for e, n in zip(rng.integers(2, 64, 20), rng.integers(1, 60, 20))]
    for terms in lists:
        for j, (value, err) in zip((2, 4), analytic._power_sums(terms)):
            exact = sum(Fraction(1, b**j) for b in terms)
            assert abs(_real(value) - exact) <= err <= exact / 10**39
    assert analytic._power_sums([]) == [(0, 0.0), (0, 0.0)]


def test_bernoulli_constants_match_the_recurrence():
    b = [Fraction(1)]
    for m in range(1, 31):
        b.append(-sum(math.comb(m + 1, j) * b[j] for j in range(m)) / (m + 1))
    assert [Fraction(*pair) for pair in analytic._BERNOULLI] == b[2::2]


def _mp_series(mpmath, spec, j):
    """S_j by mpmath at its working precision: the prime zeta function,
    Hurwitz zeta, and e_k of power sums by Newton's identities."""
    pz = mpmath.primezeta
    if spec.kind == KIND_PRIMES:
        return pz(j)
    if spec.kind == KIND_NONPRIMES:
        return mpmath.zeta(j) - pz(j)
    if spec.kind == KIND_AP:
        return mpmath.zeta(j, mpmath.mpf(spec.a) / spec.q) / mpmath.mpf(spec.q) ** j
    sums = []
    for m in range(1, spec.k + 1):
        if spec.kind == KIND_PK:  # sum_p p^(-jm)
            sums.append(pz(j * m))
        else:  # sum_p (p^j - 1)^-m = sum_i C(m+i-1, i) P(j(m+i))
            total, i = mpmath.mpf(0), 0
            while math.comb(m + i - 1, i) * 2.0 ** (-j * (m + i)) > 1e-60:
                total += math.comb(m + i - 1, i) * pz(j * (m + i))
                i += 1
            sums.append(total)
    e = [mpmath.mpf(1)]
    for n in range(1, spec.k + 1):
        e.append(mpmath.fsum((-1) ** (i - 1) * e[n - i] * sums[i - 1] for i in range(1, n + 1)) / n)
    return e[spec.k]


@pytest.mark.parametrize("spec", INFINITE, ids=lambda s: s.label())
def test_series_against_mpmath_at_50_digits(spec):
    # within its own error bound, which the tail sums' bounds take in, and
    # that bound within 1e-38
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        for j in (2, 4):
            want = Fraction(mpmath.nstr(_mp_series(mpmath, spec, j), 50))
            value, err = analytic._series(spec, j)
            assert abs(_real(value) - want) <= err <= 1e-38


@pytest.mark.parametrize("k", range(1, 16))
def test_omega_k_series_s2_against_mpmath(k):
    # its power sums weigh P(t), t up to about 180, by binomials up to about
    # 10^9, so each P(t) must keep its Mobius terms relative to t: within
    # its own error bound of mpmath at 120 digits, and within 1e-12 relative
    mpmath = pytest.importorskip("mpmath")
    spec = SequenceSpec.k_distinct(k)
    with mpmath.workdps(120):
        want = Fraction(mpmath.nstr(_mp_series(mpmath, spec, 2), 120))
    value, err = analytic._series(spec, 2)
    assert abs(_real(value) - want) <= err
    assert abs(_real(value) - want) <= want / 10**12


def _head(terms, j: int, bits: int = 1000) -> Fraction:
    """sum b^-j over terms, each floored once at 2^-bits: below the exact
    sum by less than len(terms) 2^-bits."""
    return Fraction(sum((1 << bits) // (b**j) for b in terms), 2**bits)


@pytest.mark.parametrize("spec", INFINITE, ids=lambda s: s.label())
def test_tail_sums_match_a_60_digit_head(spec):
    # past KERNEL_M the blocks are summed in double-double; the floats must
    # be those of S_j minus a head of 60 digits and more, summed at 2^-1000,
    # bit for bit, and the fixed-point sums within their error bounds of it
    terms = terms_array(spec, 2**16)
    for m in (1024, 2048, 4096, 2**16):
        head = [_head(terms[:m].tolist(), j) for j in (2, 4)]
        exact = [_real(analytic._series(spec, j)[0]) - h for j, h in zip((2, 4), head)]
        assert analytic._tail_sums(spec, terms[:m])[0] == tuple(map(float, exact))
        for (t, err), e in zip(analytic._tails(spec, terms[:m]), exact):
            assert abs(_real(t) - e) <= err + Fraction(m, 2**1000)


EIGHT = [
    PRIMES, SequenceSpec.nonprimes(), AP, SequenceSpec.arithmetic(3, 4),
    SequenceSpec.k_squarefree(2), SequenceSpec.k_squarefree(3),
    SequenceSpec.k_distinct(2), SequenceSpec.k_distinct(3),
]


@pytest.mark.parametrize("spec", EIGHT, ids=lambda s: s.label())
def test_tail_floats_are_correctly_rounded(spec):
    # independent reference: S_j by mpmath at 70 digits less a head summed
    # at 2^-1000; each T_j float is that difference correctly rounded
    mpmath = pytest.importorskip("mpmath")
    terms = terms_array(spec, 8192)
    with mpmath.workdps(70):
        series = [_mp_series(mpmath, spec, j) for j in (2, 4)]
        for m in (1024, 2048, 4096, 8192):
            want = tuple(
                float(s - mpmath.mpf(h.numerator) / h.denominator)
                for s, h in zip(series, (_head(terms[:m].tolist(), j) for j in (2, 4)))
            )
            assert analytic._tail_sums(spec, terms[:m])[0] == want


def test_double_double_sums_within_their_bounds():
    u2 = Fraction(1, 2**106)
    rng = np.random.default_rng(3)
    b = np.concatenate([
        np.arange(1, 2000), rng.integers(2**52, 2**54, 500), rng.integers(1, 2**63 - 1, 500),
        [2**32 - 1, 2**32 + 1, 2**53 + 1, 2**63 - 1],
    ]).astype(np.int64)
    (h2, l2), (h4, l4) = analytic._inverse_powers(b)
    for i, v in enumerate(b.tolist()):
        for h, l, j, rel in ((h2, l2, 2, 35), (h4, l4, 4, 76)):
            got = Fraction(float(h[i])) + Fraction(float(l[i]))
            assert abs(got * v**j - 1) <= rel * u2
            assert abs(float(l[i])) <= 2.0**-53 * float(h[i])  # normalized
    terms = terms_array(PRIMES, 3 * analytic._DD_CHUNK + 5)  # a part chunk, odd levels
    for got, j in zip(analytic._block_sums(terms), (2, 4)):
        exact = _head(terms.tolist(), j)
        slack = Fraction(len(terms), 2**1000)  # the reference's own floors
        assert abs(_real(got) - exact) <= Fraction(analytic._DD_REL) * exact + slack


@pytest.mark.parametrize(
    "n, counts",
    [
        # 256 xs to a block, 255 factor rows with the product row
        (255, (255, 256, 257, 513)),
        (256, (256, 257)),
        # one or two xs take blocks of 65,535 and 32,767 factors
        (32767, (2, 3)),
        (32768, (2,)),
        (65535, (1,)),
        (65536, (1, 2)),
    ],
)
def test_rho_batch_matches_the_per_row_product_across_block_edges(n, counts):
    terms = terms_array(AP, n)
    rng = np.random.default_rng(n)
    for count in counts:
        xs = rng.uniform(-60.0, 60.0, count)
        assert np.array_equal(analytic._rho_batch(terms, xs), _rho_per_row(terms, xs))


def _kernel_priced_and_peak(monkeypatch, spec, m):
    """(price, traced peak) of a fresh kernel fitted to the first x_max
    that needs M = m, the price being the one checked before its sieve."""
    x_max = float(terms_array(spec, m // 2 + 2)[-1]) / math.pi
    priced = []
    check = analytic._check_memory
    monkeypatch.setattr(analytic, "_check_memory", lambda est, gib: (priced.append(est), check(est, gib)))
    analytic._Kernel(spec, analytic.MEMORY_GIB).fit(1.0)  # lazy set-up and S_j, untraced
    kernel = analytic._Kernel(spec, analytic.MEMORY_GIB)
    first = len(priced)
    tracemalloc.start()
    try:
        kernel.fit(x_max)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert kernel.m == m
    return priced[first], peak


@pytest.mark.parametrize("m", [2**18, 2**20])
def test_kernel_price_bounds_the_traced_peak(monkeypatch, m):
    # for b_n = n the count of terms below pi x_max that M is priced at is
    # exact, so the price is tight there
    est, peak = _kernel_priced_and_peak(monkeypatch, AP, m)
    assert peak <= est <= 1.5 * peak


@pytest.mark.parametrize("spec", INFINITE, ids=lambda s: s.label())
def test_kernel_price_covers_the_sieve(monkeypatch, spec):
    est, peak = _kernel_priced_and_peak(monkeypatch, spec, 2**17)
    assert peak <= est


@pytest.mark.parametrize("spec", [PRIMES, AP], ids=lambda s: s.label())
def test_limit_bound_against_mpmath(spec):
    # independent reference: the first 8M factors at 50 digits, times the
    # same exp tail correction with mpmath's own T_2 and T_4 at 8M; its own
    # truncation, (pi x)^6 / b_8M^5 at most, is below 1e-15 here. For
    # b_n = n, x = 0.5, 2 and 4 are zeros of a factor; 0.25 and 3.7 are not
    mpmath = pytest.importorskip("mpmath")
    for x in (0.25, 0.5, 2.0, 3.7, 4.0):
        rv = cosine_product_limit(spec, x, 1e-6)
        terms = [int(b) for b in terms_array(spec, 8 * rv.terms_used)]
        with mpmath.workdps(50):
            if spec == PRIMES:
                head = [mpmath.fsum(mpmath.mpf(b) ** -j for b in terms) for j in (2, 4)]
                t2, t4 = mpmath.primezeta(2) - head[0], mpmath.primezeta(4) - head[1]
            else:
                t2, t4 = (mpmath.zeta(j, len(terms) + 1) for j in (2, 4))
            px = mpmath.pi * mpmath.mpf(x)
            reference = mpmath.fprod(mpmath.cos(px / b) for b in terms) * mpmath.exp(
                -(px**2) * t2 / 2 - px**4 * t4 / 12
            )
            assert abs(reference - rv.value) <= rv.tail_bound


# -- convergence of the pinned values ------------------------------------------


def test_density_pins_converge(refine):
    # the pinned values move by less than 1e-10 when M doubles, the
    # trapezoid step halves or the cut doubles
    pins = {0.0: G0_PRIMES, 0.5: G_HALF_PRIMES}
    before = {x: density(PRIMES, x, 1e-6) for x in pins}
    refine(before[0.0].truncation_u)
    for x, pin in pins.items():
        after = density(PRIMES, x, 1e-6)
        assert abs(after.g - pin) < 1e-10
        assert abs(after.g - before[x].g) < 1e-10
        if refine.knob == "m":
            assert after.truncation_m == 2 * before[x].truncation_m
        if refine.knob == "u":
            assert after.truncation_u == 2 * before[x].truncation_u


# -- anchors for the returned error terms ------------------------------------


@pytest.mark.parametrize("spec", [PRIMES, AP], ids=lambda s: s.label())
def test_mass_over_window_is_one(spec):
    # Hoeffding: P(|X| >= 8) <= 2 exp(-8^2 / (2 sum b_n^-2))
    p, err = analytic._interval(spec, -8.0, 8.0, 1e-6)
    hoeffding = 2.0 * math.exp(-32.0 / float(_real(analytic._series(spec, 2)[0])))
    assert abs(p - 1.0) <= err + hoeffding
    assert err < 1e-8


def test_harmonic_density_at_zero_anchor():
    # g(0) = 0.2499943958... for b_n = n (Schmuland, Amer. Math. Monthly
    # 110, 2003)
    sample = density(AP, 0.0, 1e-6)
    assert 0.0 <= sample.g - 0.2499943958 < 1e-10
    assert sample.quadrature_error_estimate < 1e-10
