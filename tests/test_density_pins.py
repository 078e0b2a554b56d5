"""Cross-checks of the quadrature densities against large seeded Monte
Carlo runs, recorded once with their standard errors and frozen here.

The recorded runs drew 40M (primes) and 20M (b_n = n) sign vectors with
a counter-based generator, summed the first 512 or 1024 terms exactly,
and modeled the far tail by a centered Gaussian with the exact residual
variance. The quadrature values must sit within a few standard errors.
"""

from harmsum.analytic import densities, density, interval_probability
from harmsum.sequences import SequenceSpec

PRIMES = SequenceSpec.primes()
AP11 = SequenceSpec.arithmetic(1, 1)

# primes, seed 20260819, 40_000_000 samples, 512 exact terms,
# tail variance 2.965627e-05
MC_PRIMES_WIDE = 0.10886040      # P(|S| < 0.1)
MC_PRIMES_WIDE_SE = 4.92e-5
MC_PRIMES_NARROW = 0.01365407    # P(|S| < 0.0125)
MC_PRIMES_NARROW_SE = 1.83e-5

# b_n = n, seed 8191, 20_000_000 samples, 1024 exact terms,
# tail variance 9.760858e-04
MC_AP_WINDOW = 0.02503340        # P(|S| < 0.05)
MC_AP_WINDOW_SE = 3.49e-5


# P(|S| < 0.1) for the primes, converged: see test_primes_window_converges
PRIMES_WINDOW = 0.10887902916411993


def test_primes_window_probability_matches_simulation():
    p = interval_probability(PRIMES, -0.1, 0.1, 1e-8)
    assert abs(p - PRIMES_WINDOW) <= 1e-9  # regression
    assert abs(p - MC_PRIMES_WIDE) <= 4.0 * MC_PRIMES_WIDE_SE


def test_primes_window_converges(refine):
    # the pin moves by less than 1e-10 when M doubles, the trapezoid step
    # halves or the cut doubles
    before = interval_probability(PRIMES, -0.1, 0.1, 1e-8)
    refine(density(PRIMES, 0.0, 1e-8).truncation_u)
    after = interval_probability(PRIMES, -0.1, 0.1, 1e-8)
    assert abs(after - before) < 1e-10
    assert abs(after - PRIMES_WINDOW) < 1e-10


def test_primes_density_at_zero_matches_simulation():
    # narrow window: P(|S| < h) ~ 2h * g(0); h = 0.0125
    implied = MC_PRIMES_NARROW / 0.025
    implied_se = MC_PRIMES_NARROW_SE / 0.025
    g0 = density(PRIMES, 0.0, 1e-6).g
    assert abs(g0 - implied) <= 3.0 * implied_se


def test_ap_window_probability_matches_simulation():
    p = interval_probability(AP11, -0.05, 0.05, 1e-6)
    assert abs(p - 0.024999402411409726) <= 1e-9  # regression
    assert abs(p - MC_AP_WINDOW) <= 4.0 * MC_AP_WINDOW_SE


def test_ap_density_at_zero_anchor():
    # for b_n = n, g(0) = 0.2499943958..., just below 1/4 and not equal to
    # it: 1/4 - g(0) is about 5.6e-6, inside the 1e-5 tolerance
    sample = density(AP11, 0.0, 1e-6)
    assert abs(sample.g - 0.25) <= 1e-5
    assert sample.quadrature_error_estimate < 1e-3


def test_harmonic_density_at_two_is_one_eighth():
    # for b_n = n, g(2) = 1/8 to about 40 digits (Schmuland, "Random
    # harmonic series", Amer. Math. Monthly 110, 2003)
    (sample,) = densities(AP11, [2.0], 1e-6)
    assert abs(sample.g - 0.125) <= sample.quadrature_error_estimate
