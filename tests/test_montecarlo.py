import math
import tracemalloc
from fractions import Fraction
from itertools import product
from types import SimpleNamespace

import numpy as np
import pytest

import harmsum.montecarlo as mc
from harmsum.errors import CapExceeded, ResourceLimit
from harmsum.exact import ENUM_CAP, _scaled_sums
from harmsum.montecarlo import (
    SimulationConfig,
    exhaustive_probability,
    histogram,
    simulate,
)
from harmsum.sequences import SequenceSpec, terms_array

PRIMES = SequenceSpec.primes()


def brute_interval_prob(terms, lo, hi):
    # exact half-open interval probability over all sign vectors
    n = len(terms)
    hitcount = 0
    for signs in product((-1, 1), repeat=n):
        s = sum(Fraction(sg, t) for sg, t in zip(signs, terms))
        if Fraction(lo) <= s < Fraction(hi):
            hitcount += 1
    return Fraction(hitcount, 2**n)


def test_single_term_two_atoms():
    # X_1 = +-1/2 with equal probability, so half the mass lies in (0, 1)
    cfg = SimulationConfig(spec=PRIMES, n=1, samples=120_000, seed=7, interval=(0.0, 1.0))
    rep = simulate(cfg, eps=1e-6)
    assert abs(rep.empirical_prob - 0.5) <= 5.0 * math.sqrt(0.25 / cfg.samples)
    assert abs(rep.sample_variance - 0.25) <= 0.01
    assert rep.standard_error == pytest.approx(
        math.sqrt(rep.empirical_prob * (1 - rep.empirical_prob) / cfg.samples)
    )


def test_moments():
    cfg = SimulationConfig(spec=PRIMES, n=100, samples=30_000, seed=11, interval=(-0.2, 0.2))
    rep = simulate(cfg, eps=1e-6)
    var_theory = float(np.sum(1.0 / terms_array(PRIMES, 100).astype(np.float64) ** 2))
    assert abs(rep.sample_mean) <= 5.0 * math.sqrt(var_theory / cfg.samples)
    assert abs(rep.sample_variance / var_theory - 1.0) <= 0.05
    assert 0.0 <= rep.empirical_prob <= 1.0


def test_counter_addressing():
    # samples are addressed by index, so any chunk split yields the same values
    inv = 1.0 / terms_array(PRIMES, 65).astype(np.float64)
    whole = mc._chunk_sums(inv, 42, 0, 64)
    part = mc._chunk_sums(inv, 42, 5, 9)
    assert np.array_equal(whole[5:14], part)
    inv2 = 1.0 / terms_array(PRIMES, 257).astype(np.float64)
    whole2 = mc._chunk_sums(inv2, 9, 0, 10)
    assert np.array_equal(whole2[3:], mc._chunk_sums(inv2, 9, 3, 7))


@pytest.mark.parametrize("n", [1, 7, 8, 9, 63, 64, 65, 100, 257, 513, 10_000])
def test_chunk_sums_match_decoded_signs(n):
    # Decode the signs from the same Philox words, term i from bit i of the
    # little-endian bit stream, and sum x_i = +-fl(1/b_i) with fsum, which
    # rounds the exact sum S once: error <= u|S| <= uA, where u = 2^-53 and
    # A = sum |x_i|. The code under test sums each byte's 8 terms into a
    # table entry (at most 7 rounded adds: error <= g7 A_k, g_m = mu/(1-mu),
    # A_k the byte's share of A), adds 8 entries plainly (7 more adds:
    # g7 (1+g7) A_g over the group's share), and Kahan-adds the group
    # partials (error <= (2u + O(G u^2)) times the sum of their sizes,
    # Higham, "Accuracy and Stability of Numerical Algorithms", Thm 4.8).
    # With G <= 157 groups here that totals below 16.1 u A; with fsum's u A,
    # 18 u A bounds the distance to the fsum value. n = 513 ends on a word
    # of one term; n = 10^4 decodes few samples, as each costs 10^4 terms.
    inv = 1.0 / terms_array(PRIMES, n).astype(np.float64)
    seed, start, count = 77, 5, (20 if n > 1000 else 300)
    vals = mc._chunk_sums(inv, seed, start, count)
    blocks = mc._blocks_per_sample(n)
    bg = np.random.Philox(key=seed)
    bg.advance(start * blocks)
    raw = bg.random_raw(count * 4 * blocks).reshape(count, 4 * blocks)
    bits = np.unpackbits(raw.view(np.uint8), axis=1, bitorder="little")[:, :n]
    bound = 18 * 2.0**-53 * math.fsum(inv)
    assert bound <= 1e-13
    for row, val in zip(bits, vals):
        expected = math.fsum(x if b else -x for b, x in zip(row, inv))
        assert abs(val - expected) <= bound


@pytest.mark.parametrize("n", [1, 64, 65, 10_000])
def test_chunk_sums_split_at_tile_edges(n):
    # a sample's value depends on its index alone: cutting one call at 1,
    # tile - 1, tile and tile + 1, from an odd start, changes no bit
    inv = 1.0 / terms_array(PRIMES, n).astype(np.float64)
    tile = mc._tile_samples(mc._blocks_per_sample(n), mc.CHUNK)
    seed, start, count = 13, 7, 2 * tile + 3
    cuts = [0, 1, tile - 1, tile, tile + 1, count]
    parts = [mc._chunk_sums(inv, seed, start + a, b - a) for a, b in zip(cuts, cuts[1:])]
    assert tile == mc._TILE
    assert np.array_equal(np.concatenate(parts), mc._chunk_sums(inv, seed, start, count))


@pytest.mark.parametrize("n", [1, 65, 513, 10_000])
def test_draw_pieces_change_no_bit(monkeypatch, n):
    # a tile's words are drawn in pieces as the Philox stream runs on, so
    # pieces of 1 sample, of 3 (which do not divide the tile) and of a whole
    # tile or more give the default output bit for bit, from an odd start
    inv = 1.0 / terms_array(PRIMES, n).astype(np.float64)
    blocks = mc._blocks_per_sample(n)
    tile = mc._tile_samples(blocks, mc.CHUNK)
    seed, start, count = 31, 9, tile + 5
    default = mc._chunk_sums(inv, seed, start, count)
    for bits, piece in [(256 * blocks, 1), (3 * 256 * blocks, 3), (1 << 40, tile)]:
        monkeypatch.setattr(mc, "_PIECE", bits)
        assert mc._piece_samples(blocks, tile) == piece
        assert np.array_equal(mc._chunk_sums(inv, seed, start, count), default)


def test_byte_tables_are_built_once_per_run(monkeypatch):
    built, sums = [], []
    tables, chunk_sums = mc._byte_tables, mc._chunk_sums
    monkeypatch.setattr(mc, "_byte_tables", lambda inv: (built.append(len(inv)), tables(inv))[1])
    monkeypatch.setattr(mc, "_chunk_sums", lambda *args: (sums.append(args[3]), chunk_sums(*args))[1])
    monkeypatch.setattr(mc, "CHUNK", 1000)
    cfg = SimulationConfig(spec=PRIMES, n=70, samples=2500, seed=3, interval=(-0.2, 0.2))
    simulate(cfg, eps=1e-6)
    assert sums == [1000, 1000, 500]
    assert built == [70]


@pytest.mark.parametrize("chunk", [mc.CHUNK, 1111])
def test_moments_within_stated_bound(monkeypatch, chunk):
    # simulate's docstring: with u = 2^-53 and g(k) = ku / (1 - ku), the mean
    # is within g(35) A / m and the variance within 4 g(35) Q / (m - 1) of
    # the exact moments of the m sampled values, A = sum |x|, Q = sum x^2.
    # The reference sums the same _chunk_sums values as Fractions, exactly,
    # where math.fsum would still round each sum once.
    monkeypatch.setattr(mc, "CHUNK", chunk)
    cfg = SimulationConfig(spec=PRIMES, n=37, samples=20_000, seed=29, interval=(-0.3, 0.45))
    rep = simulate(cfg, eps=1e-6)
    inv = 1.0 / terms_array(PRIMES, cfg.n).astype(np.float64)
    vals = mc._chunk_sums(inv, cfg.seed, 0, cfg.samples)
    m = cfg.samples
    exact = [Fraction(x) for x in vals.tolist()]
    s = sum(exact)
    a = sum(map(abs, exact))
    q = sum(x * x for x in exact)
    var = (q - s * s / m) / (m - 1)
    u = Fraction(2) ** -53
    g35 = 35 * u / (1 - 35 * u)
    assert abs(Fraction(rep.sample_mean) - s / m) <= g35 * a / m
    assert abs(Fraction(rep.sample_variance) - var) <= 4 * g35 * q / (m - 1)
    assert 0 < g35 * a / m < 1e-14


def test_memory_estimate_covers_the_peak(monkeypatch):
    # the price _iter_chunks checks is at least what one simulate at
    # n = 10^4 really allocates (a full chunk and a partial one), and not
    # more than half again as much; numpy.random, which numpy 2 imports at
    # the first sampler call, is imported before tracing
    priced = []
    check = mc._check_memory
    monkeypatch.setattr(mc, "_check_memory", lambda est, gib: (priced.append(est), check(est, gib)))
    cfg = SimulationConfig(spec=PRIMES, n=10**4, samples=30_000, seed=0, interval=(-0.1, 0.1))
    mc._chunk_sums(np.ones(1), 0, 0, 1)
    tracemalloc.start()
    try:
        simulate(cfg, eps=1e-6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert priced and peak <= priced[-1] <= 1.5 * peak


def test_memory_estimate_covers_the_peak_where_pieces_are_smaller_than_tiles(monkeypatch):
    # at n = 10^5 a tile is capped at 670 samples by its 2^26-bit word
    # buffer and a piece holds 41; the price must still cover simulate's
    # traced peak, within half again
    priced = []
    check = mc._check_memory
    monkeypatch.setattr(mc, "_check_memory", lambda est, gib: (priced.append(est), check(est, gib)))
    cfg = SimulationConfig(spec=PRIMES, n=10**5, samples=3000, seed=0, interval=(-0.1, 0.1))
    blocks = mc._blocks_per_sample(cfg.n)
    tile = mc._tile_samples(blocks, cfg.samples)
    assert (tile, mc._piece_samples(blocks, tile)) == (670, 41)
    mc._chunk_sums(np.ones(1), 0, 0, 1)
    tracemalloc.start()
    try:
        simulate(cfg, eps=1e-6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert priced and peak <= priced[-1] <= 1.5 * peak


@pytest.mark.parametrize("n", [100, 64])
def test_memory_estimate_covers_the_heaviest_consumer(monkeypatch, n):
    # At small n the price is mostly per-sample vectors: the chunk's output
    # and the three the consumer keeps from the last chunk. histogram keeps
    # the most (values, mask, and a bin index for each sample in range, here
    # every one), so its sampling loop must fit the price, and within half
    # again, over two full chunks. Its densities, the analytic layer's own
    # allocation, are stubbed out; numpy.random is imported before tracing.
    priced = []
    check = mc._check_memory
    monkeypatch.setattr(mc, "_check_memory", lambda est, gib: (priced.append(est), check(est, gib)))
    monkeypatch.setattr(mc, "densities",
                        lambda spec, xs, eps, memory_gib: [SimpleNamespace(x=x, g=0.0) for x in xs])
    cfg = SimulationConfig(spec=PRIMES, n=n, samples=2 * mc.CHUNK, seed=0, interval=(-3.0, 3.0))
    mc._chunk_sums(np.ones(1), 0, 0, 1)
    tracemalloc.start()
    try:
        rows = histogram(cfg, 11)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sum(r.empirical for r in rows) * 6.0 / 11 == pytest.approx(1.0)
    assert priced and peak <= priced[-1] <= 1.5 * peak


@pytest.mark.parametrize("bins", [2, 3, 4, 12])
def test_histogram_keeps_the_top_edge(monkeypatch, bins):
    # for these bin counts (x - lo) / width rounds up to bins at the largest
    # x below hi, which still belongs to the top bin; x = hi is outside
    lo, hi = -0.1, 0.1
    top = math.nextafter(hi, -math.inf)
    width = (hi - lo) / bins
    assert math.floor((top - lo) / width) == bins
    monkeypatch.setattr(mc, "_iter_chunks", lambda config, memory_gib: iter([np.array([lo, top, hi])]))
    cfg = SimulationConfig(spec=PRIMES, n=10, samples=3, seed=0, interval=(lo, hi))
    rows = histogram(cfg, bins, eps=1e-6)
    counts = [round(r.empirical * 2 * width) for r in rows]
    assert sum(counts) == 2
    assert counts[0] == counts[-1] == 1


def test_one_sampler_feeds_both_consumers():
    # n = 37 leaves a partial last byte. The histogram's empirical column is
    # count_i / (K * width) for its in-range count K; rebuilding each count_i
    # from K = hits of simulate must reproduce every row exactly and sum to K.
    cfg = SimulationConfig(spec=PRIMES, n=37, samples=40_000, seed=23, interval=(-0.3, 0.45))
    bins = 7
    k = round(simulate(cfg, eps=1e-6).empirical_prob * cfg.samples)
    rows = histogram(cfg, bins, eps=1e-6)
    width = (0.45 - -0.3) / bins
    counts = [round(r.empirical * k * width) for r in rows]
    assert k > 0
    assert sum(counts) == k
    assert [c / (k * width) for c in counts] == [r.empirical for r in rows]


def test_memory_guard_refuses_before_allocating():
    # 2 KiB of tables per byte position alone is 2.4 MiB at n = 10^4
    cfg = SimulationConfig(spec=PRIMES, n=10**4, samples=1000, seed=0, interval=(-0.1, 0.1))
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimit):
            simulate(cfg, eps=1e-6, memory_gib=0.001)
        with pytest.raises(ResourceLimit):
            histogram(cfg, 11, eps=1e-6, memory_gib=0.001)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_memory_budget_is_a_parameter():
    # the module default stays, the keyword overrides it for this call only
    cfg = SimulationConfig(spec=PRIMES, n=10**4, samples=1000, seed=0, interval=(-0.1, 0.1))
    with pytest.raises(ResourceLimit):
        simulate(cfg, eps=1e-6, memory_gib=0.001)
    with pytest.raises(ResourceLimit):
        histogram(cfg, 11, eps=1e-6, memory_gib=0.001)
    small = SimulationConfig(spec=PRIMES, n=16, samples=10, seed=0, interval=(-0.1, 0.1))
    with pytest.raises(ResourceLimit):
        exhaustive_probability(small, memory_gib=1e-6)
    assert exhaustive_probability(small) == exhaustive_probability(small, memory_gib=1.0)
    assert simulate(cfg, eps=1e-6).empirical_prob >= 0.0


def test_prediction_reads_memory_budget():
    # at n = 10 the sampler fits in 32 KiB; the prediction's kernel (M = 1024,
    # priced at 80 KiB) does not, so the same budget must reach it
    cfg = SimulationConfig(spec=PRIMES, n=10, samples=10, seed=0, interval=(-0.1, 0.1))
    budget = 2.0**-15
    assert len(next(mc._iter_chunks(cfg, budget))) == 10
    with pytest.raises(ResourceLimit):
        simulate(cfg, eps=1e-6, memory_gib=budget)
    with pytest.raises(ResourceLimit):
        histogram(cfg, 4, eps=1e-6, memory_gib=budget)
    assert 0.0 <= simulate(cfg, eps=1e-6, memory_gib=2.0**-10).empirical_prob <= 1.0


def test_nan_memory_budget_is_refused():
    # NaN compares false with every estimate, so it would pass them all
    cfg = SimulationConfig(spec=PRIMES, n=16, samples=10, seed=0, interval=(-0.1, 0.1))
    with pytest.raises(ValueError):
        simulate(cfg, eps=1e-6, memory_gib=math.nan)
    with pytest.raises(ValueError):
        exhaustive_probability(cfg, memory_gib=math.nan)


def test_chunk_invariance():
    cfg = SimulationConfig(spec=PRIMES, n=100, samples=20_000, seed=11, interval=(-0.2, 0.2))
    r1 = simulate(cfg, eps=1e-6)
    old = mc.CHUNK
    mc.CHUNK = 1111
    try:
        r2 = simulate(cfg, eps=1e-6)
    finally:
        mc.CHUNK = old
    assert r2.empirical_prob == r1.empirical_prob
    assert abs(r2.sample_mean - r1.sample_mean) <= 1e-15
    assert abs(r2.sample_variance - r1.sample_variance) <= 1e-12


def test_repeat_determinism():
    cfg = SimulationConfig(spec=PRIMES, n=30, samples=10_000, seed=3, interval=(-0.5, 0.5))
    assert simulate(cfg, eps=1e-6) == simulate(cfg, eps=1e-6)


def test_exhaustive_matches_brute():
    terms = [int(t) for t in terms_array(PRIMES, 10)]
    cfg = SimulationConfig(spec=PRIMES, n=10, samples=1, seed=0, interval=(-0.1, 0.1))
    exact = exhaustive_probability(cfg)
    assert exact == brute_interval_prob(terms, -0.1, 0.1)
    assert exact == Fraction(29, 256)


def test_exhaustive_half_open():
    # atoms sit exactly on the boundary for a two term sequence
    spec = SequenceSpec.custom((2, 4))
    cfg = SimulationConfig(spec=spec, n=2, samples=1, seed=0, interval=(0.25, 0.75))
    # outcomes: -3/4, -1/4, 1/4, 3/4; [1/4, 3/4) catches exactly one
    assert exhaustive_probability(cfg) == Fraction(1, 4)


def test_exhaustive_capped_before_allocating():
    cfg = SimulationConfig(spec=PRIMES, n=ENUM_CAP + 1, samples=1, seed=0, interval=(-0.1, 0.1))
    tracemalloc.start()
    try:
        with pytest.raises(CapExceeded):
            exhaustive_probability(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_simulation_agrees_with_exhaustive():
    cfg = SimulationConfig(spec=PRIMES, n=10, samples=300_000, seed=3, interval=(-0.1, 0.1))
    exact = float(exhaustive_probability(cfg))
    rep = simulate(cfg, eps=1e-6)
    assert abs(rep.empirical_prob - exact) <= 5.0 * rep.standard_error


def test_outcome_law_is_symmetric():
    for n in (4, 9, 12):
        terms = [int(t) for t in terms_array(PRIMES, n)]
        _, sums = _scaled_sums(terms, 8.0)
        assert sorted(sums) == sorted(-s for s in sums)


def test_histogram_identity_and_symmetry():
    # the 50 term reciprocal sum stays below 2, so every sample lands in range
    cfg = SimulationConfig(spec=PRIMES, n=50, samples=100_000, seed=5, interval=(-2.0, 2.0))
    bins = 21
    rows = histogram(cfg, bins, eps=1e-6)
    width = 4.0 / bins
    assert len(rows) == bins
    assert abs(math.fsum(r.empirical for r in rows) * width - 1.0) <= 1e-12
    counts = [round(r.empirical * cfg.samples * width) for r in rows]
    assert sum(counts) == cfg.samples
    for i in range(bins // 2):
        a, b = counts[i], counts[bins - 1 - i]
        assert abs(a - b) <= 6.0 * math.sqrt(a + b + 1)
        assert abs(rows[i].expected - rows[bins - 1 - i].expected) <= 1e-12
    mid = rows[bins // 2]
    assert mid.center == pytest.approx(0.0, abs=1e-12)
    assert abs(mid.empirical - mid.expected) <= 0.05


def test_histogram_chunk_invariance():
    cfg = SimulationConfig(spec=PRIMES, n=20, samples=15_000, seed=17, interval=(-1.5, 1.5))
    r1 = histogram(cfg, 11, eps=1e-6)
    old = mc.CHUNK
    mc.CHUNK = 997
    try:
        r2 = histogram(cfg, 11, eps=1e-6)
    finally:
        mc.CHUNK = old
    assert r1 == r2


def test_validation():
    with pytest.raises(ValueError):
        SimulationConfig(spec=PRIMES, n=0, samples=10, seed=0, interval=(0.0, 1.0))
    with pytest.raises(ValueError):
        SimulationConfig(spec=PRIMES, n=3, samples=0, seed=0, interval=(0.0, 1.0))
    with pytest.raises(ValueError):
        SimulationConfig(spec=PRIMES, n=3, samples=10, seed=-1, interval=(0.0, 1.0))
    with pytest.raises(ValueError):
        SimulationConfig(spec=PRIMES, n=3, samples=10, seed=0, interval=(1.0, 1.0))
    cfg = SimulationConfig(spec=PRIMES, n=3, samples=10, seed=0, interval=(0.0, 1.0))
    with pytest.raises(ValueError):
        histogram(cfg, 1)
