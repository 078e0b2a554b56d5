import functools
import math
import os
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from itertools import product
from pathlib import Path

import numpy as np
import pytest

import harmsum
import harmsum.exact as exact
from harmsum.errors import CapExceeded, RangeUnreachable, ResourceLimit
from harmsum.exact import (
    SIGNS,
    TRITS,
    SignVector,
    _check_memory,
    _expand,
    _Half,
    _meet,
    _price,
    decay_profile,
    enumerate_sums,
    evaluate_signs,
    min_gap,
    min_gaps,
    min_signed_sum,
    min_signed_sums,
    parse_exact,
    two_stage_approx,
    two_stage_for_n,
)
from harmsum.sequences import SequenceSpec, generate

PRIMES = generate(SequenceSpec.primes(), 25).terms


def _sorted_half(x, digits, symmetric: bool):
    """The sums of a `_Half` grown over the terms x from none."""
    half = _Half(digits, symmetric, len(digits) ** len(x))
    half.grow(x)
    return half.sums


def _expanded_order(x, digits):
    """The encodings of every vector over the terms x in the stable order of
    their `_expand` sums, a reference that shares no code with `_Half`."""
    return np.argsort(_expand(x, digits), kind="stable")


def brute_minsum(terms, tau):
    best = None
    for signs in product((-1, 1), repeat=len(terms)):
        v = abs(sum(Fraction(s, b) for s, b in zip(signs, terms)) - tau)
        if best is None or v < best:
            best = v
    return best


def brute_gap(terms):
    best = None
    for trits in product((-1, 0, 1), repeat=len(terms)):
        if all(t == 0 for t in trits):
            continue
        v = abs(sum(Fraction(t, b) for t, b in zip(trits, terms)))
        if best is None or v < best:
            best = v
    return best


def random_sequences(rng, count):
    """A mix of the supported families, small enough for brute force."""
    pool = []
    for _ in range(count):
        kind = rng.randrange(4)
        n = rng.randint(3, 10)
        if kind == 0:
            pool.append(PRIMES[:n])
        elif kind == 1:
            pool.append(generate(SequenceSpec.k_squarefree(rng.randint(2, 3)), n).terms)
        elif kind == 2:
            pool.append(generate(SequenceSpec.nonprimes(), n).terms)
        else:
            pool.append(
                generate(SequenceSpec.arithmetic(rng.randint(1, 5), rng.randint(1, 6)), n).terms
            )
    return pool


def test_known_minimal_sums():
    # scaled values published for the prime sequence
    assert min_signed_sum(PRIMES[:1]).scaled_num == 1
    r = min_signed_sum(PRIMES[:4])
    assert r.scaled_num == 23 and r.den == 210
    assert r.value == Fraction(23, 210)
    assert min_signed_sum(PRIMES[:10]).scaled_num == 4919311


def test_minsum_witness_n4():
    # both (+,-,-,+) and (-,+,+,-) achieve 23/210; the smaller encoding
    # wins, which is the second one (encoding 6 versus 9)
    r = min_signed_sum(PRIMES[:4])
    assert r.witness.encoding == 6
    assert str(r.witness) == "-++-"
    assert abs(evaluate_signs(PRIMES[:4], r.witness)) == r.value


def test_minsum_matches_brute_force():
    rng = random.Random(20240817)
    taus = [Fraction(0), Fraction(1, 3), Fraction(7, 5), Fraction(-2, 7)]
    for terms in random_sequences(rng, 12):
        tau = rng.choice(taus)
        got = min_signed_sum(terms, tau)
        assert got.value == brute_minsum(terms, tau)
        assert abs(evaluate_signs(terms, got.witness) - tau) == got.value
        assert got.value == Fraction(got.scaled_num, got.den)


def test_minsum_tau_symmetry():
    rng = random.Random(7)
    for terms in random_sequences(rng, 6):
        tau = Fraction(rng.randint(-8, 8), rng.randint(1, 9))
        plus = min_signed_sum(terms, tau)
        minus = min_signed_sum(terms, -tau)
        assert plus.value == minus.value
        flipped = SignVector(~minus.witness.encoding & ((1 << len(terms)) - 1), len(terms))
        assert abs(evaluate_signs(terms, flipped) - tau) == plus.value


def test_minsum_scale_covariance():
    a = min_signed_sum(PRIMES[:8], parse_exact("2/6"))
    b = min_signed_sum(PRIMES[:8], parse_exact("1/3"))
    assert a == b


def test_known_gaps():
    assert min_gap(PRIMES[:1]).scaled_num == 1
    g = min_gap(PRIMES[:4])
    assert g.scaled_num == 2 and g.den == 210
    assert g.gap == Fraction(2, 210)
    assert min_gap(PRIMES[:5]).scaled_num == 22


def test_gap_matches_brute_force():
    rng = random.Random(99)
    for terms in random_sequences(rng, 10):
        g = min_gap(terms)
        assert g.gap == brute_gap(terms)
        assert any(t != 0 for t in g.witness.trits)
        assert evaluate_signs(terms, g.witness) == g.gap


def test_gap_equals_half_min_adjacent_sum_distance():
    rng = random.Random(4242)
    for terms in random_sequences(rng, 8):
        den, rows = enumerate_sums(terms)
        sums = [s for s, _ in rows]
        adjacent = min(b - a for a, b in zip(sums, sums[1:]))
        g = min_gap(terms)
        assert g.gap == Fraction(adjacent, 2 * den)


def test_gap_can_vanish_on_colliding_sequences():
    # 1/4 = 1/6 + 1/12, so the first 7 nonprimes admit two sign vectors
    # with equal sums
    g = min_gap(generate(SequenceSpec.nonprimes(), 7))
    assert g.gap == 0
    assert any(t != 0 for t in g.witness.trits)
    assert evaluate_signs(generate(SequenceSpec.nonprimes(), 7), g.witness) == 0


def test_gap_at_most_minsum_at_zero():
    rng = random.Random(5150)
    for terms in random_sequences(rng, 10):
        assert min_gap(terms).gap <= min_signed_sum(terms).value


def test_enumerate_sums_small():
    den, rows = enumerate_sums(PRIMES[:1])
    assert den == 2
    assert [(s, str(w)) for s, w in rows] == [(-1, "-"), (1, "+")]
    den, rows = enumerate_sums(PRIMES[:2])
    assert den == 6 and [s for s, _ in rows] == [-5, -1, 1, 5]
    den, rows = enumerate_sums(PRIMES[:3])
    assert den == 30
    assert [s for s, _ in rows] == [-31, -19, -11, -1, 1, 11, 19, 31]
    # ties sort by encoding
    den, rows = enumerate_sums(generate(SequenceSpec.nonprimes(), 7))
    for (s1, w1), (s2, w2) in zip(rows, rows[1:]):
        assert s1 < s2 or (s1 == s2 and w1.encoding < w2.encoding)


def test_minsum_agrees_with_enumeration():
    rng = random.Random(31337)
    for terms in random_sequences(rng, 10):
        tau = Fraction(rng.randint(-3, 3), rng.randint(1, 5))
        den, rows = enumerate_sums(terms)
        t_den = tau.denominator
        want = min(abs(Fraction(s, den) - tau) for s, _ in rows)
        assert min_signed_sum(terms, tau).value == want


def test_decay_profile_prefix_column():
    prof = decay_profile(PRIMES[:5])
    assert [r.scaled_num for r in prof.rows] == [1, 1, 1, 23, 43]
    assert prof.rows[0].value == Fraction(1, 2)


def test_decay_profile_nonzero_tau():
    prof = decay_profile(PRIMES[:2], tau=1)
    assert [r.value for r in prof.rows] == [Fraction(1, 2), Fraction(1, 6)]


def test_decay_profile_reference_columns():
    import math

    prof = decay_profile(generate(SequenceSpec.k_squarefree(2), 6))
    row = prof.rows[-1]
    assert row.ref_log_sq == -math.log(6) ** 2
    assert row.ref_power == pytest.approx(-(6 ** (1 / 5)))  # k=2 -> exponent 1/5


def test_two_stage_examples():
    ts = two_stage_approx((1, 4), (2, 3), 0)
    assert ts.refined_target == Fraction(3, 4)
    assert ts.residual == Fraction(1, 12)
    ts = two_stage_approx((1, 4), (2, 3), Fraction(5, 4))
    assert ts.refined_target == 0
    assert ts.residual == Fraction(1, 6)


def test_two_stage_for_n():
    ts = two_stage_for_n(4)
    assert ts.first.n == 2 and ts.second.n == 2
    assert ts.residual == Fraction(1, 12)
    # n=1: single nonprime term 1/1, no primes to refine with
    ts = two_stage_for_n(1)
    assert ts.refined_target in (1, -1)
    assert ts.residual == 1


def test_two_stage_refined_target_bounded():
    rng = random.Random(2718)
    for _ in range(20):
        n = rng.randint(2, 14)
        num = rng.randint(-20, 20)
        den = rng.randint(1, 12)
        ts = None
        try:
            ts = two_stage_for_n(n, Fraction(num, den))
        except RangeUnreachable:
            continue
        assert abs(ts.refined_target) <= 1


def test_two_stage_range_guard():
    with pytest.raises(RangeUnreachable):
        two_stage_approx((1, 4), (2, 3), 10)


def test_caps_and_memory():
    with pytest.raises(CapExceeded):
        min_signed_sum(PRIMES[:5], cap=4)
    with pytest.raises(CapExceeded):
        min_gap(PRIMES[:5], cap=4)
    with pytest.raises(CapExceeded):
        enumerate_sums(generate(SequenceSpec.arithmetic(1, 1), 25))
    with pytest.raises(ResourceLimit):
        min_signed_sum(PRIMES[:20], memory_gib=1e-6)


def test_parse_exact():
    assert parse_exact("7/5") == Fraction(7, 5)
    assert parse_exact("0.25") == Fraction(1, 4)
    assert parse_exact("-3") == -3
    with pytest.raises(ValueError):
        parse_exact("abc")
    with pytest.raises(ValueError):
        parse_exact("1/0")


def test_rejects_bad_terms():
    with pytest.raises(ValueError):
        min_signed_sum([])
    with pytest.raises(ValueError):
        min_signed_sum([3, 3])
    with pytest.raises(ValueError):
        min_signed_sum([5, 2])


def brute_minsum_witness(terms, tau):
    """(value, encoding) of the smallest-encoding optimum, by walking all
    sign vectors; bit i of the encoding set means + on term i."""
    n = len(terms)
    return min(
        (abs(sum(Fraction(1 if enc >> i & 1 else -1, b) for i, b in enumerate(terms)) - tau), enc)
        for enc in range(2**n)
    )


def brute_gap_witness(terms):
    """(gap, trits) by walking all nonzero trit vectors: each optimum is
    oriented to a nonnegative sum (both orientations when the sum is 0) and
    the smallest base-3 encoding wins, digits 0, 1, 2 meaning 0, +1, -1."""
    n = len(terms)
    digit = {0: 0, 1: 1, -1: 2}
    best = None
    for code in range(1, 3**n):
        trits = tuple((0, 1, -1)[code // 3**i % 3] for i in range(n))
        value = sum(Fraction(t, b) for t, b in zip(trits, terms))
        flipped = tuple(-t for t in trits)
        if value > 0:
            orientations = (trits,)
        elif value < 0:
            orientations = (flipped,)
        else:
            orientations = (trits, flipped)
        for oriented in orientations:
            key = (abs(value), sum(digit[t] * 3**i for i, t in enumerate(oriented)), oriented)
            best = key if best is None or key < best else best
    return best[0], best[2]


COLLIDING = (SequenceSpec.nonprimes(), SequenceSpec.arithmetic(1, 1))


def test_minsum_smallest_witness_on_colliding_families():
    for spec in COLLIDING:
        for n in range(1, 11):
            terms = generate(spec, n).terms
            for tau in (Fraction(1, 3), Fraction(-7, 5), Fraction(1, 2)):
                got = min_signed_sum(terms, tau)
                assert (got.value, got.witness.encoding) == brute_minsum_witness(terms, tau)


def test_gap_witness_order_on_colliding_families():
    for spec in COLLIDING + (SequenceSpec.primes(),):
        for n in range(1, 8):
            terms = generate(spec, n).terms
            got = min_gap(terms)
            assert (got.gap, got.witness.trits) == brute_gap_witness(terms)
            assert any(got.witness.trits)
            assert evaluate_signs(terms, got.witness) == got.gap
            if got.gap == 0:
                assert got.scaled_num == 0 and got.gap == Fraction(0)


def test_engine_edge_cases_one_and_two_terms():
    # n = 1 leaves the second half empty, n = 2 gives it one term; targets
    # past the reachable range, and one far beyond float range, included
    taus = (Fraction(0), Fraction(1, 3), Fraction(-5, 4), Fraction(7), Fraction(10**400))
    for terms in ((2,), (1,), (2, 3), (1, 2), (4, 6)):
        for tau in taus:
            got = min_signed_sum(terms, tau)
            assert (got.value, got.witness.encoding) == brute_minsum_witness(terms, tau)
        gap = min_gap(terms)
        assert (gap.gap, gap.witness.trits) == brute_gap_witness(terms)


def brute_gap_witness_scaled(terms):
    """brute_gap_witness in scaled integers, fast enough for n = 12: the sums
    are listed by base-3 encoding, and each optimum is oriented as there."""
    den = math.lcm(*terms)
    sums = [0]
    for b in terms:
        sums = sums + [s + den // b for s in sums] + [s - den // b for s in sums]
    best = min(abs(s) for s in sums[1:])
    n = len(terms)

    def negated(code):
        return sum((0, 2, 1)[code // 3**i % 3] * 3**i for i in range(n))

    oriented = []
    for code, s in enumerate(sums):
        if code and abs(s) == best:
            oriented += [code] if s > 0 else [negated(code)] if s < 0 else [code, negated(code)]
    code = min(oriented)
    return Fraction(best, den), tuple(TRITS[code // 3**i % 3] for i in range(n))


def random_colliding(rng):
    """A prefix of at most 12 terms of a family with many equal sums."""
    spec = rng.choice(
        (SequenceSpec.nonprimes(), SequenceSpec.arithmetic(1, 1),
         SequenceSpec.arithmetic(rng.randint(1, 5), rng.randint(1, 6)))
    )
    return generate(spec, rng.randint(1, 12)).terms


def test_minsum_witness_on_random_colliding_families_at_zero_and_nonzero_targets():
    # at tau = 0 the engine searches only the left vectors whose first sign
    # is + and rebuilds the optima by negation; at tau != 0 it searches all
    rng = random.Random(1207)
    for k in range(40):
        terms = random_colliding(rng)
        num = 0 if k % 2 == 0 else rng.choice((-1, 1)) * rng.randint(1, 9)
        tau = Fraction(num, rng.randint(1, 9))
        got = min_signed_sum(terms, tau)
        assert (got.value, got.witness.encoding) == brute_minsum_witness(terms, tau)


def test_gap_witness_on_random_colliding_families():
    rng = random.Random(2203)
    zero_gaps = 0
    for _ in range(16):
        terms = random_colliding(rng)
        got = min_gap(terms)
        assert (got.gap, got.witness.trits) == brute_gap_witness_scaled(terms)
        zero_gaps += got.gap == 0
    assert zero_gaps >= 3  # optima of sum 0 keep both orientations


def test_sorted_half_is_the_expanded_sums_in_order():
    x = [1 / b for b in generate(SequenceSpec.nonprimes(), 8).terms]
    for digits in (SIGNS, TRITS):
        base = len(digits)
        full = _expand(x, digits)
        coefficients = [
            [digits[c // base**i % base] for i in range(len(x))] for c in range(len(full))
        ]
        for symmetric in (False, True):
            sums = _sorted_half(x, digits, symmetric)
            want = full[[
                c for c, cs in enumerate(coefficients)
                if not symmetric or next((v for v in cs if v), 0) >= 0
            ]]
            # bit for bit the sums of `_expand`, the float filter's
            # reference, of the vectors kept, in their stable order
            want = want[np.argsort(want, kind="stable")]
            assert np.array_equal(sums.view(np.int64), want.view(np.int64))


def test_resumed_half_equals_one_built_at_once():
    x = [1 / b for b in generate(SequenceSpec.nonprimes(), 9).terms]
    for digits in (SIGNS, TRITS):
        for symmetric in (False, True):
            sums = _sorted_half(x, digits, symmetric)
            half = _Half(digits, symmetric, len(digits) ** len(x))
            for lo, hi in ((0, 3), (3, 4), (4, 4), (4, 9)):
                half.grow(x[lo:hi])
            assert half.terms == 9
            assert np.array_equal(half.sums.view(np.int64), sums.view(np.int64))
            assert half.pad[0] == -np.inf and half.pad[-1] == np.inf


@pytest.mark.parametrize("chunk", [1, 3, 64])
def test_chunked_merges_equal_one_merge_at_once(monkeypatch, chunk):
    # colliding terms give tied sums; with chunks of one entry every run
    # entry is a pivot in turn, so ties fall on pivots, and a tie keeps the
    # order of the runs. A chunk larger than every half is one stable
    # argsort of the runs concatenated
    families = (SequenceSpec.nonprimes(), SequenceSpec.arithmetic(1, 1))
    for spec, digits, symmetric in product(families, (SIGNS, TRITS), (False, True)):
        x = [1 / b for b in generate(spec, 12 if digits == SIGNS else 8).terms]
        monkeypatch.setattr(exact, "_CHUNK", 2**30)
        want = _Half(digits, symmetric, len(digits) ** len(x))
        want.grow(x)
        assert np.any(want.sums[1:] == want.sums[:-1])
        monkeypatch.setattr(exact, "_CHUNK", chunk)
        got = _Half(digits, symmetric, len(digits) ** len(x))
        for lo, hi in ((0, 5), (5, 6), (6, len(x))):
            got.grow(x[lo:hi])
        assert np.array_equal(got.pad.view(np.int64), want.pad.view(np.int64))


@pytest.mark.parametrize("digits, symmetric, n", [(SIGNS, False, 18), (TRITS, True, 12)])
def test_growth_holds_no_old_half_beside_the_new_one(digits, symmetric, n):
    # a half grows in place, in a buffer of its final size, 8 L, so its
    # last step adds one merge chunk, 12 min(L, _CHUNK); a merge into a new
    # half held the old one too, 8 (L + L') and more
    x = [1 / b for b in PRIMES[:n]]
    size = (len(digits) ** n + 1) // 2 if symmetric else len(digits) ** n
    tracemalloc.start()
    try:
        half = _Half(digits, symmetric, size)
        half.grow(x[:-1])
        held = half.size
        tracemalloc.reset_peak()
        half.grow(x[-1:])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    slack = 12 * min(size, exact._CHUNK) + 2**14
    assert half.size == size and 8 * held > slack
    assert peak <= 8 * size + slack
    want = _sorted_half(x, digits, symmetric)
    assert np.array_equal(half.sums.view(np.int64), want.view(np.int64))


# exact zero signed sums: 1/2 - 1/3 - 1/6 and 1 - 1/2 - 1/3 - 1/6 round to
# 2.8e-17, 1/6 - 1/9 - 1/18 to 0.0, so (6, 9, 18) halves hold several 0.0
ZERO_SUMS = ((2, 3, 6), (1, 2, 3, 6), (6, 9, 18), (3, 6, 9, 18, 20))


@pytest.mark.parametrize("chunk", [1, 3, exact._CHUNK])
def test_zero_vector_is_the_first_zero_sum_of_a_trit_half(monkeypatch, chunk):
    # `_meet` and `grow` find the zero vector of a half, which holds no
    # encodings, as its first entry of value 0.0; in the stable order of the
    # `_expand` sums it is the first of those too
    monkeypatch.setattr(exact, "_CHUNK", chunk)
    lists = [generate(spec, 9).terms for spec in COLLIDING] + list(ZERO_SUMS)
    ties = 0
    for terms, symmetric in product(lists, (False, True)):
        x = [1 / b for b in terms]
        half = _Half(TRITS, symmetric, 3 ** len(x))
        for k in range(1, len(x) + 1):
            half.grow(x[k - 1:k])
            order = _expanded_order(x[:k], TRITS)
            if symmetric:
                first = [next((d for d in np.base_repr(c, 3)[::-1] if d != "0"), "1") for c in order]
                order = order[np.array(first) == "1"]
            z = int(np.searchsorted(half.sums, 0.0))
            assert half.sums[z] == 0.0 and order[z] == 0
            ties += np.count_nonzero(half.sums == 0.0) > 1
    assert ties >= 4


@functools.lru_cache(maxsize=None)
def brute_minsum_witness_scaled(terms, tau):
    """brute_minsum_witness in scaled integers, fast enough for n = 12."""
    den = math.lcm(math.lcm(*terms), tau.denominator)
    sums = [0]
    for b in terms:
        sums = [s - den // b for s in sums] + [s + den // b for s in sums]
    return min((abs(Fraction(s, den) - tau), enc) for enc, s in enumerate(sums))


TIED = (
    generate(SequenceSpec.arithmetic(1, 1), 12).terms,
    generate(SequenceSpec.nonprimes(), 12).terms,
) + ZERO_SUMS


@pytest.mark.parametrize("chunk", [1, 3])
def test_recovered_optima_on_ties_equal_brute_force(monkeypatch, chunk):
    # many equal sums: kept queries share right sums, and the vectors
    # recovered for them tie, within a half and across the halves
    monkeypatch.setattr(exact, "_BLOCK", 7)
    monkeypatch.setattr(exact, "_CHUNK", chunk)
    gap = functools.lru_cache(maxsize=None)(brute_gap_witness_scaled)
    for terms in TIED:
        ns = range(1, len(terms) + 1)
        for tau in (Fraction(0), Fraction(1, 3)):
            got = min_signed_sums(terms, ns, tau)
            assert [(r.value, r.witness.encoding) for r in got] == [
                brute_minsum_witness_scaled(tuple(terms[:m]), tau) for m in ns
            ]
        got = min_gaps(terms, ns)
        assert [(g.gap, g.witness.trits) for g in got] == [gap(tuple(terms[:m])) for m in ns]


def test_tie_heavy_recovery_is_priced_before_its_candidates(monkeypatch):
    # the first 18 divisors of 5040 tie over 20,000 trit vectors at the zero
    # gap; recovering them, at 228 B a candidate, exceeds a budget that
    # admits the search itself
    terms = [d for d in range(1, 25) if 5040 % d == 0]
    assert len(terms) == 18 and _price(18, TRITS, True) < 0.002 * 2**30 / 4

    def rescored(*args):
        raise AssertionError("candidates were re-scored")

    monkeypatch.setattr(exact, "_exact_sums", rescored)
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimit, match="0.002 GiB budget"):
            min_gap(terms, memory_gib=0.002)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_merge_refuses_chunks_that_overwrite_unread_entries(monkeypatch):
    # two runs that read the entries at the front of the buffer, where the
    # merge writes, as if the held entries had not moved to its tail; the
    # first chunk of one entry would overwrite the second run's head
    monkeypatch.setattr(exact, "_CHUNK", 2)
    sums = np.array([1.0, 2.0, 3.0, np.nan, np.nan, np.nan])
    with pytest.raises(RuntimeError, match="not yet merged"):
        exact._merge(sums, [(0, 3, -0.5), (0, 3, 0.5)])


def test_price_reaches_gap_36_and_minsum_58_in_the_default_budget():
    # minsum at tau = 0 keeps half its left vectors; other targets keep all
    budget = 3.9 * 2**30
    assert _price(36, TRITS, True) <= budget < _price(37, TRITS, True)
    assert _price(58, SIGNS, True) <= budget < _price(59, SIGNS, True)
    assert _price(56, SIGNS, False) <= budget < _price(57, SIGNS, False)


def _unbuilt(*args):
    raise AssertionError("a half was built")


def test_64_bit_encodings_bound_an_explicit_cap(monkeypatch):
    # 3^40 and 2^64 full encodings would wrap int64; priced at 16 and 24 GiB,
    # these are refused before any half is built
    monkeypatch.setattr(exact, "_merge", _unbuilt)
    primes = generate(SequenceSpec.primes(), 64).terms
    with pytest.raises(CapExceeded, match="64-bit encodings"):
        min_gap(primes[:40], cap=40, memory_gib=1e6)
    with pytest.raises(CapExceeded, match="64-bit encodings"):
        min_signed_sum(primes[:64], cap=64, memory_gib=1e6)
    # the largest sizes int64 holds are still priced, at least at the
    # float64 sums of their left half
    for n, digits, left in ((39, TRITS, (3**20 + 1) // 2), (63, SIGNS, 2**31)):
        assert _price(n, digits, True) >= 8 * left


def test_budget_bounds_a_lifted_cap(monkeypatch):
    monkeypatch.setattr(exact, "_merge", _unbuilt)
    with pytest.raises(ResourceLimit):
        min_gap(generate(SequenceSpec.primes(), 31), cap=math.inf, memory_gib=0.01)


def random_sweep(rng):
    """Colliding terms, at most 16, with a non-contiguous list of prefix
    lengths that holds both members of some pairs 2L - 1, 2L."""
    spec = rng.choice(
        (SequenceSpec.nonprimes(), SequenceSpec.arithmetic(1, 1),
         SequenceSpec.arithmetic(rng.randint(1, 5), rng.randint(1, 6)))
    )
    terms = generate(spec, rng.randint(4, 16)).terms
    ns = sorted(rng.sample(range(1, len(terms) + 1), rng.randint(2, len(terms))))
    return terms, ns


def test_sweeps_equal_per_prefix_searches():
    rng = random.Random(1101)
    cases = [(generate(SequenceSpec.arithmetic(1, 1), 16).terms, [3, 4, 9, 10, 11, 16])]
    cases += [random_sweep(rng) for _ in range(24)]
    zero_gaps = 0
    for terms, ns in cases:
        num = rng.choice((-1, 1)) * rng.randint(1, 9)
        for tau in (Fraction(0), Fraction(num, rng.randint(1, 9))):
            got = min_signed_sums(terms, ns, tau)
            want = [min_signed_sum(terms[:m], tau) for m in ns]
            assert [(r.n, r.value, r.witness.encoding) for r in got] == [
                (r.n, r.value, r.witness.encoding) for r in want
            ]
        gns = [m for m in ns if m <= 12]
        got = min_gaps(terms, gns)
        assert [(g.gap, g.witness.trits) for g in got] == [
            (g.gap, g.witness.trits) for g in map(min_gap, (terms[:m] for m in gns))
        ]
        zero_gaps += sum(g.gap == 0 for g in got)
    assert zero_gaps >= 10


def test_sweeps_keep_the_order_of_the_lengths_asked_for():
    terms = generate(SequenceSpec.nonprimes(), 9).terms
    ns = [9, 2, 5, 5, 1]
    assert [r.n for r in min_signed_sums(terms, ns)] == ns
    assert [g.n for g in min_gaps(terms, ns)] == ns
    assert min_signed_sums(terms, []) == [] and min_gaps(terms, []) == []
    for bad in ([0, 3], [3, 10]):
        with pytest.raises(ValueError, match="prefix lengths out of range"):
            min_signed_sums(terms, bad)
        with pytest.raises(ValueError, match="prefix lengths out of range"):
            min_gaps(terms, bad)


def test_small_blocks_keep_the_optima(monkeypatch):
    # blocks of 7 queries run many blocks per search, and for the gap at
    # n = 14 the zero vector of the right half's base (its 5 terms before
    # the 2 shifted ones), whose query is replaced, lies past block 0
    terms = generate(SequenceSpec.nonprimes(), 14).terms
    ns = list(range(1, 15))
    taus = (Fraction(0), Fraction(1, 3), Fraction(-7, 5))
    want = [min_signed_sums(terms, ns, tau) for tau in taus], min_gaps(terms, ns)
    right = _expanded_order([1 / b for b in terms[7:12]], TRITS)
    assert len(right) - 1 - int(right.argmin()) >= 7
    monkeypatch.setattr(exact, "_BLOCK", 7)
    assert ([min_signed_sums(terms, ns, tau) for tau in taus], min_gaps(terms, ns)) == want
    for m in range(1, 9):
        gap = min_gap(terms[:m])
        assert (gap.gap, gap.witness.trits) == brute_gap_witness(terms[:m])


def test_shifted_queries_are_those_of_the_merged_half_bit_for_bit():
    # the float filter's error bound counts one rounded add per term, so a
    # shift adds its terms one at a time, never as one precombined offset
    x = [1 / b for b in generate(SequenceSpec.nonprimes(), 9).terms]
    t = 0.3
    for digits in (SIGNS, TRITS):
        base = len(digits)
        merged = np.subtract(t, _expand(x, digits))
        rest, rest_encs = _sorted_half(x[:7], digits, False), _expanded_order(x[:7], digits)
        for k1, k2 in product(range(base), repeat=2):
            q = exact._queries(t, rest, (digits[k1] * x[7], digits[k2] * x[8]))
            want = merged[rest_encs + k1 * base**7 + k2 * base**8]
            assert np.array_equal(q.view(np.int64), want.view(np.int64))


def meet_with_shifts(terms, digits, tau, shifted):
    """The optima of `_meet` over terms, as a set of (exact residual,
    encoding), with the right half's last `shifted` terms applied as shifts
    of the queries and the rest merged into it; and the distance of the
    gap's zero query from the first query of the zero shift."""
    n, half = len(terms), (len(terms) + 1) // 2
    den = math.lcm(math.lcm(*terms), tau.denominator)
    target = tau.numerator * (den // tau.denominator)
    x = [1 / b for b in terms]
    left = _Half(digits, tau == 0, len(digits) ** half)
    left.grow(x[:half])
    right = _Half(digits, False, len(digits) ** (n - shifted - half))
    right.grow(x[half:n - shifted])
    nonzero = digits == TRITS and tau == 0
    res, encs = _meet(left, right, terms, target, den, 1.0, nonzero=nonzero)
    zero = _expanded_order(x[half:n - shifted], digits).argmin()
    return set(zip(res.tolist(), encs.tolist())), right.size - 1 - int(zero)


def random_meet_cases(rng, count):
    """(terms, digits, tau) with 1..16 terms: signs and trits, each at
    target 0 (the gap, for trits) and at a nonzero one."""
    families = (
        SequenceSpec.primes(), SequenceSpec.nonprimes(), SequenceSpec.arithmetic(1, 1),
        SequenceSpec.arithmetic(rng.randint(1, 5), rng.randint(1, 6)),
        SequenceSpec.k_squarefree(2),
    )
    cases = []
    for k in range(count):
        digits = (SIGNS, TRITS)[k % 2]
        n = rng.randint(1, 16)
        tau = Fraction(0) if k % 4 < 2 else Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))
        cases.append((generate(rng.choice(families), n).terms, digits, tau))
    return cases


@pytest.mark.parametrize("block", [exact._BLOCK, 7])
def test_shifted_right_terms_give_the_optima_of_merged_ones(monkeypatch, block):
    # the sweep applies the right half's last two terms as shifts; with
    # blocks of 7 a shift spans many blocks, and the gap's zero query lies
    # past block 0 of the zero shift
    monkeypatch.setattr(exact, "_BLOCK", block)
    rng = random.Random(1509)
    cases = random_meet_cases(rng, 200)
    cases += [((2,), SIGNS, Fraction(0)), ((1, 2), TRITS, Fraction(0)), ((2, 3, 5), SIGNS, Fraction(1, 3))]
    late_zero = 0
    for terms, digits, tau in cases:
        n = len(terms)
        merged, j0 = meet_with_shifts(terms, digits, tau, 0)
        for shifted in range(1, min(2, n - (n + 1) // 2) + 1):
            got, j0 = meet_with_shifts(terms, digits, tau, shifted)
            assert got == merged, (terms, digits, tau, shifted)
        late_zero += digits == TRITS and tau == 0 and n >= 4 and j0 >= block
    assert sum(len(t) <= 3 for t, _, _ in cases) >= 20
    if block == 7:
        assert late_zero >= 10


@pytest.mark.parametrize("block", [exact._BLOCK, 64, 7])
def test_merged_insertion_points_equal_binary_search(monkeypatch, block):
    monkeypatch.setattr(exact, "_BLOCK", block)
    rng = np.random.default_rng(1710)
    # repeated sums, and queries that tie them, fall below and rise above
    # every sum
    a = np.sort(rng.integers(0, 40, 300)).astype(float)
    ties = np.sort(rng.choice(a, 50))
    cases = [
        (a, ties),
        (a, np.sort(np.concatenate((ties, [-5.0, -1.0, 0.0, 39.0, 40.0, 99.0])))),
        (a, np.sort(rng.uniform(-3, 43, 1000))),
        (a, np.array([-1.0, -0.5])),
        (a, np.array([50.0, 60.0])),
        (np.full(200, 3.0), np.array([2.0, 3.0, 3.0, 4.0])),
        (a, a[[17]]),  # a single query, whose slice is empty
        (a, np.array([0.5, 0.5])),  # an empty slice
        (np.array([]), np.array([1.0, 2.0])),
        (np.sort(rng.standard_normal(5000)), np.sort(rng.standard_normal(40))),
    ]
    for a, q in cases:
        got = exact._insertion_points(a, q)
        assert got.dtype == np.intp
        assert np.array_equal(got, np.searchsorted(a, q))
        # the runs of each piece joined in a reused buffer of m + w entries
        buf = np.full(len(q) + max(len(q), block // 4), np.nan)
        assert np.array_equal(exact._insertion_points(a, q, buf), got)


@pytest.mark.parametrize("block", [7, 64])
def test_small_blocks_bound_every_merge(monkeypatch, block):
    # with small blocks a block's queries span more left sums than it holds
    # queries, so they are ranked in pieces; no merge may exceed 2 _BLOCK
    # values, and the rows are those of the default block
    terms = generate(SequenceSpec.primes(), 16).terms
    ns = list(range(1, 17))

    def searches():
        return [min_signed_sums(terms, ns, tau) for tau in (0, Fraction(1, 3))], min_gaps(terms, ns[:14])

    want = searches()
    monkeypatch.setattr(exact, "_BLOCK", block)
    merges, spans = [], []
    argsort, insertion_points = np.argsort, exact._insertion_points

    def counted_argsort(x, *args, **kwargs):
        if sys._getframe(1).f_code.co_name == "_insertion_points":
            merges.append(len(x))
        return argsort(x, *args, **kwargs)

    def spanned(a, q, *buf):
        first, end = np.searchsorted(a, (q[0], q[-1]))
        spans.append(end - first)
        return insertion_points(a, q, *buf)

    monkeypatch.setattr(np, "argsort", counted_argsort)
    monkeypatch.setattr(exact, "_insertion_points", spanned)
    assert searches() == want
    assert max(spans) > block and len(merges) > len(spans)
    assert max(merges) <= 2 * block


def test_negated_signs_in_closed_form_equal_the_digit_loop():
    def negated_by_digits(encs, digits, n):
        base = len(digits)
        flip = np.array([digits.index(-c) for c in digits])
        out = np.zeros_like(encs)
        for i in range(n):
            out += flip[encs // base**i % base] * base**i
        return out

    rng = np.random.default_rng(60)
    for n in range(1, 61):
        encs = rng.integers(0, 2**n, 50, dtype=np.int64)
        encs[:2] = 0, 2**n - 1
        got = exact._negated(encs, SIGNS, n)
        assert got.dtype == np.int64
        assert np.array_equal(got, negated_by_digits(encs, SIGNS, n))
    trits = rng.integers(0, 3**20, 50, dtype=np.int64)
    assert np.array_equal(exact._negated(trits, TRITS, 20), negated_by_digits(trits, TRITS, 20))


def test_over_cap_and_over_budget_sweeps_refused_before_any_search(monkeypatch):
    def searched(*args, **kwargs):
        raise AssertionError("a search ran")

    monkeypatch.setattr(_Half, "grow", searched)
    primes = generate(SequenceSpec.primes(), 49)
    with pytest.raises(CapExceeded, match="n=49 exceeds the cap of 48"):
        min_signed_sums(primes, range(1, 50))
    with pytest.raises(CapExceeded, match="n=49 exceeds the cap of 48"):
        decay_profile(primes, range(4, 50))
    with pytest.raises(CapExceeded, match="n=27 exceeds the cap of 26"):
        min_gaps(primes, range(1, 28))
    with pytest.raises(ResourceLimit):
        min_signed_sums(primes, range(1, 41), memory_gib=0.005)
    with pytest.raises(ResourceLimit):
        min_gaps(primes, range(1, 23), memory_gib=0.001)


@pytest.mark.parametrize(
    "search, n, digits, symmetric, block",
    [
        (lambda terms: min_signed_sums(terms, range(1, 31)), 30, SIGNS, True, exact._BLOCK),
        (lambda terms: min_signed_sums(terms, range(1, 31), Fraction(1, 3)), 30, SIGNS, False, exact._BLOCK),
        (lambda terms: min_gaps(terms, range(1, 19)), 18, TRITS, True, exact._BLOCK),
        # the `exact` benchmark's sweep, whose largest priced phase is matching
        (lambda terms: min_signed_sums(terms, range(1, 41)), 40, SIGNS, True, exact._BLOCK),
        # blocks whose queries span more left sums than they hold queries,
        # so that they are ranked in pieces
        (lambda terms: min_gaps(terms, range(1, 19)), 18, TRITS, True, 64),
        # 2,817 blocks, each of which leaves its kept queries behind until
        # the last one is matched
        (lambda terms: min_gaps(terms, range(1, 19)), 18, TRITS, True, 7),
    ],
    ids=["minsum-tau0", "minsum-tau1/3", "gap", "minsum-tau0-40", "gap-block64", "gap-block7"],
)
def test_memory_estimate_bounds_the_traced_peak(monkeypatch, search, n, digits, symmetric, block):
    monkeypatch.setattr(exact, "_BLOCK", block)
    terms = generate(SequenceSpec.primes(), n)
    search(terms)  # lazy imports and first-call set-up, untraced
    tracemalloc.start()
    try:
        search(terms)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    est = _price(n, digits, symmetric)
    assert peak <= est <= 1.5 * peak


def test_memory_refusal_shows_the_estimate_above_the_budget():
    with pytest.raises(ResourceLimit, match=r"estimated 1\.000000001 GiB exceeds the 1 GiB budget"):
        _check_memory(2**30 + 1, 1.0)
    with pytest.raises(ResourceLimit, match=r"estimated 4\.2 GiB exceeds the 3\.9 GiB budget"):
        _check_memory(int(4.2 * 2**30), 3.9)


def test_memory_check_refuses_estimates_above_physical_memory(monkeypatch):
    # whatever the budget; where the platform reports no physical memory,
    # the budget alone decides
    assert exact.MEMORY_GIB == (exact.PHYSICAL_GIB / 2 if exact.PHYSICAL_GIB else 8.0)
    monkeypatch.setattr(exact, "PHYSICAL_GIB", 16.0)
    with pytest.raises(ResourceLimit, match=r"estimated 17 GiB exceeds the 16 GiB of physical memory"):
        _check_memory(17 * 2**30, 1000.0)
    with pytest.raises(ResourceLimit, match="budget"):
        _check_memory(17 * 2**30, 10.0)
    _check_memory(16 * 2**30, 1000.0)
    monkeypatch.setattr(exact, "PHYSICAL_GIB", None)
    _check_memory(17 * 2**30, 1000.0)


CERTIFICATE_SCRIPT = """
from fractions import Fraction
from types import SimpleNamespace
import harmsum.exact as ex
from harmsum.errors import CertificateError

def refused(call):
    try:
        call()
    except CertificateError:
        return True
    return False

ex.evaluate_signs = lambda *args: Fraction(7)  # disagrees with every search
print("minsum", refused(lambda: ex.min_signed_sum((2, 3, 5), Fraction(1, 3))))
print("gap", refused(lambda: ex.min_gap((2, 3, 5))))
ex.min_signed_sum = lambda *args, **kwargs: SimpleNamespace(witness=None)
print("two_stage", refused(lambda: ex.two_stage_approx((1, 4), (2, 3), 0)))
print("debug", __debug__)
"""


def test_certificates_survive_optimize_flag():
    src = str(Path(harmsum.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", CERTIFICATE_SCRIPT],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [
        "minsum", "True", "gap", "True", "two_stage", "True", "debug", "False"
    ]


def test_gap_memory_guard_refuses_before_allocating():
    # the gap at N = 34 is priced at 0.96 GiB, over a 0.5 GiB budget
    terms = generate(SequenceSpec.primes(), 34)
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimit):
            min_gap(terms, cap=34, memory_gib=0.5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20
