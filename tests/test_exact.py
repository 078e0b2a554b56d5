import os
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

import harmsum
from harmsum.errors import CapExceeded, RangeUnreachable, ResourceLimit
from harmsum.exact import (
    SignVector,
    decay_profile,
    enumerate_sums,
    evaluate_signs,
    min_gap,
    min_signed_sum,
    parse_exact,
    two_stage_approx,
    two_stage_for_n,
)
from harmsum.sequences import SequenceSpec, generate

PRIMES = generate(SequenceSpec.primes(), 25).terms


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
    terms = generate(SequenceSpec.primes(), 34)
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimit):
            min_gap(terms, force=True, cap=34, memory_gib=4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20
