import math
from bisect import bisect_right

import numpy as np
import pytest

import harmsum.sequences as sequences
from harmsum.errors import InvalidSpec, Overflow
from harmsum.sequences import (
    SequenceSpec,
    count_up_to,
    generate,
    growth_envelope,
    is_prime,
    terms_array,
)

SIEVED = [
    SequenceSpec.primes(),
    *(SequenceSpec.k_squarefree(k) for k in (1, 2, 3)),
    *(SequenceSpec.k_distinct(k) for k in (1, 2, 3)),
    SequenceSpec.nonprimes(),
]


def factorize(n):
    """Trial-division factor map, the oracle for small-number membership."""
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def is_term(spec, m):
    """Whether m >= 1 is a term of a sieved spec, by trial division."""
    f = factorize(m)
    prime = len(f) == 1 and sum(f.values()) == 1
    if spec.kind == "primes":
        return prime
    if spec.kind == "nonprimes":
        return not prime
    return len(f) == spec.k and (spec.kind != "pk" or all(e == 1 for e in f.values()))


@pytest.mark.parametrize("spec", SIEVED, ids=lambda s: s.label())
def test_resumed_rounds_and_small_blocks_against_trial_division(monkeypatch, spec):
    # blocks of 64 put many block edges in every round; each round must
    # start where the last one stopped
    upto = 3000
    want = [m for m in range(1, upto + 1) if is_term(spec, m)]
    monkeypatch.setattr(sequences, "_BLOCK", 64)
    rounds = []
    sieve = sequences._sieve

    def spy(s):
        masks = sieve(s)
        return lambda lo, hi: (rounds.append((lo, hi)), masks(lo, hi))[1]

    monkeypatch.setattr(sequences, "_sieve", spy)
    most = 0
    for n in sorted({1, 2, 3, 7, 40, len(want) // 3, len(want) // 2, len(want)}):
        rounds.clear()
        assert terms_array(spec, n).tolist() == want[:n]
        assert rounds[0][0] == 0 and all(a[1] == b[0] for a, b in zip(rounds, rounds[1:]))
        most = max(most, len(rounds))
    assert most >= 2
    for t in (0, 1, 2, 3, 63, 64, 65, 127, 128, 129, 1000, upto):
        assert count_up_to(spec, t) == bisect_right(want, t)


def test_published_prime_values():
    # the 10^6-th prime and pi(10^7), independent tabulated values
    assert terms_array(SequenceSpec.primes(), 10**6)[-1] == 15_485_863
    assert count_up_to(SequenceSpec.primes(), 10**7) == 664_579


def test_sieve_refuses_only_past_the_largest_term(monkeypatch):
    # the reach stops at the largest allowed term, and the sieve refuses
    # only once it has passed that term without n terms
    monkeypatch.setattr(sequences, "MAX_TERM", 100)
    assert terms_array(SequenceSpec.primes(), 25)[-1] == 97
    with pytest.raises(Overflow):
        terms_array(SequenceSpec.primes(), 26)


def test_primes_known_prefix():
    terms = generate(SequenceSpec.primes(), 25).terms
    assert terms[:10] == (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)
    assert terms[-1] == 97
    assert count_up_to(SequenceSpec.primes(), 100) == 25


def test_k_squarefree_known_prefix():
    assert generate(SequenceSpec.k_squarefree(2), 6).terms == (6, 10, 14, 15, 21, 22)
    assert count_up_to(SequenceSpec.k_squarefree(2), 100) == 30


def test_k_distinct_includes_prime_powers():
    # k=1 admits prime powers, unlike the squarefree variant
    assert generate(SequenceSpec.k_distinct(1), 10).terms == (2, 3, 4, 5, 7, 8, 9, 11, 13, 16)
    assert generate(SequenceSpec.k_distinct(2), 8).terms == (6, 10, 12, 14, 15, 18, 20, 21)


def test_nonprimes_known_prefix():
    assert generate(SequenceSpec.nonprimes(), 3).terms == (1, 4, 6)
    assert count_up_to(SequenceSpec.nonprimes(), 100) == 75


def test_membership_against_trial_division():
    upto = 300

    def members(spec):
        n = count_up_to(spec, upto)
        terms = generate(spec, n).terms
        assert terms[-1] <= upto
        return set(terms)

    pk2 = members(SequenceSpec.k_squarefree(2))
    om3 = members(SequenceSpec.k_distinct(3))
    nonp = members(SequenceSpec.nonprimes())
    want_pk2 = set()
    want_om3 = set()
    want_nonp = {1}
    for m in range(2, upto + 1):
        f = factorize(m)
        if len(f) == 2 and all(e == 1 for e in f.values()):
            want_pk2.add(m)
        if len(f) == 3:
            want_om3.add(m)
        if not (len(f) == 1 and sum(f.values()) == 1):
            want_nonp.add(m)
    assert pk2 == want_pk2
    assert om3 == want_om3
    assert nonp == want_nonp


def test_k_squarefree_1_is_primes():
    a = generate(SequenceSpec.k_squarefree(1), 200).terms
    b = generate(SequenceSpec.primes(), 200).terms
    assert a == b
    assert count_up_to(SequenceSpec.k_squarefree(1), 10**4) == count_up_to(
        SequenceSpec.primes(), 10**4
    )


def test_terms_strictly_increasing():
    specs = [
        SequenceSpec.primes(),
        SequenceSpec.k_squarefree(3),
        SequenceSpec.k_distinct(2),
        SequenceSpec.nonprimes(),
        SequenceSpec.arithmetic(5, 3),
    ]
    for spec in specs:
        terms = generate(spec, 120).terms
        assert all(a < b for a, b in zip(terms, terms[1:]))


def test_count_inverts_generate():
    for spec in [
        SequenceSpec.primes(),
        SequenceSpec.k_squarefree(2),
        SequenceSpec.k_distinct(1),
        SequenceSpec.k_distinct(2),
        SequenceSpec.nonprimes(),
        SequenceSpec.arithmetic(3, 4),
    ]:
        terms = generate(spec, 50).terms
        assert count_up_to(spec, terms[-1]) == 50
        assert count_up_to(spec, terms[-1] - 1) == 49


def test_count_matches_landau_order():
    # the k=2 squarefree count should track t loglog t / log t within a
    # factor of two at moderate size
    t = 10**5
    got = count_up_to(SequenceSpec.k_squarefree(2), t)
    landau = t * math.log(math.log(t)) / math.log(t)
    assert 0.5 < got / landau < 2.0


def test_arithmetic_progression():
    assert generate(SequenceSpec.arithmetic(3, 4), 5).terms == (3, 7, 11, 15, 19)
    assert count_up_to(SequenceSpec.arithmetic(3, 4), 19) == 5
    assert count_up_to(SequenceSpec.arithmetic(3, 4), 2) == 0


def test_custom_sequence():
    spec = SequenceSpec.custom([2, 5, 9])
    assert generate(spec, 2).terms == (2, 5)
    assert count_up_to(spec, 5) == 2
    with pytest.raises(InvalidSpec):
        generate(spec, 4)


def test_custom_refuses_values_that_are_not_exact_integers():
    for bad in ([2, 3.5], [2.5], [2, "3"], [2, float("inf")], [2, float("nan")], np.array([2, 3.5])):
        with pytest.raises(InvalidSpec, match="custom terms must be integers"):
            SequenceSpec.custom(bad)
    for good in ([2, 3], np.array([2, 3]), [2.0, 3], (np.int32(2), 3)):
        spec = SequenceSpec.custom(good)
        assert spec.values == (2, 3) and all(type(v) is int for v in spec.values)


def test_spec_validation():
    with pytest.raises(InvalidSpec):
        SequenceSpec("no-such-kind")
    with pytest.raises(InvalidSpec):
        SequenceSpec.k_squarefree(0)
    with pytest.raises(InvalidSpec):
        SequenceSpec.arithmetic(0, 1)
    with pytest.raises(InvalidSpec):
        SequenceSpec.custom([3, 3])
    with pytest.raises(InvalidSpec):
        SequenceSpec.custom([])


def test_overflow_guards():
    with pytest.raises(Overflow):
        generate(SequenceSpec.arithmetic(2**62, 2**62), 4)
    with pytest.raises(Overflow):
        SequenceSpec.custom([2**63])
    with pytest.raises(Overflow):
        count_up_to(SequenceSpec.primes(), 2**63)


def test_is_prime():
    assert is_prime(2) and is_prime(97) and is_prime(2**61 - 1)
    assert not is_prime(1) and not is_prime(561) and not is_prime(2**61 + 1)
    small = [n for n in range(2, 200) if is_prime(n)]
    assert small == list(generate(SequenceSpec.primes(), len(small)).terms)


def test_growth_envelope():
    env = growth_envelope(generate(SequenceSpec.arithmetic(1, 1), 100))
    assert env.ratio == 1.0 and env.exponent == 0.0
    env = growth_envelope(generate(SequenceSpec.primes(), 1000))
    assert env.ratio == pytest.approx(7919 / 1000)
    with pytest.raises(ValueError):
        growth_envelope(generate(SequenceSpec.primes(), 1))


def test_prefix():
    terms = generate(SequenceSpec.primes(), 10)
    assert terms.prefix(4).terms == (2, 3, 5, 7)
    with pytest.raises(ValueError):
        terms.prefix(11)
