"""Strictly increasing integer denominator sequences and their counting functions.

Supported kinds:

* ``primes``      -- 2, 3, 5, 7, ...
* ``pk``          -- squarefree numbers with exactly k distinct prime factors
                     (k = 1 reduces to the primes)
* ``omega-k``     -- numbers with exactly k distinct prime factors, any
                     multiplicity (k = 1 gives the prime powers)
* ``nonprimes``   -- 1 together with the composite numbers: 1, 4, 6, 8, 9, ...
* ``ap``          -- the arithmetic progression a, a+q, a+2q, ...
* ``custom``      -- an explicit list of terms

Sieved kinds are generated with a segmented sieve, run in rounds: the
first covers [0, n], as b_n >= n, and each later one resumes where the last
stopped and reaches as far as the terms found so far put b_n. All terms
must fit in 64 bits. `_terms` is the one check of a given list of terms, so
custom specs and the exact and analytic layers accept the same lists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from bisect import bisect_right

import numpy as np

from .errors import InvalidSpec, Overflow

MAX_TERM = 2**63 - 1

_BLOCK = 1 << 20

# deterministic Miller-Rabin base set, valid for all n < 3.3e24; is_prime
# also trial-divides by these primes first
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

KIND_PRIMES = "primes"
KIND_PK = "pk"
KIND_OMEGA = "omega-k"
KIND_NONPRIMES = "nonprimes"
KIND_AP = "ap"
KIND_CUSTOM = "custom"

_KINDS = (KIND_PRIMES, KIND_PK, KIND_OMEGA, KIND_NONPRIMES, KIND_AP, KIND_CUSTOM)


@dataclass(frozen=True)
class SequenceSpec:
    """Immutable description of a denominator sequence."""

    kind: str
    k: int | None = None
    a: int | None = None
    q: int | None = None
    values: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise InvalidSpec(f"unknown sequence kind {self.kind!r}")
        if self.kind in (KIND_PK, KIND_OMEGA):
            if self.k is None or self.k < 1:
                raise InvalidSpec("k must be a positive integer")
        if self.kind == KIND_AP:
            if self.a is None or self.q is None or self.a < 1 or self.q < 1:
                raise InvalidSpec("arithmetic progression needs a >= 1 and q >= 1")
        if self.kind == KIND_CUSTOM:
            values = () if self.values is None else self.values
            object.__setattr__(self, "values", tuple(_terms(values).tolist()))

    # -- constructors ------------------------------------------------------

    @classmethod
    def primes(cls) -> "SequenceSpec":
        return cls(KIND_PRIMES)

    @classmethod
    def k_squarefree(cls, k: int) -> "SequenceSpec":
        """Squarefree numbers with exactly k distinct prime factors."""
        return cls(KIND_PK, k=k)

    @classmethod
    def k_distinct(cls, k: int) -> "SequenceSpec":
        """Numbers with exactly k distinct prime factors (any multiplicity)."""
        return cls(KIND_OMEGA, k=k)

    @classmethod
    def nonprimes(cls) -> "SequenceSpec":
        return cls(KIND_NONPRIMES)

    @classmethod
    def arithmetic(cls, a: int, q: int) -> "SequenceSpec":
        return cls(KIND_AP, a=a, q=q)

    @classmethod
    def custom(cls, values) -> "SequenceSpec":
        """An explicit list of terms, checked by `_terms` and kept as a
        tuple of Python ints; integral floats such as 2.0 pass."""
        return cls(KIND_CUSTOM, values=values)

    def label(self) -> str:
        if self.kind == KIND_PK:
            return f"pk(k={self.k})"
        if self.kind == KIND_OMEGA:
            return f"omega-k(k={self.k})"
        if self.kind == KIND_AP:
            return f"ap(a={self.a},q={self.q})"
        if self.kind == KIND_CUSTOM:
            return f"custom(n={len(self.values)})"
        return self.kind


@dataclass(frozen=True)
class SequenceTerms:
    """The first n terms of a sequence, as exact Python integers."""

    spec: SequenceSpec
    terms: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.terms)

    def prefix(self, m: int) -> "SequenceTerms":
        if m > len(self.terms):
            raise ValueError("prefix longer than the generated terms")
        return SequenceTerms(self.spec, self.terms[:m])


@dataclass(frozen=True)
class GrowthEnvelope:
    n: int
    ratio: float        # b_n / n
    exponent: float     # log(b_n / n) / log(n)


def _terms(seq) -> np.ndarray:
    """The terms of a SequenceTerms, an array or any iterable as an int64
    array, checked to be nonempty, integral, positive, strictly increasing
    and below 2^63: in numpy where numpy reads them as integers, else
    value by value, so no value is rounded through float64."""
    if isinstance(seq, SequenceTerms):
        seq = seq.terms
    if not isinstance(seq, np.ndarray):
        seq = list(seq)
    values = np.asarray(seq)
    if values.ndim == 1 and values.dtype.kind in "iu":
        if len(values) and values.max() > MAX_TERM:
            raise Overflow(f"term {values.max()} does not fit in 64 bits")
        terms = values.astype(np.int64, copy=False)
    else:
        values = seq.tolist() if isinstance(seq, np.ndarray) else seq
        terms = np.array([_integer(v) for v in values], dtype=np.int64)
    if not len(terms):
        raise InvalidSpec("need at least one term")
    if terms[0] < 1 or np.any(terms[1:] <= terms[:-1]):
        raise InvalidSpec("terms must be strictly increasing positive integers")
    return terms


def _integer(v) -> int:
    """v as an int, if it equals one (a string equals none) that fits in 64 bits."""
    try:
        i = int(v)
    except (TypeError, ValueError, OverflowError):
        i = None
    if i is None or i != v:
        raise InvalidSpec("custom terms must be integers")
    if not -MAX_TERM - 1 <= i <= MAX_TERM:
        raise Overflow(f"term {i} does not fit in 64 bits")
    return i


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for every 64-bit integer."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# -- segmented sieves ------------------------------------------------------


def _simple_sieve(limit: int) -> np.ndarray:
    """Primes up to `limit` inclusive, as an int64 array."""
    if limit < 2:
        return np.zeros(0, dtype=np.int64)
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return np.flatnonzero(flags).astype(np.int64)


def _iter_prime_masks(lo: int, hi: int):
    """Yield (start, mask) with mask[i] = is_prime(start + i), covering
    [lo, hi) in blocks of _BLOCK."""
    base_list = _simple_sieve(math.isqrt(max(hi - 1, 0))).tolist()
    for start in range(lo, hi, _BLOCK):
        size = min(_BLOCK, hi - start)
        mask = np.ones(size, dtype=bool)
        mask[: max(0, 2 - start)] = False
        for p in base_list:
            first = max(p * p, ((start + p - 1) // p) * p)
            if first < start + size:
                mask[first - start :: p] = False
        yield start, mask


def _iter_nonprime_masks(lo: int, hi: int):
    """Yield (start, mask) flagging 1 and the composites in [lo, hi)."""
    for start, mask in _iter_prime_masks(lo, hi):
        inv = ~mask
        if start == 0:
            inv[0] = False  # 0 is not a term; 1 is
        yield start, inv


def _iter_almost_masks(lo: int, hi: int, k: int, squarefree: bool):
    """Yield (start, mask) flagging the numbers in [lo, hi) with exactly k
    distinct prime factors (restricted to squarefree numbers if asked)."""
    base_list = _simple_sieve(math.isqrt(max(hi - 1, 0))).tolist()
    for start in range(lo, hi, _BLOCK):
        end = min(start + _BLOCK, hi)
        size = end - start
        omega = np.zeros(size, dtype=np.uint8)
        residual = np.arange(start, end, dtype=np.int64)
        sf = np.ones(size, dtype=bool) if squarefree else None
        for p in base_list:
            # clamp first multiples to the power itself so the 0 slot of the
            # very first block cannot pin the loop
            first = max(p, ((start + p - 1) // p) * p)
            if first >= end:
                continue
            omega[first - start :: p] += 1
            pe = p
            while True:
                fe = max(pe, ((start + pe - 1) // pe) * pe)
                if fe >= end:
                    break
                residual[fe - start :: pe] //= p
                pe *= p
            if squarefree:
                p2 = p * p
                f2 = max(p2, ((start + p2 - 1) // p2) * p2)
                if f2 < end:
                    sf[f2 - start :: p2] = False
        # what is left after removing every base prime power is 1 or a single
        # prime larger than sqrt(hi-1), so it adds at most one distinct factor
        omega += (residual > 1).astype(np.uint8)
        # 0 and 1 have no prime factor, and k >= 1
        mask = omega == k
        if squarefree:
            mask &= sf
        yield start, mask


def _sieve(spec: SequenceSpec):
    """For a sieved kind, masks(lo, hi) yielding the (start, mask) blocks
    that cover [lo, hi); None for the other kinds."""
    if spec.kind == KIND_PRIMES:
        return _iter_prime_masks
    if spec.kind in (KIND_PK, KIND_OMEGA):
        return lambda lo, hi: _iter_almost_masks(lo, hi, spec.k, spec.kind == KIND_PK)
    if spec.kind == KIND_NONPRIMES:
        return _iter_nonprime_masks
    return None


def _first_n(masks, n: int, start: int = 0) -> tuple[np.ndarray, int]:
    """(terms, end): every term flagged by masks in [start, end), at least
    n of them, end being the end of the block where the n-th was found, so
    a later call from end resumes where this one stopped. Sieved in rounds
    that each resume where the last one stopped. The n-th term from start
    is at least start + n - 1 (b_n >= n for every sieved kind), so the
    first round covers [start, start + n]. Each later round reaches a tenth
    past where the terms found so far put the n-th, their count taken to
    grow like x / log x as the primes' does, or twice as far as the last
    round while none is found. The reach stops at 2^63."""
    chunks, total, lo, hi = [], 0, start, start + n + 1
    while True:
        hi = min(hi, MAX_TERM + 1)
        for block, mask in masks(lo, hi):
            chunks.append(block + np.flatnonzero(mask))
            total += len(chunks[-1])
            if total >= n:
                return np.concatenate(chunks), block + len(mask)
        if hi > MAX_TERM:
            raise Overflow(f"fewer than {n} terms below 2^63")
        if total:
            # from start = 0 the n-th solves x / log x = (n / total) hi / log hi:
            # one step of x = est log x / log hi from x = est. Past start,
            # est takes the count found in [start, hi) as linear
            est = start + (hi - start) * n / total
            lo, hi = hi, int(1.1 * est * math.log(est) / math.log(hi))
        else:
            lo, hi = hi, 2 * hi


# -- public operations -----------------------------------------------------


def generate(spec: SequenceSpec, n: int) -> SequenceTerms:
    """First n terms of the sequence described by `spec`.

    Terms are exact Python ints, strictly increasing, and fit in 64 bits
    (Overflow otherwise).
    """
    return SequenceTerms(spec, tuple(terms_array(spec, n).tolist()))


def terms_array(spec: SequenceSpec, n: int) -> np.ndarray:
    """First n terms as an int64 array, skipping Python int materialization.

    `generate` wraps this; use it directly for bulk numerical work where
    n can reach millions.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    masks = _sieve(spec)
    if masks is not None:
        return _first_n(masks, n)[0][:n]
    if spec.kind == KIND_AP:
        last = spec.a + spec.q * (n - 1)
        if last > MAX_TERM:
            raise Overflow(f"term {last} does not fit in 64 bits")
        return spec.a + spec.q * np.arange(n, dtype=np.int64)
    if n > len(spec.values):
        raise InvalidSpec(f"custom sequence has {len(spec.values)} terms, {n} requested")
    return np.array(spec.values[:n], dtype=np.int64)


def count_up_to(spec: SequenceSpec, t: int) -> int:
    """Number of terms b with b <= t."""
    if t > MAX_TERM:
        raise Overflow("t does not fit in 64 bits")
    if t < 1:
        return 0
    masks = _sieve(spec)
    if masks is not None:
        return sum(int(mask.sum()) for _, mask in masks(0, t + 1))
    if spec.kind == KIND_AP:
        return 0 if t < spec.a else (t - spec.a) // spec.q + 1
    return bisect_right(spec.values, t)


def growth_envelope(terms: SequenceTerms) -> GrowthEnvelope:
    """Growth summary B = b_n / n and the exponent log(B)/log(n); needs n >= 2."""
    n = terms.n
    if n < 2:
        raise ValueError("growth envelope needs at least two terms")
    ratio = terms.terms[-1] / n
    return GrowthEnvelope(n=n, ratio=ratio, exponent=math.log(ratio) / math.log(n))
