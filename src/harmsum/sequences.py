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

Sieved kinds are generated with a segmented sieve whose limit starts at a
Landau-style estimate for the n-th k-almost-prime and doubles on shortfall.
All terms must fit in 64 bits.
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
            vals = self.values
            if not vals:
                raise InvalidSpec("custom sequence needs at least one term")
            prev = 0
            for v in vals:
                if not isinstance(v, int) or isinstance(v, bool):
                    raise InvalidSpec("custom terms must be integers")
                if v < 1 or v <= prev:
                    raise InvalidSpec("custom terms must be strictly increasing and >= 1")
                if v > MAX_TERM:
                    raise Overflow(f"term {v} does not fit in 64 bits")
                prev = v

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
        return cls(KIND_CUSTOM, values=tuple(int(v) for v in values))

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


def _iter_prime_masks(hi: int, block: int = _BLOCK):
    """Yield (lo, mask) with mask[i] = is_prime(lo + i), covering [0, hi)."""
    base = _simple_sieve(math.isqrt(max(hi - 1, 0)))
    base_list = [int(p) for p in base]
    for lo in range(0, hi, block):
        size = min(block, hi - lo)
        mask = np.ones(size, dtype=bool)
        if lo == 0:
            mask[: min(2, size)] = False
        for p in base_list:
            start = max(p * p, ((lo + p - 1) // p) * p)
            if start < lo + size:
                mask[start - lo :: p] = False
        yield lo, mask


def _iter_nonprime_masks(hi: int):
    """Yield (lo, mask) flagging 1 and the composites in [lo, lo+len)."""
    for lo, mask in _iter_prime_masks(hi):
        inv = ~mask
        if lo == 0:
            inv[0] = False  # 0 is not a term; 1 is
        yield lo, inv


def _iter_almost_masks(hi: int, k: int, squarefree: bool, block: int = _BLOCK):
    """Yield (lo, mask) flagging numbers in [lo, lo+len) with exactly k
    distinct prime factors (restricted to squarefree numbers if asked)."""
    base = _simple_sieve(math.isqrt(max(hi - 1, 0)))
    base_list = [int(p) for p in base]
    for lo in range(0, hi, block):
        size = min(block, hi - lo)
        end = lo + size
        omega = np.zeros(size, dtype=np.uint8)
        residual = np.arange(lo, end, dtype=np.int64)
        sf = np.ones(size, dtype=bool) if squarefree else None
        for p in base_list:
            # clamp first multiples to the power itself so the 0 slot of the
            # very first block cannot pin the loop
            first = max(p, ((lo + p - 1) // p) * p)
            if first >= end:
                continue
            omega[first - lo :: p] += 1
            pe = p
            while True:
                fe = max(pe, ((lo + pe - 1) // pe) * pe)
                if fe >= end:
                    break
                residual[fe - lo :: pe] //= p
                pe *= p
            if squarefree:
                p2 = p * p
                f2 = max(p2, ((lo + p2 - 1) // p2) * p2)
                if f2 < end:
                    sf[f2 - lo :: p2] = False
        # what is left after removing every base prime power is 1 or a single
        # prime larger than sqrt(hi-1), so it adds at most one distinct factor
        omega += (residual > 1).astype(np.uint8)
        mask = omega == k
        if squarefree:
            mask &= sf
        if lo == 0:
            mask[: min(2, size)] = False
        yield lo, mask


def _nth_prime_limit(n: int) -> int:
    if n < 6:
        return 15
    ln = math.log(n)
    return int(n * (ln + math.log(ln))) + 3


def _landau_limit(n: int, k: int) -> int:
    """Rough inverse of the Landau count t (loglog t)^(k-1) / ((k-1)! log t)."""
    if k == 1:
        return _nth_prime_limit(n)
    t = float(max(64, 4 * n))
    for _ in range(4):
        lt = math.log(t)
        llt = math.log(max(lt, 2.0))
        t = max(64.0, n * math.factorial(k - 1) * lt / llt ** (k - 1))
    return int(t) + 64


def _collect_first_n_array(mask_iter_factory, n: int, limit: int) -> np.ndarray:
    """Run a mask iterator with a doubling limit until n terms are found."""
    while True:
        if limit > MAX_TERM:
            raise Overflow("sieve limit beyond 64-bit terms")
        chunks: list[np.ndarray] = []
        total = 0
        for lo, mask in mask_iter_factory(limit):
            idx = np.flatnonzero(mask)
            if total + len(idx) >= n:
                chunks.append((lo + idx[: n - total]).astype(np.int64))
                return np.concatenate(chunks)
            if len(idx):
                chunks.append((lo + idx).astype(np.int64))
                total += len(idx)
        limit = min(limit * 2, MAX_TERM + 1)


def _sieve(spec: SequenceSpec):
    """(masks, first_limit) for a sieved kind, else None: masks(hi) yields
    the (lo, mask) blocks covering [0, hi), and first_limit(n) is where the
    search for the first n terms starts."""
    if spec.kind == KIND_PRIMES:
        return _iter_prime_masks, lambda n: _nth_prime_limit(n) + 1
    if spec.kind in (KIND_PK, KIND_OMEGA):
        squarefree = spec.kind == KIND_PK
        return (
            lambda hi: _iter_almost_masks(hi, spec.k, squarefree),
            lambda n: _landau_limit(n, spec.k),
        )
    if spec.kind == KIND_NONPRIMES:
        return _iter_nonprime_masks, lambda n: max(16, 2 * n)
    return None


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
    sieve = _sieve(spec)
    if sieve is not None:
        masks, first_limit = sieve
        return _collect_first_n_array(masks, n, first_limit(n))
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
    sieve = _sieve(spec)
    if sieve is not None:
        masks, _ = sieve
        return sum(int(mask.sum()) for _, mask in masks(t + 1))
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
