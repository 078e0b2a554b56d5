"""Exact search over signed reciprocal sums.

Every result is decided in integer arithmetic: with den = lcm of the terms
(times the target's denominator), each signed sum sum_i s_i / b_i maps to
an integer sum_i s_i * (den // b_i), so comparisons and differences are
exact and results come back as Fractions.

Sign vectors are encoded as integers: bit i set means the (i+1)-th term is
taken with +, clear means -. Trit vectors (coefficients in {-1, 0, +1})
are encoded in base 3: digit i is 0, 1 or 2 for a coefficient 0, +1 or -1
on the (i+1)-th term. Ties between equally good choices are broken toward
the smallest encoding, which makes every result reproducible.

`min_signed_sums` and `min_gaps` share one meet-in-the-middle engine, and
`min_signed_sum` and `min_gap` are the one-prefix case of each: the first
ceil(n/2) terms and the rest each give a sorted list of float64 half sums
alone, 2^(n/2) per side for signs and 3^(n/2) for trits, grown one term at
a time in place by merging sorted runs (Horowitz-Sahni), along the prefixes
of a sweep (`_sweep`). The right list leaves out its last two terms, whose
4 or 9 coefficient choices shift its queries target - (right sum); blocks
of those ascending queries are ranked in the left list by merging. For a
target of 0, c and -c have the same |sum|, so the left list keeps only the
vectors whose first nonzero entry is + (and the zero vector), and the
optima found are completed by their negations. The floats only filter:
the pairs within a proven rounding bound of the float optimum are
recovered from quarter lists and re-scored in exact integers. Every
result is then checked once more against `evaluate_signs`.
`enumerate_sums` walks all 2^n sums in exact integers. A cap on n, the
64-bit encodings and a memory estimate bound every search.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Iterable

import numpy as np

from .errors import CapExceeded, CertificateError, RangeUnreachable, ResourceLimit
from .sequences import SequenceSpec, SequenceTerms, _terms, count_up_to, generate

MINSUM_CAP = 48
GAP_CAP = 26
ENUM_CAP = 24


def _physical_memory_gib() -> float | None:
    """The machine's physical memory in GiB; None where the platform does
    not report it."""
    try:
        total = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        total = 0
    return total / 2**30 if total > 0 else None


PHYSICAL_GIB = _physical_memory_gib()  # no estimate above it runs, whatever the budget
MEMORY_GIB = PHYSICAL_GIB / 2 if PHYSICAL_GIB else 8.0  # default budget of every memory check

SIGNS = (-1, 1)  # coefficient of base-2 digit 0 and 1
TRITS = (0, 1, -1)  # coefficient of base-3 digit 0, 1 and 2

# Bytes per entry. A half holds its float64 sums alone, 8 per entry, in a
# buffer sized once per sweep, and grows in place: a merge adds one chunk of
# c = min(L, _CHUNK) entries, L the half's, and timsort's buffer (at most
# c / 2, not seen by tracemalloc), 12 c. The right half holds all but its
# last `_SHIFTED` terms; `_meet` adds those as shifts to one block of
# m <= min(R, _BLOCK) queries at a time (R right entries), and matching holds
# both halves and that block. `_insertion_points` ranks a block by merges
# with slices of at most w = max(m, _BLOCK / 4) left sums; the floor spares
# small searches many small merges (the `table3 --upto 22` sweep: 0.95 times
# a binary search per query, 1.12 without it). While it merges it holds the
# queries and their insertion points so far (16 per query) and, per merged
# value, the value and its argsort order (16), with timsort's buffer (8 per
# entry of the shorter run): at most 32 m + 16 w. Then the queries, their
# insertion points, two neighbour distances and the merges' reused buffer
# take 40 m + 8 w, no more, as w >= m. A sweep grows the left half alone
# (the right one is held only while the next prefix extends it), grows the
# right half beside the held left, then matches. With L left and R right
# entries at its longest prefix, it peaks at the largest of
# 8 L + 12 min(L, _CHUNK), 8 (L + R) + 12 min(R, _CHUNK) and
# 8 (L + R) + 32 m + 16 w + 448 k, k the blocks, one per shift and per block
# of right sums: each leaves two small arrays in `_meet`'s `kept` list, and
# joining them makes one more, about 430 B a block under tracemalloc.
# `_OBJECT_BYTES` adds the other Python objects (26 KB at most in the tests'
# traced sweeps). The recovery (`_near`) adds less than matching from
# n = 20 on, and prices its candidates.
_CHUNK_BYTES = 12
_KEPT_BYTES = 8
_QUERY_BYTES = 32
_SLICE_BYTES = 16
_OBJECT_BYTES = 3 * 2**15
_BLOCK_BYTES = 448
_BLOCK = 2**14  # queries per matching block in `_meet`
_CHUNK = 2**15  # entries per sorted chunk of `_merge`
# The right half's last terms that `_meet` applies as shifts of the queries
# instead of merging them: the right half held is base^_SHIFTED times
# smaller. With 1, 2 and 3 shifted terms (2 cores) the `table3 --upto 22`
# sweep took 32.7, 33.8 and 47.0 ms (in-process medians of 14),
# `gap --n 30` 1.28, 1.20 and 1.65 s.
_SHIFTED = 2
_GROUP = 5  # terms per exact lookup table in `_exact_sums`, at most 3^5 rows


def parse_exact(text: str) -> Fraction:
    """Parse '7/5', '0.25', '-3' and the like into an exact rational."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"cannot parse {text!r} as an exact rational") from exc


@dataclass(frozen=True)
class SignVector:
    """n signs in {-1,+1}, packed into an int (bit i set = term i+1 gets +)."""

    encoding: int
    n: int

    @property
    def signs(self) -> tuple[int, ...]:
        return tuple(1 if (self.encoding >> i) & 1 else -1 for i in range(self.n))

    def __str__(self) -> str:
        return "".join("+" if (self.encoding >> i) & 1 else "-" for i in range(self.n))


@dataclass(frozen=True)
class TritVector:
    """n coefficients in {-1,0,+1}."""

    trits: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.trits)

    def __str__(self) -> str:
        return "".join("0" if t == 0 else ("+" if t > 0 else "-") for t in self.trits)


@dataclass(frozen=True)
class SearchResult:
    """Outcome of a minimal signed sum search.

    value = |sum_i s_i/b_i - tau| at the reported witness, and
    value == Fraction(scaled_num, den) exactly.
    """

    value: Fraction
    scaled_num: int
    den: int
    witness: SignVector
    tau: Fraction

    @property
    def n(self) -> int:
        return self.witness.n


@dataclass(frozen=True)
class GapResult:
    """Minimal |sum_i e_i/b_i| over nonzero e in {-1,0,+1}^n.

    gap == Fraction(scaled_num, den) exactly; the witness evaluates to +gap.
    A zero gap means two distinct sign assignments share a sum.
    """

    gap: Fraction
    scaled_num: int
    den: int
    witness: TritVector

    @property
    def n(self) -> int:
        return self.witness.n


@dataclass(frozen=True)
class TwoStageResult:
    """Composite-then-prime refinement: `first` approximates tau on the
    composite terms, `second` approximates the overshoot on the primes."""

    first: SearchResult
    refined_target: Fraction
    second: SearchResult

    @property
    def residual(self) -> Fraction:
        return self.second.value


@dataclass(frozen=True)
class DecayRow:
    n: int
    scaled_num: int
    den: int
    value: Fraction
    log_value: float    # ln(value), -inf when the minimum is exactly 0
    ref_log_sq: float   # -ln(n)^2 reference curve
    ref_power: float    # -n^(1/(2k+1)) reference curve


@dataclass(frozen=True)
class DecayProfile:
    """Minimal signed sums along prefixes plus a log-linear trend.

    The fit regresses ln(value) on ln(n)^2 over rows with nonzero value;
    a clearly negative slope with high r_squared indicates the minima
    shrink at least like exp(-c ln^2 n) over the computed range.
    """

    rows: tuple[DecayRow, ...]
    slope: float
    intercept: float
    r_squared: float


def _as_terms(seq) -> tuple[int, ...]:
    """The checked terms of seq (see `sequences._terms`) as Python ints."""
    return tuple(_terms(seq).tolist())


def evaluate_signs(seq, signs) -> Fraction:
    """sum_i signs[i] / b_i, exact."""
    terms = _as_terms(seq)
    if isinstance(signs, SignVector):
        signs = signs.signs
    elif isinstance(signs, TritVector):
        signs = signs.trits
    signs = tuple(signs)
    if len(signs) != len(terms):
        raise ValueError("sign count does not match term count")
    if any(s not in (-1, 0, 1) for s in signs):
        raise ValueError("signs must be -1, 0 or +1")
    den = math.lcm(*terms)
    num = sum(s * (den // b) for s, b in zip(signs, terms))
    return Fraction(num, den)


def _check_cap(n: int, cap: float) -> None:
    if n > cap:
        raise CapExceeded(f"n={n} exceeds the cap of {cap}")


def _check_memory(est: int, memory_gib: float) -> None:
    """Refuse an estimated allocation of `est` bytes above the budget or
    above physical memory, where the platform reports it, and a NaN budget,
    which no comparison would catch."""
    if math.isnan(memory_gib):
        raise ValueError("the memory budget is NaN GiB")
    for limit, name in ((memory_gib, "budget"), (PHYSICAL_GIB, "of physical memory")):
        if limit is not None and est > limit * 2**30:
            gib = est / 2**30
            # a limit whose short form reads back as it, as a typed budget
            # does, prints in that form, any other with the digits gib needs;
            # gib with the fewest significant digits that show it above that
            given = float(f"{limit:g}") == limit
            p = next(
                (p for p in range(2, 17)
                 if float(f"{gib:.{p}g}") > (limit if given else float(f"{limit:.{p}g}"))), 17
            )
            shown = f"{limit:g}" if given else f"{limit:.{p}g}"
            raise ResourceLimit(f"estimated {gib:.{p}g} GiB exceeds the {shown} GiB {name}")


def _int_bytes(den: int) -> int:
    """Size of one Python int of den's magnitude plus the pointer to it."""
    return 44 + den.bit_length() // 8


def _expand(weights, digits, dtype=np.float64) -> np.ndarray:
    """sum_i c_i * weights[i] for every coefficient vector c over `digits`.

    The index is the encoding: digit i of the index, in base len(digits),
    selects c_i = digits[digit]. Floats are summed term by term, left to
    right, one rounding per term; dtype=object keeps exact Python ints.
    """
    base = len(digits)
    sums = np.zeros(base ** len(weights), dtype=dtype)
    size = 1
    for w in weights:
        block = sums[:size]
        # digit 0 goes last because it rewrites the block the others read
        for k in range(base - 1, -1, -1):
            if digits[k]:
                sums[k * size:(k + 1) * size] = block + digits[k] * w
        size *= base
    return sums


def _exact_sums(weights, digits, encs: np.ndarray) -> np.ndarray:
    """Exact sums at the given encodings (an object array of ints), added
    up from one lookup table per group of `_GROUP` terms."""
    base = len(digits)
    total = np.zeros(len(encs), dtype=object)
    for g in range(0, len(weights), _GROUP):
        table = _expand(weights[g:g + _GROUP], digits, object)
        total += table[encs // base**g % len(table)]
    return total


def _distinct(v: np.ndarray) -> np.ndarray:
    """np.unique(v), whose numpy.ma import costs 10 ms (numpy 2.4)."""
    v = np.sort(v)
    keep = np.ones(len(v), dtype=bool)
    np.not_equal(v[1:], v[:-1], out=keep[1:])
    return v[keep]


def _near(x, digits, centers, radius: float, each: int, memory_gib: float):
    """(i, encodings) of every coefficient vector over the terms x whose
    float sum fl(s1 + s2) lies within radius of centers[i], ordered by i:
    s1 and s2 are the `_expand` sums, indexed by encoding, of the first
    ceil(len(x) / 2) terms and of the rest. Each center is bracketed in the
    sorted s1 once per s2 by fl(center - s2 -+ 2 radius), whose roundings,
    u 2R at most, radius >= 14 u R covers (see `_meet`); s2 descends, so a
    center's edges ascend, as searchsorted runs fastest. The vectors found,
    `each` bytes apiece, are priced, with those before them, when found.
    """
    h = (len(x) + 1) // 2
    first, second = _expand(x[:h], digits), _expand(x[h:], digits)
    order, down = np.argsort(first, kind="stable"), np.argsort(second)[::-1]
    first, second = first[order], second[down]
    step = max(1, _BLOCK // 8 // len(second))
    found, encs, total = [], [], 0
    for c in range(0, len(centers), step):
        edge = np.subtract.outer(centers[c:c + step], second).ravel()
        lo = np.searchsorted(first, edge - 2 * radius)
        edge += 2 * radius
        counts = np.searchsorted(first, edge, "right")
        counts -= lo
        total += int(counts.sum())
        _check_memory(each * total, memory_gib)
        k = np.repeat(lo - np.cumsum(counts) + counts, counts)
        k += np.arange(len(k))
        i, j = np.divmod(np.repeat(np.arange(len(counts)), counts), len(second))
        i += c
        keep = np.abs(first[k] + second[j] - centers[i]) <= radius
        found.append(i[keep])
        encs.append(order[k[keep]] + down[j[keep]] * len(digits)**h)
    return np.concatenate(found), np.concatenate(encs)


class _Half:
    """One side of the search, grown a term at a time: the float sums of its
    coefficient vectors in ascending order, held in `pad` between a -inf
    and a +inf sentinel, and the number of terms so far, at the front of a
    buffer of `capacity` entries, but no encodings (see `_near`).

    Horowitz-Sahni: fl(v + c * x_i) is monotone in v, so adding term i to a
    sorted list gives one sorted run per digit, and `_merge` merges those
    runs stably, one cache-sized chunk at a time. Every sum takes the same
    rounded additions, in the same order, as in `_expand`, so the values are
    bit-identical to its, and a half grown in steps equals one grown at
    once. When `symmetric`, only the vectors whose first nonzero entry is +
    are kept, and the zero vector.

    The zero vector, if held (a trit half, or no term yet), is the first
    entry of value 0.0, by induction on the terms: digit 0 has coefficient
    0, so run 0 is the half's values in order (fl(v + 0) = v), with no 0.0
    before the zero vector, and the stable merge puts run 0 first on ties.
    """

    def __init__(self, digits, symmetric: bool, capacity: int):
        self.digits = digits
        self.symmetric = symmetric
        self.buf = np.empty(capacity + 2)
        self.buf[:3] = -np.inf, 0.0, np.inf
        self.size = 1
        self.terms = 0

    @property
    def pad(self) -> np.ndarray:
        return self.buf[:self.size + 2]

    @property
    def sums(self) -> np.ndarray:
        return self.buf[1:self.size + 1]

    def grow(self, x) -> None:
        """Add the terms x after those held."""
        base = len(self.digits)
        for w in x:
            m = self.size
            # when symmetric, a negative digit skips the zero vector, if held;
            # the two slices around it make one run
            skip = self.symmetric and (0 in self.digits or not self.terms)
            z = int(np.searchsorted(self.sums, 0.0))
            size = base * m - skip * sum(c < 0 for c in self.digits)
            # the held entries move to the tail, which the runs read while
            # the merge fills the front
            t = size - m
            np.copyto(self.buf[1 + t:1 + size], self.buf[1:1 + m])
            runs = []
            for c in self.digits:
                if skip and c < 0:
                    runs += [(t, t + z, c * w), (t + z + 1, t + m, c * w)]
                else:
                    runs.append((t, t + m, c * w))
            _merge(self.buf[1:], runs)
            self.buf[size + 1] = np.inf
            self.size = size
            self.terms += 1


def _merge(sums, runs) -> None:
    """Merge the runs (lo, hi, cw) stably into the front of `sums`: run r
    holds the ascending values fl(v + cw), v in sums[lo:hi], and the merged
    order is that of a stable argsort of the runs' values concatenated.

    The merge writes chunks of at most max(_CHUNK, len(runs)) entries
    straight into place. Entries are ordered by (value, run, index), the
    stable order. Let s = _CHUNK // len(runs), at least 1. A chunk ends
    before the pivot, the least of the run entries s past each run's head
    (none once every run has s or fewer left). Each run gives the chunk its
    entries below the pivot, within s of its head, and the pivot's run
    gives s, so a chunk takes from 1 to s entries of each run. One small
    stable sort orders it, as a sort of the whole runs would, bit for bit.

    The runs may lie where the merge writes, as `_Half.grow` places them: a
    chunk is read whole before it is written, and one whose writes would
    reach the first unread entry of a run is refused with a RuntimeError.
    """
    size = sum(hi - lo for lo, hi, _ in runs)
    step = max(1, _CHUNK // len(runs))
    vals = np.empty(min(size, step * len(runs)))
    heads, done = [lo for lo, _, _ in runs], 0
    while done < size:
        pivot, first = math.inf, len(runs)
        for r, (_, hi, cw) in enumerate(runs):
            if heads[r] + step < hi:
                value = float(sums[heads[r] + step]) + cw
                if value < pivot:
                    pivot, first = value, r
        m = 0
        for r, (_, hi, cw) in enumerate(runs):
            h = heads[r]
            window = vals[m:m + min(step, hi - h)]
            np.add(sums[h:h + len(window)], cw, out=window)
            heads[r] += int(np.searchsorted(window, pivot, "right" if r <= first else "left"))
            m += heads[r] - h
        if any(h < hi and done + m > h for h, (_, hi, _) in zip(heads, runs)):
            raise RuntimeError("a merge chunk would overwrite entries not yet merged")
        vals[:m].sort(kind="stable")
        sums[done:done + m] = vals[:m]
        done += m


def _queries(t: float, sums: np.ndarray, shifts, out=None) -> np.ndarray:
    """The queries fl(t - v) of the right sums `sums` under a shift: v adds
    to each sum the c_i * x_i of every shifted term in `shifts` (floats, or
    arrays beside `sums`) one at a time, in term order, so it is the float
    that a right half grown over those terms holds. They are written into
    `out` if given."""
    if not len(shifts):
        return np.subtract(t, sums, out=out)
    q = np.add(sums, shifts[0], out=out)
    for cw in shifts[1:]:
        q += cw
    return np.subtract(t, q, out=q)


def _insertion_points(a: np.ndarray, q: np.ndarray, buf=None) -> np.ndarray:
    """np.searchsorted(a, q) of the m ascending queries q, from stable merges.

    A piece of the queries, from the next unmatched q_j on, is merged with
    the slice of a that its insertion points span, from
    first = searchsorted(a, q_j): one stable argsort of the two sorted runs,
    which timsort merges in linear time. The queries come first, so a query
    ties before an equal sum of a, and its merged index minus its index in
    the piece counts the slice's sums below it: plus first, that is its
    insertion point. A piece takes the rest of the queries if their slice
    holds at most w = max(m, _BLOCK / 4) sums, else those below
    a[first + w], and at least one; so no slice holds more than w sums
    (that of a single query is empty), however far the queries spread.
    A piece's two runs are joined in `buf`, if given, of at least m + w
    entries.
    """
    m, pieces, j = len(q), [], 0
    width = max(m, _BLOCK // 4)
    while j < m:
        first, end = np.searchsorted(a, q[[j, -1]])
        k = m
        if end - first > width:
            k = j + max(1, int(np.searchsorted(q[j:], a[first + width])))
            end = np.searchsorted(a, q[k - 1])
        # the argsort order is freed before the positions are allocated,
        # which lets them reuse its memory
        both = None if buf is None else buf[:k - j + end - first]
        queried = np.argsort(np.concatenate((q[j:k], a[first:end]), out=both), kind="stable") < k - j
        pos = np.flatnonzero(queried)
        del queried
        pos -= np.arange(-first, k - j - first)
        pieces.append(pos)
        j = k
    return pieces[0] if len(pieces) == 1 else np.concatenate(pieces)


def _negated(encs: np.ndarray, digits, n: int) -> np.ndarray:
    """The encodings of -c for the given encodings of c, over n entries."""
    base = len(digits)
    if base == 2:
        return encs ^ ((1 << n) - 1)
    flip = np.array([digits.index(-c) for c in digits])
    out = np.zeros_like(encs)
    for i in range(n):
        out += flip[encs // base**i % base] * base**i
    return out


def _entries(n: int, base: int, symmetric: bool) -> tuple[int, int]:
    """The entries of the left and right halves of a prefix of n terms, the
    right one without its shifted terms."""
    half = (n + 1) // 2
    left = (base**half + 1) // 2 if symmetric else base**half
    return left, base ** max(0, n - half - _SHIFTED)


def _price(n: int, digits, symmetric: bool) -> int:
    """Bytes of a sweep whose longest prefix is n: the largest of its three
    phases at n, as the memory model above sets out. A prefix whose full
    encodings would not fit int64 is refused."""
    base = len(digits)
    if base**n > 2**63:
        raise CapExceeded(f"n={n} does not fit the 64-bit encodings")
    left, right = _entries(n, base, symmetric)
    block = min(right, _BLOCK)
    width = min(left, max(block, _BLOCK // 4))
    blocks = base ** min(_SHIFTED, n - (n + 1) // 2) * -(-right // _BLOCK)
    est = max(
        _KEPT_BYTES * left + _CHUNK_BYTES * min(left, _CHUNK),
        _KEPT_BYTES * (left + right) + _CHUNK_BYTES * min(right, _CHUNK),
        _KEPT_BYTES * (left + right) + _QUERY_BYTES * block + _SLICE_BYTES * width
        + _BLOCK_BYTES * blocks,
    )
    return est + _OBJECT_BYTES


def _sweep(terms, ns, digits, tau: Fraction, cap: float, memory_gib: float, *, nonzero=False):
    """For each n of the ascending prefix lengths ns, yield (n, den,
    residuals, encodings): den = lcm(b_1..b_n, denominator of tau), and the
    optima of |sum_{i<=n} c_i * (den // b_i) - tau * den| by `_meet`.

    The halves grow along ns. The left half of n is its first ceil(n/2)
    terms, so it extends the left half of every shorter prefix. The right
    half of n holds the rest but the last `_SHIFTED` terms, which `_meet`
    applies as shifts; that of n = 2L is the right half of n = 2L - 1 plus
    one term, and is held only while the next n extends it. Every prefix is
    checked against the cap and priced before any half is built.
    """
    if not ns:
        return
    # For target 0, c and -c have the same |sum|. So the left half keeps
    # only the vectors that are 0 or whose first nonzero entry is +; every
    # other c has such a -c, so the optima S found on that side give every
    # optimum as S and -S.
    symmetric = tau == 0
    for m in ns:
        _check_cap(m, cap)
    for m in ns:
        _check_memory(_price(m, digits, symmetric), memory_gib)
    # The right half of an odd n = 2L + 1 is built again from scratch, as its
    # first term moved to the left half. Halves of interleaved terms would
    # only grow, but their encodings would not follow term order, which the
    # tie rules and witnesses need.
    x = [1 / b for b in terms]
    most_left, most_right = _entries(ns[-1], len(digits), symmetric)
    left, right = _Half(digits, symmetric, most_left), None
    for i, n in enumerate(ns):
        half = (n + 1) // 2
        left.grow(x[left.terms:half])
        if right is None:
            right = _Half(digits, False, most_right)
        right.grow(x[half + right.terms:max(half, n - _SHIFTED)])
        den = math.lcm(math.lcm(*terms[:n]), tau.denominator)
        target = tau.numerator * (den // tau.denominator)
        yield n, den, *_meet(left, right, terms[:n], target, den, memory_gib, nonzero=nonzero)
        if i + 1 == len(ns) or (ns[i + 1] + 1) // 2 != half:
            right = None


def _meet(
    left: _Half, right: _Half, terms, target: int, den: int, memory_gib: float, *, nonzero=False
):
    """Every exact optimum of |sum_i c_i * (den // b_i) - target| over the
    coefficient vectors c with entries in the halves' digits, the first
    `left.terms` entries from `left`, the next `right.terms` from `right`
    and the rest, the shifted terms, from every choice of digits, leaving out
    c = 0 when `nonzero` (which needs target 0, and 0 as digit 0 so that
    c = 0 is encoding 0). With a `symmetric` left half, whose target must
    be 0, every optimum S found is joined by -S. The halves hold float sums
    alone: the vectors of the pairs near the float optimum are recovered
    from quarter lists (`_near`) and re-scored in exact integers.

    Returns (residuals, encodings): an object array of the exact signed
    residuals sum_i c_i * (den // b_i) - target, all of the optimal size,
    and an int64 array of the matching full encodings, in no set order and
    possibly repeated.
    """
    n = len(terms)
    half = left.terms
    digits = left.digits
    base = len(digits)
    weights = [den // b for b in terms]

    # The float filter. x_i = fl(1/b_i) and t = fl(tau') are correctly
    # rounded (int / int true division), where tau' = target / den clamped to
    # the reachable range [-r, r], r = sum_i 1/b_i: past it every distance
    # shifts by one constant, so the optima stay, and float() cannot overflow.
    # A pair (k, j) is scored as |fl(a_k - q_j)|, with a_k and b_j the half
    # sums of `_expand` (`_Half` computes them identically, and `_queries`
    # adds the shifted terms to the right sums as `_Half.grow` would) and
    # q_j = fl(t - b_j). Let R = r + |tau'| and u = 2^-53. The exact value of
    # every intermediate (a partial half sum, q_j, a_k - q_j) is at most R in
    # size, so while the error built up stays below R each rounded add errs
    # by at most u * 2R. One pair meets at most n + 2 rounded adds (n
    # expanding, one for q_j, one for the distance), and its inputs carry at
    # most sum_i u/b_i + u|tau'| = u R, plus (n + 1) * 2^-1075 should a 1/b_i
    # underflow. So a scored distance is within
    # E = (2n + 5) u R + (n + 1) 2^-1075 of the exact one. Let d be the least
    # scored distance over the searched pairs, reached by a pair p. The
    # searched pairs hold an exact optimum o (with target 0, o or -o), with
    # exact distance D_o <= D_p <= d + E, so it scores at most
    # D_o + E <= d + 2E: every exact optimum among the searched pairs lies in
    # the window d + 2E. `err` doubles E, which covers the rounding in
    # computing R from floats and in forming the window edge d + 2 * err.
    reach = sum(weights)
    t = max(-reach, min(target, reach)) / den
    x = [1 / b for b in terms]
    err = 2 * ((2 * n + 5) * 2.0**-53 * (math.fsum(x) + abs(t)) + (n + 1) * 2.0**-1074)

    pad, a, b = left.pad, left.sums, right.sums
    # The terms after both halves enter as shifts. Each of their coefficient
    # vectors adds c_i * x_i to every right sum, one term at a time in term
    # order, as `_Half.grow` would add those terms, so each shifted right sum
    # is the float the fully grown right half holds, and each shift keeps
    # the right sums sorted. Shift s adds the row shifts[s] to the right sums
    # and codes[s] to their encodings; shift 0 takes digit 0 on every term.
    tail = x[half + right.terms:]
    choice = np.array(list(product(range(base), repeat=len(tail))), dtype=np.int64)
    choice = choice.reshape(base ** len(tail), len(tail))
    shifts = np.array(digits, dtype=float)[choice] * tail
    codes = choice @ (base ** np.arange(right.terms, right.terms + len(tail), dtype=np.int64))
    # query j of a shift is q_j = fl(t - v), v the shifted b[last - j]:
    # fl(t - v) falls as v rises, so the right sums read backwards give
    # ascending queries, each block of them one sorted run to merge with a.
    # Query j of shift s is number s * (last + 1) + j of all queries.
    last = len(b) - 1
    if nonzero:
        # the zero vector, the left's zero with the right's zero under the
        # zero shift, is left out: that query is q = t = 0 and the left zero
        # sums to 0, so its best other partner is a neighbour of the left
        # zero in a. Each half's zero is its first entry of value 0.0 (see
        # `_Half`)
        k0, j0 = int(np.searchsorted(a, 0.0)), last - int(np.searchsorted(b, 0.0))
        zero = min(abs(pad[k0]), abs(pad[k0 + 2]))

    # The queries are matched in blocks, which stay in cache. Each block
    # keeps its queries within the running limit, the least distance so far
    # plus 2 * err; that limit only shrinks, so the final one, d + 2 * err,
    # is at most every block's, and the queries within it are all kept.
    # Every block reuses one buffer for its queries and one for the runs its
    # merges join: allocated afresh, they were faulted in again per block,
    # and the `table1 --upto 40` sweep took 11% longer in fresh processes.
    limit, kept = np.inf, []
    room = min(last + 1, _BLOCK)
    qbuf, joined = np.empty(room), np.empty(room + max(room, _BLOCK // 4))
    for s, lo in product(range(len(shifts)), range(0, last + 1, _BLOCK)):
        right_sums = b[last - lo::-1][:_BLOCK]
        q = _queries(t, right_sums, shifts[s], qbuf[:len(right_sums)])
        # fl(a_k - q_j) is monotone in a_k, so the best a_k for q_j sits on
        # one side or the other of q_j's insertion point pos: at
        # a[pos - 1] = pad[pos] < q_j or at a[pos] = pad[pos + 1] >= q_j.
        # Those signs are known, and fl(q - a) = -fl(a - q), so the two
        # distances need no abs.
        pos = _insertion_points(a, q, joined)
        near = pad[pos]
        np.subtract(q, near, out=near)
        far = pad[1:][pos]
        del pos
        far -= q
        np.minimum(near, far, out=near)
        del far, q
        if nonzero and s == 0 and lo <= j0 < lo + len(near):
            near[j0 - lo] = zero
        limit = min(limit, near.min() + 2 * err)
        js = np.flatnonzero(near <= limit)
        kept.append((js + (s * (last + 1) + lo), near[js]))
        del near
    js = np.concatenate([j[d <= limit] for j, d in kept])
    del kept, qbuf, joined

    # The halves hold no encodings, so the kept queries' vectors are
    # recovered from quarter lists (`_near`), once per shift and right sum.
    # A half sum and the sum of its two quarter sums add the same floats, in
    # at most 2 half + 1 rounded adds of u 2R each, so they differ by at
    # most (2n + 4) u R <= E. So the right vectors within err of b_j hold
    # those of query j, and a pair scoring |fl(a_k - q_j)| <= limit, with
    # |a_k - q_j| <= limit / (1 - u) and limit <= 2R + 2 err, has a left
    # quarter sum within limit + E + 3 u limit <= limit + err of q_j, as
    # E >= 7 u R. So the pairs recovered hold every pair scoring within
    # limit, and with them every exact optimum searched. Any other pair is a
    # vector searched or, beside a symmetric left half (target 0), the
    # negation of one, of the same |residual|, so none scores below them.
    sj, rj = np.divmod(js, last + 1)
    sj, rj = np.divmod(_distinct(sj * (last + 1) + np.searchsorted(b, b[last - rj])), last + 1)
    each = 48 + 4 * _int_bytes(den)
    ri, kb = _near(x[half:half + right.terms], digits, b[rj], err, each, memory_gib)
    q = _queries(t, b[rj[ri]], shifts[sj[ri]].T)
    li, ka = _near(x[:half], digits, q, limit + err, each, memory_gib)
    encs = _distinct(ka + (kb + codes[sj[ri]])[li] * base**half)
    if nonzero:
        encs = encs[encs != 0]

    res = _exact_sums(weights, digits, encs) - target
    size = np.abs(res)
    opt = size == size.min()
    res, encs = res[opt], encs[opt]
    if left.symmetric:
        res = np.concatenate((res, -res))
        encs = np.concatenate((encs, _negated(encs, digits, n)))
    return res, encs


def _prefix_lengths(ns, count: int) -> list[int]:
    """ns as a list of ints, each checked to lie in 1..count."""
    ns = [int(m) for m in ns]
    if any(m < 1 or m > count for m in ns):
        raise ValueError("prefix lengths out of range")
    return ns


def min_signed_sums(
    seq,
    ns: Iterable[int],
    tau=0,
    *,
    cap: float = MINSUM_CAP,
    memory_gib: float = MEMORY_GIB,
) -> list[SearchResult]:
    """`min_signed_sum` of every prefix of seq whose length is in ns, one
    result per entry of ns, in its order.

    One sweep over the ascending lengths serves them all: the sorted halves
    of each prefix grow into those of the next. Every length is checked
    against the cap (math.inf lifts it) and priced before any search.
    """
    terms = _as_terms(seq)
    ns = _prefix_lengths(ns, len(terms))
    tau = Fraction(tau)
    found = {}
    for n, den, res, encs in _sweep(terms, sorted(set(ns)), SIGNS, tau, cap, memory_gib):
        best = abs(res[0])
        witness = SignVector(int(encs.min()), n)
        value = Fraction(best, den)
        if abs(evaluate_signs(terms[:n], witness) - tau) != value:
            raise CertificateError(f"witness {witness} does not reach the minimum {value}")
        found[n] = SearchResult(value=value, scaled_num=best, den=den, witness=witness, tau=tau)
    return [found[m] for m in ns]


def min_signed_sum(
    seq,
    tau=0,
    *,
    cap: float = MINSUM_CAP,
    memory_gib: float = MEMORY_GIB,
) -> SearchResult:
    """Minimize |sum_i s_i/b_i - tau| over all 2^n sign choices, exactly.

    Meet in the middle: the first ceil(n/2) terms and the rest are expanded
    separately into sorted lists and matched by merging them, with floats
    as a filter and exact integers deciding. Among optimal sign vectors the
    one with the smallest encoding is returned.
    """
    terms = _as_terms(seq)
    return min_signed_sums(terms, [len(terms)], tau, cap=cap, memory_gib=memory_gib)[0]


def _scaled_sums(terms: tuple[int, ...], memory_gib: float) -> tuple[int, list[int]]:
    den = math.lcm(*terms)
    _check_memory(2 ** len(terms) * (_int_bytes(den) + 40), memory_gib)
    return den, _expand([den // b for b in terms], SIGNS, object).tolist()


def enumerate_sums(
    seq, *, cap: float = ENUM_CAP, memory_gib: float = MEMORY_GIB
) -> tuple[int, list[tuple[int, SignVector]]]:
    """All 2^n signed sums, scaled by den = lcm(terms).

    Returns (den, rows) where rows hold (scaled sum, witness) for every
    sign vector, sorted by sum and by encoding on ties; multiplicity kept.
    """
    terms = _as_terms(seq)
    n = len(terms)
    _check_cap(n, cap)
    den, sums = _scaled_sums(terms, memory_gib)
    order = sorted(range(len(sums)), key=sums.__getitem__)
    return den, [(sums[enc], SignVector(enc, n)) for enc in order]


def min_gaps(
    seq,
    ns: Iterable[int],
    *,
    cap: float = GAP_CAP,
    memory_gib: float = MEMORY_GIB,
) -> list[GapResult]:
    """`min_gap` of every prefix of seq whose length is in ns, one result
    per entry of ns, in its order, from one sweep as in `min_signed_sums`."""
    terms = _as_terms(seq)
    ns = _prefix_lengths(ns, len(terms))
    found = {}
    sweep = _sweep(terms, sorted(set(ns)), TRITS, Fraction(0), cap, memory_gib, nonzero=True)
    for n, den, res, encs in sweep:
        best = abs(res[0])
        # the optima come as pairs e, -e, so those with a sum >= 0 are all of
        # them, oriented (a zero sum keeps both)
        code = int(encs[res >= 0].min())
        witness = TritVector(tuple(TRITS[code // 3**i % 3] for i in range(n)))
        gap = Fraction(best, den)
        if not any(witness.trits) or evaluate_signs(terms[:n], witness) != gap:
            raise CertificateError(f"witness {witness} does not evaluate to the gap {gap}")
        found[n] = GapResult(gap=gap, scaled_num=best, den=den, witness=witness)
    return [found[m] for m in ns]


def min_gap(
    seq,
    *,
    cap: float = GAP_CAP,
    memory_gib: float = MEMORY_GIB,
) -> GapResult:
    """Smallest |sum_i e_i/b_i| over nonzero e in {-1,0,+1}^n.

    Meets in the middle over trit vectors, 3^ceil(n/2) half sums on each
    side, of which the left keeps one of each pair e, -e. The witness:
    orient every optimal e so that its sum is >= 0 (a zero sum keeps both e
    and -e), then take the smallest base-3 encoding.
    """
    terms = _as_terms(seq)
    return min_gaps(terms, [len(terms)], cap=cap, memory_gib=memory_gib)[0]


def two_stage_approx(
    composite_seq,
    prime_seq,
    tau=0,
    *,
    cap: float = MINSUM_CAP,
    memory_gib: float = MEMORY_GIB,
) -> TwoStageResult:
    """Approximate tau on the composite terms, then chase the overshoot on
    the primes: the second stage targets (first stage sum) - tau.

    The final approximation is sum s/c - sum o/p with first-stage signs s
    and second-stage signs o, and |that - tau| = residual = second.value.
    Requires |tau| <= sum 1/c so the first stage can bracket the target;
    the refined target then always lands in [-1, 1].
    """
    comp = _as_terms(composite_seq)
    tau = Fraction(tau)
    reach = sum(Fraction(1, c) for c in comp)
    if abs(tau) > reach:
        raise RangeUnreachable(
            f"|tau| = {abs(tau)} exceeds the first-stage range {reach}"
        )
    first = min_signed_sum(comp, tau, cap=cap, memory_gib=memory_gib)
    achieved = evaluate_signs(comp, first.witness)
    refined = achieved - tau
    if abs(refined) > 1:
        raise CertificateError(f"refined target {refined} lies outside [-1, 1]")
    primes = tuple(prime_seq.terms if isinstance(prime_seq, SequenceTerms) else prime_seq)
    if primes:
        second = min_signed_sum(primes, refined, cap=cap, memory_gib=memory_gib)
    else:
        # no second stage available; the residual is the refined target itself
        second = SearchResult(
            value=abs(refined),
            scaled_num=abs(refined.numerator),
            den=refined.denominator,
            witness=SignVector(0, 0),
            tau=refined,
        )
    return TwoStageResult(first=first, refined_target=refined, second=second)


def two_stage_for_n(
    n: int,
    tau=0,
    *,
    cap: float = MINSUM_CAP,
    memory_gib: float = MEMORY_GIB,
) -> TwoStageResult:
    """Two-stage approximation over {1..n}: the n - pi(n) nonprime terms
    carry the first stage, the pi(n) primes the second."""
    if n < 1:
        raise ValueError("n must be >= 1")
    n_primes = count_up_to(SequenceSpec.primes(), n)
    comp = generate(SequenceSpec.nonprimes(), n - n_primes)
    primes = (
        generate(SequenceSpec.primes(), n_primes) if n_primes else SequenceTerms(SequenceSpec.primes(), ())
    )
    return two_stage_approx(comp, primes, tau, cap=cap, memory_gib=memory_gib)


def decay_profile(
    seq,
    ns: Iterable[int] | None = None,
    tau=0,
    *,
    k: int | None = None,
    cap: float = MINSUM_CAP,
    memory_gib: float = MEMORY_GIB,
) -> DecayProfile:
    """Minimal signed sums along prefixes, with reference decay curves.

    Each row carries ln(value) next to -ln(n)^2 and -n^(1/(2k+1)) for
    plotting; k defaults to the sequence's prime-factor count when the
    input carries one, else 1. No asymptotic claim is made, the profile
    just reports the finite-range trend.
    """
    if k is None:
        k = getattr(getattr(seq, "spec", None), "k", None) or 1
    terms = _as_terms(seq)
    if ns is None:
        ns = range(1, len(terms) + 1)
    rows = [
        DecayRow(
            n=res.n,
            scaled_num=res.scaled_num,
            den=res.den,
            value=res.value,
            log_value=math.log(res.value) if res.value > 0 else float("-inf"),
            ref_log_sq=-math.log(res.n) ** 2,
            ref_power=-float(res.n) ** (1.0 / (2 * k + 1)),
        )
        for res in min_signed_sums(terms, ns, tau, cap=cap, memory_gib=memory_gib)
    ]
    xs = [math.log(r.n) ** 2 for r in rows if r.value > 0]
    ys = [r.log_value for r in rows if r.value > 0]
    if len(xs) < 2:
        raise ValueError("need at least two nonzero values to fit a trend")
    slope, intercept = np.polyfit(xs, ys, 1)
    fitted = np.polyval([slope, intercept], xs)
    ss_res = float(np.sum((np.array(ys) - fitted) ** 2))
    ss_tot = float(np.sum((np.array(ys) - np.mean(ys)) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return DecayProfile(
        rows=tuple(rows), slope=float(slope), intercept=float(intercept), r_squared=r2
    )
