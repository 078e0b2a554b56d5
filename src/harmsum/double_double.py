"""Double-double arithmetic on numpy arrays (Dekker 1971; Ogita, Rump &
Oishi, SIAM J. Sci. Comput. 26, 2005), in round-to-nearest with u = 2^-53:
error-free sums and products, squares, the inverse square and fourth power
of integer terms, and a pairwise total, which the analytic layer's tail
sums use for their dyadic blocks. Every value is positive and far from
overflow and underflow: the terms lie in [1, 2^63), so b^-4 >= 2^-252.
"""

from __future__ import annotations

import numpy as np


def _two_sum(a, b):
    """(s, e): s = fl(a + b) and s + e = a + b exactly (Knuth)."""
    s = a + b
    v = s - a
    return s, (a - (s - v)) + (b - v)


def _two_prod(a, b):
    """(p, e): p = fl(a b) and p + e = a b exactly (Dekker, Veltkamp's split)."""
    p = a * b
    c = 134217729.0 * a  # 2^27 + 1
    ah = c - (c - a)
    c = 134217729.0 * b
    bh = c - (c - b)
    al, bl = a - ah, b - bh
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _dd_square(h, l):
    """(h + l)^2 as a normalized double-double, for |l| <= 2.1u h: within
    14 u^2 relative (the omitted l^2 and two roundings). h^2 = p + e is
    Dekker's product with one split, as 2 (hh hl) is exact."""
    p = h * h
    c = 134217729.0 * h
    hh = c - (c - h)
    hl = h - hh
    e = ((hh * hh - p) + 2.0 * (hh * hl)) + hl * hl
    e += 2.0 * (h * l)
    s = p + e  # fast two-sum: |e| <= 5.2u p
    return s, e - (s - p)


def _inverse_powers(b: np.ndarray):
    """b^-2 and b^-4 as normalized double-doubles (hi, lo) for int64 terms
    b >= 1, within 35 u^2 and 76 u^2 relative.

    b = s + e exactly from its high and low 32 bits. With r = fl(1/s) and
    p + q = r s exactly, 1 - p is exact (p is within 2u of 1), so
    R = 1 - r b = (1 - p) - q - r e is computed within 4u^2 and r R within
    6u^2 r; as 1/b = r / (1 - R) = r (1 + R) + O(R^2) with |R| <= 2u,
    (r, r R) is within 10 u^2 of 1/b. A squaring doubles the relative error
    and adds 14 u^2 (6 u^2 once the input is normalized)."""
    s, e = _two_sum(
        (b >> 32).astype(np.float64) * 4294967296.0, (b & 0xFFFFFFFF).astype(np.float64)
    )
    r = 1.0 / s
    p, q = _two_prod(r, s)
    inv2 = _dd_square(r, r * (((1.0 - p) - q) - r * e))
    return inv2, _dd_square(*inv2)


def _dd_total(h, l):
    """The sum of nonnegative normalized double-doubles (h_i, l_i) by a
    pairwise tree. An addition rounds l_a + l_b and then its sum with the
    TwoSum error of h_a + h_b, erring by at most 3u^2 (1 + u) fl(h_a + h_b),
    so a level errs by 3.1 u^2 of the total and D levels by 3.1 D u^2."""
    while len(h) > 1:
        if len(h) % 2:
            h, l = np.append(h, 0.0), np.append(l, 0.0)
        s, e = _two_sum(h[::2], h[1::2])
        e += l[::2] + l[1::2]
        h = s + e  # fast two-sum: |e| <= 2.1u s
        l = e - (h - s)
    return h[0], l[0]
