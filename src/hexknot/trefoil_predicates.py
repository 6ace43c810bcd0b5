"""Closed-form sign conditions for hexagonal trefoils.

For a hexagon given in diagonal/angle coordinates, each trefoil class
forces the signs of nine trigonometric functions of the coordinates
(three per pierced disk: a crossing-cone condition pair and one
plane-separation condition). The sign conditions are necessary and are
not assumed sufficient; estimators report the gap between predicate
hits and geometric classifications instead of assuming either way.
Coarser window filters on the angles and diagonals accompany them; see
filter_clauses for how far each can be trusted.

All predicates evaluate strict inequalities with zero tolerance: the
boundary sets have measure zero under the sampling distribution.
"""

from __future__ import annotations

from functools import reduce
from operator import and_

import numpy as np

from .action_angle import TWO_PI, _fold_terms, interior_coordinates
from .invariants import TREFOIL_PAIRS

_DISTINCT_TOL = 1e-9
FILTER_CLAUSES = ("curl_window", "angle_sums", "distinct_diagonals",
                  "dominant_diagonal_window")


def _triple(i, dl, e, dd, r, c, s):
    """(f, g, h) of triple i (0-based) from _fold_terms. With (j, k) =
    (i+1, i+2) mod 3, f is antisymmetric under swapping j and k, and h
    is g with j and k swapped; r, c and s are read at j and k only."""
    j, k = (i + 1) % 3, (i + 2) % 3

    def f_half(j, k):
        return dl[j] * r[j] * s[j] * (dl[k] * dd - e[j] * r[k] * c[k])

    def g(j, k):
        return (r[j] * (e[i] / (2.0 * dl[j] * dl[k]) * c[j] * s[k] + s[j] * c[k])
                - dd * s[k] / (2.0 * dl[k]))

    return f_half(j, k) - f_half(k, j), g(j, k), g(k, j)


def nine_functions(diagonals, angles):
    """The nine sign functions as the tuple (f1, g1, h1, f2, g2, h2, f3,
    g3, h3); broadcasts over leading axes.

    Index i pairs the two angle arguments it depends on: 1 -> (t2, t3),
    2 -> (t3, t1), 3 -> (t1, t2). Within each triple, f is antisymmetric
    under swapping its two (d, theta) argument pairs and g/h exchange
    under the same swap.
    """
    terms = _fold_terms(*interior_coordinates(diagonals, angles))
    return tuple(value for i in range(3) for value in _triple(i, *terms))


def _predicate_coordinates(diagonals, angles):
    """interior_coordinates, and ValueError unless every angle lies in [0, 2*pi)."""
    d, th = interior_coordinates(diagonals, angles)
    if not np.all((th >= 0.0) & (th < TWO_PI)):
        raise ValueError("angles must lie in [0, 2*pi)")
    return d, th


def class_masks(diagonals, angles):
    """Predicate masks for all four trefoil classes at once.

    The mask of class (chirality, curl) is a necessary condition for
    that class: every angle strictly inside the curl's half of the
    circle, (0, pi) for positive curl and (pi, 2*pi) for negative, the
    three f_i strictly of the chirality's sign, and the six g_i, h_i
    strictly of the curl's sign. Every term of the nine functions has
    one sine factor, so they are odd under theta -> 2*pi - theta, which
    flips chirality and curl: one evaluation covers both curls.

    The rule implies the angle-sum window, so nine_functions runs only
    on the lanes inside it (1/16 of uniform lanes): curl +1 where every
    angle is positive and every pairwise sum below pi, curl -1 where
    every pairwise sum is above 3*pi. Proof for triple i, (j, k) =
    (i+1, i+2) mod 3, theta_j, theta_k in (0, pi) and cos(a) =
    e_i / (2 d_j d_k) in (-1, 1): g_i = r_j A - dd s_k / (2 d_k) and
    h_i = r_k B - dd s_j / (2 d_j), with A = cos(a) c_j s_k + s_j c_k
    and B = cos(a) c_k s_j + s_k c_j. As r, s > 0 and dd >= 0, g_i > 0
    and h_i > 0 force A, B > 0, and A + B = (1 + cos(a))
    sin(theta_j + theta_k), so theta_j + theta_k < pi; the mirror puts a
    curl -1 hit's sums above 3*pi. A window lane is in class (sign f1,
    curl) if every f has sign f1 and every g and h the curl's sign.
    In floats, for angles in [0, 2*pi), fl(a + b) < pi with b > 0 forces
    a < pi and fl(a + b) > fl(3 pi) with b < 2*pi forces a > pi: the masks
    are a subset of the nine-sign rule's, equal unless rounding gives a g_i
    or h_i the curl's sign against its exact value, both of whose terms are
    then within rounding of zero (a flat central triangle, dd = 0).

    Returns a dict KnotClass -> bool array. Raises ValueError unless
    every diagonal triple is interior and every angle lies in [0, 2*pi),
    the samplers' range (wrap_angles reduces others).
    """
    d, th = _predicate_coordinates(diagonals, angles)
    shape = th.shape[:-1]
    d, th = d.reshape(-1, 3), th.reshape(-1, 3)
    sums = [th[:, i] + th[:, (i + 1) % 3] for i in range(3)]
    low = reduce(and_, [t > 0.0 for t in th.T] + [x < np.pi for x in sums])
    idx = np.flatnonzero(low | reduce(and_, (x > 3.0 * np.pi for x in sums)))
    curl = np.where(low[idx], 1.0, -1.0)
    nf = nine_functions(d[idx], th[idx])
    chirality = np.sign(nf[0])  # 0 where f1 = 0, a pair no class has
    hit = reduce(and_, (s * v > 0.0 for s, v in zip((chirality, curl, curl) * 3, nf)))
    masks = np.zeros((len(TREFOIL_PAIRS), len(th)), dtype=bool)
    for mask, (chi, curl_sign) in zip(masks, TREFOIL_PAIRS.values()):
        mask[idx] = hit & (chirality == chi) & (curl == curl_sign)
    return {cls: mask.reshape(shape) for cls, mask in zip(TREFOIL_PAIRS, masks)}


def filter_clauses(diagonals, angles):
    """The four window-filter clauses for both curl signs.

    Returns {+1: clauses, -1: clauses}, each a dict from the names in
    FILTER_CLAUSES to bool arrays; no clause depends on chirality:

    - curl_window: all angles on the curl side of pi;
    - angle_sums: pairwise angle sums on the curl side;
    - distinct_diagonals: no two diagonals within 1e-9;
    - dominant_diagonal_window: windows keyed to the largest diagonal.

    The first three are necessary conditions for a trefoil of that curl;
    a class_masks hit passes the first two (for curl -1, up to rounding).
    dominant_diagonal_window is the tighter window; a rare fraction of
    genuine trefoils (measured: 32 of 1,398 in 10^7 oracle samples at
    seed 9, about 3.2 per 10^6 samples) falls outside it, so treat a
    False there as a strong but not airtight veto.

    Angles are mirrored for the negative-curl case so every window is
    stated for positive curl; the diagonal-only work is done once for
    both signs. Raises ValueError unless every diagonal triple is
    interior and every angle lies in [0, 2*pi).
    """
    d, th = _predicate_coordinates(diagonals, angles)
    d1, d2, d3 = d[..., 0], d[..., 1], d[..., 2]
    distinct = ((np.abs(d1 - d2) > _DISTINCT_TOL) & (np.abs(d2 - d3) > _DISTINCT_TOL)
                & (np.abs(d3 - d1) > _DISTINCT_TOL))
    big1 = (d1 >= d2) & (d1 >= d3)  # the largest diagonal, the first on ties as np.argmax
    big2 = ~big1 & (d2 >= d3)
    big3 = ~(big1 | big2)
    q1, q2, q3 = d1 * d1, d2 * d2, d3 * d3
    big_sq = np.where(big1, q1, np.where(big2, q2, q3))
    big_lo = np.where(big_sq > q1 + q2 + q3 - big_sq, 0.5 * np.pi, 0.0)  # obtuse

    clauses = {}
    for curl_sign, t in ((1, th), (-1, TWO_PI - th)):
        t1, t2, t3 = t[..., 0], t[..., 1], t[..., 2]
        angle_sums = (t1 + t2 < np.pi) & (t1 + t3 < np.pi) & (t2 + t3 < np.pi)
        small = (t > 0.0) & (t < 0.5 * np.pi)
        others_small = (big1 | small[..., 0]) & (big2 | small[..., 1]) & (big3 | small[..., 2])
        t_big = np.where(big1, t1, np.where(big2, t2, t3))
        window = others_small & (t_big > big_lo) & (t_big < np.pi)
        curl_window = reduce(and_, ((x > 0.0) & (x < np.pi) for x in (t1, t2, t3)))
        clauses[curl_sign] = dict(zip(FILTER_CLAUSES, (curl_window, angle_sums, distinct, window)))
    return clauses


def passes_window_filters(diagonals, angles):
    """Conjunction of the filter_clauses, as a dict curl sign (+1, -1)
    -> bool array. Raises ValueError as filter_clauses does."""
    return {curl_sign: reduce(and_, clauses.values())
            for curl_sign, clauses in filter_clauses(diagonals, angles).items()}
