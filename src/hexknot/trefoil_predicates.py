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


def _angles_in(th, lo, hi):
    return reduce(and_, ((th[..., i] > lo) & (th[..., i] < hi) for i in range(3)))


def class_masks(diagonals, angles):
    """Predicate masks for all four trefoil classes at once.

    The mask of class (chirality, curl) is a necessary condition for
    that class: every angle strictly inside the curl's half of the
    circle, (0, pi) for positive curl and (pi, 2*pi) for negative, the
    three f_i strictly of the chirality's sign, and the six g_i, h_i
    strictly of the curl's sign. Every term of every one of the nine
    functions carries exactly one sine factor, so the whole vector is
    odd under theta -> 2*pi - theta, which flips both chirality and
    curl; one evaluation therefore covers both curl signs. This is the
    hot path of the predicate-mode estimator.

    No class holds unless all three angles are on one side of pi, the
    lane's curl. The functions are elementwise, so g1 and h1, which read
    theta_2 and theta_3 alone, are evaluated first on those lanes (about
    a quarter), gathered by an integer index, and all nine only where
    both have the curl's sign (about 4% of lanes). There a lane is in
    the class of its (chirality = sign f1, curl) if every f has the
    chirality's sign and every g and h the curl's; others are in none.

    Returns a dict KnotClass -> bool array. Raises ValueError unless
    every diagonal triple is interior and every angle lies in [0, 2*pi),
    the samplers' range (wrap_angles reduces others).
    """
    d, th = _predicate_coordinates(diagonals, angles)
    shape = th.shape[:-1]
    d, th = d.reshape(-1, 3), th.reshape(-1, 3)
    below = _angles_in(th, 0.0, np.pi)
    idx = np.flatnonzero(below | _angles_in(th, np.pi, TWO_PI))
    # Stage 1, triple 1 alone: about 83% of window lanes fail here.
    _, g1, h1 = _triple(0, *_fold_terms(d[idx], th[idx], (1, 2)))
    curl = np.where(below[idx], 1.0, -1.0)
    keep = (curl * g1 > 0.0) & (curl * h1 > 0.0)
    idx, curl = idx[keep], curl[keep]
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

    The first three are necessary conditions for a trefoil of that curl.
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
        clauses[curl_sign] = dict(zip(FILTER_CLAUSES, (
            _angles_in(t, 0.0, np.pi), angle_sums, distinct, window)))
    return clauses


def passes_window_filters(diagonals, angles):
    """Conjunction of the filter_clauses, as a dict curl sign (+1, -1)
    -> bool array. Raises ValueError as filter_clauses does."""
    return {curl_sign: reduce(and_, clauses.values())
            for curl_sign, clauses in filter_clauses(diagonals, angles).items()}
