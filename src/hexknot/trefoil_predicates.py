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

from typing import NamedTuple

import numpy as np

from .action_angle import TWO_PI, fold_terms, interior_coordinates
from .invariants import TREFOIL_PAIRS as TARGET_PAIRS

_DISTINCT_TOL = 1e-9
FILTER_CLAUSES = ("curl_window", "angle_sums", "distinct_diagonals",
                  "dominant_diagonal_window")


class NineFunctions(NamedTuple):
    f1: np.ndarray
    g1: np.ndarray
    h1: np.ndarray
    f2: np.ndarray
    g2: np.ndarray
    h2: np.ndarray
    f3: np.ndarray
    g3: np.ndarray
    h3: np.ndarray


def nine_functions(diagonals, angles):
    """Evaluate the nine sign functions; broadcasts over leading axes.

    Index i pairs the two angle arguments it depends on: 1 -> (t2, t3),
    2 -> (t3, t1), 3 -> (t1, t2). Within each triple, f is antisymmetric
    under swapping its two (d, theta) argument pairs and g/h exchange
    under the same swap.
    """
    d, dd, r, c, s = fold_terms(diagonals, angles)
    dl = tuple(d[..., i] for i in range(3))
    q1, q2, q3 = (x * x for x in dl)
    # e[i] / (2 d_j d_k) is the cosine of the central triangle's angle
    # between diagonals j and k (law of cosines).
    e = (-q1 + q2 + q3, q1 - q2 + q3, q1 + q2 - q3)
    del q1, q2, q3  # e replaces q: three lane-sized arrays held, not six

    def f_half(j, k):
        return dl[j] * r[j] * s[j] * (dl[k] * dd - e[j] * r[k] * c[k])

    def g(i, j, k):
        return (r[j] * (e[i] / (2.0 * dl[j] * dl[k]) * c[j] * s[k] + s[j] * c[k])
                - dd * s[k] / (2.0 * dl[k]))

    # Triple i with (j, k) = (i+1, i+2) mod 3: f_i is antisymmetric under
    # swapping j and k, and h_i is g_i with j and k swapped.
    values = []
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        values += [f_half(j, k) - f_half(k, j), g(i, j, k), g(i, k, j)]
    return NineFunctions(*values)


def _angles_in(th, lo, hi):
    return np.all((th > lo) & (th < hi), axis=-1)


def _all_of_sign(values, sign):
    """True where every value is strictly positive (sign +1) or
    strictly negative (sign -1)."""
    return np.logical_and.reduce([value > 0.0 if sign > 0 else value < 0.0
                                  for value in values])


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
    hot path of the predicate-mode estimator. Angles must lie in
    [0, 2*pi), the samplers' range; reduce others mod 2*pi first.

    No class holds unless all three angles are on one side of pi, and
    the nine functions are elementwise, so they are evaluated only on
    those lanes (about a quarter); every other lane is False in every
    class.

    Returns a dict KnotClass -> bool array. Raises NotInteriorError
    unless every diagonal triple is interior.
    """
    d, th = interior_coordinates(diagonals, angles)
    window = {1: _angles_in(th, 0.0, np.pi), -1: _angles_in(th, np.pi, TWO_PI)}
    one_side = window[1] | window[-1]
    nf = nine_functions(d[one_side], th[one_side])
    f_sign = {sign: _all_of_sign(nf[0::3], sign) for sign in (1, -1)}
    curl_side = {sign: window[sign][one_side] & _all_of_sign(nf[1::3] + nf[2::3], sign)
                 for sign in (1, -1)}
    masks = {}
    for cls, (chirality, curl_sign) in TARGET_PAIRS.items():
        masks[cls] = np.zeros(one_side.shape, dtype=bool)
        masks[cls][one_side] = f_sign[chirality] & curl_side[curl_sign]
    return masks


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
    genuine trefoils (measured: 27 of 1,386 in 10^7 oracle samples at
    seed 9, about 2.7 per 10^6 samples) falls outside it, so treat a
    False there as a strong but not airtight veto.

    Angles are mirrored for the negative-curl case so every window is
    stated for positive curl; the diagonal-only work is done once for
    both signs. Angles must lie in [0, 2*pi). Raises NotInteriorError
    unless every diagonal triple is interior.
    """
    d, th = interior_coordinates(diagonals, angles)
    distinct = np.all(np.abs(d - d[..., (1, 2, 0)]) > _DISTINCT_TOL, axis=-1)
    big = np.argmax(d, axis=-1)[..., None]
    is_big = np.arange(3) == big
    d_sq = d * d
    big_sq = np.take_along_axis(d_sq, big, axis=-1)[..., 0]
    obtuse = big_sq > d_sq.sum(axis=-1) - big_sq
    big_lo = np.where(obtuse, 0.5 * np.pi, 0.0)

    clauses = {}
    for curl_sign, t in ((1, th), (-1, TWO_PI - th)):
        t1, t2, t3 = t[..., 0], t[..., 1], t[..., 2]
        angle_sums = (t1 + t2 < np.pi) & (t1 + t3 < np.pi) & (t2 + t3 < np.pi)
        others_small = np.all(is_big | ((t > 0.0) & (t < 0.5 * np.pi)), axis=-1)
        t_big = np.take_along_axis(t, big, axis=-1)[..., 0]
        window = others_small & (t_big > big_lo) & (t_big < np.pi)
        clauses[curl_sign] = dict(zip(FILTER_CLAUSES, (
            _angles_in(t, 0.0, np.pi), angle_sums, distinct, window)))
    return clauses


def passes_window_filters(diagonals, angles):
    """Conjunction of the filter_clauses, as a dict curl sign (+1, -1)
    -> bool array. Angles must lie in [0, 2*pi)."""
    return {curl_sign: np.logical_and.reduce(list(clauses.values()))
            for curl_sign, clauses in filter_clauses(diagonals, angles).items()}
