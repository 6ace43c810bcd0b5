"""Closed-form sign conditions for hexagonal trefoils.

For a hexagon given in diagonal/angle coordinates, each trefoil class
forces the signs of nine trigonometric functions of the coordinates
(three per pierced disk: a crossing-cone condition pair and one
plane-separation condition). The sign conditions are necessary and are
not assumed sufficient; estimators report the gap between predicate
hits and geometric classifications instead of assuming either way.
Coarser window filters on the angles and diagonals accompany them; see
FilterReport for how far each can be trusted.

All predicates evaluate strict inequalities with zero tolerance: the
boundary sets have measure zero under the sampling distribution.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict
from typing import NamedTuple

import numpy as np

from .action_angle import TWO_PI, fold_terms, interior_coordinates
from .invariants import KNOT_CLASS_LABELS, KnotClass
from .invariants import TREFOIL_PAIRS as TARGET_PAIRS

_DISTINCT_TOL = 1e-9


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

    Returns a dict KnotClass -> bool array.
    """
    nf = nine_functions(diagonals, angles)
    th = np.asarray(angles, dtype=float)
    window = {1: _angles_in(th, 0.0, np.pi), -1: _angles_in(th, np.pi, TWO_PI)}
    f_sign = {sign: _all_of_sign(nf[0::3], sign) for sign in (1, -1)}
    gh_sign = {sign: _all_of_sign(nf[1::3] + nf[2::3], sign) for sign in (1, -1)}
    return {cls: window[curl_sign] & f_sign[chirality] & gh_sign[curl_sign]
            for cls, (chirality, curl_sign) in TARGET_PAIRS.items()}


@dataclass
class FilterReport:
    """Outcome of each window-constraint filter for a target class.

    curl_window, angle_sums and distinct_diagonals are necessary
    conditions for the target class. dominant_diagonal_window is the
    tighter window keyed to the largest diagonal; a rare fraction of
    genuine trefoils (measured: 27 of 1,386 in 10^7 oracle samples at
    seed 9, about 2.7 per 10^6 samples) falls outside it, so treat a
    False there as a strong but not airtight veto.
    """

    target: str
    curl_window: bool            # all angles on the curl side of pi
    angle_sums: bool             # pairwise angle sums on the curl side
    distinct_diagonals: bool     # no two diagonals within 1e-9
    dominant_diagonal_window: bool  # windows keyed to the largest diagonal

    def passes(self) -> bool:
        return (self.curl_window and self.angle_sums
                and self.distinct_diagonals and self.dominant_diagonal_window)

    to_dict = asdict


def _filter_masks(d, th):
    """Vectorised filter clauses for both curl signs.

    Returns {+1: clauses, -1: clauses}, each the four clauses in
    FilterReport field order. Angles are mirrored for the negative-curl
    case so every window is stated for positive curl; the diagonal-only
    work is done once for both signs.
    """
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
        clauses[curl_sign] = (_angles_in(t, 0.0, np.pi), angle_sums, distinct, window)
    return clauses


def passes_window_filters(diagonals, angles):
    """Vectorised conjunction of all four filter clauses, as a dict
    curl sign (+1, -1) -> bool array; no clause depends on chirality.
    Angles must lie in [0, 2*pi)."""
    d, th = interior_coordinates(diagonals, angles)
    return {curl_sign: np.logical_and.reduce(clauses)
            for curl_sign, clauses in _filter_masks(d, th).items()}


def window_filters(diagonals, angles, target):
    """FilterReport for one coordinate tuple against `target`, one of
    the four trefoil KnotClass values. Angles must lie in [0, 2*pi)."""
    if not isinstance(target, KnotClass) or target not in TARGET_PAIRS:
        raise ValueError("target must be one of the four trefoil KnotClass values")
    d, th = interior_coordinates(diagonals, angles)
    clauses = _filter_masks(d, th)[TARGET_PAIRS[target].curl_part]
    return FilterReport(KNOT_CLASS_LABELS[target], *(bool(m) for m in clauses))
