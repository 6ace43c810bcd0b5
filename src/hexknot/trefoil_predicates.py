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

_CLASS_BY_PAIR = {pair: cls for cls, pair in TARGET_PAIRS.items()}


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


def _all(masks):
    out = masks[0]
    for m in masks[1:]:
        out = out & m
    return out


def _all_of_sign(values, sign):
    """True where every value is strictly positive (sign +1) or
    strictly negative (sign -1)."""
    return _all([value > 0.0 if sign > 0 else value < 0.0 for value in values])


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
    genuine trefoils (a few per 10^7 samples, measured) falls outside
    it, so treat a False there as a strong but not airtight veto.
    """

    target: str
    curl_window: bool            # all angles on the curl side of pi
    angle_sums: bool             # pairwise angle sums on the curl side
    distinct_diagonals: bool     # no two diagonals within 1e-9
    dominant_diagonal_window: bool  # windows keyed to the largest diagonal

    def passes(self) -> bool:
        return (self.curl_window and self.angle_sums
                and self.distinct_diagonals and self.dominant_diagonal_window)

    def to_dict(self) -> dict:
        return asdict(self)


def _filter_masks(d, th, curl_sign):
    """Vectorised filter clauses; angles are mirrored first for the
    negative-curl case so every window is stated for positive curl."""
    if curl_sign == -1:
        th = TWO_PI - th
    t1, t2, t3 = th[..., 0], th[..., 1], th[..., 2]

    curl_window = _angles_in(th, 0.0, np.pi)
    angle_sums = (t1 + t2 < np.pi) & (t1 + t3 < np.pi) & (t2 + t3 < np.pi)

    gaps = np.stack(
        [
            np.abs(d[..., 0] - d[..., 1]),
            np.abs(d[..., 0] - d[..., 2]),
            np.abs(d[..., 1] - d[..., 2]),
        ],
        axis=-1,
    )
    distinct = np.all(gaps > _DISTINCT_TOL, axis=-1)

    big = np.argmax(d, axis=-1)
    t_big = np.take_along_axis(th, big[..., None], axis=-1)[..., 0]
    d_sq = d * d
    sq_sum = d_sq.sum(axis=-1)
    big_sq = np.take_along_axis(d_sq, big[..., None], axis=-1)[..., 0]
    obtuse = big_sq > sq_sum - big_sq
    others_small = np.ones_like(distinct)
    for k in range(3):
        is_other = big != k
        others_small &= np.where(is_other, (th[..., k] > 0.0) & (th[..., k] < 0.5 * np.pi), True)
    big_lo = np.where(obtuse, 0.5 * np.pi, 0.0)
    window = others_small & (t_big > big_lo) & (t_big < np.pi)
    return curl_window, angle_sums, distinct, window


def passes_window_filters(diagonals, angles, curl_sign):
    """Vectorised conjunction of all four filter clauses for the trefoil
    classes of the given curl sign; no clause depends on chirality."""
    if curl_sign not in (-1, 1):
        raise ValueError("curl_sign must be +1 or -1")
    d, th = interior_coordinates(diagonals, angles)
    return _all(_filter_masks(d, th, curl_sign))


def window_filters(diagonals, angles, target):
    """FilterReport for one coordinate tuple against a target class.

    `target` is a JointChiralityCurl pair (chirality, curl) with both
    entries in {-1, +1}, or one of the four trefoil KnotClass values.
    """
    if not isinstance(target, KnotClass):
        target = _CLASS_BY_PAIR.get((int(target[0]), int(target[1])))
    if target not in TARGET_PAIRS:
        raise ValueError("target must name one of the four trefoil classes")
    d, th = interior_coordinates(diagonals, angles)
    masks = _filter_masks(d, th, TARGET_PAIRS[target].curl_part)
    return FilterReport(KNOT_CLASS_LABELS[target], *(bool(m) for m in masks))
