"""Knot invariants of equilateral hexagons.

A hexagon with unit edges is either an unknot or a trefoil, and its
component in hexagon space is pinned down by two integers: the common
sign of the three signed crossing counts through the disks spanned by
alternating vertex triples (chirality), and the side of the central
plane the second vertex folds to (curl). Everything here is pure and
safe to call concurrently.
"""

from __future__ import annotations

from enum import IntEnum
from typing import NamedTuple

import numpy as np

from .geom import EPS_PLANE, crossing_signs, triple_product
from .action_angle import is_embedded


class KnotClass(IntEnum):
    UNKNOT = 0
    TREFOIL_R_PLUS = 1
    TREFOIL_R_MINUS = 2
    TREFOIL_L_PLUS = 3
    TREFOIL_L_MINUS = 4
    DEGENERATE = 5


KNOT_CLASS_LABELS = {
    KnotClass.UNKNOT: "unknot",
    KnotClass.TREFOIL_R_PLUS: "trefoil_R+",
    KnotClass.TREFOIL_R_MINUS: "trefoil_R-",
    KnotClass.TREFOIL_L_PLUS: "trefoil_L+",
    KnotClass.TREFOIL_L_MINUS: "trefoil_L-",
    KnotClass.DEGENERATE: "degenerate",
}

KNOT_CLASS_FROM_LABEL = {label: cls for cls, label in KNOT_CLASS_LABELS.items()}


class JointChiralityCurl(NamedTuple):
    """Pair (chirality, curl part) classifying a hexagon's component."""

    chirality: int
    curl_part: int


# The one table of the four trefoil components: each class is the
# component with this (chirality, curl) pair.
TREFOIL_PAIRS = {
    KnotClass.TREFOIL_R_PLUS: JointChiralityCurl(1, 1),
    KnotClass.TREFOIL_R_MINUS: JointChiralityCurl(1, -1),
    KnotClass.TREFOIL_L_PLUS: JointChiralityCurl(-1, 1),
    KnotClass.TREFOIL_L_MINUS: JointChiralityCurl(-1, -1),
}

TREFOIL_CLASSES = tuple(TREFOIL_PAIRS)


def curl(vertices):
    """Sign of (v3-v1) x (v5-v1) . (v2-v1): +1 when v2 folds to the side
    of the central plane its right-hand normal points to, -1 opposite,
    0 where the unnormalised triple product is below EPS_PLANE in
    magnitude; that product is |(v3-v1) x (v5-v1)| times v2's distance
    from the central plane."""
    v = np.asarray(vertices, dtype=float)
    t = triple_product(
        v[..., 2, :] - v[..., 0, :],
        v[..., 4, :] - v[..., 0, :],
        v[..., 1, :] - v[..., 0, :],
    )
    return (np.where(np.abs(t) < EPS_PLANE, 0, np.sign(t))).astype(np.int8)


def disk_counts(vertices):
    """Signed crossing counts through disks 2, 4 and 6 of an (..., 6, 3)
    vertex array, flattened to n hexagons.

    For k = 0, 2, 4 (0-based), the disk spanned by (v_k, v_k+1, v_k+2)
    is tested against edges k+3 -> k+4 and k+4 -> k+5 (mod 6): away from
    a measure-zero set, which the degenerate channel already discards,
    only these two edges, disjoint from its vertices, can pierce it.

    Returns the (n, 3) int16 counts, each the sum of the two transversal
    crossing signs of the disk's disjoint edges, and the (n, 3) flags of
    a crossing test within tolerance of a boundary. The product of a
    hexagon's three counts is its chirality.
    """
    v = np.asarray(vertices, dtype=float).reshape(-1, 6, 3)
    signs, bad = zip(*(
        crossing_signs(v[:, e % 6, :], v[:, (e + 1) % 6, :],
                       v[:, k, :], v[:, k + 1, :], v[:, (k + 2) % 6, :])
        for k in (0, 2, 4) for e in (k + 3, k + 4)))
    signs = np.stack(signs, axis=-1).astype(np.int16).reshape(-1, 3, 2)
    bad = np.stack(bad, axis=-1).reshape(-1, 3, 2)
    return signs[..., 0] + signs[..., 1], bad.any(axis=-1)


def classify(vertices):
    """KnotClass of one hexagon; see :func:`classify_batch`."""
    return KnotClass(classify_batch(vertices).item())


def classify_batch(vertices):
    """KnotClass values of an (..., 6, 3) vertex array, as int8.

    Non-embedded hexagons, degenerate crossing tests, a crossing-count
    product outside {-1, 0, 1}, and a zero curl paired with nonzero
    chirality all map to KnotClass.DEGENERATE.
    """
    v = np.asarray(vertices, dtype=float)
    lead = v.shape[:-2]
    v = v.reshape((-1, 6, 3))

    counts, bad = disk_counts(v)
    degen = bad.any(axis=-1)
    degen |= ~is_embedded(v)

    chi = counts[:, 0] * counts[:, 1] * counts[:, 2]
    cc = curl(v).astype(np.int16)
    knotted = (np.abs(chi) == 1)
    degen |= np.abs(chi) > 1
    degen |= knotted & (cc == 0)

    codes = np.full(v.shape[0], int(KnotClass.UNKNOT), dtype=np.int8)
    for cls, (chirality, curl_sign) in TREFOIL_PAIRS.items():
        codes[(chi == chirality) & (cc == curl_sign)] = int(cls)
    codes[degen] = int(KnotClass.DEGENERATE)
    return codes.reshape(lead)


_SHIFT = (1, 2, 3, 4, 5, 0)
_REVERSE = (0, 5, 4, 3, 2, 1)


def shift(vertices):
    """Root shift: (v1,...,v6) -> (v2,...,v6,v1)."""
    v = np.asarray(vertices, dtype=float)
    return v[..., _SHIFT, :]


def reverse(vertices):
    """Orientation reversal: (v1,...,v6) -> (v1,v6,v5,v4,v3,v2)."""
    v = np.asarray(vertices, dtype=float)
    return v[..., _REVERSE, :]
