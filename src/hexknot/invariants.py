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

import numpy as np

from .geom import EPS_PLANE, crossing_signs, triple_product
from .action_angle import is_embedded, vertex_components


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

# The one table of the four trefoil components: each class is the
# component with this (chirality, curl) pair.
TREFOIL_PAIRS = {
    KnotClass.TREFOIL_R_PLUS: (1, 1),
    KnotClass.TREFOIL_R_MINUS: (1, -1),
    KnotClass.TREFOIL_L_PLUS: (-1, 1),
    KnotClass.TREFOIL_L_MINUS: (-1, -1),
}


def curl(vertices):
    """Sign of (v3-v1) x (v5-v1) . (v2-v1): +1 when v2 folds to the side
    of the central plane its right-hand normal points to, -1 opposite,
    0 where the unnormalised triple product is below EPS_PLANE in
    magnitude; that product is |(v3-v1) x (v5-v1)| times v2's distance
    from the central plane."""
    w = vertex_components(vertices)
    t = triple_product(w[2] - w[0], w[4] - w[0], w[1] - w[0]).reshape(np.shape(vertices)[:-2])
    return (np.where(np.abs(t) < EPS_PLANE, 0, np.sign(t))).astype(np.int8)


def _disk_count(w, k):
    """Signed crossing count through disk (v_k, v_k+1, v_k+2) (0-based,
    k in 0, 2, 4) of the (6, 3, n) component blocks w, and its flag.

    Away from a measure-zero set, which the flag already discards, only
    edges k+3 -> k+4 and k+4 -> k+5 (mod 6), disjoint from the disk's
    vertices, can pierce it; the count is the sum of their two
    transversal crossing signs.
    """
    disk = (w[k], w[k + 1], w[(k + 2) % 6])
    first, first_bad = crossing_signs(w[(k + 3) % 6], w[(k + 4) % 6], *disk)
    second, second_bad = crossing_signs(w[(k + 4) % 6], w[(k + 5) % 6], *disk)
    return first.astype(np.int16) + second, first_bad | second_bad


def disk_counts(vertices):
    """Signed crossing counts through disks 2, 4 and 6 of an (..., 6, 3)
    vertex array, flattened to n hexagons: disk i is spanned by
    (v_i-1, v_i, v_i+1).

    Returns the (n, 3) int16 counts and the (n, 3) flags of a crossing
    test within tolerance of a boundary. The product of a hexagon's
    three counts is its chirality.
    """
    w = vertex_components(vertices)
    counts, bad = zip(*(_disk_count(w, k) for k in (0, 2, 4)))
    return np.stack(counts, axis=-1), np.stack(bad, axis=-1)


def classify(vertices):
    """KnotClass of one hexagon; see :func:`classify_batch`."""
    return KnotClass(classify_batch(vertices).item())


def classify_batch(vertices):
    """KnotClass values of an (..., 6, 3) vertex array, as int8.

    A hexagon of chirality 1 or -1 is the trefoil of its (chirality,
    curl) in TREFOIL_PAIRS; the curl is read on those lanes alone (about
    1.4 in 10^4). Non-embedded hexagons, degenerate crossing tests, a
    crossing-count product outside {-1, 0, 1}, and a zero curl paired
    with nonzero chirality all map to KnotClass.DEGENERATE.

    The disks are tested in cascade: disk 2 on every hexagon, disk 4
    only where disk 2's count is nonzero and unflagged, and disk 6 only
    where disk 4's is too, since a zero count already makes the
    chirality 0. So "degenerate crossing test" means a test the
    decision needs was within tolerance: a hexagon whose disk 2 count is
    a clean 0 is an unknot even if disk 4 or 6 would have been flagged.
    """
    lead = np.shape(vertices)[:-2]
    w = vertex_components(vertices)
    v = np.moveaxis(w, (0, 1), (-2, -1))  # an (n, 6, 3) view: no second copy
    degen = ~is_embedded(v)
    chi, bad, live = np.ones(len(v), np.int16), np.zeros(len(v), bool), slice(None)
    for k in (0, 2, 4):
        count, flag = _disk_count(w[..., live], k)
        chi[live] *= count
        bad[live] |= flag
        live = np.flatnonzero((chi != 0) & ~bad)
    degen |= bad

    knotted = np.nonzero(np.abs(chi) == 1)[0]
    knotted_curl = curl(v[knotted])
    degen |= np.abs(chi) > 1
    degen[knotted] |= knotted_curl == 0

    codes = np.full(v.shape[0], int(KnotClass.UNKNOT), dtype=np.int8)
    for cls, (chirality, curl_sign) in TREFOIL_PAIRS.items():
        codes[knotted[(chi[knotted] == chirality) & (knotted_curl == curl_sign)]] = int(cls)
    codes[degen] = int(KnotClass.DEGENERATE)
    return codes.reshape(lead)
