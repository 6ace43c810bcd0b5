"""Diagonal-length/folding-angle coordinates for equilateral polygons.

A hexagon with unit edges is parametrised, up to rigid motion, by the
lengths (d1, d2, d3) of the diagonals v1v3, v3v5, v5v1 and the dihedral
angles (theta1, theta2, theta3) around them. The admissible diagonal
triples form a polytope (half of the cube [0,2]^3) and sampling that
polytope and the angle torus uniformly induces the uniform measure on
hexagon space, which is what makes the Monte Carlo estimators honest.

Conventions, pinned by tests:
  * the planar configuration reads theta_i = pi for every i;
  * theta_i in (0, pi) lifts the apex vertex to positive z when the
    hexagon is in standard position (v1 at the origin, v3 on the
    positive x axis, v5 in the upper half of the xy plane).
"""

from __future__ import annotations

import numpy as np

from .geom import EPS_AREA, EPS_CONTACT, _cross, _dot, _norm, segment_distances

TWO_PI = 2.0 * np.pi

# Index pairs (i, j) of the 9 non-adjacent edge pairs of a hexagon,
# where edge i runs from vertex i to vertex i+1 (mod 6, 0-based).
NON_ADJACENT_EDGE_PAIRS = (
    (0, 2), (0, 3), (0, 4),
    (1, 3), (1, 4), (1, 5),
    (2, 4), (2, 5), (3, 5),
)

_MAX_REJECTIONS = 1000


class NotInteriorError(ValueError):
    """Diagonal triple outside the open moment polytope."""


class DegenerateFrameError(ValueError):
    """v1, v3, v5 are collinear; no frame can be extracted."""


def is_interior(diagonals):
    """True where (d1, d2, d3) lies in the open moment polytope: each
    0 < d_i < 2 and each d_i < d_j + d_k, all strict."""
    d = np.asarray(diagonals, dtype=float)
    d1, d2, d3 = d[..., 0], d[..., 1], d[..., 2]
    return (
        (0.0 < d1) & (d1 < 2.0)
        & (0.0 < d2) & (d2 < 2.0)
        & (0.0 < d3) & (d3 < 2.0)
        & (d3 < d1 + d2) & (d1 < d2 + d3) & (d2 < d1 + d3)
    )


def sample_action_batch(rng, n):
    """(n, 3) diagonal triples uniform on the interior of the polytope."""
    out = np.empty((n, 3))
    have = 0
    for _ in range(_MAX_REJECTIONS):
        if have >= n:
            return out
        deficit = n - have
        draw = rng.uniform(0.0, 2.0, (int(deficit * 2.2) + 16, 3))
        good = draw[is_interior(draw)]
        take = min(len(good), deficit)
        out[have:have + take] = good[:take]
        have += take
    raise RuntimeError("rejection sampler failed to fill the batch")


def sample_angles_batch(rng, n):
    """(n, 3) angle triples uniform on [0, 2*pi)^3."""
    return rng.uniform(0.0, TWO_PI, (n, 3))


def triangle_area_scale(diagonals):
    """Four times the area of the triangle with side lengths (d1, d2, d3).

    This is the shared scale factor in the vertex formulas and in the
    closed-form trefoil predicates.
    """
    d = np.asarray(diagonals, dtype=float)
    a2, b2, c2 = d[..., 0] ** 2, d[..., 1] ** 2, d[..., 2] ** 2
    expr = 2.0 * (a2 * b2 + a2 * c2 + b2 * c2) - a2 ** 2 - b2 ** 2 - c2 ** 2
    return np.sqrt(np.maximum(expr, 0.0))


def interior_coordinates(diagonals, angles):
    """(diagonals, angles) as broadcast float arrays.

    Raises NotInteriorError unless every diagonal triple is interior.
    """
    d = np.asarray(diagonals, dtype=float)
    th = np.asarray(angles, dtype=float)
    if not np.all(is_interior(d)):
        raise NotInteriorError("diagonals must lie in the open moment polytope")
    return np.broadcast_arrays(d, th)


def fold_terms(diagonals, angles):
    """Terms shared by the vertex formulas and the nine sign functions.

    Returns (d, dd, r, c, s): the validated, broadcast diagonals, four
    times the central triangle's area, and one triple each of
    r_i = sqrt(4 - d_i^2) (twice the distance of apex i from its
    diagonal), cos(theta_i) and sin(theta_i). Raises NotInteriorError
    unless every diagonal triple is interior.
    """
    d, th = interior_coordinates(diagonals, angles)
    dd = triangle_area_scale(d)
    r = tuple(np.sqrt(4.0 - d[..., i] * d[..., i]) for i in range(3))
    c = tuple(np.cos(th[..., i]) for i in range(3))
    s = tuple(np.sin(th[..., i]) for i in range(3))
    return d, dd, r, c, s


def build_hexagon(diagonals, angles):
    """Vertices of the unit-edge hexagon with the given coordinates.

    Parameters
    ----------
    diagonals, angles : array-like, trailing shape (3,)
        Leading axes broadcast; output has trailing shape (6, 3).

    The hexagon comes out in standard position: v1 at the origin, v3 at
    (d1, 0, 0), v5 in the upper half xy-plane. Each of v2, v4, v6 is the
    apex of a unit-edge isosceles triangle folded over its diagonal
    p -> q by the matching angle: with n the central triangle's unit
    normal and u the unit vector along p -> q, the apex sits at
    (p + q)/2 + (r_i/2)(cos(theta_i) n x u + sin(theta_i) n), where
    n x u points into the central triangle (pi = coplanar, pointing
    away from the centre).

    Raises NotInteriorError unless every diagonal triple is interior.
    """
    d, dd, r, c, s = fold_terms(diagonals, angles)
    d1, d2, d3 = d[..., 0], d[..., 1], d[..., 2]
    v = np.zeros(d.shape[:-1] + (6, 3))
    v[..., 2, 0] = d1
    v[..., 4, 0] = (d1 * d1 - d2 * d2 + d3 * d3) / (2.0 * d1)
    v[..., 4, 1] = dd / (2.0 * d1)
    for i in range(3):
        # In standard position n = z, so n x u = (-u_y, u_x, 0).
        p, q = v[..., 2 * i, :], v[..., (2 * i + 2) % 6, :]
        h = r[i] * c[i] / (2.0 * d[..., i])
        v[..., 2 * i + 1, 0] = 0.5 * (p[..., 0] + q[..., 0]) - h * (q[..., 1] - p[..., 1])
        v[..., 2 * i + 1, 1] = 0.5 * (p[..., 1] + q[..., 1]) + h * (q[..., 0] - p[..., 0])
        v[..., 2 * i + 1, 2] = 0.5 * r[i] * s[i]
    return v


def wrap_angles(theta):
    """Angles mod 2*pi in [0, 2*pi); np.mod's round-up to exactly 2*pi reads 0."""
    theta = np.mod(theta, TWO_PI)
    return np.where(theta == TWO_PI, 0.0, theta)


def extract_action_angle(vertices):
    """Recover (diagonals, angles) from hexagon vertices.

    Inverse of :func:`build_hexagon` up to rigid motion, in the same
    fold frame: the diagonal lengths are |v1-v3|, |v3-v5|, |v5-v1| and
    each angle is read off the apex offset from its diagonal midpoint
    against n x u and n, so the planar configuration reads pi and
    angles land in [0, 2*pi).

    Raises DegenerateFrameError when (v1, v3, v5) is collinear within
    EPS_AREA.
    """
    v = np.asarray(vertices, dtype=float)
    centre, ahead = v[..., 0::2, :], v[..., (2, 4, 0), :]
    n = _cross(v[..., 2, :] - v[..., 0, :], v[..., 4, :] - v[..., 0, :])
    nn = _norm(n)
    if np.any(nn <= 2.0 * EPS_AREA):
        raise DegenerateFrameError("v1, v3, v5 are collinear")
    normal = (n / nn[..., None])[..., None, :]

    diagonals = _norm(ahead - centre)
    inward = _cross(normal, (ahead - centre) / diagonals[..., None])
    w = v[..., 1::2, :] - 0.5 * (centre + ahead)
    theta = np.arctan2(_dot(w, normal), _dot(w, inward))
    return diagonals, wrap_angles(theta)


_PAIR_P1 = tuple(i for i, _ in NON_ADJACENT_EDGE_PAIRS)
_PAIR_Q1 = tuple((i + 1) % 6 for i, _ in NON_ADJACENT_EDGE_PAIRS)
_PAIR_P2 = tuple(j for _, j in NON_ADJACENT_EDGE_PAIRS)
_PAIR_Q2 = tuple((j + 1) % 6 for _, j in NON_ADJACENT_EDGE_PAIRS)


def is_embedded(vertices):
    """True where none of the 9 non-adjacent edge pairs come within
    EPS_CONTACT of each other."""
    v = np.asarray(vertices, dtype=float)
    dist = segment_distances(
        v[..., _PAIR_P1, :], v[..., _PAIR_Q1, :],
        v[..., _PAIR_P2, :], v[..., _PAIR_Q2, :],
    )
    return np.all(dist > EPS_CONTACT, axis=-1)

