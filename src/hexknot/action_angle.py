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

from .geom import EPS_AREA, EPS_CONTACT, segment_distances

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


def _polytope(diagonals, below):
    d = np.asarray(diagonals, dtype=float)
    d1, d2, d3 = d[..., 0], d[..., 1], d[..., 2]
    return (
        below(0.0, d1) & below(d1, 2.0)
        & below(0.0, d2) & below(d2, 2.0)
        & below(0.0, d3) & below(d3, 2.0)
        & below(d3, d1 + d2) & below(d1, d2 + d3) & below(d2, d1 + d3)
    )


def in_moment_polytope(diagonals):
    """True where (d1, d2, d3) satisfies all six closed triangulation
    inequalities: 0 <= d_i <= 2 and each d_i <= d_j + d_k."""
    return _polytope(diagonals, np.less_equal)


def is_interior(diagonals):
    """True where all six inequalities hold strictly (open polytope)."""
    return _polytope(diagonals, np.less)


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
    apex of a unit-edge isosceles triangle folded over its diagonal by
    the matching angle (pi = coplanar, pointing away from the centre).

    Raises NotInteriorError unless every diagonal triple is interior.
    """
    d, dd, (r1, r2, r3), (c1, c2, c3), (s1, s2, s3) = fold_terms(diagonals, angles)
    d1, d2, d3 = d[..., 0], d[..., 1], d[..., 2]
    zero = np.zeros_like(d1)
    x5 = (d1 * d1 - d2 * d2 + d3 * d3) / (2.0 * d1)
    y5 = dd / (2.0 * d1)

    v1 = np.stack([zero, zero, zero], axis=-1)
    v2 = np.stack([0.5 * d1, 0.5 * r1 * c1, 0.5 * r1 * s1], axis=-1)
    v3 = np.stack([d1, zero, zero], axis=-1)
    v4 = np.stack(
        [
            (3.0 * d1 * d1 - d2 * d2 + d3 * d3) / (4.0 * d1)
            - dd * r2 * c2 / (4.0 * d1 * d2),
            dd / (4.0 * d1)
            - (d1 * d1 + d2 * d2 - d3 * d3) * r2 * c2 / (4.0 * d1 * d2),
            0.5 * r2 * s2,
        ],
        axis=-1,
    )
    v5 = np.stack([x5, y5, zero], axis=-1)
    v6 = np.stack(
        [
            0.5 * x5 + dd * r3 * c3 / (4.0 * d1 * d3),
            dd / (4.0 * d1)
            - (d1 * d1 - d2 * d2 + d3 * d3) * r3 * c3 / (4.0 * d1 * d3),
            0.5 * r3 * s3,
        ],
        axis=-1,
    )
    return np.stack([v1, v2, v3, v4, v5, v6], axis=-2)


def _unit(u):
    return u / np.linalg.norm(u, axis=-1, keepdims=True)


def extract_action_angle(vertices):
    """Recover (diagonals, angles) from hexagon vertices.

    Inverse of :func:`build_hexagon` up to rigid motion: the diagonal
    lengths are |v1-v3|, |v3-v5|, |v5-v1| and each angle is read off the
    apex offset from its diagonal midpoint, so the planar configuration
    reads pi and angles land in [0, 2*pi).

    Raises DegenerateFrameError when (v1, v3, v5) is collinear within
    EPS_AREA.
    """
    v = np.asarray(vertices, dtype=float)
    n = np.cross(v[..., 2, :] - v[..., 0, :], v[..., 4, :] - v[..., 0, :])
    nn = np.linalg.norm(n, axis=-1)
    if np.any(nn <= 2.0 * EPS_AREA):
        raise DegenerateFrameError("v1, v3, v5 are collinear")
    nhat = n / nn[..., None]

    diagonals = np.linalg.norm(v[..., (2, 4, 0), :] - v[..., (0, 2, 4), :], axis=-1)

    angles = []
    # (diagonal endpoints, apex, opposite central vertex)
    for ip, iq, ix, ir in ((0, 2, 1, 4), (2, 4, 3, 0), (4, 0, 5, 2)):
        pp = v[..., ip, :]
        qq = v[..., iq, :]
        mid = 0.5 * (pp + qq)
        uhat = _unit(qq - pp)
        w = v[..., ix, :] - mid
        w = w - (w * uhat).sum(-1, keepdims=True) * uhat
        inward = v[..., ir, :] - mid
        inward = _unit(inward - (inward * uhat).sum(-1, keepdims=True) * uhat)
        theta = np.arctan2((w * nhat).sum(-1), (w * inward).sum(-1))
        angles.append(np.mod(theta, TWO_PI))
    return diagonals, np.stack(angles, axis=-1)


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

