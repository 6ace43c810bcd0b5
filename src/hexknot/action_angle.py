"""Diagonal-length/folding-angle coordinates for equilateral polygons.

A hexagon with unit edges is parametrised, up to rigid motion, by the
lengths (d1, d2, d3) of the diagonals v1v3, v3v5, v5v1 and the dihedral
angles (theta1, theta2, theta3) around them. The admissible diagonal
triples form a polytope, the cube [0,2]^3 less three corners that fold
onto it; uniform samples of it and of the angle torus are uniform
hexagons, which is what makes the Monte Carlo estimators honest.

Conventions, pinned by tests:
  * the planar configuration reads theta_i = pi for every i;
  * theta_i in (0, pi) lifts the apex vertex to positive z when the
    hexagon is in standard position (v1 at the origin, v3 on the
    positive x axis, v5 in the upper half of the xy plane).
"""

from __future__ import annotations

import numpy as np

from .geom import (
    EPS_AREA, EPS_CONTACT, EPS_CROSS2, EPS_LINE, _cross, _dot, _norm, segment_distances,
)

TWO_PI = 2.0 * np.pi

# Index pairs (i, j) of the 9 non-adjacent edge pairs of a hexagon,
# where edge i runs from vertex i to vertex i+1 (mod 6, 0-based).
NON_ADJACENT_EDGE_PAIRS = (
    (0, 2), (0, 3), (0, 4),
    (1, 3), (1, 4), (1, 5),
    (2, 4), (2, 5), (3, 5),
)


def is_interior(diagonals):
    """True where (d1, d2, d3) lies in the open moment polytope: each
    0 < d_i < 2 and each d_i < d_j + d_k, all strict. Raises ValueError
    unless the trailing axis has length 3."""
    d = np.asarray(diagonals, dtype=float)
    if d.shape[-1:] != (3,):
        raise ValueError(f"diagonals must have trailing shape (3,), got shape {d.shape}")
    d1, d2, d3 = d[..., 0], d[..., 1], d[..., 2]
    # The triangle inequalities force each d_i > 0, in floating point too:
    # d_k <= 0 gives fl(d_j + d_k) <= d_j, so the two holding d_k contradict.
    return (
        (d1 < 2.0) & (d2 < 2.0) & (d3 < 2.0)
        & (d3 < d1 + d2) & (d1 < d2 + d3) & (d2 < d1 + d3)
    )


def sample_action_batch(rng, n):
    """(n, 3) diagonal triples uniform on the interior of the polytope P.

    The cube [0, 2]^3 is P plus three corners {d_i > d_j + d_k}, and
    (d_i, d_j, d_k) -> (d_i, d_i - d_j, d_i - d_k) maps each onto
    {d in P : d_i largest} with determinant 1, so every point of P has
    exactly two preimages and a folded uniform cube draw is uniform."""
    u = rng.uniform(0.0, 2.0, (3, n))
    big = u.max(axis=0)
    d = np.where((2.0 * big > u.sum(axis=0)) & (u < big), big - u, u).T
    bad = ~is_interior(d)
    if bad.any():  # a 0.0 drawn, or a fold rounded onto a face: about once in 2^50
        d[bad] = sample_action_batch(rng, int(bad.sum()))
    return d


def sample_angles_batch(rng, n):
    """(n, 3) angle triples uniform on [0, 2*pi)^3."""
    return rng.uniform(0.0, TWO_PI, (n, 3))


def interior_coordinates(diagonals, angles):
    """(diagonals, angles) as broadcast float arrays.

    Raises ValueError unless both trailing axes have length 3, every
    diagonal triple is interior and every angle is finite.
    """
    d = np.asarray(diagonals, dtype=float)
    th = np.asarray(angles, dtype=float)
    if th.shape[-1:] != (3,):
        raise ValueError(f"angles must have trailing shape (3,), got shape {th.shape}")
    if not np.all(is_interior(d)):
        raise ValueError("diagonals must lie in the open moment polytope")
    if not np.isfinite(th).all():
        raise ValueError("angles must be finite")
    return np.broadcast_arrays(d, th)


def _fold_terms(d, th):
    """Terms shared by the vertex formulas and the nine sign functions,
    for validated d and th.

    Returns (dl, e, dd, r, c, s): the diagonal columns; the three
    law-of-cosines numerators e, where e[i] / (2 d_j d_k) is the cosine
    of the central triangle's angle between diagonals j and k; four
    times that triangle's area; r_i = sqrt(4 - d_i^2), twice the
    distance of apex i from its diagonal; and cos and sin of each theta_i.
    """
    dl = tuple(d[..., i] for i in range(3))
    q1, q2, q3 = (x * x for x in dl)
    e = (-q1 + q2 + q3, q1 - q2 + q3, q1 + q2 - q3)
    expr = 2.0 * (q1 * q2 + q1 * q3 + q2 * q3) - q1 * q1 - q2 * q2 - q3 * q3  # Heron: 16 area^2
    dd = np.sqrt(np.maximum(expr, 0.0))
    r = tuple(np.sqrt(4.0 - q) for q in (q1, q2, q3))
    c, s = (tuple(f(th[..., i]) for i in range(3)) for f in (np.cos, np.sin))
    return dl, e, dd, r, c, s


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

    The vertices are written into one contiguous component-first
    (6, 3, ...) buffer, and the (..., 6, 3) result is its np.moveaxis
    view, so vertex_components reads them without a copy.

    Raises ValueError unless every diagonal triple is interior and
    every angle is finite.
    """
    d, th = interior_coordinates(diagonals, angles)
    dl, e, dd, r, c, s = _fold_terms(d, th)
    w = np.zeros((6, 3) + d.shape[:-1])
    w[2, 0] = dl[0]
    w[4, 0] = e[1] / (2.0 * dl[0])
    w[4, 1] = dd / (2.0 * dl[0])
    for i in range(3):
        # In standard position n = z, so n x u = (-u_y, u_x, 0).
        p, q = w[2 * i], w[(2 * i + 2) % 6]
        h = r[i] * c[i] / (2.0 * dl[i])
        w[2 * i + 1, 0] = 0.5 * (p[0] + q[0]) - h * (q[1] - p[1])
        w[2 * i + 1, 1] = 0.5 * (p[1] + q[1]) + h * (q[0] - p[0])
        w[2 * i + 1, 2] = 0.5 * r[i] * s[i]
    return np.moveaxis(w, (0, 1), (-2, -1))


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

    Raises ValueError when (v1, v3, v5) is collinear within EPS_AREA,
    which a lane holding NaN or inf is (see vertex_components).
    """
    lead = np.shape(vertices)[:-2]
    w = np.moveaxis(vertex_components(vertices).reshape((6, 3) + lead), 0, -1)  # (3, ..., 6)
    centre, ahead = w[..., 0::2], w[..., (2, 4, 0)]
    n = _cross(w[..., 2] - w[..., 0], w[..., 4] - w[..., 0])
    nn = _norm(n)
    if np.any(nn <= 2.0 * EPS_AREA):
        raise ValueError("v1, v3, v5 are collinear or not finite")
    normal = (n / nn)[..., None]

    diagonals = _norm(ahead - centre)
    inward = _cross(normal, (ahead - centre) / diagonals)
    apex = w[..., 1::2] - 0.5 * (centre + ahead)
    theta = np.arctan2(_dot(apex, normal), _dot(apex, inward))
    return diagonals, wrap_angles(theta)


def is_embedded(vertices):
    """True where none of the 9 non-adjacent edge pairs of an
    (..., 6, 3) vertex array come within EPS_CONTACT.

    Most pairs are certified apart by line distance. With e_i, e_j the
    edge vectors and x = e_i x e_j, the lines through the two edges lie
    |(w_j - w_i) . x| / |x| apart, a lower bound on the segment distance.
    Where |x|^2 > EPS_CROSS2 and that bound exceeds EPS_LINE, rounding
    cannot bring the segments within EPS_CONTACT (see geom), and
    segment_distances, which returns the distance between two points of
    the segments, reads above EPS_CONTACT too; so certifying changes no
    answer. The other pairs (near-parallel or near-coplanar edges) go to
    one segment_distances call. A non-finite lane reads as collapsed (see
    vertex_components): no pair is certified and every pair touches.
    """
    w = vertex_components(vertices)
    embedded = np.ones(w.shape[-1], dtype=bool)
    e = np.roll(w, -1, axis=0) - w  # e[k] runs from vertex k to vertex k+1
    certified = np.empty((len(NON_ADJACENT_EDGE_PAIRS), w.shape[-1]), dtype=bool)
    for row, (i, j) in zip(certified, NON_ADJACENT_EDGE_PAIRS):
        x = _cross(e[i], e[j])
        xx = _dot(x, x)
        g = _dot(w[j] - w[i], x)
        row[:] = (xx > EPS_CROSS2) & (g * g > EPS_LINE * EPS_LINE * xx)
    pair, lane = np.nonzero(~certified)
    i, j = np.transpose(NON_ADJACENT_EDGE_PAIRS)[:, pair]
    wt = w.transpose(1, 0, 2)  # (3, 6, n): wt[:, k, lane] gathers (3, m) points
    dist = segment_distances(wt[:, i, lane], wt[:, (i + 1) % 6, lane],
                             wt[:, j, lane], wt[:, (j + 1) % 6, lane])
    embedded[lane[~(dist > EPS_CONTACT)]] = False
    return embedded.reshape(np.shape(vertices)[:-2])


def vertex_components(vertices):
    """The contiguous (6, 3, n) blocks of an (..., 6, 3) vertex array, else
    ValueError, so w[k] is vertex k's component-first (3, n) block for the
    geom kernels: a view of build_hexagon's buffer, a copy of any other
    layout. A lane holding NaN or inf reads as six vertices at the origin,
    a collapsed hexagon that every vertex kernel's tolerance checks reject."""
    v = np.asarray(vertices, dtype=float)
    if v.shape[-2:] != (6, 3):
        raise ValueError(f"vertices must have trailing shape (6, 3), got shape {v.shape}")
    w = np.ascontiguousarray(v.reshape(-1, 6, 3).transpose(1, 2, 0))
    finite = np.isfinite(w).all(axis=(0, 1))
    return w if finite.all() else np.where(finite, w, 0.0)
