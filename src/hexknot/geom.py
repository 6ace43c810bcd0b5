"""Low-level 3D predicates for segment and triangle geometry.

All lengths are in unit-edge scale. Points and vectors are
component-first: x[0], x[1] and x[2] are the coordinate arrays, and
every function broadcasts over the axes after that first one, so the
same code serves single queries (shape (3,)) and large Monte Carlo
batches (shape (3, n), each coordinate contiguous). Sign decisions that
fall within a tolerance of a decision boundary are reported as
degenerate instead of guessed; callers discard such configurations
(they form a measure-zero set).
"""

from __future__ import annotations

import numpy as np

# Tolerances in unit-edge scale. Random configurations sit far outside
# these margins with overwhelming probability.
EPS_PLANE = 1e-10    # endpoint-to-plane proximity that voids a crossing test
EPS_EDGE = 1e-10     # crossing-point-to-boundary proximity that voids it
EPS_AREA = 1e-12     # minimum triangle area for a usable normal
EPS_CONTACT = 1e-12  # closed-segment contact threshold
# Line-distance certificate of is_embedded: in unit-edge scale the rounding
# error of (w_j - w_i) . (e_i x e_j) is below 1e-14, so where |e_i x e_j|^2
# exceeds EPS_CROSS2 the line distance is off by under 1e-10 << EPS_LINE.
EPS_LINE = 1e-9      # line distance that proves two segments apart
EPS_CROSS2 = 1e-8    # floor on |e_i x e_j|^2 below which no pair is certified

_TINY = 1e-300  # guard for divisions on masked-out lanes


def _dot(u, v):
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def _norm(u):
    return np.sqrt(_dot(u, u))


def _cross(u, v):
    out = np.empty(np.broadcast_shapes(u.shape, v.shape))
    out[0] = u[1] * v[2] - u[2] * v[1]
    out[1] = u[2] * v[0] - u[0] * v[2]
    out[2] = u[0] * v[1] - u[1] * v[0]
    return out


def triple_product(a, b, c):
    """Scalar triple product (a x b) . c.

    Inputs are component-first array-likes, shape (3, ...); the axes
    after the first broadcast. Antisymmetric under swapping any two
    arguments.
    """
    a, b, c = (np.asarray(x, dtype=float) for x in (a, b, c))
    return _dot(_cross(a, b), c)


def crossing_signs(p, q, a, b, c):
    """Signed transversal crossings of directed segments through the open
    interior of oriented triangular disks.

    Parameters
    ----------
    p, q : array-like, shape (3, ...)
        Segment endpoints, directed p -> q, component-first.
    a, b, c : array-like, shape (3, ...)
        Triangle vertices; their order defines the right-hand-rule normal.

    Returns
    -------
    sign : int8 ndarray
        +1 transversal crossing with the normal, -1 against it, else 0;
        shape of the broadcast axes after the component axis.
    degenerate : bool ndarray
        True where the decision is within tolerance of a boundary: an
        endpoint within EPS_PLANE of the supporting plane while the
        segment comes within EPS_EDGE of the closed disk, a crossing
        point within EPS_EDGE of the disk boundary, or a triangle too
        flat to orient.
    """
    p, q, a, b, c = np.broadcast_arrays(
        *(np.asarray(x, dtype=float) for x in (p, q, a, b, c))
    )
    lead = p.shape[1:]
    p, q, a, b, c = (x.reshape(3, -1) for x in (p, q, a, b, c))

    n = _cross(b - a, c - a)
    nn = _norm(n)  # twice the triangle area
    flat = nn <= 2.0 * EPS_AREA
    nn_safe = np.where(flat, 1.0, nn)

    sp = _dot(p - a, n) / nn_safe
    sq = _dot(q - a, n) / nn_safe
    near = (np.abs(sp) < EPS_PLANE) | (np.abs(sq) < EPS_PLANE)
    opposite = (sp > 0.0) != (sq > 0.0)

    sign = np.zeros(p.shape[1], dtype=np.int8)
    degenerate = flat.copy()

    idx = np.nonzero(~near & ~flat & opposite)[0]
    pm = p[:, idx]
    d = q[:, idx] - pm
    tsum = _dot(d, n[:, idx])
    # Barycentric coordinates of the plane-crossing point are
    # (t_bc, t_ca, t_ab) / tsum; scaling each by the opposite
    # vertex height turns them into signed distances to the
    # boundary edges. |tsum| > 0 here: the plane signs differ.
    ap, bp, cp = a[:, idx], b[:, idx], c[:, idx]
    margin = np.inf
    for x, y in ((bp, cp), (cp, ap), (ap, bp)):
        height = nn[idx] / np.maximum(_norm(y - x), _TINY)
        # Relative to p only now: (y - p) - (x - p) rounds unlike y - x.
        margin = np.minimum(margin, triple_product(d, x - pm, y - pm) / tsum * height)
    sign[idx] = np.where(margin > EPS_EDGE, np.where(tsum > 0.0, 1, -1), 0)
    degenerate[idx] = np.abs(margin) <= EPS_EDGE

    check = near & ~flat
    if check.any():
        gap = _segment_triangle_gap(p[:, check], q[:, check], sp[check], sq[check], a[:, check],
                                    b[:, check], c[:, check], n[:, check], nn_safe[check])
        degenerate[check] = degenerate[check] | (gap <= EPS_EDGE)

    return sign.reshape(lead), degenerate.reshape(lead)


def segment_distances(p1, q1, p2, q2):
    """Minimum distance between closed segments [p1,q1] and [p2,q2].

    Endpoints are component-first, shape (3, ...); the axes after the
    first broadcast. Uses the usual clamped closest-point parametrisation,
    robust for parallel, nearly parallel and point segments.
    """
    p1, q1, p2, q2 = (np.asarray(x, dtype=float) for x in (p1, q1, p2, q2))
    d1 = q1 - p1
    d2 = q2 - p2
    r = p1 - p2
    f = _dot(d2, r)
    c = _dot(d1, r)
    a = _dot(d1, d1)
    e = _dot(d2, d2)
    b = _dot(d1, d2)
    x = _cross(d1, d2)  # Lagrange's identity gives a*e - b*b and b*f - c*e without cancelling
    denom = _dot(x, x)
    s = np.where(denom > _TINY, _dot(x, _cross(d2, r)) / np.maximum(denom, _TINY), 0.0)
    s = np.clip(s, 0.0, 1.0)
    t = (b * s + f) / np.where(e > _TINY, e, 1.0)
    t_cl = np.clip(t, 0.0, 1.0)
    redo = (t != t_cl) | (e <= _TINY)  # t clamped, or a point second segment
    s = np.where(redo, np.clip((b * t_cl - c) / np.where(a > _TINY, a, 1.0), 0.0, 1.0), s)
    return _norm(p1 + s * d1 - (p2 + t_cl * d2))


def _segment_triangle_gap(p, q, sp, sq, a, b, c, n, nn_safe):
    """Distance from segment [p,q] to the closed triangle (a,b,c), valid
    for near-coplanar configurations; sp and sq are the signed distances
    of p and q from the plane, n is the triangle's (b-a) x (c-a) normal
    and nn_safe its nonzero norm.

    Ignores strictly transversal piercing (distance would be 0), which
    cannot occur beyond EPS_PLANE of the plane; only the near-plane
    branch of crossing_signs may call this.
    """
    gap = np.inf
    for x, s in ((p, sp), (q, sq)):
        # Endpoint-to-face distance, +inf where the foot of the
        # perpendicular lands outside the closed triangle; the edge
        # distances below cover edge and vertex proximity.
        foot = x - s * (n / nn_safe)
        inside = True
        for u, w in ((b, c), (c, a), (a, b)):
            inside = inside & (triple_product(u - foot, w - foot, n) >= 0.0)
        gap = np.minimum(gap, np.where(inside, np.abs(s), np.inf))
    for ea, eb in ((a, b), (b, c), (c, a)):
        gap = np.minimum(gap, segment_distances(p, q, ea, eb))
    return gap
