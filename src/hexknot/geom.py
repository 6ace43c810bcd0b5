"""Low-level 3D predicates for segment and triangle geometry.

All lengths are in unit-edge scale and every function broadcasts over
leading axes, so the same code serves single queries and large Monte
Carlo batches. Sign decisions that fall within a tolerance of a
decision boundary are reported as degenerate instead of guessed;
callers discard such configurations (they form a measure-zero set).
"""

from __future__ import annotations

import numpy as np

# Tolerances in unit-edge scale. Random configurations sit far outside
# these margins with overwhelming probability.
EPS_PLANE = 1e-10    # endpoint-to-plane proximity that voids a crossing test
EPS_EDGE = 1e-10     # crossing-point-to-boundary proximity that voids it
EPS_AREA = 1e-12     # minimum triangle area for a usable normal
EPS_CONTACT = 1e-12  # closed-segment contact threshold

_TINY = 1e-300  # guard for divisions on masked-out lanes


def _dot(u, v):
    return (u * v).sum(axis=-1)


def _norm(u):
    return np.sqrt(_dot(u, u))


def _cross(u, v):
    out = np.empty(np.broadcast_shapes(u.shape, v.shape))
    out[..., 0] = u[..., 1] * v[..., 2] - u[..., 2] * v[..., 1]
    out[..., 1] = u[..., 2] * v[..., 0] - u[..., 0] * v[..., 2]
    out[..., 2] = u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0]
    return out


def triple_product(a, b, c):
    """Scalar triple product (a x b) . c.

    Inputs are array-likes with trailing shape (3,); leading axes
    broadcast. Antisymmetric under swapping any two arguments.
    """
    a, b, c = (np.asarray(x, dtype=float) for x in (a, b, c))
    return (
        c[..., 0] * (a[..., 1] * b[..., 2] - a[..., 2] * b[..., 1])
        + c[..., 1] * (a[..., 2] * b[..., 0] - a[..., 0] * b[..., 2])
        + c[..., 2] * (a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0])
    )


def crossing_signs(p, q, a, b, c):
    """Signed transversal crossings of directed segments through the open
    interior of oriented triangular disks.

    Parameters
    ----------
    p, q : array-like, trailing shape (3,)
        Segment endpoints, directed p -> q.
    a, b, c : array-like, trailing shape (3,)
        Triangle vertices; their order defines the right-hand-rule normal.

    Returns
    -------
    sign : int8 ndarray
        +1 transversal crossing with the normal, -1 against it, else 0.
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
    lead = p.shape[:-1]
    p, q, a, b, c = (np.ascontiguousarray(x.reshape(-1, 3)) for x in (p, q, a, b, c))

    n = _cross(b - a, c - a)
    nn = _norm(n)  # twice the triangle area
    flat = nn <= 2.0 * EPS_AREA
    nn_safe = np.where(flat, 1.0, nn)

    sp = _dot(p - a, n) / nn_safe
    sq = _dot(q - a, n) / nn_safe
    near = (np.abs(sp) < EPS_PLANE) | (np.abs(sq) < EPS_PLANE)
    opposite = (sp > 0.0) != (sq > 0.0)

    sign = np.zeros(p.shape[0], dtype=np.int8)
    degenerate = flat.copy()

    main = ~near & ~flat & opposite
    if main.any():
        idx = np.nonzero(main)[0]
        pm, qm, am, bm, cm = p[idx], q[idx], a[idx], b[idx], c[idx]
        nm = n[idx]
        d = qm - pm
        tsum = _dot(d, nm)
        # Barycentric coordinates of the plane-crossing point are
        # (t_bc, t_ca, t_ab) / tsum; scaling each by the opposite
        # vertex height turns them into signed distances to the
        # boundary edges. |tsum| > 0 here: the plane signs differ.
        ap = am - pm
        bp = bm - pm
        cp = cm - pm
        h_a = nn[idx] / np.maximum(_norm(cm - bm), _TINY)
        h_b = nn[idx] / np.maximum(_norm(am - cm), _TINY)
        h_c = nn[idx] / np.maximum(_norm(bm - am), _TINY)
        margin = np.minimum(
            np.minimum(triple_product(d, bp, cp) / tsum * h_a,
                       triple_product(d, cp, ap) / tsum * h_b),
            triple_product(d, ap, bp) / tsum * h_c,
        )
        sign[idx] = np.where(margin > EPS_EDGE, np.where(tsum > 0.0, 1, -1), 0)
        degenerate[idx] = np.abs(margin) <= EPS_EDGE

    check = near & ~flat
    if check.any():
        gap = _segment_triangle_gap(p[check], q[check], a[check], b[check], c[check],
                                    n[check], nn_safe[check])
        degenerate[check] = degenerate[check] | (gap <= EPS_EDGE)

    return sign.reshape(lead), degenerate.reshape(lead)


def segment_distances(p1, q1, p2, q2):
    """Minimum distance between closed segments [p1,q1] and [p2,q2].

    Broadcasts over leading axes; trailing shape (3,). Uses the usual
    clamped closest-point parametrisation, robust for parallel and
    near-degenerate segments.
    """
    p1, q1, p2, q2 = (np.asarray(x, dtype=float) for x in (p1, q1, p2, q2))
    d1 = q1 - p1
    d2 = q2 - p2
    r = p1 - p2
    a = _dot(d1, d1)
    e = _dot(d2, d2)
    f = _dot(d2, r)
    c = _dot(d1, r)
    b = _dot(d1, d2)
    denom = a * e - b * b
    s = np.where(denom > _TINY, (b * f - c * e) / np.where(denom > _TINY, denom, 1.0), 0.0)
    s = np.clip(s, 0.0, 1.0)
    e_safe = np.where(e > _TINY, e, 1.0)
    t = (b * s + f) / e_safe
    t_cl = np.clip(t, 0.0, 1.0)
    a_safe = np.where(a > _TINY, a, 1.0)
    s = np.where(t != t_cl, np.clip((b * t_cl - c) / a_safe, 0.0, 1.0), s)
    c1 = p1 + s[..., None] * d1
    c2 = p2 + t_cl[..., None] * d2
    return _norm(c1 - c2)


def _point_face_distance(x, a, b, c, n, nn_safe):
    """Distance from points to a triangle's face, +inf where the foot of
    the perpendicular lands outside the closed triangle (edge and vertex
    proximity is the caller's job)."""
    s = _dot(x - a, n) / nn_safe
    foot = x - s[..., None] * (n / nn_safe[..., None])
    w_a = _dot(_cross(b - foot, c - foot), n)
    w_b = _dot(_cross(c - foot, a - foot), n)
    w_c = _dot(_cross(a - foot, b - foot), n)
    inside = (w_a >= 0.0) & (w_b >= 0.0) & (w_c >= 0.0)
    return np.where(inside, np.abs(s), np.inf)


def _segment_triangle_gap(p, q, a, b, c, n, nn_safe):
    """Distance from segment [p,q] to the closed triangle (a,b,c), valid
    for near-coplanar configurations; n is the triangle's (b-a) x (c-a)
    normal and nn_safe its nonzero norm.

    Ignores strictly transversal piercing (distance would be 0), which
    cannot occur beyond EPS_PLANE of the plane; only the near-plane
    branch of crossing_signs may call this.
    """
    gap = np.minimum(
        _point_face_distance(p, a, b, c, n, nn_safe),
        _point_face_distance(q, a, b, c, n, nn_safe),
    )
    for ea, eb in ((a, b), (b, c), (c, a)):
        gap = np.minimum(gap, segment_distances(p, q, ea, eb))
    return gap
