from fractions import Fraction

import numpy as np
import pytest

from hexknot.geom import (
    EPS_CONTACT,
    EPS_EDGE,
    EPS_PLANE,
    crossing_signs,
    segment_distances,
    triple_product,
)
from conftest import exact_crossing, exact_sq_distance, random_rotation, solve_crossing

UNIT_TRI = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])


def test_triple_product_unit_basis():
    assert triple_product((1, 0, 0), (0, 1, 0), (0, 0, 1)) == 1.0


def test_triple_product_collinear_pair():
    assert triple_product((1, 0, 0), (2, 0, 0), (0, 0, 1)) == 0.0


def test_triple_product_swap_negates():
    assert triple_product((0, 1, 0), (1, 0, 0), (0, 0, 1)) == -1.0


def test_triple_product_antisymmetry(rng):
    a = rng.normal(size=(500, 3))
    b = rng.normal(size=(500, 3))
    c = rng.normal(size=(500, 3))
    lhs = triple_product(a.T, b.T, c.T)
    rhs = -triple_product(b.T, a.T, c.T)
    scale = np.maximum(np.abs(lhs), 1.0)
    assert np.all(np.abs(lhs - rhs) <= 1e-12 * scale)


def _centroid_segment(tri, offset=0.0):
    centroid = tri.mean(axis=0)
    n = np.cross(tri[1] - tri[0], tri[2] - tri[0])
    n = n / np.linalg.norm(n)
    shift = np.array([offset, 0.0, 0.0])
    return np.array([centroid - n + shift, centroid + n + shift])


def _crossing(seg, tri):
    """(sign, degenerate) of one segment against one triangle."""
    sign, degenerate = crossing_signs(seg[0], seg[1], tri[0], tri[1], tri[2])
    return int(sign), bool(degenerate)


def test_crossing_through_centroid_is_positive():
    seg = _centroid_segment(UNIT_TRI)
    assert _crossing(seg, UNIT_TRI) == (1, False)


def test_crossing_reversed_is_negative():
    seg = _centroid_segment(UNIT_TRI)[::-1]
    assert _crossing(seg, UNIT_TRI) == (-1, False)


def test_crossing_far_outside_is_zero():
    seg = _centroid_segment(UNIT_TRI, offset=10.0)
    assert _crossing(seg, UNIT_TRI) == (0, False)


def test_crossing_without_transversal_lanes(rng):
    # no lane has its endpoints on opposite sides of the plane, so the
    # transversal kernel runs on zero lanes; and on zero lanes at all
    p, q = rng.uniform(-3.0, 3.0, (2, 3, 200))
    p[2], q[2] = np.abs(p[2]) + 0.5, np.abs(q[2]) + 0.5
    signs, degenerate = crossing_signs(p, q, *UNIT_TRI[:, :, None])
    assert signs.shape == (200,) and not signs.any() and not degenerate.any()
    signs, degenerate = crossing_signs(*np.zeros((5, 3, 0)))
    assert signs.shape == degenerate.shape == (0,)
    assert (signs.dtype, degenerate.dtype) == (np.int8, bool)


def test_crossing_cyclic_triangle_permutation(rng):
    for _ in range(200):
        tri = rng.normal(size=(3, 3))
        seg = rng.normal(size=(2, 3))
        base = _crossing(seg, tri)
        for perm in ((1, 2, 0), (2, 0, 1)):
            assert _crossing(seg, tri[list(perm)]) == base


def test_crossing_segment_reversal_negates(rng):
    flips = 0
    for _ in range(300):
        tri = rng.normal(size=(3, 3))
        seg = rng.normal(size=(2, 3))
        fwd, fwd_degenerate = _crossing(seg, tri)
        bwd, bwd_degenerate = _crossing(seg[::-1], tri)
        if fwd_degenerate or bwd_degenerate:
            continue
        assert bwd == -fwd
        flips += fwd != 0
    assert flips > 10  # the sweep actually exercised crossings


def test_crossing_endpoint_on_plane_near_disk_is_degenerate():
    seg = np.array([[0.25, 0.25, 0.0], [0.25, 0.25, 1.0]])
    assert _crossing(seg, UNIT_TRI) == (0, True)


def test_crossing_through_boundary_edge_is_degenerate():
    # crosses the plane exactly on the edge between (0,0,0) and (1,0,0)
    seg = np.array([[0.5, 0.0, -1.0], [0.5, 0.0, 1.0]])
    assert _crossing(seg, UNIT_TRI) == (0, True)


def test_coplanar_far_segment_is_zero():
    seg = np.array([[5.0, 5.0, 0.0], [6.0, 5.0, 0.0]])
    assert _crossing(seg, UNIT_TRI) == (0, False)


def test_coplanar_overlapping_segment_is_degenerate():
    seg = np.array([[-1.0, 0.25, 0.0], [1.0, 0.25, 0.0]])
    assert _crossing(seg, UNIT_TRI) == (0, True)


def test_flat_triangle_is_degenerate():
    tri = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
    seg = _centroid_segment(UNIT_TRI)
    assert _crossing(seg, tri) == (0, True)


def test_crossing_matches_linear_solve_oracle(rng):
    checked = 0
    for _ in range(2000):
        tri = rng.normal(size=(3, 3))
        seg = rng.normal(size=(2, 3))
        oracle_sign, margin = solve_crossing(seg[0], seg[1], *tri)
        if abs(margin) < 1e-6:
            continue
        ours, degenerate = _crossing(seg, tri)
        if degenerate:
            continue
        assert ours == oracle_sign
        checked += 1
    assert checked > 1500


def test_crossing_signs_batch_matches_scalar(rng):
    tri = rng.normal(size=(64, 3, 3))
    seg = rng.normal(size=(64, 2, 3))
    signs, degen = crossing_signs(seg[:, 0].T, seg[:, 1].T,
                                  tri[:, 0].T, tri[:, 1].T, tri[:, 2].T)
    for k in range(64):
        s, d = crossing_signs(seg[k, 0], seg[k, 1], tri[k, 0], tri[k, 1], tri[k, 2])
        assert s == signs[k] and d == degen[k]


def test_crossing_margins_at_the_tolerances():
    # One fixed scalene triangle, turned out of the coordinate planes. Each
    # segment meets its plane a signed distance delta (inside positive) from
    # the midpoint of one edge; its near endpoint sits eps off the plane
    # (eps = 1: well off) and its far one a unit below, along a direction
    # tilted off the normal. Both directions of every segment are tested.
    tri = (np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.3, 0.9, 0.0]])
           @ random_rotation(np.random.default_rng(5)).T + (0.2, -0.1, 0.4))
    normal = np.cross(tri[1] - tri[0], tri[2] - tri[0])
    normal /= np.linalg.norm(normal)
    along = normal + 0.3 * (tri[1] - tri[0])  # unit height over the plane
    lanes, deltas, epsilons = [], [], []
    for i in range(3):
        x, y = tri[i], tri[(i + 1) % 3]
        inward = np.cross(normal, y - x) / np.linalg.norm(y - x)
        for delta in (s * k * EPS_EDGE for s in (1, -1) for k in (0.1, 0.5, 2, 10, 1e3)):
            hit = (x + y) / 2.0 + delta * inward
            for eps in [s * k * EPS_PLANE for s in (1, -1) for k in (0.1, 0.5, 2, 10)] + [1.0]:
                near, far = hit + eps * along, hit - along
                lanes += [(near, far), (far, near)]
                deltas += [delta, delta]
                epsilons += [eps, eps]
    seg = np.array(lanes)
    deltas, epsilons = np.abs(deltas), np.abs(epsilons)
    sign, degenerate = crossing_signs(seg[:, 0].T, seg[:, 1].T, *tri[:, :, None])
    exact = [exact_crossing(*([Fraction(float(x)) for x in point] for point in (*pq, *tri)))
             for pq in seg]
    free = np.nonzero(~degenerate)[0]
    assert [int(sign[k]) for k in free] == [exact[k] for k in free]
    assert set(sign[free].tolist()) == {-1, 0, 1}
    assert not degenerate[(deltas >= 10 * EPS_EDGE) & (epsilons >= 10 * EPS_PLANE)].any()
    assert degenerate[(deltas <= 0.5 * EPS_EDGE) & (epsilons == 1.0)].all()


def _touch(s1, s2):
    """True iff two closed segments come within EPS_CONTACT."""
    return bool(segment_distances(*s1, *s2) <= EPS_CONTACT)


def test_segments_intersect_planar_crossing():
    s1 = [(0, 0, 0), (1, 0, 0)]
    s2 = [(0.5, -1, 0), (0.5, 1, 0)]
    assert _touch(s1, s2)


def test_segments_intersect_parallel_offset():
    assert not _touch([(0, 0, 0), (1, 0, 0)], [(0, 0, 1), (1, 0, 1)])


def test_segments_intersect_collinear_disjoint():
    assert not _touch([(0, 0, 0), (1, 0, 0)], [(2, 0, 0), (3, 0, 0)])


def test_segments_intersect_shared_endpoint():
    assert _touch([(0, 0, 0), (1, 0, 0)], [(1, 0, 0), (1, 1, 0)])


def test_segments_intersect_within_contact_tolerance():
    gap = 0.5 * EPS_CONTACT
    assert _touch([(0, 0, 0), (1, 0, 0)], [(0.5, -1, gap), (0.5, 1, gap)])
    assert not _touch([(0, 0, 0), (1, 0, 0)], [(0.5, -1, 1e-9), (0.5, 1, 1e-9)])


def test_segments_intersect_symmetric(rng):
    for _ in range(500):
        s1 = rng.normal(size=(2, 3))
        s2 = rng.normal(size=(2, 3))
        assert _touch(s1, s2) == _touch(s2, s1)


def test_segment_distance_known_values():
    assert segment_distances((0, 0, 0), (1, 0, 0),
                             (0, 0, 1), (1, 0, 1)) == pytest.approx(1.0)
    assert segment_distances((0, 0, 0), (1, 0, 0),
                             (2, 0, 0), (3, 0, 0)) == pytest.approx(1.0)
    assert segment_distances((0, 0, 0), (1, 0, 0),
                             (0.5, -1, 0.25), (0.5, 1, 0.25)) == pytest.approx(0.25)


def test_segment_distance_matches_dense_sampling(rng):
    t = np.linspace(0.0, 1.0, 201)
    for _ in range(50):
        s1 = rng.normal(size=(2, 3))
        s2 = rng.normal(size=(2, 3))
        p = s1[0] + t[:, None] * (s1[1] - s1[0])
        q = s2[0] + t[:, None] * (s2[1] - s2[0])
        grid = np.linalg.norm(p[:, None, :] - q[None, :, :], axis=-1).min()
        ours = segment_distances(*s1, *s2)
        # the sampled minimum can only overestimate, by at most the
        # Lipschitz constant times half a grid step
        lip = np.linalg.norm(s1[1] - s1[0]) + np.linalg.norm(s2[1] - s2[0])
        assert ours <= grid + 1e-12
        assert grid - ours <= lip / 400.0 + 1e-12


def test_segment_distance_exact_on_point_and_nearly_parallel_segments(rng):
    """Within 1e-15 of the exact distance, in rationals over the float
    endpoints, where the textbook a*e - b*b cancels or vanishes: a point
    second or first segment, and a second segment nearly parallel to the
    first (tilts 1e-4 to 1e-12) at gaps 0 to 1e-3."""
    lanes = []
    for _ in range(20):
        p1, q1, p2, n, m = rng.normal(size=(5, 3))
        d1 = q1 - p1
        lanes += [(p1, q1, p2, p2), (p1, p1, p2, q1)]
        for tilt in 10.0 ** -np.arange(4, 13, 2):
            for gap in (0.0, 1e-13, 1e-11, 1e-3):
                lanes.append((p1, q1, p1 + 0.3 * d1 + gap * n, p1 + 1.2 * d1 + gap * n + tilt * m))
    ends = np.array(lanes).transpose(1, 2, 0)  # (4, 3, lanes)
    dist = segment_distances(*ends)
    for lane, points in enumerate(np.array(lanes).tolist()):
        exact = exact_sq_distance(*([Fraction(x) for x in point] for point in points))
        assert abs(dist[lane] - float(exact) ** 0.5) <= 1e-15


def test_kernels_broadcast_after_the_component_axis(rng):
    # segments along one batch axis, second segments or triangles along
    # another: every lane matches the single-query call
    p = 2.0 * rng.normal(size=(3, 4, 1))
    q = -p  # long segments through the triangles' region
    p2, q2 = rng.normal(size=(2, 3, 1, 5))
    tri = rng.normal(size=(3, 3, 1, 5))
    dist = segment_distances(p, q, p2, q2)
    signs, degen = crossing_signs(p, q, *tri)
    assert dist.shape == signs.shape == degen.shape == (4, 5)
    for i in range(4):
        for j in range(5):
            assert dist[i, j] == segment_distances(p[:, i, 0], q[:, i, 0],
                                                   p2[:, 0, j], q2[:, 0, j])
            s, dg = crossing_signs(p[:, i, 0], q[:, i, 0], *tri[:, :, 0, j])
            assert (signs[i, j], degen[i, j]) == (s, dg)
    assert np.any(signs != 0)
