import re
from fractions import Fraction

import numpy as np
import pytest

from hexknot import action_angle
from hexknot.action_angle import (
    NON_ADJACENT_EDGE_PAIRS,
    _fold_terms,
    build_hexagon,
    extract_action_angle,
    interior_coordinates,
    is_embedded,
    is_interior,
    sample_action_batch,
    sample_angles_batch,
    vertex_components,
)
from hexknot.geom import (
    EPS_CONTACT,
    EPS_CROSS2,
    EPS_EDGE,
    EPS_LINE,
    EPS_PLANE,
    segment_distances,
)
from hexknot.invariants import TREFOIL_PAIRS, KnotClass, classify_batch, curl, disk_counts
from hexknot.measure import CHUNK_SIZE, sample_coordinate_stream
from conftest import (
    REGULAR_ANGLES,
    REGULAR_DIAGONALS,
    exact_class,
    exact_near_disk,
    exact_sq_distance,
    pair_endpoints,
    random_rotation,
    reference_distances,
)

SQ3 = np.sqrt(3.0)


def edge_lengths(vertices):
    v = np.asarray(vertices)
    return np.linalg.norm(np.roll(v, -1, axis=-2) - v, axis=-1)


class TestPolytope:
    def test_membership(self):
        assert is_interior((1.0, 1.0, 1.0))
        assert not is_interior((0.5, 0.5, 1.5))

    def test_interior(self):
        assert is_interior((1.0, 1.0, 1.0))
        assert not is_interior((1.0, 1.0, 2.0))
        assert not is_interior((2.0, 1.0, 1.5))

    def test_vectorised(self):
        d = np.array([[1, 1, 1], [0.5, 0.5, 1.5], [2, 2, 2]], dtype=float)
        assert list(is_interior(d)) == [True, False, False]

    @staticmethod
    def nine_comparisons(d):
        """is_interior as written before: the three 0 < d_i terms stated too."""
        d1, d2, d3 = d[..., 0], d[..., 1], d[..., 2]
        return ((0.0 < d1) & (d1 < 2.0) & (0.0 < d2) & (d2 < 2.0) & (0.0 < d3) & (d3 < 2.0)
                & (d3 < d1 + d2) & (d1 < d2 + d3) & (d2 < d1 + d3))

    def test_positivity_follows_from_triangle_inequalities(self, rng):
        cube = rng.uniform(-0.5, 2.5, (10 ** 6, 3))
        assert np.array_equal(is_interior(cube), self.nine_comparisons(cube))
        edges = np.array([0.0, -0.0, 5e-324, -5e-324, 1.0, 2.0, np.nan, np.inf, -np.inf])
        triples = np.stack(np.meshgrid(edges, edges, edges), axis=-1).reshape(-1, 3)
        with np.errstate(invalid="ignore"):  # inf - inf in the sums
            old = self.nine_comparisons(triples)
            assert np.array_equal(is_interior(triples), old)
        assert old.sum() == 2  # (1, 1, 1) and three 5e-324s


def fold_reference(u):
    """(n, 3) triples of a (3, n) cube draw, folded lane by lane: where the
    largest coordinate exceeds the sum of the other two, each of the
    other two becomes the largest minus itself."""
    d = u.T.copy()
    for row in d:
        i = int(np.argmax(row))
        j, k = (i + 1) % 3, (i + 2) % 3
        if row[i] > row[j] + row[k]:
            row[j], row[k] = row[i] - row[j], row[i] - row[k]
    return d


def rejection_reference(rng, n):
    """The rejection sampler the fold replaced: oversized uniform cube
    draws, kept where interior, in draw order."""
    out = np.empty((n, 3))
    have = 0
    while have < n:
        draw = rng.uniform(0.0, 2.0, (int((n - have) * 2.2) + 16, 3))
        good = draw[is_interior(draw)][:n - have]
        out[have:have + len(good)] = good
        have += len(good)
    return out


class TestSamplers:
    def test_action_samples_are_interior(self):
        rng = np.random.default_rng(3)
        for _ in range(500):
            assert is_interior(sample_action_batch(rng, 1)).all()

    def test_action_deterministic_for_fixed_seed(self):
        a = sample_action_batch(np.random.default_rng(42), 5)
        b = sample_action_batch(np.random.default_rng(42), 5)
        assert np.array_equal(a, b)

    def test_batch_matches_interior_contract(self):
        d = sample_action_batch(np.random.default_rng(5), 20000)
        assert d.shape == (20000, 3)
        assert is_interior(d).all()

    def test_boundary_lane_is_drawn_again(self):
        class Queued:  # hands out the given (3, n) cube draws in order
            def __init__(self, *draws):
                self.draws, self.sizes = list(draws), []

            def uniform(self, low, high, size):
                assert (low, high) == (0.0, 2.0)
                self.sizes.append(size)
                return self.draws.pop(0)

        # lane 1 is (0.0, 1.0, 1.0): not a corner, so it stays on the face d1 = 0
        first = np.array([[0.5, 0.0, 1.9], [1.0, 1.0, 0.2], [1.0, 1.0, 0.3]])
        redraw = np.array([[1.9], [0.4], [0.5]])
        rng = Queued(first, redraw)
        d = sample_action_batch(rng, 3)
        assert rng.sizes == [(3, 3), (3, 1)]
        assert is_interior(d).all()
        assert np.array_equal(d[[0, 2]], fold_reference(first)[[0, 2]])
        assert np.array_equal(d[1], fold_reference(redraw)[0])

    def test_draws_three_doubles_per_sample(self):
        rng, twin = (np.random.Generator(np.random.Philox(key=7)) for _ in range(2))
        d = sample_action_batch(rng, 1000)
        assert np.array_equal(d, fold_reference(twin.uniform(0.0, 2.0, (3, 1000))))
        assert np.array_equal(rng.random(8), twin.random(8))

    def test_fold_matches_rejection_sampler(self):
        # 4 * 10^6 draws each: each mean (7/6 on the polytope), the second
        # moments and four box probabilities agree within sampling error
        def features(d):
            d1, d2, d3 = d.T
            yield from (d1, d2, d3, d1 * d1, d2 * d2, d3 * d3, d1 * d2, d2 * d3, d3 * d1)
            yield from (((d > 0.8) & (d < 1.2)).all(axis=1), d1 > 1.5, (d < 0.5).all(axis=1),
                        (d1 < 0.3) & (d2 > 1.0))

        n = 4 * 10**6
        moments = {}
        for sampler, seed in ((sample_action_batch, 1), (rejection_reference, 2)):
            rng = np.random.default_rng(seed)
            sums = np.zeros((2, 13))
            for _ in range(4):
                for k, f in enumerate(features(sampler(rng, n // 4))):
                    sums[:, k] += f.sum(), (f * f).sum()
            mean = sums[0] / n
            moments[sampler] = mean, (sums[1] / n - mean * mean) / n
        (fold, fold_var), (ref, ref_var) = moments.values()
        assert np.all(np.abs(fold - ref) < 4.0 * np.sqrt(fold_var + ref_var))
        assert np.all(np.abs(fold[:3] - 7.0 / 6.0) < 4.0 * np.sqrt(fold_var[:3]))

    def test_acceptance_rate_is_half(self):
        # polytope volume 4 out of cube volume 8
        rng = np.random.default_rng(11)
        hits = 0
        for _ in range(10):
            hits += int(is_interior(rng.uniform(0.0, 2.0, (1_000_000, 3))).sum())
        assert abs(hits / 10_000_000 - 0.5) < 0.001

    def test_angles_range_and_moments(self):
        rng = np.random.default_rng(13)
        t = sample_angles_batch(rng, 1_000_000)
        assert t.min() >= 0.0 and t.max() < 2.0 * np.pi
        assert abs(t[:, 0].mean() - np.pi) < 0.01
        assert abs((t[:, 0] < np.pi).mean() - 0.5) < 0.002
        single = sample_angles_batch(np.random.default_rng(0), 1)
        assert single.shape == (1, 3) and (single >= 0).all() and (single < 2 * np.pi).all()

    def test_box_probability_matches_volume_ratio(self):
        # [0.8, 1.2]^3 lies inside the polytope, so its sampling
        # probability is its volume over vol(P6) = 4.
        d = sample_action_batch(np.random.default_rng(17), 10_000_000)
        inside = ((d > 0.8) & (d < 1.2)).all(axis=1).mean()
        expected = 0.4 ** 3 / 4.0
        sigma = np.sqrt(expected * (1 - expected) / 10_000_000)
        assert abs(inside - expected) < 3 * sigma


def element_layout_hexagon(diagonals, angles):
    """build_hexagon's formulas written vertex by vertex into a
    (..., 6, 3) zero array: the reference for its component-first buffer."""
    d, th = interior_coordinates(diagonals, angles)
    _, _, dd, r, c, s = _fold_terms(d, th)
    d1, d2, d3 = d[..., 0], d[..., 1], d[..., 2]
    v = np.zeros(d.shape[:-1] + (6, 3))
    v[..., 2, 0] = d1
    v[..., 4, 0] = (d1 * d1 - d2 * d2 + d3 * d3) / (2.0 * d1)
    v[..., 4, 1] = dd / (2.0 * d1)
    for i in range(3):
        p, q = v[..., 2 * i, :], v[..., (2 * i + 2) % 6, :]
        h = r[i] * c[i] / (2.0 * d[..., i])
        v[..., 2 * i + 1, 0] = 0.5 * (p[..., 0] + q[..., 0]) - h * (q[..., 1] - p[..., 1])
        v[..., 2 * i + 1, 1] = 0.5 * (p[..., 1] + q[..., 1]) + h * (q[..., 0] - p[..., 0])
        v[..., 2 * i + 1, 2] = 0.5 * r[i] * s[i]
    return v


class TestBuildHexagon:
    @pytest.mark.parametrize("lead", [(), (7,), (2, 5)])
    def test_matches_element_layout(self, rng, lead):
        n = int(np.prod(lead, dtype=int))
        d = sample_action_batch(rng, n).reshape(lead + (3,))
        th = sample_angles_batch(rng, n).reshape(lead + (3,))
        v = build_hexagon(d, th)
        assert v.shape == lead + (6, 3)
        assert np.array_equal(v, element_layout_hexagon(d, th))

    def test_vertex_components_reads_without_a_copy(self, rng):
        v = build_hexagon(sample_action_batch(rng, 50), sample_angles_batch(rng, 50))
        w = vertex_components(v)
        assert np.shares_memory(w, v) and w.flags.c_contiguous
        assert np.array_equal(w, np.ascontiguousarray(v.transpose(1, 2, 0)))

    def test_regular_planar_hexagon_vertices(self):
        v = build_hexagon(REGULAR_DIAGONALS, REGULAR_ANGLES)
        assert np.allclose(v[1], [SQ3 / 2, -0.5, 0.0], atol=1e-12)
        assert np.allclose(v[4], [SQ3 / 2, 1.5, 0.0], atol=1e-12)
        assert np.allclose(edge_lengths(v), 1.0, atol=1e-12)

    def test_right_angle_fold_lifts_apex(self):
        v = build_hexagon(REGULAR_DIAGONALS, (np.pi / 2, np.pi, np.pi))
        assert np.allclose(v[1], [SQ3 / 2, 0.0, 0.5], atol=1e-12)

    def test_unit_edges_and_diagonals_random(self, rng):
        d = sample_action_batch(rng, 10000)
        th = sample_angles_batch(rng, 10000)
        v = build_hexagon(d, th)
        assert np.abs(edge_lengths(v) - 1.0).max() < 1e-10
        d1 = np.linalg.norm(v[:, 2] - v[:, 0], axis=-1)
        d2 = np.linalg.norm(v[:, 4] - v[:, 2], axis=-1)
        d3 = np.linalg.norm(v[:, 0] - v[:, 4], axis=-1)
        assert np.abs(np.stack([d1, d2, d3], axis=-1) - d).max() < 1e-10

    def test_flat_angles_give_planar_polygon(self, rng):
        d = sample_action_batch(rng, 1000)
        v = build_hexagon(d, np.broadcast_to(np.pi, (1000, 3)))
        assert np.abs(v[..., 2]).max() < 1e-12

    def test_standard_position(self, rng):
        d = sample_action_batch(rng, 100)
        th = sample_angles_batch(rng, 100)
        v = build_hexagon(d, th)
        assert np.abs(v[:, 0]).max() == 0.0
        assert np.abs(v[:, 2, 1:]).max() == 0.0
        assert (v[:, 2, 0] > 0).all()
        assert (v[:, 4, 1] > 0).all() and np.abs(v[:, 4, 2]).max() == 0.0

    def test_rejects_non_interior(self):
        with pytest.raises(ValueError, match="open moment polytope"):
            build_hexagon((1.0, 1.0, 2.0), REGULAR_ANGLES)

    def test_area_scale_is_four_times_heron(self):
        d = np.array([1.2, 0.9, 1.4])
        s = d.sum() / 2
        heron = np.sqrt(s * (s - d[0]) * (s - d[1]) * (s - d[2]))
        assert _fold_terms(d, np.array([1.0, 2.0, 3.0]))[2] == pytest.approx(4.0 * heron, rel=1e-12)

        # On stream lanes, each of _fold_terms' diagonal terms is the
        # length its docstring names on build_hexagon's vertices: diagonal
        # i runs from vertex 2i to 2i + 2, and its apex is vertex 2i + 1.
        d, th = next(sample_coordinate_stream(3, 400))
        dl, e, dd, r, _, _ = _fold_terms(d, th)
        v = build_hexagon(d, th)
        cross = np.cross(v[:, 2] - v[:, 0], v[:, 4] - v[:, 0])
        assert np.abs(dd - 2.0 * np.linalg.norm(cross, axis=-1)).max() < 1e-12
        for i in range(3):
            j, k = (i + 1) % 3, (i + 2) % 3
            p, apex, q = v[:, 2 * i], v[:, 2 * i + 1], v[:, (2 * i + 2) % 6]
            corner = v[:, (2 * i + 4) % 6]  # where diagonals j and k meet
            a, b = p - corner, q - corner
            cosine = np.sum(a * b, axis=-1) / (np.linalg.norm(a, axis=-1)
                                               * np.linalg.norm(b, axis=-1))
            assert np.abs(e[i] / (2.0 * dl[j] * dl[k]) - cosine).max() < 1e-12
            height = np.linalg.norm(np.cross(apex - p, q - p), axis=-1) / dl[i]
            assert np.abs(r[i] / 2.0 - height).max() < 1e-12


class TestExtract:
    def test_round_trip_single(self):
        d = np.array([1.2, 0.9, 1.4])
        th = np.array([1.0, 2.0, 3.0])
        d2, th2 = extract_action_angle(build_hexagon(d, th))
        assert np.abs(d2 - d).max() < 1e-9
        assert np.abs(np.mod(th2 - th + np.pi, 2 * np.pi) - np.pi).max() < 1e-9

    def test_round_trip_random(self, rng):
        d = sample_action_batch(rng, 10000)
        th = sample_angles_batch(rng, 10000)
        v = build_hexagon(d, th)
        d2, th2 = extract_action_angle(v)
        assert np.abs(d2 - d).max() < 1e-9
        assert np.abs(np.mod(th2 - th + np.pi, 2 * np.pi) - np.pi).max() < 1e-9
        v2 = build_hexagon(d2, th2)
        assert np.abs(v2 - v).max() < 1e-9

    def test_regular_hexagon_coordinates(self):
        d, th = extract_action_angle(build_hexagon(REGULAR_DIAGONALS, REGULAR_ANGLES))
        assert np.allclose(d, SQ3, atol=1e-12)
        assert np.allclose(th, np.pi, atol=1e-12)

    def test_rigid_motion_invariance(self, rng):
        d = np.array([1.3, 0.8, 1.1])
        th = np.array([0.7, 4.0, 2.2])
        v = build_hexagon(d, th)
        moved = v @ random_rotation(rng).T + np.array([3.0, -2.0, 7.0])
        d2, th2 = extract_action_angle(moved)
        assert np.abs(d2 - d).max() < 1e-9
        assert np.abs(np.mod(th2 - th + np.pi, 2 * np.pi) - np.pi).max() < 1e-9

    def test_zero_angle_never_reads_two_pi(self):
        # arctan2 gives tiny negative angles here, which np.mod alone
        # rounds up to exactly 2*pi.
        rng = np.random.default_rng(0)
        v = build_hexagon(np.ones(3), np.array([0.0, 1.0, 1.0]))
        for _ in range(2000):
            _, th = extract_action_angle(v @ random_rotation(rng).T)
            assert th.min() >= 0.0 and th.max() < 2 * np.pi

    def test_degenerate_frame_raises(self):
        flat = np.zeros((6, 3))
        flat[:, 0] = np.arange(6.0)  # v1, v3, v5 collinear
        with pytest.raises(ValueError, match="v1, v3, v5 are collinear"):
            extract_action_angle(flat)


class TestPolygonSpaceMoments:
    """The samplers and build_hexagon give uniform hexagons, checked by
    moments that hold exactly in polygon space.

    A uniform hexagon's six unit edge vectors are exchangeable and sum to
    0, so E[e_i . e_j] = -1/5 for i != j, and a chord spanning k edges
    has E|v_i - v_{i+k}|^2 = k (6 - k) / 5. The same hexagons with their
    edges put in a random order per lane are uniform too, so their
    diagonals are uniform on the polytope: d1 is the largest on a third
    of them, and the central triangle is obtuse on pi/2 - 1 of those. They
    are knotted as often as the stream hexagons they come from; at 2^18
    lanes each (about 30 trefoils) that two-sample z catches only a gross
    dependence of the knot type on edge order.
    """

    N_CHUNKS, N_PERMUTED_CHUNKS = 16, 4  # 2^20 and 2^18 stream samples

    @staticmethod
    def z_scores(total, total_sq, n, expected):
        """(mean - expected) / standard error, from running sums of n values."""
        mean = total / n
        return (mean - expected) / np.sqrt((total_sq / n - mean * mean) / n)

    def test_edge_products_chords_and_permuted_diagonals(self):
        rng = np.random.default_rng(2024)
        pairs = [(i, j) for i in range(6) for j in range(i + 1, 6)]
        total = total_sq = 0.0
        permuted, knotted = [], []
        for k, (d, th) in enumerate(sample_coordinate_stream(11, self.N_CHUNKS * CHUNK_SIZE)):
            v = build_hexagon(d, th)
            edges = np.roll(v, -1, axis=-2) - v
            products = [np.sum(edges[:, i] * edges[:, j], axis=-1) for i, j in pairs]
            chords = [np.sum((v[:, i] - v[:, (i + span) % 6]) ** 2, axis=-1)
                      for span, starts in ((2, range(6)), (3, range(3))) for i in starts]
            values = np.stack(products + chords)
            total, total_sq = total + values.sum(axis=1), total_sq + (values * values).sum(axis=1)
            if k < self.N_PERMUTED_CHUNKS:
                order = rng.random(edges.shape[:2]).argsort(axis=1)
                shuffled = np.take_along_axis(edges, order[..., None], axis=1)
                w = np.concatenate([np.zeros_like(v[:, :1]), np.cumsum(shuffled[:, :5], axis=1)],
                                   axis=1)
                permuted.append(extract_action_angle(w)[0])
                knotted.append([np.isin(classify_batch(x), list(TREFOIL_PAIRS)).sum()
                                for x in (v, w)])
        expected = np.array([-0.2] * 15 + [1.6] * 6 + [1.8] * 3)
        z = list(self.z_scores(total, total_sq, self.N_CHUNKS * CHUNK_SIZE, expected))

        d = np.concatenate(permuted)
        largest = (d[:, 0] > d[:, 1]) & (d[:, 0] > d[:, 2])
        obtuse = d[largest, 0] ** 2 > d[largest, 1] ** 2 + d[largest, 2] ** 2
        for hits, share in ((largest, 1.0 / 3.0), (obtuse, np.pi / 2.0 - 1.0)):
            z.append(self.z_scores(hits.sum(), hits.sum(), hits.size, share))
        (from_stream, from_permuted), n = np.sum(knotted, axis=0), len(d)
        pooled = (from_stream + from_permuted) / (2 * n)
        z.append((from_permuted - from_stream) / np.sqrt(2 * n * pooled * (1 - pooled)))
        assert len(z) == 27 and np.abs(z).max() < 4.5, np.round(z, 2)


def near_contact_hexagons(rng, repeats=8):
    """Sampled hexagons with edge j of a non-adjacent pair (i, j) moved
    next to edge i: collinear and overlapping, parallel at gaps 0, 1e-13
    and 1e-11, nearly parallel at 1e-13 (tilt 1e-10) and 1e-11 (tilt
    1e-5), crossing in a plane, and skew crossings at line distances
    1e-13 and from EPS_LINE/10 to 10*EPS_LINE. After all of those come
    the edges of the line-distance certificate: edge j at line distance
    2*EPS_LINE, tilted so that |e_i x e_j|^2 is 0.99 and 1.01 times
    EPS_CROSS2. Last come the edges of the contact threshold: edge j
    parallel, and skew across edge i, at gaps +-0.5 and +-2 times
    EPS_CONTACT."""
    def offsets(h_skew):
        return [  # per end of edge j: (share of edge i, offset along n1, along n2)
            ((0.2, 0, 0), (1.3, 0, 0)),
            ((0.3, 0, 0), (0.8, 0, 0)),
            ((0.3, 1e-13, 0), (0.8, 1e-13, 0)),
            ((0.3, 1e-11, 0), (0.8, 1e-11, 0)),
            ((0.3, 1e-11, 0), (0.8, 1e-11, 1e-5)),
            ((0.3, 1e-13, 0), (0.8, 1e-13, 1e-10)),
            ((0.5, 0.5, 0), (0.5, -0.5, 0)),
            ((0.5, 0.5, 1e-13), (0.5, -0.5, 1e-13)),
            ((0.5, 0.5, h_skew), (0.5, -0.5, h_skew)),
        ]

    def moved(i, j, ends):
        v = build_hexagon(sample_action_batch(rng, 1)[0], sample_angles_batch(rng, 1)[0])
        p, u = v[i], v[(i + 1) % 6] - v[i]
        n1 = np.cross(u, rng.normal(size=3))
        n1 /= np.linalg.norm(n1)
        n2 = np.cross(u / np.linalg.norm(u), n1)
        for k, (s, a, b) in zip((j, (j + 1) % 6), ends):
            v[k] = p + s * u + a * n1 + b * n2
        return v

    hexagons = []
    for i, j in NON_ADJACENT_EDGE_PAIRS:
        for _ in range(repeats):
            h_skew = EPS_LINE * 10.0 ** rng.uniform(-1.0, 1.0)
            hexagons += [moved(i, j, ends) for ends in offsets(h_skew)]
    for i, j in NON_ADJACENT_EDGE_PAIRS:  # |e_i x e_j| is the tilt, as |e_i| = 1
        hexagons += [moved(i, j, ((0.3, 2 * EPS_LINE, 0), (0.8, 2 * EPS_LINE, tilt)))
                     for tilt in np.sqrt(EPS_CROSS2 * np.array([0.99, 1.01]))]
    for i, j in NON_ADJACENT_EDGE_PAIRS:
        hexagons += [moved(i, j, ends) for gap in EPS_CONTACT * np.array([0.5, -0.5, 2, -2])
                     for ends in (((0.3, gap, 0), (0.8, gap, 0)),
                                  ((0.5, 0.5, gap), (0.5, -0.5, gap)))]
    return np.array(hexagons)


class TestEmbedded:
    def test_planar_regular_hexagon_embedded(self):
        assert bool(is_embedded(build_hexagon(REGULAR_DIAGONALS, REGULAR_ANGLES)))

    def test_shared_point_configuration_not_embedded(self):
        shared = np.array([0.5, 0.5, 0.0])
        v = np.array([
            [0.0, 0.0, 0.0], shared, [1.0, 0.0, 0.0],
            [1.0, 1.0, 0.5], shared, [0.0, 1.0, 0.5],
        ])
        assert not bool(is_embedded(v))

    def test_random_samples_embedded(self, rng):
        d = sample_action_batch(rng, 1_000_000)
        th = sample_angles_batch(rng, 1_000_000)
        failures = int((~is_embedded(build_hexagon(d, th))).sum())
        assert failures == 0

    def test_leading_axes_broadcast(self, rng):
        v = build_hexagon(sample_action_batch(rng, 300), sample_angles_batch(rng, 300))
        grid = v.reshape(2, 150, 6, 3)
        assert np.array_equal(is_embedded(grid), is_embedded(v).reshape(2, 150))

    def test_certificate_matches_segment_distances(self, rng, monkeypatch):
        """is_embedded equals segment_distances > EPS_CONTACT over all 9
        pairs, and every pair within EPS_CONTACT reaches segment_distances
        (so the line-distance certificate never clears a contact)."""
        near = near_contact_hexagons(rng)
        v = np.concatenate([near, build_hexagon(sample_action_batch(rng, 1 << 16),
                                                sample_angles_batch(rng, 1 << 16))])
        dist = reference_distances(v)
        contact = ~(dist > EPS_CONTACT)
        assert contact[:, :len(near)].any(axis=0).sum() >= len(near) // 2
        assert not contact[:, len(near):].any()

        sent = []

        def spy(*ends):
            sent.append(np.concatenate(ends).T.copy())
            return segment_distances(*ends)

        monkeypatch.setattr(action_angle, "segment_distances", spy)
        assert np.array_equal(is_embedded(v), ~contact.any(axis=0))
        assert len(sent) == 1
        checked = {row.tobytes() for row in sent[0]}
        for ends, lanes in zip(pair_endpoints(v), contact):
            for row in np.concatenate(ends)[:, lanes].T:
                assert row.tobytes() in checked

    def test_certificate_matches_exact_distances(self, rng):
        """is_embedded is True exactly where no non-adjacent pair of a
        near-contact lane lies within EPS_CONTACT, with each squared
        distance computed exactly in rationals. Exact on the float
        vertices, not on the real hexagon they round."""
        near = near_contact_hexagons(rng)
        limit = Fraction(EPS_CONTACT) ** 2
        apart = np.array([
            all(exact_sq_distance(w[i], w[(i + 1) % 6], w[j], w[(j + 1) % 6]) > limit
                for i, j in NON_ADJACENT_EDGE_PAIRS)
            for w in ([[Fraction(x) for x in point] for point in v] for v in near.tolist())])
        assert (~apart).sum() >= len(near) // 2
        assert np.array_equal(is_embedded(near), apart)

    @pytest.mark.parametrize("seed, trefoils", [(20240815, 0), (7, 1)])
    def test_decided_near_contact_lanes_match_the_exact_class(self, seed, trefoils):
        """Every near-contact lane that classify_batch does not call
        degenerate gets the same class from the exact oracle: an embedded
        unknot with chirality 0, or the trefoil's (chirality, curl)."""
        near = near_contact_hexagons(np.random.default_rng(seed))
        codes = classify_batch(near)
        decided = np.nonzero(codes != KnotClass.DEGENERATE)[0]
        assert len(decided) >= 100
        assert np.isin(codes[decided], list(TREFOIL_PAIRS)).sum() == trefoils
        for lane in decided:
            embedded, chirality, curl_sign = exact_class(near[lane])
            cls = KnotClass(codes[lane])
            assert embedded, lane
            if cls == KnotClass.UNKNOT:
                assert chirality == 0, lane
            else:
                assert TREFOIL_PAIRS[cls] == (chirality, curl_sign), lane

    @pytest.mark.parametrize("seed", [20240815, 7])
    def test_degenerate_near_contact_lanes_have_an_exact_witness(self, seed):
        """Every near-contact lane that classify_batch calls degenerate has
        a reason within 10 tolerances, exact in rationals on the float
        vertices: a non-adjacent pair within 10*EPS_CONTACT, or an edge of
        a crossing test the cascade reached that comes within 10*EPS_EDGE
        of the disk's boundary, or has an endpoint within 10*EPS_PLANE of
        the disk's plane, over the disk. Float distances only pick the
        pairs worth an exact one."""
        near = near_contact_hexagons(np.random.default_rng(seed))
        degenerate = np.flatnonzero(classify_batch(near) == KnotClass.DEGENERATE)
        assert len(degenerate) >= 500
        close = reference_distances(near) <= 20 * EPS_CONTACT
        counts, flags = disk_counts(near)
        clean = (counts != 0) & ~flags  # the cascade goes on past a clean nonzero count
        reached = 1 + clean[:, 0] + clean[:, :2].all(axis=1)  # disks the cascade tested
        by_crossing = 0
        for lane in degenerate:
            w = [[Fraction(x) for x in point] for point in near[lane].tolist()]
            if any(exact_sq_distance(w[i], w[(i + 1) % 6], w[j], w[(j + 1) % 6])
                   <= Fraction(10 * EPS_CONTACT) ** 2
                   for (i, j), c in zip(NON_ADJACENT_EDGE_PAIRS, close[:, lane]) if c):
                continue
            by_crossing += 1
            assert any(exact_near_disk(w[e], w[(e + 1) % 6], w[k], w[k + 1], w[(k + 2) % 6],
                                       10 * EPS_EDGE, 10 * EPS_PLANE)
                       for k in (0, 2, 4)[:reached[lane]]
                       for e in ((k + 3) % 6, (k + 4) % 6)), lane
        assert by_crossing >= 10

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_vertices_rejected(self, value):
        v = np.repeat(build_hexagon(REGULAR_DIAGONALS, REGULAR_ANGLES)[None], 18, axis=0)
        v.reshape(18, 18)[np.arange(18), np.arange(18)] = value  # one coordinate per lane
        assert not is_embedded(v).any()  # and no RuntimeWarning, an error under pytest
        assert (classify_batch(v) == int(KnotClass.DEGENERATE)).all()
        # each lane reads as a collapsed hexagon: no curl, every crossing test flagged
        assert (curl(v) == 0).all()
        assert disk_counts(v)[1].all()
        for lane in v:
            with pytest.raises(ValueError, match="v1, v3, v5 are collinear or not finite"):
                extract_action_angle(lane)

    def test_empty_input(self):
        assert is_embedded(np.zeros((0, 6, 3))).shape == (0,)
        assert classify_batch(np.zeros((0, 6, 3))).shape == (0,)


@pytest.mark.parametrize("func", [classify_batch, is_embedded, curl, disk_counts,
                                  extract_action_angle])
def test_vertex_arrays_must_end_in_six_by_three(func):
    # the README's witness trefoil component-first, the layout the geom
    # kernels take, used to read as an unknot with disk counts [0, 0, 0]
    v = build_hexagon([1.10151, 1.07689, 0.35248], [1.69010, 0.38533, 0.32013])
    for bad in (v.T, v.T[None], v.reshape(18), v.reshape(9, 2), v.reshape(2, 9)):
        with pytest.raises(ValueError, match=rf"^vertices must have trailing shape \(6, 3\), "
                                             rf"got shape {re.escape(str(bad.shape))}$"):
            func(bad)
    func(v[None])
