import numpy as np
import pytest

from hexknot.action_angle import (
    DegenerateFrameError,
    NotInteriorError,
    build_hexagon,
    extract_action_angle,
    is_embedded,
    is_interior,
    sample_action_batch,
    sample_angles_batch,
    triangle_area_scale,
)
from conftest import REGULAR_ANGLES, REGULAR_DIAGONALS, random_rotation

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


class TestBuildHexagon:
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
        with pytest.raises(NotInteriorError):
            build_hexagon((1.0, 1.0, 2.0), REGULAR_ANGLES)

    def test_area_scale_is_four_times_heron(self):
        d = np.array([1.2, 0.9, 1.4])
        s = d.sum() / 2
        heron = np.sqrt(s * (s - d[0]) * (s - d[1]) * (s - d[2]))
        assert triangle_area_scale(d) == pytest.approx(4.0 * heron, rel=1e-12)


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
        with pytest.raises(DegenerateFrameError):
            extract_action_angle(flat)


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
