import numpy as np
import pytest

from hexknot.action_angle import (
    build_hexagon,
    sample_action_batch,
    sample_angles_batch,
)
from hexknot.invariants import (
    KNOT_CLASS_FROM_LABEL,
    KNOT_CLASS_LABELS,
    TREFOIL_PAIRS,
    KnotClass,
    classify,
    classify_batch,
    curl,
    disk_counts,
    reverse,
    shift,
)
from conftest import (
    REGULAR_ANGLES,
    REGULAR_DIAGONALS,
    WITNESSES,
    brute_force_disk_count,
    random_rotation,
)

TWO_PI = 2.0 * np.pi


def witness_vertices(label):
    d, th = WITNESSES[label]
    return build_hexagon(np.array(d), np.array(th))


def mirror_z(vertices):
    out = np.array(vertices, dtype=float)
    out[..., 2] = -out[..., 2]
    return out


class TestCurl:
    def test_planar_hexagon_is_zero(self):
        assert curl(build_hexagon(REGULAR_DIAGONALS, REGULAR_ANGLES)) == 0

    def test_positive_fold_window(self, rng):
        d = sample_action_batch(rng, 200)
        th = sample_angles_batch(rng, 200)
        v = build_hexagon(d, th)
        up = (th[:, 0] > 0) & (th[:, 0] < np.pi)
        assert np.array_equal(curl(v) == 1, up)

    def test_mirror_flips(self, rng):
        d = sample_action_batch(rng, 100)
        th = sample_angles_batch(rng, 100)
        v = build_hexagon(d, th)
        assert np.array_equal(curl(mirror_z(v)), -curl(v))


class TestDiskCounts:
    def test_planar_hexagon_all_zero(self):
        counts, bad = disk_counts(build_hexagon(REGULAR_DIAGONALS, REGULAR_ANGLES))
        assert counts.tolist() == [[0, 0, 0]] and not bad.any()

    def test_right_trefoil_witness_all_plus_one(self):
        counts, bad = disk_counts(witness_vertices("trefoil_R+"))
        assert counts.tolist() == [[1, 1, 1]] and not bad.any()

    def test_mirrored_witness_all_minus_one(self):
        counts, bad = disk_counts(mirror_z(witness_vertices("trefoil_R+")))
        assert counts.tolist() == [[-1, -1, -1]] and not bad.any()

    def test_matches_brute_force_enumeration(self, rng):
        d = sample_action_batch(rng, 300)
        th = sample_angles_batch(rng, 300)
        v = build_hexagon(d, th)
        counts, bad = disk_counts(v)
        assert counts.shape == bad.shape == (300, 3)
        for k in range(300):
            for col, i in enumerate((2, 4, 6)):
                if not bad[k, col]:
                    assert counts[k, col] == brute_force_disk_count(v[k], i)


def chirality_curl(vertices):
    """(product of the disk counts, curl) of one hexagon with no flag set."""
    counts, bad = disk_counts(vertices)
    assert not bad.any()
    return int(counts.prod()), int(curl(vertices))


class TestJointChiralityCurl:
    def test_planar_hexagon(self):
        v = build_hexagon(REGULAR_DIAGONALS, REGULAR_ANGLES)
        assert chirality_curl(v) == (0, 0)

    def test_witness_pairs(self):
        for label in WITNESSES:
            pair = chirality_curl(witness_vertices(label))
            assert pair == TREFOIL_PAIRS[KNOT_CLASS_FROM_LABEL[label]]

    def test_mirror_flips_both_components(self):
        v = witness_vertices("trefoil_R+")
        assert chirality_curl(mirror_z(v)) == (-1, -1)


class TestClassify:
    def test_planar_hexagon_unknot(self):
        assert classify(build_hexagon(REGULAR_DIAGONALS, REGULAR_ANGLES)) \
            == KnotClass.UNKNOT

    def test_witnesses(self):
        for label in WITNESSES:
            v = witness_vertices(label)
            assert classify(v) == KNOT_CLASS_FROM_LABEL[label]

    def test_non_embedded_is_degenerate(self):
        shared = np.array([0.5, 0.5, 0.0])
        v = np.array([
            [0.0, 0.0, 0.0], shared, [1.0, 0.0, 0.0],
            [1.0, 1.0, 0.5], shared, [0.0, 1.0, 0.5],
        ])
        assert classify(v) == KnotClass.DEGENERATE

    def test_batch_matches_scalar(self, rng):
        d = sample_action_batch(rng, 500)
        th = sample_angles_batch(rng, 500)
        v = build_hexagon(d, th)
        codes = classify_batch(v)
        for k in range(500):
            assert KnotClass(int(codes[k])) == classify(v[k])

    def test_rigid_motion_invariance(self, rng):
        for label in WITNESSES:
            v = witness_vertices(label)
            moved = v @ random_rotation(rng).T + np.array([0.3, -1.0, 2.0])
            assert classify(moved) == classify(v)

    def test_labels_round_trip(self):
        for cls, label in KNOT_CLASS_LABELS.items():
            assert KNOT_CLASS_FROM_LABEL[label] == cls


class TestAutomorphisms:
    def test_shift_six_times_identity(self, rng):
        v = rng.normal(size=(6, 3))
        out = v
        for _ in range(6):
            out = shift(out)
        assert np.array_equal(out, v)

    def test_reverse_twice_identity(self, rng):
        v = rng.normal(size=(6, 3))
        assert np.array_equal(reverse(reverse(v)), v)

    def test_double_shift_preserves_class(self, rng):
        d = sample_action_batch(rng, 2000)
        th = sample_angles_batch(rng, 2000)
        v = build_hexagon(d, th)
        base = classify_batch(v)
        out = classify_batch(shift(shift(v)))
        ok = base != int(KnotClass.DEGENERATE)
        assert np.array_equal(base[ok], out[ok])

    def test_reverse_shift_preserves_joint_invariant(self):
        for label in WITNESSES:
            v = witness_vertices(label)
            assert classify(reverse(shift(v))) == classify(v)

    def test_chirality_invariant_under_shift_and_reverse(self):
        chirality = {
            "trefoil_R+": 1, "trefoil_R-": 1,
            "trefoil_L+": -1, "trefoil_L-": -1,
        }
        for label, chi in chirality.items():
            v = witness_vertices(label)
            for image in (shift(v), reverse(v)):
                counts, bad = disk_counts(image)
                assert not bad.any()
                assert counts.prod() == chi


class TestMirrorProperty:
    def test_mirror_in_coordinates_flips_joint_invariant(self, rng):
        d = sample_action_batch(rng, 2000)
        th = sample_angles_batch(rng, 2000)
        v = build_hexagon(d, th)
        w = build_hexagon(d, TWO_PI - th)
        a = classify_batch(v)
        b = classify_batch(w)
        flip = {
            int(KnotClass.UNKNOT): int(KnotClass.UNKNOT),
            int(KnotClass.TREFOIL_R_PLUS): int(KnotClass.TREFOIL_L_MINUS),
            int(KnotClass.TREFOIL_L_MINUS): int(KnotClass.TREFOIL_R_PLUS),
            int(KnotClass.TREFOIL_R_MINUS): int(KnotClass.TREFOIL_L_PLUS),
            int(KnotClass.TREFOIL_L_PLUS): int(KnotClass.TREFOIL_R_MINUS),
        }
        ok = (a != int(KnotClass.DEGENERATE)) & (b != int(KnotClass.DEGENERATE))
        assert ok.all()
        assert np.array_equal(np.vectorize(flip.get)(a[ok]), b[ok])


class TestAngleWindows:
    def test_positive_curl_trefoils_have_angles_below_pi(self):
        for label in ("trefoil_R+", "trefoil_L+"):
            _, th = WITNESSES[label]
            assert all(0.0 < t < np.pi for t in th)

    def test_negative_curl_trefoils_have_angles_above_pi(self):
        for label in ("trefoil_R-", "trefoil_L-"):
            _, th = WITNESSES[label]
            assert all(np.pi < t < TWO_PI for t in th)

    def test_sampled_trefoil_windows(self, rng):
        d = sample_action_batch(rng, 300_000)
        th = sample_angles_batch(rng, 300_000)
        codes = classify_batch(build_hexagon(d, th))
        up = (codes == int(KnotClass.TREFOIL_R_PLUS)) | \
             (codes == int(KnotClass.TREFOIL_L_PLUS))
        down = (codes == int(KnotClass.TREFOIL_R_MINUS)) | \
               (codes == int(KnotClass.TREFOIL_L_MINUS))
        assert up.sum() > 0 and down.sum() > 0
        assert np.all(th[up] < np.pi) and np.all(th[up] > 0)
        assert np.all(th[down] > np.pi) and np.all(th[down] < TWO_PI)
