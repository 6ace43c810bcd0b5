import numpy as np
import pytest

from hexknot import action_angle, invariants
from hexknot.action_angle import (
    build_hexagon,
    is_embedded,
    is_interior,
    sample_action_batch,
    sample_angles_batch,
    vertex_components,
)
from hexknot.invariants import (
    KNOT_CLASS_LABELS,
    TREFOIL_PAIRS,
    KnotClass,
    classify,
    classify_batch,
    curl,
    disk_counts,
)
from conftest import (
    REGULAR_ANGLES,
    REGULAR_DIAGONALS,
    WITNESSES,
    brute_force_disk_count,
    random_rotation,
    reverse,
    shift,
)

TWO_PI = 2.0 * np.pi
CLASS_OF_LABEL = {label: cls for cls, label in KNOT_CLASS_LABELS.items()}


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

    def test_leading_axes_flatten(self, rng):
        v = build_hexagon(sample_action_batch(rng, 300), sample_angles_batch(rng, 300))
        for got, want in zip(disk_counts(v.reshape(2, 150, 6, 3)), disk_counts(v)):
            assert got.dtype == want.dtype and np.array_equal(got, want)


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
            assert pair == TREFOIL_PAIRS[CLASS_OF_LABEL[label]]

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
            assert classify(v) == CLASS_OF_LABEL[label]

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
            assert CLASS_OF_LABEL[label] == cls


def degenerate_rich_vertices(rng, n):
    """Hexagons with every angle a multiple of pi/2 and about half the
    diagonals multiples of 0.25: flat folds and coincident vertices make
    many crossing tests fall within tolerance."""
    d = sample_action_batch(rng, n)
    d = np.where(rng.random(d.shape) < 0.5, np.round(d / 0.25) * 0.25, d)
    th = np.round(sample_angles_batch(rng, n) / (np.pi / 2)) * (np.pi / 2) % TWO_PI
    keep = is_interior(d)
    return build_hexagon(d[keep], th[keep])


def full_rule_codes(v):
    """The class rule on all three disks' counts and flags: any flagged
    disk makes the hexagon degenerate."""
    counts, bad = disk_counts(v)
    chi = counts.prod(axis=-1)
    cc = curl(v)
    codes = np.full(len(v), int(KnotClass.UNKNOT), dtype=np.int8)
    for cls, (chirality, curl_sign) in TREFOIL_PAIRS.items():
        codes[(chi == chirality) & (cc == curl_sign)] = int(cls)
    degen = (bad.any(axis=-1) | ~is_embedded(v) | (np.abs(chi) > 1)
             | ((np.abs(chi) == 1) & (cc == 0)))
    codes[degen] = int(KnotClass.DEGENERATE)
    return codes, counts, bad


class TestCascade:
    def test_codes_differ_from_full_rule_only_after_a_clean_zero(self, rng):
        v = degenerate_rich_vertices(rng, 20_000)
        full, counts, bad = full_rule_codes(v)
        codes = classify_batch(v)
        clean_zero = (counts == 0) & ~bad
        settled = clean_zero[:, 0] | (~bad[:, 0] & clean_zero[:, 1])
        differ = codes != full
        assert np.all(settled[differ])
        # only a flag the decision did not need is dropped
        assert np.all(full[differ] == int(KnotClass.DEGENERATE))
        assert np.all(codes[differ] == int(KnotClass.UNKNOT))
        # the set exercises both outcomes: flags dropped and flags kept
        assert differ.sum() > 1000
        assert (codes == int(KnotClass.DEGENERATE)).sum() > 1000

    def test_curl_is_read_only_where_it_decides(self, rng, monkeypatch):
        # the degenerate-rich set has no disk-2 count of +-1, so the four
        # witnesses and their mirrors supply the lanes the curl decides
        witnesses = np.stack([witness_vertices(label) for label in WITNESSES])
        v = np.concatenate([degenerate_rich_vertices(rng, 20_000), witnesses,
                            mirror_z(witnesses[::-1])])
        full, counts, bad = full_rule_codes(v)
        lanes = []

        def spy(vertices):
            lanes.append(len(vertices))
            return curl(vertices)

        monkeypatch.setattr(invariants, "curl", spy)
        codes = classify_batch(v)
        clean_zero = (counts == 0) & ~bad
        settled = clean_zero[:, 0] | (~bad[:, 0] & clean_zero[:, 1])
        assert np.array_equal(codes[~settled], full[~settled])
        assert set(np.bincount(codes[-8:], minlength=5)[1:5]) == {2}
        assert len(lanes) == 1 and 8 <= lanes[0] <= (np.abs(counts[:, 0]) == 1).sum()

    def test_one_vertex_copy_per_call(self, rng, monkeypatch):
        # a layout build_hexagon did not produce is copied into component
        # blocks once, and is_embedded reads those blocks without a copy;
        # curl's gathered knotted lanes are a separate, far smaller read
        v = build_hexagon(sample_action_batch(rng, 500), sample_angles_batch(rng, 500))
        copies = []

        def spy(vertices):
            w = vertex_components(vertices)
            copies.append(w.shape[-1] == len(v) and not np.shares_memory(w, vertices))
            return w

        monkeypatch.setattr(action_angle, "vertex_components", spy)
        monkeypatch.setattr(invariants, "vertex_components", spy)
        codes = classify_batch(v.copy())
        assert sum(copies) == 1
        assert np.array_equal(codes, classify_batch(v))

    def test_sampled_codes_match_full_rule(self, rng):
        v = build_hexagon(sample_action_batch(rng, 50_000), sample_angles_batch(rng, 50_000))
        full, _, _ = full_rule_codes(v)
        assert np.array_equal(classify_batch(v), full)


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
