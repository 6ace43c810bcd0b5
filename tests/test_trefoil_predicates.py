import numpy as np
import pytest

from hexknot.action_angle import (
    build_hexagon,
    is_interior,
    sample_action_batch,
    sample_angles_batch,
    wrap_angles,
)
from hexknot import trefoil_predicates
from hexknot.invariants import KNOT_CLASS_LABELS, TREFOIL_PAIRS, KnotClass, classify_batch
from hexknot.measure import CHUNK_SIZE, sample_coordinate_stream
from hexknot.trefoil_predicates import (
    FILTER_CLAUSES,
    class_masks,
    filter_clauses,
    nine_functions,
    passes_window_filters,
)
from hexknot.geom import EPS_CONTACT
from conftest import WITNESSES, certify_theta1_pieces

TWO_PI = 2.0 * np.pi
R_PLUS = KnotClass.TREFOIL_R_PLUS
R_MINUS = KnotClass.TREFOIL_R_MINUS
L_PLUS = KnotClass.TREFOIL_L_PLUS
L_MINUS = KnotClass.TREFOIL_L_MINUS
CLASS_OF_LABEL = {label: cls for cls, label in KNOT_CLASS_LABELS.items()}


def tp(a, b, c):
    return np.einsum("...i,...i->...", np.cross(a, b), c)


class TestNineFunctions:
    def test_equal_pairs_zero_f(self, rng):
        for _ in range(50):
            x = rng.uniform(0.2, 1.9)
            t = rng.uniform(0.0, TWO_PI)
            f1, _, _, f2, _, _, f3, _, _ = nine_functions((x, x, x), (t, t, t))
            assert abs(f1) < 1e-12 and abs(f2) < 1e-12 and abs(f3) < 1e-12

    def test_flat_hexagon_all_zero(self):
        nf = nine_functions((np.sqrt(3),) * 3, (np.pi,) * 3)
        assert all(abs(v) < 1e-12 for v in nf)

    def test_swap_antisymmetry_structure(self, rng):
        # f1 is antisymmetric and (g1, h1) exchange under swapping the
        # (d2, t2) and (d3, t3) argument pairs; same pattern for the
        # other index triples.
        d = sample_action_batch(rng, 200)
        th = sample_angles_batch(rng, 200)
        nf = nine_functions(d, th)
        swaps = {
            1: ([0, 2, 1], [0, 2, 1]),  # swap pair 2 <-> 3
            2: ([2, 1, 0], [2, 1, 0]),  # swap pair 1 <-> 3
            3: ([1, 0, 2], [1, 0, 2]),  # swap pair 1 <-> 2
        }
        for idx, (dperm, tperm) in swaps.items():
            sw = nine_functions(d[:, dperm], th[:, tperm])
            f, g, h = nf[3 * idx - 3:3 * idx]
            fs, gs, hs = sw[3 * idx - 3:3 * idx]
            assert np.abs(f + fs).max() < 1e-10
            assert np.abs(g - hs).max() < 1e-10
            assert np.abs(h - gs).max() < 1e-10

    def test_odd_under_angle_mirror(self, rng):
        d = sample_action_batch(rng, 200)
        th = sample_angles_batch(rng, 200)
        a = np.stack(nine_functions(d, th))
        b = np.stack(nine_functions(d, TWO_PI - th))
        assert np.abs(a + b).max() < 1e-10

    def test_rejects_non_interior(self):
        with pytest.raises(ValueError, match="open moment polytope"):
            nine_functions((0.5, 0.5, 1.5), (1.0, 1.0, 1.0))

    def test_signs_match_geometric_predicates(self, rng):
        # Each (f, g, h) triple tracks one edge/disk pierce test: the two
        # crossing-cone triple products and the plane-separation product,
        # for edge [v6,v1] vs disk (v3,v4,v5), edge [v2,v3] vs disk
        # (v5,v6,v1) and edge [v4,v5] vs disk (v1,v2,v3) respectively.
        d = sample_action_batch(rng, 5000)
        th = rng.uniform(0.0, np.pi, (5000, 3))
        v = build_hexagon(d, th)
        w = [v[:, i, :] for i in range(6)]
        nf = nine_functions(d, th)
        cases = [(5, 0, 2, 3, 4), (1, 2, 4, 5, 0), (3, 4, 0, 1, 2)]
        for (f, g, h), (e0, e1, t0, t1, t2) in zip((nf[0:3], nf[3:6], nf[6:9]), cases):
            cone1 = tp(w[e0] - w[e1], w[t1] - w[e1], w[t0] - w[e1])
            cone2 = tp(w[e0] - w[e1], w[t2] - w[e1], w[t1] - w[e1])
            sep = -(tp(w[e0] - w[t0], w[t2] - w[t0], w[t1] - w[t0])
                    * tp(w[e1] - w[t0], w[t2] - w[t0], w[t1] - w[t0]))
            assert np.array_equal(np.sign(f), np.sign(cone1))
            assert np.array_equal(np.sign(g), np.sign(cone2))
            assert np.array_equal(np.sign(h), np.sign(sep))


def _angles_in_window(th):
    return {1: np.all((th > 0.0) & (th < np.pi), axis=-1),
            -1: np.all((th > np.pi) & (th < TWO_PI), axis=-1)}


def _unprefixed_masks(d, th):
    """class_masks' rule in one stage, without its one-side prefix: the
    nine functions on every lane, ANDed with the curl's window."""
    nf = nine_functions(d, th)
    window = _angles_in_window(np.broadcast_arrays(np.asarray(d), np.asarray(th))[1])
    return {cls: (window[curl_sign]
                  & np.all([chirality * f > 0.0 for f in nf[0::3]], axis=0)
                  & np.all([curl_sign * g > 0.0 for g in nf[1::3] + nf[2::3]], axis=0))
            for cls, (chirality, curl_sign) in TREFOIL_PAIRS.items()}


class TestClassPredicates:
    def test_witnesses_satisfy_their_predicate(self):
        d, th = map(np.array, WITNESSES["trefoil_R+"])
        assert bool(class_masks(d, th)[R_PLUS])
        d, th = map(np.array, WITNESSES["trefoil_L+"])
        assert bool(class_masks(d, th)[L_PLUS])
        d, th = map(np.array, WITNESSES["trefoil_R-"])
        assert bool(class_masks(d, th)[R_MINUS])
        d, th = map(np.array, WITNESSES["trefoil_L-"])
        assert bool(class_masks(d, th)[L_MINUS])

    def test_angle_window_required(self, rng):
        d = sample_action_batch(rng, 1000)
        th = rng.uniform(np.pi, TWO_PI, (1000, 3))
        assert not class_masks(d, th)[R_PLUS].any()
        assert not class_masks(d, th)[L_PLUS].any()
        th_up = rng.uniform(0.0, np.pi, (1000, 3))
        assert not class_masks(d, th_up)[R_MINUS].any()
        assert not class_masks(d, th_up)[L_MINUS].any()

    def test_equal_diagonals_never_satisfy(self, rng):
        x = rng.uniform(0.05, 1.95, 2000)
        d = np.stack([x, x, x], axis=-1)
        th = rng.uniform(0.0, np.pi, (2000, 3))
        assert not class_masks(d, th)[R_PLUS].any()

    def test_equal_everything_fails_l_plus(self):
        # f1 = f2 = f3 = 0 exactly, so the chirality sign f1 is 0; g1 and h1
        # have the curl's sign, so the lane reaches stage 2 and is in no class
        d, th = (1.0, 1.0, 1.0), (0.5, 0.5, 0.5)
        nf = nine_functions(d, th)
        assert nf[0] == nf[3] == nf[6] == 0.0 and nf[1] > 0.0 and nf[2] > 0.0
        masks = class_masks(d, th)
        assert not bool(masks[L_PLUS])
        assert not any(bool(mask) for mask in masks.values())

    def test_class_masks_mirror_reduction(self, rng):
        # theta -> 2*pi - theta flips both chirality and curl, so each
        # class mask is its mirror partner's mask at mirrored angles
        d = sample_action_batch(rng, 20000)
        th = sample_angles_batch(rng, 20000)
        masks = class_masks(d, th)
        mirrored = class_masks(d, TWO_PI - th)
        assert np.array_equal(masks[R_PLUS], mirrored[L_MINUS])
        assert np.array_equal(masks[L_PLUS], mirrored[R_MINUS])
        assert np.array_equal(masks[R_MINUS], mirrored[L_PLUS])
        assert np.array_equal(masks[L_MINUS], mirrored[R_PLUS])

    def test_one_side_prefix_matches_unprefixed_rule(self, rng):
        # class_masks evaluates the nine functions only where all three
        # angles are on one side of pi; the rule without that prefix
        # evaluates them everywhere and ANDs in the curl's window
        n = 100_000
        d = sample_action_batch(rng, n)
        th = sample_angles_batch(rng, n)
        edges = np.array([0.0, np.pi, np.nextafter(np.pi, 0.0), np.nextafter(np.pi, 4.0),
                          np.nextafter(TWO_PI, 0.0)])
        pick = rng.random(th.shape) < 0.2
        th[pick] = rng.choice(edges, int(pick.sum()))
        d, th = d.reshape(2, n // 2, 3), th.reshape(2, n // 2, 3)
        window = _angles_in_window(th)
        masks = class_masks(d, th)
        hits = 0
        for cls, want in _unprefixed_masks(d, th).items():
            assert masks[cls].shape == (2, n // 2)
            assert np.array_equal(masks[cls], want)
            hits += int(want.sum())
        assert hits > 0
        # the edge angles reach lanes inside a window
        assert np.any(pick.reshape(2, n // 2, 3).any(axis=-1) & (window[1] | window[-1]))

    def test_shapes_match_unprefixed_rule(self, rng):
        # one lane, one diagonal triple against many angle triples, and no lanes
        d, th = (np.array(x) for x in WITNESSES["trefoil_R+"])
        near = (th + rng.normal(0.0, 0.05, (2000, 3))) % TWO_PI
        cases = {"lane": (d, th), "broadcast": (d, near),
                 "empty": (np.empty((0, 3)), np.empty((0, 3)))}
        for name, (dd, tt) in cases.items():
            masks = class_masks(dd, tt)
            for cls, want in _unprefixed_masks(dd, tt).items():
                assert masks[cls].shape == np.shape(want) == np.broadcast_shapes(
                    dd.shape, tt.shape)[:-1], (name, cls)
                assert np.array_equal(masks[cls], want), (name, cls)
        assert class_masks(d, th)[R_PLUS]
        assert 0 < class_masks(d, near)[R_PLUS].sum() < len(near)

    def test_necessity_on_sampled_trefoils(self, rng):
        d = sample_action_batch(rng, 300_000)
        th = sample_angles_batch(rng, 300_000)
        codes = classify_batch(build_hexagon(d, th))
        masks = class_masks(d, th)
        for cls in TREFOIL_PAIRS:
            oracle = codes == int(cls)
            assert not (oracle & ~masks[cls]).any()


def _angle_sum_window(th):
    """Lanes whose angles are all positive with every pairwise sum below
    pi, or whose pairwise sums are all above 3*pi."""
    sums = th + np.roll(th, -1, axis=-1)
    return ((np.all(th > 0.0, axis=-1) & np.all(sums < np.pi, axis=-1))
            | np.all(sums > 3.0 * np.pi, axis=-1))


class TestStagedMasks:
    """class_masks calls nine_functions once, on the lanes of the angle-sum
    window alone; the masks are the one-stage rule's, and those lanes are
    exactly the window's."""

    @staticmethod
    def _staged(monkeypatch, d, th):
        seen = []

        def recording(diagonals, angles):
            seen.append((diagonals, angles))
            return nine_functions(diagonals, angles)
        monkeypatch.setattr(trefoil_predicates, "nine_functions", recording)
        masks = class_masks(d, th)
        assert len(seen) == 1  # entered once, even when no lane survives
        return masks, seen[0]

    @pytest.mark.parametrize("seed", [1, 5, 17])
    def test_stream_chunks_match_unstaged_rule(self, monkeypatch, seed):
        hits = dict.fromkeys(TREFOIL_PAIRS, 0)
        for d, th in sample_coordinate_stream(seed, 6 * CHUNK_SIZE):
            masks, (d_in, th_in) = self._staged(monkeypatch, d, th)
            for cls, want in _unprefixed_masks(d, th).items():
                assert np.array_equal(masks[cls], want), cls
                hits[cls] += int(want.sum())
            keep = _angle_sum_window(th)
            assert np.array_equal(d_in, d[keep]) and np.array_equal(th_in, th[keep])
            # 1/16 of uniform lanes lie in the window
            assert 0.05 < keep.mean() < 0.075
        assert all(hits.values()), hits  # both curls and both chiralities

    def test_shapes_match_unstaged_rule(self, monkeypatch, rng):
        d, th = (np.array(x) for x in WITNESSES["trefoil_R+"])
        near = (th + rng.normal(0.0, 0.05, (2000, 3))) % TWO_PI
        cases = {"lane": (d, th), "broadcast": (d, near), "mirrored": (d, TWO_PI - near),
                 "empty": (np.empty((0, 3)), np.empty((0, 3))),
                 "empty batch": (d, np.empty((0, 3))),
                 "leading axes": (d, near.reshape(20, 100, 3))}
        for name, (dd, tt) in cases.items():
            masks, (d_in, th_in) = self._staged(monkeypatch, dd, tt)
            for cls, want in _unprefixed_masks(dd, tt).items():
                assert masks[cls].shape == want.shape, (name, cls)
                assert np.array_equal(masks[cls], want), (name, cls)
            dd, tt = (x.reshape(-1, 3) for x in np.broadcast_arrays(dd, tt))
            keep = _angle_sum_window(tt)
            assert np.array_equal(th_in, tt[keep]), name
        assert 0 < class_masks(d, near)[R_PLUS].sum() < len(near)
        assert 0 < class_masks(d, TWO_PI - near)[L_MINUS].sum() < len(near)

    def test_angles_at_the_window_edges(self, monkeypatch, rng):
        # angles at 0, pi and 2*pi - ulp, the ends of the two windows
        n = 60_000
        d = sample_action_batch(rng, n)
        th = sample_angles_batch(rng, n)
        pick = rng.random(th.shape) < 0.3
        th[pick] = rng.choice([0.0, np.pi, np.nextafter(TWO_PI, 0.0)], int(pick.sum()))
        masks, (d_in, th_in) = self._staged(monkeypatch, d, th)
        for cls, want in _unprefixed_masks(d, th).items():
            assert np.array_equal(masks[cls], want), cls
        keep = _angle_sum_window(th)
        assert np.array_equal(th_in, th[keep])
        # some window lane has an edge angle
        assert (pick[keep] & (th[keep] == np.nextafter(TWO_PI, 0.0))).any()


class TestAngleSumImplication:
    """On one-side lanes, g_i and h_i of the curl's sign force theta_j +
    theta_k to the curl's side: below pi, or above 3*pi for curl -1
    (the proof in class_masks' docstring), so the angle-sum window holds
    every lane of the nine-sign rule."""

    @pytest.mark.parametrize("seed", [1, 5, 17])
    def test_stream_chunks(self, seed):
        margins, lanes = [], 0
        for d, th in sample_coordinate_stream(seed, 6 * CHUNK_SIZE):
            nf = nine_functions(d, th)
            window = _angles_in_window(th)
            for i in range(3):
                pair = th[:, (i + 1) % 3] + th[:, (i + 2) % 3]
                for curl_sign, margin in ((1, np.pi - pair), (-1, pair - 3.0 * np.pi)):
                    both = (window[curl_sign] & (curl_sign * nf[3 * i + 1] > 0.0)
                            & (curl_sign * nf[3 * i + 2] > 0.0))
                    lanes += int(both.sum())
                    margins.append(margin[both].min())
            # so a hit passes filter_clauses' curl_window and angle_sums
            for cls, mask in class_masks(d, th).items():
                clauses = filter_clauses(d[mask], th[mask])[TREFOIL_PAIRS[cls][1]]
                assert clauses["curl_window"].all() and clauses["angle_sums"].all(), cls
        assert lanes > 30_000
        assert min(margins) > 0.0

    def test_adversarial_lanes_stay_inside_the_rule(self, rng):
        # diagonals within ulps of a face of P (a flat central triangle, or
        # a diagonal at 2), one pair sum within ulps of pi, and angles at 0, pi -+ ulp
        # and 2*pi - ulp: rounding can give g_i and h_i the curl's sign with
        # that pair's sum off the curl's side, so class_masks may drop a lane
        # of the nine-sign rule there (equality is not asserted), but it
        # never adds one
        n = 200_000
        lane = np.arange(n)
        i = rng.integers(0, 3, n)
        j, k = (i + 1) % 3, (i + 2) % 3
        d = sample_action_batch(rng, n)
        # d_big near d_i + d_other is the face where e_i / (2 d_j d_k) = 1
        big = np.where(rng.random(n) < 0.5, j, k)
        face = np.where(rng.random(n) < 0.5, d[lane, i] + d[lane, j + k - big], 2.0)
        d[lane, big] = np.nextafter(face, 0.0)
        d[lane, big] -= rng.integers(0, 3, n) * np.spacing(d[lane, big])
        th = rng.uniform(0.0, np.pi, (n, 3))
        th[lane, k] = np.pi - th[lane, j]
        th[lane, k] += rng.integers(-4, 5, n) * np.spacing(th[lane, k])
        pick = rng.random(th.shape) < 0.1
        edges = [0.0, np.nextafter(np.pi, 0.0), np.pi, np.nextafter(np.pi, 4.0),
                 np.nextafter(TWO_PI, 0.0)]
        th[pick] = rng.choice(edges, int(pick.sum()))
        mirror = rng.random(n) < 0.5
        th[mirror] = TWO_PI - th[mirror]
        th = wrap_angles(th)
        keep = is_interior(d)
        d, th, i, j, k = d[keep], th[keep], i[keep], j[keep], k[keep]
        lane = np.arange(len(d))
        masks = class_masks(d, th)
        for cls, want in _unprefixed_masks(d, th).items():
            assert not (masks[cls] & ~want).any(), cls
        # the lanes reach the rounding the window's proof does not cover
        nf = np.stack(nine_functions(d, th))
        pair = th[lane, j] + th[lane, k]
        window = _angles_in_window(th)
        off_side = {1: pair >= np.pi, -1: pair <= 3.0 * np.pi}
        for curl_sign in (1, -1):
            both = ((curl_sign * nf[3 * i + 1, lane] > 0.0) & (curl_sign * nf[3 * i + 2, lane] > 0.0)
                    & window[curl_sign] & off_side[curl_sign])
            assert both.sum() > 20, curl_sign


class TestArcCertificate:
    """The predicate set along theta_1, checked against the geometry. A
    hexagon changes knot type only by passing through itself, so the
    class_masks set is exactly the trefoil set along theta_1 when each
    piece between roots of the six theta_1-dependent functions has the
    predicted class at its midpoint, and the hexagon touches itself
    wherever the predicate switches between counted and uncounted."""

    @pytest.mark.parametrize("seed", [5, 17])
    def test_stream_chunk(self, seed):
        d, th = next(sample_coordinate_stream(seed, CHUNK_SIZE))
        arcs = certify_theta1_pieces(d, th)
        assert np.array_equal(arcs["predicted"], arcs["oracle"])
        # every class and the unknot, on about 20,000 pieces
        assert set(np.unique(arcs["predicted"])) == {0, *map(int, TREFOIL_PAIRS)}
        assert len(arcs["predicted"]) > 10_000
        # two switching ends per counted piece: no trefoil arc reaches 0 or pi
        assert len(arcs["gaps"]) == 2 * np.count_nonzero(arcs["predicted"])
        assert arcs["gaps"].max() <= EPS_CONTACT


def _filter_clauses_reference(diagonals, angles):
    """filter_clauses in its earlier form: argmax, take_along_axis and
    reductions over the trailing axis."""
    d, th = np.broadcast_arrays(np.asarray(diagonals, float), np.asarray(angles, float))
    distinct = np.all(np.abs(d - d[..., (1, 2, 0)]) > 1e-9, axis=-1)
    big = np.argmax(d, axis=-1)[..., None]
    is_big = np.arange(3) == big
    d_sq = d * d
    big_sq = np.take_along_axis(d_sq, big, axis=-1)[..., 0]
    obtuse = big_sq > d_sq.sum(axis=-1) - big_sq
    big_lo = np.where(obtuse, 0.5 * np.pi, 0.0)
    clauses = {}
    for curl_sign, t in ((1, th), (-1, TWO_PI - th)):
        t1, t2, t3 = t[..., 0], t[..., 1], t[..., 2]
        angle_sums = (t1 + t2 < np.pi) & (t1 + t3 < np.pi) & (t2 + t3 < np.pi)
        others_small = np.all(is_big | ((t > 0.0) & (t < 0.5 * np.pi)), axis=-1)
        t_big = np.take_along_axis(t, big, axis=-1)[..., 0]
        window = others_small & (t_big > big_lo) & (t_big < np.pi)
        clauses[curl_sign] = dict(zip(FILTER_CLAUSES, (
            np.all((t > 0.0) & (t < np.pi), axis=-1), angle_sums, distinct, window)))
    return clauses


class TestLemmaFilters:
    def test_worked_example(self):
        # every clause passes: angles in range, pairwise sums below pi,
        # distinct diagonals, and 1.5^2 > 0.8^2 + 0.9^2 forces the
        # dominant angle into (pi/2, pi), where 2.0 sits
        clauses = filter_clauses((1.5, 0.8, 0.9), (2.0, 0.4, 0.3))[1]
        assert clauses["curl_window"]
        assert clauses["angle_sums"]
        assert clauses["distinct_diagonals"]
        assert clauses["dominant_diagonal_window"]
        assert passes_window_filters((1.5, 0.8, 0.9), (2.0, 0.4, 0.3))[1]

    def test_clause_names(self):
        clauses = filter_clauses((1.5, 0.8, 0.9), (2.0, 0.4, 0.3))
        assert set(clauses) == {1, -1}
        for names in clauses.values():
            assert tuple(names) == FILTER_CLAUSES == (
                "curl_window", "angle_sums", "distinct_diagonals",
                "dominant_diagonal_window")

    def test_rejects_non_interior(self):
        with pytest.raises(ValueError, match="open moment polytope"):
            filter_clauses((1.0, 1.0, 2.0), (1.0, 0.5, 0.3))

    def test_equal_diagonals_fail_distinctness(self):
        clauses = filter_clauses((1.0, 1.0, 1.0), (1.0, 0.5, 0.3))[1]
        assert not clauses["distinct_diagonals"]
        assert not passes_window_filters((1.0, 1.0, 1.0), (1.0, 0.5, 0.3))[1]

    def test_obtuse_dominant_requires_large_angle(self):
        # d1^2 > d2^2 + d3^2 so theta1 must be in (pi/2, pi); 0.4 is not
        clauses = filter_clauses((1.5, 0.8, 0.9), (0.4, 0.3, 0.2))[1]
        assert not clauses["dominant_diagonal_window"]
        assert clauses["curl_window"] and clauses["angle_sums"]

    def test_angle_sum_violation(self):
        clauses = filter_clauses((1.5, 0.8, 0.9), (2.0, 1.5, 0.3))[1]
        assert not clauses["angle_sums"]

    def test_negative_curl_windows_are_mirrored(self):
        d = (1.5, 0.8, 0.9)
        up = (2.0, 0.4, 0.3)
        down = tuple(TWO_PI - t for t in up)
        assert passes_window_filters(d, up)[1]
        assert passes_window_filters(d, down)[-1]
        assert not filter_clauses(d, up)[-1]["curl_window"]
        for name in FILTER_CLAUSES:
            assert filter_clauses(d, up)[1][name] == filter_clauses(d, down)[-1][name]

    def test_witnesses_pass_all_filters(self):
        for label, (d, th) in WITNESSES.items():
            curl_sign = TREFOIL_PAIRS[CLASS_OF_LABEL[label]][1]
            clauses = filter_clauses(np.array(d), np.array(th))[curl_sign]
            assert all(clauses.values()), (label, clauses)

    def test_columns_match_reference(self, rng):
        # stream lanes, then tied largest diagonals and angles at the window edges
        d = sample_action_batch(rng, 100_000)
        th = sample_angles_batch(rng, 100_000)
        edges = (0.0, 0.5 * np.pi, np.pi, np.nextafter(TWO_PI, 0.0), 0.3, 2.0, 4.5)
        grid = np.array(np.meshgrid(edges, edges, edges)).reshape(3, -1).T
        ties = [(1.2, 1.2, 0.9), (1.0, 1.0, 1.0), (0.9, 1.2, 1.2), (1.2, 0.9, 1.2),
                (1.5, 0.8, 0.9), (1.0, 0.9, 0.8)]
        cases = [(d, th), (d[0], th), (d, th[0])] + [(np.array(t), grid) for t in ties]
        for dd, tt in cases:
            got, want = filter_clauses(dd, tt), _filter_clauses_reference(dd, tt)
            for curl_sign in (1, -1):
                for name in FILTER_CLAUSES:
                    assert np.shape(got[curl_sign][name]) == np.shape(want[curl_sign][name])
                    assert np.array_equal(got[curl_sign][name], want[curl_sign][name]), name
        # the grid reaches both window outcomes for a tied largest diagonal
        window = filter_clauses((1.2, 1.2, 0.9), grid)[1]["dominant_diagonal_window"]
        assert window.any() and not window.all()

    def test_vectorised_matches_scalar(self, rng):
        d = sample_action_batch(rng, 300)
        th = sample_angles_batch(rng, 300)
        batch = filter_clauses(d, th)
        masks = passes_window_filters(d, th)
        for curl_sign, clauses in batch.items():
            assert np.array_equal(masks[curl_sign],
                                  np.logical_and.reduce(list(clauses.values())))
        for k in range(300):
            lane = filter_clauses(d[k], th[k])
            for curl_sign, clauses in lane.items():
                for name, value in clauses.items():
                    assert value.shape == ()
                    assert bool(value) == bool(batch[curl_sign][name][k])


@pytest.mark.parametrize("func", [build_hexagon, nine_functions, class_masks, filter_clauses])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_angles_rejected(func, value):
    # every coordinate kernel shares one explicit check, raised before
    # any arithmetic (a numpy RuntimeWarning would be an error here)
    th = np.full((4, 3), 0.3)
    th[2, 1] = value
    with pytest.raises(ValueError, match="^angles must be finite$"):
        func(np.full((4, 3), 1.0), th)
    with pytest.raises(ValueError, match="^angles must be finite$"):
        func((1.5, 0.8, 0.9), (value, 0.3, 0.3))


@pytest.mark.parametrize("func", [build_hexagon, nine_functions, class_masks, filter_clauses,
                                  is_interior])
@pytest.mark.parametrize("length", [2, 4])
def test_coordinates_must_end_in_three(func, length):
    # a trailing length of 2 used to raise IndexError, and one of 4 was
    # read as its first three
    def resized(x):
        return np.concatenate([x, np.ones((5, 1))], axis=1)[:, :length]

    d, th = (np.tile(x, (5, 1)) for x in WITNESSES["trefoil_R+"])
    if func is is_interior:  # the one-argument kernel reads diagonals only
        is_interior(d[0])
        cases = {"diagonals": (resized(d),)}
    else:
        func(d[0], th)  # a (3,) diagonal triple still broadcasts against (n, 3) angles
        cases = {"diagonals": (resized(d), th), "angles": (d, resized(th))}
    for name, args in cases.items():
        with pytest.raises(ValueError, match=rf"^{name} must have trailing shape \(3,\), "
                                             rf"got shape \(5, {length}\)$"):
            func(*args)


def _shifted_witness_angles():
    """The trefoil_R+ witness's angles moved out of [0, 2*pi): by -2*pi and
    +2*pi, with one angle at exactly 2*pi, and with one at -1e-300."""
    th = np.array(WITNESSES["trefoil_R+"][1])
    at_two_pi, tiny_negative = th.copy(), th.copy()
    at_two_pi[1], tiny_negative[2] = TWO_PI, -1e-300
    return {"minus_2pi": th - TWO_PI, "plus_2pi": th + TWO_PI,
            "exactly_2pi": at_two_pi, "minus_1e-300": tiny_negative}


@pytest.mark.parametrize("func", [class_masks, filter_clauses, passes_window_filters])
@pytest.mark.parametrize("case", sorted(_shifted_witness_angles()))
def test_angles_outside_the_circle_rejected(func, case):
    # before, these answered "no class" and "fails every filter" silently
    d = WITNESSES["trefoil_R+"][0]
    th = _shifted_witness_angles()[case]
    with pytest.raises(ValueError, match=r"^angles must lie in \[0, 2\*pi\)$"):
        func(d, th)
    batch = np.tile(np.array(WITNESSES["trefoil_R+"][1]), (5, 1))
    batch[3] = th
    with pytest.raises(ValueError, match=r"^angles must lie in \[0, 2\*pi\)$"):
        func(np.tile(d, (5, 1)), batch)


@pytest.mark.parametrize("case", ["minus_2pi", "plus_2pi"])
def test_geometry_stays_periodic_in_the_angles(case):
    # build_hexagon and nine_functions take any finite angle; the shifted
    # witness is still the same trefoil
    d, witness_th = WITNESSES["trefoil_R+"]
    th = _shifted_witness_angles()[case]
    assert classify_batch(build_hexagon(d, th)[None])[0] == R_PLUS
    assert np.array_equal(np.sign(nine_functions(d, th)),
                          np.sign(nine_functions(d, witness_th)))


def test_angle_range_ends_are_accepted():
    d = WITNESSES["trefoil_R+"][0]
    for th in ((0.0, 0.0, 0.0), (-0.0, 1.0, 2.0), (np.nextafter(TWO_PI, 0.0),) * 3):
        class_masks(d, th)
        passes_window_filters(d, th)
