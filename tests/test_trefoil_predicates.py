import numpy as np
import pytest

from hexknot.action_angle import (
    NotInteriorError,
    build_hexagon,
    sample_action_batch,
    sample_angles_batch,
)
from hexknot.invariants import KNOT_CLASS_FROM_LABEL, KnotClass, classify_batch
from hexknot.trefoil_predicates import (
    FILTER_CLAUSES,
    TARGET_PAIRS,
    class_masks,
    filter_clauses,
    nine_functions,
    passes_window_filters,
)
from conftest import WITNESSES

TWO_PI = 2.0 * np.pi
R_PLUS = KnotClass.TREFOIL_R_PLUS
R_MINUS = KnotClass.TREFOIL_R_MINUS
L_PLUS = KnotClass.TREFOIL_L_PLUS
L_MINUS = KnotClass.TREFOIL_L_MINUS


def tp(a, b, c):
    return np.einsum("...i,...i->...", np.cross(a, b), c)


class TestNineFunctions:
    def test_equal_pairs_zero_f(self, rng):
        for _ in range(50):
            x = rng.uniform(0.2, 1.9)
            t = rng.uniform(0.0, TWO_PI)
            nf = nine_functions((x, x, x), (t, t, t))
            assert abs(nf.f1) < 1e-12 and abs(nf.f2) < 1e-12 and abs(nf.f3) < 1e-12

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
            f, g, h = (getattr(nf, f"{k}{idx}") for k in "fgh")
            fs, gs, hs = (getattr(sw, f"{k}{idx}") for k in "fgh")
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
        with pytest.raises(NotInteriorError):
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
        cases = [
            ((nf.f1, nf.g1, nf.h1), (5, 0, 2, 3, 4)),
            ((nf.f2, nf.g2, nf.h2), (1, 2, 4, 5, 0)),
            ((nf.f3, nf.g3, nf.h3), (3, 4, 0, 1, 2)),
        ]
        for (f, g, h), (e0, e1, t0, t1, t2) in cases:
            cone1 = tp(w[e0] - w[e1], w[t1] - w[e1], w[t0] - w[e1])
            cone2 = tp(w[e0] - w[e1], w[t2] - w[e1], w[t1] - w[e1])
            sep = -(tp(w[e0] - w[t0], w[t2] - w[t0], w[t1] - w[t0])
                    * tp(w[e1] - w[t0], w[t2] - w[t0], w[t1] - w[t0]))
            assert np.array_equal(np.sign(f), np.sign(cone1))
            assert np.array_equal(np.sign(g), np.sign(cone2))
            assert np.array_equal(np.sign(h), np.sign(sep))


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
        assert not bool(class_masks((1.0, 1.0, 1.0), (0.5, 0.5, 0.5))[L_PLUS])

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
        nf = nine_functions(d, th)
        window = {1: np.all((th > 0.0) & (th < np.pi), axis=-1),
                  -1: np.all((th > np.pi) & (th < TWO_PI), axis=-1)}
        masks = class_masks(d, th)
        hits = 0
        for cls, (chirality, curl_sign) in TARGET_PAIRS.items():
            want = (window[curl_sign]
                    & np.all([chirality * f > 0.0 for f in nf[0::3]], axis=0)
                    & np.all([curl_sign * g > 0.0 for g in nf[1::3] + nf[2::3]], axis=0))
            assert masks[cls].shape == (2, n // 2)
            assert np.array_equal(masks[cls], want)
            hits += int(want.sum())
        assert hits > 0
        # the edge angles reach lanes inside a window
        assert np.any(pick.reshape(2, n // 2, 3).any(axis=-1) & (window[1] | window[-1]))

    def test_necessity_on_sampled_trefoils(self, rng):
        d = sample_action_batch(rng, 300_000)
        th = sample_angles_batch(rng, 300_000)
        codes = classify_batch(build_hexagon(d, th))
        masks = class_masks(d, th)
        for cls in TARGET_PAIRS:
            oracle = codes == int(cls)
            assert not (oracle & ~masks[cls]).any()


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
        with pytest.raises(NotInteriorError):
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
            curl_sign = TARGET_PAIRS[KNOT_CLASS_FROM_LABEL[label]].curl_part
            clauses = filter_clauses(np.array(d), np.array(th))[curl_sign]
            assert all(clauses.values()), (label, clauses)

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
