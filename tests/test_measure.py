import json

import numpy as np
import pytest

from hexknot.measure import (
    CHUNK_SIZE,
    ONE_OVER_42,
    REGIONS,
    UPPER_BOUND,
    BoundViolatedError,
    NoSamplesError,
    UnknownRegionError,
    analytic_volumes,
    chunk_rng,
    compare_bound,
    estimate_knotting_probability,
    mc_region_volume,
    repeat_estimates,
    sample_coordinate_stream,
)
from hexknot.invariants import KnotClass


class TestAnalyticVolumes:
    def test_closed_forms(self):
        t = analytic_volumes()
        assert t.vol_P6 == 4.0
        assert t.vol_third == pytest.approx(4.0 / 3.0, abs=0)
        assert t.vol_obtuse == pytest.approx(2.0 * (np.pi - 2.0) / 3.0, abs=0)
        assert t.ratio_obtuse == pytest.approx(np.pi / 2.0 - 1.0, abs=0)
        assert t.torus_frac_obtuse == 1.0 / 192.0
        assert t.torus_frac_acute == 1.0 / 48.0

    def test_upper_bound_digits(self):
        assert abs(UPPER_BOUND - (14.0 - 3.0 * np.pi) / 192.0) == 0.0
        assert UPPER_BOUND == pytest.approx(0.0238292814543262, abs=1e-14)
        assert ONE_OVER_42 == pytest.approx(0.0238095238095238, abs=1e-14)
        assert UPPER_BOUND > ONE_OVER_42

    def test_expected_positive_curl_bound(self):
        t = analytic_volumes()
        value = t.expected_positive_curl_bound()
        assert value == pytest.approx(7.0 / 192.0 - np.pi / 128.0, abs=1e-15)
        assert 2.0 * value == pytest.approx(UPPER_BOUND, abs=1e-15)

    def test_conditional_regions_partition(self):
        t = analytic_volumes()
        assert t.ratio_obtuse + (2.0 - np.pi / 2.0) == pytest.approx(1.0, abs=1e-15)

    def test_ratio_consistency(self):
        t = analytic_volumes()
        assert t.vol_obtuse / t.vol_third == pytest.approx(t.ratio_obtuse, abs=1e-15)


class TestRegionVolumes:
    def test_all_regions_within_four_sigma(self):
        for name in REGIONS:
            est = mc_region_volume(name, 1_000_000, seed=23)
            assert abs(est.z_score()) < 4.0, (name, est.z_score())

    def test_unknown_region(self):
        with pytest.raises(UnknownRegionError):
            mc_region_volume("nope", 1000, seed=0)

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            mc_region_volume("P6", 0, seed=1)
        with pytest.raises(ValueError):
            mc_region_volume("P6", 1000, seed=1, workers=0)

    def test_z_score_with_zero_std_error(self):
        # a window with no hits has a zero binomial standard error
        est = mc_region_volume("torus_obtuse_window", 100, seed=0)
        assert est.hits == 0 and est.value_std_error == 0.0
        assert est.z_score() == -np.inf
        est.analytic = 0.0
        assert est.z_score() == 0.0
        est.value = 1.0
        assert est.z_score() == np.inf

    def test_deterministic_across_workers(self):
        a = mc_region_volume("P6", 300_000, seed=5, workers=1)
        b = mc_region_volume("P6", 300_000, seed=5, workers=4)
        assert a.hits == b.hits and a.value == b.value

    def test_estimate_fields(self):
        est = mc_region_volume("torus_obtuse_window", 100_000, seed=7)
        assert est.reference_volume == pytest.approx((2 * np.pi) ** 3)
        assert est.value == pytest.approx(est.fraction * est.reference_volume)
        assert est.value_std_error > 0
        assert json.dumps(est.to_dict())


class TestChunkStream:
    def test_chunk_rng_is_keyed_not_sequential(self):
        a = chunk_rng(1, 0).uniform(size=4)
        b = chunk_rng(1, 1).uniform(size=4)
        c = chunk_rng(2, 0).uniform(size=4)
        assert not np.allclose(a, b) and not np.allclose(a, c)
        assert np.array_equal(a, chunk_rng(1, 0).uniform(size=4))

    def test_stream_concatenation_is_stable(self):
        long_d = np.concatenate([d for d, _ in sample_coordinate_stream(3, 200_000)])
        again = np.concatenate([d for d, _ in sample_coordinate_stream(3, 200_000)])
        assert np.array_equal(long_d, again)
        # a shorter run is a prefix: chunks are independent of total n
        short_d = np.concatenate([d for d, _ in sample_coordinate_stream(3, CHUNK_SIZE)])
        assert np.array_equal(long_d[:CHUNK_SIZE], short_d)


class TestEstimate:
    def test_predicate_report_shape(self):
        r = estimate_knotting_probability(100_000, seed=2, mode="predicate")
        assert r.samples == 100_000 and r.mode == "predicate"
        assert set(r.hits) == {"trefoil_R+", "trefoil_R-", "trefoil_L+", "trefoil_L-"}
        assert r.degenerate_count == 0
        assert r.fraction_total == pytest.approx(4.0 * r.fraction_R_plus, abs=0)
        assert r.ci95[0] <= r.fraction_total <= r.ci95[1]
        payload = json.loads(json.dumps(r.to_dict()))
        assert payload["fraction_R_plus"] == r.fraction_R_plus

    def test_oracle_report_counts_sum(self):
        r = estimate_knotting_probability(100_000, seed=2, mode="oracle")
        assert sum(r.hits.values()) == 100_000
        assert set(r.hits) == {"unknot", "trefoil_R+", "trefoil_R-",
                               "trefoil_L+", "trefoil_L-", "degenerate"}
        trefoils = sum(r.hits[k] for k in
                       ("trefoil_R+", "trefoil_R-", "trefoil_L+", "trefoil_L-"))
        valid = r.samples - r.degenerate_count
        assert r.fraction_total == pytest.approx(trefoils / valid, abs=0)

    def test_oracle_agreement_block(self):
        r = estimate_knotting_probability(200_000, seed=4, mode="oracle")
        agree = r.agreement
        assert agree is not None
        assert agree["necessity_violations"] == 0
        assert 0.0 <= agree["agreement_rate"] <= 1.0
        for stats in agree["per_class"].values():
            assert stats["both"] + stats["predicate_only"] == stats["predicate_hits"]

    def test_same_stream_across_modes(self):
        pred = estimate_knotting_probability(200_000, seed=6, mode="predicate")
        orac = estimate_knotting_probability(200_000, seed=6, mode="oracle")
        # predicate-mode counts equal the oracle run's predicate tallies
        for label, count in pred.hits.items():
            assert orac.agreement["per_class"][label]["predicate_hits"] == count
        # oracle trefoils never exceed predicate hits (necessity)
        for label in pred.hits:
            assert orac.hits[label] <= pred.hits[label]

    def test_deterministic_across_workers(self):
        base = None
        for workers in (1, 2, 5):
            r = estimate_knotting_probability(150_000, seed=8, mode="predicate",
                                              workers=workers)
            d = r.to_dict()
            d.pop("wall_time_seconds")
            d.pop("workers")
            if base is None:
                base = d
            else:
                assert d == base

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            estimate_knotting_probability(0, seed=1)
        with pytest.raises(ValueError):
            estimate_knotting_probability(10, seed=1, mode="nope")
        for workers in (0, -5):
            with pytest.raises(ValueError):
                estimate_knotting_probability(1000, seed=1, workers=workers)
        for repeats in (0, -2):
            with pytest.raises(ValueError):
                repeat_estimates(1000, 1, repeats=repeats)

    def test_repeats_summary(self):
        reports, summary = repeat_estimates(50_000, seed=3, repeats=3)
        assert len(reports) == 3
        assert {r.seed for r in reports} == {3, 4, 5}
        assert summary["repeats"] == 3
        rp = [r.fraction_R_plus for r in reports]
        assert summary["mean_fraction_R_plus"] == pytest.approx(np.mean(rp))
        assert summary["std_fraction_R_plus"] == pytest.approx(np.std(rp, ddof=1))


class TestCompareBound:
    def test_healthy_report(self):
        r = estimate_knotting_probability(500_000, seed=10, mode="predicate")
        b = compare_bound(r)
        assert b.estimate == r.fraction_total
        assert b.orderings["estimate_lt_upper_bound"]
        assert not b.orderings["upper_bound_lt_one_over_42"]
        payload = json.loads(json.dumps(b.to_dict()))
        assert payload["upper_bound"] == UPPER_BOUND

    def test_no_samples(self):
        r = estimate_knotting_probability(1000, seed=1, mode="predicate")
        r.degenerate_count = r.samples
        with pytest.raises(NoSamplesError):
            compare_bound(r)

    def test_bound_violation_detected(self):
        r = estimate_knotting_probability(1000, seed=1, mode="predicate")
        r.ci95 = (0.9, 1.1)
        with pytest.raises(BoundViolatedError):
            compare_bound(r)


class TestSymmetry:
    def test_mirror_class_fractions_agree(self):
        r = estimate_knotting_probability(2_000_000, seed=12, mode="oracle",
                                          workers=2)
        valid = r.samples - r.degenerate_count
        for a, b in (("trefoil_R+", "trefoil_L-"), ("trefoil_R-", "trefoil_L+")):
            fa, fb = r.hits[a] / valid, r.hits[b] / valid
            se = np.sqrt((fa * (1 - fa) + fb * (1 - fb)) / valid)
            assert abs(fa - fb) < 3.0 * se, (a, b, fa, fb)

    def test_unknot_majority(self):
        r = estimate_knotting_probability(500_000, seed=14, mode="oracle",
                                          workers=2)
        assert r.hits["unknot"] / (r.samples - r.degenerate_count) >= 0.5
