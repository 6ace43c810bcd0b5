import json
import math

import numpy as np
import pytest

from hexknot import measure
from hexknot.measure import (
    CHUNK_SIZE,
    CLOSED_FORMS,
    ONE_OVER_42,
    POSITIVE_CURL_BOUND,
    REGIONS,
    UPPER_BOUND,
    BoundViolatedError,
    NoSamplesError,
    UnknownRegionError,
    chunk_rng,
    compare_bound,
    estimate_knotting_probability,
    mc_region_volume,
    repeat_estimates,
    sample_coordinate_stream,
)
from hexknot.invariants import KnotClass
from hexknot.trefoil_predicates import passes_window_filters


class TestAnalyticVolumes:
    def test_closed_forms(self):
        t = CLOSED_FORMS
        assert t["vol_P6"] == 4.0
        assert t["vol_third"] == pytest.approx(4.0 / 3.0, abs=0)
        assert t["vol_obtuse"] == pytest.approx(2.0 * (np.pi - 2.0) / 3.0, abs=0)
        assert t["ratio_obtuse"] == pytest.approx(np.pi / 2.0 - 1.0, abs=0)
        assert t["torus_frac_obtuse"] == 1.0 / 192.0
        assert t["torus_frac_acute"] == 1.0 / 48.0
        assert t["upper_bound"] == UPPER_BOUND

    def test_upper_bound_digits(self):
        assert abs(UPPER_BOUND - (14.0 - 3.0 * np.pi) / 192.0) == 0.0
        assert UPPER_BOUND == pytest.approx(0.0238292814543262, abs=1e-14)
        assert ONE_OVER_42 == pytest.approx(0.0238095238095238, abs=1e-14)
        assert UPPER_BOUND > ONE_OVER_42

    def test_expected_positive_curl_bound(self):
        value = POSITIVE_CURL_BOUND
        assert value == pytest.approx(7.0 / 192.0 - np.pi / 128.0, abs=1e-15)
        assert 2.0 * value == pytest.approx(UPPER_BOUND, abs=1e-15)

    def test_conditional_regions_partition(self):
        assert (CLOSED_FORMS["ratio_obtuse"] + (2.0 - np.pi / 2.0)
                == pytest.approx(1.0, abs=1e-15))

    def test_ratio_consistency(self):
        t = CLOSED_FORMS
        assert t["vol_obtuse"] / t["vol_third"] == pytest.approx(t["ratio_obtuse"], abs=1e-15)


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

    @pytest.mark.parametrize("region, diagonals", [
        ("torus_obtuse_window", (1.5, 1.0, 0.8)),
        ("torus_acute_window", (1.0, 0.9, 0.8)),
    ])
    def test_torus_window_matches_filter_kernel(self, region, diagonals):
        # criterion 2 checks these regions against 1/192 and 1/48; the
        # estimator and the bound use the filter kernel's statement of
        # the same windows (positive curl, d1 the dominant diagonal)
        t = np.random.default_rng(2).uniform(0.0, 2 * np.pi, (100_000, 3))
        member = REGIONS[region][1]
        assert np.array_equal(member(t), passes_window_filters(diagonals, t)[1])

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

    def test_seed_outside_64_bits_is_rejected(self):
        # Philox keys are 64-bit words: 2**64 + 1 would alias seed 1
        for seed in (2 ** 64, 2 ** 64 + 1, -1):
            with pytest.raises(ValueError, match="seed"):
                chunk_rng(seed, 0)
            with pytest.raises(ValueError, match="seed"):
                estimate_knotting_probability(1000, seed)
            with pytest.raises(ValueError, match="seed"):
                mc_region_volume("P6", 1000, seed)
        assert np.array_equal(chunk_rng(2 ** 64 - 1, 0).uniform(size=2),
                              chunk_rng(2 ** 64 - 1, 0).uniform(size=2))

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

    def test_repeats_check_last_seed_before_any_run(self, monkeypatch):
        def must_not_run(*args, **kwargs):
            raise AssertionError("estimator ran before the seed range check")
        monkeypatch.setattr(measure, "estimate_knotting_probability", must_not_run)
        with pytest.raises(ValueError, match="seed"):
            repeat_estimates(1000, 2 ** 64 - 1, repeats=2)

    def test_zero_hit_interval_has_width(self):
        # a Wald interval collapses to (0, 0) here
        r = estimate_knotting_probability(1000, seed=1, mode="predicate")
        assert sum(r.hits.values()) == 0
        assert r.ci95[0] == 0.0 and 0.0 < r.ci95[1]
        assert r.ci95[1] == pytest.approx(0.0153, abs=1e-4)

    def test_interval_is_not_negative(self):
        # a Wald interval reaches -1.9e-4 here
        r = estimate_knotting_probability(20_000, seed=1, mode="predicate")
        assert r.ci95[0] >= 0.0
        assert r.ci95[0] <= r.fraction_total <= r.ci95[1]
        assert r.ci95 == pytest.approx((3.5e-5, 1.13e-3), rel=0.01)

    def test_oracle_interval_is_wilson_of_trefoils(self):
        r = estimate_knotting_probability(50_000, seed=2, mode="oracle")
        trefoils = sum(r.hits[k] for k in
                       ("trefoil_R+", "trefoil_R-", "trefoil_L+", "trefoil_L-"))
        assert trefoils > 0
        assert r.ci95 == measure.wilson_interval(trefoils, r.samples - r.degenerate_count)

    def test_repeats_summary(self):
        reports, summary = repeat_estimates(50_000, seed=3, repeats=3)
        assert len(reports) == 3
        assert {r.seed for r in reports} == {3, 4, 5}
        assert summary["repeats"] == 3
        rp = [r.fraction_R_plus for r in reports]
        assert summary["mean_fraction_R_plus"] == pytest.approx(np.mean(rp))
        assert summary["std_fraction_R_plus"] == pytest.approx(np.std(rp, ddof=1))


class TestWilsonCoverage:
    @staticmethod
    def misses(p, n):
        """Exact binomial probabilities that wilson_interval(k, n) lies
        below p and above p, summed over k within 12 sigma of n*p, and
        the pmf mass that sum covers."""
        sd = math.sqrt(n * p * (1.0 - p))
        log_nf = math.lgamma(n + 1)
        below = above = mass = 0.0
        first, last = max(0, int(n * p - 12 * sd)), min(n, int(n * p + 12 * sd) + 1)
        for k in range(first, last + 1):
            pmf = math.exp(log_nf - math.lgamma(k + 1) - math.lgamma(n - k + 1)
                           + k * math.log(p) + (n - k) * math.log1p(-p))
            lo, hi = measure.wilson_interval(k, n)
            below += pmf * (hi < p)
            above += pmf * (lo > p)
            mass += pmf
        return below, above, mass

    @pytest.mark.parametrize("p", [3.426005e-5, 1.37e-4])
    def test_coverage_at_knotting_rates(self, p):
        # p: the R+ reference fraction and about the total knotting rate
        for n in np.unique(np.logspace(3, 7, 60).astype(int)):
            below, above, mass = self.misses(p, int(n))
            assert mass > 1.0 - 1e-6
            # compare_bound reads only the upper edge
            assert below <= 0.026, (n, below)
            if n * p >= 5:
                assert 1.0 - below - above >= 0.93, (n, below, above)


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

    def test_zero_hits_on_few_samples_raise(self):
        # with no hits, 500 samples cannot put the interval below the bound
        r = estimate_knotting_probability(500, seed=1, mode="predicate")
        assert sum(r.hits.values()) == 0
        with pytest.raises(BoundViolatedError):
            compare_bound(r)

    def test_bound_violation_detected(self):
        r = estimate_knotting_probability(1000, seed=1, mode="predicate")
        r.ci95 = (0.9, 1.1)
        with pytest.raises(BoundViolatedError):
            compare_bound(r)

    def test_interval_must_contain_estimate(self):
        r = estimate_knotting_probability(1000, seed=1, mode="predicate")
        r.fraction_total, r.ci95 = 0.5, (0.4, 0.0)
        with pytest.raises(ValueError, match="does not contain fraction_total"):
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
