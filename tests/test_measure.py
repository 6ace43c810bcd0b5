import ctypes
import dataclasses
import json
import math
import os
import platform
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from hexknot import measure
from hexknot.measure import (
    CHUNK_SIZE,
    CLOSED_FORMS,
    MODES,
    ONE_OVER_42,
    POSITIVE_CURL_BOUND,
    REGIONS,
    UPPER_BOUND,
    BoundReport,
    BoundViolatedError,
    EstimationReport,
    check_count,
    check_seed,
    chunk_rng,
    compare_bound,
    estimate_knotting_probability,
    mc_region_volumes,
    repeat_estimates,
    sample_coordinate_stream,
)
from hexknot.invariants import TREFOIL_PAIRS, KnotClass
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
        estimates = mc_region_volumes(1_000_000, seed=23)
        assert list(estimates) == list(REGIONS)
        for name, est in estimates.items():
            assert abs(est.z_score()) < 4.0, (name, est.z_score())

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            mc_region_volumes(0, seed=1)
        with pytest.raises(ValueError):
            mc_region_volumes(1000, seed=1, workers=0)

    def test_z_score_with_zero_std_error(self):
        # a window with no hits has a zero binomial standard error
        est = mc_region_volumes(100, seed=0)["torus_obtuse_window"]
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
        a = mc_region_volumes(300_000, seed=5, workers=1)
        b = mc_region_volumes(300_000, seed=5, workers=4)
        assert a == b

    @pytest.mark.parametrize("workers", [1, 3])
    def test_shared_draw_matches_per_region_draws(self, workers):
        # the per-region definition: each region draws its own uniform(0, hi)
        # cube per chunk from the same key; the last chunk is partial
        sizes = [CHUNK_SIZE, CHUNK_SIZE, 1000]
        estimates = mc_region_volumes(sum(sizes), seed=13, workers=workers)
        for name, (hi, member, _) in REGIONS.items():
            hits = sum(int(member(chunk_rng(13, k).uniform(0.0, hi, (m, 3))).sum())
                       for k, m in enumerate(sizes))
            assert estimates[name].hits == hits, name

    def test_estimate_fields(self):
        est = mc_region_volumes(100_000, seed=7)["torus_obtuse_window"]
        assert est.value == pytest.approx(est.hits / 100_000 * (2 * np.pi) ** 3)
        assert est.value_std_error > 0
        assert json.dumps(dataclasses.asdict(est))


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
                mc_region_volumes(1000, seed)
        assert np.array_equal(chunk_rng(2 ** 64 - 1, 0).uniform(size=2),
                              chunk_rng(2 ** 64 - 1, 0).uniform(size=2))

    def test_non_integer_seed_is_rejected(self):
        # a float seed used to run the stream of its truncation, and True seed 1
        for seed in (1.5, 2.9, 3.0, True, False):
            with pytest.raises(ValueError, match="integer"):
                estimate_knotting_probability(1000, seed)
            with pytest.raises(ValueError, match="integer"):
                mc_region_volumes(1000, seed)
            with pytest.raises(ValueError, match="integer"):
                repeat_estimates(1000, seed, repeats=2)

    def test_numpy_integer_seed_matches_int(self):
        def report(seed):
            out = estimate_knotting_probability(20_000, seed, mode="oracle").to_dict()
            del out["wall_time_seconds"]
            return json.dumps(out)
        assert report(np.uint64(3)) == report(3)
        estimates = mc_region_volumes(1000, np.int64(3))
        assert estimates == mc_region_volumes(1000, 3)
        assert json.dumps({name: dataclasses.asdict(est) for name, est in estimates.items()})

    @pytest.mark.parametrize("seed", [0, 3, np.uint64(3), np.int64(7), np.uint64(2 ** 64 - 1)])
    def test_check_seed_returns_a_plain_int(self, seed):
        value = check_seed(seed)
        assert type(value) is int and value == seed

    def test_first_chunk_memory_does_not_grow_with_n(self):
        # the chunk plan is lazy: 10**6 chunks cost what one chunk costs
        peaks = []
        for n in (CHUNK_SIZE, CHUNK_SIZE * 10 ** 6):
            tracemalloc.start()
            try:
                next(sample_coordinate_stream(1, n))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] <= 2 ** 20, [p / 2 ** 20 for p in peaks]

    def test_pool_runs_at_most_two_chunks_per_worker_ahead(self):
        # the chunk plan of 10**6 chunks is not submitted at once
        calls = []
        seed = np.uint64(2 ** 64 - 1)

        def chunk(s, k, m):
            assert s is seed  # the runner passes the seed on unchanged
            calls.append(k)
            return k, m

        results = measure._run_chunks(chunk, seed, CHUNK_SIZE * 10 ** 6, 2)
        assert next(results) == (0, CHUNK_SIZE)
        results.close()
        assert len(calls) <= 5

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_chunk_results_arrive_in_chunk_order(self, workers):
        rng = np.random.default_rng(workers)
        delays = rng.uniform(0.0, 2e-3, 20)
        seed = np.uint64(2 ** 64 - 1)

        def chunk(s, k, m):
            time.sleep(delays[k])  # later chunks may finish first
            return s, k, m

        n = 19 * CHUNK_SIZE + 5
        results = list(measure._run_chunks(chunk, seed, n, workers))
        assert all(s is seed for s, _, _ in results)
        assert [(k, m) for _, k, m in results] == (
            [(k, CHUNK_SIZE) for k in range(19)] + [(19, 5)])

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
        assert r.fraction_total == sum(r.hits.values()) / r.samples
        assert r.ci95[0] <= r.fraction_total <= r.ci95[1]
        payload = json.loads(json.dumps(r.to_dict()))
        assert payload["fraction_R_plus"] == r.fraction_R_plus

    @pytest.mark.parametrize("n, seed", [
        pytest.param(10, 1, id="10"), pytest.param(11, 1, id="11"),
        pytest.param(2, 48047, id="2-48047"), pytest.param(3, 172, id="3-172")])
    def test_scaled_ci95_stays_in_unit_interval(self, n, seed):
        # at few samples each fraction and its Wilson edges stay in [0, 1]
        for mode in MODES:
            r = estimate_knotting_probability(n, seed=seed, mode=mode)
            trefoils = sum(r.hits[k] for k in
                           ("trefoil_R+", "trefoil_R-", "trefoil_L+", "trefoil_L-"))
            assert 0.0 <= r.ci95[0] <= r.fraction_total <= r.ci95[1] <= 1.0
            assert r.fraction_total == trefoils / (r.samples - r.degenerate_count)

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

    def test_oracle_chunk_memory_is_bounded(self):
        tracemalloc.start()
        try:
            measure._oracle_chunk(1, 0, CHUNK_SIZE)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * 2 ** 20, f"traced peak {peak / 2 ** 20:.0f} MiB"

    @pytest.mark.parametrize("block, m", [(7, 2105), (1000, CHUNK_SIZE)])
    @pytest.mark.parametrize("seed", [1, 5])
    def test_geometry_blocks_give_the_same_tallies(self, monkeypatch, seed, block, m):
        monkeypatch.setattr(measure, "GEOMETRY_BLOCK", m)
        tally = measure._oracle_chunk(seed, 0, m)
        monkeypatch.setattr(measure, "GEOMETRY_BLOCK", block)
        blocked = measure._oracle_chunk(seed, 0, m)
        assert np.array_equal(blocked[:, 0], tally[:, 0])  # class counts
        assert np.array_equal(blocked[:, 1:], tally[:, 1:])  # agreement columns

    def test_window_filters_run_on_trefoil_lanes_only(self, monkeypatch):
        lanes = []

        def spy(d, th):
            lanes.append(len(d))
            return passes_window_filters(d, th)

        monkeypatch.setattr(measure, "passes_window_filters", spy)
        tally = measure._oracle_chunk(1, 0, CHUNK_SIZE)
        counts, agree = tally[:, 0], tally[list(TREFOIL_PAIRS), 1:]
        assert lanes == [counts[1:5].sum()] and lanes[0] > 0
        # every trefoil of this chunk passes its predicate; one trefoil_L+
        # fails dominant_diagonal_window (criterion 4)
        assert agree[:, 2].tolist() == [0, 0, 1, 0] and agree[:, 1].sum() == lanes[0]

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
        for mode in ("nope", None, ["predicate"]):
            with pytest.raises(ValueError, match="unknown mode") as err:
                estimate_knotting_probability(10, seed=1, mode=mode)
            assert all(repr(name) in str(err.value) for name in MODES)
        for workers in (0, -5):
            with pytest.raises(ValueError):
                estimate_knotting_probability(1000, seed=1, workers=workers)
        for repeats in (0, -2):
            with pytest.raises(ValueError):
                repeat_estimates(1000, 1, repeats=repeats)

    def test_float_sample_count_is_refused(self):
        with pytest.raises(ValueError, match="sample count must be an integer"):
            estimate_knotting_probability(1e5, 1)

    def test_float_sample_count_of_a_volume_is_refused(self):
        with pytest.raises(ValueError, match="sample count must be an integer"):
            mc_region_volumes(1e5, 1)

    def test_float_worker_count_is_refused(self):
        with pytest.raises(ValueError, match="worker count must be an integer"):
            estimate_knotting_probability(100_000, 1, workers=2.5)

    def test_bool_sample_count_is_refused(self):
        with pytest.raises(ValueError, match="sample count must be an integer"):
            estimate_knotting_probability(True, 1)

    def test_numpy_integer_counts_report_plain_ints(self):
        r = estimate_knotting_probability(np.int64(1000), 1, workers=np.int32(2))
        assert type(r.samples) is int and type(r.workers) is int
        assert all(type(est.hits) is int
                   for est in mc_region_volumes(np.uint16(1000), 1).values())

    def test_all_degenerate_oracle_run_is_refused(self, monkeypatch):
        monkeypatch.setattr(measure, "classify_batch", lambda v: np.full(
            len(v), int(KnotClass.DEGENERATE), dtype=np.int8))
        with pytest.raises(ValueError, match="all samples degenerate"):
            estimate_knotting_probability(100, seed=1, mode="oracle")

    def test_repeats_check_last_seed_before_any_run(self, monkeypatch):
        def must_not_run(*args, **kwargs):
            raise AssertionError("estimator ran before the seed range check")
        monkeypatch.setattr(measure, "estimate_knotting_probability", must_not_run)
        # np.uint64 arithmetic wraps: its last seed used to run as 0
        for seed in (2 ** 64 - 1, np.uint64(2 ** 64 - 1)):
            with pytest.raises(ValueError, match="seed"):
                repeat_estimates(1000, seed, repeats=2)

    def test_zero_hit_interval_has_width(self):
        # a Wald interval collapses to (0, 0) here
        r = estimate_knotting_probability(1000, seed=1, mode="predicate")
        assert sum(r.hits.values()) == 0
        assert r.ci95[0] == 0.0 and 0.0 < r.ci95[1]
        assert r.ci95[1] == pytest.approx(0.00383, abs=1e-5)

    def test_interval_is_not_negative(self):
        # 2 hits: a Wald interval reaches -3.9e-5 here
        r = estimate_knotting_probability(20_000, seed=3, mode="predicate")
        assert r.ci95[0] >= 0.0
        assert r.ci95[0] <= r.fraction_total <= r.ci95[1]
        assert r.ci95 == pytest.approx((2.74e-5, 3.65e-4), rel=0.01)

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


_FAULTS_OF_SECOND_CALL = """
import resource
from hexknot import measure
measure.estimate_knotting_probability(1 << 18, 1)  # warm-up
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
measure.estimate_knotting_probability(1 << 21, 2)
faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
print(faults, *measure._keep_freed_heap())
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc's mallopt thresholds")
def test_estimator_keeps_freed_heap_between_chunks():
    # glibc used to trim a chunk's temporaries after it and fault them
    # back in for the next: about 58 k minor faults per 2**21 predicate
    # samples, against a handful with the estimator's thresholds
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    out = subprocess.run([sys.executable, "-c", _FAULTS_OF_SECOND_CALL], env=env,
                         capture_output=True, text=True, timeout=120, check=True).stdout
    faults, trim, mmap = map(int, out.split())
    assert (trim, mmap) == (1, 1)  # both mallopt calls accepted
    assert faults < 1000, faults


def _raises(exc):
    def cdll(name):
        raise exc
    return cdll


@pytest.mark.parametrize("cdll", [_raises(OSError("no C library")), _raises(TypeError("no handle")),
                                  lambda name: object()],
                         ids=["OSError", "TypeError", "no-mallopt"])
def test_estimator_runs_without_mallopt(monkeypatch, cdll):
    # musl and macOS have no mallopt, Windows no C library to open by None:
    # the estimator then keeps the allocator's defaults and its counts
    hits = estimate_knotting_probability(2 ** 16, 1).hits
    monkeypatch.setattr(ctypes, "CDLL", cdll)
    assert measure._keep_freed_heap() is None
    assert estimate_knotting_probability(2 ** 16, 1).hits == hits


class TestCountRule:
    """Every library entry point that takes a count refuses what check_count refuses."""

    @pytest.mark.parametrize("n", [1e5, True, 0, -5])
    def test_stream_refuses_bad_sample_count(self, n):
        # a generator: the refusal comes at the first next()
        with pytest.raises(ValueError, match="sample count must be an integer"):
            next(sample_coordinate_stream(1, n))

    @pytest.mark.parametrize("run", [estimate_knotting_probability, mc_region_volumes])
    def test_sample_count_then_worker_count_then_seed(self, run):
        with pytest.raises(ValueError, match="^sample count"):
            run(0, -1, workers=0)
        with pytest.raises(ValueError, match="^worker count"):
            run(10, -1, workers=0)
        with pytest.raises(ValueError, match="^seed"):
            run(10, -1, workers=2)

    def test_stream_takes_a_small_numpy_integer(self):
        rows = sum(len(d) for d, _ in sample_coordinate_stream(1, np.uint16(1000)))
        assert rows == 1000

    @pytest.mark.parametrize("repeats", [2.5, True])
    def test_repeats_refuses_non_integer(self, repeats):
        with pytest.raises(ValueError, match="repeat count must be an integer"):
            repeat_estimates(1000, 1, repeats=repeats)

    def test_repeats_is_keyword_only_with_no_default(self):
        for args in ((1000, 1), (1000, 1, "predicate", 1, 2)):
            with pytest.raises(TypeError):
                repeat_estimates(*args)

    def test_numpy_integer_repeats_summary_is_json(self):
        _, summary = repeat_estimates(1000, 1, repeats=np.int64(2))
        assert type(summary["repeats"]) is int
        assert json.loads(json.dumps(summary))["repeats"] == 2

    @pytest.mark.parametrize("count", [1, 7, np.int64(3), np.uint16(1000)])
    def test_check_count_returns_a_plain_int(self, count):
        value = check_count("sample", count)
        assert type(value) is int and value == count

    @pytest.mark.parametrize("count", [0, -1, 1.0, True, np.bool_(True), "3", None])
    def test_check_count_refuses(self, count):
        with pytest.raises(ValueError, match="^worker count must be an integer"):
            check_count("worker", count)


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

    def test_all_hits_upper_edge_is_one(self):
        # centre + half rounds to 1 - 2**-53 at hits == n from n = 127
        for n in range(1, 300):
            assert measure.wilson_interval(n, n)[1] == 1.0, n
            assert measure.wilson_interval(0, n)[0] == 0.0, n

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


# a well-formed predicate-mode report, as `hexknot bound` reads one
WELL_FORMED = EstimationReport(
    samples=1000, seed=1, mode="predicate", hits={}, degenerate_count=0,
    fraction_R_plus=0.0, fraction_total=0.0, std_error=0.0, ci95=[0.0, 0.01])


class TestCompareBound:
    def test_healthy_report(self):
        r = estimate_knotting_probability(500_000, seed=10, mode="predicate")
        b = compare_bound(r)
        assert b.estimate == r.fraction_total
        assert b.orderings["estimate_lt_upper_bound"]
        assert not b.orderings["upper_bound_lt_one_over_42"]
        payload = json.loads(json.dumps(b.to_dict()))
        assert payload["upper_bound"] == UPPER_BOUND

    def test_report_fields_and_constants(self):
        """to_dict() keeps five keys in this order, the two constants as
        compare_bound states them; a caller sets only the run's values."""
        payload = compare_bound(WELL_FORMED).to_dict()
        assert payload == {
            "estimate": 0.0, "ci95": (0.0, 0.01), "upper_bound": UPPER_BOUND,
            "one_over_42": ONE_OVER_42,
            "orderings": {"estimate_lt_upper_bound": True, "estimate_lt_one_over_42": True,
                          "upper_bound_lt_one_over_42": False}}
        assert list(payload) == [
            "estimate", "ci95", "upper_bound", "one_over_42", "orderings"]
        with pytest.raises(TypeError):
            BoundReport(estimate=0.0, ci95=(0.0, 0.01), orderings={}, upper_bound=1.0)

    def test_no_samples(self):
        r = estimate_knotting_probability(1000, seed=1, mode="predicate")
        r.degenerate_count = r.samples
        with pytest.raises(ValueError, match="0 <= degenerate_count < samples"):
            compare_bound(r)

    def test_zero_hits_on_few_samples_raise(self):
        # with no hits, the Wilson upper edge falls below the bound at 158 samples
        few, enough = (estimate_knotting_probability(n, seed=1, mode="predicate")
                       for n in (157, 158))
        assert sum(few.hits.values()) == sum(enough.hits.values()) == 0
        with pytest.raises(BoundViolatedError):
            compare_bound(few)
        assert compare_bound(enough).ci95[1] < UPPER_BOUND

    def test_bound_violation_detected(self):
        r = estimate_knotting_probability(1000, seed=1, mode="predicate")
        r.fraction_total, r.ci95 = 0.95, (0.9, 1.0)
        with pytest.raises(BoundViolatedError):
            compare_bound(r)

    @pytest.mark.parametrize("fraction, ci", [
        (0.3, (0.5, 0.1)), (0.5, (0.0, 2.0)), (0.9, (0.0, 0.5)), (0.0, (0.9, 1.1))],
        ids=["inverted", "upper-above-1", "estimate-above-ci", "estimate-below-ci"])
    def test_range_is_checked_before_the_bound(self, fraction, ci):
        # each interval also lies above the bound: a malformed report is a
        # ValueError, not a bound violation
        r = dataclasses.replace(WELL_FORMED, fraction_total=fraction, ci95=ci)
        with pytest.raises(ValueError, match="needs 0 <= ci95"):
            compare_bound(r)

    def test_interval_must_contain_estimate(self):
        r = estimate_knotting_probability(1000, seed=1, mode="predicate")
        r.fraction_total, r.ci95 = 0.5, (0.4, 0.0)
        with pytest.raises(ValueError, match="needs 0 <= ci95"):
            compare_bound(r)

    @pytest.mark.parametrize("name, value, kind", [
        ("ci95", 5, "two numbers"),
        ("ci95", [0.1], "two numbers"),
        ("ci95", [0, "1"], "two numbers"),
        ("ci95", [float("nan"), float("nan")], "two numbers"),
        ("ci95", (0.0, float("inf")), "two numbers"),
        ("samples", "10", "an integer"),
        ("samples", True, "an integer"),
        ("samples", 1000.0, "an integer"),
        ("degenerate_count", 0.5, "an integer"),
        ("fraction_total", None, "a number"),
        ("fraction_total", float("inf"), "a number"),
        ("fraction_total", 10 ** 400, "a number"),
        ("fraction_total", False, "a number"),
    ], ids=["ci95-number", "ci95-one-edge", "ci95-string-edge", "ci95-nan", "ci95-inf",
            "samples-string", "samples-bool", "samples-float", "degenerate-float",
            "fraction-null", "fraction-inf", "fraction-huge-int", "fraction-bool"])
    def test_malformed_field_names_the_field(self, name, value, kind):
        # the refusals and messages of `hexknot bound --with-estimate`
        r = dataclasses.replace(WELL_FORMED, **{name: value})
        with pytest.raises(ValueError) as err:
            compare_bound(r)
        assert str(err.value) == f"estimate report field {name!r} must be {kind}"

    def test_numpy_fields_are_accepted(self):
        r = dataclasses.replace(WELL_FORMED, samples=np.int64(1000), degenerate_count=np.int64(0),
                                fraction_total=np.float64(0.0),
                                ci95=(np.float64(0.0), np.float64(0.01)))
        assert compare_bound(r).ci95 == (0.0, 0.01)


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
