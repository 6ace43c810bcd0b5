"""Monte Carlo estimators and the closed-form knotting-probability bound.

The estimators partition the sample stream into fixed-size chunks;
chunk k draws from a counter-based generator keyed by (seed, k), so
results are bit-identical for a given (samples, seed) regardless of
how many workers execute the chunks. Reported fractions exclude
degenerate samples from both numerator and denominator.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, asdict
from functools import partial

import numpy as np

from .action_angle import (
    TWO_PI,
    build_hexagon,
    is_interior,
    sample_action_batch,
    sample_angles_batch,
)
from .invariants import (
    KNOT_CLASS_LABELS,
    KnotClass,
    TREFOIL_CLASSES,
    TREFOIL_PAIRS,
    classify_batch,
)
from .trefoil_predicates import class_masks, passes_window_filters

CHUNK_SIZE = 1 << 16

UPPER_BOUND = (14.0 - 3.0 * np.pi) / 192.0
ONE_OVER_42 = 1.0 / 42.0


class UnknownRegionError(ValueError):
    """Region name not in REGIONS."""


class BoundViolatedError(RuntimeError):
    """CI does not lie below the proven bound: a bug, or too few samples."""


class NoSamplesError(ValueError):
    """Report carries no usable samples."""


def check_seed(seed):
    """Return seed; ValueError unless it is one Philox key word, [0, 2**64)."""
    if not 0 <= seed < 1 << 64:
        raise ValueError(f"seed must be in [0, 2**64), got {seed}")
    return seed


def chunk_rng(seed, chunk_index):
    """Independent generator for one chunk of the sample stream.

    Philox is counter-based: distinct (seed, chunk) keys give distinct,
    reproducible streams with no sequential coupling, which is what
    makes worker scheduling irrelevant to the results. Raises ValueError
    unless the seed passes check_seed.
    """
    key = np.array([check_seed(seed), chunk_index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _chunks(n):
    return [(k, min(CHUNK_SIZE, n - k * CHUNK_SIZE))
            for k in range((n + CHUNK_SIZE - 1) // CHUNK_SIZE)]


def _run_chunks(func, n, workers):
    if n <= 0:
        raise ValueError("sample count must be positive")
    if workers < 1:
        raise ValueError("worker count must be positive")
    chunks = _chunks(n)
    if workers == 1:
        return [func(k, m) for k, m in chunks]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(lambda km: func(*km), chunks))


def _chunk_coordinates(seed, k, m):
    rng = chunk_rng(seed, k)
    return sample_action_batch(rng, m), sample_angles_batch(rng, m)


def sample_coordinate_stream(seed, n):
    """Yield (diagonals, angles) chunk pairs of the estimator's stream."""
    for k, m in _chunks(n):
        yield _chunk_coordinates(seed, k, m)


# Closed-form constants behind the knotting-probability bound (REGIONS
# checks each against a Monte Carlo estimate).
CLOSED_FORMS = {
    "vol_P6": 4.0,
    "vol_third": 4.0 / 3.0,
    "vol_obtuse": 2.0 * (np.pi - 2.0) / 3.0,
    "ratio_obtuse": np.pi / 2.0 - 1.0,
    "torus_frac_obtuse": 1.0 / 192.0,
    "torus_frac_acute": 1.0 / 48.0,
    "upper_bound": UPPER_BOUND,
}

# Bound on the positive-curl trefoil fraction: obtuse and acute diagonal
# regions weighted by their angle-window fractions.
POSITIVE_CURL_BOUND = (
    CLOSED_FORMS["ratio_obtuse"] * CLOSED_FORMS["torus_frac_obtuse"]
    + (1.0 - CLOSED_FORMS["ratio_obtuse"]) * CLOSED_FORMS["torus_frac_acute"])


def _region_third(d):
    return is_interior(d) & (d[:, 0] > d[:, 1]) & (d[:, 0] > d[:, 2])


def _region_obtuse(d):
    return _region_third(d) & (d[:, 0] ** 2 > d[:, 1] ** 2 + d[:, 2] ** 2)


def _region_acute(d):
    return _region_third(d) & (d[:, 0] ** 2 < d[:, 1] ** 2 + d[:, 2] ** 2)


def _angle_window(t, t0_low):
    return ((t[:, 0] > t0_low) & (t[:, 0] < np.pi)
            & (t[:, 1] > 0) & (t[:, 1] < np.pi / 2)
            & (t[:, 2] > 0) & (t[:, 2] < np.pi / 2)
            & (t[:, 0] + t[:, 1] < np.pi) & (t[:, 0] + t[:, 2] < np.pi))


# name -> (side of the uniform draw cube [0, hi]^3, membership test, analytic value)
REGIONS = {
    "P6": (2.0, is_interior, CLOSED_FORMS["vol_P6"]),
    "third_d1_max": (2.0, _region_third, CLOSED_FORMS["vol_third"]),
    "obtuse_d1": (2.0, _region_obtuse, CLOSED_FORMS["vol_obtuse"]),
    "acute_d1": (2.0, _region_acute,
                 CLOSED_FORMS["vol_third"] * (1.0 - CLOSED_FORMS["ratio_obtuse"])),
    "torus_obtuse_window": (TWO_PI, partial(_angle_window, t0_low=np.pi / 2),
                            TWO_PI ** 3 * CLOSED_FORMS["torus_frac_obtuse"]),
    "torus_acute_window": (TWO_PI, partial(_angle_window, t0_low=0),
                           TWO_PI ** 3 * CLOSED_FORMS["torus_frac_acute"]),
}


@dataclass
class VolumeEstimate:
    region: str
    samples: int
    seed: int
    hits: int
    fraction: float
    fraction_std_error: float
    value: float
    value_std_error: float
    reference_volume: float
    analytic: float

    def z_score(self) -> float:
        diff = self.value - self.analytic
        if self.value_std_error == 0:
            return 0.0 if diff == 0 else float(np.copysign(np.inf, diff))
        return diff / self.value_std_error

    to_dict = asdict


def mc_region_volume(region, n, seed, workers=1):
    """Monte Carlo volume of a named region: hit fraction times the
    reference volume, with the binomial standard error."""
    if region not in REGIONS:
        raise UnknownRegionError(
            f"unknown region {region!r}; choose from {sorted(REGIONS)}")
    hi, member, analytic = REGIONS[region]
    ref = hi ** 3

    def one_chunk(k, m):
        draw = chunk_rng(seed, k).uniform(0.0, hi, (m, 3))
        return int(member(draw).sum())

    hits = sum(_run_chunks(one_chunk, n, workers))
    frac = hits / n
    frac_se = np.sqrt(frac * (1.0 - frac) / n)
    return VolumeEstimate(
        region=region, samples=n, seed=seed, hits=hits,
        fraction=frac, fraction_std_error=float(frac_se),
        value=frac * ref, value_std_error=float(frac_se * ref),
        reference_volume=ref, analytic=analytic,
    )


def wilson_interval(hits, n):
    """95% Wilson score interval for hits / n; lower edge exactly 0 at 0 hits."""
    z2 = 1.96 ** 2
    centre = (hits + z2 / 2.0) / (n + z2)
    half = 1.96 * np.sqrt(hits * (1.0 - hits / n) + z2 / 4.0) / (n + z2)
    return float(max(centre - half, 0.0)), float(min(centre + half, 1.0))


@dataclass
class EstimationReport:
    """Result of one knotting-probability run.

    fraction_* entries exclude degenerate samples from numerator and
    denominator. In predicate mode fraction_total is 4 * fraction_R_plus
    (the four trefoil classes have equal measure); in oracle mode it is
    the sum of the four classified trefoil fractions. std_error (binomial)
    and ci95 (Wilson score) describe fraction_total.
    """

    samples: int
    seed: int
    mode: str
    hits: dict
    degenerate_count: int
    fraction_R_plus: float
    fraction_total: float
    std_error: float
    ci95: tuple
    wall_time_seconds: float = 0.0
    workers: int = 1
    agreement: dict | None = None

    to_dict = asdict


def _predicate_chunk(seed, k, m):
    d, th = _chunk_coordinates(seed, k, m)
    masks = class_masks(d, th)
    return np.array([int(masks[cls].sum()) for cls in TREFOIL_CLASSES])


def _oracle_chunk(seed, k, m):
    d, th = _chunk_coordinates(seed, k, m)
    codes = classify_batch(build_hexagon(d, th))
    class_counts = np.bincount(codes, minlength=6)

    masks = class_masks(d, th)
    windows = passes_window_filters(d, th)
    agree = np.zeros((len(TREFOIL_CLASSES), 4), dtype=np.int64)
    for row, cls in enumerate(TREFOIL_CLASSES):
        pred = masks[cls]
        accepted = pred & windows[TREFOIL_PAIRS[cls].curl_part]
        oracle = codes == int(cls)
        agree[row] = (
            int(pred.sum()),
            int((oracle & pred).sum()),
            int((oracle & ~accepted).sum()),  # fails predicate or a filter
            int((pred & ~oracle).sum()),      # sufficiency gap
        )
    return class_counts, agree


def estimate_knotting_probability(n, seed, mode="predicate", workers=1):
    """Estimate the fraction of knotted hexagons from n uniform samples.

    predicate mode counts coordinate tuples passing the closed-form
    test for a right-handed positive-curl trefoil (times 4 for the
    total; no geometry is built). oracle mode builds every hexagon,
    classifies it geometrically, and additionally cross-tabulates the
    predicate against the classification.

    Deterministic for fixed (n, seed) at any worker count.
    """
    if mode not in ("predicate", "oracle"):
        raise ValueError(f"unknown mode {mode!r}")
    t0 = time.perf_counter()

    if mode == "predicate":
        tallies = _run_chunks(lambda k, m: _predicate_chunk(seed, k, m),
                              n, workers)
        counts = np.sum(tallies, axis=0)
        hits = {KNOT_CLASS_LABELS[cls]: int(counts[i])
                for i, cls in enumerate(TREFOIL_CLASSES)}
        degenerate = 0
        frac_rp = counts[0] / n
        frac_total = 4.0 * frac_rp
        # variance of 4*p_hat for the single counted class
        se = 4.0 * np.sqrt(frac_rp * (1.0 - frac_rp) / n)
        ci = tuple(4.0 * edge for edge in wilson_interval(counts[0], n))
        agreement = None
    else:
        tallies = _run_chunks(lambda k, m: _oracle_chunk(seed, k, m),
                              n, workers)
        class_counts = np.sum([t[0] for t in tallies], axis=0)
        agree = np.sum([t[1] for t in tallies], axis=0)
        hits = {KNOT_CLASS_LABELS[KnotClass(i)]: int(class_counts[i])
                for i in range(6)}
        degenerate = int(class_counts[int(KnotClass.DEGENERATE)])
        valid = n - degenerate
        if valid <= 0:
            raise NoSamplesError("all samples degenerate")
        frac_rp = class_counts[int(KnotClass.TREFOIL_R_PLUS)] / valid
        trefoils = sum(class_counts[int(cls)] for cls in TREFOIL_CLASSES)
        frac_total = trefoils / valid
        se = float(np.sqrt(frac_total * (1.0 - frac_total) / valid))
        ci = wilson_interval(trefoils, valid)
        pred_total = int(agree[:, 0].sum())
        both = int(agree[:, 1].sum())
        agreement = {
            "per_class": {
                KNOT_CLASS_LABELS[cls]: {
                    "predicate_hits": int(agree[i, 0]),
                    "both": int(agree[i, 1]),
                    "necessity_violations": int(agree[i, 2]),
                    "predicate_only": int(agree[i, 3]),
                }
                for i, cls in enumerate(TREFOIL_CLASSES)
            },
            "necessity_violations": int(agree[:, 2].sum()),
            "predicate_hits": pred_total,
            "agreement_rate": (both / pred_total) if pred_total else 1.0,
        }

    return EstimationReport(
        samples=n,
        seed=seed,
        mode=mode,
        hits=hits,
        degenerate_count=degenerate,
        fraction_R_plus=float(frac_rp),
        fraction_total=float(frac_total),
        std_error=float(se),
        ci95=ci,
        wall_time_seconds=time.perf_counter() - t0,
        workers=workers,
        agreement=agreement,
    )


def repeat_estimates(n, seed, mode="predicate", workers=1, repeats=10):
    """Run the estimator `repeats` times with seeds seed..seed+repeats-1.

    Returns (reports, summary) where summary carries the across-run mean
    and standard deviation of the headline fractions. Raises ValueError
    when repeats < 1 or the last seed fails check_seed, before any run.
    """
    if repeats < 1:
        raise ValueError("repeat count must be positive")
    check_seed(seed + repeats - 1)
    reports = [estimate_knotting_probability(n, seed + r, mode=mode,
                                             workers=workers)
               for r in range(repeats)]
    summary = {"repeats": repeats}
    for name in ("fraction_R_plus", "fraction_total"):
        values = np.array([getattr(r, name) for r in reports])
        summary[f"mean_{name}"] = float(values.mean())
        summary[f"std_{name}"] = float(values.std(ddof=1)) if repeats > 1 else 0.0
    return reports, summary


@dataclass
class BoundReport:
    """Numeric comparison of an estimate against the closed-form bound."""

    estimate: float
    ci95: tuple
    upper_bound: float = UPPER_BOUND
    one_over_42: float = ONE_OVER_42
    orderings: dict = field(default_factory=dict)

    to_dict = asdict


def compare_bound(report):
    """BoundReport for an EstimationReport.

    Raises NoSamplesError when the report has no usable samples,
    BoundViolatedError when the 95% CI upper edge exceeds the bound
    (the bound is proven, so that signals a bug or too few samples), and
    ValueError when the CI does not contain fraction_total.
    """
    if report.samples <= 0 or report.samples - report.degenerate_count <= 0:
        raise NoSamplesError("report has no usable samples")
    estimate = report.fraction_total
    ci = tuple(report.ci95)
    if ci[1] > UPPER_BOUND:
        raise BoundViolatedError(
            f"CI upper edge {ci[1]:.6e} exceeds the bound {UPPER_BOUND:.6e}")
    if not ci[0] <= estimate <= ci[1]:
        raise ValueError(f"estimate report ci95 [{ci[0]:.6e}, {ci[1]:.6e}] "
                         f"does not contain fraction_total {estimate:.6e}")
    orderings = {
        "estimate_lt_upper_bound": bool(estimate < UPPER_BOUND),
        "estimate_lt_one_over_42": bool(estimate < ONE_OVER_42),
        "upper_bound_lt_one_over_42": bool(UPPER_BOUND < ONE_OVER_42),
    }
    return BoundReport(estimate=estimate, ci95=ci, orderings=orderings)
