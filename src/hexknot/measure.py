"""Monte Carlo estimators and the closed-form knotting-probability bound.

_run_chunks splits every sample stream into fixed-size chunks and yields
chunk(seed, k, m) for chunk k of m samples, in chunk order; chunk k
draws from a counter-based generator keyed by (seed, k), so results are
bit-identical for a given (samples, seed) at any worker count. Reported
fractions exclude degenerate samples from both numerator and denominator.
"""

from __future__ import annotations

import sys
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, asdict

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
    TREFOIL_PAIRS,
    classify_batch,
)
from .trefoil_predicates import class_masks, passes_window_filters

CHUNK_SIZE = 1 << 16
# Lanes per build_hexagon + classify_batch call: a lane-sized float
# temporary of a block is 128 KiB, so the geometry works in cache.
GEOMETRY_BLOCK = 1 << 14
# Columns of the oracle agreement block, one row per trefoil class.
AGREEMENT_COLUMNS = ("predicate_hits", "both", "necessity_violations", "predicate_only")

UPPER_BOUND = (14.0 - 3.0 * np.pi) / 192.0
ONE_OVER_42 = 1.0 / 42.0


class BoundViolatedError(RuntimeError):
    """CI does not lie below the proven bound: a bug, or too few samples."""


def _is_integer(x):
    """An int or numpy integer, not a bool: the integer rule of seeds, counts and reports."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def check_seed(seed):
    """Return int(seed); ValueError unless it is an integer Philox key word in [0, 2**64)."""
    if not _is_integer(seed) or not 0 <= seed < 1 << 64:
        raise ValueError(f"seed must be in [0, 2**64) as an integer, got {seed!r}")
    return int(seed)  # seed arithmetic on a plain int cannot wrap


def check_count(name, count):
    """Return int(count); ValueError unless count is an integer of at least 1."""
    if not _is_integer(count) or count < 1:
        raise ValueError(f"{name} count must be an integer of at least 1, got {count!r}")
    return int(count)  # a plain int: JSON writes it, and no fixed-width overflow


def chunk_rng(seed, chunk_index):
    """Independent generator for one chunk of the sample stream.

    Philox is counter-based: distinct (seed, chunk) keys give distinct,
    reproducible streams with no sequential coupling, which is what
    makes worker scheduling irrelevant to the results. Raises ValueError
    unless the seed passes check_seed.
    """
    key = np.array([check_seed(seed), chunk_index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _run_chunks(chunk, seed, n, workers):
    n = check_count("sample", n)
    chunks = ((i // CHUNK_SIZE, min(CHUNK_SIZE, n - i)) for i in range(0, n, CHUNK_SIZE))
    workers = check_count("worker", workers)
    if workers == 1:  # serial: a one-thread pool raised peak RSS by 10-18%
        yield from (chunk(seed, k, m) for k, m in chunks)
        return
    with ThreadPoolExecutor(max_workers=workers) as pool:  # in chunk order, 2 * workers ahead
        ahead = deque()
        for k, m in chunks:
            ahead.append(pool.submit(chunk, seed, k, m))
            if len(ahead) > 2 * workers:
                yield ahead.popleft().result()
        yield from (future.result() for future in ahead)


def _chunk_coordinates(seed, k, m):
    rng = chunk_rng(seed, k)
    return sample_action_batch(rng, m), sample_angles_batch(rng, m)


def sample_coordinate_stream(seed, n):
    """Yield (diagonals, angles) chunk pairs of the estimator's stream."""
    return _run_chunks(_chunk_coordinates, seed, n, 1)


# Closed-form constants behind the knotting-probability bound (REGIONS
# checks each against a Monte Carlo estimate).
CLOSED_FORMS = {
    "vol_P6": 4.0,
    "vol_third": 4.0 / 3.0,
    "vol_obtuse": 2.0 * (np.pi - 2.0) / 3.0,
    "ratio_obtuse": np.pi / 2.0 - 1.0,
    "torus_frac_obtuse": 1.0 / 192.0,
    "torus_frac_acute": 1.0 / 48.0,
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


# name -> (side of the uniform draw cube [0, hi]^3, membership test, analytic value).
# Each torus window is the positive-curl window filter at fixed distinct
# diagonals with d1 the largest, d1^2 above or below d2^2 + d3^2.
REGIONS = {
    "P6": (2.0, is_interior, CLOSED_FORMS["vol_P6"]),
    "third_d1_max": (2.0, _region_third, CLOSED_FORMS["vol_third"]),
    "obtuse_d1": (2.0, _region_obtuse, CLOSED_FORMS["vol_obtuse"]),
    "acute_d1": (2.0, _region_acute,
                 CLOSED_FORMS["vol_third"] * (1.0 - CLOSED_FORMS["ratio_obtuse"])),
    "torus_obtuse_window": (TWO_PI, lambda t: passes_window_filters((1.5, 1.0, 0.8), t)[1],
                            TWO_PI ** 3 * CLOSED_FORMS["torus_frac_obtuse"]),
    "torus_acute_window": (TWO_PI, lambda t: passes_window_filters((1.0, 0.9, 0.8), t)[1],
                           TWO_PI ** 3 * CLOSED_FORMS["torus_frac_acute"]),
}


@dataclass
class VolumeEstimate:
    hits: int
    value: float
    value_std_error: float
    analytic: float

    def z_score(self) -> float:
        diff = self.value - self.analytic
        if self.value_std_error == 0:
            return 0.0 if diff == 0 else float(np.copysign(np.inf, diff))
        return diff / self.value_std_error


def _region_chunk(seed, k, m):
    u = chunk_rng(seed, k).random((m, 3))
    return np.array([member(hi * u).sum() for hi, member, _ in REGIONS.values()])


def mc_region_volumes(n, seed, workers=1):
    """{name: VolumeEstimate} for every REGIONS row, in REGIONS order: the
    hit fraction times the reference volume hi^3, with the binomial
    standard error. Each chunk draws u on [0, 1)^3 once, and row r counts
    member_r(hi_r * u), bit for bit the draw uniform(0, hi_r) would give."""
    totals = sum(_run_chunks(_region_chunk, seed, n, workers))
    estimates = {}
    for (name, (hi, _, analytic)), hits in zip(REGIONS.items(), map(int, totals)):
        frac = hits / n
        frac_se = np.sqrt(frac * (1.0 - frac) / n)
        estimates[name] = VolumeEstimate(hits, frac * hi ** 3, float(frac_se * hi ** 3), analytic)
    return estimates


def wilson_interval(hits, n):
    """95% Wilson score interval for hits / n; edges exactly 0 at 0 hits and 1 at n hits."""
    z2 = 1.96 ** 2
    centre = (hits + z2 / 2.0) / (n + z2)
    half = 1.96 * np.sqrt(hits * (1.0 - hits / n) + z2 / 4.0) / (n + z2)
    return float(max(centre - half, 0.0)), float(min(centre + half, 1.0) if hits < n else 1.0)


@dataclass
class EstimationReport:
    """Result of one knotting-probability run.

    fraction_* entries exclude degenerate samples from numerator and
    denominator. In both modes fraction_total = p = knotted / valid with
    knotted the sum of the four trefoil counts in hits; std_error is
    sqrt(p (1 - p) / valid) and ci95 the Wilson score interval of
    knotted / valid.
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


def _keep_freed_heap():
    """Have glibc keep up to 64 MiB of freed heap per arena, process-wide,
    so a chunk does not fault its roughly 7 MB of temporaries back in
    (58 k minor faults per 2**21 predicate samples). The trim threshold
    alone freezes the dynamic mmap threshold and lane arrays are then
    mmapped afresh, so blocks up to 32 MiB stay on the heap too.
    Returns mallopt's results (1 on success), or None without mallopt."""
    import ctypes  # here, not at import: the CLI's text commands never call this

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # no mallopt (musl, macOS), no libc (Windows)
        return None
    return mallopt(-1, 64 << 20), mallopt(-3, 32 << 20)  # M_TRIM_THRESHOLD, M_MMAP_THRESHOLD


def _predicate_chunk(seed, k, m):
    masks = class_masks(*_chunk_coordinates(seed, k, m))
    return np.array([int(masks[cls].sum()) for cls in TREFOIL_PAIRS])


def _oracle_chunk(seed, k, m):
    d, th = _chunk_coordinates(seed, k, m)
    codes = np.concatenate([
        classify_batch(build_hexagon(d[b:b + GEOMETRY_BLOCK], th[b:b + GEOMETRY_BLOCK]))
        for b in range(0, m, GEOMETRY_BLOCK)])
    # One row per KnotClass: the oracle count, then AGREEMENT_COLUMNS on trefoil rows.
    tally = np.zeros((len(KNOT_CLASS_LABELS), 1 + len(AGREEMENT_COLUMNS)), dtype=np.int64)
    tally[:, 0] = np.bincount(codes, minlength=len(KNOT_CLASS_LABELS))

    masks = class_masks(d, th)
    # Only trefoil lanes count in `both` or in the third column (fails the
    # predicate or a filter), so codes and filters are read there alone.
    trefoil = np.nonzero(np.isin(codes, list(TREFOIL_PAIRS)))[0]
    windows = passes_window_filters(d[trefoil], th[trefoil])
    for cls, (_, curl_sign) in TREFOIL_PAIRS.items():
        pred = masks[cls][trefoil]
        oracle = codes[trefoil] == int(cls)
        tally[cls, 1:4] = (masks[cls].sum(), (oracle & pred).sum(),
                           (oracle & ~(pred & windows[curl_sign])).sum())
    tally[:, 4] = tally[:, 1] - tally[:, 2]  # sufficiency gap
    return tally


def _oracle_finish(tally):
    agree = tally[list(TREFOIL_PAIRS), 1:]
    pred_total = int(agree[:, 0].sum())
    return {KNOT_CLASS_LABELS[i]: int(c) for i, c in enumerate(tally[:, 0])}, {
        "per_class": {KNOT_CLASS_LABELS[cls]: dict(zip(AGREEMENT_COLUMNS, map(int, row)))
                      for cls, row in zip(TREFOIL_PAIRS, agree)},
        "necessity_violations": int(agree[:, 2].sum()),
        "predicate_hits": pred_total,
        "agreement_rate": (int(agree[:, 1].sum()) / pred_total) if pred_total else 1.0,
    }


# name -> (chunk function of (seed, k, m) giving one fixed-shape integer
# array, finish from the chunks' total to the report's (hits, agreement)).
MODES = {
    "predicate": (_predicate_chunk, lambda counts: (
        {KNOT_CLASS_LABELS[cls]: int(c) for cls, c in zip(TREFOIL_PAIRS, counts)}, None)),
    "oracle": (_oracle_chunk, _oracle_finish),
}


def estimate_knotting_probability(n, seed, mode="predicate", workers=1):
    """Estimate the fraction of knotted hexagons from n uniform samples.

    mode is a key of MODES, else ValueError. predicate mode counts
    coordinate tuples passing the closed-form test of each trefoil class
    (no geometry is built). oracle mode builds every hexagon, classifies
    it geometrically, and additionally cross-tabulates the predicate
    against the classification. The estimate is the four trefoil counts
    over the non-degenerate samples, deterministic for fixed (n, seed)
    at any worker count.
    """
    if not isinstance(mode, str) or mode not in MODES:  # a list would raise TypeError
        raise ValueError(f"unknown mode {mode!r}; choose from {sorted(MODES)}")
    chunk, finish = MODES[mode]
    _keep_freed_heap()
    t0 = time.perf_counter()
    # Summed in the chunk order _run_chunks keeps at any worker count: floats stay bit-identical.
    hits, agreement = finish(sum(_run_chunks(chunk, seed, n, workers)))

    degenerate = hits.get("degenerate", 0)  # only oracle mode builds geometry
    valid = n - degenerate
    if valid <= 0:
        raise ValueError("all samples degenerate")
    knotted = sum(hits[KNOT_CLASS_LABELS[cls]] for cls in TREFOIL_PAIRS)
    p = knotted / valid
    return EstimationReport(
        samples=int(n),
        seed=int(seed),
        mode=mode,
        hits=hits,
        degenerate_count=degenerate,
        fraction_R_plus=hits["trefoil_R+"] / valid,
        fraction_total=p,
        std_error=float(np.sqrt(p * (1.0 - p) / valid)),
        ci95=wilson_interval(knotted, valid),
        wall_time_seconds=time.perf_counter() - t0,
        workers=int(workers),
        agreement=agreement,
    )


def repeat_estimates(n, seed, mode="predicate", workers=1, *, repeats):
    """Run the estimator `repeats` times with seeds seed..seed+repeats-1.

    Returns (reports, summary) where summary carries the across-run mean
    and standard deviation of the headline fractions. Raises ValueError, before
    any run, unless seed and the last seed pass check_seed and repeats check_count.
    """
    seed = check_seed(seed)
    repeats = check_count("repeat", repeats)
    check_seed(seed + repeats - 1)
    reports = [estimate_knotting_probability(n, seed + r, mode=mode, workers=workers)
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
    upper_bound: float = field(default=UPPER_BOUND, init=False)
    one_over_42: float = field(default=ONE_OVER_42, init=False)
    orderings: dict

    to_dict = asdict


def compare_bound(report):
    """BoundReport for an EstimationReport.

    ValueError, naming the field, unless samples and degenerate_count are
    integers and fraction_total and both ci95 edges finite numbers, and
    unless 0 <= degenerate_count < samples and 0 <= ci95[0] <= fraction_total
    <= ci95[1] <= 1, as in every report the estimator writes; BoundViolatedError
    when the 95% CI upper edge exceeds the proven bound (a bug, or too few samples).
    """
    def number(x):  # not NaN, Infinity or an int beyond float range
        return (_is_integer(x) or isinstance(x, float)) and abs(x) <= sys.float_info.max
    ci = report.ci95
    for name, ok, kind in (
            ("samples", _is_integer(report.samples), "an integer"),
            ("degenerate_count", _is_integer(report.degenerate_count), "an integer"),
            ("fraction_total", number(report.fraction_total), "a number"),
            ("ci95", isinstance(ci, (tuple, list)) and len(ci) == 2
             and all(map(number, ci)), "two numbers")):
        if not ok:
            raise ValueError(f"estimate report field {name!r} must be {kind}")
    if not 0 <= report.degenerate_count < report.samples:
        raise ValueError(f"estimate report needs 0 <= degenerate_count < samples, "
                         f"got {report.degenerate_count} and {report.samples}")
    estimate = report.fraction_total
    ci = tuple(ci)
    if not 0.0 <= ci[0] <= estimate <= ci[1] <= 1.0:
        raise ValueError(f"estimate report needs 0 <= ci95[0] <= fraction_total <= ci95[1] "
                         f"<= 1, got [{ci[0]:.6e}, {ci[1]:.6e}] and {estimate:.6e}")
    if ci[1] > UPPER_BOUND:
        raise BoundViolatedError(
            f"CI upper edge {ci[1]:.6e} exceeds the bound {UPPER_BOUND:.6e}")
    orderings = {
        "estimate_lt_upper_bound": bool(estimate < UPPER_BOUND),
        "estimate_lt_one_over_42": bool(estimate < ONE_OVER_42),
        "upper_bound_lt_one_over_42": bool(UPPER_BOUND < ONE_OVER_42),
    }
    return BoundReport(estimate=estimate, ci95=ci, orderings=orderings)
