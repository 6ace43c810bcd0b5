"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one [PASS]/[FAIL] line (run with `pytest -s` to see
them live). The expensive Monte Carlo runs are session fixtures shared
across criteria; all seeds are pinned, so every number here is
reproducible bit for bit.
"""

import numpy as np
import pytest

from hexknot.action_angle import (
    build_hexagon,
    extract_action_angle,
    is_embedded,
    sample_action_batch,
    sample_angles_batch,
)
from hexknot.invariants import KnotClass, classify_batch
from hexknot.measure import (
    MODES,
    REGIONS,
    UPPER_BOUND,
    compare_bound,
    estimate_knotting_probability,
    mc_region_volume,
    repeat_estimates,
)
from conftest import reverse, shift

WORKERS = 2
TWO_PI = 2.0 * np.pi

# reference values for the ten-million-sample predicate experiment
REF_MEAN = 3.426005e-5
REF_STD = 2.241511e-6


def report(criterion, passed, detail):
    print(f"[{'PASS' if passed else 'FAIL'}] criterion {criterion}: {detail}",
          flush=True)
    return passed


@pytest.fixture(scope="session")
def predicate_repeats():
    return repeat_estimates(10_000_000, seed=1, mode="predicate",
                            workers=WORKERS, repeats=10)


@pytest.fixture(scope="session")
def predicate_10m(predicate_repeats):
    # run 0 of the repeats is the seed-1, 10^7-sample predicate report
    return predicate_repeats[0][0]


@pytest.fixture(scope="session")
def oracle_1m():
    return estimate_knotting_probability(1_000_000, seed=5, mode="oracle",
                                         workers=WORKERS)


@pytest.fixture(scope="session")
def oracle_10m():
    return estimate_knotting_probability(10_000_000, seed=9, mode="oracle",
                                         workers=WORKERS)


def test_criterion_1_monte_carlo_reproduction(predicate_10m, predicate_repeats):
    r = predicate_10m
    lo, hi = REF_MEAN - 3 * REF_STD, REF_MEAN + 3 * REF_STD
    in_range = lo <= r.fraction_R_plus <= hi
    _, summary = predicate_repeats
    std = summary["std_fraction_R_plus"]
    std_ok = REF_STD / 2 <= std <= 2 * REF_STD
    fast = r.wall_time_seconds < 120.0
    ok = report(
        1, in_range and std_ok and fast,
        f"fraction_R_plus={r.fraction_R_plus:.6e} in [{lo:.3e},{hi:.3e}]={in_range}, "
        f"10-run std={std:.3e} within 2x of {REF_STD:.3e}={std_ok}, "
        f"wall={r.wall_time_seconds:.1f}s<120={fast}")
    assert ok


def test_criterion_2_volume_verification():
    rows = []
    passed = True
    for name in REGIONS:
        est = mc_region_volume(name, 10_000_000, seed=11, workers=WORKERS)
        z = est.z_score()
        rows.append(f"{name} z={z:+.2f}")
        passed &= abs(z) < 4.0
    ok = report(2, passed, "; ".join(rows) + " (need |z|<4)")
    assert ok


def test_criterion_3_bound_arithmetic(predicate_10m):
    closed_form = (14.0 - 3.0 * np.pi) / 192.0
    exact = abs(UPPER_BOUND - closed_form) < 1e-12
    bound = compare_bound(predicate_10m)  # raises if CI crosses the bound
    below = bound.ci95[1] < UPPER_BOUND
    ok = report(
        3, exact and below,
        f"(14-3*pi)/192={UPPER_BOUND:.12f}, 1/42={1 / 42:.12f}, "
        f"bound>1/42={bound.orderings['upper_bound_lt_one_over_42'] is False}, "
        f"estimate={bound.estimate:.6e} (CI hi {bound.ci95[1]:.6e}) < bound={below}")
    assert ok


def test_criterion_4_oracle_necessity(oracle_1m):
    agree = oracle_1m.agreement
    per_class = agree["per_class"]
    violations = agree["necessity_violations"]
    ok = report(
        4, violations == 0,
        f"trefoils failing class predicate or a filter: {violations} (need 0); "
        f"predicate/oracle agreement rate {agree['agreement_rate']:.6f}; "
        f"per-class {per_class}")
    assert ok


def test_criterion_5_round_trip_and_construction():
    rng = np.random.default_rng(31)
    d = sample_action_batch(rng, 10_000)
    th = sample_angles_batch(rng, 10_000)
    v = build_hexagon(d, th)
    d2, th2 = extract_action_angle(v)
    rebuild_err = float(np.abs(build_hexagon(d2, th2) - v).max())
    edges = np.linalg.norm(np.roll(v, -1, axis=-2) - v, axis=-1)
    edge_err = float(np.abs(edges - 1.0).max())
    flat = build_hexagon(d, np.broadcast_to(np.pi, (10_000, 3)))
    planar_err = float(np.abs(flat[..., 2]).max())
    passed = rebuild_err < 1e-9 and edge_err < 1e-10 and planar_err < 1e-12
    ok = report(
        5, passed,
        f"rebuild err {rebuild_err:.2e}<1e-9, edge err {edge_err:.2e}<1e-10, "
        f"flat-angle planarity {planar_err:.2e}<1e-12 over 10^4 samples")
    assert ok


CHIRALITY = {
    int(KnotClass.UNKNOT): 0,
    int(KnotClass.TREFOIL_R_PLUS): 1, int(KnotClass.TREFOIL_R_MINUS): 1,
    int(KnotClass.TREFOIL_L_PLUS): -1, int(KnotClass.TREFOIL_L_MINUS): -1,
}

MIRROR = {
    int(KnotClass.UNKNOT): int(KnotClass.UNKNOT),
    int(KnotClass.TREFOIL_R_PLUS): int(KnotClass.TREFOIL_L_MINUS),
    int(KnotClass.TREFOIL_L_MINUS): int(KnotClass.TREFOIL_R_PLUS),
    int(KnotClass.TREFOIL_R_MINUS): int(KnotClass.TREFOIL_L_PLUS),
    int(KnotClass.TREFOIL_L_PLUS): int(KnotClass.TREFOIL_R_MINUS),
}


def test_criterion_6_symmetry_suite(oracle_10m):
    rng = np.random.default_rng(13)
    d = sample_action_batch(rng, 10_000)
    th = sample_angles_batch(rng, 10_000)
    v = build_hexagon(d, th)
    base = classify_batch(v)
    mirrored = classify_batch(build_hexagon(d, TWO_PI - th))
    usable = (base != int(KnotClass.DEGENERATE)) & \
             (mirrored != int(KnotClass.DEGENERATE))
    mirror_ok = bool(np.all(
        np.vectorize(MIRROR.get)(base[usable]) == mirrored[usable]))

    r = oracle_10m
    valid = r.samples - r.degenerate_count
    zs = []
    for a, b in (("trefoil_R+", "trefoil_L-"), ("trefoil_R-", "trefoil_L+")):
        fa, fb = r.hits[a] / valid, r.hits[b] / valid
        se = np.sqrt((fa * (1 - fa) + fb * (1 - fb)) / valid)
        zs.append(abs(fa - fb) / se)
    fractions_ok = all(z < 3.0 for z in zs)

    embedded = is_embedded(v) & (base != int(KnotClass.DEGENERATE))
    def same_class(image):
        codes = classify_batch(image)
        keep = embedded & (codes != int(KnotClass.DEGENERATE))
        return bool(np.all(codes[keep] == base[keep])), int(keep.sum())
    s2_ok, s2_n = same_class(shift(shift(v)))
    rs_ok, rs_n = same_class(reverse(shift(v)))

    def same_chirality(image):
        codes = classify_batch(image)
        keep = embedded & (codes != int(KnotClass.DEGENERATE))
        lhs = np.vectorize(CHIRALITY.get)(base[keep])
        rhs = np.vectorize(CHIRALITY.get)(codes[keep])
        return bool(np.all(lhs == rhs))
    chi_ok = same_chirality(shift(v)) and same_chirality(reverse(v))

    passed = mirror_ok and fractions_ok and s2_ok and rs_ok and chi_ok
    ok = report(
        6, passed,
        f"mirror flip exact on 10^4={mirror_ok}; class-fraction z at 10^7: "
        f"{zs[0]:.2f},{zs[1]:.2f} (<3)={fractions_ok}; invariant under double "
        f"shift ({s2_n} hexagons)={s2_ok}, reverse-shift ({rs_n})={rs_ok}; "
        f"chirality under shift/reverse={chi_ok}")
    assert ok


def test_criterion_7_unknot_floor(oracle_1m):
    r = oracle_1m
    frac = r.hits["unknot"] / (r.samples - r.degenerate_count)
    ok = report(7, frac >= 0.5, f"unknot fraction {frac:.4f} >= 0.5 at 10^6")
    assert ok


def test_criterion_8_worker_determinism():
    passed = True
    details = []
    for mode in MODES:
        dicts = []
        for workers in (1, 4, 16):
            r = estimate_knotting_probability(200_000, seed=17, mode=mode,
                                              workers=workers)
            d = r.to_dict()
            d.pop("wall_time_seconds")
            d.pop("workers")
            dicts.append(d)
        same = dicts[0] == dicts[1] == dicts[2]
        passed &= same
        details.append(f"{mode}: identical at 1/4/16 workers={same}")
    ok = report(8, passed, "; ".join(details))
    assert ok
