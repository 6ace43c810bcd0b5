"""Golden digests of the sample stream and the class decisions.

Each value was computed once and pinned, so a change that moves the
stream keyed by (seed, chunk), a class rule or a geometry kernel's
decision fails here even when every property test still passes. Only
integers, the bytes of uniform draws and report floats built from
counts by division, max, min and sqrt are pinned: IEEE 754 rounds each
of those correctly, while the last bits of sin and cos may differ
between libms, so no float computed through them is pinned.
"""

import hashlib

import numpy as np
import pytest

from hexknot.action_angle import build_hexagon
from hexknot.invariants import classify_batch
from hexknot.measure import CHUNK_SIZE, estimate_knotting_probability, sample_coordinate_stream

STREAM_CHUNK0_SHA256 = {
    1: "278c85e2e3dd3322ebc65f8c60c7852c64774cb83d4eaac6578db57056163ad2",
    5: "cd5956d8ac279cc1345c6588fcf1b42073a5ef904f717f3e30d66f5bbe1e0440",
    17: "6f07e6e64281d9cb8bce623d3034c0d2c2f8f5cdaf335139548ce9dead6b2641",
}

# classify_batch codes (int8) of chunk 0 at seed 1
CODES_CHUNK0_SHA256 = "adb1227eee1dd16b357375cdd32d8e4fbc057b51bdb502bc84a149ae337ca539"
CODES_CHUNK0_COUNTS = [65530, 2, 1, 1, 2, 0]

PREDICATE_HITS_2_20 = {"trefoil_R+": 42, "trefoil_R-": 38, "trefoil_L+": 38, "trefoil_L-": 40}

ORACLE_HITS_2_17 = {"unknot": 131056, "trefoil_R+": 4, "trefoil_R-": 3, "trefoil_L+": 3,
                    "trefoil_L-": 6, "degenerate": 0}
# Whole to_dict() reports without wall_time_seconds and workers.
PREDICATE_REPORT_2_20 = {
    "samples": 1 << 20, "seed": 1, "mode": "predicate", "hits": PREDICATE_HITS_2_20,
    "degenerate_count": 0,
    "fraction_R_plus": 4.00543212890625e-05,
    "fraction_total": 0.00016021728515625,
    "std_error": 2.472156870373955e-05,
    "ci95": (0.00011853896220463033, 0.00021654892148371084),
    "agreement": None,
}

ORACLE_AGREEMENT_2_17 = {
    "per_class": {
        label: {"predicate_hits": n, "both": n, "necessity_violations": 0, "predicate_only": 0}
        for label, n in (("trefoil_R+", 4), ("trefoil_R-", 3), ("trefoil_L+", 3),
                         ("trefoil_L-", 6))
    },
    "necessity_violations": 0,
    "predicate_hits": 16,
    "agreement_rate": 1.0,
}

ORACLE_REPORT_2_17 = {
    "samples": 1 << 17, "seed": 1, "mode": "oracle", "hits": ORACLE_HITS_2_17,
    "degenerate_count": 0,
    "fraction_R_plus": 3.0517578125e-05,
    "fraction_total": 0.0001220703125,
    "std_error": 3.051571542300388e-05,
    "ci95": (7.514272231363576e-05, 0.00019829897039261193),
    "agreement": ORACLE_AGREEMENT_2_17,
}


def _chunk0(seed):
    return next(sample_coordinate_stream(seed, CHUNK_SIZE))


@pytest.mark.parametrize("seed", sorted(STREAM_CHUNK0_SHA256))
def test_stream_chunk0_digest(seed):
    d, th = _chunk0(seed)
    digest = hashlib.sha256(d.tobytes())
    digest.update(th.tobytes())
    assert digest.hexdigest() == STREAM_CHUNK0_SHA256[seed]


def test_classify_batch_codes_digest():
    codes = classify_batch(build_hexagon(*_chunk0(1)))
    assert codes.dtype == np.int8
    assert np.bincount(codes, minlength=6).tolist() == CODES_CHUNK0_COUNTS
    assert hashlib.sha256(codes.tobytes()).hexdigest() == CODES_CHUNK0_SHA256


def _report_without_timing(report):
    d = report.to_dict()
    del d["wall_time_seconds"], d["workers"]
    return d


def test_predicate_hits():
    report = estimate_knotting_probability(1 << 20, 1, "predicate")
    assert report.hits == PREDICATE_HITS_2_20
    assert _report_without_timing(report) == PREDICATE_REPORT_2_20


def test_oracle_hits_and_agreement():
    report = estimate_knotting_probability(1 << 17, 1, "oracle")
    assert report.hits == ORACLE_HITS_2_17
    assert report.degenerate_count == 0
    assert report.agreement == ORACLE_AGREEMENT_2_17
    assert _report_without_timing(report) == ORACLE_REPORT_2_17
