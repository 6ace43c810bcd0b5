"""Golden digests of the sample stream and the class decisions.

Each value was computed once and pinned, so a change that moves the
stream keyed by (seed, chunk), a class rule or a geometry kernel's
decision fails here even when every property test still passes. Only
integers, the bytes of uniform draws, report floats built from counts
by division, max, min and sqrt, and geometry-kernel floats built from
uniform draws by + - * / and sqrt are pinned: IEEE 754 rounds each of
those correctly, while the last bits of sin and cos may differ between
libms, so no float computed through them is pinned.
"""

import hashlib

import numpy as np
import pytest

from hexknot.action_angle import build_hexagon
from hexknot.geom import crossing_signs, segment_distances, triple_product
from hexknot.invariants import classify_batch
from hexknot.measure import (
    CHUNK_SIZE,
    REGIONS,
    estimate_knotting_probability,
    mc_region_volumes,
    sample_coordinate_stream,
)

STREAM_CHUNK0_SHA256 = {
    1: "447e8ffdbe0c5960f3069133aa8b6730aa82502559d644c6aa71c178732fc3d8",
    5: "f5d4fe31fdad142bb4f04d8a4909e5966d975b27e8f9f92acd49b250e03f3ddc",
    17: "c459b3d91a92a166203474f801b51d561f431b0cbe826444f994d4d3adcd64f0",
}

# classify_batch codes (int8) of chunk 0 at seed 1
CODES_CHUNK0_SHA256 = "92a087f9857b369a53ee9e54d11121c6e3975164cb2d9354e3d5f770533fd4b4"
CODES_CHUNK0_COUNTS = [65526, 2, 4, 1, 3, 0]

PREDICATE_HITS_2_20 = {"trefoil_R+": 44, "trefoil_R-": 44, "trefoil_L+": 30, "trefoil_L-": 29}

ORACLE_HITS_2_17 = {"unknot": 131054, "trefoil_R+": 4, "trefoil_R-": 6, "trefoil_L+": 4,
                    "trefoil_L-": 4, "degenerate": 0}
# Whole to_dict() reports without wall_time_seconds and workers.
PREDICATE_REPORT_2_20 = {
    "samples": 1 << 20, "seed": 1, "mode": "predicate", "hits": PREDICATE_HITS_2_20,
    "degenerate_count": 0,
    "fraction_R_plus": 4.1961669921875e-05,
    "fraction_total": 0.00014019012451171875,
    "std_error": 1.1561876073580112e-05,
    "ci95": (0.00011928631134596897, 0.00016475653230199917),
    "agreement": None,
}

ORACLE_AGREEMENT_2_17 = {
    "per_class": {
        label: {"predicate_hits": n, "both": n, "necessity_violations": v, "predicate_only": 0}
        for label, n, v in (("trefoil_R+", 4, 0), ("trefoil_R-", 6, 1), ("trefoil_L+", 4, 1),
                            ("trefoil_L-", 4, 0))
    },
    "necessity_violations": 2,
    "predicate_hits": 18,
    "agreement_rate": 1.0,
}

ORACLE_REPORT_2_17 = {
    "samples": 1 << 17, "seed": 1, "mode": "oracle", "hits": ORACLE_HITS_2_17,
    "degenerate_count": 0,
    "fraction_R_plus": 3.0517578125e-05,
    "fraction_total": 0.0001373291015625,
    "std_error": 3.236655699234044e-05,
    "ci95": (8.68720131473187e-05, 0.00021708636326794284),
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


# Geometry kernels on uniform lanes (float64 bytes), and the region hits
# of the volume checks. The lane builders below use + - * only.
SEGMENT_DISTANCES_SHA256 = "5b878ca6d0655f94a82fe44a4ac0fff0afb86e44e20f3b532788b2bfaa865548"
TRIPLE_PRODUCT_SHA256 = "be9fafc6699f0c8a6080863851a240bfbf356e422fff963fc78c94ed21c20913"
# sign (int8) then degenerate (bool) bytes
CROSSING_SIGNS_SHA256 = "6659c24a3ff6ba5bf962f415845deca779ea5dde7fa0185e5dcc2635fe1ea6b3"
# mc_region_volumes(2**20, 3)[region].hits
REGION_HITS_2_20 = {"P6": 524211, "third_d1_max": 175084, "obtuse_d1": 99773,
                    "acute_d1": 75311, "torus_obtuse_window": 5538,
                    "torus_acute_window": 21787}

LANES = 1 << 14


def _uniform(key, shape):
    return np.random.Generator(np.random.Philox(key=key)).uniform(-1.0, 1.0, shape)


def _segment_lanes():
    """(p1, q1, p2, q2), shape (3, LANES) each. Lanes 0-255 are special:
    zero-length first, second and both segments, parallel, antiparallel,
    collinear overlapping, coincident, and a first segment of length
    1e-160 (|d1|^2 below the division guard)."""
    p1, q1, p2, q2 = _uniform(11, (4, 3, LANES))
    d1 = q1 - p1
    q1[:, 0:32] = p1[:, 0:32]
    q2[:, 16:64] = p2[:, 16:64]
    q2[:, 64:96] = p2[:, 64:96] + 0.5 * d1[:, 64:96]
    q2[:, 96:128] = p2[:, 96:128] - 2.0 * d1[:, 96:128]
    p2[:, 128:160] = p1[:, 128:160] + 0.25 * d1[:, 128:160]
    q2[:, 128:160] = p1[:, 128:160] + 0.75 * d1[:, 128:160]
    p2[:, 160:192], q2[:, 160:192] = p1[:, 160:192], q1[:, 160:192]
    p2[:, 192:224], q2[:, 192:224] = q1[:, 192:224], p1[:, 192:224]
    q1[:, 224:256] = p1[:, 224:256] + 1e-160
    return p1, q1, p2, q2


def _triple_lanes():
    """(a, b, c), shape (3, LANES) each; lanes 0-95 have c = a, b = 2a,
    and c = a + b (products that cancel to rounding noise)."""
    a, b, c = _uniform(12, (3, 3, LANES))
    c[:, 0:32] = a[:, 0:32]
    b[:, 32:64] = 2.0 * a[:, 32:64]
    c[:, 64:96] = a[:, 64:96] + b[:, 64:96]
    return a, b, c


def _crossing_lanes():
    """(p, q, a, b, c), shape (3, LANES) each. Lanes 0-4095 put p within
    1e-11 of the triangle's plane z = 0, lanes 4096-8191 put p on a
    general triangle's plane up to rounding (q on it too in half of
    them), lanes 8192-8703 cross the plane within about 1e-12 of edge
    ab, lanes 8704-8959 have a flat triangle, and the rest are uniform."""
    p, q, a, b, c = _uniform(13, (5, 3, LANES))
    u, v, w = _uniform(14, (3, LANES))
    u, v = 1.0 + u, 1.0 + v  # (0, 2): inside and outside the triangle

    z = slice(0, 4096)
    a[2, z] = b[2, z] = c[2, z] = 0.0
    p[2, z] = 1e-11 * w[z]

    g = slice(4096, 8192)
    p[:, g] = a[:, g] + 0.5 * u[g] * (b[:, g] - a[:, g]) + 0.5 * v[g] * (c[:, g] - a[:, g])
    h = slice(6144, 8192)
    q[:, h] = a[:, h] + 0.5 * v[h] * (b[:, h] - a[:, h]) + w[h] * (c[:, h] - a[:, h])

    e = slice(8192, 8704)
    ab, ac = b[:, e] - a[:, e], c[:, e] - a[:, e]
    n = np.array([ab[1] * ac[2] - ab[2] * ac[1],
                  ab[2] * ac[0] - ab[0] * ac[2],
                  ab[0] * ac[1] - ab[1] * ac[0]])
    m = a[:, e] + 0.5 * u[e] * ab + 1e-12 * w[e] * ac
    p[:, e], q[:, e] = m + n, m - n

    f = slice(8704, 8960)
    c[:, f] = a[:, f] + 0.5 * u[f] * (b[:, f] - a[:, f])
    return p, q, a, b, c


def test_segment_distances_digest():
    dist = segment_distances(*_segment_lanes())
    assert dist.shape == (LANES,) and np.isfinite(dist).all()
    assert hashlib.sha256(dist.tobytes()).hexdigest() == SEGMENT_DISTANCES_SHA256


def test_triple_product_digest():
    vol = triple_product(*_triple_lanes())
    assert hashlib.sha256(vol.tobytes()).hexdigest() == TRIPLE_PRODUCT_SHA256


def test_crossing_signs_digest():
    sign, degenerate = crossing_signs(*_crossing_lanes())
    digest = hashlib.sha256(sign.tobytes())
    digest.update(degenerate.tobytes())
    assert digest.hexdigest() == CROSSING_SIGNS_SHA256


@pytest.fixture(scope="module")
def region_volumes_2_20():
    return mc_region_volumes(1 << 20, 3)


@pytest.mark.parametrize("region", list(REGIONS))
def test_region_hits(region, region_volumes_2_20):
    assert region_volumes_2_20[region].hits == REGION_HITS_2_20[region]
