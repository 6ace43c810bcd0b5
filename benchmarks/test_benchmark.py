"""Tests of the benchmark itself, at small sizes.

    python3 -m pytest benchmarks -q
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import workload  # noqa: E402
from spans import TARGETS  # noqa: E402

SMALL = {
    "predicate": run.Sizes(1 << 14, 1.0),
    "oracle": run.Sizes(1 << 12, 1.0),
    "cli": run.Sizes(300, 1.0),
}


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] \
        == [tuple(m) for m in run.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == [m[:3] for m in run.PER_LAYER]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(SMALL))
def test_every_metric_is_reported_with_its_unit(name, trace):
    full, summary = run.run(name, seed=3, seconds=1, trace=trace, sizes=SMALL[name],
                            setup_repeats=1)
    specs = run.PER_LAYER if trace else run.END_TO_END
    assert summary["correct"] and summary["failed"] == 0 and summary["attempted"] > 0
    assert {k: v["unit"] for k, v in summary["metrics"].items()} \
        == {m[0]: m[1] for m in specs}
    values = [v["value"] for v in summary["metrics"].values()]
    assert all(isinstance(v, (int, float)) for v in values)
    if not trace:
        assert all(v > 0 for v in values)
    assert full["fail_share"] == 0.0
    assert full["provenance"]["chunk_size"] > 0
    assert not (run.BENCH_DIR / ".work").exists()


def _cli_outputs(tmp_path, rows, seed):
    from hexknot import cli

    argvs, files = workload.cli_argvs(tmp_path, rows, seed)
    for step in workload.CLI_STEPS:
        assert cli.main(argvs[step]) == 0
    return files


def test_corrupted_classify_output_fails_a_check(tmp_path):
    files = _cli_outputs(tmp_path, rows=200, seed=5)
    request = {"workload": "cli", "seed": 5, "files": files, "rows": 200}
    clean = workload.run_checks(request)["checks"]
    assert all(r["ok"] for r in clean)

    path = Path(files["classify"])
    lines = path.read_text().splitlines()
    text, label = lines[1].rsplit(",", 1)
    lines[1] = f"{text},{'trefoil_R+' if label == 'unknot' else 'unknot'}"
    path.write_text("\n".join(lines) + "\n")

    checks = workload.run_checks(request)["checks"]
    assert [r["name"] for r in checks if not r["ok"]] == ["cli.classify.labels_match"]
    assert sum(not r["ok"] for r in checks) / len(checks) > 0


def test_missing_shim_target_leaves_the_trace_green():
    import hexknot.invariants

    original = hexknot.invariants.crossing_signs
    targets = TARGETS + (
        ("hexknot.invariants", "merged_away", "invariants.merged_away"),
        ("hexknot.no_such_module", "kernel", "nowhere.kernel"),
    )
    payload = workload.run_estimator("oracle", 7, 0, 1 << 12, trace_calls=1, targets=targets)
    checks = workload.Checks()
    metrics, details, _ = run.estimator_trace_result(payload, checks)

    assert checks.failed == 0
    assert {"hexknot.invariants.merged_away", "hexknot.no_such_module.kernel"} \
        <= set(details["absent_targets"])
    assert {"invariants.merged_away", "nowhere.kernel"} <= set(details["absent_spans"])
    assert set(metrics) == {m[0] for m in run.PER_LAYER}
    assert metrics["geom.crossing_signs.ns_per_sample"] > 0
    assert hexknot.invariants.crossing_signs is original
