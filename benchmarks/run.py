"""hexknot benchmark: run one workload and print its metrics.

    python3 benchmarks/run.py --workload predicate|oracle|cli \
        --seed N --seconds S --trace 0|1

With --trace 0 the workload runs untraced in a fresh process and the
end-to-end metrics are reported; with --trace 1 a separate run goes
through the layer shims of spans.py and the per-layer metrics are
reported. Every run checks the program's outputs. Standard output ends
with two JSON lines: the full result (checks, provenance, details), then
the summary {"correct", "attempted", "failed", "metrics"}. See README.md
for the workloads and what each metric should respond to.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from spans import TARGETS
from workload import CLI_STEPS, ROOT, SRC, Checks, cli_argvs, comparable

BENCH_DIR = Path(__file__).resolve().parent
WORKLOAD_PY = BENCH_DIR / "workload.py"
WORK_ROOT = BENCH_DIR / ".work"


@dataclass(frozen=True)
class Sizes:
    """Work per estimator call (samples) or per CLI cycle (rows), and
    how many traced calls or cycles to run per second of --seconds."""

    per_call: int
    traced_calls_per_s: float


# Sizes are set so one call or cycle takes 1 to 3 s on one core, giving
# a median over several calls within a run.
WORKLOADS = {
    "predicate": Sizes(1 << 21, 0.3),
    "oracle": Sizes(1 << 17, 0.4),
    "cli": Sizes(50_000, 0.25),
}
SETUP_REPEATS = 7

# name, unit, better, bound (share of the parent's median)
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("samples_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

# name, unit, better, (kind, key...) read from the traced run
PER_LAYER = (
    ("action_angle.sample_action_batch.ns_per_sample", "ns/sample", "lower",
     ("total", "action_angle.sample_action_batch")),
    ("action_angle.sample_action_batch.accept_ratio", "share", "higher",
     ("ratio", "action_angle.sample_action_batch.accepted",
      "action_angle.sample_action_batch.drawn")),
    ("action_angle.sample_angles_batch.ns_per_sample", "ns/sample", "lower",
     ("total", "action_angle.sample_angles_batch")),
    ("action_angle.build_hexagon.ns_per_sample", "ns/sample", "lower",
     ("total", "action_angle.build_hexagon")),
    ("action_angle.is_embedded.ns_per_sample", "ns/sample", "lower",
     ("total", "action_angle.is_embedded")),
    ("geom.segment_distances.ns_per_sample", "ns/sample", "lower",
     ("total", "geom.segment_distances")),
    ("geom.crossing_signs.ns_per_sample", "ns/sample", "lower",
     ("total", "geom.crossing_signs")),
    ("invariants.classify_batch.self_ns_per_sample", "ns/sample", "lower",
     ("self", "invariants.classify_batch")),
    ("invariants.curl.ns_per_sample", "ns/sample", "lower",
     ("total", "invariants.curl")),
    ("invariants.classify_batch.trefoils", "count", "higher",
     ("count", "invariants.classify_batch.trefoils")),
    ("invariants.classify_batch.degenerate", "count", "lower",
     ("count", "invariants.classify_batch.degenerate")),
    ("trefoil_predicates.nine_functions.ns_per_sample", "ns/sample", "lower",
     ("total", "trefoil_predicates.nine_functions")),
    ("trefoil_predicates.class_masks.self_ns_per_sample", "ns/sample", "lower",
     ("self", "trefoil_predicates.class_masks")),
    ("trefoil_predicates.passes_window_filters.ns_per_sample", "ns/sample", "lower",
     ("total", "trefoil_predicates.passes_window_filters")),
    ("trefoil_predicates.class_masks.hits", "count", "higher",
     ("count", "trefoil_predicates.class_masks.hits")),
    ("measure.estimate_knotting_probability.self_ns_per_sample", "ns/sample", "lower",
     ("self", "measure.estimate_knotting_probability")),
    ("measure.necessity_violations", "count", "lower",
     ("count", "measure.necessity_violations")),
    ("cli.sample.self_ns_per_row", "ns/row", "lower", ("self", "cli.sample")),
    ("cli.sample_json.self_ns_per_row", "ns/row", "lower", ("self", "cli.sample_json")),
    ("cli.classify.self_ns_per_row", "ns/row", "lower", ("self", "cli.classify")),
    ("trace.overhead_share", "share", "lower", ("trace", "overhead_share")),
    ("trace.self_sum_share", "share", "lower", ("trace", "self_sum_share")),
)

CHILD_TIMEOUT_S = 150


class BenchError(RuntimeError):
    """The benchmark could not run the workload; no result is printed."""


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.pop("HEXKNOT_SEED", None)
    return env


def run_child(argv, timeout=CHILD_TIMEOUT_S):
    """Run one child to completion. Returns (wall seconds, peak RSS in MB,
    exit code); the child is killed after `timeout` seconds."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, env=_child_env(), cwd=ROOT,
                            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def _checked_child(argv):
    wall, rss, code = run_child(argv)
    if code != 0:
        raise BenchError(f"child exited with {code}: {' '.join(map(str, argv))}")
    return wall, rss


def _body(name, out, *args):
    """Run one workload.py body that writes `out`; returns (its JSON
    output, peak RSS in MB)."""
    _, rss = _checked_child([sys.executable, str(WORKLOAD_PY), name, *map(str, args),
                             "--out", str(out)])
    return json.loads(Path(out).read_text(encoding="utf-8")), rss


def measure_setup(workload, seed, repeats):
    """Median wall of fresh interpreters that import hexknot and run one
    warm-up chunk of the workload's mode (for cli: import hexknot.cli).
    One untimed start first, so byte-code compilation is not counted."""
    if workload == "cli":
        code = "import hexknot.cli"
    else:
        code = ("from hexknot.measure import CHUNK_SIZE, estimate_knotting_probability as e; "
                f"e(CHUNK_SIZE, {seed}, mode={workload!r}, workers=1)")
    argv = [sys.executable, "-c", code]
    _checked_child(argv)
    walls = [_checked_child(argv)[0] for _ in range(repeats)]
    return statistics.median(walls), walls


def _digest(path):
    """SHA-256 of a file, or None when it cannot be read."""
    h = hashlib.sha256()
    try:
        with open(path, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                h.update(block)
    except OSError:
        return None
    return h.hexdigest()


def _git_commit():
    """Commit of the checkout read from its .git directory, or None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


# --- untraced runs: end-to-end metrics -----------------------------------

def estimator_untraced(mode, seed, seconds, sizes, workdir):
    payload, rss = _body("estimator", workdir / "calls.json", "--mode", mode, "--seed", seed,
                         "--seconds", seconds, "--n-call", sizes.per_call)
    calls = payload["calls"]
    rates = [c["samples"] / c["wall_time_seconds"] for c in calls]
    samples_per_s = statistics.median(rates)
    # Variance per sample, pooled over the calls, times seconds per sample.
    var_per_sample = statistics.fmean(c["samples"] * c["std_error"] ** 2 for c in calls)
    metrics = {"samples_per_s": samples_per_s, "peak_rss_mb": rss}
    details = {
        "calls": len(calls),
        "samples_per_call": sizes.per_call,
        "call_samples_per_s": rates,
        "var_per_sample": var_per_sample,
        "var_x_s": var_per_sample / samples_per_s,
        "fraction_total": statistics.fmean(c["fraction_total"] for c in calls),
    }
    return metrics, details, {"reports": calls}


def cli_untraced(seed, seconds, sizes, workdir, checks):
    """Closed loop of sample (CSV), sample --format json and classify,
    each a fresh `hexknot` process, until `seconds` of them have run."""
    rows = sizes.per_call
    argvs, files = cli_argvs(workdir, rows, seed)
    cycles, digests = [], None
    while not cycles or sum(w for c in cycles for w, _ in c.values()) < seconds:
        cycle = {}
        for step in CLI_STEPS:
            wall, rss, code = run_child([sys.executable, "-m", "hexknot.cli", *argvs[step]])
            checks.expect(f"cli.{step}.exit_code", code == 0, code or None)
            cycle[step] = (wall, rss)
        # Every cycle must write the bytes the check child verifies.
        now = {step: _digest(path) for step, path in files.items()}
        digests = digests or now
        for step in CLI_STEPS:
            checks.expect(f"cli.{step}.same_output_every_cycle",
                          now[step] is not None and now[step] == digests[step])
        cycles.append(cycle)
    metrics = {
        "samples_per_s": statistics.median(
            rows / sum(w for w, _ in c.values()) for c in cycles),
        "peak_rss_mb": statistics.median(max(r for _, r in c.values()) for c in cycles),
    }
    details = {
        "cycles": len(cycles),
        "rows": rows,
        **{f"{step}_rows_per_s": statistics.median(rows / c[step][0] for c in cycles)
           for step in CLI_STEPS},
        "peak_rss_mb_per_step": {step: max(c[step][1] for c in cycles) for step in CLI_STEPS},
    }
    return metrics, details, {"files": files, "rows": rows}


# --- traced runs: per-layer metrics --------------------------------------

def layer_metrics(payload, samples):
    """Per-layer values of a traced payload. A span never entered reads 0;
    _trace_details says whether it was absent or just not on this path."""
    spans = payload["spans"]
    counts = payload["counts"]
    untraced = payload["untraced_wall_s"]
    trace = {"overhead_share": payload["traced_wall_s"] / untraced - 1.0,
             "self_sum_share": _self_sum(payload) / untraced}
    values = {}
    for name, _, _, (kind, *keys) in PER_LAYER:
        if kind in ("total", "self"):
            values[name] = spans.get(keys[0], {}).get(f"{kind}_ns", 0) / samples
        elif kind == "count":
            values[name] = counts.get(keys[0], 0)
        elif kind == "ratio":
            den = counts.get(keys[1], 0)
            values[name] = counts.get(keys[0], 0) / den if den else 0.0
        else:
            values[name] = trace[keys[0]]
    return values


def _self_sum(payload):
    return sum(s["self_ns"] for s in payload["spans"].values()) * 1e-9


def _trace_details(payload):
    spans = {name for _, _, name in TARGETS}
    return {
        "untraced_wall_s": payload["untraced_wall_s"],
        "traced_wall_s": payload["traced_wall_s"],
        "spans": payload["spans"],
        "absent_targets": payload["absent_targets"],
        "absent_spans": payload["absent_spans"],
        "not_entered": sorted(spans - set(payload["spans"]) - set(payload["absent_spans"])),
    }


def trace_result(payload, samples, checks):
    """Per-layer metrics and details of a traced payload, after checking
    that the self times add up to the untraced wall within the overhead."""
    traced = payload["traced_wall_s"]
    untraced = payload["untraced_wall_s"]
    self_sum = _self_sum(payload)
    checks.expect("trace.self_times_add_up",
                  abs(self_sum - untraced) <= abs(traced - untraced) + 0.01 * untraced,
                  {"self_sum_s": self_sum, "untraced_s": untraced, "traced_s": traced})
    return layer_metrics(payload, samples), _trace_details(payload)


def estimator_trace_result(payload, checks):
    for plain, traced in zip(payload["calls"], payload["traced_calls"]):
        checks.expect("trace.same_report_when_traced", comparable(plain) == comparable(traced))
    payload["counts"]["measure.necessity_violations"] = sum(
        (c["agreement"] or {}).get("necessity_violations", 0) for c in payload["traced_calls"])
    samples = sum(c["samples"] for c in payload["traced_calls"])
    metrics, details = trace_result(payload, samples, checks)
    return metrics, details, {"reports": payload["traced_calls"]}


def estimator_traced(mode, seed, seconds, sizes, workdir, checks):
    payload, _ = _body("estimator", workdir / "trace.json", "--mode", mode, "--seed", seed,
                       "--seconds", seconds, "--n-call", sizes.per_call,
                       "--trace-calls", max(1, round(seconds * sizes.traced_calls_per_s)))
    return estimator_trace_result(payload, checks)


def cli_traced(seed, seconds, sizes, workdir, checks):
    rows = sizes.per_call
    cycles = max(1, round(seconds * sizes.traced_calls_per_s))
    payload, _ = _body("cli", workdir / "trace.json", "--seed", seed, "--cycles", cycles,
                       "--rows", rows, "--workdir", workdir)
    for code in payload["exit_codes"]:
        checks.expect("cli.exit_code", code == 0, code or None)
    for step in CLI_STEPS:
        traced = _digest(payload["files"][step])
        checks.expect(f"trace.cli.{step}.same_output_when_traced",
                      traced is not None and traced == _digest(payload["untraced_files"][step]))
    metrics, details = trace_result(payload, cycles * rows, checks)
    return metrics, details, {"files": payload["files"], "rows": rows}


def run(workload, seed, seconds, trace, sizes=None, setup_repeats=SETUP_REPEATS):
    """One benchmark run. Returns (full result, summary line dict).

    `sizes` and `setup_repeats` default to the benchmark's own; tests
    pass smaller ones.
    """
    if not (SRC / "hexknot" / "__init__.py").is_file():
        raise BenchError(f"no hexknot package under {SRC}")
    sizes = sizes or WORKLOADS[workload]
    checks = Checks()
    WORK_ROOT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=WORK_ROOT))
    try:
        if trace:
            specs = PER_LAYER
            if workload == "cli":
                metrics, details, to_check = cli_traced(seed, seconds, sizes, workdir, checks)
            else:
                metrics, details, to_check = estimator_traced(workload, seed, seconds, sizes,
                                                              workdir, checks)
        else:
            specs = END_TO_END
            setup_s, setup_walls = measure_setup(workload, seed, setup_repeats)
            if workload == "cli":
                metrics, details, to_check = cli_untraced(seed, seconds, sizes, workdir, checks)
            else:
                metrics, details, to_check = estimator_untraced(workload, seed, seconds, sizes,
                                                                workdir)
            metrics["setup_s"] = setup_s
            details["setup_walls_s"] = setup_walls
        request = workdir / "request.json"
        request.write_text(json.dumps({"workload": workload, "seed": seed, **to_check}),
                           encoding="utf-8")
        checked, _ = _body("check", workdir / "checks.json", "--request", request)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass
    checks.results += checked["checks"]

    summary = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit, *_ in specs},
    }
    full = {
        "workload": workload,
        "trace": int(trace),
        "seconds": seconds,
        "fail_share": checks.failed / checks.attempted,
        "provenance": {
            "affinity_cores": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": checked["numpy"],
            "chunk_size": checked["chunk_size"],
            "seed": seed,
            "git_commit": _git_commit(),
            "oracle_workers_2_over_1_throughput":
                checked["oracle_workers_2_over_1_throughput"],
        },
        "details": details,
        "checks": checks.results,
    }
    return full, summary


def main(argv=None):
    parser = argparse.ArgumentParser(description="hexknot benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    try:
        full, summary = run(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"benchmark: error: {exc}", file=sys.stderr)
        return 1
    for name, m in summary["metrics"].items():
        print(f"{name:58s} {m['value']:>16.6g} {m['unit']}", file=sys.stderr)
    print(json.dumps(full))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
