"""Everything the benchmark runs against hexknot, one child process each.

run.py imports only the standard library, so that its own memory stays
small: a child's peak RSS counts the parent's high-water mark at the
moment it was started. It starts one child at a time with this file and
reads back the JSON the child writes:

    workload.py estimator --mode predicate --seed 1 --seconds 20 \
        --n-call 2097152 [--trace-calls 6] --out calls.json
    workload.py cli --seed 1 --cycles 5 --rows 50000 --workdir DIR --out trace.json
    workload.py check --request request.json --out checks.json

`estimator` is the timed closed loop (or, with --trace-calls, pairs of
untraced and traced calls). `cli` is the traced CLI run: it calls
`hexknot.cli.main` in-process, each step untraced and then traced. The
untraced `cli` workload runs the `hexknot` command itself from run.py.
`check` runs the output checks on what the others produced.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CLI_STEPS = ("sample", "sample_json", "classify")
PREFIX_CHUNKS = 2

sys.path.insert(0, str(SRC))
from spans import TARGETS, Tracer  # noqa: E402


def call_seed(seed, i):
    """Seed of the i-th estimator call of a run."""
    return seed * 1000 + i


def cli_argvs(workdir, rows, seed, tag=""):
    """Argument lists of the three CLI steps and the files they write."""
    workdir = Path(workdir)
    files = {step: str(workdir / f"{step}{tag}.{ext}")
             for step, ext in zip(CLI_STEPS, ("csv", "json", "csv"))}
    argvs = {
        "sample": ["sample", "--n", str(rows), "--seed", str(seed),
                   "--output", files["sample"]],
        "sample_json": ["sample", "--n", str(rows), "--seed", str(seed),
                        "--format", "json", "--output", files["sample_json"]],
        "classify": ["classify", "--input", files["sample"],
                     "--output", files["classify"]],
    }
    return argvs, files


def comparable(report):
    """Report dict without the fields that may differ between runs."""
    return {k: v for k, v in report.items() if k not in ("wall_time_seconds", "workers")}


class Checks:
    """Output checks of one run; a check that raises counts as failed."""

    def __init__(self):
        self.results = []

    def expect(self, name, ok, detail=None):
        self.results.append({"name": name, "ok": bool(ok),
                             **({"detail": detail} if detail else {})})

    def run(self, name, fn):
        try:
            ok = fn()
        except Exception:  # noqa: BLE001 - a raising check is a failed check
            self.expect(name, False, traceback.format_exc(limit=3))
            return
        self.expect(name, ok)

    @property
    def attempted(self):
        return len(self.results)

    @property
    def failed(self):
        return sum(not r["ok"] for r in self.results)


# --- timed bodies --------------------------------------------------------

def _trace_payload(tracer, walls):
    return {
        "untraced_wall_s": walls[0],
        "traced_wall_s": walls[1],
        "spans": tracer.summary(),
        "counts": dict(tracer.counts),
        "absent_targets": tracer.absent,
        "absent_spans": tracer.absent_spans(),
    }


def run_estimator(mode, seed, seconds, n_call, trace_calls=0, targets=TARGETS):
    """Closed loop of estimator calls after one untimed warm-up chunk.

    Untraced (trace_calls == 0): calls until `seconds` have passed.
    Traced: trace_calls pairs of calls on the same (n, seed), the first
    untraced and the second through the shims, so the walls compare.
    """
    from hexknot.measure import CHUNK_SIZE, estimate_knotting_probability

    def call(i):
        return estimate_knotting_probability(
            n_call, call_seed(seed, i), mode=mode, workers=1).to_dict()

    estimate_knotting_probability(CHUNK_SIZE, seed, mode=mode, workers=1)
    if not trace_calls:
        calls = []
        start = time.perf_counter()
        while not calls or time.perf_counter() - start < seconds:
            calls.append(call(len(calls)))
        return {"calls": calls}

    tracer = Tracer(targets)
    calls, traced, walls = [], [], [0.0, 0.0]
    for i in range(trace_calls):
        t0 = time.perf_counter()
        calls.append(call(i))
        walls[0] += time.perf_counter() - t0
        with tracer.installed():
            t0 = time.perf_counter()
            with tracer.span("measure.estimate_knotting_probability"):
                traced.append(call(i))
            walls[1] += time.perf_counter() - t0
    return {"calls": calls, "traced_calls": traced, **_trace_payload(tracer, walls)}


def run_cli_traced(seed, cycles, rows, workdir, targets=TARGETS):
    """`cycles` rounds of the three CLI steps through hexknot.cli.main,
    each step run untraced and then traced into separate files."""
    from hexknot import cli

    plain, plain_files = cli_argvs(workdir, rows, seed)
    shimmed, files = cli_argvs(workdir, rows, seed, tag="_traced")
    tracer = Tracer(targets)
    walls, exit_codes = [0.0, 0.0], []
    for _ in range(cycles):
        for step in CLI_STEPS:
            t0 = time.perf_counter()
            exit_codes.append(cli.main(plain[step]))
            walls[0] += time.perf_counter() - t0
            with tracer.installed():
                t0 = time.perf_counter()
                with tracer.span(f"cli.{step}"):
                    exit_codes.append(cli.main(shimmed[step]))
                walls[1] += time.perf_counter() - t0
    return {"cycles": cycles, "rows": rows, "exit_codes": exit_codes,
            "files": files, "untraced_files": plain_files,
            **_trace_payload(tracer, walls)}


# --- output checks -------------------------------------------------------

def check_reports(mode, reports, checks):
    """compare_bound accepts every report; in oracle mode each class's
    predicate_hits equals predicate-mode hits on the same (n, seed)."""
    from hexknot.measure import EstimationReport, compare_bound, estimate_knotting_probability

    for r in reports:
        report = EstimationReport(**{**r, "ci95": tuple(r["ci95"])})
        checks.run("compare_bound", lambda: compare_bound(report) is not None)
        if mode == "oracle":
            def agreement(r=r):
                pred = estimate_knotting_probability(r["samples"], r["seed"],
                                                     mode="predicate", workers=1)
                per_class = r["agreement"]["per_class"]
                return all(per_class[label]["predicate_hits"] == pred.hits[label]
                           for label in per_class)
            checks.run("oracle.predicate_hits_match", agreement)


def probe(mode, seed, checks):
    """A prefix of the stream at 1 and at 2 workers must give identical
    reports, in the workload's mode and in oracle mode. Returns the oracle
    2-worker/1-worker throughput ratio, recorded for information only."""
    from hexknot.measure import CHUNK_SIZE, estimate_knotting_probability

    n = PREFIX_CHUNKS * CHUNK_SIZE
    ratio = None
    for m in dict.fromkeys((mode, "oracle")):
        one = estimate_knotting_probability(n, call_seed(seed, 0), mode=m, workers=1)
        two = estimate_knotting_probability(n, call_seed(seed, 0), mode=m, workers=2)
        checks.expect(f"{m}.workers_1_vs_2",
                      comparable(one.to_dict()) == comparable(two.to_dict()))
        if m == "oracle":
            ratio = one.wall_time_seconds / two.wall_time_seconds
    return ratio


def cli_reference(seed, rows):
    """Coordinates and class labels computed in-process on the CLI's stream."""
    import numpy as np
    from hexknot import KNOT_CLASS_LABELS, KnotClass, build_hexagon, classify_batch
    from hexknot.measure import sample_coordinate_stream

    pairs = list(sample_coordinate_stream(seed, rows))
    d = np.concatenate([p[0] for p in pairs])
    th = np.concatenate([p[1] for p in pairs])
    codes = classify_batch(build_hexagon(d, th))
    return {"coords": np.concatenate([d, th], axis=1),
            "labels": [KNOT_CLASS_LABELS[KnotClass(int(c))] for c in codes]}


_ACTION_KEYS = ("d1", "d2", "d3", "theta1", "theta2", "theta3")


def check_cli_outputs(files, reference, checks):
    """The CSV re-parses to the stream bit for bit, the JSON to the same
    values, and the classify label column matches classify_batch."""
    import numpy as np

    def csv_matches():
        parsed = np.loadtxt(files["sample"], delimiter=",", skiprows=1, ndmin=2)
        return np.array_equal(parsed, reference["coords"])

    def json_matches():
        with open(files["sample_json"], encoding="utf-8") as fh:
            records = json.load(fh)
        values = np.array([[rec[k] for k in _ACTION_KEYS] for rec in records])
        return np.array_equal(values, reference["coords"])

    def labels_match():
        with open(files["classify"], encoding="utf-8") as fh:
            lines = fh.read().splitlines()[1:]
        return [line.rsplit(",", 1)[1] for line in lines] == reference["labels"]

    checks.run("cli.sample.csv_matches_stream", csv_matches)
    checks.run("cli.sample_json.json_matches_stream", json_matches)
    checks.run("cli.classify.labels_match", labels_match)


def run_checks(request):
    """Output checks for one run, and the provenance only hexknot knows.

    `request` holds "workload", "seed", and either "reports" (estimator
    reports) or "files" and "rows" (CLI outputs).
    """
    import numpy
    from hexknot.measure import CHUNK_SIZE

    checks = Checks()
    workload = request["workload"]
    if workload == "cli":
        check_cli_outputs(request["files"], cli_reference(request["seed"], request["rows"]),
                          checks)
    else:
        check_reports(workload, request["reports"], checks)
    ratio = probe("predicate" if workload == "predicate" else "oracle", request["seed"], checks)
    return {"checks": checks.results, "numpy": numpy.__version__, "chunk_size": CHUNK_SIZE,
            "oracle_workers_2_over_1_throughput": ratio}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="body", required=True)
    p = sub.add_parser("estimator")
    p.add_argument("--mode", choices=("predicate", "oracle"), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--n-call", type=int, required=True)
    p.add_argument("--trace-calls", type=int, default=0)
    p.add_argument("--out", required=True)
    p = sub.add_parser("cli")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--cycles", type=int, required=True)
    p.add_argument("--rows", type=int, required=True)
    p.add_argument("--workdir", required=True)
    p.add_argument("--out", required=True)
    p = sub.add_parser("check")
    p.add_argument("--request", required=True)
    p.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    if args.body == "estimator":
        payload = run_estimator(args.mode, args.seed, args.seconds, args.n_call,
                                args.trace_calls)
    elif args.body == "cli":
        payload = run_cli_traced(args.seed, args.cycles, args.rows, args.workdir)
    else:
        payload = run_checks(json.loads(Path(args.request).read_text(encoding="utf-8")))
    Path(args.out).write_text(json.dumps(payload), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
