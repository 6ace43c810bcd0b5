"""Command-line front end.

Subcommands: sample, classify, estimate, volumes, bound, check. Every
command with a fixed seed is reproducible byte-for-byte across runs and
worker counts. Exit codes: 0 success, 1 runtime failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from contextlib import contextmanager

import numpy as np

from .action_angle import build_hexagon, is_interior, wrap_angles
from .invariants import (
    KNOT_CLASS_FROM_LABEL,
    KNOT_CLASS_LABELS,
    TREFOIL_CLASSES,
    KnotClass,
    classify_batch,
)
from .measure import (
    CHUNK_SIZE,
    CLOSED_FORMS,
    ONE_OVER_42,
    POSITIVE_CURL_BOUND,
    REGIONS,
    EstimationReport,
    check_seed,
    compare_bound,
    estimate_knotting_probability,
    mc_region_volume,
    repeat_estimates,
    sample_coordinate_stream,
)
from .trefoil_predicates import window_filters

ACTION_HEADER = "d1,d2,d3,theta1,theta2,theta3"
VERTEX_HEADER = ",".join(f"v{i}{c}" for i in range(1, 7) for c in "xyz")


class CliError(RuntimeError):
    """Runtime failure reported on stderr with exit code 1."""


def _integer(text):
    try:
        return int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from exc


def _positive_int(text):
    value = _integer(text)
    if value < 1:
        raise argparse.ArgumentTypeError("value must be >= 1")
    return value


def _finite_float(text):
    try:
        value = float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from exc
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"non-finite value: {text!r}")
    return value


def _seed(text):
    try:
        return check_seed(_integer(text))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _default_seed(parser):
    try:
        return _seed(os.environ.get("HEXKNOT_SEED", "0"))
    except argparse.ArgumentTypeError as exc:
        parser.error(f"HEXKNOT_SEED: {exc}")


@contextmanager
def _output(path):
    if path is None or path == "-":
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8") as out:
            yield out


def _sample_blocks(seed, n, vertices):
    for d, th in sample_coordinate_stream(seed, n):
        yield (build_hexagon(d, th).reshape(-1, 18)
               if vertices else np.concatenate([d, th], axis=1))


def cmd_sample(args):
    header = VERTEX_HEADER if args.vertices else ACTION_HEADER
    blocks = _sample_blocks(args.seed, args.n, args.vertices)
    with _output(args.output) as out:
        if args.format == "csv":
            out.write(header + "\n")
            for block in blocks:
                np.savetxt(out, block, fmt="%.17g", delimiter=",")
        else:
            names = header.split(",")
            json.dump([dict(zip(names, row)) for block in blocks for row in block],
                      out, indent=2)
            out.write("\n")
    return 0


def _read_rows(path):
    if path is None or path == "-":
        lines = sys.stdin.read().splitlines()
    else:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                lines = fh.read().splitlines()
        except OSError as exc:
            raise CliError(f"cannot read {path}: {exc}") from exc
    rows = []
    first = True
    for lineno, line in enumerate(lines, start=1):
        text = line.strip()
        if not text:
            continue
        header, first = first, False
        fields = text.split(",")
        try:
            values = [float(f) for f in fields]
        except ValueError:
            if header:
                continue
            raise CliError(f"line {lineno}: cannot parse {line!r}")
        if not all(map(math.isfinite, values)):
            raise CliError(f"line {lineno}: non-finite value in {line!r}")
        if len(values) not in (6, 18):
            raise CliError(
                f"line {lineno}: expected 6 or 18 columns, got {len(values)}")
        rows.append((text, values))
    if not rows:
        raise CliError("no data rows in input")
    widths = {len(v) for _, v in rows}
    if len(widths) != 1:
        raise CliError("mixed 6- and 18-column rows in input")
    return rows, widths.pop()


def _classify_rows(data):
    """Class codes of 6-column coordinate or 18-column vertex rows."""
    if data.shape[1] == 18:
        return classify_batch(data.reshape(-1, 6, 3))
    d, th = data[:, :3], data[:, 3:]
    interior = is_interior(d)
    codes = np.full(len(data), int(KnotClass.DEGENERATE), dtype=np.int8)
    if interior.any():
        codes[interior] = classify_batch(build_hexagon(d[interior], th[interior]))
    return codes


def cmd_classify(args):
    rows, width = _read_rows(args.input)
    data = np.array([v for _, v in rows])
    # one CHUNK_SIZE slice at a time bounds the classifier's temporaries
    codes = np.concatenate([_classify_rows(data[k:k + CHUNK_SIZE])
                            for k in range(0, len(data), CHUNK_SIZE)])

    header = ACTION_HEADER if width == 6 else VERTEX_HEADER
    with _output(args.output) as out:
        out.write(header + ",class\n")
        for (text, _), code in zip(rows, codes):
            out.write(f"{text},{KNOT_CLASS_LABELS[KnotClass(int(code))]}\n")
    counts = {KNOT_CLASS_LABELS[KnotClass(i)]: int(c)
              for i, c in enumerate(np.bincount(codes, minlength=6)) if c}
    print(f"classified {len(rows)} rows: {counts}", file=sys.stderr)
    return 0


def cmd_estimate(args):
    if args.repeats > 1:
        reports, summary = repeat_estimates(
            args.samples, args.seed, mode=args.mode,
            workers=args.workers, repeats=args.repeats)
        payload = {"runs": [r.to_dict() for r in reports],
                   "across_runs": summary}
    else:
        report = estimate_knotting_probability(
            args.samples, args.seed, mode=args.mode, workers=args.workers)
        payload = report.to_dict()
    with _output(args.output) as out:
        json.dump(payload, out, indent=2)
        out.write("\n")
    return 0


def cmd_volumes(args):
    print(f"closed forms: vol_P6={CLOSED_FORMS['vol_P6']:.12g} "
          f"vol_third={CLOSED_FORMS['vol_third']:.12g} "
          f"vol_obtuse={CLOSED_FORMS['vol_obtuse']:.12g} "
          f"ratio_obtuse={CLOSED_FORMS['ratio_obtuse']:.12g}")
    print(f"torus window fractions: obtuse={CLOSED_FORMS['torus_frac_obtuse']:.12g} "
          f"acute={CLOSED_FORMS['torus_frac_acute']:.12g}")
    print(f"{'region':22s} {'analytic':>14s} {'estimate':>14s} "
          f"{'std_error':>12s} {'z':>7s}")
    worst = 0.0
    for name in REGIONS:
        est = mc_region_volume(name, args.samples, args.seed,
                               workers=args.workers)
        z = est.z_score()
        worst = max(worst, abs(z))
        print(f"{name:22s} {est.analytic:14.8f} {est.value:14.8f} "
              f"{est.value_std_error:12.3e} {z:7.2f}")
    print(f"largest |z| = {worst:.2f}")
    return 0


def cmd_bound(args):
    ub = CLOSED_FORMS["upper_bound"]
    print(f"upper bound (14 - 3*pi)/192 = {ub:.12f}")
    print(f"1/42                        = {ONE_OVER_42:.12f}")
    relation = "<" if ub < ONE_OVER_42 else ">"
    print(f"ordering: (14 - 3*pi)/192 {relation} 1/42"
          f"  (note: the bound is not below 1/42)")
    print(f"expected positive-curl trefoil fraction bound: "
          f"{POSITIVE_CURL_BOUND:.12f} = 7/192 - pi/128")
    if args.with_estimate:
        try:
            with open(args.with_estimate, "r", encoding="utf-8") as fh:
                payload = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise CliError(f"cannot read estimate report: {exc}") from exc
        report = _report_from_dict(payload)
        bound = compare_bound(report)
        print(f"estimate fraction_total = {bound.estimate:.6e}, "
              f"ci95 = [{bound.ci95[0]:.6e}, {bound.ci95[1]:.6e}]")
        print(f"estimate < upper bound: {bound.orderings['estimate_lt_upper_bound']}")
        print(json.dumps(bound.to_dict(), indent=2))
    return 0


def _report_from_dict(payload):
    if isinstance(payload, dict) and "across_runs" in payload:
        if not payload.get("runs"):
            raise CliError("estimate report has no runs")
        payload = payload["runs"][0]
    if not isinstance(payload, dict):
        raise CliError("estimate report is not a JSON object")
    kwargs = {}
    for f in dataclasses.fields(EstimationReport):
        if f.name in payload:
            kwargs[f.name] = payload[f.name]
        elif f.default is dataclasses.MISSING:
            raise CliError(f"estimate report is missing field {f.name!r}")
    # the fields compare_bound reads; JSON numbers load as exactly int or float
    def number(x):  # not NaN, Infinity or an int beyond float range
        return type(x) in (int, float) and abs(x) <= sys.float_info.max
    ci = kwargs["ci95"]
    for name, ok, kind in (
            ("samples", type(kwargs["samples"]) is int, "an integer"),
            ("degenerate_count", type(kwargs["degenerate_count"]) is int, "an integer"),
            ("fraction_total", number(kwargs["fraction_total"]), "a number"),
            ("ci95", type(ci) is list and len(ci) == 2 and all(map(number, ci)),
             "two numbers")):
        if not ok:
            raise CliError(f"estimate report field {name!r} must be {kind}")
    return EstimationReport(**kwargs)


def cmd_check(args):
    d = np.array(args.coords[:3])
    th = wrap_angles(args.coords[3:])
    payload = {"coords": {"d": list(d), "theta": list(th)}}
    if not bool(is_interior(d)):
        payload["class"] = KNOT_CLASS_LABELS[KnotClass.DEGENERATE]
        payload["note"] = "diagonals outside the open moment polytope"
    else:
        code = classify_batch(build_hexagon(d, th))
        payload["class"] = KNOT_CLASS_LABELS[KnotClass(int(code))]
        report = window_filters(d, th, KNOT_CLASS_FROM_LABEL[args.target])
        payload["filters"] = report.to_dict()
        payload["filters"]["passes_all"] = report.passes()
    print(json.dumps(payload, indent=2))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="hexknot",
        description="Sample, classify and count knotted equilateral hexagons.")
    seed = _default_seed(parser)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", help="write uniformly sampled coordinates")
    p.add_argument("--n", type=_positive_int, required=True,
                   help="number of samples")
    p.add_argument("--seed", type=_seed, default=seed)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--vertices", action="store_true",
                   help="emit 18-column vertex rows instead of coordinates")
    p.add_argument("--output", default=None, help="output path (default stdout)")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("classify", help="append a knot class column to a CSV")
    p.add_argument("--input", default=None,
                   help="6- or 18-column CSV (default stdin)")
    p.add_argument("--output", default=None, help="output path (default stdout)")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("estimate", help="Monte Carlo knotting probability")
    p.add_argument("--samples", type=_positive_int, required=True)
    p.add_argument("--seed", type=_seed, default=seed)
    p.add_argument("--mode", choices=("predicate", "oracle"), default="predicate")
    p.add_argument("--workers", type=_positive_int, default=1)
    p.add_argument("--repeats", type=_positive_int, default=1)
    p.add_argument("--output", default=None, help="JSON output path (default stdout)")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("volumes", help="MC verification of the volume constants")
    p.add_argument("--samples", type=_positive_int, default=1_000_000)
    p.add_argument("--seed", type=_seed, default=seed)
    p.add_argument("--workers", type=_positive_int, default=1)
    p.set_defaults(func=cmd_volumes)

    p = sub.add_parser("bound", help="closed-form bound and orderings")
    p.add_argument("--with-estimate", default=None,
                   help="JSON report from `estimate` to compare")
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("check", help="filters and class for one coordinate tuple")
    p.add_argument("coords", type=_finite_float, nargs=6, metavar="X",
                   help="d1 d2 d3 theta1 theta2 theta3 (give -- first if any starts "
                        "with -; --target must come before --)")
    p.add_argument("--target",
                   choices=[KNOT_CLASS_LABELS[cls] for cls in TREFOIL_CLASSES],
                   default="trefoil_R+",
                   help="trefoil class for the filter report")
    p.set_defaults(func=cmd_check)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # The reader went away (e.g. `| head`): send the rest of stdout,
        # including the flush at exit, to devnull and fail quietly.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary; CliError included
        print(f"hexknot: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
