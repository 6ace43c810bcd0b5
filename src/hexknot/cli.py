"""Command-line front end.

Subcommands: sample, classify, estimate, volumes, bound, check. With a
fixed seed every output is byte-for-byte the same across runs and worker
counts, but for estimate's wall_time_seconds and workers fields.
Exit codes: 0 success, 1 runtime failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import re
import sys
from contextlib import nullcontext
from itertools import chain, islice, repeat

import numpy as np

from .action_angle import build_hexagon, is_interior, wrap_angles
from .invariants import (
    KNOT_CLASS_LABELS,
    KnotClass,
    classify_batch,
)
from .measure import (
    CLOSED_FORMS,
    GEOMETRY_BLOCK,
    MODES,
    ONE_OVER_42,
    POSITIVE_CURL_BOUND,
    UPPER_BOUND,
    EstimationReport,
    check_count,
    check_seed,
    compare_bound,
    mc_region_volumes,
    repeat_estimates,
    sample_coordinate_stream,
)
from .trefoil_predicates import filter_clauses

ACTION_HEADER = "d1,d2,d3,theta1,theta2,theta3"
VERTEX_HEADER = ",".join(f"v{i}{c}" for i in range(1, 7) for c in "xyz")


class CliError(RuntimeError):
    """Runtime failure reported on stderr with exit code 1."""


def _float_or_none(text):
    try:
        return float(text)
    except ValueError:
        return None


def _finite_float(text):
    value = _float_or_none(text)
    if value is None:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}")
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"non-finite value: {text!r}")
    return value


def _checked(check, *name):
    """argparse type: an integer that passes the library's check(*name, value)."""
    def parse(text):
        try:
            value = int(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from exc
        try:
            return check(*name, value)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from exc
    return parse


def _output(path):
    return nullcontext(sys.stdout) if path == "-" else open(path, "w", encoding="utf-8")


def cmd_sample(args):
    header = VERTEX_HEADER if args.vertices else ACTION_HEADER
    names = header.split(",")
    if args.format == "csv":
        head, record, sep, tail = header + "\n", ",".join(["%.17g"] * len(names)) + "\n", "", ""
    else:  # the bytes of json.dump(records, indent=2): %r of a float is its JSON
        head, sep, tail = "[\n", ",\n", "\n]\n"
        record = "  {\n" + ",\n".join(f'    "{k}": %r' for k in names) + "\n  }"
    with _output(args.output) as out:
        out.write(head)
        lead = ""
        for d, th in sample_coordinate_stream(args.seed, args.n):
            block = (build_hexagon(d, th).reshape(-1, 18)
                     if args.vertices else np.concatenate([d, th], axis=1))
            for k in range(0, len(block), GEOMETRY_BLOCK):
                rows = map(tuple, block[k:k + GEOMETRY_BLOCK].tolist())
                out.write(lead + sep.join(map(record.__mod__, rows)))
                lead = sep
        out.write(tail)
    return 0


def _input(path):
    """Input text with universal newlines and a leading byte-order mark dropped."""
    if path == "-":
        sys.stdin.reconfigure(encoding="utf-8-sig", newline=None)
        return nullcontext(sys.stdin)
    try:
        return open(path, "r", encoding="utf-8-sig")
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc


def _parse_block(block, widths):
    """(texts, float rows) of (line number, line, text) entries, of a width in
    widths; raises the first bad line's error, else the mixed-width one."""
    texts = [text for _, _, text in block]
    commas = set(map(str.count, texts, repeat(",")))
    width = commas.pop() + 1
    fields = ",".join(texts).split(",")
    try:
        values = np.fromiter(map(float, fields), float, len(fields))
        if not commas and width in widths and np.isfinite(values).all():
            return texts, values.reshape(-1, width)
    except ValueError:
        pass
    for lineno, line, text in block:
        try:
            values = [float(f) for f in text.split(",")]
        except ValueError:
            raise CliError(f"line {lineno}: cannot parse {line!r}")
        if not all(map(math.isfinite, values)):
            raise CliError(f"line {lineno}: non-finite value in {line!r}")
        if len(values) not in (6, 18):
            raise CliError(
                f"line {lineno}: expected 6 or 18 columns, got {len(values)}")
    raise CliError("mixed 6- and 18-column rows in input")


def _read_blocks(fh, source):
    """(texts, float rows) of the non-blank lines of a 6- or 18-column CSV, all
    as wide as the first, GEOMETRY_BLOCK lines at a time. The first non-blank line
    is skipped when no field of it parses (a header). CliError names source if not UTF-8."""
    lines = enumerate(chain.from_iterable(map(str.splitlines, fh)), 1)
    header, widths = True, (6, 18)
    try:
        while chunk := list(islice(lines, GEOMETRY_BLOCK)):
            block = [(n, line, text) for n, line in chunk if (text := line.strip())]
            if header and block:
                header = False
                if all(_float_or_none(f) is None for f in block[0][2].split(",")):
                    del block[0]
            if block:
                texts, rows = _parse_block(block, widths)
                widths = rows.shape[1:]
                yield texts, rows
    except UnicodeDecodeError as exc:
        raise CliError(f"cannot read {source}: {exc}") from exc


def _classify_rows(data):
    """Class codes of 6-column coordinate or 18-column vertex rows."""
    if data.shape[1] == 18:
        return classify_batch(data.reshape(-1, 6, 3))
    d, th = data[:, :3], data[:, 3:]
    interior = is_interior(d)
    codes = np.full(len(data), int(KnotClass.DEGENERATE), dtype=np.int8)
    codes[interior] = classify_batch(build_hexagon(d[interior], th[interior]))
    return codes


def cmd_classify(args):
    labels = [KNOT_CLASS_LABELS[cls] for cls in KnotClass]
    counts = np.zeros(len(labels), dtype=np.int64)
    with _input(args.input) as fh:
        # streaming output would truncate the input before it is read
        if args.output != "-":
            try:  # one file identity covers a path, a link and redirected stdin
                same = os.path.samestat(os.fstat(fh.fileno()), os.stat(args.output))
            except (OSError, ValueError):  # no output file yet, or stdin has no descriptor
                same = False
            if same:
                raise CliError(
                    f"--output {args.output} is the file classify reads; nothing written")
        blocks = _read_blocks(fh, "stdin" if args.input == "-" else args.input)
        first = next(blocks, None)
        if first is None:
            raise CliError("no data rows in input")
        width = first[1].shape[1]
        with _output(args.output) as out:
            out.write((ACTION_HEADER if width == 6 else VERTEX_HEADER) + ",class\n")
            for texts, data in chain([first], blocks):
                codes = _classify_rows(data)
                out.write("".join(map("{},{}\n".format, texts,
                                      map(labels.__getitem__, codes.tolist()))))
                counts += np.bincount(codes, minlength=len(labels))
    summary = {label: int(c) for label, c in zip(labels, counts) if c}
    print(f"classified {counts.sum()} rows: {summary}", file=sys.stderr)
    return 0


def cmd_estimate(args):
    with _output(args.output) as out:  # an unwritable path fails before the run
        reports, summary = repeat_estimates(args.samples, args.seed, mode=args.mode,
                                            workers=args.workers, repeats=args.repeats)
        payload = ({"runs": [r.to_dict() for r in reports], "across_runs": summary}
                   if args.repeats > 1 else reports[0].to_dict())
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
    for name, est in mc_region_volumes(args.samples, args.seed, args.workers).items():
        z = est.z_score()
        worst = max(worst, abs(z))
        print(f"{name:22s} {est.analytic:14.8f} {est.value:14.8f} "
              f"{est.value_std_error:12.3e} {z:7.2f}")
    print(f"largest |z| = {worst:.2f}")
    return 0


def cmd_bound(args):
    print(f"upper bound (14 - 3*pi)/192 = {UPPER_BOUND:.12f}")
    print(f"1/42                        = {ONE_OVER_42:.12f}")
    relation = "<" if UPPER_BOUND < ONE_OVER_42 else ">"
    print(f"ordering: (14 - 3*pi)/192 {relation} 1/42"
          f"  (note: the bound is not below 1/42)")
    print(f"expected positive-curl trefoil fraction bound: "
          f"{POSITIVE_CURL_BOUND:.12f} = 7/192 - pi/128")
    if args.with_estimate is not None:
        with _input(args.with_estimate) as fh:
            try:
                payload = json.load(fh)
            except (json.JSONDecodeError, UnicodeDecodeError) as exc:
                raise CliError(f"cannot read estimate report: {exc}") from exc
        repeats = isinstance(payload, dict) and "across_runs" in payload
        runs = payload.get("runs") if repeats else [payload]
        if not runs or not isinstance(runs, list):
            raise CliError("estimate report has no runs")
        bounds = []
        for i, run in enumerate(runs):
            try:
                bounds.append(compare_bound(_report_from_dict(run)))
            except (ValueError, RuntimeError) as exc:
                raise CliError(f"runs[{i}]: {exc}" if repeats else str(exc)) from exc
        bound = bounds[0]
        print(f"estimate fraction_total = {bound.estimate:.6e}, "
              f"ci95 = [{bound.ci95[0]:.6e}, {bound.ci95[1]:.6e}]")
        print(f"estimate < upper bound: {bound.orderings['estimate_lt_upper_bound']}")
        print(json.dumps(bound.to_dict(), indent=2))
    return 0


def _report_from_dict(payload):
    if not isinstance(payload, dict):
        raise CliError("estimate report is not a JSON object")
    kwargs = {}
    for f in dataclasses.fields(EstimationReport):
        if f.name in payload:
            kwargs[f.name] = payload[f.name]
        elif f.default is dataclasses.MISSING:
            raise CliError(f"estimate report is missing field {f.name!r}")
    return EstimationReport(**kwargs)  # compare_bound checks the fields it reads


def cmd_check(args):
    d = np.array(args.coords[:3])
    th = wrap_angles(args.coords[3:])
    code = _classify_rows(np.concatenate([d, th])[None])[0]
    payload = {"coords": {"d": list(d), "theta": list(th)},
               "class": KNOT_CLASS_LABELS[KnotClass(code)]}
    if not is_interior(d):
        payload["note"] = "diagonals outside the open moment polytope"
    else:
        payload["filters"] = {  # JSON keys "1" and "-1"
            curl_sign: {**{name: bool(m) for name, m in clauses.items()},
                        "passes_all": all(clauses.values())}
            for curl_sign, clauses in filter_clauses(d, th).items()}
    print(json.dumps(payload, indent=2))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="hexknot",
        description="Sample, classify and count knotted equilateral hexagons.")
    seed = _checked(check_seed)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", help="write uniformly sampled coordinates")
    p.add_argument("--n", type=_checked(check_count, "sample"), required=True,
                   help="number of samples")
    p.add_argument("--seed", type=seed, default=0)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--vertices", action="store_true",
                   help="emit 18-column vertex rows instead of coordinates")
    p.add_argument("--output", default="-", help="output path (default stdout)")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("classify", help="append a knot class column to a CSV")
    p.add_argument("--input", default="-",
                   help="6- or 18-column CSV (default stdin)")
    p.add_argument("--output", default="-", help="output path (default stdout)")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("estimate", help="Monte Carlo knotting probability")
    p.add_argument("--samples", type=_checked(check_count, "sample"), required=True)
    p.add_argument("--seed", type=seed, default=0)
    p.add_argument("--mode", choices=MODES, default="predicate")
    p.add_argument("--workers", type=_checked(check_count, "worker"), default=1)
    p.add_argument("--repeats", type=_checked(check_count, "repeat"), default=1)
    p.add_argument("--output", default="-", help="JSON output path (default stdout)")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("volumes", help="MC verification of the volume constants")
    p.add_argument("--samples", type=_checked(check_count, "sample"), default=1_000_000)
    p.add_argument("--seed", type=seed, default=0)
    p.add_argument("--workers", type=_checked(check_count, "worker"), default=1)
    p.set_defaults(func=cmd_volumes)

    p = sub.add_parser("bound", help="closed-form bound and orderings")
    p.add_argument("--with-estimate", default=None,
                   help="JSON report from `estimate` to compare")
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("check", help="filters and class for one coordinate tuple")
    # a token that reads as a float (-1e-3, -inf) is a coordinate, not an option
    p._negative_number_matcher = re.compile(r"-(\d|\.\d|inf|nan)", re.I)
    p.add_argument("coords", type=_finite_float, nargs=6, metavar="X",
                   help="d1 d2 d3 theta1 theta2 theta3")
    p.set_defaults(func=cmd_check)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "estimate" and args.seed + args.repeats > 1 << 64:
        parser.error("estimate: --seed + --repeats - 1 must be below 2**64")
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
