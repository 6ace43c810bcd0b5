import io
import json
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from hexknot import cli, measure
from hexknot.action_angle import build_hexagon
from hexknot.cli import main
from hexknot.invariants import KnotClass, classify_batch
from hexknot.measure import CHUNK_SIZE, sample_coordinate_stream
from hexknot.trefoil_predicates import FILTER_CLAUSES
from conftest import REGULAR_ANGLES, REGULAR_DIAGONALS, WITNESSES

ROOT = Path(__file__).resolve().parent.parent

# a well-formed predicate-mode `estimate` report
REPORT = {"samples": 1000, "seed": 1, "mode": "predicate", "hits": {},
          "degenerate_count": 0, "fraction_R_plus": 0.0, "fraction_total": 0.0,
          "std_error": 0.0, "ci95": [0.0, 0.01]}


def run(args):
    return main(args)


# `classify` input rules, pinned with cli.GEOMETRY_BLOCK = 7 so that the
# longer inputs span several blocks.
HEADER = "d1,d2,d3,theta1,theta2,theta3"
UNKNOT = "1.5,0.8,0.9,2.0,0.4,0.3"
OUTSIDE = "1.0,1.0,2.0,1.0,1.0,1.0"  # outside the open polytope
TREFOIL = ",".join(f"{x:.17g}" for part in WITNESSES["trefoil_R+"] for x in part)
ROWS = [UNKNOT, OUTSIDE, TREFOIL] * 7
LABELS = {UNKNOT: "unknot", OUTSIDE: "degenerate", TREFOIL: "trefoil_R+"}


def classified(rows, labels=None):
    """`classify` stdout for 6-column rows (texts as written)."""
    labels = labels or [LABELS[r] for r in rows]
    return "".join(f"{r},{c}\n" for r, c in zip([HEADER, *rows], ["class", *labels]))


def lines(*rows, end="\n"):
    return "".join(r + end for r in rows)


CLASSIFY_INPUTS = {
    # id: (input, exit code, stderr, stdout when the exit code is 0)
    "bad-field-line-22": (
        lines(HEADER, *ROWS[:20], "1.5,oops,0.9,2.0,0.4,0.3", *ROWS[:3]), 1,
        "hexknot: error: line 22: cannot parse '1.5,oops,0.9,2.0,0.4,0.3'\n", None),
    "nan-line-13": (
        lines(*ROWS[:12], "1.5,0.8,0.9,nan,0.4,0.3", *ROWS[:2]), 1,
        "hexknot: error: line 13: non-finite value in '1.5,0.8,0.9,nan,0.4,0.3'\n", None),
    "seven-columns-line-10": (
        lines(*ROWS[:9], UNKNOT + ",1.0", *ROWS[:2]), 1,
        "hexknot: error: line 10: expected 6 or 18 columns, got 7\n", None),
    "mixed-6-then-18": (
        lines(*ROWS[:10], ",".join(["0.5"] * 18), *ROWS[:2]), 1,
        "hexknot: error: mixed 6- and 18-column rows in input\n", None),
    # block 1 (7 rows) is all 6-column and block 2 all 18-column, so the
    # width check between blocks rejects it, not the one inside a block
    "6-then-18-across-blocks": (
        lines(*ROWS[:7], *[",".join(["0.5"] * 18)] * 3), 1,
        "hexknot: error: mixed 6- and 18-column rows in input\n", None),
    "header-only": (lines(HEADER), 1, "hexknot: error: no data rows in input\n", None),
    "empty": ("", 1, "hexknot: error: no data rows in input\n", None),
    "blank-lines-padded-header": (
        "\n \n\t d1, d2 ,d3,theta1,theta2,theta3  \n" + lines(*ROWS[:4], "", *ROWS[4:12]), 0,
        "classified 12 rows: {'unknot': 4, 'trefoil_R+': 4, 'degenerate': 4}\n",
        classified(ROWS[:12])),
    "form-feed": (
        lines(UNKNOT + "\x0c" + OUTSIDE, TREFOIL), 0,
        "classified 3 rows: {'unknot': 1, 'trefoil_R+': 1, 'degenerate': 1}\n",
        classified([UNKNOT, OUTSIDE, TREFOIL])),
    "crlf": (
        lines(HEADER, *ROWS[:9], end="\r\n"), 0,
        "classified 9 rows: {'unknot': 3, 'trefoil_R+': 3, 'degenerate': 3}\n",
        classified(ROWS[:9])),
    "bare-cr": (
        lines(HEADER, *ROWS[:9], end="\r"), 0,
        "classified 9 rows: {'unknot': 3, 'trefoil_R+': 3, 'degenerate': 3}\n",
        classified(ROWS[:9])),
    "padded-fields": (
        lines(*ROWS[:8], "  1.5 , 0.8,0.9\t,2.0,0.4, 0.3 "), 0,
        "classified 9 rows: {'unknot': 4, 'trefoil_R+': 2, 'degenerate': 3}\n",
        classified([*ROWS[:8], "1.5 , 0.8,0.9\t,2.0,0.4, 0.3"],
                   [LABELS[r] for r in ROWS[:8]] + ["unknot"])),
    "underscore-digits": (
        lines(*ROWS[:7], "1_5e-1,0.8,0.9,2.0,0.4,0.3"), 0,
        "classified 8 rows: {'unknot': 4, 'trefoil_R+': 2, 'degenerate': 2}\n",
        classified([*ROWS[:7], "1_5e-1,0.8,0.9,2.0,0.4,0.3"],
                   [LABELS[r] for r in ROWS[:7]] + ["unknot"])),
}


def classify_text(text, source, tmp_path, monkeypatch):
    """Run `classify` on text from a file or from stdin; exit code."""
    if source == "stdin":
        # a Linux sys.stdin: UTF-8, lines split at "\n" only
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(
            io.BytesIO(text.encode()), encoding="utf-8", newline="\n"))
        return run(["classify"])
    src = tmp_path / "input.csv"
    src.write_bytes(text.encode())
    return run(["classify", "--input", str(src)])


class TestSample:
    def test_csv_contract(self, tmp_path, capsys):
        out = tmp_path / "rows.csv"
        assert run(["sample", "--n", "100", "--seed", "7",
                    "--format", "csv", "--output", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "d1,d2,d3,theta1,theta2,theta3"
        assert len(lines) == 101
        values = np.array([[float(x) for x in ln.split(",")] for ln in lines[1:]])
        assert values.shape == (100, 6)
        assert (values[:, :3] > 0).all() and (values[:, :3] < 2).all()
        assert (values[:, 3:] >= 0).all() and (values[:, 3:] < 2 * np.pi).all()

    def test_rerun_is_byte_identical(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        run(["sample", "--n", "200", "--seed", "9", "--output", str(a)])
        run(["sample", "--n", "200", "--seed", "9", "--output", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_vertices_output(self, tmp_path):
        out = tmp_path / "verts.csv"
        run(["sample", "--n", "10", "--seed", "3", "--vertices",
             "--output", str(out)])
        lines = out.read_text().splitlines()
        assert lines[0].startswith("v1x,v1y,v1z")
        row = np.array([float(x) for x in lines[1].split(",")]).reshape(6, 3)
        edges = np.linalg.norm(np.roll(row, -1, axis=0) - row, axis=1)
        assert np.abs(edges - 1.0).max() < 1e-10

    def test_json_format(self, tmp_path):
        out = tmp_path / "rows.json"
        run(["sample", "--n", "5", "--seed", "3", "--format", "json",
             "--output", str(out)])
        payload = json.loads(out.read_text())
        assert len(payload) == 5 and set(payload[0]) == {
            "d1", "d2", "d3", "theta1", "theta2", "theta3"}

    @pytest.mark.parametrize("vertices", [False, True], ids=["coords", "vertices"])
    def test_output_matches_stream(self, tmp_path, vertices):
        n, seed = CHUNK_SIZE + 5, 4  # crosses a chunk boundary
        blocks = [build_hexagon(d, th).reshape(-1, 18) if vertices
                  else np.concatenate([d, th], axis=1)
                  for d, th in sample_coordinate_stream(seed, n)]
        expected = np.concatenate(blocks)
        flag = ["--vertices"] if vertices else []
        csv, js = tmp_path / "rows.csv", tmp_path / "rows.json"
        run(["sample", "--n", str(n), "--seed", str(seed), *flag, "--output", str(csv)])
        lines = csv.read_text().splitlines()
        assert len(lines) == n + 1
        assert lines[1:] == [",".join(f"{x:.17g}" for x in row) for row in expected]
        if not vertices:  # the JSON writer walks the same blocks either way
            run(["sample", "--n", str(n), "--seed", str(seed), "--format", "json",
                 "--output", str(js)])
            names = lines[0].split(",")
            payload = json.loads(js.read_text())
            assert np.array_equal([[r[k] for k in names] for r in payload], expected)

    @pytest.mark.parametrize("vertices", [False, True], ids=["coords", "vertices"])
    def test_bytes_across_slices_and_chunks(self, tmp_path, monkeypatch, vertices):
        # 40 rows in chunks of 16 and slices of 7: the writers' joins at
        # both boundaries give the bytes of np.savetxt and json.dumps.
        monkeypatch.setattr(measure, "CHUNK_SIZE", 16)
        monkeypatch.setattr(cli, "GEOMETRY_BLOCK", 7)
        n, seed = 40, 6
        rows = np.concatenate([build_hexagon(d, th).reshape(-1, 18) if vertices
                               else np.concatenate([d, th], axis=1)
                               for d, th in sample_coordinate_stream(seed, n)])
        header = cli.VERTEX_HEADER if vertices else cli.ACTION_HEADER
        text = io.StringIO()
        np.savetxt(text, rows, fmt="%.17g", delimiter=",")
        records = [dict(zip(header.split(","), row)) for row in rows]
        flag = ["--vertices"] if vertices else []
        for fmt, expected in (("csv", header + "\n" + text.getvalue()),
                              ("json", json.dumps(records, indent=2) + "\n")):
            out = tmp_path / f"rows.{fmt}"
            assert run(["sample", "--n", str(n), "--seed", str(seed), *flag,
                        "--format", fmt, "--output", str(out)]) == 0
            assert out.read_text() == expected

    def test_zero_samples_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            run(["sample", "--n", "0"])
        assert err.value.code == 2

    def test_default_seed_is_zero(self, tmp_path, monkeypatch):
        # no environment variable moves the default: a run is fixed by its arguments
        monkeypatch.setenv("HEXKNOT_SEED", "77")
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        run(["sample", "--n", "20", "--output", str(a)])
        run(["sample", "--n", "20", "--seed", "0", "--output", str(b)])
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("command, option, name", [
        (["sample"], "--n", "sample"),
        (["estimate", "--samples", "10"], "--workers", "worker"),
        (["estimate", "--samples", "10"], "--repeats", "repeat"),
        (["volumes"], "--samples", "sample"),
    ])
    def test_count_below_one_is_usage_error(self, capsys, command, option, name):
        with pytest.raises(SystemExit) as err:
            run([*command, option, "0"])
        assert err.value.code == 2
        assert f"{name} count must be an integer of at least 1, got 0" in capsys.readouterr().err

    def test_non_integer_seed_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            run(["sample", "--n", "3", "--seed", "abc"])
        assert err.value.code == 2
        assert "not an integer: 'abc'" in capsys.readouterr().err

    def test_seed_outside_64_bits_is_usage_error(self, capsys):
        for seed in (str(2 ** 64), "18446744073709551617", "-1"):
            for command in (["sample", "--n", "3"], ["estimate", "--samples", "10"],
                            ["volumes", "--samples", "10"]):
                with pytest.raises(SystemExit) as err:
                    run([*command, "--seed", seed])
                assert err.value.code == 2
                assert "seed must be in [0, 2**64)" in capsys.readouterr().err

    def test_closed_pipe_exits_quietly(self):
        # `hexknot sample | head -1`: the reader leaves after one line
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        proc = subprocess.Popen(
            [sys.executable, "-m", "hexknot.cli", "sample", "--n", "200000"],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        assert proc.stdout.readline().startswith(b"d1,d2,d3")
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=120) == 1
        assert err == b"", err  # no error line, no "Exception ignored"


NOT_UTF8 = "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"


def _non_utf8(tmp_path, monkeypatch, source):
    """Path of a file, or "-" for stdin, whose bytes start FF FE (not UTF-8)."""
    data = b"\xff\xfe" + lines(HEADER, UNKNOT).encode()
    if source == "stdin":
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(
            io.BytesIO(data), encoding="utf-8", newline="\n"))
        return "-"
    src = tmp_path / "not-utf8.csv"
    src.write_bytes(data)
    return str(src)


class TestClassify:
    def test_round_trip_matches_in_memory(self, tmp_path, capsys):
        rows = tmp_path / "rows.csv"
        run(["sample", "--n", "500", "--seed", "21", "--output", str(rows)])
        out = tmp_path / "classified.csv"
        assert run(["classify", "--input", str(rows), "--output", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0].endswith(",class")
        data = np.array([[float(x) for x in ln.split(",")[:6]]
                         for ln in lines[1:]])
        codes = classify_batch(build_hexagon(data[:, :3], data[:, 3:]))
        from hexknot.invariants import KNOT_CLASS_LABELS
        expected = [KNOT_CLASS_LABELS[KnotClass(int(c))] for c in codes]
        got = [ln.split(",")[-1] for ln in lines[1:]]
        assert got == expected

    def test_planar_hexagon_vertex_row_is_unknot(self, tmp_path, capsys):
        v = build_hexagon(REGULAR_DIAGONALS, REGULAR_ANGLES).reshape(-1)
        src = tmp_path / "hex.csv"
        src.write_text(",".join(f"{x:.17g}" for x in v) + "\n")
        out = tmp_path / "out.csv"
        run(["classify", "--input", str(src), "--output", str(out)])
        assert out.read_text().splitlines()[1].endswith(",unknot")

    def test_witness_row_classifies(self, tmp_path):
        d, th = WITNESSES["trefoil_R+"]
        src = tmp_path / "w.csv"
        src.write_text("d1,d2,d3,theta1,theta2,theta3\n"
                       + ",".join(f"{x:.17g}" for x in (*d, *th)) + "\n")
        out = tmp_path / "out.csv"
        run(["classify", "--input", str(src), "--output", str(out)])
        assert out.read_text().splitlines()[1].endswith(",trefoil_R+")

    def test_non_interior_row_counts_degenerate(self, tmp_path, capsys):
        src = tmp_path / "bad.csv"
        src.write_text("1.0,1.0,2.0,1.0,1.0,1.0\n"
                       "1.0,1.0,1.0,3.14,3.14,3.14\n")
        out = tmp_path / "out.csv"
        assert run(["classify", "--input", str(src), "--output", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[1].endswith(",degenerate")
        summary = capsys.readouterr().err
        assert "degenerate" in summary

    def test_header_after_blank_first_line(self, tmp_path, capsys):
        src = tmp_path / "blank.csv"
        src.write_text("\nd1,d2,d3,theta1,theta2,theta3\n"
                       "1.5,0.8,0.9,2.0,0.4,0.3\n")
        out = tmp_path / "out.csv"
        assert run(["classify", "--input", str(src), "--output", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 2

    def test_malformed_first_row_is_not_a_header(self, tmp_path, capsys):
        # a field of the first line parses as a float, so it is data
        src = tmp_path / "first.csv"
        src.write_text("1.5,0.8,0.9,2.0,0.4,0.3x\n"
                       "1.5,0.8,0.9,2.0,0.4,0.3\n")
        assert run(["classify", "--input", str(src)]) == 1
        assert "line 1: cannot parse" in capsys.readouterr().err

    def test_malformed_row_names_line(self, tmp_path, capsys):
        src = tmp_path / "bad.csv"
        src.write_text("d1,d2,d3,theta1,theta2,theta3\n"
                       "1.0,1.0,1.0,1.0,1.0,1.0\n"
                       "1.0,oops,1.0,1.0,1.0,1.0\n")
        assert run(["classify", "--input", str(src)]) == 1
        assert "line 3" in capsys.readouterr().err

    def test_missing_file_is_runtime_error(self, capsys):
        assert run(["classify", "--input", "/nonexistent/x.csv"]) == 1

    @pytest.mark.parametrize("source", ["file", "stdin"])
    def test_non_utf8_input_names_the_source(self, tmp_path, capsys, monkeypatch, source):
        path = _non_utf8(tmp_path, monkeypatch, source)
        assert run(["classify", "--input", path]) == 1
        name = path if source == "file" else "stdin"
        assert capsys.readouterr().err == f"hexknot: error: cannot read {name}: {NOT_UTF8}\n"

    def test_output_onto_input_is_refused(self, tmp_path, capsys, monkeypatch):
        # classify streams: opening the output would truncate the input
        # before its later blocks are read
        monkeypatch.setattr(cli, "GEOMETRY_BLOCK", 7)
        src = tmp_path / "rows.csv"
        src.write_text(lines(HEADER, *ROWS))
        (tmp_path / "link.csv").symlink_to(src)
        for out in (src, tmp_path / "link.csv"):
            assert run(["classify", "--input", str(src), "--output", str(out)]) == 1
            assert capsys.readouterr().err == (
                f"hexknot: error: --output {out} is the file classify reads; nothing written\n")
            assert src.read_text() == lines(HEADER, *ROWS)

    def test_output_onto_redirected_stdin_is_refused(self, tmp_path, capsys, monkeypatch):
        # `classify --output F < F`: stdin is F itself, so the same rule holds
        monkeypatch.setattr(cli, "GEOMETRY_BLOCK", 7)
        src = tmp_path / "rows.csv"
        src.write_text(lines(HEADER, *ROWS))
        for extra in ([], ["--input", "-"]):
            with open(src, encoding="utf-8") as fh:
                monkeypatch.setattr(sys, "stdin", fh)
                assert run(["classify", *extra, "--output", str(src)]) == 1
            assert capsys.readouterr().err == (
                f"hexknot: error: --output {src} is the file classify reads; nothing written\n")
            assert src.read_text() == lines(HEADER, *ROWS)

    @pytest.mark.parametrize("width", [6, 18])
    def test_slices_give_the_same_bytes(self, tmp_path, capsys, monkeypatch, width):
        d, th = (np.array([w[i] for w in WITNESSES.values()]) for i in (0, 1))
        stream = next(sample_coordinate_stream(5, 40))
        d, th = np.vstack([d, stream[0]]), np.vstack([th, stream[1]])
        rows = (np.hstack([d, th]) if width == 6
                else build_hexagon(d, th).reshape(-1, 18))
        # (2, 2, 2) is outside the open polytope; all-zero vertices are
        # not embedded
        bad = np.full(width, 2.0 if width == 6 else 0.0)
        rows = np.insert(rows, [0, 7, 15, 44], bad, axis=0)
        src = tmp_path / "rows.csv"
        np.savetxt(src, rows, fmt="%.17g", delimiter=",")
        assert run(["classify", "--input", str(src)]) == 0
        whole = capsys.readouterr().out
        monkeypatch.setattr(cli, "GEOMETRY_BLOCK", 7)
        assert run(["classify", "--input", str(src)]) == 0
        assert capsys.readouterr().out == whole
        labels = [ln.rsplit(",", 1)[1] for ln in whole.splitlines()[1:]]
        assert len(labels) == 48 and labels.count("degenerate") == 4
        assert set(WITNESSES) <= set(labels)

    @pytest.mark.parametrize("source", ["file", "stdin"])
    @pytest.mark.parametrize("case", CLASSIFY_INPUTS)
    def test_input_rules(self, tmp_path, capsys, monkeypatch, case, source):
        text, code, err, out = CLASSIFY_INPUTS[case]
        monkeypatch.setattr(cli, "GEOMETRY_BLOCK", 7)
        assert classify_text(text, source, tmp_path, monkeypatch) == code
        got = capsys.readouterr()
        assert got.err == err
        if code == 0:
            assert got.out == out

    @pytest.mark.parametrize("case, written", [
        ("bad-field-line-22", 21), ("nan-line-13", 7), ("mixed-6-then-18", 7),
        ("6-then-18-across-blocks", 7)])
    @pytest.mark.parametrize("block", [7, 1 << 14])
    def test_error_keeps_rows_of_earlier_blocks(self, tmp_path, capsys, monkeypatch,
                                                case, written, block):
        # Rows of the blocks before the failing line are already written;
        # an input of one block writes nothing.
        text, code, err, _ = CLASSIFY_INPUTS[case]
        monkeypatch.setattr(cli, "GEOMETRY_BLOCK", block)
        assert classify_text(text, "file", tmp_path, monkeypatch) == code
        got = capsys.readouterr()
        assert got.err == err
        if block > written:
            assert got.out == ""
        else:
            assert classify_text(lines(*text.splitlines()[:written]), "file",
                                 tmp_path, monkeypatch) == 0
            assert got.out == capsys.readouterr().out != ""

    @pytest.mark.parametrize("source", ["file", "stdin"])
    @pytest.mark.parametrize("first", [HEADER, UNKNOT])
    def test_byte_order_mark_on_first_line(self, tmp_path, capsys, monkeypatch,
                                           source, first):
        text = lines(first, *ROWS[:4])
        assert classify_text(text, source, tmp_path, monkeypatch) == 0
        plain = capsys.readouterr()
        assert classify_text("\ufeff" + text, source, tmp_path, monkeypatch) == 0
        assert capsys.readouterr() == plain

    def test_memory_does_not_grow_with_rows(self, tmp_path, monkeypatch):
        # Chunks and blocks of 512 rows: at 16x the rows the peak of
        # Python allocations must stay below 2x.
        monkeypatch.setattr(measure, "CHUNK_SIZE", 512)
        monkeypatch.setattr(cli, "GEOMETRY_BLOCK", 512)
        rows, out = tmp_path / "rows.csv", tmp_path / "out"

        def peak(argv):
            tracemalloc.start()
            try:
                assert run([*argv, "--output", str(out)]) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peaks = {}
        for n in (2048, 16 * 2048):
            run(["sample", "--n", str(n), "--seed", "3", "--output", str(rows)])
            peaks[n] = (peak(["classify", "--input", str(rows)]),
                        peak(["sample", "--n", str(n), "--seed", "3", "--format", "json"]))
        for small, large in zip(peaks[2048], peaks[16 * 2048]):
            assert large < 2 * small, peaks

    def test_memory_does_not_grow_with_bare_cr_rows_on_stdin(self, tmp_path, monkeypatch):
        # Lines that end in a bare "\r" are read a block at a time from
        # stdin too, not as one physical line.
        monkeypatch.setattr(measure, "CHUNK_SIZE", 512)
        monkeypatch.setattr(cli, "GEOMETRY_BLOCK", 512)
        rows, out = tmp_path / "rows.csv", tmp_path / "out"
        peaks = []
        for n in (2048, 16 * 2048):
            run(["sample", "--n", str(n), "--seed", "3", "--output", str(rows)])
            monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(
                io.BytesIO(rows.read_bytes().replace(b"\n", b"\r")),
                encoding="utf-8", newline="\n"))
            tracemalloc.start()
            try:
                assert run(["classify", "--output", str(out)]) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 2 * peaks[0], peaks

    def test_non_finite_row_names_line(self, tmp_path, capsys):
        src = tmp_path / "nan.csv"
        src.write_text("d1,d2,d3,theta1,theta2,theta3\n"
                       "1.0,1.0,1.0,1.0,1.0,1.0\n"
                       "1.0,1.0,1.0,nan,1.0,1.0\n"
                       "1.0,1.0,1.0,1.0,inf,1.0\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["classify", "--input", str(src)]) == 1
        err = capsys.readouterr().err
        assert "line 3" in err and "non-finite" in err


class TestEstimate:
    def test_json_report(self, tmp_path):
        out = tmp_path / "report.json"
        assert run(["estimate", "--samples", "100000", "--seed", "2",
                    "--mode", "predicate", "--output", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["samples"] == 100000
        assert payload["mode"] == "predicate"
        assert payload["fraction_total"] == sum(payload["hits"].values()) / 100000

    def test_oracle_counts_sum(self, tmp_path):
        out = tmp_path / "report.json"
        run(["estimate", "--samples", "50000", "--seed", "2",
             "--mode", "oracle", "--output", str(out)])
        payload = json.loads(out.read_text())
        assert sum(payload["hits"].values()) == 50000

    def test_repeats_summary(self, tmp_path):
        out = tmp_path / "report.json"
        run(["estimate", "--samples", "20000", "--seed", "2",
             "--repeats", "3", "--output", str(out)])
        payload = json.loads(out.read_text())
        assert len(payload["runs"]) == 3
        assert "std_fraction_R_plus" in payload["across_runs"]

    def test_repeats_past_last_seed_is_usage_error(self, tmp_path, monkeypatch, capsys):
        out = tmp_path / "report.json"
        last = 2 ** 64 - 1
        assert run(["estimate", "--samples", "10", "--seed", str(last - 1),
                    "--repeats", "2", "--output", str(out)]) == 0
        assert [r["seed"] for r in json.loads(out.read_text())["runs"]] == [last - 1, last]

        def no_run(*args, **kwargs):
            raise AssertionError("estimator ran")
        monkeypatch.setattr(cli, "repeat_estimates", no_run)
        monkeypatch.setattr(measure, "estimate_knotting_probability", no_run)
        for seed, repeats in ((last, 2), (last - 2, 4)):
            with pytest.raises(SystemExit) as err:
                run(["estimate", "--samples", "10", "--seed", str(seed),
                     "--repeats", str(repeats)])
            assert err.value.code == 2
            message = capsys.readouterr().err
            assert "--seed" in message and "--repeats" in message
            assert str(last + 1) not in message

    def test_worker_invariance(self, tmp_path):
        reports = []
        for workers, name in ((1, "a"), (4, "b")):
            out = tmp_path / f"{name}.json"
            run(["estimate", "--samples", "100000", "--seed", "2",
                 "--workers", str(workers), "--output", str(out)])
            payload = json.loads(out.read_text())
            payload.pop("wall_time_seconds")
            payload.pop("workers")
            reports.append(payload)
        assert reports[0] == reports[1]


class TestVolumesAndBound:
    def test_volumes_table(self, capsys):
        assert run(["volumes", "--samples", "200000", "--seed", "5"]) == 0
        text = capsys.readouterr().out
        assert "P6" in text and "torus_acute_window" in text
        assert "largest |z|" in text

    def test_volumes_with_few_samples(self, capsys):
        # a torus window gets no hits, so its z is infinite, not an error
        assert run(["volumes", "--samples", "100", "--seed", "0"]) == 0
        text = capsys.readouterr().out
        assert "torus_acute_window" in text and "largest |z| = inf" in text

    def test_volumes_closed_form_lines(self, capsys):
        assert run(["volumes", "--samples", "1000"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[:2] == [
            "closed forms: vol_P6=4 vol_third=1.33333333333 vol_obtuse=0.76106176906 "
            "ratio_obtuse=0.570796326795",
            "torus window fractions: obtuse=0.00520833333333 acute=0.0208333333333",
        ]

    def test_bound_full_text(self, capsys):
        assert run(["bound"]) == 0
        assert capsys.readouterr().out == (
            "upper bound (14 - 3*pi)/192 = 0.023829281454\n"
            "1/42                        = 0.023809523810\n"
            "ordering: (14 - 3*pi)/192 > 1/42  (note: the bound is not below 1/42)\n"
            "expected positive-curl trefoil fraction bound: 0.011914640727"
            " = 7/192 - pi/128\n")

    def test_bound_with_well_formed_report(self, tmp_path, capsys):
        report = tmp_path / "report.json"
        report.write_text(json.dumps(REPORT))
        assert run(["bound", "--with-estimate", str(report)]) == 0
        assert "estimate < upper bound: True" in capsys.readouterr().out

    def test_bound_prints_constants(self, capsys):
        assert run(["bound"]) == 0
        text = capsys.readouterr().out
        assert "0.023829281454" in text
        assert "0.023809523810" in text or "0.023809523809" in text
        assert "(14 - 3*pi)/192 > 1/42" in text

    def test_bound_with_estimate(self, tmp_path, capsys):
        report = tmp_path / "report.json"
        run(["estimate", "--samples", "200000", "--seed", "2",
             "--output", str(report)])
        capsys.readouterr()
        assert run(["bound", "--with-estimate", str(report)]) == 0
        text = capsys.readouterr().out
        assert "estimate < upper bound: True" in text

    def test_bound_repeats_file_prints_first_run(self, tmp_path, capsys):
        # a leading byte-order mark, as some editors save one, reads the same
        single, repeats, bom = (tmp_path / f"{n}.json" for n in ("single", "repeats", "bom"))
        single.write_text(json.dumps(REPORT))
        second = {**REPORT, "fraction_total": 0.002, "ci95": [0.001, 0.003]}
        repeats.write_text(json.dumps({"runs": [REPORT, second], "across_runs": {}}))
        bom.write_text(json.dumps(REPORT), encoding="utf-8-sig")
        assert run(["bound", "--with-estimate", str(single)]) == 0
        expected = capsys.readouterr().out
        for report in (repeats, bom):
            assert run(["bound", "--with-estimate", str(report)]) == 0
            assert capsys.readouterr().out == expected

    @pytest.mark.parametrize("second, message", [
        ({**REPORT, "fraction_total": 0.1, "ci95": [0.0, 0.5]},
         "runs[1]: CI upper edge 5.000000e-01 exceeds the bound"),
        ({**REPORT, "ci95": [0.0, float("nan")]},
         "runs[1]: estimate report field 'ci95' must be two numbers"),
    ], ids=["over-bound", "ci95-nan"])
    def test_bound_checks_every_run(self, tmp_path, capsys, second, message):
        report = tmp_path / "report.json"
        report.write_text(json.dumps({"runs": [REPORT, second], "across_runs": {}}))
        assert run(["bound", "--with-estimate", str(report)]) == 1
        assert f"hexknot: error: {message}" in capsys.readouterr().err

    def test_bound_with_missing_file(self, capsys):
        assert run(["bound", "--with-estimate", "/nonexistent.json"]) == 1

    def test_bound_with_empty_path(self, capsys):
        # an unset shell variable in --with-estimate "$REPORT" gives ""
        assert run(["bound", "--with-estimate", ""]) == 1
        assert "hexknot: error: cannot read : " in capsys.readouterr().err

    @pytest.mark.parametrize("source", ["file", "stdin"])
    def test_bound_with_non_utf8_report(self, tmp_path, capsys, monkeypatch, source):
        path = _non_utf8(tmp_path, monkeypatch, source)
        assert run(["bound", "--with-estimate", path]) == 1
        assert capsys.readouterr().err == (
            f"hexknot: error: cannot read estimate report: {NOT_UTF8}\n")

    def test_bound_reads_the_report_from_stdin(self, tmp_path, capsys, monkeypatch):
        report = tmp_path / "report.json"
        report.write_text(json.dumps(REPORT))
        assert run(["bound", "--with-estimate", str(report)]) == 0
        expected = capsys.readouterr().out
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(
            io.BytesIO(json.dumps(REPORT).encode()), encoding="utf-8", newline="\n"))
        assert run(["bound", "--with-estimate", "-"]) == 0
        assert capsys.readouterr().out == expected

    @pytest.mark.parametrize("text, message", [
        ("5", "is not a JSON object"),
        ('{"runs": [], "across_runs": {}}', "has no runs"),
        ('{"runs": 5, "across_runs": {}}', "has no runs"),
        (json.dumps({**REPORT, "ci95": 5}), "field 'ci95' must be two numbers"),
        (json.dumps({**REPORT, "ci95": [0.1]}), "field 'ci95' must be two numbers"),
        (json.dumps({**REPORT, "ci95": [0, "1"]}), "field 'ci95' must be two numbers"),
        (json.dumps({**REPORT, "samples": "10"}), "field 'samples' must be an integer"),
        (json.dumps({**REPORT, "degenerate_count": 0.5}),
         "field 'degenerate_count' must be an integer"),
        (json.dumps({**REPORT, "ci95": [float("nan"), float("nan")]}),
         "field 'ci95' must be two numbers"),
        (json.dumps({**REPORT, "fraction_total": None}),
         "field 'fraction_total' must be a number"),
        (json.dumps({**REPORT, "fraction_total": float("inf")}),
         "field 'fraction_total' must be a number"),
        (json.dumps({**REPORT, "fraction_total": 10 ** 400}),
         "field 'fraction_total' must be a number"),
        (json.dumps({k: v for k, v in REPORT.items() if k != "seed"}),
         "is missing field 'seed'"),
        (json.dumps({**REPORT, "fraction_total": 0.5, "ci95": [0.4, 0.0]}),
         "needs 0 <= ci95[0] <= fraction_total <= ci95[1] <= 1, "
         "got [4.000000e-01, 0.000000e+00] and 5.000000e-01"),
        (json.dumps({**REPORT, "fraction_total": -0.5, "ci95": [-1.0, 0.0]}),
         "needs 0 <= ci95[0] <= fraction_total <= ci95[1] <= 1, "
         "got [-1.000000e+00, 0.000000e+00] and -5.000000e-01"),
        (json.dumps({**REPORT, "degenerate_count": -50}),
         "needs 0 <= degenerate_count < samples, got -50 and 1000"),
        (json.dumps({**REPORT, "degenerate_count": 1000}),
         "needs 0 <= degenerate_count < samples, got 1000 and 1000"),
    ], ids=["number", "no-runs", "runs-number", "ci95-number", "ci95-one-edge", "ci95-string-edge",
            "samples-string", "degenerate-float", "ci95-nan", "fraction-null",
            "fraction-inf", "fraction-huge-int", "missing-seed", "inverted-ci95",
            "negative-ci95", "negative-degenerate", "all-degenerate"])
    def test_bound_with_malformed_report(self, tmp_path, capsys, text, message):
        report = tmp_path / "report.json"
        report.write_text(text)
        assert run(["bound", "--with-estimate", str(report)]) == 1
        assert f"hexknot: error: estimate report {message}" in capsys.readouterr().err


class TestCheck:
    def test_witness_check(self, capsys):
        d, th = WITNESSES["trefoil_R+"]
        args = ["check"] + [f"{x:.17g}" for x in (*d, *th)]
        assert run(args) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["class"] == "trefoil_R+"
        assert set(payload["filters"]) == {"1", "-1"}
        for filters in payload["filters"].values():
            assert list(filters) == [*FILTER_CLAUSES, "passes_all"]
        assert payload["filters"]["1"]["passes_all"]
        assert not payload["filters"]["-1"]["passes_all"]

    @pytest.mark.parametrize("turn", [2 * np.pi, -2 * np.pi])
    def test_angle_outside_one_turn_is_reduced(self, capsys, turn):
        d, th = WITNESSES["trefoil_R+"]
        assert run(["check"] + [f"{x:.17g}" for x in (*d, *th)]) == 0
        witness = json.loads(capsys.readouterr().out)
        shifted = (th[0] + turn, *th[1:])
        assert run(["check", "--"] + [f"{x:.17g}" for x in (*d, *shifted)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["class"] == witness["class"] == "trefoil_R+"
        assert payload["filters"] == witness["filters"]
        assert payload["filters"]["1"]["passes_all"]
        assert 0.0 <= payload["coords"]["theta"][0] < 2 * np.pi

    def test_tiny_negative_angle_is_reduced_to_zero(self, capsys):
        assert run(["check", "1", "1", "1", "0", "1", "1"]) == 0
        zero = json.loads(capsys.readouterr().out)
        assert run(["check", "--", "1", "1", "1", "-1e-20", "1", "1"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["coords"]["theta"][0] == 0.0
        assert payload == zero

    def test_non_interior_tuple(self, capsys):
        assert run(["check", "1", "1", "2", "0", "0", "0"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["class"] == "degenerate"

    def test_non_finite_coordinate_is_usage_error(self, capsys):
        for args in (["1", "1", "1", "nan", "1", "1"],
                     ["1", "1", "1", "inf", "1", "1"],
                     ["--", "1", "1", "1", "-inf", "1", "1"]):
            with pytest.raises(SystemExit) as err:
                run(["check", *args])
            assert err.value.code == 2
            assert "non-finite" in capsys.readouterr().err

    def test_negative_curl_witness_filters(self, capsys):
        d, th = WITNESSES["trefoil_L-"]
        assert run(["check"] + [f"{x:.17g}" for x in (*d, *th)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["class"] == "trefoil_L-"
        assert all(payload["filters"]["-1"].values())
        assert not payload["filters"]["1"]["curl_window"]
        assert not payload["filters"]["1"]["passes_all"]

    def test_target_flag(self, capsys):
        d, th = WITNESSES["trefoil_L-"]
        args = ["check"] + [f"{x:.17g}" for x in (*d, *th)] + ["--target", "trefoil_L-"]
        with pytest.raises(SystemExit) as err:
            run(args)
        assert err.value.code == 2
        assert "unrecognized arguments: --target" in capsys.readouterr().err

    def test_target_before_double_dash(self, capsys):
        d, th = WITNESSES["trefoil_L-"]
        args = ["check", "--target", "trefoil_L-", "--"] + [f"{x:.17g}" for x in (*d, *th)]
        with pytest.raises(SystemExit) as err:
            run(args)
        assert err.value.code == 2
        assert "hexknot check: error" in capsys.readouterr().err
