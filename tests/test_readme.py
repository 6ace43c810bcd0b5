"""README's library text matches the package.

The quickstart block runs as written, every kernel the README names as
public imports from hexknot, every command-line example parses, and the
estimator modes listed are the keys of measure.MODES.
"""

import contextlib
import io
import re
import shlex
from pathlib import Path

import hexknot
from hexknot import cli, measure

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def test_quickstart_runs():
    block = re.search(r"## Library quickstart\s+```python\n(.*?)```", README, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, "README quickstart", "exec"), {})
    assert out.getvalue().splitlines()[0] == "trefoil_R+"


def test_public_kernels_import():
    sentence = re.search(r"The public kernels are batch\s+kernels:(.*?)\.\s", README,
                         re.S).group(1)
    names = re.findall(r"`(\w+)`", sentence)
    assert "disk_counts" in names and "classify_batch" in names
    assert [n for n in names if not hasattr(hexknot, n)] == []


def test_command_line_examples_parse():
    block = re.search(r"## Command line\s+```bash\n(.*?)```", README, re.S).group(1)
    lines = [line for line in block.splitlines() if line.startswith("hexknot ")]
    assert len(lines) >= 6
    parser = cli.build_parser()
    for line in lines:
        args = parser.parse_args(shlex.split(line, comments=True)[1:])
        assert args.command == line.split()[1]


def test_estimator_modes_are_the_table():
    section = re.search(r"### Estimator modes\n(.*?)\n## ", README, re.S).group(1)
    assert re.findall(r"^\* `(\w+)`", section, re.M) == list(measure.MODES)
