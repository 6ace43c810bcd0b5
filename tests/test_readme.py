"""README's library text matches the package.

The quickstart block runs as written, and every kernel the README names
as public imports from hexknot.
"""

import contextlib
import io
import re
from pathlib import Path

import hexknot

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
