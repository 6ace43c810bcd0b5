"""Every public name of the package is used outside the tests, every
private name is read by a package module, and every module-level import
of a package module is read by that module.

A module-level name without a leading underscore that only its own
tests read is dead weight: delete it, or make it private. A name counts
as used when code in src/, demos/ or benchmarks/ loads it, imports it
or spells it as a string, or when README.md or pyproject.toml mention
it. Its own definition does not count. A module-level name with one
leading underscore is used only when code in src/ reads it. __init__.py
imports to re-export, so the import check skips it, and it skips
__future__.

A re-export is read by its callers, so __init__.py's own import of a
name does not count for it: every name __init__.py imports must be read
by code in demos/ or benchmarks/, or named in README.md or
pyproject.toml.

An exception class is there to be told apart from its base class, so
every exception class defined in src/ must be named outside its own
module: by code in tests/, demos/, benchmarks/ or another src/ module,
or in README.md or pyproject.toml. __init__.py's re-export does not
count.

No package module reads the process environment: every default is a
constant, so a run is fixed by its arguments alone.

No package module but cli calls print or names sys.stdout: stdout
carries a command's output, and cli.main alone checks that it is open,
so library progress and diagnostics go to stderr.
"""

import ast
import importlib
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "hexknot").glob("*.py"))
CALLERS = sorted((ROOT / "demos").glob("*.py")) + sorted((ROOT / "benchmarks").glob("*.py"))
CODE = MODULES + CALLERS
TESTS = sorted((ROOT / "tests").glob("*.py"))
TEXTS = [ROOT / "README.md", ROOT / "pyproject.toml"]


def definitions(path):
    """Module-level function, class and variable names of a module."""
    names = set()
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def references(path):
    """Names a Python file loads, imports or spells as a string."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.add(node.value)
    return found


def unused(names, code):
    """Names no file of code references and README.md and pyproject.toml do not mention."""
    used = set().union(*map(references, code))
    text = "\n".join(path.read_text(encoding="utf-8") for path in TEXTS)
    return [name for name in sorted(names)
            if name not in used and not re.search(rf"\b{name}\b", text)]


def test_every_public_name_is_used_outside_tests():
    dead = [f"{path.stem}.{name}" for path in MODULES
            for name in unused({n for n in definitions(path) if not n.startswith("_")}, CODE)]
    assert dead == []


def test_every_re_export_is_read_outside_src():
    tree = ast.parse((ROOT / "src" / "hexknot" / "__init__.py").read_text(encoding="utf-8"))
    exported = {alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert unused(exported, CALLERS) == []


def test_every_private_name_is_read_in_src():
    read = set().union(*map(references, MODULES))
    unread = [f"{path.stem}.{name}" for path in MODULES
              for name in sorted(definitions(path))
              if name.startswith("_") and not name.startswith("__") and name not in read]
    assert unread == []


def test_every_exception_class_is_named_outside_its_module():
    sources = [path for path in MODULES if path.name != "__init__.py"]
    dead = []
    for path in sources:
        module = importlib.import_module(f"hexknot.{path.stem}")
        errors = {name for name in definitions(path)
                  if isinstance(obj := getattr(module, name), type)
                  and issubclass(obj, BaseException)}
        outside = [other for other in sources if other != path] + CALLERS + TESTS
        dead += [f"{path.stem}.{name}" for name in unused(errors, outside)]
    assert dead == []


def stale_imports(path):
    """Names a module imports at module level but never loads."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {(alias.asname or alias.name).split(".")[0]
                for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__"
                for alias in node.names}
    loaded = {node.id for node in ast.walk(tree)
              if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(imported - loaded)


def test_no_module_imports_a_name_it_never_reads():
    stale = [f"{path.stem}.{name}" for path in MODULES if path.name != "__init__.py"
             for name in stale_imports(path)]
    assert stale == []


ENVIRONMENT_READERS = {"environ", "environb", "getenv", "getenvb"}


def test_no_module_reads_the_process_environment():
    readers = [f"{path.stem}.{name}" for path in MODULES
               for name in sorted(references(path) & ENVIRONMENT_READERS)]
    assert readers == []


STDOUT_WRITERS = {"print", "stdout", "__stdout__"}


def test_only_the_cli_writes_stdout():
    writers = [f"{path.stem}.{name}" for path in MODULES if path.name != "cli.py"
               for name in sorted(references(path) & STDOUT_WRITERS)]
    assert writers == []
