"""Every module-level import in ``src/uidforge`` is used by its module,
and importing the CLI loads no module beyond an allow-list.

Names are collected with the standard library's ``ast``: an import is
used when its bound name appears anywhere in the module's code (quoted
annotations are not parsed). ``__init__.py`` re-exports by design and
is skipped, as are ``from __future__`` imports and lines marked
``# noqa: F401``.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "uidforge"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _imported(tree: ast.Module, lines: list) -> dict:
    """Bound name -> line number of each module-level import."""
    out = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if "# noqa: F401" in lines[node.lineno - 1]:
            continue
        for alias in node.names:
            out[alias.asname or alias.name.split(".")[0]] = node.lineno
    return out


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_module_level_import(path):
    source = path.read_text()
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = {
        name: line
        for name, line in _imported(tree, source.splitlines()).items()
        if name not in used
    }
    assert unused == {}, f"{path.name}: unused imports (name: line) {unused}"


#: Modules that ``import uidforge.cli`` may load beyond those of ``import
#: numpy``, as measured on Python 3.11.7. Each command pays for every
#: module loaded at import, so a new one must be added here on purpose.
CLI_IMPORTS = {"__future__", "_csv", "argparse", "copy", "csv", "dataclasses", "gettext"}

_PROBE = """
import sys, numpy
before = set(sys.modules)
import uidforge.cli
print(*sorted(set(sys.modules) - before), sep="\\n")
"""


def test_cli_import_leaves_multiprocessing_unloaded():
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    done = subprocess.run(
        [sys.executable, "-c", _PROBE], env=env, capture_output=True, text=True, check=True
    )
    loaded = {name for name in done.stdout.split() if name.split(".")[0] != "uidforge"}
    # the writer imports multiprocessing only when it forks workers;
    # loaded by every command, it would cost each about 13 ms
    assert "multiprocessing" not in loaded
    assert loaded <= CLI_IMPORTS, f"new modules at CLI import: {sorted(loaded - CLI_IMPORTS)}"
