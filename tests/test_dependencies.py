"""The package runs on numpy and the standard library alone, as
pyproject.toml declares: an import of anything else fails here even where
that module happens to be installed."""

import ast
import sys
from pathlib import Path

import nrpa

ALLOWED = {"numpy", "nrpa"}


def test_package_imports_only_numpy_and_the_standard_library():
    outside = []
    for path in sorted(Path(nrpa.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [f"{path.name}:{node.lineno}: {name}" for name in names
                        if name.partition(".")[0] not in
                        ALLOWED | sys.stdlib_module_names]
    assert outside == []
