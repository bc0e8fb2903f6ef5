import ast
import sys
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "fgkls").glob("*.py"))


def _imported_roots(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            # a relative import (level > 0) stays inside the package
            yield "fgkls" if node.level else node.module.split(".")[0]


def test_package_imports_only_stdlib_and_numpy():
    # numpy is the only declared dependency; scipy and others may be
    # installed but must not be reached for
    assert SOURCES
    allowed = set(sys.stdlib_module_names) | {"numpy", "fgkls"}
    for path in SOURCES:
        roots = set(_imported_roots(ast.parse(path.read_text(), filename=str(path))))
        assert roots <= allowed, f"{path.name} imports {sorted(roots - allowed)}"


def test_private_names_come_only_from_core():
    # `core` holds the shared coordinate helpers; every other module's
    # underscore names stay private to it
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level and node.module != "core":
                private = [alias.name for alias in node.names if alias.name.startswith("_")]
                assert not private, f"{path.name} imports {private} from .{node.module or ''}"
