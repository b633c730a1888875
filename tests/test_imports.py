"""Every import in the package modules, the tests and the scripts is used,
and every public name of the package has a caller outside the tests.

The package's `__init__.py` is exempt from the import scan: its imports are
the public exports.  For the same reason they do not count as callers.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(
    [p for p in (ROOT / "src" / "spochar").glob("*.py") if p.name != "__init__.py"]
    + list((ROOT / "tests").glob("*.py"))
    + list((ROOT / "scripts").glob("*.py"))
)

SRC = ROOT / "src" / "spochar"
# Non-test code: a reference from here keeps a public name alive.
USERS = sorted(
    list(SRC.glob("*.py"))
    + list((ROOT / "scripts").glob("*.py"))
    + [p for p in (ROOT / "perfbench").glob("*.py") if not p.name.startswith("test_")]
)
# Public names that stay without a caller in non-test code, and why.
NO_CALLER_OK = {
    "heisenberg": "reference implementation of the Heisenberg action that tests "
    "compare the mode rows and kets against",
    "clear_caches": "user-facing: empties every cache so memory stays bounded",
}


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements that the module never reads."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in bound.items() if name not in used]


def test_scan_covers_package_tests_and_scripts():
    dirs = {p.parent.name for p in FILES}
    assert dirs == {"spochar", "tests", "scripts"}


def test_scan_flags_an_unused_import():
    src = "import os\nfrom a.b import c as d, e\nimport x.y\nprint(e, x)\n"
    assert unused_imports(src) == ["line 1: os", "line 2: d"]


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def public_definitions(source: str) -> list[str]:
    """Public top-level functions, classes and constants, and the public
    methods of public classes, as `name` or `Class.method`."""
    out = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.append(node.name)
        if isinstance(node, ast.ClassDef):
            out += [f"{node.name}.{m.name}" for m in node.body if isinstance(m, ast.FunctionDef)]
        elif isinstance(node, ast.Assign):
            out += [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            out.append(node.target.id)
    return [n for n in out if not any(part.startswith("_") for part in n.split("."))]


def referenced_names(source: str) -> set[str]:
    """Identifiers a module reads: loaded names and attributes, and string
    constants (for `getattr`-style access).  Imports and assignment targets
    are not references."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            out.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.add(node.value)
    return out


def uncalled(definitions: list[str], references: set[str]) -> list[str]:
    return [n for n in definitions if n.rsplit(".", 1)[-1] not in references]


def test_public_scan_flags_a_name_no_user_reads():
    defs = public_definitions(
        "A = 1\n_B = 2\ndef f(): pass\nclass C:\n    def m(self): pass\n"
        "    def _p(self): pass\nclass _D:\n    def q(self): pass\n"
    )
    assert defs == ["A", "f", "C", "C.m"]
    refs = referenced_names("from x import A, f\nA = C().m\nprint(getattr(x, 'f'))\n")
    assert uncalled(defs, refs) == ["A"]


def test_every_public_name_has_a_caller_outside_the_tests():
    references = set().union(*(referenced_names(p.read_text()) for p in USERS))
    found = {
        f"{p.stem}.{name}": name
        for p in sorted(SRC.glob("*.py"))
        for name in uncalled(public_definitions(p.read_text()), references)
    }
    assert sorted(k for k, name in found.items() if name not in NO_CALLER_OK) == []
    assert sorted(found.values()) == sorted(NO_CALLER_OK)
