"""No test-only API: every public name in src/racekit has a caller outside
the tests.

The package is walked with `ast`. Every public top-level function and
class, and every public method, must be referenced somewhere other than
inside its own definition: in src/racekit or in racebench/, test files
aside. A reference is a `Name`, an `Attribute` or an import alias. The
check is by name on purpose: a name shared with another attribute (say
`step`) counts as used, so the guard errs toward keeping code, never
toward deleting it.
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "racekit"
CALLERS = (PACKAGE, ROOT / "racebench")

# Public names kept although no package code calls them, each with its
# reason. Empty: the tests call the kernels themselves.
ALLOWED: dict[str, str] = {}


def _references(node: ast.AST) -> Counter:
    refs: Counter = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            refs[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            refs[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            refs[sub.name.rsplit(".", 1)[-1]] += 1
    return refs


def _public_definitions():
    """(qualified name, bare name, definition node) of every public
    top-level function and class and every public method."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for path in sorted(PACKAGE.glob("*.py")):
        module = path.stem
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, defs) or node.name.startswith("_"):
                continue
            yield f"{module}.{node.name}", node.name, node
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    if isinstance(member, defs) and not member.name.startswith("_"):
                        yield f"{module}.{node.name}.{member.name}", member.name, member


def _all_references() -> Counter:
    refs: Counter = Counter()
    for base in CALLERS:
        for path in base.rglob("*.py"):
            if not path.name.startswith("test_"):
                refs += _references(ast.parse(path.read_text()))
    return refs


def test_every_public_name_has_a_caller():
    refs = _all_references()
    unused = [qual for qual, name, node in _public_definitions()
              if refs[name] - _references(node)[name] <= 0 and qual not in ALLOWED]
    assert not unused, f"public names only tests (or nothing) call: {unused}"


def test_allowlist_is_current():
    """Every allowlisted name still exists and is still flagged; a name
    that gained a caller leaves the list."""
    refs = _all_references()
    flagged = {qual for qual, name, node in _public_definitions()
               if refs[name] - _references(node)[name] <= 0}
    assert set(ALLOWED) <= flagged, sorted(set(ALLOWED) - flagged)
