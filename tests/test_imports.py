"""No unused imports in src/racekit or tests/.

Every module is walked with `ast`. A name bound by an import statement
must be read somewhere in the same module: as a `Name`, as the root of an
attribute chain (`np.zeros` reads `np`) or inside a string annotation.
`from __future__` imports and a package's `__init__.py` re-exports are
exempt.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCANNED = (ROOT / "src" / "racekit", ROOT / "tests")


def _imported(tree: ast.Module) -> dict[str, int]:
    """Name bound -> line of every import in the module."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    return bound


def _read(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        annotation = getattr(node, "annotation", None) or getattr(node, "returns", None)
        for sub in ast.walk(annotation) if annotation is not None else ():
            if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                # a string annotation such as "TrainState"
                names |= {n.id for n in ast.walk(ast.parse(sub.value, mode="eval"))
                          if isinstance(n, ast.Name)}
    return names


def unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text())
    read = _read(tree)
    return [f"{path.relative_to(ROOT)}:{line}: {name}"
            for name, line in sorted(_imported(tree).items(), key=lambda kv: kv[1])
            if name not in read]


def test_no_unused_imports():
    unused = [entry for base in SCANNED for path in sorted(base.glob("*.py"))
              if path.name != "__init__.py" for entry in unused_imports(path)]
    assert not unused, "unused imports:\n" + "\n".join(unused)
