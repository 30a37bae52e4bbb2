"""Every function and class in ``src/`` is named somewhere besides its own
definition.  The corpus is the package, its tests, benchmarks, examples
and docs: a name that occurs once in all of them is code that nothing
calls, subclasses, exports, tests or documents."""

from __future__ import annotations

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ("src", "tests", "bench", "benchmarks", "examples", "docs",
          "README.md", "DESIGN.md")

_WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _corpus_files(root: Path) -> list[Path]:
    files = []
    for entry in CORPUS:
        path = root / entry
        if path.is_dir():
            files += sorted(
                p for p in path.rglob("*")
                if p.suffix in (".py", ".md") and "__pycache__" not in p.parts
            )
        elif path.exists():
            files.append(path)
    return files


def unreferenced_defs(root: Path) -> list[str]:
    """``path:line name`` of each non-dunder def in ``root/src`` whose
    name occurs once in the corpus."""
    texts = {path: path.read_text() for path in _corpus_files(root)}
    words = Counter(
        word for text in texts.values() for word in _WORD.findall(text)
    )
    found = []
    for path, text in texts.items():
        if path.suffix != ".py" or not path.is_relative_to(root / "src"):
            continue
        for node in ast.walk(ast.parse(text)):
            if not isinstance(node, _DEFS):
                continue
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            if words[name] == 1:
                found.append(f"{path.relative_to(root)}:{node.lineno} {name}")
    return found


def test_every_def_is_referenced():
    assert unreferenced_defs(ROOT) == []
