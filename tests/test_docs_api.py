"""``docs/api.md`` names only symbols and options that exist.

Every ``import``/``from … import`` statement in the API reference's
python fences is run, so deleting a module or symbol without updating the
reference fails here instead of misleading a reader.  Every documented
call — in a fence or in an inline code span — whose callee resolves
through those imports has each of its keywords checked against the
callee's signature, so a deleted option fails here too.
"""

from __future__ import annotations

import ast
import inspect
import re
from pathlib import Path

import pytest

API_MD = Path(__file__).resolve().parents[1] / "docs" / "api.md"
FENCE = re.compile(r"^```python\n(.*?)^```", re.M | re.S)
INLINE = re.compile(r"(?<!`)`([^`]+)`(?!`)")


def _import_statements() -> list[str]:
    statements = []
    for fence in FENCE.findall(API_MD.read_text()):
        for node in ast.parse(fence).body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                statements.append(ast.unparse(node))
    return statements


STATEMENTS = _import_statements()


def test_reference_has_import_statements():
    assert len(STATEMENTS) >= 30


@pytest.mark.parametrize("statement", STATEMENTS)
def test_import_statement_resolves(statement):
    exec(compile(statement, str(API_MD), "exec"), {})


def _documented_code() -> list[ast.AST]:
    """The fences, then every inline code span that parses as Python."""
    text = API_MD.read_text()
    trees = [ast.parse(fence) for fence in FENCE.findall(text)]
    for span in INLINE.findall(FENCE.sub("", text)):
        try:
            trees.append(ast.parse(" ".join(span.split()), mode="eval"))
        except SyntaxError:
            continue  # prose in backticks, a signature with ``*``, ...
    return trees


def _resolve(node: ast.expr, names: dict[str, object]) -> object | None:
    """The object a ``Name`` or ``Name.attr...`` callee names, if any."""
    if isinstance(node, ast.Name):
        return names.get(node.id)
    if isinstance(node, ast.Attribute):
        owner = _resolve(node.value, names)
        return getattr(owner, node.attr, None) if owner is not None else None
    return None


def _documented_keywords() -> list[tuple[str, str, object]]:
    names: dict[str, object] = {}
    for statement in STATEMENTS:
        try:
            exec(compile(statement, str(API_MD), "exec"), names)
        except ImportError:
            continue  # test_import_statement_resolves reports it
    found = {}
    for tree in _documented_code():
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            callee = _resolve(node.func, names)
            if not callable(callee):
                continue
            for keyword in node.keywords:
                if keyword.arg is not None:
                    label = f"{ast.unparse(node.func)}({keyword.arg}=)"
                    found[label] = (ast.unparse(node.func), keyword.arg, callee)
    return [found[label] for label in sorted(found)]


KEYWORDS = _documented_keywords()


def test_reference_documents_keywords():
    assert len(KEYWORDS) >= 20


@pytest.mark.parametrize(
    "callee_name, keyword, callee",
    KEYWORDS,
    ids=[f"{name}({keyword}=)" for name, keyword, _ in KEYWORDS],
)
def test_documented_keyword_is_in_the_signature(callee_name, keyword, callee):
    params = inspect.signature(callee).parameters
    takes_any = any(p.kind is p.VAR_KEYWORD for p in params.values())
    assert takes_any or keyword in params, (
        f"docs/api.md passes {keyword}= to {callee_name}, which has no such "
        "parameter"
    )
