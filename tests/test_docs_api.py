"""``docs/api.md`` names only symbols that exist.

Every ``import``/``from … import`` statement in the API reference's
python fences is run, so deleting a module or symbol without updating the
reference fails here instead of misleading a reader.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

API_MD = Path(__file__).resolve().parents[1] / "docs" / "api.md"
FENCE = re.compile(r"^```python\n(.*?)^```", re.M | re.S)


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
