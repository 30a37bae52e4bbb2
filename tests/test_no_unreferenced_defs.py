"""Every function, method, property and class in ``src/`` is reached by
code outside the tests.

A definition is referenced when its name occurs, outside the definition
itself, as an AST name, an attribute or a string constant (so
``getattr(obj, "name")`` counts) in ``src/``, ``bench/``, ``benchmarks/``
or ``examples/``.  A method or property is reached only through an
attribute or a string, so a local variable that shares its name does not
count for it.  An ``__all__`` entry or an ``import`` re-export alone is
not a reference, and neither is a test or a doc: code that only a test
calls is an API grown around its test.  The few definitions that stay
without such a caller are listed in ``KEPT`` with the reason each stays;
an entry that gains a caller, loses its definition or is not used by any
test is stale and fails too.
"""

from __future__ import annotations

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CALLERS = ("src", "bench", "benchmarks", "examples")

KEPT = {
    "fixed_arrivals": "documented arrival process next to "
                      "poisson_arrivals; ROADMAP item 6 deletes it unless "
                      "item 5's metamorphic stream tests use it",
    "bursty_arrivals": "as fixed_arrivals (ROADMAP items 5 and 6)",
    "check_suite": "repro.validate's entry; ROADMAP item 18 folds it into "
                   "the claims table",
    "regions_to_page_values": "the reference that tests/test_regions.py "
                              "checks page_values_to_regions against",
    "spans_from_jsonl": "the reference that tests/test_obs_exporters.py "
                        "checks spans_to_jsonl against",
    "merge_into": "PhaseProfiler's; obs/profile.py goes whole with the "
                  "in-process harness (ROADMAP item 1)",
    "stats": "PhaseProfiler's, as merge_into",
}

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
_DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")


def _is_all(node: ast.AST) -> bool:
    target = (node.targets[0] if isinstance(node, ast.Assign)
              else getattr(node, "target", None))
    return isinstance(target, ast.Name) and target.id == "__all__"


def _names(tree: ast.AST) -> tuple[Counter, Counter]:
    """``(bare names, attributes)`` that ``tree`` uses.  The parts of a
    dotted-identifier string constant count as attributes; ``__all__``
    lists are skipped."""
    bare: Counter = Counter()
    attrs: Counter = Counter()
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)) \
                and _is_all(node):
            continue
        if isinstance(node, ast.Name):
            bare[node.id] += 1
        elif isinstance(node, ast.Attribute):
            attrs[node.attr] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and _DOTTED.fullmatch(node.value):
            attrs.update(node.value.split("."))
        stack.extend(ast.iter_child_nodes(node))
    return bare, attrs


def _python_files(root: Path, dirs) -> list[Path]:
    return sorted(
        p for d in dirs if (root / d).is_dir()
        for p in (root / d).rglob("*.py") if "__pycache__" not in p.parts
    )


def _defs(tree: ast.AST):
    """``(node, is_member)`` per def; a member is a function defined
    directly in a class body."""
    members = {
        id(child)
        for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
        for child in node.body if not isinstance(child, ast.ClassDef)
    }
    for node in ast.walk(tree):
        if isinstance(node, _DEFS):
            yield node, id(node) in members


def unreferenced_defs(root: Path, kept: dict[str, str] = KEPT) -> list[str]:
    """``path:line name`` of each non-dunder def in ``root/src`` that no
    code in ``CALLERS`` references and ``kept`` does not list, then one
    ``stale KEPT entry`` line per entry of ``kept`` that has such a
    caller, has no definition, or that no test under ``root/tests``
    uses."""
    trees = {p: ast.parse(p.read_text()) for p in
             _python_files(root, CALLERS)}
    bare: Counter = Counter()
    attrs: Counter = Counter()
    for tree in trees.values():
        tree_bare, tree_attrs = _names(tree)
        bare.update(tree_bare)
        attrs.update(tree_attrs)
    found, defined, called = [], set(), set()
    for path, tree in trees.items():
        if not path.is_relative_to(root / "src"):
            continue
        for node, is_member in _defs(tree):
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            defined.add(name)
            own_bare, own_attrs = _names(node)
            uses = attrs[name] - own_attrs[name]
            if not is_member:
                uses += bare[name] - own_bare[name]
            if uses > 0:
                called.add(name)
            elif name not in kept:
                found.append(f"{path.relative_to(root)}:{node.lineno} {name}")
    tested: Counter = Counter()
    for path in _python_files(root, ("tests",)):
        for names in _names(ast.parse(path.read_text())):
            tested.update(names)
    for name in sorted(kept):
        if name not in defined or name in called or not tested[name]:
            found.append(f"stale KEPT entry {name}")
    return found


def test_every_def_is_referenced():
    assert unreferenced_defs(ROOT) == []


def _package(root: Path, files: dict[str, str]) -> Path:
    for rel, text in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return root


class TestDetector:
    def test_a_def_only_tests_call_is_reported(self, tmp_path):
        root = _package(tmp_path, {
            "src/pkg/mod.py": "def used():\n    pass\n\n\n"
                              "def only_tested():\n    pass\n",
            "examples/run.py": "from pkg.mod import used\n\nused()\n",
            "tests/test_mod.py": "from pkg.mod import only_tested\n\n"
                                 "only_tested()\n",
        })
        assert unreferenced_defs(root, kept={}) == [
            "src/pkg/mod.py:5 only_tested"
        ]

    def test_a_getattr_string_reaches_a_method_and_a_local_does_not(
        self, tmp_path
    ):
        root = _package(tmp_path, {
            "src/pkg/mod.py": "class Spec:\n"
                              "    def multiplier(self):\n"
                              "        return 2.0\n\n"
                              "    def ratio(self):\n"
                              "        return 3.0\n\n\n"
                              "def read(spec):\n"
                              "    ratio = 1.0\n"
                              "    return getattr(spec, 'multiplier')() * ratio\n",
            "examples/run.py": "from pkg.mod import Spec, read\n\n"
                               "read(Spec())\n",
        })
        assert unreferenced_defs(root, kept={}) == ["src/pkg/mod.py:5 ratio"]

    def test_an_all_entry_or_reexport_alone_is_no_reference(self, tmp_path):
        root = _package(tmp_path, {
            "src/pkg/__init__.py": "from .mod import exported\n\n"
                                   "__all__ = ['exported']\n",
            "src/pkg/mod.py": "def exported():\n    pass\n",
            "examples/run.py": "import pkg\n",
        })
        assert unreferenced_defs(root, kept={}) == ["src/pkg/mod.py:1 exported"]

    def test_a_stale_kept_entry_fails(self, tmp_path):
        root = _package(tmp_path, {
            "src/pkg/mod.py": "def used():\n    pass\n\n\n"
                              "def oracle():\n    pass\n\n\n"
                              "def untested():\n    pass\n",
            "examples/run.py": "from pkg.mod import used\n\nused()\n",
            "tests/test_mod.py": "from pkg.mod import oracle, used\n\n"
                                 "oracle()\nused()\n",
        })
        assert unreferenced_defs(root, kept={"oracle": "reference"}) == [
            "src/pkg/mod.py:9 untested"
        ]
        kept = {"oracle": "reference", "used": "has a caller",
                "gone": "no definition", "untested": "no test uses it"}
        assert unreferenced_defs(root, kept=kept) == [
            "stale KEPT entry gone",
            "stale KEPT entry untested",
            "stale KEPT entry used",
        ]
