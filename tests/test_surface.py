"""Every definition in the package has a caller or a reader.

Walks src/burchlab with ast and collects each top-level function and class
and each non-dunder method of a top-level class.  A name counts as used if
it occurs as a whole word (an identifier token, so docstrings and comments
count too) anywhere in src/, tests/, scripts/ or perfbench/ outside the
lines of its own definition.  A re-export in burchlab/__init__.py counts as
a use.  The scan reads each file once and runs well under a second.
"""

from __future__ import annotations

import ast
import re
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "burchlab"
SEARCHED = ("src", "tests", "scripts", "perfbench")
WORD = re.compile(r"\w+")


def _occurrences() -> dict:
    """name -> list of (path, line) of every identifier-shaped word."""
    seen = defaultdict(list)
    for top in SEARCHED:
        for path in sorted((ROOT / top).rglob("*.py")):
            for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
                for m in WORD.finditer(line):
                    seen[m.group()].append((path, lineno))
    return seen


def _span(node) -> tuple:
    first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
    return first, node.end_lineno


def _definitions():
    """(qualified name, bare name, path, (first line, last line)) per definition."""
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield node.name, node.name, path, _span(node)
            if not isinstance(node, ast.ClassDef):
                continue
            for item in node.body:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not (item.name.startswith("__") and item.name.endswith("__"))):
                    yield f"{node.name}.{item.name}", item.name, path, _span(item)


def test_every_definition_is_referenced_outside_itself():
    seen = _occurrences()
    unused = []
    for qualified, name, path, (first, last) in _definitions():
        if not any(p != path or not first <= line <= last for p, line in seen[name]):
            unused.append(f"{path.name}: {qualified}")
    assert not unused, "defined but never referenced:\n" + "\n".join(unused)
