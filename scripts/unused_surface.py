#!/usr/bin/env python3
"""Audit ``src/repro`` for definitions nothing refers to.

ROADMAP item 5 keeps asking how much unused public surface is left;
this prints the answer instead of guessing it. Every function, method
and class defined under ``src/repro`` (by AST) is looked up by name,
as a whole word, in every other place a reference could live::

    src  tests  benchmarks  examples  perfbench  scripts
    DESIGN.md  README.md

and lands in one of two lists:

* **unreferenced** — the name occurs nowhere but at its own
  definition: dead, delete it;
* **test-only** — referenced from ``tests/`` and nowhere else: a test
  oracle (``core/reference.py``), a test seam, or surface only its own
  test keeps alive — a judgement call, so it is listed, not decided.

A textual match is generous (a method called ``get`` is "referenced" by
any other ``get``), so the lists err on the side of keeping code: what
is printed really has no other mention. Dunder methods are skipped
(the interpreter calls them). A re-export is not a mention: the
``from .x import …`` statements of an ``__init__.py`` and every
``__all__`` list are left out of the package text, so a name the
package only re-exports, and only tests import, lands in test-only.

It also prints the package's total line count (``find src/repro -name
'*.py' | xargs cat | wc -l``), so every CI log carries the number
ROADMAP 7 asks each PR to report.

Usage: ``python scripts/unused_surface.py``. It exits 1 when anything
is unreferenced, so CI fails on dead code; test-only definitions only
print.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Iterable, List, NamedTuple

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"
#: Where a reference may live, besides ``src`` itself.
ELSEWHERE = ("benchmarks", "examples", "perfbench", "scripts")
DOCS = ("DESIGN.md", "README.md")


class Definition(NamedTuple):
    name: str
    qualname: str
    path: Path
    line: int
    lines: int


def definitions() -> List[Definition]:
    """Every def / class under the package, nested ones included."""
    found: List[Definition] = []

    def visit(node: ast.AST, path: Path, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                qualname = f"{prefix}{child.name}"
                found.append(Definition(
                    child.name, qualname, path, child.lineno,
                    child.end_lineno - child.lineno + 1))
                visit(child, path, f"{qualname}.")
            else:
                visit(child, path, prefix)

    for path in sorted(PACKAGE.rglob("*.py")):
        visit(ast.parse(path.read_text("utf-8")), path, "")
    return found


def _text(paths: Iterable[Path]) -> str:
    return "\n".join(path.read_text("utf-8") for path in sorted(paths))


def _without_reexports(path: Path) -> str:
    """``path``'s text less its re-exports: an ``__init__.py``'s
    relative imports and any module-level ``__all__``."""
    text = path.read_text("utf-8")
    dropped = set()
    for node in ast.parse(text).body:
        if (path.name == "__init__.py" and isinstance(node, ast.ImportFrom)
                and node.level > 0) or (
                isinstance(node, ast.Assign) and any(
                    isinstance(target, ast.Name) and target.id == "__all__"
                    for target in node.targets)):
            dropped.update(range(node.lineno, node.end_lineno + 1))
    return "\n".join(
        line for number, line in enumerate(text.splitlines(), 1)
        if number not in dropped)


def audit():
    """``(unreferenced, test_only)`` lists of :class:`Definition`."""
    source = "\n".join(
        _without_reexports(path) for path in sorted(PACKAGE.rglob("*.py")))
    tests = _text((ROOT / "tests").rglob("*.py"))
    other = _text(
        [path for folder in ELSEWHERE
         for path in (ROOT / folder).rglob("*.py")]
        + [ROOT / doc for doc in DOCS if (ROOT / doc).exists()])
    unreferenced, test_only = [], []
    for definition in definitions():
        name = definition.name
        if name.startswith("__") and name.endswith("__"):
            continue  # the interpreter calls these
        word = re.compile(rf"\b{re.escape(name)}\b")
        # The definition line itself is the one mention that is free.
        if len(word.findall(source)) > 1 or word.search(other):
            continue
        (test_only if word.search(tests) else unreferenced).append(definition)
    return unreferenced, test_only


def main() -> int:
    # The `wc -l` figure ROADMAP 7's rule reports next to every result.
    total = sum(
        path.read_text("utf-8").count("\n")
        for path in PACKAGE.rglob("*.py"))
    print(f"src/repro: {total} lines")
    unreferenced, test_only = audit()
    for title, found in (("unreferenced", unreferenced),
                         ("test-only", test_only)):
        print(f"{title}: {len(found)} definitions, "
              f"{sum(d.lines for d in found)} lines")
        for d in found:
            where = f"{d.path.relative_to(ROOT)}:{d.line}"
            print(f"  {where:<48} {d.qualname} ({d.lines})")
    return 1 if unreferenced else 0


if __name__ == "__main__":
    raise SystemExit(main())
