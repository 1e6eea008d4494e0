#!/usr/bin/env python3
"""Audit ``src/repro`` for definitions nothing refers to.

ROADMAP item 9 keeps asking how much unused public surface is left;
this prints the answer instead of guessing it. Every function, method
and class defined under ``src/repro`` (by AST) is looked up by name
among the *references* of the code that runs, and lands in one of two
lists when none is found:

* **unreferenced** — no live code and no test names it: dead, delete
  it;
* **test-only** — only ``tests/`` names it: a test oracle
  (``core/reference.py``), a test seam, or surface only its own test
  keeps alive. Each one kept is in :data:`KEPT_FOR_TESTS` with the
  reason it stays; any other is surface to delete (its test then
  asserts through a public path).

A reference is a name in code, read from the AST: a ``Name``, the
attribute of an ``Attribute``, an imported name, or a string constant
shaped like an identifier (``getattr`` and perfbench's ``patch_attr``
name attributes as strings). Docstrings, comments and the prose in
DESIGN.md / README.md do not refer to anything. A re-export is not a
reference either: the ``from .x import …`` statements of an
``__init__.py`` and every ``__all__`` list are skipped.

Liveness follows references from the code that runs without a test:
the module level of every ``src/repro`` module, and everything under
``benchmarks/``, ``examples/``, ``perfbench/`` and ``scripts/``. A
definition those name is live, and so is what a live definition's own
body names, transitively — so a function only a test calls does not
keep alive the classes it names. Matching is by bare name, so it errs
on the side of keeping code (a method called ``get`` is live once any
live code reads a ``get``). Dunder methods are skipped (the
interpreter calls them), and so are the methods of a class with a base
from outside the package: they override what their library calls
(``pickle.Pickler.reducer_override``, ``Future.cancel``). Both still
count as live code while their class is.

It also prints the package's total line count (``find src/repro -name
'*.py' | xargs cat | wc -l``), so every CI log carries the number
the ROADMAP's Order rule on net lines asks each PR to report.

Usage: ``python scripts/unused_surface.py``. It exits 1 when anything
is unreferenced, when a test-only definition is not in
:data:`KEPT_FOR_TESTS`, or when an entry there is no longer test-only
(live code reaches it, or it is gone: drop the entry), so CI fails on
dead code and on surface only the tests reach.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Dict, Iterable, List, NamedTuple, Set

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"
#: Code that runs without a test, besides ``src`` itself.
ELSEWHERE = ("benchmarks", "examples", "perfbench", "scripts")

#: Test-only definitions that stay, by qualified name, each with why.
KEPT_FOR_TESTS: Dict[str, str] = {
    "expected_confidence_bruteforce":
        "the brute-force Equation 6 the closed form is checked against",
    "ConfidenceState.remove_many":
        "the checked batch removal (duplicates refused) the property "
        "tests drive; the cleaner calls the unchecked _remove_rows",
    "GaussianMixture.pdf":
        "the mixture density the tests integrate to one",
    "MDNHead.nll":
        "the head's loss alone, for the finite-difference gradient check",
    "MDNHead.loss_and_backward":
        "one head's grid_loss_and_backward: the per-head reference the "
        "joint head is checked against",
    "ProxyScorer.prepare_inputs":
        "featurize and scale in one call: pins the conv proxy's channel "
        "axis",
    "Query.with_config":
        "a public builder clause: one query's config override "
        "(DESIGN.md §4)",
    "GatewayServer.address":
        "a public accessor: the base URL an HTTP client dials once the "
        "server picked its port",
    "ScoringFunction.integer_valued":
        "the UDF property the oracle tests pin (counts are integers)",
}

_IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


class Definition(NamedTuple):
    name: str
    qualname: str
    path: Path
    line: int
    lines: int
    #: The interpreter or a library calls it: never listed.
    skipped: bool
    #: Names its own body refers to (nested definitions excluded).
    refs: frozenset


def _is_reexport(node: ast.AST, path: Path) -> bool:
    """An ``__init__.py``'s relative import, or an ``__all__`` list."""
    if isinstance(node, ast.ImportFrom):
        return path.name == "__init__.py" and node.level > 0
    return isinstance(node, ast.Assign) and any(
        isinstance(target, ast.Name) and target.id == "__all__"
        for target in node.targets)


def _header(node: ast.AST) -> List[ast.AST]:
    """The parts of a def / class its *enclosing* scope evaluates."""
    parts = list(node.decorator_list)
    if isinstance(node, ast.ClassDef):
        return parts + node.bases + node.keywords
    return parts + node.args.defaults + [
        default for default in node.args.kw_defaults if default is not None]


def _refs(nodes: Iterable[ast.AST], refs: Set[str], path: Path) -> None:
    """Add the names ``nodes`` refer to, not descending into nested
    definitions (only into their headers) or documentation strings."""
    for node in nodes:
        if isinstance(node, _DEFS):
            _refs(_header(node), refs, path)
            continue
        if _is_reexport(node, path):
            continue
        if isinstance(node, ast.Expr) and isinstance(
                node.value, ast.Constant) and isinstance(node.value.value, str):
            continue  # a docstring, or a bare string documenting a field
        if isinstance(node, ast.Name):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.alias):
            refs.update(node.name.split("."))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and _IDENTIFIER.fullmatch(node.value):
            refs.add(node.value)
        _refs(ast.iter_child_nodes(node), refs, path)


def _own_refs(node: ast.AST, path: Path) -> frozenset:
    """What a def / class refers to itself: a function's signature and
    body, a class's body statements."""
    refs: Set[str] = set()
    if isinstance(node, ast.ClassDef):
        _refs(node.body, refs, path)
    else:
        _refs([node.args, *node.body], refs, path)
        if node.returns is not None:
            _refs([node.returns], refs, path)
    return frozenset(refs)


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text("utf-8"))


def definitions(package_classes: Set[str]) -> List[Definition]:
    """Every def / class under the package, nested ones included."""
    found: List[Definition] = []

    def visit(node: ast.AST, path: Path, prefix: str,
              overrides: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if not isinstance(child, _DEFS):
                visit(child, path, prefix, overrides)
                continue
            name = child.name
            dunder = name.startswith("__") and name.endswith("__")
            qualname = f"{prefix}{name}"
            found.append(Definition(
                name, qualname, path, child.lineno,
                child.end_lineno - child.lineno + 1,
                dunder or (overrides and not isinstance(child, ast.ClassDef)),
                _own_refs(child, path)))
            external = isinstance(child, ast.ClassDef) and any(
                _base_name(base) not in package_classes | {"object"}
                for base in child.bases)
            visit(child, path, f"{qualname}.", external)

    for path in sorted(PACKAGE.rglob("*.py")):
        visit(_parse(path), path, "", False)
    return found


def _base_name(base: ast.AST) -> str:
    while isinstance(base, ast.Subscript):
        base = base.value
    if isinstance(base, ast.Attribute):
        return base.attr
    return base.id if isinstance(base, ast.Name) else ""


def _module_refs(paths: Iterable[Path], *, top_level: bool) -> Set[str]:
    """Names ``paths`` refer to: at module level only, or anywhere."""
    refs: Set[str] = set()
    for path in paths:
        tree = _parse(path)
        if top_level:
            _refs(tree.body, refs, path)
        else:
            _refs([tree], refs, path)
            for node in ast.walk(tree):
                if isinstance(node, _DEFS):
                    refs.update(_own_refs(node, path))
    return refs


def audit():
    """``(unreferenced, test_only)`` lists of :class:`Definition`."""
    package_files = sorted(PACKAGE.rglob("*.py"))
    package_classes = {
        node.name for path in package_files
        for node in ast.walk(_parse(path)) if isinstance(node, ast.ClassDef)}
    found = definitions(package_classes)
    by_name: Dict[str, List[Definition]] = {}
    for definition in found:
        by_name.setdefault(definition.name, []).append(definition)

    # This script's own table names definitions without using them.
    live_names = _module_refs(package_files, top_level=True) | _module_refs(
        [path for folder in ELSEWHERE for path in (ROOT / folder).rglob("*.py")
         if path != Path(__file__).resolve()],
        top_level=False)
    # Dunders and overrides run whenever their class does: their
    # bodies are live code once the class is (a module's own dunders,
    # once it is imported).
    owned: Dict[tuple, List[Definition]] = {}
    pending: List[Definition] = []
    for definition in found:
        owner = definition.qualname.rpartition(".")[0]
        if definition.skipped and owner:
            owned.setdefault((definition.path, owner), []).append(definition)
        elif definition.skipped or definition.name in live_names:
            pending.append(definition)
    live: Set[tuple] = set()
    while pending:
        definition = pending.pop()
        key = (definition.path, definition.qualname)
        if key in live:
            continue
        live.add(key)
        pending.extend(owned.get(key, []))
        for name in definition.refs - live_names:
            live_names.add(name)
            pending.extend(
                d for d in by_name.get(name, []) if not d.skipped)

    tests = _module_refs((ROOT / "tests").rglob("*.py"), top_level=False)
    unreferenced, test_only = [], []
    for definition in found:
        if definition.skipped or definition.name in live_names:
            continue
        (test_only if definition.name in tests
         else unreferenced).append(definition)
    return unreferenced, test_only


def main() -> int:
    # The `wc -l` figure the ROADMAP's Order rule on net lines reports
    # next to every result.
    total = sum(
        path.read_text("utf-8").count("\n")
        for path in PACKAGE.rglob("*.py"))
    print(f"src/repro: {total} lines")
    unreferenced, test_only = audit()
    kept = [d for d in test_only if d.qualname in KEPT_FOR_TESTS]
    unlisted = [d for d in test_only if d.qualname not in KEPT_FOR_TESTS]
    stale = sorted(set(KEPT_FOR_TESTS) - {d.qualname for d in test_only})
    for title, found in (("unreferenced", unreferenced),
                         ("test-only, not kept", unlisted),
                         ("test-only, kept", kept)):
        print(f"{title}: {len(found)} definitions, "
              f"{sum(d.lines for d in found)} lines")
        for d in found:
            where = f"{d.path.relative_to(ROOT)}:{d.line}"
            reason = KEPT_FOR_TESTS.get(d.qualname)
            print(f"  {where:<48} {d.qualname} ({d.lines})"
                  + (f": {reason}" if reason else ""))
    for qualname in stale:
        print(f"kept for tests, but not test-only: {qualname}")
    return 1 if unreferenced or unlisted or stale else 0


if __name__ == "__main__":
    raise SystemExit(main())
