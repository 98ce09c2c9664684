"""Guard: address and block sets never go through numpy's hash unique.

On numpy >= 2.3 a plain ``np.unique(x)`` on integers (and
``np.union1d``, which calls it) builds a hash table, ~100x slower than
sort plus a neighbour diff on ``uint32`` sets.  Library code uses
:func:`repro.ipspace.addr.unique_sorted` instead.  ``np.unique`` calls
that ask for ``return_index``/``return_inverse``/``return_counts`` or
``axis=`` take numpy's sort path and are fine.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "repro"

#: Sort-path keywords: with any of these ``np.unique`` never hashes.
SORT_PATH_KEYWORDS = {"return_index", "return_inverse", "return_counts", "axis"}

#: Reference oracles kept in their original numpy formulation on purpose:
#: they exist to pin the fast kernels to the textbook computation.
ALLOWED = {
    ("detect/scan.py", "ScanDetector.detect_reference"),
    ("detect/trw.py", "TRWDetector.walk_reference"),
}


class _Finder(ast.NodeVisitor):
    def __init__(self):
        self.scope = []
        self.functions = set()
        self.hits = []

    def _visit_scope(self, node):
        self.scope.append(node.name)
        if not isinstance(node, ast.ClassDef):
            self.functions.add(".".join(self.scope))
        self.generic_visit(node)
        self.scope.pop()

    visit_ClassDef = visit_FunctionDef = visit_AsyncFunctionDef = _visit_scope

    def visit_Call(self, node):
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id in {"np", "numpy"}
        ):
            keywords = {kw.arg for kw in node.keywords}
            if func.attr == "union1d" or (
                func.attr == "unique" and not keywords & SORT_PATH_KEYWORDS
            ):
                self.hits.append((".".join(self.scope), node.lineno, func.attr))
        self.generic_visit(node)


def _scan():
    hits, functions = [], set()
    for path in sorted(PACKAGE.rglob("*.py")):
        rel = path.relative_to(PACKAGE).as_posix()
        finder = _Finder()
        finder.visit(ast.parse(path.read_text(), filename=str(path)))
        functions |= {(rel, name) for name in finder.functions}
        hits += [(rel, scope, line, attr) for scope, line, attr in finder.hits]
    return hits, functions


def test_no_hash_unique_in_library_code():
    hits, _ = _scan()
    offenders = [
        f"{rel}:{line} np.{attr} in {scope or '<module>'}"
        for rel, scope, line, attr in hits
        if (rel, scope) not in ALLOWED
    ]
    assert not offenders, (
        "use repro.ipspace.addr.unique_sorted for address/block sets:\n"
        + "\n".join(offenders)
    )


def test_allowlist_names_existing_functions():
    _, functions = _scan()
    assert ALLOWED <= functions, sorted(ALLOWED - functions)


def test_guard_flags_hash_calls():
    finder = _Finder()
    finder.visit(ast.parse(
        "def f(x, y):\n"
        "    np.unique(x)\n"
        "    np.union1d(x, y)\n"
        "    np.unique(x, return_counts=True)\n"
        "    np.unique(x, axis=0)\n"
    ))
    assert [(line, attr) for _, line, attr in finder.hits] == [
        (2, "unique"),
        (3, "union1d"),
    ]
