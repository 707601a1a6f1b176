"""Where the package enters ``np.errstate``.

``matrix._adopt_result`` is the one place that computes an operation's result under
``np.errstate`` and turns an overflow into UnsupportedInputError. The other guards
compute a scalar or run a caller's callable. A new operation adopts its result
through the helper instead of growing a guard of its own, and this test fails
where one does.
"""

import ast
from pathlib import Path

import kronquot

SITES = {
    # the one helper every operation and built-in Q(A) rule computes through
    ("matrix", "_adopt_result"),
    # scalar sums, checked with their own messages
    ("matrix", "Matrix.trace"),
    ("quotients", "trace_realization"),
    # a caller's Q(A) rule or weight rule, and a caller's component family
    ("quotients", "realize"),
    ("quotients", "LinearDivisor._kernel"),
}


def _errstate_sites(source: str, module: str) -> list[tuple[str, str]]:
    """(module, qualified function name) of each ``np.errstate(...)`` call in a source."""
    sites = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = scope + (child.name,)
            if (isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute)
                    and child.func.attr == "errstate"
                    and isinstance(child.func.value, ast.Name) and child.func.value.id == "np"):
                sites.append((module, ".".join(scope)))
            visit(child, inner)

    visit(ast.parse(source), ())
    return sites


def test_np_errstate_is_entered_only_at_the_listed_sites():
    package = Path(kronquot.__file__).parent
    sites = [site for path in sorted(package.glob("*.py"))
             for site in _errstate_sites(path.read_text(encoding="utf-8"), path.stem)]
    assert sorted(sites) == sorted(SITES)


def test_the_scan_sees_each_guard_in_a_method_and_none_in_a_docstring():
    source = (
        "import numpy as np\n"
        "class A:\n"
        "    def f(self):\n"
        "        'computed under ``np.errstate(over=\"ignore\")``'\n"
        "        with np.errstate(over='ignore'):\n"
        "            return [np.errstate(invalid='ignore')]\n"
    )
    assert _errstate_sites(source, "probe") == [("probe", "A.f"), ("probe", "A.f")]
