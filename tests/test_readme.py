"""The README's library tour runs against the current API and prints what it shows.

Each top-level statement of the tour's `python` block runs in turn.  Where
an expression is followed by `# ` lines, those lines are its expected
`repr`, so a renamed function or a changed number fails here first.
"""

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def tour_block() -> str:
    text = README.read_text(encoding="utf-8")
    tour = text[text.index("## Library tour"):]
    return re.search(r"```python\n(.*?)```", tour, re.DOTALL).group(1)


def test_library_tour_runs_and_prints_what_it_shows():
    source = tour_block()
    lines = source.splitlines()
    namespace: dict = {}
    checked = 0
    for stmt in ast.parse(source).body:
        if not isinstance(stmt, ast.Expr):
            exec(compile(ast.Module(body=[stmt], type_ignores=[]), str(README), "exec"), namespace)
            continue
        value = eval(compile(ast.Expression(stmt.value), str(README), "eval"), namespace)
        shown = []
        for line in lines[stmt.end_lineno:]:
            if not line.startswith("# "):
                break
            shown.append(line[2:])
        if shown:
            assert repr(value) == "\n".join(shown), ast.unparse(stmt)
            checked += 1
    assert checked >= 3
