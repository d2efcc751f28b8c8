"""tools/ncloc.py: the line count the ROADMAP's size gates quote.

A line counts unless it is blank or its first non-blank character is `#`,
so docstring lines count; `main` prints one row per module of
src/qredshift and a total that is the sum of the rows.
"""

import importlib.util
from pathlib import Path

_spec = importlib.util.spec_from_file_location("ncloc", Path(__file__).resolve().parents[1] / "tools" / "ncloc.py")
ncloc = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ncloc)

SAMPLE = '''"""Module docstring.

A docstring line counts, even after a blank one.
"""

# a comment line
    # an indented comment line
import math  # a trailing comment keeps its line

\t
def f():
    return math.pi
'''


def test_docstring_lines_count(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text('"""One."""\n"""\nTwo\n"""\n', encoding="utf-8")
    assert ncloc.ncloc(path) == 4


def test_blank_and_comment_lines_do_not_count(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(SAMPLE, encoding="utf-8")
    # the docstring's 3 non-blank lines, the import and the 2 lines of f; the blank line inside the
    # docstring, the two comment lines and three other blank lines (one a lone tab) drop out
    assert ncloc.ncloc(path) == 6


def rows(capsys) -> dict[str, int]:
    assert ncloc.main() == 0
    table = {}
    for line in capsys.readouterr().out.splitlines():
        count, name = line.split()
        table[name] = int(count)
    return table


def test_one_row_per_module(capsys):
    table = rows(capsys)
    modules = sorted(path.name for path in ncloc.PACKAGE.glob("*.py"))
    assert "branch.py" in modules and "protocol.py" in modules
    assert list(table) == [*modules, "total"]
    assert all(table[name] == ncloc.ncloc(ncloc.PACKAGE / name) for name in modules)


def test_total_is_the_sum_of_the_rows(capsys):
    table = rows(capsys)
    total = table.pop("total")
    assert total == sum(table.values()) > 0
