"""Golden argv matrix: every command of tools/argv_matrix.py replays to its recorded bytes.

Each command runs in process through `cli.main`, by the tool's own
`replay`, in a temporary directory that holds the matrix's input files,
and must match its record in tests/data/argv_matrix.jsonl in exit code,
stdout, stderr and sweep file.  The recorded bytes belong to Python 3.11's
argparse (usage lines, `--help` layout, error wording) and numpy 2.4: on
another toolchain a test fails and names its command.  A change that moves
bytes regenerates the file with `python3 tools/argv_matrix.py --write` and
lists the moved commands.
"""

import importlib.util
import json
import shlex
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "argv_matrix", Path(__file__).resolve().parents[1] / "tools" / "argv_matrix.py")
argv_matrix = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(argv_matrix)

RECORDS = [json.loads(line) for line in argv_matrix.GOLDEN.read_text(encoding="utf-8").splitlines()]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("argv_matrix")
    argv_matrix.write_files(path)
    return path


def test_records_follow_the_matrix():
    assert [record["argv"] for record in RECORDS] == argv_matrix.commands()


@pytest.mark.parametrize("record", RECORDS, ids=[shlex.join(r["argv"]) or "<no arguments>" for r in RECORDS])
def test_command_replays_its_record(workdir, record):
    command = shlex.join(record["argv"])
    for field in ("stdout", "sweep"):
        assert "# timestamp=" not in (record[field] or ""), f"{command}: the recorded {field} has a timestamp"
    replayed = argv_matrix.replay(record["argv"], workdir)
    for field in ("exit", "stdout", "stderr", "sweep"):
        assert replayed[field] == record[field], f"{command}: {field} differs from its record"


def test_write_names_the_moved_cells():
    # `--write` lists each moved record by field, naming the CSV columns or JSON keys whose cells moved
    table = "# seed=1\nn,p_hat,count_one\n2,0.5,50\n4,0.25,{}\n"
    old = {"exit": 0, "stdout": table.format(25), "stderr": "", "sweep": '{"a": {"b": 1, "c": 2}}'}
    new = {**old, "stdout": table.format(26), "sweep": '{"a": {"b": 1, "c": 3}}'}
    assert argv_matrix.changed_fields(old, new) == ["stdout(count_one)", "sweep(a.c)"]
    assert argv_matrix.changed_fields(old, {**old, "exit": 2, "stdout": "# seed=2\n" + table}) == ["exit", "stdout"]
    assert argv_matrix.changed_fields(old, dict(old)) == []
