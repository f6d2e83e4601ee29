"""The process entry path: ``python -m uli.cli`` and the ``uli`` console script.

Each command runs once in a child interpreter, as users call it, and once
through ``main()`` in this process; both must give the same exit code,
stdout, stderr and written files, so ending the process moves no byte.
"""

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import uli.cli
from uli import haar_unitary, state_from_matrix
from uli.io import write_state_file, write_unitary_file

ROOT = Path(__file__).resolve().parent.parent

CASES = {
    "gen": (["gen", "bell", "--d1", "2", "--d2", "2", "--out", "new.json"], 0),
    "analyze_json": (["analyze", "bell.json", "--format", "json"], 0),
    "verify_haar_pair": (["verify", "bell.json", "u1.json", "u2.json"], 1),
    "missing_state": (["analyze", "missing.json"], 2),
    "cutoff_of_one": (["analyze", "bell.json", "--tol", "1"], 64),
}


def _inputs(directory):
    directory.mkdir()
    write_state_file(str(directory / "bell.json"),
                     state_from_matrix(np.eye(2, dtype=complex) / np.sqrt(2)))
    rng = np.random.default_rng(7)
    write_unitary_file(str(directory / "u1.json"), haar_unitary(2, rng))
    write_unitary_file(str(directory / "u2.json"), haar_unitary(2, rng))
    return directory


def _files(directory):
    return {p.name: p.read_bytes() for p in directory.iterdir()}


def _child(args, cwd):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run([sys.executable, "-W", "error", *args], cwd=cwd, env=env,
                          capture_output=True, check=False)


@pytest.mark.parametrize("argv, code", list(CASES.values()), ids=list(CASES))
def test_process_matches_main(tmp_path, capsys, monkeypatch, argv, code):
    proc_dir, main_dir = _inputs(tmp_path / "process"), _inputs(tmp_path / "main")

    proc = _child(["-m", "uli.cli", *argv], proc_dir)
    monkeypatch.chdir(main_dir)
    assert uli.cli.main(argv) == code
    out, err = capsys.readouterr()

    assert proc.returncode == code
    assert proc.stdout.decode() == out
    assert proc.stderr.decode() == err
    assert _files(proc_dir) == _files(main_dir)
    if argv[0] == "gen":
        assert "new.json" in _files(proc_dir)


def test_run_freezes_the_interpreter_after_main(tmp_path):
    script = ("import gc\n"
              "from uli.cli import run\n"
              "before = gc.get_freeze_count()\n"
              "code = run()\n"
              "print(code, before, gc.get_freeze_count() > 0)\n")
    proc = _child(["-c", script, "gen", "bell", "--d1", "2", "--d2", "2", "--out", "b.json"],
                  tmp_path)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout.decode().splitlines() == ["wrote 2x2 state to b.json", "0 0 True"]


def _main_block_target():
    """Name of the function that ``sys.exit(...)`` calls in ``cli.py``'s ``__main__`` block."""
    tree = ast.parse(Path(uli.cli.__file__).read_text(encoding="utf-8"))
    blocks = [node for node in tree.body if isinstance(node, ast.If)
              and ast.unparse(node.test) == "__name__ == '__main__'"]
    assert len(blocks) == 1
    (stmt,) = blocks[0].body
    assert ast.unparse(stmt.value.func) == "sys.exit"
    (call,) = stmt.value.args
    assert not call.args and not call.keywords
    return call.func.id


def test_console_script_and_main_block_share_one_entry():
    # read as text: tomllib is new in Python 3.11
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    section = re.search(r"^\[project\.scripts\]\n(.*?)(?=^\[|\Z)", text, re.M | re.S).group(1)
    module, name = re.search(r'^uli = "([\w.]+):(\w+)"$', section, re.M).groups()
    target = getattr(importlib.import_module(module), name)
    assert target is getattr(uli.cli, _main_block_target())
    assert target is uli.cli.run
