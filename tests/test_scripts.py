"""The CI scripts' arguments: a refused value is an argparse usage error, not a traceback."""

import importlib.util
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _run(name, argv, monkeypatch):
    """Load ``scripts/<name>.py`` and call its ``main()`` with ``argv``."""
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(sys, "argv", [f"{name}.py", *argv])
    return module.main()


def _assert_usage_error(name, argv, monkeypatch, capsys):
    with pytest.raises(SystemExit) as exc:
        _run(name, argv, monkeypatch)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:")
    assert f"error: argument {argv[0]}: " in err


@pytest.mark.parametrize("argv", [
    ["--states", "0"],
    ["--states", "-1"],
    ["--pairs-per-state", "0"],
    ["--max-dim", "1"],
    ["--seed", "-1"],
], ids="=".join)
def test_fuzz_refuses_arguments_that_check_nothing_or_crash(argv, monkeypatch, capsys):
    _assert_usage_error("stabilizer_fuzz", argv, monkeypatch, capsys)


def test_fuzz_small_run_passes(monkeypatch, capsys):
    assert _run("stabilizer_fuzz", ["--states", "4", "--max-dim", "3"], monkeypatch) == 0
    assert "states checked:        4\n" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["--decision-tol", "1"],
    ["--decision-tol", "-1"],
    ["--degeneracy-tol", "nan"],
    ["--degeneracy-tol", "1"],
], ids="=".join)
def test_sweep_refuses_what_the_library_refuses(argv, monkeypatch, capsys):
    _assert_usage_error("degeneracy_sweep", argv, monkeypatch, capsys)


def test_sweep_default_output_is_the_expected_file(monkeypatch, capsys):
    _run("degeneracy_sweep", [], monkeypatch)
    expected = (SCRIPTS / "degeneracy_sweep.expected").read_text(encoding="utf-8")
    assert capsys.readouterr().out == expected
