"""Written files and JSON reports match a reference writer byte for byte.

The reference is the straightforward encoding: every entry converted with
``float()`` in a Python loop and the object written with ``json.dump``.
"""

import io
import json

import numpy as np
import pytest

from conftest import random_complex
from uli import invariance_structure, state_from_matrix
from uli.cli import main
from uli.io import read_state_file, write_state_file, write_unitary_file


def _reference_matrix(m):
    return {
        "re": [[float(x) for x in row] for row in m.real],
        "im": [[float(x) for x in row] for row in m.imag],
    }


def _reference_bytes(obj) -> bytes:
    buf = io.StringIO()
    json.dump(obj, buf, separators=(", ", ": "))
    buf.write("\n")
    return buf.getvalue().encode("utf-8")


def _signed_zeros(rows, cols):
    m = np.full((rows, cols), complex(-0.0, -0.0))
    m[0, 0] = 1.0
    return m


def _matrices():
    rng = np.random.default_rng(5)
    yield "1x1", np.array([[1.0 + 0j]])
    yield "1xn", random_complex(rng, 1, 7)
    yield "nx1", random_complex(rng, 7, 1)
    yield "64x64", random_complex(rng, 64, 64)
    yield "eye", np.eye(5, dtype=complex)
    yield "neg-eye", -np.eye(4, dtype=complex)
    yield "signed-zeros", _signed_zeros(3, 4)


MATRICES = list(_matrices())


@pytest.mark.parametrize("m", [m for _, m in MATRICES], ids=[k for k, _ in MATRICES])
def test_state_file_bytes(tmp_path, m):
    state = state_from_matrix(m, normalize=True)
    path = tmp_path / "state.json"
    write_state_file(str(path), state)
    ref = {"d1": state.d1, "d2": state.d2}
    ref.update(_reference_matrix(state.psi))
    assert path.read_bytes() == _reference_bytes(ref)


@pytest.mark.parametrize("m", [m for _, m in MATRICES], ids=[k for k, _ in MATRICES])
def test_unitary_file_bytes(tmp_path, m):
    n = min(m.shape)
    u = m[:n, :n]
    path = tmp_path / "u.json"
    write_unitary_file(str(path), u)
    ref = {"n": n}
    ref.update(_reference_matrix(u))
    assert path.read_bytes() == _reference_bytes(ref)


ANALYZE_STATES = {
    "1x1": np.array([[1.0 + 0j]]),
    "1xn": np.array([[0.6, 0.0, 0.8j]]),
    "nx1": np.array([[0.6], [-0.0], [0.8j]]),
    "bell": np.eye(3, dtype=complex) / np.sqrt(3),
    "rank-deficient": np.diag([0.8, 0.6, 0.0]).astype(complex),
    "generic": random_complex(np.random.default_rng(9), 4, 3),
}


@pytest.mark.parametrize("name", list(ANALYZE_STATES))
def test_analyze_json_report_bytes(tmp_path, capsys, name):
    path = tmp_path / "state.json"
    write_state_file(str(path), state_from_matrix(ANALYZE_STATES[name], normalize=True))
    assert main(["analyze", str(path), "--format", "json"]) == 0
    out = capsys.readouterr().out
    report = json.loads(out)
    sch = invariance_structure(read_state_file(str(path))).schmidt
    report["sigma"] = [float(s) for s in sch.sigma]
    report["schmidt_basis_side1"] = _reference_matrix(sch.s1)
    report["schmidt_basis_side2"] = _reference_matrix(sch.s2)
    assert out.encode("utf-8") == _reference_bytes(report)


def test_verify_json_report_bytes(tmp_path, capsys):
    path, u1, u2 = tmp_path / "bell.json", tmp_path / "u1.json", tmp_path / "u2.json"
    write_state_file(str(path), state_from_matrix(np.eye(2, dtype=complex) / np.sqrt(2)))
    write_unitary_file(str(u1), -np.eye(2, dtype=complex))
    write_unitary_file(str(u2), np.diag([1.0, 1j]))
    assert main(["verify", str(path), str(u1), str(u2), "--format", "json"]) == 1
    out = capsys.readouterr().out
    assert out.encode("utf-8") == _reference_bytes(json.loads(out))
