"""Tests for the state and unitary file formats."""

import json

import numpy as np
import pytest

from conftest import random_complex
from uli import (
    DimensionMismatch,
    NotNormalized,
    NotUnitary,
    haar_unitary,
    state_from_matrix,
    unitarity_defect,
)
from uli.cli import main
from uli.io import read_state_file, read_unitary_file, write_state_file, write_unitary_file


def test_state_round_trip_is_exact(tmp_path):
    rng = np.random.default_rng(0)
    m = random_complex(rng, 3, 4)
    state = state_from_matrix(m / np.linalg.norm(m))
    path = tmp_path / "state.json"
    write_state_file(str(path), state)
    back = read_state_file(str(path))
    # shortest round-trip float representation restores the exact doubles
    np.testing.assert_array_equal(back.psi, state.psi)
    assert (back.d1, back.d2) == (3, 4)


def test_state_file_fields(tmp_path):
    state = state_from_matrix(np.eye(2, dtype=complex) / np.sqrt(2))
    path = tmp_path / "bell.json"
    write_state_file(str(path), state)
    obj = json.loads(path.read_text())
    assert set(obj) == {"d1", "d2", "re", "im"}
    assert obj["d1"] == obj["d2"] == 2
    assert obj["im"] == [[0.0, 0.0], [0.0, 0.0]]


def test_state_rejects_non_normalized(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"d1": 2, "d2": 2, "re": [[1, 0], [0, 1]], "im": [[0, 0], [0, 0]]}))
    with pytest.raises(NotNormalized):
        read_state_file(str(path))
    state = read_state_file(str(path), normalize=True)
    assert state.input_norm == pytest.approx(np.sqrt(2))


@pytest.mark.parametrize(
    "obj",
    [
        {"d1": 2, "re": [[1, 0], [0, 0]], "im": [[0, 0], [0, 0]]},
        {"d1": 2, "d2": 2, "re": [[1, 0]], "im": [[0, 0], [0, 0]]},
        {"d1": 0, "d2": 2, "re": [], "im": []},
        {"d1": 2, "d2": 2, "re": [[1, 0], [0, 0]]},
    ],
)
def test_state_rejects_malformed(tmp_path, obj):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    with pytest.raises(Exception):
        read_state_file(str(path))


def test_unitary_round_trip(tmp_path):
    u = haar_unitary(4, np.random.default_rng(1))
    path = tmp_path / "u.json"
    write_unitary_file(str(path), u)
    back, correction = read_unitary_file(str(path))
    np.testing.assert_array_equal(back, u)
    assert correction == 0.0


def test_non_square_unitary_is_refused_before_the_file_is_opened(tmp_path):
    path = tmp_path / "u.json"
    with pytest.raises(DimensionMismatch, match="square"):
        write_unitary_file(str(path), np.ones((2, 3)))
    assert not path.exists()


def test_unitary_rejected_beyond_tolerance(tmp_path):
    path = tmp_path / "almost.json"
    m = np.eye(2) * (1 + 1e-6)
    write_unitary_file(str(path), m)
    with pytest.raises(NotUnitary):
        read_unitary_file(str(path))


def test_lenient_reunitarizes_and_reports_correction(tmp_path):
    path = tmp_path / "almost.json"
    scale = 1 + 1e-6
    write_unitary_file(str(path), np.eye(2) * scale)
    fixed, correction = read_unitary_file(str(path), lenient=True)
    assert unitarity_defect(fixed) <= 1e-12
    assert correction == pytest.approx(scale - 1, rel=1e-6)


def test_deterministic_bytes(tmp_path):
    state = state_from_matrix(np.eye(3, dtype=complex) / np.sqrt(3))
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    write_state_file(str(p1), state)
    write_state_file(str(p2), state)
    assert p1.read_bytes() == p2.read_bytes()


NON_INTEGERS = [2.7, True, "3", 3.0]


def _state_obj(key, value):
    # the matrix has the shape int(value) gives, so only the type check can refuse it
    dims = {"d1": 2, "d2": 2, key: int(float(value))}
    re = np.zeros((dims["d1"], dims["d2"]))
    re[0, 0] = 1.0
    return {**dims, key: value, "re": re.tolist(), "im": np.zeros_like(re).tolist()}


@pytest.mark.parametrize("key", ["d1", "d2"])
@pytest.mark.parametrize("value", NON_INTEGERS)
def test_state_dimension_must_be_a_json_integer(tmp_path, key, value):
    path = tmp_path / "state.json"
    path.write_text(json.dumps(_state_obj(key, value)))
    with pytest.raises(ValueError, match="JSON integer"):
        read_state_file(str(path))
    assert main(["analyze", str(path)]) == 2


@pytest.mark.parametrize("value", NON_INTEGERS)
def test_unitary_dimension_must_be_a_json_integer(tmp_path, value):
    n = int(float(value))
    path = tmp_path / "u.json"
    path.write_text(json.dumps({"n": value, "re": np.eye(n).tolist(), "im": np.zeros((n, n)).tolist()}))
    with pytest.raises(ValueError, match="JSON integer"):
        read_unitary_file(str(path))


@pytest.mark.parametrize("d1, d2", [(1, 1), (1, 4), (4, 1), (3, 5)])
def test_written_files_read_back(tmp_path, d1, d2):
    psi = np.zeros((d1, d2), dtype=complex)
    psi[0, 0] = 1.0
    write_state_file(str(tmp_path / "s.json"), state_from_matrix(psi))
    assert read_state_file(str(tmp_path / "s.json")).psi.shape == (d1, d2)
    write_unitary_file(str(tmp_path / "u.json"), np.eye(d2))
    assert read_unitary_file(str(tmp_path / "u.json"))[0].shape == (d2, d2)


BAD_ENTRIES = [
    [["0.6", 0.8]],  # string
    [[True, 0.8]],  # bool
    [[0.6, False]],
    [[None, 0.8]],  # null
    [[[0.6], 0.8]],  # nested list
]


@pytest.mark.parametrize("key", ["re", "im"])
@pytest.mark.parametrize("bad", BAD_ENTRIES)
def test_state_entries_must_be_json_numbers(tmp_path, key, bad):
    obj = {"d1": 1, "d2": 2, "re": [[0.6, 0.8]], "im": [[0, 0]]}
    obj[key] = bad
    path = tmp_path / "state.json"
    path.write_text(json.dumps(obj))
    with pytest.raises(ValueError, match="JSON numbers"):
        read_state_file(str(path), normalize=True)
    assert main(["analyze", str(path)]) == 2


@pytest.mark.parametrize("key", ["re", "im"])
@pytest.mark.parametrize("bad", BAD_ENTRIES)
def test_unitary_entries_must_be_json_numbers(tmp_path, key, bad):
    obj = {"n": 2, "re": [[1, 0], [0, 1]], "im": [[0, 0], [0, 0]]}
    obj[key] = bad + [[0, 1]]
    path = tmp_path / "u.json"
    path.write_text(json.dumps(obj))
    with pytest.raises(ValueError, match="JSON numbers"):
        read_unitary_file(str(path), lenient=True)


def test_written_negative_zero_entries_read_back(tmp_path):
    psi = np.array([[-0.0 - 0.6j, 0.8 - 0.0j]])
    state = state_from_matrix(psi)
    write_state_file(str(tmp_path / "s.json"), state)
    assert "-0.0" in (tmp_path / "s.json").read_text()
    assert read_state_file(str(tmp_path / "s.json")).psi.tobytes() == state.psi.tobytes()
    u = -np.eye(2) + 0.0j
    write_unitary_file(str(tmp_path / "u.json"), u)
    assert read_unitary_file(str(tmp_path / "u.json"))[0].tobytes() == u.tobytes()


def test_integer_entry_beyond_double_range_is_an_input_error(tmp_path):
    path = tmp_path / "state.json"
    path.write_text('{"d1": 1, "d2": 2, "re": [[1' + "0" * 400 + ', 0]], "im": [[0, 0]]}')
    with pytest.raises(ValueError, match="does not fit a double"):
        read_state_file(str(path), normalize=True)
    assert main(["analyze", str(path)]) == 2
