"""Tests for the state and unitary file formats."""

import io
import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import uli.io
from conftest import random_complex
from uli import (
    ConvergenceFailure,
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


@pytest.mark.parametrize("m", [np.zeros((2, 2)), np.diag([1.0, 0.0])])
def test_lenient_refuses_a_singular_matrix(tmp_path, m):
    # the polar factor of a singular matrix is not unique, so there is no nearest unitary
    path = tmp_path / "singular.json"
    write_unitary_file(str(path), m)
    with pytest.raises(NotUnitary, match="singular"):
        read_unitary_file(str(path), lenient=True)


def test_lenient_lapack_failure_is_a_convergence_failure(tmp_path, failing_svd):
    path = tmp_path / "almost.json"
    write_unitary_file(str(path), np.eye(2) * (1 + 1e-6))
    with pytest.raises(ConvergenceFailure, match="SVD did not converge"):
        read_unitary_file(str(path), lenient=True)


def test_lenient_refuses_overflowing_singular_values(tmp_path):
    # finite entries whose singular values, about 1.97e308, exceed the float64 range
    path = tmp_path / "big.json"
    write_unitary_file(str(path), np.array([[1.7e308, 1e308], [-1e308, 1.7e308]]))
    with pytest.raises(ValueError, match="singular values overflow"):
        read_unitary_file(str(path), lenient=True)


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


def test_negative_zero_parts_read_back_with_their_sign(tmp_path):
    # -0.0 + 0.6j and 0.8 - 0.0j: a zero part beside a nonzero one keeps its sign
    psi = np.array([[complex(-0.0, 0.6), 0], [0, complex(0.8, -0.0)]])
    state = state_from_matrix(psi)
    write_state_file(str(tmp_path / "s.json"), state)
    assert read_state_file(str(tmp_path / "s.json")).psi.tobytes() == state.psi.tobytes()
    u = np.diag([complex(-0.0, 1), complex(1, -0.0)])
    write_unitary_file(str(tmp_path / "u.json"), u)
    assert read_unitary_file(str(tmp_path / "u.json"))[0].tobytes() == u.tobytes()


def test_integer_entry_beyond_double_range_is_an_input_error(tmp_path):
    path = tmp_path / "state.json"
    path.write_text('{"d1": 1, "d2": 2, "re": [[1' + "0" * 400 + ', 0]], "im": [[0, 0]]}')
    with pytest.raises(ValueError, match="does not fit a double"):
        read_state_file(str(path), normalize=True)
    assert main(["analyze", str(path)]) == 2


FLOATS = (st.floats(allow_nan=False, allow_infinity=False)
          | st.sampled_from([-0.0, 5e-324, -2.5e-310]))
# JSON values with no array: scalars, lists and dicts, empty ones included
PLAIN = st.recursive(
    st.none() | st.booleans() | st.integers() | FLOATS | st.text(),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=8,
)
ARRAYS = hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, max_side=5),
                    elements=FLOATS)
# a dict whose values are plain JSON, 2-d float arrays or dicts of the same kind
TREES = st.dictionaries(st.text(), st.recursive(
    PLAIN | ARRAYS, lambda inner: st.dictionaries(st.text(), inner, max_size=3), max_leaves=8,
), max_size=4)


def _as_lists(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, dict):
        return {key: _as_lists(value) for key, value in obj.items()}
    return obj


@settings(derandomize=True, deadline=None, max_examples=100)
@given(TREES)
def test_dump_json_writes_the_bytes_of_one_json_dumps(tree):
    expected = json.dumps(_as_lists(tree)) + "\n"
    # a chunk of 1 and of 3 entries runs the row-chunk loop on small arrays too
    for chunk in (1, 3, uli.io.CHUNK):
        buf = io.StringIO()
        with mock.patch.object(uli.io, "CHUNK", chunk):
            uli.io.dump_json(tree, buf)
        assert buf.getvalue() == expected
