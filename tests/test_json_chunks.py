"""Matrices larger than one write chunk keep their bytes, and a write stays small.

``dump_json`` writes a 2-d array in chunks of ``uli.io.CHUNK`` entries; these
shapes cross that bound, which the byte tests in ``test_json_bytes`` stay under.
"""

import json
import tracemalloc

import numpy as np
import pytest

from conftest import random_complex
from test_json_bytes import _reference_bytes, _reference_matrix
from uli import haar_unitary, state_from_matrix
from uli.cli import main
from uli.io import CHUNK, write_state_file, write_unitary_file


@pytest.mark.parametrize("shape", [(20000, 1), (1, 20000)], ids=["tall", "wide"])
def test_multi_chunk_state_file_bytes(tmp_path, shape):
    assert max(shape) > CHUNK
    state = state_from_matrix(random_complex(np.random.default_rng(3), *shape), normalize=True)
    path = tmp_path / "state.json"
    write_state_file(str(path), state)
    ref = {"d1": state.d1, "d2": state.d2}
    ref.update(_reference_matrix(state.psi))
    assert path.read_bytes() == _reference_bytes(ref)


def test_multi_chunk_unitary_file_bytes(tmp_path):
    u = haar_unitary(130, np.random.default_rng(4))
    assert u.size > CHUNK
    path = tmp_path / "u.json"
    write_unitary_file(str(path), u)
    ref = {"n": 130}
    ref.update(_reference_matrix(u))
    assert path.read_bytes() == _reference_bytes(ref)


def test_multi_chunk_analyze_report_is_plain_json(tmp_path, capsys):
    # s1 is 130 x 130, so the report writes schmidt_basis_side1 in two chunks
    path = tmp_path / "state.json"
    m = random_complex(np.random.default_rng(5), 130, 2)
    write_state_file(str(path), state_from_matrix(m, normalize=True))
    assert main(["analyze", str(path), "--format", "json"]) == 0
    out = capsys.readouterr().out
    assert out == json.dumps(json.loads(out)) + "\n"


def test_unitary_write_holds_one_chunk_not_the_matrix(tmp_path):
    u = haar_unitary(512, np.random.default_rng(6))  # 4 MiB of complex128
    tracemalloc.start()
    try:
        write_unitary_file(str(tmp_path / "u.json"), u)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the whole matrix as Python floats and text peaks near 38 MiB
    assert peak < 4 * 2**20
