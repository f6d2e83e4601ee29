"""Flat-file formats for states and unitaries.

Both formats are JSON objects with the real and imaginary parts stored as
separate row-major nested lists: states carry ``d1``, ``d2``, ``re``, ``im``;
unitaries carry ``n``, ``re``, ``im``. Floats are written with Python's
shortest round-trip representation, so read(write(x)) reproduces x exactly on
the same platform.
"""

from __future__ import annotations

import json
import sys
from itertools import chain

import numpy as np

from .bipartite import BipartiteState, state_from_matrix
from .config import DEFAULT_RANK_TOL, UNITARY_TOL
from .errors import DimensionMismatch, NotUnitary
from .matkernel import _lapack_svd, _residual, _unitarity_defect, as_complex_matrix, numerical_rank


def _matrix_payload(m: np.ndarray) -> dict:
    """The ``re``/``im`` fields as views; ``dump_json`` writes them in chunks."""
    return {"re": m.real, "im": m.imag}


def _matrix_from_payload(obj: dict, rows: int, cols: int, what: str) -> np.ndarray:
    for key in ("re", "im"):
        if key not in obj:
            raise ValueError(f"{what} is missing the '{key}' field")
        # type checks over the whole list run in C; a bool is not a JSON number here
        if not (type(obj[key]) is list and set(map(type, obj[key])) <= {list}
                and set(map(type, chain.from_iterable(obj[key]))) <= {int, float}):
            raise ValueError(f"{what} '{key}' must be a list of rows of JSON numbers")
    try:
        re = np.asarray(obj["re"], dtype=float)
        im = np.asarray(obj["im"], dtype=float)
    except OverflowError as exc:  # a JSON integer beyond the double range
        raise ValueError(f"{what} entry does not fit a double: {exc}") from exc
    if re.shape != (rows, cols) or im.shape != (rows, cols):
        raise DimensionMismatch(
            f"{what} matrices must have shape ({rows}, {cols}), "
            f"got re {re.shape} and im {im.shape}"
        )
    # assigned, not re + 1j * im: that arithmetic turns a -0.0 part into +0.0
    m = re.astype(np.complex128)
    m.imag = im
    return m


def _dimension(obj: dict, key: str, what: str) -> int:
    """The positive JSON integer under ``key``; floats, strings and bools are refused."""
    if key not in obj:
        raise ValueError(f"{what} file is missing the '{key}' field")
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ValueError(f"'{key}' must be a positive JSON integer, got {value!r}")
    return value


# Rows of a 2-d array go to one json.dumps call until they reach this many
# entries (always at least one row), so a write holds one chunk's Python floats
# and text, under 1 MB, never a whole d x d matrix or the whole document. Every
# matrix up to 128 x 128 is still one call: one call per row costs more calls
# and writes than the memory it saves.
CHUNK = 16384


def _write_json(obj, fh) -> None:
    # json.dumps takes the C encoder, json.dump the pure-Python one; its default
    # separators ", " and ": " are the file format
    if isinstance(obj, np.ndarray):  # a 2-d float array
        step = max(1, CHUNK // obj.shape[1])
        fh.write("[")
        for start in range(0, len(obj), step):
            # the chunk's rows without its outer brackets
            fh.write((", " if start else "") + json.dumps(obj[start:start + step].tolist())[1:-1])
        fh.write("]")
    elif isinstance(obj, dict):
        fh.write("{")
        for i, (key, value) in enumerate(obj.items()):
            fh.write(f"{', ' if i else ''}{json.dumps(key)}: ")
            _write_json(value, fh)
        fh.write("}")
    else:
        fh.write(json.dumps(obj))


def dump_json(obj, fh) -> None:
    """Write ``obj`` as one line of JSON; identical content yields identical bytes.

    A 2-d float array is written as its rows, ``CHUNK`` entries (or one row)
    per ``json.dumps`` call. A dict is written item by item, each value by
    these rules, in the bytes of one ``json.dumps`` call; its keys must be
    str. Anything else is one ``json.dumps`` call.
    """
    _write_json(obj, fh)
    fh.write("\n")


def _dump(obj: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        dump_json(obj, fh)


def _load(source: str) -> dict:
    try:
        if source == "-":
            obj = json.load(sys.stdin)
        else:
            with open(source, encoding="utf-8") as fh:
                obj = json.load(fh)
    except RecursionError as exc:  # the decoder recurses once per nesting level
        raise ValueError("JSON is nested too deeply") from exc
    if not isinstance(obj, dict):
        raise ValueError("expected a JSON object at top level")
    return obj


def write_state_file(path: str, state: BipartiteState) -> None:
    obj = {"d1": state.d1, "d2": state.d2}
    obj.update(_matrix_payload(state.psi))
    _dump(obj, path)


def read_state_file(source: str, *, normalize: bool = False) -> BipartiteState:
    """Parse a state file (or stdin for ``-``), validating normalization."""
    obj = _load(source)
    d1, d2 = _dimension(obj, "d1", "state"), _dimension(obj, "d2", "state")
    psi = _matrix_from_payload(obj, d1, d2, "state")
    return state_from_matrix(psi, normalize=normalize)


def write_unitary_file(path: str, u: np.ndarray) -> None:
    m = as_complex_matrix(u, "u")
    if m.shape[0] != m.shape[1]:  # read_unitary_file would refuse the file
        raise DimensionMismatch(f"unitary must be square, got shape {m.shape}")
    obj = {"n": m.shape[0]}
    obj.update(_matrix_payload(m))
    _dump(obj, path)


def read_unitary_file(source: str, *, lenient: bool = False) -> tuple[np.ndarray, float]:
    """Parse a unitary file, returning the matrix and the correction applied.

    Matrices failing the unitarity check are rejected, unless ``lenient`` is
    set, in which case the nearest unitary (polar factor) is substituted and
    the max-entry size of the correction returned alongside it. The polar
    factor is unique only for a nonsingular matrix, so a matrix with a singular
    value at or below ``DEFAULT_RANK_TOL`` times the largest is rejected even then.
    """
    obj = _load(source)
    n = _dimension(obj, "n", "unitary")
    m = as_complex_matrix(_matrix_from_payload(obj, n, n, "unitary"), "unitary")
    defect = _unitarity_defect(m)
    if defect <= UNITARY_TOL:
        return m, 0.0
    if not lenient:
        raise NotUnitary(
            f"matrix deviates from unitarity by {defect:.3e} (tolerance {UNITARY_TOL:.1e})"
        )
    w, sigma, vh = _lapack_svd(m)
    if numerical_rank(sigma, DEFAULT_RANK_TOL) < n:
        raise NotUnitary(f"matrix is singular (smallest singular value {sigma[-1]:.3e}, "
                         f"largest {sigma[0]:.3e}); it has no unique nearest unitary")
    fixed = w @ vh
    return fixed, _residual(lambda: m - fixed)
