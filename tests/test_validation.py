"""Bad tolerances and non-finite spectra are refused, not silently answered."""

import numpy as np
import pytest

from uli import (
    BadSpectrum,
    NoSolution,
    UnitaryPair,
    cluster_spectrum,
    commutant_check,
    haar_unitary,
    invariance_structure,
    is_invariant,
    lie_algebra_dimension,
    random_state_with_spectrum,
    real_nullspace_dimension,
    state_from_matrix,
    undo_operator,
)
from uli.cli import main

STATE = state_from_matrix(np.diag([np.sqrt(0.8), np.sqrt(0.2)]).astype(complex))
PAIR = UnitaryPair(u1=np.eye(2), u2=np.eye(2))

CALLS = {
    "is_invariant": lambda **kw: is_invariant(PAIR, STATE, **kw),
    "commutant_check": lambda **kw: commutant_check(PAIR, STATE, **kw),
    "undo_operator": lambda **kw: undo_operator(np.eye(2), STATE, **kw),
    "real_nullspace_dimension": lambda **kw: real_nullspace_dimension(np.eye(3), **kw),
    "lie_algebra_dimension": lambda **kw: lie_algebra_dimension(STATE, **kw),
    "cluster_spectrum": lambda **kw: cluster_spectrum(np.array([0.8, 0.6]), **kw),
    "invariance_structure": lambda **kw: invariance_structure(STATE, **kw),
}

KEYWORDS = [
    ("is_invariant", "tol"),
    ("commutant_check", "tol"),
    ("undo_operator", "tol"),
    ("undo_operator", "rank_tol"),
    ("undo_operator", "degeneracy_tol"),
    ("real_nullspace_dimension", "tol"),
    ("lie_algebra_dimension", "tol"),
    ("cluster_spectrum", "rank_tol"),
    ("cluster_spectrum", "degeneracy_tol"),
    ("invariance_structure", "rank_tol"),
    ("invariance_structure", "degeneracy_tol"),
]


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -1.0])
@pytest.mark.parametrize("func,keyword", KEYWORDS)
def test_bad_tolerance_raises(func, keyword, value):
    with pytest.raises(ValueError, match=keyword):
        CALLS[func](**{keyword: value})


@pytest.mark.parametrize("value", [1.0, 2.0])
@pytest.mark.parametrize("func", ["undo_operator", "cluster_spectrum", "invariance_structure"])
def test_rank_tolerance_of_one_or_more_raises(func, value):
    # no value exceeds rank_tol >= 1 times the largest, so every state would read rank 0
    with pytest.raises(ValueError, match="rank_tol must be below 1"):
        CALLS[func](rank_tol=value)


@pytest.mark.parametrize("func,keyword", KEYWORDS)
def test_zero_tolerance_is_accepted(func, keyword):
    CALLS[func](**{keyword: 0.0})


def test_nan_tolerance_no_longer_solves_unsolvable_undo():
    u1 = haar_unitary(2, np.random.default_rng(1))
    state = state_from_matrix(np.diag([0.8, 0.6]).astype(complex))
    assert isinstance(undo_operator(u1, state), NoSolution)
    with pytest.raises(ValueError):
        undo_operator(u1, state, tol=float("nan"))


@pytest.mark.parametrize("sigma", [[float("nan"), 0.5], [0.5, float("nan")], [float("inf")],
                                   [float("inf"), 0.5]])
def test_cluster_spectrum_rejects_non_finite(sigma):
    with pytest.raises(BadSpectrum):
        cluster_spectrum(np.array(sigma))


@pytest.mark.parametrize("sigma", [[1.0, float("nan")], [float("nan")], [float("inf")]])
def test_random_state_rejects_non_finite_spectrum(sigma):
    with pytest.raises(BadSpectrum):
        random_state_with_spectrum(np.array(sigma), 2, 2, np.random.default_rng(0))


@pytest.mark.parametrize("values", [["1", "-0.5"], ["1", "nan"], ["nan"], ["-1"], ["0"]])
def test_gen_spectrum_bad_values_exit_2_without_file(tmp_path, capsys, values):
    out = tmp_path / "s.json"
    code = main(["gen", "spectrum", "--d1", "2", "--d2", "2", "--spectrum", *values,
                 "--out", str(out)])
    assert code == 2
    assert not out.exists()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error" in captured.err


def test_gen_spectrum_drops_exact_zeros(tmp_path, capsys):
    with_zero, without = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["gen", "spectrum", "--d1", "2", "--d2", "2", "--spectrum", "1", "0",
                 "--out", str(with_zero)]) == 0
    assert main(["gen", "spectrum", "--d1", "2", "--d2", "2", "--spectrum", "1",
                 "--out", str(without)]) == 0
    assert with_zero.read_bytes() == without.read_bytes()
