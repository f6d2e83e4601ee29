"""Acceptance suite: one test per criterion, each printing a pass/fail line.

The fuzz pool spans every (d1, d2, rank) combination with d1, d2 in 2..6 and
controlled exact degeneracies, then fills up to 500 states at random.
"""

import json
from contextlib import contextmanager

import numpy as np
import pytest

from conftest import clustered_spectrum, distinct_spectrum, fuzz_state, random_complex
from uli import (
    NoSolution,
    UnitaryPair,
    apply_local,
    commutant_check,
    group_dimension,
    haar_unitary,
    invariance_structure,
    is_invariant,
    lie_algebra_dimension,
    matrix_to_vec,
    random_state_with_spectrum,
    sample_invariant_pair,
    schmidt_decompose,
    state_from_matrix,
    undo_operator,
)
from uli.cli import main
from uli.io import write_state_file

POOL_SIZE = 500


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"[acceptance] {name}: FAIL")
        raise
    print(f"[acceptance] {name}: PASS")


@pytest.fixture(scope="module")
def fuzz_pool():
    rng = np.random.default_rng(20260810)
    states = []
    # cover every dimension/rank combination, then fill at random
    for d1 in range(2, 7):
        for d2 in range(2, 7):
            for rank in range(1, min(d1, d2) + 1):
                sigma, _ = clustered_spectrum(rng, rank)
                states.append(random_state_with_spectrum(sigma, d1, d2, rng))
    while len(states) < POOL_SIZE:
        state, _, _ = fuzz_state(rng)
        states.append(state)
    return states


def test_criterion_1_theorem_soundness(fuzz_pool):
    with criterion("criterion 1, theorem soundness over 500 fuzzed states"):
        rng = np.random.default_rng(1)
        for state in fuzz_pool:
            pair = sample_invariant_pair(invariance_structure(state), rng)
            residual = float(np.max(np.abs(pair.u1 @ state.psi @ pair.u2.T - state.psi)))
            assert residual <= 1e-10


def test_criterion_2_completeness_at_identity(fuzz_pool):
    with criterion("criterion 2, dimension formula equals lie-algebra oracle"):
        # golden anchors first
        bell = state_from_matrix(np.eye(2, dtype=complex) / np.sqrt(2))
        ket00 = state_from_matrix(np.array([[1, 0], [0, 0]], dtype=complex))
        diag = state_from_matrix(np.diag([np.sqrt(0.8), np.sqrt(0.2)]).astype(complex))
        rng = np.random.default_rng(2)
        rect = random_state_with_spectrum(distinct_spectrum(rng, 3), 3, 4, rng)
        for state, expected in ((bell, 4), (ket00, 3), (diag, 2), (rect, 4)):
            assert group_dimension(invariance_structure(state)) == expected
            assert lie_algebra_dimension(state) == expected
        for state in fuzz_pool:
            gdim = group_dimension(invariance_structure(state))
            assert lie_algebra_dimension(state) == gdim


def _mixing_unitary(form, i, j):
    """Rotation by pi/4 between Schmidt directions i and j, in the original basis."""
    d = form.d1
    g = np.eye(d, dtype=complex)
    c = 1 / np.sqrt(2)
    g[i, i] = c
    g[j, j] = c
    g[i, j] = -c
    g[j, i] = c
    return form.s1.T @ g @ form.s1.conj()


def test_criterion_3_commutant_necessity():
    with criterion("criterion 3, commutant necessity and cluster-mixing failures"):
        rng = np.random.default_rng(3)
        for _ in range(200):
            state, _, _ = fuzz_state(rng)
            pair = sample_invariant_pair(invariance_structure(state), rng)
            comm = commutant_check(pair, state, tol=1e-10)
            assert comm.residual1 <= 1e-10 and comm.residual2 <= 1e-10
        for _ in range(200):
            d1 = int(rng.integers(2, 7))
            d2 = int(rng.integers(2, 7))
            rank = int(rng.integers(2, min(d1, d2) + 1))
            state = random_state_with_spectrum(distinct_spectrum(rng, rank), d1, d2, rng)
            structure = invariance_structure(state)
            pair = sample_invariant_pair(structure, rng)
            mixed = UnitaryPair(
                u1=_mixing_unitary(structure.schmidt, 0, rank - 1) @ pair.u1,
                u2=pair.u2,
            )
            assert not is_invariant(mixed, state, tol=1e-10).invariant
            comm = commutant_check(mixed, state, tol=1e-10)
            assert not (comm.side1 and comm.side2)


def test_criterion_4_isotropy_of_maximal_entanglement():
    with criterion("criterion 4, isotropy under conjugate pairs on flat spectra"):
        rng = np.random.default_rng(4)
        for d in range(2, 7):
            state = state_from_matrix(np.eye(d, dtype=complex) / np.sqrt(d))
            for _ in range(100):
                r = haar_unitary(d, rng)
                assert is_invariant(UnitaryPair(r, r.conj()), state, tol=1e-10).invariant
            mismatches = 0
            while mismatches < 100:
                r1 = haar_unitary(d, rng)
                r2 = haar_unitary(d, rng)
                if np.max(np.abs(r1 - r2.conj())) <= 1e-3:
                    continue
                mismatches += 1
                assert not is_invariant(UnitaryPair(r1, r2), state, tol=1e-10).invariant


def test_criterion_5_operator_identities():
    with criterion("criterion 5, local action and partial trace identities"):
        rng = np.random.default_rng(5)
        for _ in range(200):
            d1 = int(rng.integers(2, 7))
            d2 = int(rng.integers(2, 7))
            v = rng.standard_normal(d1 * d2) + 1j * rng.standard_normal(d1 * d2)
            state = state_from_matrix((v / np.linalg.norm(v)).reshape(d1, d2))
            a = random_complex(rng, d1, d1)
            b = random_complex(rng, d2, d2)

            direct = matrix_to_vec(apply_local(a, b, state))
            oracle = np.kron(a, b) @ matrix_to_vec(state)
            assert np.max(np.abs(direct - oracle)) <= 1e-12

            vec = matrix_to_vec(state)
            rho = np.outer(vec, vec.conj()).reshape(d1, d2, d1, d2)
            rho1 = state.psi @ state.psi.conj().T
            rho2 = state.psi.T @ state.psi.conj()
            assert np.max(np.abs(rho1 - np.einsum("ijkj->ik", rho))) <= 1e-12
            assert np.max(np.abs(rho2 - np.einsum("ijik->jk", rho))) <= 1e-12


def test_criterion_6_separable_structure(tmp_path, capsys):
    with criterion("criterion 6, separable states get phase plus null blocks"):
        rng = np.random.default_rng(6)
        for d in (2, 3):
            for i in range(25):
                state = random_state_with_spectrum(np.array([1.0]), d, d, rng)
                path = tmp_path / f"prod_{d}_{i}.json"
                write_state_file(str(path), state)
                assert main(["analyze", str(path), "--format", "json"]) == 0
                report = json.loads(capsys.readouterr().out)
                assert report["support_blocks"] == [
                    {"start": 0, "size": 1, "value": pytest.approx(1.0)}
                ]
                assert report["null_dims"] == [d - 1, d - 1]

                structure = invariance_structure(state)
                assert [(b.start, b.size) for b in structure.blocks] == [(0, 1)]
                assert structure.null_dims == (d - 1, d - 1)

                pair = sample_invariant_pair(structure, rng)
                phi1 = structure.schmidt.s1[0, :]
                theta1 = structure.schmidt.s2[0, :]
                out1 = pair.u1 @ phi1
                out2 = pair.u2 @ theta1
                pivot = np.argmax(np.abs(phi1))
                lam = out1[pivot] / phi1[pivot]
                assert abs(abs(lam) - 1.0) <= 1e-10
                assert np.max(np.abs(out1 - lam * phi1)) <= 1e-10
                assert np.max(np.abs(out2 - np.conj(lam) * theta1)) <= 1e-10


def test_criterion_6_cli_reports(tmp_path, capsys):
    with criterion("criterion 6 addendum, analyze renders the separable report"):
        state = random_state_with_spectrum(np.array([1.0]), 3, 3, np.random.default_rng(60))
        path = tmp_path / "prod.json"
        write_state_file(str(path), state)
        assert main(["analyze", str(path), "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["support_blocks"] == [
            {"start": 0, "size": 1, "value": pytest.approx(1.0)}
        ]
        assert report["null_dims"] == [2, 2]
        assert report["r_counts"] == {"1": 1}
        assert report["oracle_agreement"] is True


def test_criterion_7_undo_protocol():
    with criterion("criterion 7, undo round-trips and cluster-mixing rejections"):
        rng = np.random.default_rng(7)
        for _ in range(100):
            state, _, _ = fuzz_state(rng)
            pair = sample_invariant_pair(invariance_structure(state), rng)
            result = undo_operator(pair.u1, state)
            assert isinstance(result, UnitaryPair)
            assert is_invariant(result, state, tol=1e-10).invariant
        for _ in range(100):
            d1 = int(rng.integers(2, 7))
            d2 = int(rng.integers(2, 7))
            rank = int(rng.integers(2, min(d1, d2) + 1))
            state = random_state_with_spectrum(distinct_spectrum(rng, rank), d1, d2, rng)
            form = schmidt_decompose(state)
            u1 = _mixing_unitary(form, 0, rank - 1)
            assert isinstance(undo_operator(u1, state), NoSolution)


GOLDEN_GEN_ARGS = {
    "bell": ["gen", "bell", "--d1", "2", "--d2", "2"],
    "product": ["gen", "product", "--d1", "2", "--d2", "3", "--seed", "11"],
    "paired-spectrum": [
        "gen", "spectrum", "--d1", "3", "--d2", "3", "--seed", "12",
        "--spectrum", repr(float(np.sqrt(0.45))), repr(float(np.sqrt(0.45))),
        repr(float(np.sqrt(0.10))),
    ],
}


def test_criterion_8_cli_pipeline(tmp_path, capsys):
    with criterion("criterion 8, gen/analyze/sample/verify pipeline on golden states"):
        for name, gen_args in GOLDEN_GEN_ARGS.items():
            state_path = tmp_path / f"{name}.json"
            assert main(gen_args + ["--out", str(state_path)]) == 0
            assert main(["analyze", str(state_path), "--format", "json"]) == 0
            report = json.loads(capsys.readouterr().out.splitlines()[-1])
            assert report["oracle_agreement"] is True

            out1 = tmp_path / f"{name}_pairs"
            out2 = tmp_path / f"{name}_pairs_again"
            sample_args = ["sample", str(state_path), "--count", "4", "--seed", "42"]
            assert main(sample_args + ["--out", str(out1)]) == 0
            assert main(sample_args + ["--out", str(out2)]) == 0
            for i in range(4):
                u1 = out1 / f"pair{i:03d}.u1.json"
                u2 = out1 / f"pair{i:03d}.u2.json"
                assert main(["verify", str(state_path), str(u1), str(u2)]) == 0
                assert u1.read_bytes() == (out2 / u1.name).read_bytes()
                assert u2.read_bytes() == (out2 / u2.name).read_bytes()

        # the paired-spectrum golden state must show exactly one pair and one
        # singleton cluster
        assert main(["analyze", str(tmp_path / "paired-spectrum.json"),
                     "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert report["r_counts"] == {"1": 1, "2": 1}
        assert report["group_dimension"] == 5
