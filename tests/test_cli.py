"""End-to-end tests for the command-line interface."""

import argparse
import json
import warnings

import numpy as np
import pytest

from conftest import HADAMARD
import uli.cli
from uli.cli import main
from uli.io import read_state_file, read_unitary_file, write_state_file, write_unitary_file
from uli import UnitaryPair, state_from_matrix
from uli import cluster_spectrum, schmidt_decompose


@pytest.fixture
def bell_file(tmp_path):
    path = tmp_path / "bell.json"
    write_state_file(str(path), state_from_matrix(np.eye(2, dtype=complex) / np.sqrt(2)))
    return str(path)


@pytest.fixture
def nondegenerate_file(tmp_path):
    path = tmp_path / "diag.json"
    psi = np.diag([np.sqrt(0.8), np.sqrt(0.2)]).astype(complex)
    write_state_file(str(path), state_from_matrix(psi))
    return str(path)


@pytest.fixture(params=["NaN", "Infinity"])
def non_finite_unitary_file(tmp_path, request):
    # Python's json reads these literals as floats; the reader must refuse them
    path = tmp_path / "bad_u.json"
    path.write_text(f'{{"n": 2, "re": [[1, 0], [0, 1]], "im": [[0, 0], [0, {request.param}]]}}')
    return str(path)


class TestAnalyze:
    def test_bell_report(self, bell_file, capsys):
        assert main(["analyze", bell_file, "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["rank"] == 2
        assert report["clusters"] == [
            {"value": pytest.approx(1 / np.sqrt(2)), "multiplicity": 2}
        ]
        assert report["r_counts"] == {"2": 1}
        assert report["group_dimension"] == 4
        assert report["lie_algebra_dimension"] == 4
        assert report["oracle_agreement"] is True
        assert report["null_dims"] == [0, 0]

    def test_separable_report(self, tmp_path, capsys):
        path = tmp_path / "sep.json"
        write_state_file(str(path), state_from_matrix(np.array([[1, 0], [0, 0]], dtype=complex)))
        assert main(["analyze", str(path), "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["r_counts"] == {"1": 1}
        assert report["null_dims"] == [1, 1]
        assert report["group_dimension"] == 3

    def test_gap_and_counts_of_multiplicities_3_1_2(self, tmp_path, capsys):
        sigma = np.array([0.5, 0.5, 0.5, 0.4, np.sqrt(0.045), np.sqrt(0.045)])
        state = state_from_matrix(np.diag(sigma / np.linalg.norm(sigma)).astype(complex))
        path = tmp_path / "mult312.json"
        write_state_file(str(path), state)
        assert main(["analyze", str(path), "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert [c["multiplicity"] for c in report["clusters"]] == [3, 1, 2]
        assert list(report["r_counts"].items()) == [("1", 1), ("2", 1), ("3", 1)]
        spectrum = cluster_spectrum(schmidt_decompose(state).sigma, dims=(6, 6))
        assert report["min_spectral_gap"] == spectrum.min_gap()
        assert main(["analyze", str(path)]) == 0
        assert "tuple counts: r1=1, r2=1, r3=1\n" in capsys.readouterr().out

    def test_text_report_mentions_oracle(self, bell_file, capsys):
        assert main(["analyze", bell_file]) == 0
        out = capsys.readouterr().out
        assert "group dimension: 4" in out
        assert "(agree)" in out

    def test_non_normalized_exits_2_with_norm_on_stderr(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(
            {"d1": 2, "d2": 2, "re": [[1, 0], [0, 1]], "im": [[0, 0], [0, 0]]}
        ))
        assert main(["analyze", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "1.414" in captured.err

    def test_normalize_flag_accepts(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(
            {"d1": 2, "d2": 2, "re": [[1, 0], [0, 1]], "im": [[0, 0], [0, 0]]}
        ))
        assert main(["analyze", str(path), "--normalize"]) == 0

    @pytest.mark.parametrize("scale", [1e200, 1e-160])
    def test_normalize_refuses_overflowing_or_subnormal_norm(self, tmp_path, capsys, scale):
        path = tmp_path / "extreme.json"
        path.write_text(json.dumps(
            {"d1": 2, "d2": 2, "re": [[scale, 0.5 * scale], [0.25 * scale, scale]],
             "im": [[0, 0], [0, 0]]}
        ))
        assert main(["analyze", str(path), "--normalize", "--format", "json"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "cannot normalize" in captured.err

    def test_normalize_names_an_underflowing_norm(self, tmp_path, capsys):
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps(
            {"d1": 2, "d2": 2, "re": [[1e-170, 1e-170], [1e-170, 1e-170]],
             "im": [[0, 0], [0, 0]]}
        ))
        assert main(["analyze", str(path), "--normalize"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "non-zero matrix underflows to 0.0" in captured.err

    @pytest.mark.parametrize("flags, message", [
        ([], "state is not normalized: measured norm inf"),
        (["--normalize"], "cannot normalize: measured norm inf rescales to 0.0"),
    ])
    def test_overflowing_norm_prints_only_the_error_line(self, tmp_path, capsys, flags, message):
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(
            {"d1": 2, "d2": 2, "re": [[1e200, 5e199], [2.5e199, 1e200]], "im": [[0, 0], [0, 0]]}
        ))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["analyze", str(path), *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize("entry", ['"re": [[NaN, 0.8]], "im": [[0, 0]]',
                                       '"re": [[0.6, 0.8]], "im": [[Infinity, 0]]'])
    def test_non_finite_literal_exits_2(self, tmp_path, capsys, entry):
        path = tmp_path / "bad.json"
        path.write_text(f'{{"d1": 1, "d2": 2, {entry}}}')
        assert main(["analyze", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: psi contains non-finite entries\n"

    def test_svd_failure_exits_2(self, bell_file, capsys, failing_svd):
        assert main(["analyze", bell_file]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: SVD did not converge")

    def test_missing_file_exits_2(self, tmp_path, capsys):
        assert main(["analyze", str(tmp_path / "nope.json")]) == 2
        assert capsys.readouterr().out == ""

    def test_non_object_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        assert main(["analyze", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: expected a JSON object at top level\n"

    def test_deeply_nested_file_exits_2(self, tmp_path, capsys):
        # the JSON decoder recurses once per level and raises RecursionError
        path = tmp_path / "nested.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        assert main(["analyze", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: JSON is nested too deeply\n"

    def test_near_degenerate_tolerance_mismatch_exits_3(self, tmp_path, capsys):
        # gap below the clustering tolerance but above the oracle's rank
        # cutoff: the two dimension counts legitimately disagree
        sigma = np.array([0.8, 0.8 * (1 - 1e-9)])
        sigma = sigma / np.linalg.norm(sigma)
        path = tmp_path / "near.json"
        write_state_file(str(path), state_from_matrix(np.diag(sigma).astype(complex)))
        assert main(["analyze", str(path)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "oracle" in captured.err

    def test_zero_tolerance_agrees_with_the_oracle(self, bell_file, capsys):
        assert main(["analyze", bell_file, "--tol", "0", "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["oracle_agreement"] is True

    @pytest.mark.parametrize("flag,value", [
        ("--tol", "nan"), ("--tol", "-1"), ("--tol", "inf"),
        ("--rank-tol", "nan"), ("--rank-tol", "-1"), ("--rank-tol", "1"),
        ("--degeneracy-tol", "nan"), ("--degeneracy-tol", "-1"),
        ("--tol", "1"), ("--degeneracy-tol", "1"),
    ])
    def test_bad_tolerance_flag_is_usage_error(self, bell_file, capsys, flag, value):
        assert main(["analyze", bell_file, f"{flag}={value}"]) == 64
        captured = capsys.readouterr()
        assert captured.out == ""
        assert flag in captured.err


class TestSample:
    def test_pairs_verify_and_reproduce(self, bell_file, tmp_path, capsys):
        out1 = tmp_path / "pairs1"
        out2 = tmp_path / "pairs2"
        assert main(["sample", bell_file, "--count", "3", "--seed", "42",
                     "--out", str(out1)]) == 0
        assert main(["sample", bell_file, "--count", "3", "--seed", "42",
                     "--out", str(out2)]) == 0
        for i in range(3):
            u1 = out1 / f"pair{i:03d}.u1.json"
            u2 = out1 / f"pair{i:03d}.u2.json"
            assert main(["verify", bell_file, str(u1), str(u2)]) == 0
            # identical seed gives byte-identical files
            assert u1.read_bytes() == (out2 / u1.name).read_bytes()
            assert u2.read_bytes() == (out2 / u2.name).read_bytes()

    def test_bell_pairs_are_conjugates(self, bell_file, tmp_path, capsys):
        out = tmp_path / "pairs"
        assert main(["sample", bell_file, "--count", "2", "--seed", "7",
                     "--out", str(out)]) == 0
        for i in range(2):
            u1, _ = read_unitary_file(str(out / f"pair{i:03d}.u1.json"))
            u2, _ = read_unitary_file(str(out / f"pair{i:03d}.u2.json"))
            # bell schmidt basis is the computational basis, so u2 == conj(u1)
            np.testing.assert_allclose(u2, u1.conj(), atol=1e-12)

    def test_pair_failing_reverification_exits_3(self, bell_file, tmp_path, capsys,
                                                  monkeypatch):
        real = uli.cli.sample_invariant_pair
        draws = []

        def second_draw_broken(structure, rng):
            pair = real(structure, rng)
            draws.append(pair)
            # -u1 with u2 maps psi to -psi: a global phase, which is not invariance
            return UnitaryPair(-pair.u1, pair.u2) if len(draws) == 2 else pair

        monkeypatch.setattr(uli.cli, "sample_invariant_pair", second_draw_broken)
        out = tmp_path / "pairs"
        assert main(["sample", bell_file, "--count", "3", "--out", str(out)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "sampled pair 1 fails re-verification" in captured.err
        assert sorted(p.name for p in out.iterdir()) == ["pair000.u1.json", "pair000.u2.json"]

    def test_count_zero_is_usage_error(self, bell_file, tmp_path, capsys):
        code = main(["sample", bell_file, "--count", "0", "--out", str(tmp_path / "x")])
        assert code == 64
        assert capsys.readouterr().out == ""

    def test_negative_seed_is_usage_error(self, bell_file, tmp_path, capsys):
        out = tmp_path / "x"
        assert main(["sample", bell_file, "--seed", "-1", "--out", str(out)]) == 64
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "argument --seed: must be a non-negative integer, got -1" in captured.err
        assert not out.exists()
        assert main(["sample", bell_file, "--seed", "0", "--out", str(out)]) == 0
        assert (out / "pair000.u1.json").exists()


class TestVerify:
    def test_hadamard_pair_on_bell(self, bell_file, tmp_path, capsys):
        u1 = tmp_path / "h1.json"
        u2 = tmp_path / "h2.json"
        write_unitary_file(str(u1), HADAMARD)
        write_unitary_file(str(u2), HADAMARD)
        assert main(["verify", bell_file, str(u1), str(u2)]) == 0
        out = capsys.readouterr().out
        assert "invariant: yes" in out

    def test_phase_pair_fails_with_residual(self, bell_file, tmp_path, capsys):
        u = tmp_path / "p.json"
        write_unitary_file(str(u), np.diag([1.0, 1j]))
        assert main(["verify", bell_file, str(u), str(u), "--format", "json"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["invariant"] is False
        assert report["residual"] == pytest.approx(np.sqrt(2))

    def test_dimension_mismatch_exits_2(self, bell_file, tmp_path, capsys):
        u1 = tmp_path / "u3.json"
        write_unitary_file(str(u1), np.eye(3, dtype=complex))
        assert main(["verify", bell_file, str(u1), str(u1)]) == 2
        assert capsys.readouterr().out == ""

    def test_non_unitary_rejected_unless_lenient(self, bell_file, tmp_path, capsys):
        u = tmp_path / "scaled.json"
        write_unitary_file(str(u), np.eye(2) * (1 + 1e-6))
        assert main(["verify", bell_file, str(u), str(u)]) == 2
        capsys.readouterr()
        assert main(["verify", bell_file, str(u), str(u), "--lenient"]) == 0

    def test_singular_unitary_exits_2_even_when_lenient(self, bell_file, tmp_path, capsys):
        zero = tmp_path / "zero.json"
        write_unitary_file(str(zero), np.zeros((2, 2)))
        assert main(["verify", bell_file, str(zero), str(zero), "--lenient"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "singular" in captured.err

    def test_overflowing_unitary_prints_only_the_error_line(self, bell_file, tmp_path, capsys):
        big = tmp_path / "big.json"
        write_unitary_file(str(big), np.full((2, 2), 1.7e308))
        assert main(["verify", bell_file, str(big), str(big)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: matrix deviates from unitarity by inf "
                                "(tolerance 1.0e-10)\n")

    def test_lenient_overflowing_unitary_is_corrected_without_a_warning(self, bell_file,
                                                                         tmp_path, capsys):
        big = tmp_path / "big.json"
        write_unitary_file(str(big), np.diag([1.7e308, 1.7e308]))
        assert main(["verify", bell_file, str(big), str(big), "--lenient"]) == 0
        captured = capsys.readouterr()
        assert "invariant: yes" in captured.out
        assert captured.err == ""

    def test_lenient_overflowing_singular_values_are_named_an_overflow(self, bell_file,
                                                                      tmp_path, capsys):
        # finite entries whose singular values, about 1.97e308, exceed the float64 range
        big = tmp_path / "big.json"
        write_unitary_file(str(big), np.array([[1.7e308, 1e308], [-1e308, 1.7e308]]))
        assert main(["verify", bell_file, str(big), str(big), "--lenient"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: singular values overflow: "
                                "the largest exceeds the float64 range\n")

    def test_lenient_lapack_failure_exits_2(self, bell_file, tmp_path, capsys, failing_svd):
        scaled = tmp_path / "scaled.json"
        write_unitary_file(str(scaled), np.eye(2) * (1 + 1e-6))
        assert main(["verify", bell_file, str(scaled), str(scaled), "--lenient"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: SVD did not converge")

    def test_non_finite_unitary_exits_2_even_when_lenient(self, bell_file,
                                                          non_finite_unitary_file, capsys):
        assert main(["verify", bell_file, non_finite_unitary_file, non_finite_unitary_file,
                     "--lenient"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: unitary contains non-finite entries\n"

    def test_deeply_nested_unitary_exits_2(self, bell_file, tmp_path, capsys):
        path = tmp_path / "nested_u.json"
        nested = "[" * 100_000 + "]" * 100_000
        path.write_text(f'{{"n": 2, "re": {nested}, "im": [[0, 0], [0, 0]]}}')
        assert main(["verify", bell_file, str(path), str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: JSON is nested too deeply\n"

    def test_only_the_tol_flag_sets_the_decision_tolerance(self, bell_file, tmp_path, capsys,
                                                            monkeypatch):
        u1 = tmp_path / "u1.json"
        u2 = tmp_path / "u2.json"
        # slightly off-invariant pair: phases differing at the 1e-6 level
        eps = 1e-6
        write_unitary_file(str(u1), np.diag([np.exp(1j * eps), 1.0]))
        write_unitary_file(str(u2), np.eye(2, dtype=complex))
        assert main(["verify", bell_file, str(u1), str(u2)]) == 1
        assert main(["verify", bell_file, str(u1), str(u2), "--tol", "1e-3"]) == 0
        capsys.readouterr()
        # an environment variable is no second way to set the default
        monkeypatch.setenv("ULI_DEFAULT_TOL", "1e-3")
        assert main(["verify", bell_file, str(u1), str(u2)]) == 1
        assert "tolerance: 1.0e-10" in capsys.readouterr().out


class TestUndo:
    def test_bell_hadamard(self, bell_file, tmp_path, capsys):
        u1 = tmp_path / "h.json"
        out = tmp_path / "undo.json"
        write_unitary_file(str(u1), HADAMARD)
        assert main(["undo", bell_file, str(u1), "--out", str(out)]) == 0
        u2, _ = read_unitary_file(str(out))
        np.testing.assert_allclose(u2, HADAMARD, atol=1e-12)
        capsys.readouterr()
        assert main(["verify", bell_file, str(u1), str(out)]) == 0

    def test_phase_gates_undo(self, nondegenerate_file, tmp_path, capsys):
        u1 = tmp_path / "phases.json"
        out = tmp_path / "undo.json"
        write_unitary_file(str(u1), np.diag([np.exp(0.4j), np.exp(-0.9j)]))
        assert main(["undo", nondegenerate_file, str(u1), "--out", str(out)]) == 0
        u2, _ = read_unitary_file(str(out))
        np.testing.assert_allclose(u2, np.diag([np.exp(-0.4j), np.exp(0.9j)]), atol=1e-12)

    def test_non_finite_unitary_exits_2(self, bell_file, non_finite_unitary_file, tmp_path,
                                        capsys):
        out = tmp_path / "never.json"
        assert main(["undo", bell_file, non_finite_unitary_file, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: unitary contains non-finite entries\n"
        assert not out.exists()

    def test_singular_unitary_exits_2_even_when_lenient(self, bell_file, tmp_path, capsys):
        zero = tmp_path / "zero.json"
        out = tmp_path / "never.json"
        write_unitary_file(str(zero), np.zeros((2, 2)))
        assert main(["undo", bell_file, str(zero), "--out", str(out), "--lenient"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "singular" in captured.err
        assert not out.exists()

    def test_lenient_reports_the_correction_with_either_answer(self, bell_file,
                                                              nondegenerate_file, tmp_path,
                                                              capsys):
        scaled = tmp_path / "scaled.json"
        out = tmp_path / "undo.json"
        write_unitary_file(str(scaled), np.diag([1.000001, 1.0]))
        assert main(["undo", bell_file, str(scaled), "--out", str(out), "--lenient"]) == 0
        assert capsys.readouterr().out == (f"unitarity correction: u1 1.000e-06\n"
                                           f"wrote undo unitary to {out}\n")
        mixing = tmp_path / "sx.json"
        write_unitary_file(str(mixing), np.array([[0, 1.000001], [1, 0]]))
        assert main(["undo", nondegenerate_file, str(mixing),
                     "--out", str(tmp_path / "never.json"), "--lenient"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "unitarity correction: u1 1.000e-06"
        assert lines[1].startswith("no undo exists: ")

    def test_rank_tolerance_of_one_is_usage_error_and_writes_nothing(self, nondegenerate_file,
                                                                     tmp_path, capsys):
        # at --rank-tol 1 every value would count as zero, and any u1 would read as solvable
        u1 = tmp_path / "sx.json"
        out = tmp_path / "never.json"
        write_unitary_file(str(u1), np.array([[0, 1], [1, 0]], dtype=complex))
        assert main(["undo", nondegenerate_file, str(u1), "--out", str(out)]) == 1
        capsys.readouterr()
        assert main(["undo", nondegenerate_file, str(u1), "--out", str(out),
                     "--rank-tol", "1"]) == 64
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "argument --rank-tol: tolerance must be below 1" in captured.err
        assert not out.exists()

    def test_degeneracy_tolerance_of_one_is_usage_error_and_writes_nothing(
            self, nondegenerate_file, tmp_path, capsys):
        # at --degeneracy-tol 1 the whole support would chain into one cluster
        u1 = tmp_path / "sx.json"
        out = tmp_path / "never.json"
        write_unitary_file(str(u1), np.array([[0, 1], [1, 0]], dtype=complex))
        assert main(["undo", nondegenerate_file, str(u1), "--out", str(out),
                     "--degeneracy-tol", "1"]) == 64
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "argument --degeneracy-tol: tolerance must be below 1" in captured.err
        assert not out.exists()

    def test_residual_tolerance_of_one_is_legal(self, nondegenerate_file, tmp_path, capsys):
        # verify's and undo's --tol bound a residual, so 1 is a loose but valid answer
        u1 = tmp_path / "sx.json"
        out = tmp_path / "undo.json"
        write_unitary_file(str(u1), np.array([[0, 1], [1, 0]], dtype=complex))
        assert main(["verify", nondegenerate_file, str(u1), str(u1), "--tol", "1"]) == 0
        assert main(["undo", nondegenerate_file, str(u1), "--out", str(out), "--tol", "1"]) == 0
        assert out.exists()

    def test_answer_that_fails_re_verification_exits_3_and_writes_nothing(self, tmp_path,
                                                                          capsys):
        # --degeneracy-tol 0.5 merges the Schmidt values 0.8 and 0.6, so a Hadamard in the
        # Schmidt basis solves the clustered spectrum but leaves the state changed
        state_path = tmp_path / "s.json"
        assert main(["gen", "spectrum", "--d1", "2", "--d2", "2", "--spectrum", "0.8", "0.6",
                     "--seed", "0", "--out", str(state_path)]) == 0
        s1 = schmidt_decompose(read_state_file(str(state_path))).s1
        u1 = tmp_path / "u1.json"
        out = tmp_path / "never.json"
        write_unitary_file(str(u1), s1.T @ HADAMARD @ s1.conj())
        capsys.readouterr()
        assert main(["undo", str(state_path), str(u1), "--out", str(out),
                     "--degeneracy-tol", "0.5"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: undo unitary fails re-verification (residual ")
        assert not out.exists()

    def test_cluster_mixing_exits_1_with_diagnostic(self, nondegenerate_file, tmp_path, capsys):
        u1 = tmp_path / "sx.json"
        write_unitary_file(str(u1), np.array([[0, 1], [1, 0]], dtype=complex))
        assert main(["undo", nondegenerate_file, str(u1),
                     "--out", str(tmp_path / "never.json")]) == 1
        out = capsys.readouterr().out
        assert "off-block mass" in out
        assert not (tmp_path / "never.json").exists()


class TestGen:
    def test_bell(self, tmp_path, capsys):
        out = tmp_path / "bell.json"
        assert main(["gen", "bell", "--d1", "2", "--d2", "2", "--out", str(out)]) == 0
        obj = json.loads(out.read_text())
        np.testing.assert_allclose(obj["re"], np.eye(2) / np.sqrt(2))

    def test_product_has_rank_one(self, tmp_path, capsys):
        out = tmp_path / "prod.json"
        assert main(["gen", "product", "--d1", "2", "--d2", "3", "--seed", "5",
                     "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["analyze", str(out), "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["rank"] == 1

    def test_spectrum_round_trips_through_analyze(self, tmp_path, capsys):
        out = tmp_path / "spectral.json"
        root = np.sqrt(0.5)
        assert main(["gen", "spectrum", "--d1", "3", "--d2", "3",
                     "--spectrum", str(root), str(root), "0.0",
                     "--seed", "3", "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["analyze", str(out), "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["r_counts"] == {"2": 1}
        assert report["null_dims"] == [1, 1]
        assert report["sigma"][0] == pytest.approx(root, abs=1e-12)

    def test_failed_allocation_exits_2(self, tmp_path, capsys, monkeypatch):
        def unable(*args):
            raise MemoryError("Unable to allocate 728. TiB")

        # nothing is allocated: the draw fails as numpy's would at this size
        monkeypatch.setattr(uli.cli, "random_state_with_spectrum", unable)
        out = tmp_path / "huge.json"
        assert main(["gen", "spectrum", "--d1", "10000000", "--d2", "1", "--spectrum", "1",
                     "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: Unable to allocate 728. TiB\n"
        assert not out.exists()

    def test_invalid_spectrum_exits_2(self, tmp_path, capsys):
        code = main(["gen", "spectrum", "--d1", "2", "--d2", "2",
                     "--spectrum", "0.9", "0.9", "--out", str(tmp_path / "x.json")])
        assert code == 2
        assert capsys.readouterr().out == ""

    def test_spectrum_without_values_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "s.json"
        assert main(["gen", "spectrum", "--d1", "2", "--d2", "2", "--out", str(out)]) == 64
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "requires --spectrum" in captured.err
        assert not out.exists()

    def test_haar_random_is_normalized(self, tmp_path, capsys):
        out = tmp_path / "haar.json"
        assert main(["gen", "haar-random", "--d1", "4", "--d2", "5", "--seed", "1",
                     "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["analyze", str(out)]) == 0

    def test_haar_random_schmidt_law(self, monkeypatch, capsys):
        # For a Haar state on 2 x 2, t = lambda1 - lambda2 (lambda = sigma^2) has the
        # density 3t^2 on [0, 1] (Zyczkowski & Sommers 2001), so its CDF is t^3, its mean
        # 3/4 and its variance 3/80. Seeds, N and both bounds were fixed before any run:
        # 1.63/sqrt(N) is the 1% critical value of the Kolmogorov-Smirnov statistic.
        n = 20_000
        states = []
        monkeypatch.setattr(uli.cli, "write_state_file", lambda path, state: states.append(state))
        for seed in range(n):
            uli.cli.cmd_gen(argparse.Namespace(kind="haar-random", d1=2, d2=2, spectrum=None,
                                               seed=seed, out="unused.json"))
        capsys.readouterr()
        sigma = np.linalg.svd(np.stack([s.psi for s in states]), compute_uv=False)
        t = np.sort(sigma[:, 0] ** 2 - sigma[:, 1] ** 2)
        cdf = t**3
        ks = max(np.max(np.arange(1, n + 1) / n - cdf), np.max(cdf - np.arange(n) / n))
        assert ks < 1.63 / np.sqrt(n)
        assert abs(t.mean() - 0.75) < 5 * np.sqrt(3 / 80 / n)

    def test_negative_seed_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "bell.json"
        assert main(["gen", "bell", "--d1", "2", "--d2", "2", "--seed", "-3",
                     "--out", str(out)]) == 64
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "argument --seed: must be a non-negative integer, got -3" in captured.err
        assert not out.exists()
        assert main(["gen", "bell", "--d1", "2", "--d2", "2", "--seed", "0",
                     "--out", str(out)]) == 0
        assert out.exists()

    def test_bell_builds_no_generator(self, tmp_path, monkeypatch):
        def no_draw(*args):
            raise AssertionError("gen bell built a random generator")

        monkeypatch.setattr(np.random, "default_rng", no_draw)
        out = tmp_path / "bell.json"
        assert main(["gen", "bell", "--d1", "2", "--d2", "2", "--out", str(out)]) == 0
        assert out.read_text() == ('{"d1": 2, "d2": 2, '
                                   '"re": [[0.7071067811865475, 0.0], [0.0, 0.7071067811865475]], '
                                   '"im": [[0.0, 0.0], [0.0, 0.0]]}\n')


class TestUsage:
    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 64

    @pytest.mark.parametrize("argv, flag, text", [
        (["gen", "bell", "--d1", "x", "--d2", "2"], "--d1", "'x'"),
        (["gen", "bell", "--d1", "2", "--d2", "2", "--seed", "x"], "--seed", "'x'"),
        (["sample", "STATE", "--count", "1.5"], "--count", "'1.5'"),
        (["sample", "STATE", "--seed", "x"], "--seed", "'x'"),
    ])
    def test_non_integer_flag_names_the_flag_not_the_parser(self, bell_file, tmp_path, capsys,
                                                            argv, flag, text):
        out = tmp_path / "out"
        argv = [bell_file if a == "STATE" else a for a in argv]
        assert main([*argv, "--out", str(out)]) == 64
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument {flag}: must be an integer, got {text}" in captured.err
        assert "_positive_int" not in captured.err and "_seed" not in captured.err
        assert not out.exists()

    def test_missing_required_argument(self, capsys):
        assert main(["sample"]) == 64

    def test_stdin_state(self, bell_file, capsys, monkeypatch):
        import io as _io
        with open(bell_file) as fh:
            monkeypatch.setattr("sys.stdin", _io.StringIO(fh.read()))
        assert main(["analyze", "-", "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["rank"] == 2


class TestOneStdinInput:
    @pytest.mark.parametrize("argv", [
        ["undo", "-", "-", "--out", "OUT"],
        ["verify", "-", "-", "-"],
        ["verify", "STATE", "-", "-"],
        ["verify", "-", "STATE", "-"],
    ])
    def test_second_dash_is_usage_error_before_reading(self, bell_file, tmp_path, capsys,
                                                       monkeypatch, argv):
        class UnreadableStdin:
            def read(self, *args):
                raise AssertionError("stdin was read")

        monkeypatch.setattr("sys.stdin", UnreadableStdin())
        out = tmp_path / "o.json"
        argv = [{"STATE": bell_file, "OUT": str(out)}.get(a, a) for a in argv]
        assert main(argv) == 64
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: only one input can come from stdin (-)\n"
        assert not out.exists()

    def test_one_dash_may_be_any_input(self, bell_file, tmp_path, capsys, monkeypatch):
        import io as _io
        u = tmp_path / "x.json"
        write_unitary_file(str(u), np.array([[0, 1], [1, 0]], dtype=complex))
        with open(bell_file) as fh:
            monkeypatch.setattr("sys.stdin", _io.StringIO(fh.read()))
        assert main(["undo", "-", str(u), "--out", str(tmp_path / "o.json")]) == 0
        monkeypatch.setattr("sys.stdin", _io.StringIO(u.read_text()))
        assert main(["verify", bell_file, str(u), "-"]) == 0
        assert "invariant: yes" in capsys.readouterr().out


class TestGenSpectrumFlag:
    @pytest.mark.parametrize("kind", ["bell", "product", "haar-random"])
    def test_spectrum_with_another_kind_is_usage_error(self, tmp_path, capsys, kind):
        out = tmp_path / "g.json"
        assert main(["gen", kind, "--d1", "2", "--d2", "2", "--spectrum", "0.6", "0.8",
                     "--out", str(out)]) == 64
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --spectrum applies only to kind=spectrum\n"
        assert not out.exists()
