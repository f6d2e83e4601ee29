"""Command-line front end.

Subcommands: ``analyze`` (stabilizer report for a state file), ``sample``
(draw invariant pairs), ``verify`` (check a pair against a state), ``undo``
(solve for the compensating unitary), ``gen`` (write test states).

Exit codes: 0 success or invariant, 1 well-formed negative answer, 2 input
error, 3 internal oracle mismatch or failed re-verification, 64 usage error.
Failure diagnostics go to stderr only.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys

import numpy as np

from .bipartite import random_state_with_spectrum, state_from_matrix
from .config import (
    DEFAULT_DECISION_TOL,
    DEFAULT_DEGENERACY_TOL,
    DEFAULT_RANK_TOL,
    check_cutoff,
    check_tolerance,
)
from .errors import ToolkitError
from .io import (
    _matrix_payload,
    dump_json,
    read_state_file,
    read_unitary_file,
    write_state_file,
    write_unitary_file,
)
from .invariance import (
    NoSolution,
    UnitaryPair,
    commutant_check,
    group_dimension,
    invariance_structure,
    is_invariant,
    lie_algebra_dimension,
    sample_invariant_pair,
    undo_operator,
)
from .matkernel import rect_diag

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2
EXIT_ORACLE = 3
EXIT_USAGE = 64


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage; the exit-code scheme reserves 2 for
    # input errors, so usage problems exit 64 instead.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _int_at_least(text: str, low: int, kind: str) -> int:
    try:
        value = int(text)
    except ValueError:  # argparse would name this parser's private type function
        raise argparse.ArgumentTypeError(f"must be an integer, got {text!r}") from None
    if value < low:
        raise argparse.ArgumentTypeError(f"must be a {kind} integer, got {value}")
    return value


def _positive_int(text: str) -> int:
    return _int_at_least(text, 1, "positive")


def _seed(text: str) -> int:
    return _int_at_least(text, 0, "non-negative")


def _tolerance(text: str, check=check_tolerance) -> float:
    try:
        return check(text, "tolerance")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _cutoff(text: str) -> float:
    return _tolerance(text, check_cutoff)


def _add_common(parser, *, tol=None, structure=False, fmt=False, lenient=False):
    if structure:
        parser.add_argument("--rank-tol", type=_cutoff, default=DEFAULT_RANK_TOL,
                            help="relative cutoff separating zero singular values")
        parser.add_argument("--degeneracy-tol", type=_cutoff, default=DEFAULT_DEGENERACY_TOL,
                            help="relative gap below which singular values cluster")
    if tol is not None:
        parser.add_argument("--tol", type=tol, default=DEFAULT_DECISION_TOL,
                            help="decision tolerance (default %(default)s)")
    parser.add_argument("--normalize", action="store_true",
                        help="rescale a non-normalized input state")
    if lenient:
        parser.add_argument("--lenient", action="store_true",
                            help="re-unitarize near-unitary input and report the correction")
    if fmt:
        parser.add_argument("--format", choices=("text", "json"), default="text")


def _build_parser() -> _Parser:
    parser = _Parser(prog="uli",
                     description="Local-unitary stabilizer toolkit for bipartite pure states")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("analyze", help="report the stabilizer structure of a state")
    p.add_argument("state", help="state file path, or - for stdin")
    _add_common(p, tol=_cutoff, structure=True, fmt=True)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("sample", help="draw invariant unitary pairs")
    p.add_argument("state", help="state file path, or - for stdin")
    p.add_argument("--count", type=_positive_int, default=1)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", required=True, help="output directory for pair files")
    _add_common(p, structure=True)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("verify", help="check whether a pair leaves a state invariant")
    p.add_argument("state", help="state file path, or - for stdin")
    p.add_argument("u1", help="unitary file for subsystem 1")
    p.add_argument("u2", help="unitary file for subsystem 2")
    _add_common(p, tol=_tolerance, fmt=True, lenient=True)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("undo", help="solve for the unitary undoing a local operation")
    p.add_argument("state", help="state file path, or - for stdin")
    p.add_argument("u1", help="unitary file for subsystem 1")
    p.add_argument("--out", required=True, help="output path for the solved unitary")
    _add_common(p, tol=_tolerance, structure=True, lenient=True)
    p.set_defaults(func=cmd_undo)

    p = sub.add_parser("gen", help="write a test state file")
    p.add_argument("kind", choices=("bell", "product", "spectrum", "haar-random"))
    p.add_argument("--d1", type=_positive_int, required=True)
    p.add_argument("--d2", type=_positive_int, required=True)
    p.add_argument("--spectrum", type=float, nargs="+", default=None,
                   help="singular values for kind=spectrum (squares must sum to 1)")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen)

    return parser


def _analysis_payload(state, structure, gdim, odim) -> dict:
    spectrum = structure.spectrum
    sch = structure.schmidt
    return {
        "d1": state.d1,
        "d2": state.d2,
        "input_norm": state.input_norm,
        "sigma": sch.sigma.tolist(),
        "rank": spectrum.rank,
        "clusters": [{"value": v, "multiplicity": m} for v, m in spectrum.clusters],
        "r_counts": {str(k): v for k, v in spectrum.r_counts.items()},
        "min_spectral_gap": spectrum.min_gap(),
        "null_dims": list(spectrum.null_dims),
        "support_blocks": [
            {"start": b.start, "size": b.size, "value": v}
            for b, (v, _) in zip(structure.blocks, spectrum.clusters)
        ],
        "coupling_rule": "side-2 support blocks are the conjugates of the side-1 blocks; "
                         "null blocks are free and independent",
        "group_dimension": gdim,
        "lie_algebra_dimension": odim,
        "oracle_agreement": gdim == odim,
        "schmidt_basis_side1": _matrix_payload(sch.s1),
        "schmidt_basis_side2": _matrix_payload(sch.s2),
    }


def _print_analysis_text(payload, structure, out) -> None:
    sch = structure.schmidt
    gap = payload["min_spectral_gap"]
    print(f"state: {payload['d1']}x{payload['d2']} (input norm {payload['input_norm']:.12g})",
          file=out)
    print("schmidt spectrum:", ", ".join(f"{s:.12g}" for s in payload["sigma"]), file=out)
    print(f"rank: {payload['rank']}, null dims: ({payload['null_dims'][0]}, "
          f"{payload['null_dims'][1]})", file=out)
    clusters = ", ".join(f"{c['value']:.12g} x{c['multiplicity']}" for c in payload["clusters"])
    print(f"clusters (value x multiplicity): {clusters}", file=out)
    counts = ", ".join(f"r{k}={v}" for k, v in payload["r_counts"].items())
    print(f"tuple counts: {counts}", file=out)
    print(f"min spectral gap: {'n/a' if gap is None else format(gap, '.6g')}", file=out)
    print("stabilizer blocks in the schmidt basis:", file=out)
    for b in payload["support_blocks"]:
        print(f"  support block at {b['start']}, size {b['size']} "
              f"(side-2 block = conjugate of side-1 block)", file=out)
    n1, n2 = payload["null_dims"]
    print(f"  null block side 1: {'none' if n1 == 0 else f'free unitary of size {n1}'}", file=out)
    print(f"  null block side 2: {'none' if n2 == 0 else f'free unitary of size {n2}'}", file=out)
    print("original basis: u_j = s_j.T @ r_j @ s_j.conj() with schmidt vectors "
          "in the rows of", file=out)
    print("s1 =", np.array2string(sch.s1, precision=6, suppress_small=True), file=out)
    print("s2 =", np.array2string(sch.s2, precision=6, suppress_small=True), file=out)
    agree = "agree" if payload["oracle_agreement"] else "MISMATCH"
    print(f"group dimension: {payload['group_dimension']}", file=out)
    print(f"lie-algebra oracle: {payload['lie_algebra_dimension']} ({agree})", file=out)


def cmd_analyze(args) -> int:
    state = read_state_file(args.state, normalize=args.normalize)
    structure = invariance_structure(state, rank_tol=args.rank_tol,
                                     degeneracy_tol=args.degeneracy_tol)
    gdim = group_dimension(structure)
    odim = lie_algebra_dimension(state, tol=args.tol)
    payload = _analysis_payload(state, structure, gdim, odim)

    agree = payload["oracle_agreement"]
    out = sys.stdout if agree else sys.stderr
    if args.format == "json":
        dump_json(payload, out)
    else:
        _print_analysis_text(payload, structure, out)
    if not agree:
        print("error: stabilizer dimension disagrees with the lie-algebra oracle; "
              "the spectrum is likely near a degeneracy boundary at these tolerances",
              file=sys.stderr)
        return EXIT_ORACLE
    return EXIT_OK


def cmd_sample(args) -> int:
    state = read_state_file(args.state, normalize=args.normalize)
    structure = invariance_structure(state, rank_tol=args.rank_tol,
                                     degeneracy_tol=args.degeneracy_tol)
    rng = np.random.default_rng(args.seed)
    os.makedirs(args.out, exist_ok=True)
    for i in range(args.count):
        pair = sample_invariant_pair(structure, rng)
        check = is_invariant(pair, state, tol=DEFAULT_DECISION_TOL)
        if not check.invariant:
            print(f"error: sampled pair {i} fails re-verification "
                  f"(residual {check.residual:.3e})", file=sys.stderr)
            return EXIT_ORACLE
        write_unitary_file(os.path.join(args.out, f"pair{i:03d}.u1.json"), pair.u1)
        write_unitary_file(os.path.join(args.out, f"pair{i:03d}.u2.json"), pair.u2)
    print(f"wrote {args.count} invariant pair(s) to {args.out}")
    return EXIT_OK


def cmd_verify(args) -> int:
    state = read_state_file(args.state, normalize=args.normalize)
    u1, corr1 = read_unitary_file(args.u1, lenient=args.lenient)
    u2, corr2 = read_unitary_file(args.u2, lenient=args.lenient)
    pair = UnitaryPair(u1=u1, u2=u2)
    check = is_invariant(pair, state, tol=args.tol)
    comm = commutant_check(pair, state, tol=args.tol)

    if args.format == "json":
        payload = {
            "invariant": check.invariant,
            "residual": check.residual,
            "commutant_residual_1": comm.residual1,
            "commutant_residual_2": comm.residual2,
            "commutant_ok_1": comm.side1,
            "commutant_ok_2": comm.side2,
            "tolerance": args.tol,
            "unitarity_correction_u1": corr1,
            "unitarity_correction_u2": corr2,
        }
        dump_json(payload, sys.stdout)
    else:
        print(f"invariance residual: {check.residual:.6e}")
        print(f"commutant residual side 1: {comm.residual1:.6e}")
        print(f"commutant residual side 2: {comm.residual2:.6e}")
        if corr1 > 0 or corr2 > 0:
            print(f"unitarity corrections: u1 {corr1:.3e}, u2 {corr2:.3e}")
        print(f"tolerance: {args.tol:.1e}")
        print(f"invariant: {'yes' if check.invariant else 'no'}")
    return EXIT_OK if check.invariant else EXIT_NEGATIVE


def cmd_undo(args) -> int:
    state = read_state_file(args.state, normalize=args.normalize)
    u1, corr1 = read_unitary_file(args.u1, lenient=args.lenient)
    result = undo_operator(u1, state, tol=args.tol, rank_tol=args.rank_tol,
                           degeneracy_tol=args.degeneracy_tol)
    if corr1 > 0:
        print(f"unitarity correction: u1 {corr1:.3e}")
    if isinstance(result, NoSolution):
        print(f"no undo exists: off-block mass {result.off_block_mass:.6e} "
              f"exceeds tolerance {args.tol:.1e}")
        return EXIT_NEGATIVE
    # a loose --degeneracy-tol can solve the clustered spectrum but not the state
    check = is_invariant(result, state, tol=args.tol)
    if not check.invariant:
        print(f"error: undo unitary fails re-verification (residual {check.residual:.3e})",
              file=sys.stderr)
        return EXIT_ORACLE
    write_unitary_file(args.out, result.u2)
    print(f"wrote undo unitary to {args.out}")
    return EXIT_OK


def cmd_gen(args) -> int:
    if args.spectrum is not None and args.kind != "spectrum":
        print("error: --spectrum applies only to kind=spectrum", file=sys.stderr)
        return EXIT_USAGE
    # bell draws nothing, so it builds no generator and never imports numpy.random
    rng = None if args.kind == "bell" else np.random.default_rng(args.seed)
    d1, d2 = args.d1, args.d2
    if args.kind == "bell":
        d = min(d1, d2)
        psi = rect_diag(np.full(d, 1.0 / np.sqrt(d)), d1, d2)
        state = state_from_matrix(psi)
    elif args.kind == "product":
        state = random_state_with_spectrum(np.array([1.0]), d1, d2, rng)
    elif args.kind == "haar-random":
        v = rng.standard_normal(d1 * d2) + 1j * rng.standard_normal(d1 * d2)
        state = state_from_matrix((v / np.linalg.norm(v)).reshape(d1, d2))
    else:
        if args.spectrum is None:
            print("error: kind=spectrum requires --spectrum", file=sys.stderr)
            return EXIT_USAGE
        sigma = np.asarray(sorted(args.spectrum, reverse=True), dtype=float)
        state = random_state_with_spectrum(sigma[sigma != 0], d1, d2, rng)
    write_state_file(args.out, state)
    print(f"wrote {d1}x{d2} state to {args.out}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    # stdin can be read once, so a second - would read an empty stream
    if [getattr(args, name, None) for name in ("state", "u1", "u2")].count("-") > 1:
        print("error: only one input can come from stdin (-)", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except (ToolkitError, OSError, ValueError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def run() -> int:
    """Process entry point of ``uli`` and ``python -m uli.cli``: ``main()``, then the exit code.

    Freezing the collector moves every tracked object into the permanent
    generation, which the collections at interpreter shutdown skip, so the
    process does not sweep and free what the OS reclaims at exit anyway.
    Stdio flushing, atexit handlers and the exit status keep their normal
    path. Frozen objects are never collected again, so code that goes on
    running in the same interpreter calls ``main()`` instead.
    """
    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(run())
