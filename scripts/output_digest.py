#!/usr/bin/env python3
"""Print a digest of every `uli` command's output on a fixed corpus.

Writes eight states with `uli gen` into a temporary directory, then runs
`analyze`, `sample`, `verify` and `undo` on each of them in-process through
``uli.cli.main``, and `verify --lenient` and `undo --lenient` on a sampled
pair scaled off unitarity by 1e-7. Each command prints one line: its exit
code, the sha256 of its stdout, its stderr and the files it wrote, and its
arguments. Two trees of the toolkit print the same lines exactly when every
command keeps its exit code and its bytes, so running this script before
and after a change checks that the change moved no output. The bits depend
on the BLAS build, so compare digests taken on one machine. Exits 1 when a
command's exit code is not the one the README documents for that input.

Usage: PYTHONPATH=src python -W error scripts/output_digest.py
"""

import contextlib
import hashlib
import io
import os
import sys
import tempfile

import numpy as np

from uli.cli import main as uli_main
from uli.io import read_unitary_file, write_unitary_file
from uli.matkernel import haar_unitary

# At --tol 0 the oracle asks "exactly zero?", so a state whose equal or zero
# Schmidt values come back from the SVD a few ulps off may mismatch (exit 3)
ROUNDING = (0, 3)

# name, `uli gen` arguments, and the exits allowed for the commands whose answer
# depends on the state: `analyze` at the loose tolerances and at --tol 0
# (0 agree, 3 oracle mismatch), and `undo` of a Haar u1 (0 solved, 1 no solution)
CORPUS = [
    ("bell-3x3", ["bell", "--d1", "3", "--d2", "3"], (0,), (0,), (0,)),
    ("haar-4x6", ["haar-random", "--d1", "4", "--d2", "6", "--seed", "1"], (3,), (0,), (1,)),
    ("haar-1x5", ["haar-random", "--d1", "1", "--d2", "5", "--seed", "2"], (0,), (0,), (0,)),
    ("haar-5x1", ["haar-random", "--d1", "5", "--d2", "1", "--seed", "3"], (0,), (0,), (1,)),
    ("planted-5x4", ["spectrum", "--d1", "5", "--d2", "4", "--seed", "4", "--spectrum",
                     "0.6", "0.6", "0.4", "0.34641016151377546"], (3,), ROUNDING, (1,)),
    ("deficient-6x3", ["spectrum", "--d1", "6", "--d2", "3", "--seed", "5",
                       "--spectrum", "0.8", "0.6"], (3,), ROUNDING, (1,)),
    ("product-1x1", ["product", "--d1", "1", "--d2", "1", "--seed", "6"], (0,), (0,), (0,)),
    # s1 and every sampled u1 are 130 x 130, more than one write chunk (uli.io.CHUNK)
    ("haar-130x2", ["haar-random", "--d1", "130", "--d2", "2", "--seed", "7"], (3,), (0,), (1,)),
]
LOOSE = ["--rank-tol", "0.3", "--degeneracy-tol", "0.5"]


def run(argv, expected, outputs=()):
    """Run one command in-process; print its digest line and return whether its exit was right."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = uli_main(argv)
    digest = hashlib.sha256(out.getvalue().encode() + b"\0" + err.getvalue().encode())
    for path in filter(os.path.exists, outputs):
        names = sorted(os.listdir(path)) if os.path.isdir(path) else [""]
        for name in names:
            with open(os.path.join(path, name) if name else path, "rb") as f:
                digest.update(b"\0" + os.path.join(path, name).encode() + b"\0" + f.read())
    ok = code in expected
    flag = "" if ok else f"  UNEXPECTED (documented exit {' or '.join(map(str, expected))})"
    print(f"exit {code}  {digest.hexdigest()}  {' '.join(argv)}{flag}")
    return ok


def digest_state(name, gen_args, loose_exit, tol0_exit, haar_undo_exit):
    state = f"{name}.json"
    ok = run(["gen", *gen_args, "--out", state], (0,), [state])
    for flags, expected in (([], (0,)), (LOOSE, loose_exit), (["--tol", "0"], tol0_exit)):
        for fmt in ("text", "json"):
            ok &= run(["analyze", state, *flags, "--format", fmt], expected)
    pairs = f"{name}-pairs"
    ok &= run(["sample", state, "--count", "3", "--seed", "9", "--out", pairs], (0,), [pairs])
    d1, d2 = int(gen_args[2]), int(gen_args[4])
    rng = np.random.default_rng(d1 * 10 + d2)
    haar = {side: f"{name}-haar.{side}.json" for side in ("u1", "u2")}
    write_unitary_file(haar["u1"], haar_unitary(d1, rng))
    write_unitary_file(haar["u2"], haar_unitary(d2, rng))
    sampled = {side: os.path.join(pairs, f"pair000.{side}.json") for side in ("u1", "u2")}
    for pair, expected in ((sampled, (0,)), (haar, (1,))):
        for fmt in ("text", "json"):
            ok &= run(["verify", state, pair["u1"], pair["u2"], "--format", fmt], expected)
    for u1, expected in ((sampled["u1"], (0,)), (haar["u1"], haar_undo_exit)):
        undone = u1.replace(".u1.json", ".undo.json")
        ok &= run(["undo", state, u1, "--out", undone], expected, [undone])
    # off unitarity by 1e-7, beyond the 1e-10 check, so only --lenient reads it
    scaled = {side: f"{name}-scaled.{side}.json" for side in ("u1", "u2")}
    for side in ("u1", "u2"):
        write_unitary_file(scaled[side], read_unitary_file(sampled[side])[0] * (1 + 1e-7))
    ok &= run(["verify", state, scaled["u1"], scaled["u2"], "--lenient"], (0,))
    undone = f"{name}-scaled.undo.json"
    ok &= run(["undo", state, scaled["u1"], "--out", undone, "--lenient"], (0,), [undone])
    return ok


def main():
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)  # relative paths keep the temporary directory's name out of every output
        try:
            # a list, not a generator: every state runs even after a failure
            ok = all([digest_state(*entry) for entry in CORPUS])
        finally:
            os.chdir(home)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
