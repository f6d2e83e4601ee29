"""Digest of the pair files ``sample`` writes for a fixed seed.

The same state and seed are written twice: through the library calls
``uli sample`` makes, in this process, and by ``python -m uli.cli sample`` in
a fresh interpreter. Both file sets must hash the same. The digest is printed
so that a change in the written bits shows from run to run and from commit to
commit; ``REFERENCE`` is the digest recorded when the benchmark was written
(numpy 2.4.6 with OpenBLAS 0.3.31 on x86-64). A mismatch with it is reported,
not failed, because other BLAS builds may round differently.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys

import numpy as np

from harness import child_env
from inputs import make_state, rng_for
from uli import invariance_structure, is_invariant, sample_invariant_pair
from uli.io import read_state_file, write_state_file, write_unitary_file

DIGEST_SEED = 20050202
PAIRS = 4
SAMPLE_SEED = 0

REFERENCE = "3fe2b7edecacbbda00d35fd1284dab6aaf4cfbd25ff56e3e46bd6da478997978"


def _write_state(out_dir: str) -> str:
    item = make_state("deficient", 8, 6, rng_for(DIGEST_SEED))
    path = os.path.join(out_dir, "state.json")
    write_state_file(path, item.state)
    return path


def _hash_pairs(pairs_dir: str) -> str:
    h = hashlib.sha256()
    for name in sorted(os.listdir(pairs_dir)):
        h.update(name.encode())
        with open(os.path.join(pairs_dir, name), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def fixed_seed_digest(out_dir: str) -> str:
    """Mirror of ``uli sample state --count 4 --seed 0`` through library calls."""
    state = read_state_file(_write_state(out_dir))
    structure = invariance_structure(state)
    rng = np.random.default_rng(SAMPLE_SEED)
    pairs_dir = os.path.join(out_dir, "pairs")
    os.makedirs(pairs_dir)
    for i in range(PAIRS):
        pair = sample_invariant_pair(structure, rng)
        if not is_invariant(pair, state).invariant:
            raise RuntimeError(f"fixed-seed pair {i} does not verify")
        write_unitary_file(os.path.join(pairs_dir, f"pair{i:03d}.u1.json"), pair.u1)
        write_unitary_file(os.path.join(pairs_dir, f"pair{i:03d}.u2.json"), pair.u2)
    return _hash_pairs(pairs_dir)


def fixed_seed_digest_in_child(out_dir: str) -> str:
    """The same files written by the command line in a fresh interpreter."""
    state = _write_state(out_dir)
    pairs_dir = os.path.join(out_dir, "pairs")
    subprocess.run(
        [sys.executable, "-m", "uli.cli", "sample", state, "--count", str(PAIRS),
         "--seed", str(SAMPLE_SEED), "--out", pairs_dir],
        env=child_env(), check=True, capture_output=True, timeout=60,
    )
    return _hash_pairs(pairs_dir)
