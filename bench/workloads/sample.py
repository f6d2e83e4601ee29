"""``sample``: one op is one pair of ``uli sample``.

An op draws an invariant pair, re-verifies it at tol 1e-10 and writes both
unitaries as JSON. Writing takes almost all of the op, so this is the
write-heavy use of ``io``; the oracle never runs. The structure of each state
is computed once per run, inside the timed window.

Every write goes to a path that did not exist before: rewriting an existing
file on ext4 costs tens of milliseconds (the filesystem flushes a file that
was truncated and rewritten on close), which would swamp the toolkit's own
time. That overwrite cost is deliberately not measured. Finished batches of
files are deleted with the clock stopped.
"""

from __future__ import annotations

import os
import shutil

import numpy as np

from digest import REFERENCE, fixed_seed_digest, fixed_seed_digest_in_child
from harness import Recorder, WorkloadBase, cycle, fresh_dir, median_time_ms, weighted_per_op
from inputs import make_state, rng_for
from uli import haar_unitary, invariance_structure, is_invariant, sample_invariant_pair
from uli.io import read_state_file, write_state_file, write_unitary_file

VERIFY_TOL = 1e-10
BATCH = 256

# (d1, d2), equal weights: p50 falls inside 48x48 and p90 inside 64x64.
CLASSES = [((16, 16), 4), ((32, 24), 4), ((48, 48), 4), ((64, 48), 4), ((64, 64), 4)]
STATES_PER_CLASS = 2


def _haar_sizes(structure) -> list[int]:
    """Sizes of the ``haar_unitary`` draws ``sample_invariant_pair`` makes."""
    n1, n2 = structure.null_dims
    return [b.size for b in structure.blocks] + [n for n in (n1, n2) if n > 0]


class Workload(WorkloadBase):
    def prepare(self, rec: Recorder) -> None:
        self.items = []  # (StateInput, path)
        in_dir = fresh_dir(self.dir, "inputs")
        variants = []
        for c, ((d1, d2), _) in enumerate(CLASSES):
            keys = []
            for k in range(STATES_PER_CLASS):
                item = make_state("deficient", d1, d2, rng_for(self.seed, 2, c, k))
                path = os.path.join(in_dir, f"state_{d1}x{d2}_{k}.json")
                with rec.span("io.write_state_file"):
                    write_state_file(path, item.state)
                keys.append(len(self.items))
                self.items.append((item, path))
            variants.append(keys)
        self.order = cycle(variants, [w for _, w in CLASSES])
        self.block = sum(w for _, w in CLASSES)
        self.phase = 0

    def warm_up(self) -> list[bool]:
        """One op on every state."""
        probe = Recorder(False)
        self.begin(probe)
        return [self.run(k, k, probe) for k in range(len(self.items))]

    def begin(self, rec: Recorder) -> None:
        """Read every state and compute its structure once; fresh rngs and output."""
        self.phase += 1
        self.out = fresh_dir(self.dir, f"out{self.phase}")
        self.batch_dir = None
        self.loaded = []
        for k, (_, path) in enumerate(self.items):
            with rec.span("io.read_state_file"):
                state = read_state_file(path)
            with rec.span("invariance.invariance_structure"):
                structure = invariance_structure(state)
            rec.count("io.read.bytes", os.path.getsize(path))
            self.loaded.append((state, structure, rng_for(self.seed, 3, k)))

    def housekeeping(self, i: int) -> None:
        if (i + 1) % BATCH == 0:
            shutil.rmtree(self.batch_dir)
            self.batch_dir = None

    def run(self, key: int, i: int, rec: Recorder) -> bool:
        state, structure, rng = self.loaded[key]
        if self.batch_dir is None:
            self.batch_dir = fresh_dir(self.out, f"b{i // BATCH:05d}")
        with rec.span("invariance.sample_invariant_pair"):
            pair = sample_invariant_pair(structure, rng)
        with rec.span("invariance.is_invariant"):
            check = is_invariant(pair, state, tol=VERIFY_TOL)
        p1 = os.path.join(self.batch_dir, f"pair{i:07d}.u1.json")
        p2 = os.path.join(self.batch_dir, f"pair{i:07d}.u2.json")
        with rec.span("io.write_unitary_file"):
            write_unitary_file(p1, pair.u1)
        with rec.span("io.write_unitary_file"):
            write_unitary_file(p2, pair.u2)
        if rec.counting:
            rec.count("io.write_unitary_file.bytes", os.path.getsize(p1) + os.path.getsize(p2))
            rec.count("matkernel.haar_unitary.calls", len(_haar_sizes(structure)))
        return check.invariant

    def final_checks(self) -> tuple[bool, dict]:
        """Write the fixed-seed pair files here and in a fresh interpreter; compare."""
        here = fixed_seed_digest(fresh_dir(self.dir, "digest_here"))
        child = fixed_seed_digest_in_child(fresh_dir(self.dir, "digest_child"))
        info = {
            "sample_digest": here,
            "sample_digest_child": child,
            "sample_digest_matches_reference": here == REFERENCE,
        }
        return here == child, info

    def layers(self, rec: Recorder) -> dict:
        """Span totals per op, plus ``haar_unitary`` timed on each state's block sizes."""
        haar_ms = {}
        gen = np.random.default_rng(0)
        for key in rec.used:
            sizes = _haar_sizes(self.loaded[key][1])
            haar_ms[key] = median_time_ms(lambda: [haar_unitary(n, gen) for n in sizes], 5)
        ops = sum(rec.used.values())
        return {
            "io.read_state_file.ms": rec.total_ms("io.read_state_file") / ops,
            "io.read.bytes": rec.per_count_op("io.read.bytes"),
            "invariance.invariance_structure.ms": rec.total_ms("invariance.invariance_structure") / ops,
            "invariance.sample_invariant_pair.ms": rec.total_ms("invariance.sample_invariant_pair") / ops,
            "matkernel.haar_unitary.calls": rec.per_count_op("matkernel.haar_unitary.calls"),
            "matkernel.haar_unitary.ms": weighted_per_op(haar_ms, rec.used),
            "invariance.is_invariant.ms": rec.total_ms("invariance.is_invariant") / ops,
            "io.write_unitary_file.ms": rec.total_ms("io.write_unitary_file") / ops,
            "io.write_unitary_file.bytes": rec.per_count_op("io.write_unitary_file.bytes"),
        }

    def prediction(self, layers: dict) -> tuple[str, dict]:
        return "io.write_unitary_file", {
            name: layers[name + ".ms"]
            for name in ("io.write_unitary_file", "invariance.sample_invariant_pair",
                         "invariance.is_invariant", "invariance.invariance_structure",
                         "io.read_state_file")
        }

    def detail(self) -> dict:
        """Sizes of the ``haar_unitary`` draws of one pair, per state."""
        return {"haar_block_sizes": {
            f"{item.d1}x{item.d2}#{k % STATES_PER_CLASS}": _haar_sizes(self.loaded[k][1])
            for k, (item, _) in enumerate(self.items)
        }}
