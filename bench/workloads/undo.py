"""``undo``: solve for the compensating unitary, then verify.

One op runs ``undo_operator`` on one candidate ``u1`` for an in-memory state
and verifies the returned pair; it also runs ``is_invariant`` and
``commutant_check`` on a stored invariant pair of the same state. Half of
the candidates come from sampled invariant pairs and must be solved; the
other half are Haar-random and must return ``NoSolution`` with an off-block
mass above the tolerance. ``undo_operator`` recomputes the SVD and the
structure on every call, so ``matkernel.svd`` and ``bipartite`` dominate
here while the oracle and ``io`` do nothing.
"""

from __future__ import annotations

import os

from harness import Recorder, WorkloadBase, cycle, fresh_dir, median_time_ms, weighted_per_op
from inputs import make_state, rng_for
from uli import (
    NoSolution,
    UnitaryPair,
    cluster_spectrum,
    commutant_check,
    haar_unitary,
    invariance_structure,
    is_invariant,
    sample_invariant_pair,
    schmidt_decompose,
    svd,
    undo_operator,
    unitarity_defect,
)
from uli.io import read_state_file, write_state_file

TOL = 1e-10

# (d1, d2) and slots per block of 30. Each class is half Haar candidates
# (cheaper: no pair is built) and half solvable ones, so the cumulative
# shares are 32x32 0.13, 48x32 0.30, 64x64 0.43 / 0.57, 96x64 0.87,
# 128x128 0.93 / 1.00: p50 lies mid-way through the solvable 64x64 ops and
# p90 mid-way through the Haar 128x128 ops, away from every jump.
CLASSES = [((32, 32), 4), ((48, 32), 5), ((64, 64), 8), ((96, 64), 9), ((128, 128), 4)]
STATES_PER_CLASS = 2


class Workload(WorkloadBase):
    def prepare(self, rec: Recorder) -> None:
        """Write the states, read them back, draw the candidates."""
        self.states = []  # (StateInput, state read back, stored pair)
        self.candidates = []  # (state index, u1, solvable)
        in_dir = fresh_dir(self.dir, "inputs")
        variants = []
        for c, ((d1, d2), _) in enumerate(CLASSES):
            keys = []
            for k in range(STATES_PER_CLASS):
                rng = rng_for(self.seed, 4, c, k)
                item = make_state("deficient" if k % 2 else "degenerate", d1, d2, rng)
                path = os.path.join(in_dir, f"state_{d1}x{d2}_{k}.json")
                with rec.span("io.write_state_file"):
                    write_state_file(path, item.state)
                state = read_state_file(path)
                structure = invariance_structure(state)
                stored = sample_invariant_pair(structure, rng)
                s = len(self.states)
                self.states.append((item, state, stored))
                for u1, solvable in ((sample_invariant_pair(structure, rng).u1, True),
                                     (haar_unitary(d1, rng), False)):
                    keys.append(len(self.candidates))
                    self.candidates.append((s, u1, solvable))
            variants.append(keys)
        self.order = cycle(variants, [w for _, w in CLASSES])
        self.block = sum(w for _, w in CLASSES)

    def warm_up(self) -> list[bool]:
        """One op on every candidate."""
        probe = Recorder(False)
        return [self.run(k, k, probe) for k in range(len(self.candidates))]

    def run(self, key: int, i: int, rec: Recorder) -> bool:
        s, u1, solvable = self.candidates[key]
        item, state, stored = self.states[s]
        with rec.span("invariance.undo_operator"):
            result = undo_operator(u1, state, tol=TOL)
        if solvable:
            ok = isinstance(result, UnitaryPair)
            if ok:
                with rec.span("invariance.is_invariant"):
                    ok = is_invariant(result, state, tol=TOL).invariant
        else:
            ok = isinstance(result, NoSolution) and result.off_block_mass > TOL
        with rec.span("invariance.is_invariant"):
            check = is_invariant(stored, state, tol=TOL)
        with rec.span("invariance.commutant_check"):
            comm = commutant_check(stored, state, tol=TOL)
        rec.count("invariance.undo_operator.solved", isinstance(result, UnitaryPair))
        rec.count("bipartite.cluster_spectrum.clusters", len(item.multiplicities))
        return ok and check.invariant and comm.side1 and comm.side2

    def layers(self, rec: Recorder) -> dict:
        """Span totals per op; the calls ``undo_operator`` makes are timed as probes."""
        per_state = {}
        for s, (_, state, _) in enumerate(self.states):
            sch = schmidt_decompose(state)
            per_state[s] = (
                median_time_ms(lambda: svd(state.psi), 9),
                median_time_ms(lambda: schmidt_decompose(state), 9),
                median_time_ms(lambda: cluster_spectrum(sch.sigma, dims=(state.d1, state.d2)), 9),
                median_time_ms(lambda: invariance_structure(state), 9),
            )
        per_key = {}
        for key in rec.used:
            s, u1, _ = self.candidates[key]
            per_key[key] = (*per_state[s], median_time_ms(lambda: unitarity_defect(u1), 9))
        svd_ms, schmidt, cluster, structure, defect = (
            weighted_per_op({key: times[j] for key, times in per_key.items()}, rec.used)
            for j in range(5))
        ops = sum(rec.used.values())
        undo = rec.total_ms("invariance.undo_operator") / ops
        return {
            "matkernel.svd.ms": svd_ms,
            "bipartite.schmidt_decompose.ms": schmidt,
            "bipartite.cluster_spectrum.ms": cluster,
            "bipartite.cluster_spectrum.clusters": rec.per_count_op("bipartite.cluster_spectrum.clusters"),
            "invariance.invariance_structure.ms": structure,
            "invariance.invariance_structure.self_ms": structure - schmidt - cluster,
            "invariance.undo_operator.ms": undo,
            "invariance.undo_operator.structure_share": structure / undo,
            "invariance.undo_operator.solved_frac": rec.per_count_op("invariance.undo_operator.solved"),
            "invariance.is_invariant.ms": rec.total_ms("invariance.is_invariant") / ops,
            "invariance.commutant_check.ms": rec.total_ms("invariance.commutant_check") / ops,
            "matkernel.unitarity_defect.ms": defect,
        }

    def prediction(self, layers: dict) -> tuple[str, dict]:
        structure = layers["invariance.invariance_structure.ms"]
        defect = layers["matkernel.unitarity_defect.ms"]
        return "invariance.invariance_structure (SVD and structure)", {
            "invariance.invariance_structure (SVD and structure)": structure,
            "rest of undo_operator": layers["invariance.undo_operator.ms"] - structure - defect,
            "matkernel.unitarity_defect": defect,
            "invariance.is_invariant": layers["invariance.is_invariant.ms"],
            "invariance.commutant_check": layers["invariance.commutant_check.ms"],
        }
