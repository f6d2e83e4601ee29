"""``analyze``: the library path of ``uli analyze`` without process start-up.

One op reads a state file and computes the structure, the group dimension
and the Lie-algebra oracle dimension; both dimensions must equal the one
known from construction. The dense oracle takes almost all of each op and
grows about as d^6, so a change to the oracle shows here and nowhere else.

The size mix keeps the median inside the 16x16 class and the 90th percentile
inside the 32x24 class, away from the jumps between classes.
"""

from __future__ import annotations

import os

import numpy as np

from harness import Recorder, WorkloadBase, cycle, fresh_dir, median_time_ms, weighted_per_op
from inputs import (
    KINDS,
    check_oracle_budget,
    make_state,
    oracle_svd_flops,
    oracle_system_bytes,
    oracle_system_shape,
    rng_for,
)
from uli import (
    cluster_spectrum,
    group_dimension,
    invariance_structure,
    lie_algebra_dimension,
    real_nullspace_dimension,
    schmidt_decompose,
    svd,
)
from uli.io import read_state_file, write_state_file

# (d1, d2) and slots per block of 20: cumulative shares 0.20, 0.35, 0.60,
# 0.75, 0.85, 0.95, 1.00 put p50 in 16x16 and p90 in 32x24.
CLASSES = [((8, 8), 4), ((16, 12), 3), ((16, 16), 5), ((24, 16), 3),
           ((24, 24), 2), ((32, 24), 2), ((32, 32), 1)]


class Workload(WorkloadBase):
    def prepare(self, rec: Recorder) -> None:
        self.items = []  # (StateInput, path, file bytes)
        in_dir = fresh_dir(self.dir, "inputs")
        variants = []
        for c, ((d1, d2), _) in enumerate(CLASSES):
            check_oracle_budget(d1, d2)
            keys = []
            for k, kind in enumerate(KINDS):
                item = make_state(kind, d1, d2, rng_for(self.seed, 1, c, k))
                path = os.path.join(in_dir, f"state_{d1}x{d2}_{kind}.json")
                with rec.span("io.write_state_file"):
                    write_state_file(path, item.state)
                keys.append(len(self.items))
                self.items.append((item, path, os.path.getsize(path)))
            variants.append(keys)
        self.order = cycle(variants, [w for _, w in CLASSES])
        self.block = sum(w for _, w in CLASSES)

    def warm_up(self) -> list[bool]:
        """One op on the first input of every size class."""
        probe = Recorder(False)
        return [self.run(k * len(KINDS), k, probe) for k in range(len(CLASSES))]

    def run(self, key: int, i: int, rec: Recorder) -> bool:
        item, path, nbytes = self.items[key]
        with rec.span("io.read_state_file"):
            state = read_state_file(path)
        with rec.span("invariance.invariance_structure"):
            structure = invariance_structure(state)
        gdim = group_dimension(structure)
        with rec.span("invariance.lie_algebra_dimension"):
            odim = lie_algebra_dimension(state)
        rec.count("io.read.bytes", nbytes)
        rec.count("matkernel.real_nullspace_dimension.system_bytes",
                  oracle_system_bytes(item.d1, item.d2))
        rec.count("matkernel.real_nullspace_dimension.flops", oracle_svd_flops(item.d1, item.d2))
        rec.count("bipartite.cluster_spectrum.clusters", len(item.multiplicities))
        return gdim == item.known_dimension and odim == item.known_dimension

    def layers(self, rec: Recorder) -> dict:
        """Per-op layer times: spans from the traced loop, probes for the rest.

        The oracle's SVD cannot be timed without editing the toolkit, so it
        is estimated by ``real_nullspace_dimension`` on a Gaussian system of
        the same shape, once per shape. The estimate can exceed the whole
        ``lie_algebra_dimension`` call: the real system is rank-deficient
        and its SVD converges sooner.
        """
        svd_ms, schmidt_ms, cluster_ms = {}, {}, {}
        for key in rec.used:
            state = self.items[key][0].state
            sch = schmidt_decompose(state)
            svd_ms[key] = median_time_ms(lambda: svd(state.psi), 5)
            schmidt_ms[key] = median_time_ms(lambda: schmidt_decompose(state), 5)
            cluster_ms[key] = median_time_ms(
                lambda: cluster_spectrum(sch.sigma, dims=(state.d1, state.d2)), 5)
        oracle_by_shape = {}
        gauss = np.random.default_rng(0)
        for (d1, d2), _ in CLASSES:
            system = gauss.standard_normal(oracle_system_shape(d1, d2))
            oracle_by_shape[(d1, d2)] = median_time_ms(lambda: real_nullspace_dimension(system), 1)
        oracle_ms = {key: oracle_by_shape[(self.items[key][0].d1, self.items[key][0].d2)]
                     for key in rec.used}
        ops = sum(rec.used.values())
        structure = rec.total_ms("invariance.invariance_structure") / ops
        schmidt = weighted_per_op(schmidt_ms, rec.used)
        cluster = weighted_per_op(cluster_ms, rec.used)
        return {
            "io.read_state_file.ms": rec.total_ms("io.read_state_file") / ops,
            "io.read.bytes": rec.per_count_op("io.read.bytes"),
            "invariance.invariance_structure.ms": structure,
            "invariance.invariance_structure.self_ms": structure - schmidt - cluster,
            "matkernel.svd.ms": weighted_per_op(svd_ms, rec.used),
            "bipartite.schmidt_decompose.ms": schmidt,
            "bipartite.cluster_spectrum.ms": cluster,
            "bipartite.cluster_spectrum.clusters": rec.per_count_op("bipartite.cluster_spectrum.clusters"),
            "invariance.lie_algebra_dimension.ms": rec.total_ms("invariance.lie_algebra_dimension") / ops,
            "matkernel.real_nullspace_dimension.ms": weighted_per_op(oracle_ms, rec.used),
            "matkernel.real_nullspace_dimension.system_bytes":
                rec.per_count_op("matkernel.real_nullspace_dimension.system_bytes"),
            "matkernel.real_nullspace_dimension.flops":
                rec.per_count_op("matkernel.real_nullspace_dimension.flops"),
        }

    def prediction(self, layers: dict) -> tuple[str, dict]:
        return "matkernel.real_nullspace_dimension", {
            "matkernel.real_nullspace_dimension": layers["matkernel.real_nullspace_dimension.ms"],
            "invariance.invariance_structure": layers["invariance.invariance_structure.ms"],
            "io.read_state_file": layers["io.read_state_file.ms"],
        }

    def detail(self) -> dict:
        """Shape, computed bytes and flops of each class's oracle system."""
        return {"oracle_systems": [
            {"d1": d1, "d2": d2, "shape": oracle_system_shape(d1, d2),
             "bytes": oracle_system_bytes(d1, d2), "flops": oracle_svd_flops(d1, d2),
             "slots_per_block": w}
            for (d1, d2), w in CLASSES
        ]}
