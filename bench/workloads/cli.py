"""``cli``: one op is one ``python -m uli.cli`` process, as users call it.

A fixed mix of ``gen``, ``analyze --format json``, ``sample --count 10``,
``verify`` (an invariant and a non-invariant pair) and ``undo`` (a solvable
and an unsolvable candidate) on states with d <= 8. Interpreter start-up and
the numpy import are almost all of each call; this is the only workload that
measures the ``cli`` layer. Exit codes must be the documented ones, and the
``analyze`` report must show the oracle agreeing with the known dimension.
Outputs go to paths that did not exist before; finished ones are deleted
with the clock stopped.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

from harness import Recorder, WorkloadBase, child_env, fresh_dir, median_time_ms, weighted_per_op
from inputs import make_state, rng_for
from uli import haar_unitary, invariance_structure, sample_invariant_pair
from uli.cli import main as cli_main
from uli.io import read_state_file, read_unitary_file, write_state_file, write_unitary_file

SUBCOMMANDS = ("gen", "analyze", "sample", "verify", "undo")
BATCH = 64
SHAPES = [(8, 6), (8, 8)]
PROBE_REPS = 9


@dataclass
class Task:
    """One command line: its arguments, where its output goes, what it must return."""

    sub: str
    args: list[str]
    out_suffix: str | None  # None: writes nothing; else --out <fresh path><suffix>
    expected_exit: int
    reads: list[str]
    known_dimension: int | None = None

    def __post_init__(self):
        self.read_bytes = sum(os.path.getsize(p) for p in self.reads)

    def argv(self, out: str) -> list[str]:
        if self.out_suffix is None:
            return list(self.args)
        return [*self.args, "--out", out + self.out_suffix]


class Workload(WorkloadBase):
    children_rss = True

    def __init__(self, seed: int, work_dir: str):
        super().__init__(seed, work_dir)
        self.env = child_env()

    def prepare(self, rec: Recorder) -> None:
        """Write the states and unitary files; build the fixed list of calls."""
        in_dir = fresh_dir(self.dir, "inputs")
        self.tasks = []
        for k, (d1, d2) in enumerate(SHAPES):
            rng = rng_for(self.seed, 5, k)
            item = make_state("deficient" if k == 0 else "degenerate", d1, d2, rng)
            state = os.path.join(in_dir, f"state{k}.json")
            with rec.span("io.write_state_file"):
                write_state_file(state, item.state)
            pair = sample_invariant_pair(invariance_structure(item.state), rng)
            u = {}
            for tag, m in (("inv1", pair.u1), ("inv2", pair.u2), ("haar1", haar_unitary(d1, rng)),
                           ("haar2", haar_unitary(d2, rng)), ("haar_undo", haar_unitary(d1, rng))):
                u[tag] = os.path.join(in_dir, f"s{k}.{tag}.json")
                write_unitary_file(u[tag], m)
            dims = ["--d1", str(d1), "--d2", str(d2), "--seed", "7"]
            gen = (["gen", "spectrum", *dims, "--spectrum",
                    *(repr(float(x)) for x in item.sigma)]
                   if k == 0 else ["gen", "haar-random", *dims])
            self.tasks += [
                Task("gen", gen, ".json", 0, []),
                Task("analyze", ["analyze", state, "--format", "json"], None, 0, [state],
                     item.known_dimension),
                Task("sample", ["sample", state, "--count", "10", "--seed", "3"], "", 0, [state]),
                Task("verify", ["verify", state, u["inv1"], u["inv2"]], None, 0,
                     [state, u["inv1"], u["inv2"]]),
                Task("verify", ["verify", state, u["haar1"], u["haar2"]], None, 1,
                     [state, u["haar1"], u["haar2"]]),
                Task("undo", ["undo", state, u["inv1"]], ".json", 0, [state, u["inv1"]]),
                Task("undo", ["undo", state, u["haar_undo"]], ".json", 1, [state, u["haar_undo"]]),
            ]
        self.order = list(range(len(self.tasks)))
        self.block = len(self.tasks)
        self.phase = 0

    def warm_up(self) -> list[bool]:
        """One call of every task."""
        probe = Recorder(False)
        self.begin(probe)
        return [self.run(k, k, probe) for k in range(len(self.tasks))]

    def begin(self, rec: Recorder) -> None:
        self.phase += 1
        self.out = fresh_dir(self.dir, f"out{self.phase}")
        self.batch_dir = None

    def housekeeping(self, i: int) -> None:
        if (i + 1) % BATCH == 0:
            shutil.rmtree(self.batch_dir)
            self.batch_dir = None

    def _out(self, i: int) -> str:
        if self.batch_dir is None:
            self.batch_dir = fresh_dir(self.out, f"b{i // BATCH:05d}")
        return os.path.join(self.batch_dir, f"op{i:07d}")

    def run(self, key: int, i: int, rec: Recorder) -> bool:
        task = self.tasks[key]
        with rec.span("cli." + task.sub):
            proc = subprocess.run([sys.executable, "-m", "uli.cli", *task.argv(self._out(i))],
                                  env=self.env, capture_output=True, text=True, timeout=60)
        rec.count("io.read.bytes", task.read_bytes)
        if proc.returncode != task.expected_exit:
            return False
        if task.sub == "analyze":
            report = json.loads(proc.stdout)
            return (report["oracle_agreement"] is True
                    and report["group_dimension"] == task.known_dimension)
        return True

    def _inproc_ms(self, key: int) -> float:
        """Median time of the same argv through ``uli.cli.main`` in this process."""
        out_dir = fresh_dir(self.dir, f"inproc{key}")
        times = []
        for r in range(PROBE_REPS):
            args = self.tasks[key].argv(os.path.join(out_dir, f"r{r}"))
            sink = io.StringIO()
            start = time.perf_counter()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                cli_main(args)
            times.append(time.perf_counter() - start)
        return 1e3 * statistics.median(times)

    def layers(self, rec: Recorder) -> dict:
        """Per-subcommand medians, in-process timings, bare start-up costs."""
        out = {}
        for sub in SUBCOMMANDS:
            walls = rec.durations_ms("cli." + sub)
            out[f"cli.{sub}.wall_ms"] = statistics.median(walls) if walls else 0.0
            keys = [k for k, t in enumerate(self.tasks) if t.sub == sub]
            inproc = [self._inproc_ms(k) for k in keys]
            out[f"cli.{sub}.inproc_ms"] = sum(inproc) / len(inproc)

        def start(code: str) -> float:
            return median_time_ms(lambda: subprocess.run([sys.executable, "-c", code], env=self.env,
                                                         capture_output=True, check=True, timeout=60),
                                  PROBE_REPS)
        out["cli.interpreter_ms"] = start("pass")
        out["cli.import_ms"] = start("import uli")

        state_ms, unitary_ms = {}, {}
        for key in rec.used:
            reads = self.tasks[key].reads
            state_ms[key] = sum(median_time_ms(lambda: read_state_file(p), PROBE_REPS) for p in reads[:1])
            unitary_ms[key] = sum(median_time_ms(lambda: read_unitary_file(p), PROBE_REPS)
                                  for p in reads[1:])
        out["io.read_state_file.ms"] = weighted_per_op(state_ms, rec.used)
        out["io.read_unitary_file.ms"] = weighted_per_op(unitary_ms, rec.used)
        out["io.read.bytes"] = rec.per_count_op("io.read.bytes")
        return out

    def prediction(self, layers: dict) -> tuple[str, dict]:
        inproc = statistics.mean(layers[f"cli.{t.sub}.inproc_ms"] for t in self.tasks)
        return "interpreter plus import (cli.import_ms)", {
            "interpreter plus import (cli.import_ms)": layers["cli.import_ms"],
            "the command's own work (cli.<subcommand>.inproc_ms)": inproc,
        }
