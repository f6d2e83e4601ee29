"""Measurement helpers shared by the workloads.

A workload is a closed loop driven by one client: the next op starts only
after the previous one returned. The loop measures wall time, per-op latency
and the CPU time of the process (and of its children, for workloads that
start subprocesses). Tracing is done from the benchmark's own files: spans
are recorded around the calls each op makes into the toolkit's public
functions, kept in memory, and summarised when the run ends.
"""

from __future__ import annotations

import contextlib
import math
import os
import resource
import statistics
import time
import traceback
from collections import Counter, defaultdict
from dataclasses import dataclass, field

_NO_SPAN = contextlib.nullcontext()

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def child_env() -> dict:
    """Environment for a toolkit subprocess: ``src`` on the path, same thread caps."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class _Span:
    __slots__ = ("rec", "name", "start")

    def __init__(self, rec: "Recorder", name: str):
        self.rec = rec
        self.name = name

    def __enter__(self):
        self.start = time.perf_counter()

    def __exit__(self, *exc):
        self.rec.spans.append((self.rec.op, self.name, self.start, time.perf_counter()))


class Recorder:
    """Spans, counts and input usage of one measured phase.

    With ``enabled`` false every method is a no-op, so an untraced phase pays
    only for the attribute lookups. Counts are kept for the first
    ``count_ops`` ops only (and for work done before the first op): that
    prefix of the op sequence is fixed by the seed, so the counts repeat
    exactly from run to run whatever the speed of the machine.
    """

    def __init__(self, enabled: bool, count_ops: int = 0):
        self.enabled = enabled
        self.count_ops = count_ops
        self.op = -1
        self.spans: list[tuple[int, str, float, float]] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.used: Counter = Counter()

    def span(self, name: str):
        return _Span(self, name) if self.enabled else _NO_SPAN

    @property
    def counting(self) -> bool:
        return self.enabled and self.op < self.count_ops

    def count(self, name: str, value: float = 1.0) -> None:
        if self.counting:
            self.counts[name] += value

    def use(self, key) -> None:
        """Note which input the current op ran on, to weight probe timings."""
        if self.enabled:
            self.used[key] += 1

    def total_ms(self, name: str) -> float:
        return 1e3 * sum(end - start for _, n, start, end in self.spans if n == name)

    def durations_ms(self, name: str) -> list[float]:
        return [1e3 * (end - start) for _, n, start, end in self.spans if n == name]

    def per_count_op(self, name: str) -> float:
        """Count per op over the counted prefix of the op sequence."""
        ops = min(self.count_ops, sum(self.used.values()))
        return self.counts.get(name, 0.0) / ops if ops else 0.0


@dataclass
class LoopResult:
    latencies: list[float] = field(default_factory=list)  # seconds, one per op
    failed: int = 0
    wall: float = 0.0
    cpu: float = 0.0
    errors: list[str] = field(default_factory=list)

    @property
    def ops(self) -> int:
        return len(self.latencies)


def cpu_seconds() -> float:
    """User plus system CPU of this process and of its waited-for children."""
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def closed_loop(workload, seconds: float, rec: Recorder) -> LoopResult:
    """Run ``workload.op`` back to back for ``seconds`` of wall time.

    The loop then finishes the block of ``workload.block`` ops in progress,
    so every run measures whole blocks of the designed size mix: a run that
    stopped mid-block would over- or under-represent the costly classes.
    ``workload.begin(rec)`` runs inside the timed window before the first op
    (per-run preparation that users pay for, such as computing a structure
    once per state). ``workload.housekeeping(i)`` runs after op ``i`` with
    the clock stopped: it may delete finished output, which is not part of
    what is measured.
    """
    res = LoopResult()
    paused_wall = paused_cpu = 0.0
    cpu0 = cpu_seconds()
    t0 = time.perf_counter()
    workload.begin(rec)
    i = 0
    while i % workload.block or time.perf_counter() - t0 - paused_wall < seconds:
        rec.op = i
        start = time.perf_counter()
        try:
            ok = workload.op(i, rec)
        except Exception:  # an op that raises is a failed op; keep measuring
            ok = False
            if len(res.errors) < 3:
                res.errors.append(traceback.format_exc(limit=3))
        res.latencies.append(time.perf_counter() - start)
        if not ok:
            res.failed += 1
        p_wall, p_cpu = time.perf_counter(), cpu_seconds()
        workload.housekeeping(i)
        paused_wall += time.perf_counter() - p_wall
        paused_cpu += cpu_seconds() - p_cpu
        i += 1
    res.wall = time.perf_counter() - t0 - paused_wall
    res.cpu = cpu_seconds() - cpu0 - paused_cpu
    rec.op = -1
    return res


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


def end_to_end(loop: LoopResult, setup_s: float, children_rss: bool) -> dict[str, float]:
    lat_ms = [1e3 * x for x in loop.latencies]
    return {
        "ops_per_s": loop.ops / loop.wall,
        "latency_p50_ms": statistics.median(lat_ms),
        "latency_p90_ms": statistics.quantiles(lat_ms, n=10, method="inclusive")[8],
        "cpu_ms_per_op": 1e3 * loop.cpu / loop.ops,
        "peak_rss_mb": peak_rss_mb(children_rss),
        "setup_s": setup_s,
    }


def median_time_ms(fn, reps: int) -> float:
    """Median wall time of ``reps`` calls of ``fn``, in milliseconds."""
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return 1e3 * statistics.median(times)


def weighted_per_op(per_key_ms: dict, used: Counter) -> float:
    """Per-op mean of a probe timing, weighted by how often each input was used."""
    ops = sum(used.values())
    if not ops:
        return 0.0
    return sum(per_key_ms.get(key, 0.0) * n for key, n in used.items()) / ops


def interleave(weights: list[int]) -> list[int]:
    """Spread class indices over one block so each class recurs evenly.

    Class ``c`` with weight ``w`` takes ``w`` of the block's ``sum(weights)``
    slots, at positions ``(k + 0.5) / w`` for k < w; ties go to the earlier
    class. A fixed, evenly spread order keeps the costly classes apart, so
    no stretch of a run holds only them.
    """
    slots = [((k + 0.5) / w, c) for c, w in enumerate(weights) for k in range(w)]
    return [c for _, c in sorted(slots)]


def cycle(variants: list[list], weights: list[int]) -> list:
    """Op sequence that visits every variant of every class by the class weights.

    One block holds ``weights[c]`` slots of class ``c``; the k-th visit to a
    class takes its variants in turn. The cycle repeats blocks until every
    variant of every class has come up equally often.
    """
    blocks = math.lcm(*(len(v) // math.gcd(len(v), w) for v, w in zip(variants, weights)))
    seen = [0] * len(variants)
    order = []
    for _ in range(blocks):
        for c in interleave(weights):
            order.append(variants[c][seen[c] % len(variants[c])])
            seen[c] += 1
    return order


def fresh_dir(parent: str, name: str) -> str:
    """Create and return a directory that did not exist before."""
    path = os.path.join(parent, name)
    os.makedirs(path)
    return path


class WorkloadBase:
    """Defaults for the hooks most workloads leave empty.

    A workload also provides ``prepare(rec)`` (generate and write inputs, set
    ``order`` and ``block``), ``warm_up()``, ``run(key, i, rec)`` (one op on
    input ``key``, returning whether its output was correct), ``layers(rec)``
    and ``prediction(layers)``.
    """

    children_rss = False

    def __init__(self, seed: int, work_dir: str):
        self.seed = seed
        self.dir = work_dir

    def op(self, i: int, rec: Recorder) -> bool:
        """Op ``i`` of a phase: the next input of the fixed cycle."""
        key = self.order[i % len(self.order)]
        rec.use(key)
        return self.run(key, i, rec)

    def begin(self, rec: Recorder) -> None:
        pass

    def housekeeping(self, i: int) -> None:
        pass

    def final_checks(self) -> tuple[bool, dict]:
        return True, {}

    def detail(self) -> dict:
        return {}
