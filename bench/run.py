#!/usr/bin/env python3
"""Benchmark of the uli toolkit.

Run from the repository root:

    python3 bench/run.py --workload analyze --seed 1 --seconds 20 --trace 0

Workloads (each a closed loop driven by one client in one process; see the
docstring of each module under ``bench/workloads`` for why it exists):

    analyze  read_state_file -> invariance_structure -> group_dimension ->
             lie_algebra_dimension, d from 8 to 32; the dense oracle dominates
    sample   sample_invariant_pair -> is_invariant -> two write_unitary_file
             calls, d from 16 to 64; JSON writing dominates
    undo     undo_operator -> is_invariant, plus is_invariant and
             commutant_check on a stored pair, d from 32 to 128; SVD and
             structure dominate
    cli      one ``python -m uli.cli`` process per op, d <= 8; interpreter
             start-up and imports dominate

Inputs come from ``--seed`` only; the toolkit receives only the generated
files and arrays. Every op checks its output (known stabilizer dimensions,
re-verified pairs, ``NoSolution`` for Haar candidates, documented exit
codes); an op that raises or gives a wrong answer counts as failed, and any
failure makes the run exit 1.

End-to-end metrics (``--trace 0``), measured over ``--seconds`` of wall time
and then to the end of the block of ops in progress, so that every run holds
whole blocks of the designed size mix (a block is 14 to 30 ops):

    ops_per_s       completed ops per second of run wall time
    latency_p50_ms  median op latency
    latency_p90_ms  90th-percentile op latency (runs hold >= 100 ops)
    cpu_ms_per_op   user + system CPU per op, of this process and its children
    peak_rss_mb     peak RSS of this process (for ``cli``, of its largest child)
    setup_s         median of three set-ups: generate and write the inputs,
                    then one warm-up op per input (per size class for
                    ``analyze``). The interpreter and numpy import are not in
                    it; ``cli`` measures those.

``failed`` / ``attempted`` in the result line give the failed share. The
names and units of all metrics are those ``BENCHMARK.json`` declares; the
last line of output is the JSON result, the line before it a ``detail``
object with run metadata (CPUs, Python, numpy, BLAS and its threads, the
filesystem of the output directory) and workload records (oracle system
shapes, haar block sizes, the ``sample`` digest).

Per-layer metrics (``--trace 1``) come from a traced loop of the same length
that follows an untraced one; the difference between the two is printed as
the tracing overhead. Spans are recorded from these files around the calls
each op makes into the toolkit's public functions; layers an op reaches only
through another call (the SVD inside ``undo_operator``, the oracle's SVD)
are timed by calling their public functions on the same inputs after the
loop, weighted by how often each input ran. ``.ms`` metrics are milliseconds
per op, except ``cli.<subcommand>.*`` (median per call), ``cli.interpreter_ms``
and ``cli.import_ms`` (median per process) and ``io.write_state_file.ms``
(mean per file written during set-up). Counts (bytes, flops, clusters, haar
calls, solved share) cover the first cycle of the fixed op order, so they
repeat exactly for a seed. A layer a workload does not exercise reads 0.

BLAS runs single-threaded: two threads cost twice the CPU for about 1.2x less
wall time on the oracle and widen the spread between ops.
"""

from __future__ import annotations

import os
import sys

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)  # must precede the numpy import

import argparse  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

from harness import ROOT, SRC, Recorder, closed_loop, end_to_end, fresh_dir  # noqa: E402

WORKLOADS = ("analyze", "sample", "undo", "cli")
SETUP_REPS = 3
MIN_TAIL = 10  # samples that must lie beyond the reported p90


def _declared_units() -> tuple[dict, dict]:
    """Units of the end-to-end and per-layer metrics, as BENCHMARK.json declares them."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def _openblas_runtime() -> tuple[int | None, str | None]:
    """Thread count and kernel name reported by the OpenBLAS numpy loaded."""
    import numpy

    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas_", "64_"), ("openblas_", "64_"), ("openblas_", "")):
            threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
            core = getattr(lib, f"{prefix}get_corename{suffix}", None)
            if threads is not None and core is not None:
                threads.restype = ctypes.c_int
                core.restype = ctypes.c_char_p
                return threads(), core().decode()
    return None, None


def run_metadata(work_dir: str) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        vendor = "unknown"
    threads, core = _openblas_runtime()
    fs = subprocess.run(["stat", "-f", "-c", "%T", work_dir], capture_output=True, text=True)
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": vendor,
        "blas_core": core,
        "blas_threads_requested": BLAS_THREADS,
        "blas_threads": threads,
        "output_fs_type": fs.stdout.strip() or "unknown",
    }


def _setup(workload_cls, seed: int, work_dir: str, rec: Recorder):
    """Set up ``SETUP_REPS`` times from scratch; keep the last, report the median time."""
    times, warm = [], []
    wl = None
    for r in range(SETUP_REPS):
        if wl is not None:
            shutil.rmtree(wl.dir)
        start = time.perf_counter()
        wl = workload_cls(seed, fresh_dir(work_dir, f"setup{r}"))
        wl.prepare(rec)
        warm += wl.warm_up()
        times.append(time.perf_counter() - start)
    return wl, statistics.median(times), warm


def _print_e2e(label: str, e2e: dict, loop, units: dict) -> None:
    ops = loop.ops
    beyond = sum(1 for x in loop.latencies if 1e3 * x > e2e["latency_p90_ms"])
    print(f"{label}:")
    for name, value in e2e.items():
        note = ""
        if name == "latency_p50_ms":
            note = f"  (n={ops})"
        elif name == "latency_p90_ms":
            note = f"  (n={ops}, {beyond} beyond)"
        print(f"  {name:<16} {value:12.6g} {units[name]}{note}")
    print(f"  {'failed_frac':<16} {loop.failed / ops:12.6g} ratio  ({loop.failed}/{ops})")
    if beyond < MIN_TAIL:
        print(f"warning: only {beyond} samples beyond p90; lengthen --seconds", file=sys.stderr)


def _traced(wl, seconds: float, e2e: dict, setup_rec: Recorder, units: dict,
            layer_units: dict, loops: list, detail: dict) -> dict:
    """Run the traced loop, print per-layer metrics, overhead and prediction."""
    rec = Recorder(True, count_ops=len(wl.order))
    traced = closed_loop(wl, seconds, rec)
    loops.append(traced)
    e2e_traced = end_to_end(traced, e2e["setup_s"], wl.children_rss)
    _print_e2e("end to end (traced)", e2e_traced, traced, units)
    overhead = {k: e2e_traced[k] - e2e[k]
                for k in ("ops_per_s", "latency_p50_ms", "latency_p90_ms", "cpu_ms_per_op")}
    print("tracing overhead (traced - untraced): "
          + ", ".join(f"{k} {v:+.4g}" for k, v in overhead.items()))

    layers = dict.fromkeys(layer_units, 0.0)
    measured = wl.layers(rec)
    writes = setup_rec.durations_ms("io.write_state_file")
    measured["io.write_state_file.ms"] = sum(writes) / len(writes)
    unknown = set(measured) - set(layers)
    if unknown:
        raise KeyError(f"layer metrics missing from BENCHMARK.json: {sorted(unknown)}")
    layers.update(measured)
    print("per layer:")
    for name, value in layers.items():
        print(f"  {name:<48} {value:14.6g} {layer_units[name]}")

    mean_op_ms = 1e3 * sum(traced.latencies) / traced.ops
    layer, parts = wl.prediction(layers)
    shares = {name: ms / mean_op_ms for name, ms in parts.items()}
    holds = max(shares, key=shares.get) == layer
    print(f"prediction: {layer} is the largest layer of the mean traced op "
          f"({mean_op_ms:.4g} ms): {'holds' if holds else 'DOES NOT HOLD'}")
    for name, share in shares.items():
        print(f"  {share:7.1%}  {name}")
    detail.update(traced_end_to_end=e2e_traced, tracing_overhead=overhead,
                  prediction={"layer": layer, "holds": holds, "shares": shares})
    return {name: {"value": value, "unit": layer_units[name]} for name, value in layers.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="uli benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "uli", "__init__.py")):
        print(f"error: no toolkit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from workloads import analyze, cli, sample, undo

    units, layer_units = _declared_units()
    workload_cls = {"analyze": analyze, "sample": sample, "undo": undo, "cli": cli}[args.workload].Workload
    seed = args.seed % 2**63
    work_root = os.path.join(ROOT, ".bench_work")
    work_dir = fresh_dir(work_root, f"{args.workload}-{seed}-{os.getpid()}-{time.time_ns()}")
    try:
        meta = run_metadata(work_dir)
        setup_rec = Recorder(bool(args.trace))
        wl, setup_s, warm = _setup(workload_cls, seed, work_dir, setup_rec)
        loop = closed_loop(wl, args.seconds, Recorder(False))
        e2e = end_to_end(loop, setup_s, wl.children_rss)
        if set(e2e) != set(units):
            raise KeyError(f"end-to-end metrics differ from BENCHMARK.json: {sorted(e2e)}")

        print(f"uli benchmark  workload={args.workload} seed={args.seed} "
              f"seconds={args.seconds:g} trace={args.trace}")
        print("metadata " + json.dumps(meta))
        _print_e2e("end to end (untraced)", e2e, loop, units)
        loops = [loop]
        detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "metadata": meta, "setup_reps": SETUP_REPS}
        if args.trace:
            metrics = _traced(wl, args.seconds, e2e, setup_rec, units, layer_units, loops, detail)
        else:
            metrics = {name: {"value": value, "unit": units[name]} for name, value in e2e.items()}

        checks_ok, info = wl.final_checks()
        detail.update(info, **wl.detail())
        for key, value in info.items():
            print(f"{key}: {value}")
        for lp in loops:
            for err in lp.errors:
                print(err, file=sys.stderr)
        attempted = len(warm) + sum(lp.ops for lp in loops)
        failed = warm.count(False) + sum(lp.failed for lp in loops)
        correct = failed == 0 and checks_ok
        if not checks_ok:
            print("error: final checks failed", file=sys.stderr)
        print("detail " + json.dumps(detail))
        print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                          "metrics": metrics}))
        return 0 if correct else 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(work_root)
        except OSError:  # another run still uses it
            pass


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:  # report and exit non-zero without a result line
        traceback.print_exc()
        sys.exit(2)
