"""wavedof benchmark: runs one workload and prints its metrics.

    python3 bench/run.py --workload {campaign,budget,synthesis,all} --seed N --seconds S --trace {0,1}

Runs one workload as a closed loop with a single client in this process,
with the BLAS thread count fixed, against the package source under
``src/``.  One untimed warm-up operation comes first.  ``--trace 0``
times operations until their busy time reaches ``--seconds`` and reports
the end-to-end metrics of BENCHMARK.json; ``--trace 1`` runs a fixed
number of operations twice, untraced and then with spans around each
layer's public functions, and reports the per-layer metrics.  Every
operation's output is checked against the benchmark's own reference.
``--workload all`` runs each workload in its own process.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it, starting with ``#``, give the environment and each metric's context.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

# One BLAS thread: a single-client loop on a shared machine, and the same
# setting whatever the core count of the machine that runs it.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

SETUP_RUNS = 7
SETUP_CODE = "from wavedof import cli; cli.main(['--version'])"

WORKLOAD_NAMES = ("campaign", "budget", "synthesis")


def _declared() -> dict:
    """Metric name -> unit for the end-to-end (trace 0) and per-layer (trace 1) sets."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {key: {m["name"]: m["unit"] for m in spec[key]} for key in ("end_to_end", "per_layer")}


def _blas_threads():
    """Threads the loaded OpenBLAS reports, or None where that cannot be asked."""
    import ctypes

    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = {line.split()[-1] for line in maps.splitlines() if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_", "scipy_openblas_get_num_threads64_"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _environment(args) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "blas_threads": _blas_threads(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def _setup_once() -> float:
    """Wall time of a fresh interpreter importing wavedof.cli and building its parser."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    # an installed CLI runs from cached bytecode, so the cache is always allowed
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT, check=True,
                   stdout=subprocess.DEVNULL, timeout=60)
    return time.perf_counter() - start


class Pass:
    """Operation times and check outcomes of one sequence of operations."""

    def __init__(self):
        self.times: list[float] = []
        self.failed = 0
        self.infos: list[dict] = []

    @property
    def busy(self) -> float:
        return sum(self.times)

    def add(self, wl, i: int, tracer=None) -> None:
        inp = wl.prepare(i)
        if tracer is not None:
            tracer.op = i
        start = time.perf_counter()
        try:
            out = wl.run(inp)
        except Exception:  # noqa: BLE001 - a failed operation is counted, and the run goes on
            self.times.append(time.perf_counter() - start)
            self.failed += 1
            print(f"# {wl.name} op {i} raised:\n" + traceback.format_exc(), file=sys.stderr)
            return
        self.times.append(time.perf_counter() - start)
        try:
            self.infos.append(wl.check(inp, out))
        except Exception as exc:  # noqa: BLE001 - malformed output fails the check
            self.failed += 1
            print(f"# {wl.name} op {i} failed its check: {type(exc).__name__}: {exc}", file=sys.stderr)


def _tail(times: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it, the percentile, the samples beyond.

    With ten samples or fewer there is no such percentile, and the maximum stands in.
    """
    s = sorted(times)
    n = len(s)
    if n <= 10:
        return s[-1], 100.0, 0
    return s[n - 11], 100.0 * (n - 10) / n, 10


def _untraced(wl, args, warmup: Pass):
    # The machine's speed drifts over tens of seconds, so the set-up samples
    # are spread over the run instead of taken back to back.  The first
    # start writes the bytecode caches and is not counted.
    _setup_once()
    setup = []
    timed = Pass()
    i = 0
    while i == 0 or timed.busy < args.seconds:
        if len(setup) < SETUP_RUNS and timed.busy >= len(setup) * args.seconds / SETUP_RUNS:
            setup.append(_setup_once())
        timed.add(wl, i)
        i += 1
    while len(setup) < SETUP_RUNS:
        setup.append(_setup_once())
    attempted = len(warmup.times) + len(timed.times)
    failed = warmup.failed + timed.failed
    tail, pct, beyond = _tail(timed.times)
    metrics = {
        "setup_s": statistics.median(setup),
        "op_p50_ms": 1e3 * statistics.median(timed.times),
        "op_tail_ms": 1e3 * tail,
        "ops_per_s": (len(timed.times) - timed.failed) / timed.busy,
        "ok_frac": 1.0 - failed / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = [
        f"setup_s: median of {SETUP_RUNS} fresh interpreters spread over the run",
        f"op_p50_ms: median of {len(timed.times)} operations",
        f"op_tail_ms: p{pct:.1f} of {len(timed.times)} operations, {beyond} beyond it",
        f"ops_per_s: {len(timed.times) - timed.failed} good operations in {timed.busy:.3f} s of operation time",
        f"failed_frac: {failed / attempted:.6g} ({failed} of {attempted} operations, warm-up included)",
        "peak_rss_mb: ru_maxrss of this process, one workload only",
    ]
    return metrics, notes, attempted, failed


def _traced(wl, args, warmup: Pass):
    from spans import Tracer

    n_ops = max(1, int(args.seconds * wl.trace_ops_per_s / 2))
    # each input runs untraced, then traced, so both see the same machine speed
    plain, traced = Pass(), Pass()
    tracer = Tracer()
    for i in range(n_ops):
        plain.add(wl, i)
        tracer.install()
        try:
            traced.add(wl, i, tracer)
        finally:
            tracer.uninstall()
    summary = tracer.summary()

    def total(prefix: str, key: str):
        return sum(v[key] for name, v in summary.items() if name == prefix or name.startswith(prefix + "."))

    metrics = {}
    for prefix in ("specfun.bessel_j_table", "specfun.bessel_j_table.small_z", "specfun.bessel_j_table.large_z"):
        metrics[f"{prefix}.calls"] = total(prefix, "calls")
        metrics[f"{prefix}.values"] = total(prefix, "work")
        metrics[f"{prefix}.self_s"] = total(prefix, "self_s")
    for name in ("dofcore.total_dof", "dofcore.truncation_order", "cli.main"):
        metrics[f"{name}.calls"] = total(name, "calls")
        metrics[f"{name}.self_s"] = total(name, "self_s")
    metrics["dofcore.total_dof.rows"] = total("dofcore.total_dof", "work")
    metrics["dofcore.critical_frequency.calls"] = tracer.counts["dofcore.critical_frequency"]
    metrics["cli.artifact_bytes"] = sum(info.get("artifact_bytes", 0) for info in traced.infos)
    for fn in ("make_scatterers", "modal_coefficients", "synth_field_planewave", "synth_field_modal",
               "synth_field_circle"):
        metrics[f"channel.{fn}.calls"] = total(f"channel.{fn}", "calls")
        metrics[f"channel.{fn}.self_s"] = total(f"channel.{fn}", "self_s")
    for fn in ("run_campaign", "noise_variance_check", "power_balance_check", "time_support_check",
               "dof_prediction_check", "empirical_order_snr"):
        metrics[f"verify.{fn}.self_s"] = total(f"verify.{fn}", "self_s")
    metrics["verify.checks.run"] = sum(info.get("checks_run", 0) for info in traced.infos)
    metrics["verify.checks.failed"] = sum(info.get("checks_failed", 0) for info in traced.infos)
    attempted = len(warmup.times) + len(plain.times) + len(traced.times)
    failed = warmup.failed + plain.failed + traced.failed
    metrics["failed_frac"] = failed / attempted
    metrics["setup.first_op_ms"] = 1e3 * warmup.times[0]
    metrics["trace.overhead_frac"] = statistics.median(traced.times) / statistics.median(plain.times) - 1.0
    notes = [
        f"traced operations: {n_ops}, each run untraced and then traced; counts are totals over them",
        f"spans recorded: {len(tracer.spans)}",
    ]
    if tracer.missing:
        notes.append(f"not traced, absent from the package: {', '.join(tracer.missing)}")
    return metrics, notes, attempted, failed


def run_one(args) -> int:
    sys.path.insert(0, str(SRC))
    import wavedof
    from workloads import WORKLOADS

    if Path(wavedof.__file__).resolve().parent != (SRC / "wavedof").resolve():
        print(f"error: imported wavedof from {wavedof.__file__}, not from {SRC}", file=sys.stderr)
        return 1
    declared = _declared()["per_layer" if args.trace else "end_to_end"]
    print("# env " + json.dumps(_environment(args), sort_keys=True), flush=True)
    # artifacts embed their output directory, so give it the same length in every checkout
    os.chdir(ROOT)
    workdir = Path(tempfile.mkdtemp(prefix=".work-", dir=BENCH_DIR)).resolve().relative_to(ROOT)
    try:
        wl = WORKLOADS[args.workload](args.seed, workdir)
        warmup = Pass()
        warmup.add(wl, 0)
        measure = _traced if args.trace else _untraced
        metrics, notes, attempted, failed = measure(wl, args, warmup)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if set(metrics) != set(declared):
        print(f"error: measured metrics {sorted(set(metrics) ^ set(declared))} disagree with BENCHMARK.json",
              file=sys.stderr)
        return 1
    for note in notes:
        print(f"# {note}")
    for name, unit in declared.items():
        print(f"# {args.workload} {name} = {metrics[name]:.6g} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": unit} for name, unit in declared.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


def run_all(args) -> int:
    """Each workload in a process of its own; metrics come back prefixed by workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.strip().split("\n")
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0:
            print(f"error: workload {name} exited {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(combined), flush=True)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOAD_NAMES, "all"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="operation time to measure; 0 runs the shortest possible pass")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "wavedof" / "cli.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"error: run from a wavedof checkout; {SRC / 'wavedof'} or BENCHMARK.json is missing",
              file=sys.stderr)
        return 1
    os.environ.update({var: str(BLAS_THREADS) for var in BLAS_ENV})
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
