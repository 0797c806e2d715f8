"""Smoke check of bench/run.py; asserts the output schema, never a timing.

    python3 bench/smoke.py

Runs every workload at the shortest length, untraced and traced, and
checks that the result names every metric of BENCHMARK.json with its
unit, that no operation failed, and that the counts predicted to be zero
are zero.  It also checks that run.py refuses to run, without
printing a result, when the package source is absent.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def run(cwd: Path, *args: str, stderr=None) -> subprocess.CompletedProcess:
    argv = [sys.executable, str(cwd / "bench" / "run.py"), "--workload", "all", "--seed", "0", "--seconds", "0", *args]
    return subprocess.run(argv, cwd=cwd, stdout=subprocess.PIPE, stderr=stderr, text=True, timeout=600)


def check_result(spec: dict, trace: int) -> dict:
    proc = run(ROOT, "--trace", str(trace))
    assert proc.returncode == 0, f"run.py exited {proc.returncode}"
    result = json.loads(proc.stdout.strip().split("\n")[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, sorted(result)
    assert result["correct"] is True and result["failed"] == 0, result
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    declared = spec["per_layer" if trace else "end_to_end"]
    want = {f"{w['name']}.{m['name']}": m["unit"] for w in spec["workloads"] for m in declared}
    got = result["metrics"]
    assert set(got) == set(want), sorted(set(got) ^ set(want))
    for name, metric in got.items():
        assert set(metric) == {"value", "unit"} and metric["unit"] == want[name], (name, metric)
        assert isinstance(metric["value"], float) and math.isfinite(metric["value"]), (name, metric)
    return {name: metric["value"] for name, metric in got.items()}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert any(m["name"] == "setup_s" for m in spec["end_to_end"])

    check_result(spec, trace=0)
    layers = check_result(spec, trace=1)
    assert layers["budget.specfun.bessel_j_table.calls"] == 0
    for fn in ("synth_field_planewave", "synth_field_modal", "synth_field_circle"):
        assert layers[f"campaign.channel.{fn}.calls"] == 0
    assert layers["campaign.verify.checks.run"] > 0 and layers["synthesis.channel.synth_field_modal.calls"] > 0

    # a directory with only BENCHMARK.json and the benchmark: refuse, print no result
    bare = Path(tempfile.mkdtemp(prefix=".work-smoke-", dir=BENCH_DIR))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH_DIR, bare / "bench", ignore=shutil.ignore_patterns(".work-*", "__pycache__"))
        proc = run(bare, "--trace", "0", stderr=subprocess.PIPE)
        assert proc.returncode != 0 and '"metrics"' not in proc.stdout, proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("smoke check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
