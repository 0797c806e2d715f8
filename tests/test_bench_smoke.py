"""The benchmark's smoke check passes against this tree.

``bench/`` reads the shape of the package (``DofReport.per_order``, the
CLI's artifacts, the traced function names), so a change that breaks the
benchmark's contract fails here.  About 12 s.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_smoke_passes():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "smoke.py")],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert "smoke check passed" in proc.stdout
