"""The artifact digest cases, the digest of one case, and the re-recorder of ``digests.json`` and ``platform.json``.

A declared artifact change re-records the digests:

    PYTHONPATH=src python tests/artifacts/record.py

and CHANGES.md lists each digest that moved.
"""

import contextlib
import hashlib
import io
import json
import os
import platform
import re
import subprocess
import sys
import tempfile
from pathlib import Path

from wavedof import cli

DIGESTS = Path(__file__).with_name("digests.json")
# The platform the simulate and demo digests were recorded on, and the
# references they fall back to elsewhere
PLATFORM = Path(__file__).with_name("platform.json")
ROOT = Path(__file__).resolve().parents[2]
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# a last value that needs all nine digits of the sweep's formats
_SWEEP = ["sweep", "--axis", "radius", "--values", "0.05", "0.1", "0.37", "1.23456789"]
_ORDERS = ["--orders", "0", "1", "5"]

# Each case's arguments; the digest run adds --out out.
CASES = {
    "analyze": ["analyze"],
    "analyze-radius-99": ["analyze", "--radius", "99"],
    # three blocks of orders
    "analyze-radius-251": ["analyze", "--radius", "251"],
    "analyze-radius-0": ["analyze", "--radius", "0"],
    "analyze-p-max-0": ["analyze", "--p-max", "0"],
    "analyze-radius-0.37-gamma-1e-3": ["analyze", "--radius", "0.37", "--gamma", "1e-3"],
    "sweep-radius-csv": _SWEEP,
    "sweep-radius-json": [*_SWEEP, "--format", "json"],
    "tables-bessel-csv": ["tables", "--kind", "bessel", *_ORDERS],
    "tables-bessel-json": ["tables", "--kind", "bessel", *_ORDERS, "--format", "json"],
    "tables-chebyshev-csv": ["tables", "--kind", "chebyshev", *_ORDERS],
    "tables-chebyshev-json": ["tables", "--kind", "chebyshev", *_ORDERS, "--format", "json"],
    "error-analyze-radius-negative": ["analyze", "--radius", "-1"],
    "error-sweep-not-increasing": ["sweep", "--axis", "radius", "--values", "0.2", "0.1"],
    "error-tables-negative-order": ["tables", "--kind", "bessel", "--orders", "-1"],
    # their digests hold on the recorded platform only; see platform_fingerprint
    "simulate-seed-0": ["simulate", "--seed", "0"],
    "simulate-seed-7": ["simulate", "--seed", "7"],
}

SIMULATE_CASES = [name for name, argv in CASES.items() if argv[0] == "simulate"]

# A decimal number as Python and numpy print one
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|\b(?:nan|inf)\b")


def platform_fingerprint() -> dict:
    """The machine, numpy's version and the SIMD targets numpy dispatches to here.

    numpy's SIMD ``exp``, ``sin`` and ``cos`` may differ in the last bit
    from one of these to another, so digests of numbers that pass through
    them hold only where all three match.
    """
    import numpy as np

    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as umath
    dispatch = [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)]
    return {"machine": platform.machine(), "numpy": np.__version__, "dispatch": dispatch}


def case_digest(argv: list) -> str:
    """sha256 of one ``cli.main`` run with ``--out out`` in the working directory.

    It covers each artifact's name and body, without the CSV ``# generated:``
    line, then stdout, stderr and the exit code.
    """
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main([*argv, "--out", "out"])
    out = Path("out")
    parts = []
    for path in sorted(out.iterdir()) if out.is_dir() else ():
        lines = path.read_bytes().splitlines(keepends=True)
        parts.append((path.name, b"".join(line for line in lines if not line.startswith(b"# generated:"))))
    parts += [("stdout", stdout.getvalue().encode()), ("stderr", stderr.getvalue().encode()),
              ("exit", str(code).encode())]
    h = hashlib.sha256()
    for name, body in parts:
        h.update(f"{name} {len(body)}\n".encode() + body)
    return h.hexdigest()


def run_demo(demo: Path) -> subprocess.CompletedProcess:
    """One demo script run in a fresh interpreter against the package in ``src/``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=300)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def main() -> None:
    digests, simulate = {}, {}
    start = os.getcwd()
    for name, argv in CASES.items():
        # each case in a directory of its own, so no artifact of another is digested
        with tempfile.TemporaryDirectory() as tmp:
            os.chdir(tmp)
            try:
                digests[name] = case_digest(argv)
                if name in SIMULATE_CASES:
                    simulate[name] = json.loads(Path("out/verification.json").read_text())
            finally:
                os.chdir(start)
    demos = {}
    for demo in DEMOS:
        proc = run_demo(demo)
        if proc.returncode != 0:
            raise SystemExit(f"{demo.name} exited {proc.returncode}:\n{proc.stderr}")
        demos[demo.stem] = {"sha256": sha256(proc.stdout), "stdout": proc.stdout}
    DIGESTS.write_text(json.dumps(digests, indent=2) + "\n")
    PLATFORM.write_text(json.dumps({"fingerprint": platform_fingerprint(), "simulate": simulate, "demos": demos},
                                   indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {DIGESTS}, and {len(simulate)} reports and {len(demos)} demos to {PLATFORM}")


if __name__ == "__main__":
    main()
