"""The artifact digest cases, the digest of one case, and the re-recorder of ``digests.json``.

A declared artifact change re-records the digests:

    PYTHONPATH=src python tests/artifacts/record.py

and CHANGES.md lists each digest that moved.
"""

import contextlib
import hashlib
import io
import json
import os
import tempfile
from pathlib import Path

from wavedof import cli

DIGESTS = Path(__file__).with_name("digests.json")

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
}


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


def main() -> None:
    digests = {}
    start = os.getcwd()
    for name, argv in CASES.items():
        # each case in a directory of its own, so no artifact of another is digested
        with tempfile.TemporaryDirectory() as tmp:
            os.chdir(tmp)
            try:
                digests[name] = case_digest(argv)
            finally:
                os.chdir(start)
    DIGESTS.write_text(json.dumps(digests, indent=2) + "\n")
    print(f"wrote {len(digests)} digests to {DIGESTS}")


if __name__ == "__main__":
    main()
