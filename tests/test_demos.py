"""Each demo script runs to completion against the package in ``src/`` and prints its recorded stdout.

On the recorded platform the stdout keeps its sha256.  Elsewhere the text
with every number masked matches exactly, and the numbers to 1e-9
relative; see ``test_artifacts`` for the platform fingerprint.
"""

import math

import pytest

from artifacts.record import DEMOS, NUMBER, run_demo, sha256
from test_artifacts import REFERENCE, SAME_PLATFORM


def test_demos_found():
    assert DEMOS
    assert sorted(REFERENCE["demos"]) == [d.stem for d in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo):
    proc = run_demo(demo)
    assert proc.returncode == 0, proc.stderr
    want = REFERENCE["demos"][demo.stem]
    if SAME_PLATFORM:
        assert sha256(proc.stdout) == want["sha256"], proc.stdout
        return
    assert NUMBER.sub("#", proc.stdout) == NUMBER.sub("#", want["stdout"])
    for got, rec in zip(NUMBER.findall(proc.stdout), NUMBER.findall(want["stdout"])):
        assert math.isclose(float(got), float(rec), rel_tol=1e-9, abs_tol=0.0), (got, rec)
