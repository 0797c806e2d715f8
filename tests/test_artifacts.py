"""Every artifact and demo output keeps its bytes: one recorded sha256 per CLI case and per demo.

The cases, the digest and the re-recorder live in ``artifacts/record.py``;
``artifacts/digests.json`` holds the recorded case digests, and
``artifacts/platform.json`` the demos' stdout and digests, the
``simulate`` reports, and the fingerprint of the platform they were
recorded on.  The budget, sweep and table artifacts use only basic IEEE
operations, ``math.log`` and Python's float formatting, so they compare
by digest on every platform.

``simulate`` estimates pass through numpy's SIMD ``exp``, ``sin`` and
``cos``, whose last bit may depend on the CPU.  So where the platform
fingerprint (machine, numpy version, enabled dispatch targets) differs
from the recorded one, a ``simulate`` case is compared with its recorded
``verification.json`` instead: every field but the checks' estimates and
stderrs exactly, and those to 1e-12 relative.  ``test_demos`` compares
each demo's stdout by the same rule, with 1e-9 relative on its printed
numbers.
"""

import json
import math
from pathlib import Path

import pytest

from artifacts.record import CASES, DIGESTS, PLATFORM, SIMULATE_CASES, case_digest, platform_fingerprint

RECORDED = json.loads(DIGESTS.read_text())
REFERENCE = json.loads(PLATFORM.read_text())
SAME_PLATFORM = platform_fingerprint() == REFERENCE["fingerprint"]


def test_recorded_cases_are_the_cases():
    assert sorted(RECORDED) == sorted(CASES)
    assert sorted(REFERENCE["simulate"]) == sorted(SIMULATE_CASES)


def assert_report_matches(got: dict, want: dict):
    """Two verification.json bodies agree: estimates and stderrs to 1e-12 relative, all else exactly."""
    numeric = ("estimate", "stderr")
    strip = lambda body: {**body, "checks": [{k: v for k, v in c.items() if k not in numeric} for c in body["checks"]]}
    assert strip(got) == strip(want)
    for g, w in zip(got["checks"], want["checks"]):
        for key in numeric:
            assert math.isclose(g[key], w[key], rel_tol=1e-12, abs_tol=0.0), (g["name"], key, g[key], w[key])


@pytest.mark.parametrize("case", list(CASES))
def test_artifact_digest(case, tmp_path, monkeypatch):
    # under tmp_path, --out out gives the manifest the same out_dir on every machine
    monkeypatch.chdir(tmp_path)
    digest = case_digest(CASES[case])
    if case in SIMULATE_CASES and not SAME_PLATFORM:
        got = json.loads(Path("out/verification.json").read_text())
        assert_report_matches(got, REFERENCE["simulate"][case])
    else:
        assert digest == RECORDED[case]
