"""Every budget and table artifact keeps its bytes: one recorded sha256 per CLI case.

The cases, the digest and the re-recorder live in ``artifacts/record.py``;
``artifacts/digests.json`` holds the recorded digests.  These artifacts
use only basic IEEE operations, ``math.log`` and Python's float
formatting, so they compare by digest on every platform.  ``simulate``
and the demos are not here: their estimates pass through numpy's SIMD
``exp``, ``sin`` and ``cos``, whose last bit may depend on the CPU, so
they wait for a platform fingerprint with a tolerance fallback beside
their digests.
"""

import json

import pytest

from artifacts.record import CASES, DIGESTS, case_digest

RECORDED = json.loads(DIGESTS.read_text())


def test_recorded_cases_are_the_cases():
    assert sorted(RECORDED) == sorted(CASES)


@pytest.mark.parametrize("case", list(CASES))
def test_artifact_digest(case, tmp_path, monkeypatch):
    # under tmp_path, --out out gives the manifest the same out_dir on every machine
    monkeypatch.chdir(tmp_path)
    assert case_digest(CASES[case]) == RECORDED[case]
