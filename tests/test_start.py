"""Starting wavedof: numpy and the campaign's thread pool load only once a command computes, tables loads no
budget code, and the package's lazy exports."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import wavedof

# The public names, as the package imported them from its four computing modules
PUBLIC_NAMES = {
    "ChannelConfig", "FieldSamples", "ModalSpectrum", "ScattererSet", "make_scatterers", "modal_coefficients",
    "modal_truncation_order", "synth_field_circle", "synth_field_modal", "synth_field_planewave",
    "DofReport", "critical_frequency", "effective_bandwidth", "effective_time", "snr_max", "snr_upper_bound",
    "total_dof", "truncation_order",
    "bessel_j", "bessel_j_table", "chebyshev_first_kind", "chebyshev_second_kind", "stirling_gamma_lower",
    "CampaignReport", "CheckResult", "SnrEstimate", "TrialPlan", "empirical_order_snr", "noise_variance_check",
    "orthogonality_check", "power_balance_check", "run_campaign", "time_support_check",
}

START = """
import sys

import wavedof


def loaded_neither(step):
    for name in ("numpy", "concurrent.futures"):
        assert name not in sys.modules, f"{step} loaded {name}"


loaded_neither("import wavedof")
wavedof.ChannelConfig(f0=1.5e9, half_bw=1.3e9, radius=0.1, obs_time=0.0)
loaded_neither("ChannelConfig")
from wavedof import cli

for argv, code in (
    (["--version"], 0),
    (["--help"], 0),
    (["analyze", "--help"], 0),
    (["analyze", "--radius", "x"], 2),
    (["analyze", "--config", "missing.cfg"], 2),
    (["analyze", "--radius", "-1"], 2),
):
    try:
        got = cli.main(argv)
    except SystemExit as exc:
        got = exc.code
    assert got == code, (argv, got)
    loaded_neither(argv)
assert cli.main(["analyze"]) == 0
assert "numpy" in sys.modules
# a module the commands so far did not load is an attribute all the same
assert "wavedof.verify" not in sys.modules
assert wavedof.verify is sys.modules["wavedof.verify"]
"""


# A table computes with specfun alone
TABLES = """
import sys

from wavedof import cli

assert cli.main(["tables", "--kind", "bessel", "--orders", "0", "2"]) == 0
assert cli.main(["tables", "--kind", "chebyshev", "--orders", "3", "--format", "json"]) == 0
assert "numpy" in sys.modules
assert "wavedof.dofcore" not in sys.modules, "tables loaded dofcore"
"""


def run_fresh(code: str, cwd: Path, **env: str) -> None:
    """``code`` run in a fresh interpreter in ``cwd`` against the package in ``src/``, with ``env`` set."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, **env, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_numpy_loads_only_when_a_command_computes(tmp_path):
    # in tmp_path, where the last analyze writes its artifacts
    run_fresh(START, tmp_path)
    assert (tmp_path / "dof_report.json").exists()


def test_tables_loads_no_dofcore(tmp_path):
    run_fresh(TABLES, tmp_path)
    assert (tmp_path / "tables_bessel.csv").exists() and (tmp_path / "tables_chebyshev.json").exists()


def test_public_names_kept():
    assert sorted(wavedof.__all__) == sorted(PUBLIC_NAMES)
    assert {"__all__", "__version__", "channel", "dofcore", "specfun", "verify", *PUBLIC_NAMES} <= set(dir(wavedof))


@pytest.mark.parametrize("name", sorted(PUBLIC_NAMES))
def test_public_name_is_its_home_module_object(name):
    obj = getattr(wavedof, name)
    home = sys.modules[obj.__module__]
    assert home.__name__ == f"wavedof.{wavedof._EXPORTS[name]}"
    assert getattr(home, name) is obj


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        wavedof.no_such_name
    assert not hasattr(wavedof, "no_such_name")
