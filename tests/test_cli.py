"""Command line interface: exit codes, artifacts, reproducibility."""

import argparse
import ast
import contextlib
import io
import json
import math
import tempfile
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from wavedof import __version__, cli, dofcore
from wavedof.channel import ChannelConfig
from wavedof.cli import load_config_file, main
from wavedof.specfun import bessel_j_table, chebyshev_first_kind, chebyshev_second_kind

from test_start import run_fresh

WORKED = [
    "--f0", "2.4e9", "--half-bw", "0.5e9", "--radius", "0.1",
    "--obs-time", "0", "--wave-speed", "3e8", "--noise-var", "1",
    "--p-max", "1", "--gamma", "1",
]


def read_csv_columns(path):
    rows = [
        line.split(",")
        for line in path.read_text().strip().split("\n")
        if not line.startswith("#")
    ]
    header, data = rows[0], rows[1:]
    return {name: [float(r[i]) for r in data] for i, name in enumerate(header)}


class TestAnalyze:
    def test_worked_config_summary_and_exit(self, tmp_path, capsys):
        code = main(["analyze", *WORKED, "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "n_upper=9" in out
        assert "total_dof=26.0969616" in out

    def test_artifacts_embed_version_seed_config(self, tmp_path):
        main(["analyze", *WORKED, "--seed", "13", "--out", str(tmp_path)])
        body = json.loads((tmp_path / "dof_report.json").read_text())
        assert body["version"] == __version__
        assert body["seed"] == 13
        assert body["manifest"]["command"] == "analyze"
        assert body["config"]["f0"] == 2.4e9
        assert body["report"]["n_upper"] == 9
        csv_text = (tmp_path / "dof_report.csv").read_text()
        assert "# seed: 13" in csv_text
        assert "# config: " in csv_text
        assert f"# tool: wavedof {__version__}" in csv_text

    def test_csv_parse_reserialize_identical(self, tmp_path):
        main(["analyze", *WORKED, "--out", str(tmp_path)])
        text = (tmp_path / "dof_report.csv").read_text()
        lines = text.strip().split("\n")
        comments = [line for line in lines if line.startswith("#")]
        header, *body = [line for line in lines if not line.startswith("#")]
        assert header == "n,f_crit_hz,w_eff_hz,dof"
        rows = []
        for line in body:
            n, f_crit, w_eff, dof = line.split(",")
            rows.append((int(n), float(f_crit), float(w_eff), float(dof)))
        reserialized = comments + [header] + [f"{n:d},{f:.9g},{w:.9g},{d:.9g}" for n, f, w, d in rows]
        assert "\n".join(reserialized) + "\n" == text
        assert len(rows) == 17  # orders -8..8

    def test_rerun_byte_identical(self, tmp_path):
        out = tmp_path / "run"
        main(["analyze", *WORKED, "--seed", "5", "--out", str(out)])
        first_json = (out / "dof_report.json").read_bytes()
        first_csv = (out / "dof_report.csv").read_text()
        main(["analyze", *WORKED, "--seed", "5", "--out", str(out)])
        assert (out / "dof_report.json").read_bytes() == first_json
        strip = lambda text: [l for l in text.split("\n") if not l.startswith("# generated")]
        assert strip((out / "dof_report.csv").read_text()) == strip(first_csv)

    def test_rewrite_over_longer_artifacts(self, tmp_path):
        # artifacts are written over their old bytes; a shorter one must not keep the old tail
        strip = lambda text: [l for l in text.split("\n") if not l.startswith("# generated")]
        main(["analyze", *WORKED, "--out", str(tmp_path)])
        first_json = (tmp_path / "dof_report.json").read_bytes()
        first_csv = (tmp_path / "dof_report.csv").read_text()
        main(["analyze", *WORKED[:4], "--radius", "3", *WORKED[6:], "--out", str(tmp_path)])
        assert len((tmp_path / "dof_report.json").read_bytes()) > 10 * len(first_json)
        main(["analyze", *WORKED, "--out", str(tmp_path)])
        assert (tmp_path / "dof_report.json").read_bytes() == first_json
        assert strip((tmp_path / "dof_report.csv").read_text()) == strip(first_csv)

    def test_invalid_band_exits_2_naming_field(self, tmp_path, capsys):
        code = main(["analyze", "--f0", "1e9", "--half-bw", "2e9", "--out", str(tmp_path)])
        assert code == 2
        assert "band" in capsys.readouterr().err

    def test_negative_radius_exits_2(self, tmp_path, capsys):
        code = main(["analyze", "--radius", "-1", "--out", str(tmp_path)])
        assert code == 2
        assert "radius" in capsys.readouterr().err

    def test_noiseless_config_exits_2(self, tmp_path, capsys):
        code = main(["analyze", "--noise-var", "0", "--out", str(tmp_path)])
        assert code == 2
        assert "noise_var" in capsys.readouterr().err


class TestConfigFile:
    def test_file_values_used(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("f0 = 2.4e9\nhalf_bw = 5e8  # half width\np_max = 2.5\n")
        main(["analyze", "--config", str(cfg), "--out", str(tmp_path)])
        body = json.loads((tmp_path / "dof_report.json").read_text())
        assert body["config"]["f0"] == 2.4e9
        assert body["config"]["p_max"] == 2.5
        assert body["config"]["radius"] == 0.1  # default fills the gap

    def test_flag_overrides_file(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("p_max = 2.5\n")
        main(["analyze", "--config", str(cfg), "--p-max", "9", "--out", str(tmp_path)])
        body = json.loads((tmp_path / "dof_report.json").read_text())
        assert body["config"]["p_max"] == 9.0

    def test_unknown_key_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("bandwidth = 1e9\n")
        assert main(["analyze", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert "unknown key" in capsys.readouterr().err

    def test_bad_number_exits_2(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("f0 = fast\n")
        assert main(["analyze", "--config", str(cfg), "--out", str(tmp_path)]) == 2

    def test_missing_file_exits_2(self, tmp_path):
        assert main(["analyze", "--config", str(tmp_path / "nope.txt"), "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize(
        "text,message",
        [(None, r"^cannot read config file: "), ("f0 1e9\n", r":1: expected 'key = value', got 'f0 1e9'$"),
         ("\nbandwidth = 1e9\n", r":2: unknown key 'bandwidth'$"), ("f0 = fast\n", r":1: bad number 'fast'$"),
         ("seed = 2.5\n", r":1: seed must be a whole number, got '2.5'$")],
        ids=["unreadable", "no-equals", "unknown-key", "bad-number", "non-whole-integer"],
    )
    def test_loader_raises_value_error(self, tmp_path, text, message):
        cfg = tmp_path / "cfg.txt"
        if text is not None:
            cfg.write_text(text)
        with pytest.raises(ValueError, match=message):
            load_config_file(str(cfg))

    def test_loader_accepts_plan_keys(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("num_trials = 500\nseed = 3\n")
        vals = load_config_file(str(cfg))
        assert vals == {"num_trials": 500.0, "seed": 3.0}

    def test_file_seed_recorded(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("seed = 9\nnum_trials = 100\n")
        assert load_config_file(str(cfg)) == {"seed": 9, "num_trials": 100}
        assert type(load_config_file(str(cfg))["seed"]) is int
        code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path)])
        assert code in (0, 3)
        body = json.loads((tmp_path / "verification.json").read_text())
        assert body["seed"] == 9 and body["manifest"]["seed"] == 9
        assert body["plan"]["seed"] == 9 and body["plan"]["num_trials"] == 100

    def test_seed_flag_overrides_file(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("seed = 9\n")
        assert main(["analyze", "--config", str(cfg), "--seed", "4", "--out", str(tmp_path)]) == 0
        assert json.loads((tmp_path / "dof_report.json").read_text())["seed"] == 4
        assert "# seed: 4\n" in (tmp_path / "dof_report.csv").read_text()


SMALL_PLAN = ["--num-trials", "100", "--freq-samples", "33", "--n-probe", "4", "--circle-samples", "16"]


class TestRejectedInputs:
    @pytest.mark.parametrize(
        "argv,config,named",
        [
            (["analyze", "--radius", "2e5"], None, "N_u <= 10000000"),
            (["analyze", "--radius", "1e300"], None, "N_u <= 10000000"),
            (["analyze", "--f0", "inf"], None, "f0"),
            (["analyze", "--wave-speed", "nan"], None, "wave_speed"),
            (["analyze", "--obs-time", "nan"], None, "obs_time"),
            (["analyze", "--p-max", "1e308", "--noise-var", "1e-10"], None, "N_u <= 10000000"),
            (["sweep", "--axis", "radius", "--values", "0.1", "nan"], None, "radius"),
            (["tables", "--kind", "bessel", "--orders", "3", "--z-max", "nan"], None, "z-max"),
            (["tables", "--kind", "bessel", "--orders", "10001"], None, "10000"),
            (["simulate"], "num_trials = nan\n", "cfg.txt:2: num_trials"),
            (["simulate"], "num_trials = 2000.7\n", "cfg.txt:2: num_trials"),
            (["simulate"], "seed = 1e400\n", "cfg.txt:2: seed"),
            (["tables", "--kind", "bessel", "--orders", "0", "--z-max", "1e8"], None, "<= 100000"),
            (["tables", "--kind", "chebyshev", "--orders", "100000000"], None, "<= 10000"),
            (["simulate", "--num-trials", "10000000"], None, "<= 16777216 cells"),
            (["simulate", "--num-trials", "100", "--circle-samples", "200000"], None, "circle_samples"),
            (["analyze", "--obs-time", "1e300"], None, "W_n * T_eff + 1"),
            (["tables", "--kind", "bessel", "--orders", "0", "--samples", "100000000"], None, "<= 4194304 cells"),
            (["tables", "--kind", "bessel", "--orders", "10000", "--samples", "420"], None, "420 * 10001"),
            (["tables", "--kind", "chebyshev", "--orders", "1", "2", "2", "--samples", "1048577"], None, "* 4 ="),
            (["simulate", "--seed", "-1", "--num-trials", "150"], None, "seed must be >= 0, got -1"),
            # a campaign squares its powers; these ended in a traceback or NaN estimates
            (["simulate", *SMALL_PLAN, "--noise-var", "1e-300"], None, "noise_var must be 0 or within [1e-100, 1e+100]"),
            (["simulate", *SMALL_PLAN, "--noise-var", "1e-150"], None, "got 1e-150"),
            (["simulate", *SMALL_PLAN, "--noise-var", "1e308"], None, "noise_var must be 0 or within"),
            (["simulate", *SMALL_PLAN, "--p-max", "1e308"], None, "p_max must be 0 or within"),
            (["simulate", *SMALL_PLAN, "--p-max", "1e-101"], None, "p_max must be 0 or within"),
        ],
    )
    def test_exits_2_with_one_error_line(self, tmp_path, capsys, argv, config, named):
        if config is not None:
            path = tmp_path / "cfg.txt"
            path.write_text("# plan\n" + config)
            argv = [*argv, "--config", str(path)]
        assert main([*argv, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert named in err


class TestSweep:
    def test_radius_sweep_columns_and_growth(self, tmp_path):
        code = main([
            "sweep", "--axis", "radius", "--values", "0.05", "0.1", "0.15", "0.2",
            *WORKED, "--out", str(tmp_path),
        ])
        assert code == 0
        cols = read_csv_columns(tmp_path / "sweep_radius.csv")
        assert list(cols) == ["radius", "n_upper", "t_eff_s", "total_dof"]
        assert cols["radius"] == [0.05, 0.1, 0.15, 0.2]
        # truncation order and budget grow with the disk
        assert cols["n_upper"] == sorted(cols["n_upper"])
        assert cols["total_dof"] == sorted(cols["total_dof"])
        # equal radius steps give equal order-count steps, within rounding
        steps = [b - a for a, b in zip(cols["n_upper"], cols["n_upper"][1:])]
        assert all(abs(s - steps[0]) <= 1 for s in steps)
        assert steps[0] >= 1

    def test_gamma_sweep_non_increasing(self, tmp_path):
        main([
            "sweep", "--axis", "gamma", "--values", "0.25", "1", "4", "16",
            "--out", str(tmp_path),
        ])
        dof = read_csv_columns(tmp_path / "sweep_gamma.csv")["total_dof"]
        assert dof == sorted(dof, reverse=True)

    def test_obs_time_sweep_affine(self, tmp_path):
        main([
            "sweep", "--axis", "obs_time", "--values", "1e-9", "2e-9", "3e-9",
            "--format", "json", "--out", str(tmp_path),
        ])
        body = json.loads((tmp_path / "sweep_obs_time.json").read_text())
        dof = [row["total_dof"] for row in body["rows"]]
        # equal time steps add equal budget: same active orders, W_n fixed
        assert dof[1] - dof[0] == pytest.approx(dof[2] - dof[1], rel=1e-9)

    def test_json_format(self, tmp_path):
        main([
            "sweep", "--axis", "half_bw", "--values", "1e8", "1e9",
            "--format", "json", "--out", str(tmp_path),
        ])
        body = json.loads((tmp_path / "sweep_half_bw.json").read_text())
        assert body["axis"] == "half_bw"
        assert len(body["rows"]) == 2
        assert body["rows"][1]["total_dof"] > body["rows"][0]["total_dof"]

    def test_non_increasing_values_exit_2(self, tmp_path, capsys):
        code = main(["sweep", "--axis", "radius", "--values", "0.2", "0.1", "--out", str(tmp_path)])
        assert code == 2
        assert "strictly increasing" in capsys.readouterr().err

    def test_invalid_point_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "fresh"
        code = main([
            "sweep", "--axis", "half_bw", "--values", "1e9", "2e9", "--out", str(out),
        ])
        # 2e9 breaks f0 > half_bw for the default 1.5 GHz center
        assert code == 2
        assert "half_bw=" in capsys.readouterr().err
        assert not out.exists() or not list(out.iterdir())

    def test_unknown_axis_exits_2(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--axis", "power", "--values", "1", "--out", str(tmp_path)])
        assert exc.value.code == 2


class TestSimulate:
    def test_default_campaign_passes(self, tmp_path, capsys):
        code = main(["simulate", "--out", str(tmp_path), "--seed", "11"])
        out = capsys.readouterr().out
        assert code == 0
        assert "overall: pass" in out
        body = json.loads((tmp_path / "verification.json").read_text())
        assert body["passed"] is True
        assert body["seed"] == 11
        assert body["version"] == __version__
        assert body["config"]["f0"] == 1.5e9
        names = [c["name"] for c in body["checks"]]
        assert "orthogonality" in names
        assert any(n.startswith("snr_below_crit") for n in names)

    def test_rerun_byte_identical(self, tmp_path):
        out = tmp_path / "run"
        main(["simulate", "--out", str(out), "--seed", "3"])
        first = (out / "verification.json").read_bytes()
        main(["simulate", "--out", str(out), "--seed", "3"])
        assert (out / "verification.json").read_bytes() == first

    def test_same_bytes_at_one_and_four_blas_threads(self, tmp_path):
        # the noise stage's eta @ kernel.T is a BLAS product, whose bits a thread count could change
        code = f"from wavedof import cli\nassert cli.main({['simulate', *SMALL_PLAN, '--seed', '5', '--out', 'out']!r}) == 0"
        reports = []
        for threads in ("1", "4"):
            run_fresh(code, tmp_path, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
            reports.append((tmp_path / "out" / "verification.json").read_bytes())
        assert reports[0] == reports[1]

    def test_failed_check_exits_3(self, tmp_path, capsys):
        # narrow band around 2.4 GHz: marginal orders clear their critical
        # frequency but the loose bound leaves no in-band SNR margin
        code = main([
            "simulate", "--f0", "2.4e9", "--half-bw", "0.5e9", "--p-max", "1000",
            "--out", str(tmp_path),
        ])
        assert code == 3
        assert "overall: FAIL" in capsys.readouterr().out
        body = json.loads((tmp_path / "verification.json").read_text())
        assert body["passed"] is False

    def test_single_trial_exits_2(self, tmp_path, capsys):
        code = main(["simulate", "--num-trials", "1", "--out", str(tmp_path)])
        assert code == 2
        assert "num_trials" in capsys.readouterr().err

    def test_silent_channel_exits_0_with_skips(self, tmp_path, capsys):
        code = main([
            "simulate", "--noise-var", "0", "--num-trials", "200", "--out", str(tmp_path),
        ])
        assert code == 0
        body = json.loads((tmp_path / "verification.json").read_text())
        assert body["passed"] is True
        verdicts = {c["name"]: c["verdict"] for c in body["checks"]}
        assert verdicts["dof_prediction"] == "skipped"

    def test_tiny_radius_runs_without_warning(self, tmp_path, capsys):
        # 200 c / radius overflows, but the time support never forms it
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main(["simulate", "--radius", "1e-300", "--num-trials", "200", "--out", str(tmp_path)])
        assert code in (0, 3)
        assert capsys.readouterr().err == ""
        checks = json.loads((tmp_path / "verification.json").read_text())["checks"]
        support = next(c for c in checks if c["name"] == "time_support_leakage")
        assert support["verdict"] == "pass"

    def test_aliasing_plan_exits_2(self, tmp_path, capsys):
        code = main([
            "simulate", "--circle-samples", "8", "--n-probe", "16", "--out", str(tmp_path),
        ])
        assert code == 2
        assert "alias" in capsys.readouterr().err


class TestTables:
    def test_bessel_zero_row(self, tmp_path):
        main([
            "tables", "--kind", "bessel", "--orders", "0", "1", "2", "3", "4",
            "--samples", "101", "--out", str(tmp_path),
        ])
        cols = read_csv_columns(tmp_path / "tables_bessel.csv")
        assert cols["z"][0] == 0.0
        assert [cols[f"j{n}"][0] for n in range(5)] == [1.0, 0.0, 0.0, 0.0, 0.0]

    def test_first_peak_moves_right_with_order(self, tmp_path):
        main([
            "tables", "--kind", "bessel", "--orders", "0", "1", "2", "3", "4",
            "--samples", "481", "--z-max", "12", "--out", str(tmp_path),
        ])
        cols = read_csv_columns(tmp_path / "tables_bessel.csv")

        def first_peak(vals):
            for i in range(1, len(vals) - 1):
                if vals[i] >= vals[i - 1] and vals[i] >= vals[i + 1]:
                    return i
            raise AssertionError("no interior peak")

        peaks = [0] + [first_peak(cols[f"j{n}"]) for n in range(1, 5)]
        assert peaks == sorted(peaks)
        assert len(set(peaks)) == 5

    def test_chebyshev_first_kind_bounded(self, tmp_path):
        main([
            "tables", "--kind", "chebyshev", "--orders", "0", "1", "5", "9",
            "--samples", "201", "--out", str(tmp_path),
        ])
        cols = read_csv_columns(tmp_path / "tables_chebyshev.csv")
        for n in (0, 1, 5, 9):
            assert max(abs(v) for v in cols[f"t{n}"]) <= 1.0 + 1e-12
        # second kind hits n+1 at the endpoints
        assert cols["u9"][-1] == pytest.approx(10.0)

    @pytest.mark.parametrize("block", [1, 2, 4, 5, cli._ROW_BLOCK])
    def test_rows_spelled_cell_by_cell_across_blocks(self, tmp_path, block):
        # the rows are formatted a block at a time, as each cell's f"{v:.9g}" joined by commas
        with mock.patch.object(cli, "_ROW_BLOCK", block):
            main(["tables", "--kind", "chebyshev", "--orders", "3", "0", "--samples", "9", "--out", str(tmp_path)])
        grid = np.linspace(-1.0, 1.0, 9)
        cols = [grid, chebyshev_first_kind(3, grid), chebyshev_second_kind(3, grid), np.ones(9), np.ones(9)]
        want = ["z,t3,u3,t0,u0\n"] + [",".join(f"{c[i]:.9g}" for c in cols) + "\n" for i in range(9)]
        lines = (tmp_path / "tables_chebyshev.csv").read_text().splitlines(keepends=True)
        assert lines[5:] == want

    def test_traced_peak_is_the_columns_plus_one_block(self, tmp_path, capsys):
        # 60,000 rows of three 8-byte columns; the whole table's text would take 6.4 MB
        argv = ["tables", "--kind", "chebyshev", "--orders", "0", "--samples", "60000", "--out", str(tmp_path)]
        main(argv)
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one block of text and the numbers it is formatted from: measured 146 B per row
        assert peak < 3 * 8 * 60_000 + 200 * cli._ROW_BLOCK

    @pytest.mark.parametrize("block", [1, 2, 5, cli._ROW_BLOCK])
    @pytest.mark.parametrize("kind,orders", [("bessel", [10, 0, 2]), ("chebyshev", [3, 3, 0, 10])])
    def test_json_streamed_as_json_dumps_spells_it(self, tmp_path, kind, orders, block):
        # z and every column are written _ROW_BLOCK values at a time, in the bytes of one json.dumps
        argv = ["tables", "--kind", kind, "--orders", *map(str, orders), "--samples", "9", "--format", "json"]
        with mock.patch.object(cli, "_ROW_BLOCK", block):
            assert main([*argv, "--out", str(tmp_path)]) == 0
        text = (tmp_path / f"tables_{kind}.json").read_text()
        body = json.loads(text)
        assert text == json.dumps(body, indent=2, sort_keys=True) + "\n"
        if kind == "bessel":
            grid = np.linspace(0.0, 20.0, 9)
            want = {f"j{n}": bessel_j_table(10, grid)[:, n].tolist() for n in orders}
        else:
            grid = np.linspace(-1.0, 1.0, 9)
            want = {f"{k}{n}": f(n, grid).tolist() for n in orders
                    for k, f in (("t", chebyshev_first_kind), ("u", chebyshev_second_kind))}
        assert body["z"] == grid.tolist()
        assert body["columns"] == want

    def test_json_traced_peak_is_the_columns_plus_one_block(self, tmp_path, capsys):
        # 10,000 rows of three 8-byte columns; one json.dumps of the whole body traced 3.9 MB
        argv = ["tables", "--kind", "chebyshev", "--orders", "0", "--samples", "10000", "--format", "json",
                "--out", str(tmp_path)]
        main(argv)
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one block of items and the numbers they are formatted from: measured 1.2 MB in all
        assert peak < 3 * 8 * 10_000 + 200 * cli._ROW_BLOCK

    def test_json_format(self, tmp_path):
        main([
            "tables", "--kind", "bessel", "--orders", "0", "2", "--samples", "11",
            "--format", "json", "--out", str(tmp_path),
        ])
        body = json.loads((tmp_path / "tables_bessel.json").read_text())
        assert body["params"]["orders"] == [0, 2]
        assert len(body["z"]) == 11
        assert body["columns"]["j0"][0] == 1.0

    def test_negative_order_exits_2(self, tmp_path, capsys):
        code = main([
            "tables", "--kind", "bessel", "--orders", "0", "-3", "--out", str(tmp_path),
        ])
        assert code == 2
        assert "orders" in capsys.readouterr().err

    def test_bad_samples_exits_2(self, tmp_path):
        code = main([
            "tables", "--kind", "bessel", "--orders", "0", "--samples", "1",
            "--out", str(tmp_path),
        ])
        assert code == 2

    def test_bad_z_max_exits_2(self, tmp_path):
        code = main([
            "tables", "--kind", "bessel", "--orders", "0", "--z-max", "-5",
            "--out", str(tmp_path),
        ])
        assert code == 2

    def test_bad_z_max_creates_no_out_dir(self, tmp_path, capsys):
        out = tmp_path / "new"
        code = main(["tables", "--kind", "bessel", "--orders", "0", "1", "--z-max", "-1", "--out", str(out)])
        assert code == 2
        assert "z-max" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--config", *(f"--{k.replace('_', '-')}" for k in cli.DEFAULT_CONFIG)])
    def test_scenario_flag_exits_2_creating_nothing(self, tmp_path, capsys, flag):
        # a table reads none of these, so none is accepted and silently dropped
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("radius = 0.2\n")
        value = str(cfg) if flag == "--config" else "1"
        out = tmp_path / "new"
        with pytest.raises(SystemExit) as exc:
            main(["tables", "--kind", "bessel", "--orders", "0", flag, value, "--out", str(out)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert sum("error:" in line for line in err.splitlines()) == 1 and flag in err
        assert not out.exists()


class TestParser:
    def test_built_once(self):
        assert cli._build_parser() is cli._build_parser()

    def test_missing_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_each_command_takes_the_flags_it_reads(self):
        sub = next(a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        flags = {name: {f for a in p._actions if a.dest != "help" for f in a.option_strings}
                 for name, p in sub.choices.items()}
        artifact = {"--out", "--seed", "--format"}
        scenario = {"--config", *CONFIG_FLAGS} - {"--seed"}
        assert flags == {
            "analyze": artifact | scenario,
            "sweep": artifact | scenario | {"--axis", "--values"},
            "simulate": artifact | scenario | set(PLAN_FLAGS),
            "tables": artifact | {"--kind", "--orders", "--samples", "--z-max"},
        }

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert __version__ in capsys.readouterr().out


# Values every flag may get besides its valid ones: zero, negatives, the
# non-finite floats, the top of the float range, an integer past it, and
# non-numbers.
ODD_VALUES = ("0", "-1", "nan", "inf", "-inf", "1e308", str(10**400), "abc", "")

# Valid values per flag; the simulate plan flags stay small, so a plan
# that is accepted runs in a few tens of milliseconds.
VALID_VALUES = {
    "--f0": ("2e9",), "--half-bw": ("1e9",), "--radius": ("0.05", "0.2"), "--obs-time": ("1e-9",),
    "--wave-speed": ("3e8",), "--gamma": ("2",),
    # tiny powers too, which analyze takes and simulate rejects
    "--noise-var": ("0.5", "1e-300", "1e-150"), "--p-max": ("100", "1e-300", "1e-150"),
    "--seed": ("0", "5"),
    "--num-trials": ("100", "150"), "--circle-samples": ("16", "34"), "--n-probe": ("2", "4"),
    "--freq-samples": ("17", "33"),
    "--orders": ("0", "3", "10"), "--samples": ("5", "50"), "--z-max": ("10",),
}
CONFIG_FLAGS = ("--f0", "--half-bw", "--radius", "--obs-time", "--wave-speed", "--noise-var", "--p-max", "--gamma", "--seed")
PLAN_FLAGS = ("--num-trials", "--circle-samples", "--n-probe", "--freq-samples")


@st.composite
def cli_argvs(draw):
    """A subcommand with a few of its known flags, each given a valid or an odd value."""
    def value(flag):
        return draw(st.sampled_from(VALID_VALUES[flag]) | st.sampled_from(ODD_VALUES))

    command = draw(st.sampled_from(["analyze", "sweep", "simulate", "tables"]))
    argv = [command]
    # tables takes no scenario flag, and rejects each at parse time
    flags = ("--seed",) if command == "tables" else CONFIG_FLAGS
    for flag in draw(st.lists(st.sampled_from(flags), max_size=3, unique=True)):
        argv += [flag, value(flag)]
    if command == "simulate":
        # every plan flag is given, so no default-sized campaign runs
        for flag in PLAN_FLAGS:
            argv += [flag, value(flag)]
    elif command == "sweep":
        axis = draw(st.sampled_from(["radius", "half_bw", "gamma", "obs_time"]))
        valid = {"radius": ("0.05", "0.1"), "half_bw": ("1e8", "1e9"), "gamma": ("0.5", "2"), "obs_time": ("0", "1e-9")}[axis]
        values = draw(st.just(list(valid)) | st.lists(st.sampled_from(valid + ODD_VALUES), min_size=1, max_size=3))
        argv += ["--axis", axis, "--values", *values]
    elif command == "tables":
        argv += ["--kind", draw(st.sampled_from(["bessel", "chebyshev"]))]
        argv += ["--orders", *[value("--orders") for _ in range(draw(st.integers(1, 2)))]]
        for flag in draw(st.lists(st.sampled_from(["--samples", "--z-max"]), max_size=2, unique=True)):
            argv += [flag, value(flag)]
    return argv


class TestArgvProperty:
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(argv=cli_argvs())
    @example(argv=["simulate", "--noise-var", "1e-300", *SMALL_PLAN])
    @example(argv=["simulate", "--noise-var", "1e-150", *SMALL_PLAN])
    @example(argv=["simulate", "--noise-var", "1e308", *SMALL_PLAN])
    @example(argv=["simulate", "--p-max", "1e308", *SMALL_PLAN])
    def test_exit_code_and_one_error_line(self, argv):
        # argparse rejections exit through SystemExit; everything else returns;
        # no input may warn its way to a NaN or an overflow
        out, err = io.StringIO(), io.StringIO()
        with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            try:
                code = main([*argv, "--out", tmp])
            except SystemExit as exc:
                code = exc.code
        err = err.getvalue()
        assert code in (0, 2, 3), (argv, err)
        assert "Traceback" not in out.getvalue() + err
        if code == 2:
            assert sum("error:" in line for line in err.splitlines()) == 1, (argv, err)


# The report writers before the budget became columnar, kept as the byte
# oracle of the streamed ones: DofReport.to_dict dumped with the artifact
# body, and DofReport.to_csv's row loop.


def old_report_dict(rep):
    return {
        "config": rep.config.to_dict(),
        "t_eff": rep.t_eff,
        "n_upper": rep.n_upper,
        "per_order": [r._asdict() for r in rep.per_order],
        "total": rep.total,
    }


def old_report_csv(rep):
    lines = ["n,f_crit_hz,w_eff_hz,dof"]
    for r in rep.per_order:
        lines.append(f"{r.n:d},{r.f_crit:.9g},{r.w_eff:.9g},{r.dof:.9g}")
    return "\n".join(lines) + "\n"


def old_analyze_artifacts(cfg, out):
    """dof_report.json and dof_report.csv, less its # generated line, as analyze wrote them."""
    rep = dofcore.total_dof(cfg)
    manifest = {"command": "analyze", "config_source": "flags+defaults", "out_dir": str(out),
                "seed": 0, "format": "csv"}
    body = {"version": __version__, "manifest": manifest, "seed": 0, "config": cfg.to_dict(),
            "report": old_report_dict(rep)}
    resolved = " ".join(f"{k}={v!r}" for k, v in sorted(cfg.to_dict().items()))
    comments = [f"# tool: wavedof {__version__}", "# command: analyze", "# seed: 0", f"# config: {resolved}"]
    return json.dumps(body, indent=2, sort_keys=True) + "\n", "\n".join(comments) + "\n" + old_report_csv(rep)


def assert_writers_match_oracle(cfg, out):
    flags = [arg for k, v in cfg.to_dict().items() for arg in (f"--{k.replace('_', '-')}", repr(v))]
    assert main(["analyze", *flags, "--out", str(out)]) == 0
    want_json, want_csv = old_analyze_artifacts(cfg, out)
    assert (out / "dof_report.json").read_text() == want_json
    csv_lines = (out / "dof_report.csv").read_text().split("\n")
    assert csv_lines[4].startswith("# generated: ")
    assert "\n".join(csv_lines[:4] + csv_lines[5:]) == want_csv


def cfg_with_orders(n_upper, ratio=1.0, obs_time=0.0):
    """The wideband default band with N_u == n_upper; ratio is gamma / snr_max."""
    shift = 0.5 * math.log(ratio) if n_upper - 0.5 + 0.5 * math.log(ratio) > 0.0 else 0.0
    band_high = 2.8e9
    # band_high / scale - shift == n_upper - 1/2, halfway between two floors
    radius = (n_upper - 0.5 + shift) * 3e8 / (math.e * math.pi * band_high)
    cfg = ChannelConfig(f0=1.5e9, half_bw=1.3e9, radius=radius, obs_time=obs_time, wave_speed=3e8,
                        noise_var=1.0, p_max=1.0, gamma=math.exp(2.0 * shift))
    assert dofcore.truncation_order(cfg) == n_upper
    return cfg


class TestReportWriters:
    """analyze writes the rows from the columns, in blocks, with the old bytes."""

    @settings(max_examples=60, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        n_upper=st.one_of(st.integers(1, 40), st.integers(1, 3000)),
        ratio=st.floats(1e-6, 1e6),
        obs_time=st.one_of(st.just(0.0), st.floats(0.0, 1e-6)),
        block=st.sampled_from([1, 2, 7, 8, 64, cli._ROW_BLOCK]),
    )
    def test_matches_old_writers(self, tmp_path, n_upper, ratio, obs_time, block):
        with mock.patch.object(cli, "_ROW_BLOCK", block):
            assert_writers_match_oracle(cfg_with_orders(n_upper, ratio, obs_time), tmp_path)

    @pytest.mark.parametrize(
        "block,n_upper",
        # rows = 2 N_u - 1 at the block size and one to either side of it
        [(cli._ROW_BLOCK, 4096), (cli._ROW_BLOCK, 4097), (7, 4), (8, 4), (8, 5), (1, 1), (1, 2)],
    )
    def test_rows_around_the_block_size(self, tmp_path, block, n_upper):
        with mock.patch.object(cli, "_ROW_BLOCK", block):
            assert_writers_match_oracle(cfg_with_orders(n_upper, obs_time=2e-9), tmp_path)

    @pytest.mark.parametrize(
        "kw",
        [dict(radius=0.0, gamma=2000.0), dict(radius=0.0, gamma=0.5), dict(p_max=0.0),
         dict(radius=0.37, gamma=1e-3)],
    )
    def test_degenerate_configs(self, tmp_path, kw):
        # R = 0 and a silent channel put f_crit at inf, which JSON spells Infinity
        cfg = ChannelConfig(**{**cli.DEFAULT_CONFIG, **kw})
        assert_writers_match_oracle(cfg, tmp_path)

    def test_placeholder_in_out_path(self, tmp_path):
        out = tmp_path / f'"per_order": "{cli._ROWS_PLACEHOLDER}" inf'
        assert_writers_match_oracle(ChannelConfig(**{**cli.DEFAULT_CONFIG, "radius": 0.0}), out)
        assert_writers_match_oracle(ChannelConfig(**cli.DEFAULT_CONFIG), out)

    @pytest.mark.parametrize(
        "block,stitch,n_upper",
        # N_u one below, at and one above a block of orders |n|, and past two
        # blocks; small blocks are stitched in chunks that do not divide them
        [(b, s, n) for b, s in ((cli._ROW_BLOCK, cli._STITCH_ROWS), (1, 3), (2, 3), (7, 3))
         for n in (b - 1, b, b + 1, 2 * b + 1) if n >= 1],
    )
    def test_orders_around_the_block_size(self, tmp_path, block, stitch, n_upper):
        cfg = cfg_with_orders(n_upper, obs_time=2e-9)
        with mock.patch.object(cli, "_ROW_BLOCK", block), mock.patch.object(cli, "_STITCH_ROWS", stitch):
            assert_writers_match_oracle(cfg, tmp_path)
            # the JSON writer opens the list with the first block's text
            assert all(cli._report_csv(dofcore.total_dof(cfg)))

    def test_traced_peak_is_the_columns_plus_one_block(self, tmp_path, capsys):
        # R = 251 m gives 40,019 rows; the rows before the change held 1.35 kB each
        rows, peak = traced_analyze_peak(tmp_path, 251.0)
        assert rows >= 40_000 > 4 * cli._ROW_BLOCK
        # four 8-byte columns, plus one block of text and the numbers it is
        # formatted from (measured 575 B per row of the block)
        assert peak < 4 * 8 * rows + 640 * cli._ROW_BLOCK

    def test_traced_peak_of_a_single_block(self, tmp_path, capsys):
        # R = 99 m gives N_u = 7,895 < _ROW_BLOCK: one block of orders serves both signs
        rows, peak = traced_analyze_peak(tmp_path, 99.0)
        assert rows == 2 * 7_895 - 1
        assert peak < 4 * 8 * rows + 640 * cli._ROW_BLOCK


def traced_analyze_peak(out, radius):
    """(rows, tracemalloc peak) of a second ``analyze`` at ``radius``, after one untraced run."""
    argv = ["analyze", "--radius", repr(radius), "--out", str(out)]
    rows = dofcore.total_dof(ChannelConfig(**{**cli.DEFAULT_CONFIG, "radius": radius})).n.size
    main(argv)
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return rows, peak


def test_every_artifact_goes_through_one_writer_per_format():
    # the writers are the only callers of _artifact, the one place an artifact is opened
    text = Path(cli.__file__).read_text()
    tree = ast.parse(text)
    owner = {}
    for fn in ast.walk(tree):
        if isinstance(fn, ast.FunctionDef):
            # breadth first, so a nested function's nodes end with its own name
            owner.update({id(node): fn.name for node in ast.walk(fn)})
    callers = {"_artifact": set(), "open": set()}
    for node in ast.walk(tree):
        func = getattr(node, "func", None)
        name = getattr(func, "id", getattr(func, "attr", None))
        if isinstance(node, ast.Call) and name in callers:
            callers[name].add(owner.get(id(node)))
    assert callers == {"_artifact": {"_write_csv", "_write_json"}, "open": {"_artifact"}}
    assert text.count("# generated:") == 1
