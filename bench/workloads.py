"""The benchmark's three workloads: input generation, one timed operation, output check.

Every input is derived from the workload seed and the operation index, so
the same seed reproduces the same sequence of operations however many of
them a run completes.  The checks recompute what they compare against from
the paper's formulas or from a second synthesis route; they never call the
code that is being timed.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import warnings
from pathlib import Path

import numpy as np

from wavedof import channel, cli

# The CLI's wideband default scenario, passed explicitly so that the
# benchmark fixes its own inputs and knows them without asking the program.
BASE_CONFIG = {
    "f0": 1.5e9,
    "half_bw": 1.3e9,
    "radius": 0.1,
    "obs_time": 0.0,
    "wave_speed": 3e8,
    "noise_var": 1.0,
    "p_max": 1000.0,
    "gamma": 1.0,
}
CAMPAIGN_PLAN = {"num_trials": 2000, "circle_samples": 64, "n_probe": 16, "freq_samples": 257}

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


class CheckFailed(Exception):
    """An operation's output disagrees with the benchmark's own reference."""


def _flags(values: dict) -> list[str]:
    return [arg for key, val in values.items() for arg in (f"--{key.replace('_', '-')}", repr(val))]


def _log_uniform(seed: int, i: int, lo: float, hi: float) -> float:
    """Radius of operation i: a golden-ratio (Weyl) sequence in log space.

    Any run prefix covers [lo, hi] evenly, so the mix of small and large
    disks, and with it every timing quantile, varies little from seed to
    seed; the seed sets the sequence's offset.
    """
    u = (np.random.default_rng(seed).random() + i * _GOLDEN) % 1.0
    return lo * (hi / lo) ** u


def _op_rng(seed: int, i: int) -> np.random.Generator:
    return np.random.default_rng([seed, i])


def _call_cli(argv: list[str]) -> int:
    # the summary the CLI prints is part of its cost but not of our output
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


def _crit_line(cfg: dict) -> tuple[float, float]:
    """(scale, shift) of the critical frequency F_n = max(0, scale * (n + shift))."""
    scale = cfg["wave_speed"] / (math.e * math.pi * cfg["radius"])
    return scale, 0.5 * math.log(cfg["gamma"] * cfg["noise_var"] / cfg["p_max"])


def budget_oracle(cfg: dict) -> tuple[int, float, float]:
    """(N_u, T_eff, D) from the paper's closed forms.

    F_n = c/(e pi R) (n + ln(gamma/snr_max)/2) clipped at 0, N_u the first
    order with F_n above the band, W_0 = 2W, W_n = f_hi - max(f_lo, F_n),
    T_eff = T + 2R/c and D = sum_{|n| < N_u} (W_n T_eff + 1).
    """
    f_lo, f_hi = cfg["f0"] - cfg["half_bw"], cfg["f0"] + cfg["half_bw"]
    scale, shift = _crit_line(cfg)
    n_upper = max(1, math.floor(f_hi / scale - shift) + 1)
    t_eff = cfg["obs_time"] + 2.0 * cfg["radius"] / cfg["wave_speed"]
    f_crit = np.maximum(0.0, scale * (np.arange(1, n_upper) + shift))
    w_eff = f_hi - np.maximum(f_lo, f_crit)
    total = (2 * n_upper - 1) + t_eff * (2.0 * cfg["half_bw"] + 2.0 * math.fsum(w_eff))
    return n_upper, t_eff, total


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * abs(b)


def _csv_roundtrip(text: str, formats: list[str]) -> list[list]:
    """Parse an emitted CSV, re-serialize it with the stated row formats, return the rows."""
    lines = text.split("\n")
    if lines[-1] != "":
        raise CheckFailed("CSV does not end with a newline")
    body = [line for line in lines[:-1] if not line.startswith("#")]
    comments = [line for line in lines[:-1] if line.startswith("#")]
    header, rows = body[0], body[1:]
    parsed = []
    for line in rows:
        fields = line.split(",")
        if len(fields) != len(formats):
            raise CheckFailed(f"CSV row {line!r} has {len(fields)} fields, expected {len(formats)}")
        parsed.append([int(f) if fmt == "d" else float(f) for f, fmt in zip(fields, formats)])
    out = comments + [header] + [",".join(format(v, fmt) for v, fmt in zip(row, formats)) for row in parsed]
    if "\n".join(out) + "\n" != text:
        raise CheckFailed("CSV does not re-serialize to the same bytes")
    return parsed


def _stable_size(text: str) -> int:
    """Bytes of an artifact without the CSV timestamp line, whose length can vary."""
    start = text.find("# generated:")
    stamp = text.index("\n", start) + 1 - start if start >= 0 else 0
    return len(text.encode()) - stamp


class Campaign:
    """`wavedof simulate` with the default scenario and plan, one seed per operation."""

    name = "campaign"
    trace_ops_per_s = 0.8

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.out = workdir / "campaign"
        n_upper, _, _ = budget_oracle(BASE_CONFIG)
        self.expected_names = self._expected_check_names(n_upper)
        self.first_body = None

    @staticmethod
    def _expected_check_names(n_upper: int) -> list[str]:
        cfg, n_probe = BASE_CONFIG, CAMPAIGN_PLAN["n_probe"]
        names = ["orthogonality"]
        names += [f"noise_var[n={n}]" for n in range(-n_probe, n_probe + 1)]
        names += ["noise_mean_worst", "noise_cross[1,2]", "noise_cross_worst"]
        names += ["power_balance", "power_balance_exact", "time_support_leakage"]
        scale, shift = _crit_line(cfg)
        for n in range(1, min(n_upper - 1, n_probe) + 1):
            f_crit = max(0.0, scale * (n + shift))
            if f_crit > 0.0:
                names.append(f"snr_below_crit[n={n}]")
            if f_crit < cfg["f0"] - cfg["half_bw"]:
                names.append(f"snr_full_band[n={n}]")
        names.append(f"snr_truncated[n={n_upper}]")
        return names

    def prepare(self, i: int) -> dict:
        op_seed = int(_op_rng(self.seed, i).integers(0, 2**31))
        argv = ["simulate", "--seed", str(op_seed), "--out", str(self.out)]
        argv += _flags(BASE_CONFIG) + _flags(CAMPAIGN_PLAN)
        return {"i": i, "seed": op_seed, "argv": argv}

    def run(self, inp: dict) -> int:
        return _call_cli(inp["argv"])

    def check(self, inp: dict, code: int) -> dict:
        if code not in (0, 3):
            raise CheckFailed(f"simulate exited {code}")
        path = self.out / "verification.json"
        body = path.read_bytes()
        doc = json.loads(body)
        names = [c["name"] for c in doc["checks"]]
        if names != self.expected_names:
            raise CheckFailed(f"check names {names} differ from the expected {self.expected_names}")
        if doc["seed"] != inp["seed"]:
            raise CheckFailed(f"artifact seed {doc['seed']} is not the operation seed {inp['seed']}")
        verdicts = [c["verdict"] for c in doc["checks"]]
        if not set(verdicts) <= {"pass", "fail", "skipped"}:
            raise CheckFailed(f"unknown verdicts {set(verdicts)}")
        failed = verdicts.count("fail")
        if doc["passed"] != (failed == 0) or code != (0 if failed == 0 else 3):
            raise CheckFailed(f"exit code {code} and passed={doc['passed']} disagree with {failed} failed checks")
        # operation 0 runs as the warm-up and again as the first timed operation
        if inp["i"] == 0:
            if self.first_body is None:
                self.first_body = body
            elif body != self.first_body:
                raise CheckFailed("re-running the same seed changed verification.json")
        return {"checks_run": len(names), "checks_failed": failed, "artifact_bytes": len(body)}


class Budget:
    """`wavedof analyze` then `wavedof sweep` on a disk whose radius spans 0.05 to 100 m."""

    name = "budget"
    trace_ops_per_s = 8.0

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.out = workdir / "budget"

    def prepare(self, i: int) -> dict:
        cfg = dict(BASE_CONFIG)
        cfg["radius"] = _log_uniform(self.seed, i, 0.05, 100.0)
        cfg["obs_time"] = float(_op_rng(self.seed, i).uniform(0.0, 1e-8))
        radii = [cfg["radius"] / 4.0, cfg["radius"] / 2.0, cfg["radius"]]
        flags = _flags(cfg) + ["--out", str(self.out)]
        return {
            "cfg": cfg,
            "radii": radii,
            "analyze": ["analyze", *flags],
            "sweep": ["sweep", "--axis", "radius", "--values", *map(repr, radii), *flags],
        }

    def run(self, inp: dict) -> tuple[int, int]:
        return _call_cli(inp["analyze"]), _call_cli(inp["sweep"])

    def check(self, inp: dict, codes: tuple[int, int]) -> dict:
        if codes != (0, 0):
            raise CheckFailed(f"analyze, sweep exited {codes}")
        n_upper, t_eff, total = budget_oracle(inp["cfg"])
        report_text = (self.out / "dof_report.json").read_text()
        report = json.loads(report_text)["report"]
        if report["n_upper"] != n_upper or len(report["per_order"]) != 2 * n_upper - 1:
            raise CheckFailed(f"N_u {report['n_upper']} with {len(report['per_order'])} rows, expected {n_upper}")
        if not (_close(report["total"], total, 1e-9) and _close(report["t_eff"], t_eff, 1e-9)):
            raise CheckFailed(f"total {report['total']!r}, t_eff {report['t_eff']!r}; expected {total!r}, {t_eff!r}")
        csv_text = (self.out / "dof_report.csv").read_text()
        rows = _csv_roundtrip(csv_text, ["d", ".9g", ".9g", ".9g"])
        if [r[0] for r in rows] != list(range(-(n_upper - 1), n_upper)):
            raise CheckFailed("per-order CSV rows are not the orders -(N_u-1)..N_u-1")
        sweep_text = (self.out / "sweep_radius.csv").read_text()
        rows = _csv_roundtrip(sweep_text, [".9g", "d", ".9g", ".9g"])
        if len(rows) != len(inp["radii"]):
            raise CheckFailed(f"sweep has {len(rows)} rows, expected {len(inp['radii'])}")
        for (value, n_up, _, tot), radius in zip(rows, inp["radii"]):
            want_n, _, want_total = budget_oracle({**inp["cfg"], "radius": radius})
            # 9 significant digits in the CSV
            if n_up != want_n or not _close(tot, want_total, 1e-8) or not _close(value, radius, 1e-8):
                raise CheckFailed(f"sweep row R={value}: N_u {n_up}, D {tot}; expected {want_n}, {want_total}")
        return {"artifact_bytes": sum(map(_stable_size, (report_text, csv_text, sweep_text)))}


class Synthesis:
    """Scatterers, modal coefficients, both field syntheses at 64 disk points, one noisy circle."""

    name = "synthesis"
    trace_ops_per_s = 20.0
    num_scatterers = 32
    num_freqs = 32
    num_points = 64
    circle_nodes = 64
    # the modal truncation rule promises a tail below this, relative to sum_j |g_j|
    rel_tol = 1e-8

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed

    def prepare(self, i: int) -> dict:
        rng = _op_rng(self.seed, i)
        cfg = channel.ChannelConfig(**{**BASE_CONFIG, "radius": _log_uniform(self.seed, i, 0.05, 2.0)})
        grid = np.linspace(cfg.band_low, cfg.band_high, self.num_freqs)
        k = int(rng.integers(0, self.num_freqs))
        r = cfg.radius * np.sqrt(rng.random(self.num_points))
        phi = rng.uniform(0.0, 2.0 * math.pi, self.num_points)
        return {
            "cfg": cfg,
            "scatterer_seed": int(rng.integers(0, 2**31)),
            "noise_seed": int(rng.integers(0, 2**31)),
            "k": k,
            "omega": 2.0 * math.pi * float(grid[k]),
            "points": [(float(a), float(b)) for a, b in zip(r, phi)],
        }

    def run(self, inp: dict):
        cfg, omega = inp["cfg"], inp["omega"]
        with warnings.catch_warnings():
            # a truncation shortfall warning means an inaccurate field: fail the operation
            warnings.simplefilter("error", RuntimeWarning)
            s = channel.make_scatterers(cfg, self.num_scatterers, self.num_freqs, inp["scatterer_seed"])
            ms = channel.modal_coefficients(s, channel.modal_truncation_order(cfg))
            plane = [channel.synth_field_planewave(s, cfg, x, omega) for x in inp["points"]]
            modal = [channel.synth_field_modal(ms, cfg, x, omega) for x in inp["points"]]
            circle = channel.synth_field_circle(s, cfg, self.circle_nodes, omega, with_noise=True, seed=inp["noise_seed"])
        return s, plane, modal, circle

    def check(self, inp: dict, out) -> dict:
        s, plane, modal, circle = out
        scale = float(np.sum(np.abs(s.gains[:, inp["k"]])))
        err = float(np.max(np.abs(np.array(plane) - np.array(modal)))) / scale
        if not err <= self.rel_tol:
            raise CheckFailed(f"plane-wave and modal fields differ by {err:.3g} relative (limit {self.rel_tol:g})")
        if circle.values.shape != (self.circle_nodes, 1) or not circle.noise_included:
            raise CheckFailed(f"noisy circle has shape {circle.values.shape}, noise_included={circle.noise_included}")
        return {}


WORKLOADS = {w.name: w for w in (Campaign, Budget, Synthesis)}
