"""Command line front end.

Four subcommands: ``analyze`` evaluates the degree-of-freedom budget of
one configuration, ``sweep`` tabulates it along one parameter axis,
``simulate`` runs the Monte Carlo verification campaign, and ``tables``
exports special-function curve data.  Artifacts embed the seed, the
fully resolved configuration, and the tool version, each once; JSON
bodies carry no timestamp and CSV carries it only on a comment line, and
no artifact records where it was written, so re-runs with the same
inputs are byte-identical up to that line, in any --out directory.

Each command imports the modules it computes with once its inputs are
checked, so ``--version``, ``--help`` and an input error load no numpy.

Exit codes: 0 success, 2 invalid input, 3 verification failure.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import json
import math
import os
import sys
from datetime import datetime, timezone
from pathlib import Path
from typing import TYPE_CHECKING, Iterator

from . import __version__
from .config import ChannelConfig, _check_cells, _int_arg, _real_arg

if TYPE_CHECKING:
    from .dofcore import DofReport
    from .verify import TrialPlan

__all__ = ["main", "load_config_file"]

DEFAULT_CONFIG = {
    "f0": 1.5e9,
    "half_bw": 1.3e9,
    "radius": 0.1,
    "obs_time": 0.0,
    "wave_speed": 3e8,
    "noise_var": 1.0,
    "p_max": 1000.0,
    "gamma": 1.0,
}

_PLAN_KEYS = ("num_trials", "circle_samples", "n_probe", "freq_samples")
_INT_KEYS = ("seed", *_PLAN_KEYS)

SWEEP_AXES = ("radius", "half_bw", "gamma", "obs_time")

# Bound on the cells a table computes: samples times J_0..J_max for
# bessel, times a T and a U column per order for chebyshev.  A few
# seconds of work: 2^22 chebyshev cells write 98 MB of JSON or 35 MB of
# CSV, and peak at 82 MB resident in either format.
_MAX_TABLE_CELLS = 2**22

# Rows formatted at once when a budget or table is written as text; a
# budget's block holds this many orders |n|.  One block's text for both
# signs takes a few MB, so the writers need the columns plus one block
# however large N_u is: the traced peak of analyze is 3.5 MB at R = 99 m
# (one block) and 4.4 MB at R = 251 m (three).
_ROW_BLOCK = 8192
# Rows per string handed to a writer.  A writer copies what it gets (the
# JSON spelling of inf, the encoding) while the innermost block's text is
# held across the -n and +n sections, so whole-block strings put R = 99 m
# at 4.9 MB.  1024 rows gave 3.2 MB there, but left the allocator with
# about 1 MB more resident memory over a run of budget operations.
_STITCH_ROWS = 4096


def load_config_file(path: str) -> dict:
    """Flat key-value config: one ``key = value`` per line, # comments; integer keys as int."""
    known = set(DEFAULT_CONFIG) | set(_INT_KEYS)
    out: dict = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ValueError(f"cannot read config file: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        if key not in known:
            raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            out[key] = float(val.strip())
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: bad number {val.strip()!r}") from exc
        if key in _INT_KEYS:
            if not out[key].is_integer():
                raise ValueError(f"{path}:{lineno}: {key} must be a whole number, got {val.strip()!r}")
            out[key] = int(out[key])
    return out


def _given(args, file_vals: dict, keys) -> dict:
    """The keys set in the config file or by flag; a flag wins over the file."""
    given = {k: file_vals[k] for k in keys if k in file_vals}
    given.update({k: getattr(args, k) for k in keys if getattr(args, k, None) is not None})
    return given


def _resolve_config(args, file_vals: dict) -> ChannelConfig:
    return ChannelConfig(**{**DEFAULT_CONFIG, **_given(args, file_vals, DEFAULT_CONFIG)})


def _resolve_plan(args, file_vals: dict) -> TrialPlan:
    from .verify import TrialPlan

    # keys left unset take the TrialPlan defaults
    return TrialPlan(seed=args.seed, **_given(args, file_vals, _PLAN_KEYS))


def _out_dir(args) -> Path:
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ValueError(f"cannot create output directory {out}: {exc}") from exc
    return out


def _manifest(args) -> dict:
    """What produced a JSON artifact: the command and, if it takes --config, the file read or "flags+defaults"."""
    manifest = {"command": args.subcommand}
    if hasattr(args, "config"):
        manifest["config_source"] = args.config or "flags+defaults"
    return manifest


@contextlib.contextmanager
def _artifact(path: Path):
    """``path`` opened to write an artifact over its old bytes, cut to the new length at the end.

    Truncating a file to zero before writing it again makes ext4 flush it
    at close and wait for the write-back of its old pages, milliseconds of
    blocked time per file when the same --out is written again; writing
    over the old bytes leaves the pages to the kernel's background
    write-back.  The file ends with exactly the bytes written, as with "w".
    """
    # open's own "w" flags, less O_TRUNC
    with open(path, "w", opener=lambda p, flags: os.open(p, flags & ~os.O_TRUNC, 0o666)) as f:
        try:
            yield f
        finally:
            f.truncate()


def _write_csv(path: Path, args, resolved: dict, blocks) -> None:
    """The five ``#`` comment lines (tool, command, seed, resolved inputs, time), then ``blocks`` as given."""
    resolved_line = " ".join(f"{k}={resolved[k]!r}" for k in sorted(resolved))
    with _artifact(path) as f:
        f.write(f"# tool: wavedof {__version__}\n# command: {args.subcommand}\n# seed: {args.seed}\n"
                f"# config: {resolved_line}\n# generated: {datetime.now(timezone.utc).isoformat()}\n")
        f.writelines(blocks)


# Stands for a list when the rest of a JSON artifact is dumped.  It is
# matched together with its key, and a JSON string escapes every quote it
# holds, so no user text (a --config path, say) can match it.
_ROWS_PLACEHOLDER = "@rows"


def _write_json(path: Path, args, payload: dict, lists: dict | None = None) -> None:
    """The JSON artifact of ``payload`` with the version, seed and manifest, each placeholder a list from ``lists``.

    ``lists`` maps each placeholder's key to a function of the indentation
    of the key's line that yields the list's items, each led by its comma,
    spelled as json.dumps(indent=2, sort_keys=True) spells them.
    """
    text = json.dumps({"version": __version__, "seed": args.seed, "manifest": _manifest(args), **payload},
                      indent=2, sort_keys=True)
    marks = {key: f'"{key}": "{_ROWS_PLACEHOLDER}"' for key in lists or ()}
    with _artifact(path) as f:
        # in the order the dump put the keys
        for key in sorted(marks, key=lambda k: text.index(marks[k])):
            head, _, text = text.partition(marks[key])
            ind = head[head.rfind("\n") + 1:]
            items = lists[key](ind)
            # the first item's leading comma opens the list instead
            f.write(head + f'"{key}": [' + next(items)[1:])
            f.writelines(items)
            f.write(f"\n{ind}]")
        f.write(text + "\n")


def _split_rows(fmt: str, cols: list, lo: int, hi: int) -> list:
    """``fmt`` %-formatted with the values of each column at rows lo..hi - 1, as hi - lo strings.

    One format call for the rows, split at a NUL, which neither the
    writers' row templates nor a formatted number holds.
    """
    values = itertools.chain.from_iterable(zip(*(c[lo:hi].tolist() for c in cols)))
    return ((fmt + "\0") * (hi - lo) % tuple(values)).split("\0")[:-1]


def _fill(texts: list, ns: range) -> Iterator[str]:
    """Row texts with the orders in ``ns`` filled in for their ``%d``, _STITCH_ROWS rows to a string."""
    for j in range(0, len(ns), _STITCH_ROWS):
        yield "".join(texts[j:j + _STITCH_ROWS]) % tuple(ns[j:j + _STITCH_ROWS])


def _budget_rows(report: DofReport, row: str, columns: tuple) -> Iterator[str]:
    """``row`` %-formatted with the named columns once per order, in blocks of orders |n|.

    ``row`` holds one ``%d``, the spec of the ``n`` column, and no other
    escaped ``%``.  Each block's rows are formatted once with that ``%d``
    left in, and the orders are filled in _STITCH_ROWS rows to a string.
    The -n section takes the blocks outermost first.  The +n section
    reuses the innermost block's text, which the report's columns, even in
    n bit for bit, make the same for both signs, and formats each outer
    block again rather than hold it across the file.  No string is empty,
    and _write_csv and _write_json hold the columns plus one block.
    """
    fmt = row.replace("%d", "%%d")
    cols = [getattr(report, c) for c in columns if c != "n"]
    n_up = report.n_upper
    edges = [(lo, min(lo + _ROW_BLOCK, n_up)) for lo in range(0, n_up, _ROW_BLOCK)]
    for lo, hi in reversed(edges):
        block = None  # drop the last block before formatting the next
        block = _split_rows(fmt, cols, n_up - hi, n_up - lo)
        yield from _fill(block, range(1 - hi, 1 - lo))
    # less row 0, written already, the innermost block's texts reversed run
    # n = -1, -2, ..., which the even columns make those of n = 1, 2, ...
    block.pop()
    block.reverse()
    yield from _fill(block, range(1, edges[0][1]))
    for lo, hi in edges[1:]:
        block = None
        block = _split_rows(fmt, cols, n_up - 1 + lo, n_up - 1 + hi)
        yield from _fill(block, range(lo, hi))


def _report_csv(report: DofReport) -> Iterator[str]:
    """The budget's CSV table; column order n, f_crit_hz, w_eff_hz, dof."""
    yield "n,f_crit_hz,w_eff_hz,dof\n"
    yield from _budget_rows(report, "%d,%.9g,%.9g,%.9g\n", ("n", "f_crit", "w_eff", "dof"))


def _report_rows(report: DofReport, ind: str) -> Iterator[str]:
    """The report's rows as items of a JSON list at indentation ``ind``, written block by block from the columns."""
    row = (f",\n{ind}  {{\n{ind}    \"dof\": %r,\n{ind}    \"f_crit\": %r,\n"
           f"{ind}    \"n\": %d,\n{ind}    \"w_eff\": %r\n{ind}  }}")
    blocks = _budget_rows(report, row, ("dof", "f_crit", "n", "w_eff"))
    if math.inf in report.f_crit:
        # only f_crit can be inf, which JSON spells Infinity; no key holds "inf"
        blocks = (b.replace("inf", "Infinity") for b in blocks)
    return blocks


def cmd_analyze(args, file_vals: dict) -> int:
    cfg = _resolve_config(args, file_vals)
    from .dofcore import total_dof

    report = total_dof(cfg)
    out = _out_dir(args)

    config = cfg.to_dict()
    json_path = out / "dof_report.json"
    body = {"t_eff": report.t_eff, "n_upper": report.n_upper, "per_order": _ROWS_PLACEHOLDER, "total": report.total}
    _write_json(json_path, args, {"config": config, "report": body},
                {"per_order": functools.partial(_report_rows, report)})
    csv_path = out / "dof_report.csv"
    _write_csv(csv_path, args, config, _report_csv(report))

    print(
        f"n_upper={report.n_upper} t_eff={report.t_eff:.9g} s total_dof={report.total:.9g}"
    )
    print(f"wrote {json_path} and {csv_path}")
    return 0


def cmd_sweep(args, file_vals: dict) -> int:
    values = args.values
    if len(values) < 1 or any(b <= a for a, b in zip(values, values[1:])):
        raise ValueError("sweep values must be strictly increasing")
    base = _resolve_config(args, file_vals).to_dict()
    from .dofcore import total_dof

    rows = []
    # validate and evaluate every point before any output is written
    for v in values:
        point = dict(base)
        point[args.axis] = v
        try:
            rep = total_dof(ChannelConfig(**point))
        except ValueError as exc:
            raise ValueError(f"{args.axis}={v!r}: {exc}") from exc
        rows.append((v, rep.n_upper, rep.t_eff, rep.total))

    out = _out_dir(args)
    if args.format == "csv":
        path = out / f"sweep_{args.axis}.csv"
        lines = [f"{v:.9g},{n_up:d},{t_eff:.9g},{total:.9g}\n" for v, n_up, t_eff, total in rows]
        _write_csv(path, args, base, [f"{args.axis},n_upper,t_eff_s,total_dof\n", *lines])
    else:
        path = out / f"sweep_{args.axis}.json"
        json_rows = [{"value": v, "n_upper": n, "t_eff": t, "total_dof": d} for v, n, t, d in rows]
        _write_json(path, args, {"config": base, "axis": args.axis, "rows": json_rows})
    print(f"wrote {len(rows)} sweep rows to {path}")
    return 0


def cmd_simulate(args, file_vals: dict) -> int:
    cfg = _resolve_config(args, file_vals)
    from .verify import run_campaign

    report = run_campaign(cfg, _resolve_plan(args, file_vals))
    path = _out_dir(args) / "verification.json"
    _write_json(path, args, report.to_dict())
    print(report.summary_table())
    print(f"wrote {path}")
    return 0 if report.passed else 3


def _table_rows(fmt: str, cols: list) -> Iterator[str]:
    """``fmt`` %-formatted with one value of each column per row, _ROW_BLOCK rows at a time."""
    n = cols[0].size
    for lo in range(0, n, _ROW_BLOCK):
        yield from _split_rows(fmt, cols, lo, min(lo + _ROW_BLOCK, n))


def _json_column(col, ind: str) -> Iterator[str]:
    """The values of ``col`` as items of a JSON list at indentation ``ind``.

    ``%r`` spells a finite float as json.dumps does, and every table value
    is finite: |T_n| <= 1, |U_n| <= n + 1 and |J_n| <= 1.
    """
    return _table_rows(f",\n{ind}  %r", [col])


def cmd_tables(args, file_vals: dict) -> int:
    orders = args.orders
    if not orders or any(n < 0 for n in orders):
        raise ValueError(f"orders must be nonnegative integers, got {orders}")
    if args.samples < 2:
        raise ValueError(f"samples must be >= 2, got {args.samples}")
    columns = max(orders) + 1 if args.kind == "bessel" else 2 * len(set(orders))
    _check_cells("samples * columns", args.samples, columns, _MAX_TABLE_CELLS)
    _real_arg(args.z_max, "z-max", 0.0, open_lo=True)
    import numpy as np

    from .specfun import bessel_j_table, chebyshev_first_kind, chebyshev_second_kind

    out = _out_dir(args)
    n_top = max(orders)
    params: dict = {"kind": args.kind, "orders": list(orders), "samples": args.samples}

    if args.kind == "bessel":
        params["z_max"] = args.z_max
        grid = np.linspace(0.0, args.z_max, args.samples)
        table = bessel_j_table(n_top, grid)
        cols = {f"j{n}": table[:, n] for n in orders}
    else:
        grid = np.linspace(-1.0, 1.0, args.samples)
        cols = {}
        for n in orders:
            cols[f"t{n}"] = chebyshev_first_kind(n, grid)
            cols[f"u{n}"] = chebyshev_second_kind(n, grid)

    if args.format == "csv":
        path = out / f"tables_{args.kind}.csv"
        fmt = ",".join(["%.9g"] * (len(cols) + 1)) + "\n"
        rows = _table_rows(fmt, [grid, *cols.values()])
        _write_csv(path, args, params, itertools.chain(["z," + ",".join(cols) + "\n"], rows))
    else:
        path = out / f"tables_{args.kind}.json"
        payload = {"params": params, "z": _ROWS_PLACEHOLDER, "columns": dict.fromkeys(cols, _ROWS_PLACEHOLDER)}
        lists = {c: functools.partial(_json_column, v) for c, v in {"z": grid, **cols}.items()}
        _write_json(path, args, payload, lists)
    print(f"wrote {path}")
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wavedof",
        description="Degrees of freedom of wideband multipath fields on a disk",
    )
    parser.add_argument("--version", action="version", version=f"wavedof {__version__}")

    artifact = argparse.ArgumentParser(add_help=False)
    artifact.add_argument("--out", metavar="DIR", default=".", help="output directory")
    artifact.add_argument("--seed", type=int, help="random seed recorded in artifacts (default: config file, else 0)")
    scenario = argparse.ArgumentParser(add_help=False)
    scenario.add_argument("--config", metavar="PATH", help="flat key=value config file")
    for key in DEFAULT_CONFIG:
        scenario.add_argument(f"--{key.replace('_', '-')}", type=float, default=None,
                              dest=key, help=f"override {key}")

    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("analyze", parents=[artifact, scenario],
                       help="degree-of-freedom budget of one configuration")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("sweep", parents=[artifact, scenario], help="budget along one parameter axis")
    p.add_argument("--axis", choices=SWEEP_AXES, required=True)
    p.add_argument("--values", type=float, nargs="+", required=True,
                   help="strictly increasing axis values")
    p.add_argument("--format", choices=("json", "csv"), default="csv", help="write sweep_AXIS.csv or .json")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("simulate", parents=[artifact, scenario], help="Monte Carlo verification campaign")
    p.add_argument("--num-trials", type=int, default=None, dest="num_trials")
    p.add_argument("--circle-samples", type=int, default=None, dest="circle_samples")
    p.add_argument("--n-probe", type=int, default=None, dest="n_probe")
    p.add_argument("--freq-samples", type=int, default=None, dest="freq_samples")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("tables", parents=[artifact], help="special-function curve data")
    p.add_argument("--kind", choices=("bessel", "chebyshev"), required=True)
    p.add_argument("--orders", type=int, nargs="+", required=True)
    p.add_argument("--samples", type=int, default=201)
    p.add_argument("--z-max", type=float, default=20.0, dest="z_max",
                   help="top of the argument range for bessel tables")
    p.add_argument("--format", choices=("json", "csv"), default="csv", help="write tables_KIND.csv or .json")
    # no --config: a table's inputs are its flags and their defaults
    p.set_defaults(func=cmd_tables)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        file_vals = load_config_file(args.config) if getattr(args, "config", None) else {}
        if args.seed is None:
            args.seed = file_vals.get("seed", 0)
        _int_arg(args.seed, "seed", lo=0)
        return args.func(args, file_vals)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
