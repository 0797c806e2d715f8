"""Spans and counters around the public entry points of each wavedof layer.

The tracer wraps a public function and rebinds the wrapper under every
name that any loaded ``wavedof`` module holds for it, so calls that go
through ``wavedof.verify.bessel_j_table`` or ``wavedof.cli.run_campaign``
are seen as well as direct ones.  Spans stay in memory until the run
ends; a span's self time is its duration minus that of its child spans,
which never overlap because the code is synchronous and single-threaded.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

import numpy as np

# Bessel arguments up to this value take the ascending-series path.
SERIES_Z_CUTOFF = 12.0


def _bessel_tag(args, kwargs, result):
    n_max = args[0] if args else kwargs["n_max"]
    z = np.asarray(args[1] if len(args) > 1 else kwargs["z"], dtype=float)
    regime = "small_z" if z.size and float(z.max()) <= SERIES_Z_CUTOFF else "large_z"
    return f"specfun.bessel_j_table.{regime}", (int(n_max) + 1) * max(z.size, 1)


def _rows_tag(args, kwargs, result):
    return "dofcore.total_dof", len(result.per_order)


# (module, function, kind, tag): a "span" records timing; "count" only
# counts calls, for functions too hot to time one call at a time.  A tag
# maps (args, kwargs, result) to the span's sub-name and its work count.
TARGETS = [
    ("specfun", "bessel_j_table", "span", _bessel_tag),
    ("dofcore", "total_dof", "span", _rows_tag),
    ("dofcore", "truncation_order", "span", None),
    ("dofcore", "critical_frequency", "count", None),
    ("cli", "main", "span", None),
    ("channel", "make_scatterers", "span", None),
    ("channel", "modal_coefficients", "span", None),
    ("channel", "synth_field_planewave", "span", None),
    ("channel", "synth_field_modal", "span", None),
    ("channel", "synth_field_circle", "span", None),
    ("verify", "run_campaign", "span", None),
    ("verify", "noise_variance_check", "span", None),
    ("verify", "power_balance_check", "span", None),
    ("verify", "time_support_check", "span", None),
    ("verify", "dof_prediction_check", "span", None),
    ("verify", "empirical_order_snr", "span", None),
]


class Tracer:
    """In-memory span recorder for one traced pass."""

    def __init__(self):
        # (name, op, start, end, parent index, work); parent -1 for a root
        self.spans: list = []
        self.counts: dict = defaultdict(int)  # calls of the "count" targets
        self.op = 0
        self._stack: list = []
        self._restore: list = []
        self.missing: list = []  # targets the package does not define

    def _span(self, name, fn, tag):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                label, work = (name, 0) if tag is None or result is None else tag(args, kwargs, result)
                spans[idx] = (label, self.op, start, end, parent, work)

        return wrapper

    def _count(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self):
        """Rebind every traced name in every loaded wavedof module."""
        modules = [m for k, m in sys.modules.items() if k == "wavedof" or k.startswith("wavedof.")]
        self.missing = []
        for mod_name, fn_name, kind, tag in TARGETS:
            home = sys.modules.get(f"wavedof.{mod_name}")
            original = getattr(home, fn_name, None)
            if original is None:
                self.missing.append(f"{mod_name}.{fn_name}")
                continue
            name = f"{mod_name}.{fn_name}"
            wrapped = self._span(name, original, tag) if kind == "span" else self._count(name, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapped)
                        self._restore.append((mod, attr, original))

    def uninstall(self):
        for mod, attr, original in reversed(self._restore):
            setattr(mod, attr, original)
        self._restore.clear()

    def summary(self) -> dict:
        """Per span name: calls, work and self seconds."""
        child = [0.0] * len(self.spans)
        for _, _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict = defaultdict(lambda: {"calls": 0, "work": 0, "self_s": 0.0})
        for i, (name, _, start, end, _, work) in enumerate(self.spans):
            agg = out[name]
            agg["calls"] += 1
            agg["work"] += work
            agg["self_s"] += end - start - child[i]
        return out
