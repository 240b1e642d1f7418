"""Span recorder that wraps stickylab's layers from outside the package.

Every public function of the six modules (plus ``pathgen.build_path``,
``cli.render_csv``, ``SeedSpec.generator`` and ``Ensemble.path``) is replaced,
in every stickylab module that binds it, by a wrapper that counts calls and
accumulates self time: the span's duration minus the part covered by the
wrapped calls it makes. A few wrappers also read a count off the call's
arguments or result (paths evaluated, stops, jumps, CSV bytes).

Nothing in ``src/`` changes. No layer queues or retries work, so no span has a
waiting time and none is reported.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time

MODULES = ("pathgen", "transforms", "stopping", "stickiness", "market", "cli")

# callers use these although they are not in their module's __all__
EXTRA_FUNCTIONS = {"pathgen": ("build_path",), "cli": ("render_csv",)}
METHODS = {"pathgen": (("SeedSpec", "generator"), ("Ensemble", "path"))}

# span -> workload on which it does its work; the traced run fails if the
# span records no call there, so a refactor that bypasses a binding shows as
# a missing span instead of a silent 0 s
DOMINANT = {
    "fbm-grid": (
        "pathgen.sample_ensemble", "pathgen.sample_fbm", "pathgen.build_path",
        "pathgen.SeedSpec.generator", "pathgen.Ensemble.path",
        "stopping.evaluate_rule", "stopping.evaluate_event",
        "stickiness.estimate_stickiness", "stickiness.survival_ladder",
        "stickiness.cross_check_characterizations", "stickiness.wilson_ci",
    ),
    "costs-momentum": (
        "pathgen.sample_fbm", "market.exp_price", "market.momentum_strategy",
        "market.liquidation_value", "market.terminal_stats",
        "cli.run_experiment", "cli.render_csv",
    ),
    "passage-ramp": (
        "pathgen.sample_brownian", "transforms.time_change", "stopping.passage_time",
        "stopping.evaluate_rule",
    ),
    "cli-sweep": (
        "cli.main", "cli.run_experiment", "cli.render_csv", "cli.emit_csv",
        "transforms.dds_brownianize", "transforms.build_example", "transforms.apply_map",
    ),
}

# reached only by cli-sweep, so their metrics are reported only there
SWEEP_ONLY = ("cli.main", "cli.emit_csv", "transforms.dds_brownianize",
              "transforms.build_example", "transforms.apply_map")

_PAGE = os.sysconf("SC_PAGE_SIZE")


def _rss_mb() -> float:
    """The process's current resident size (not its high-water mark)."""
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * _PAGE / 2**20


class Tracer:
    """Per-span call counts, self and inclusive time, plus boundary counters.

    One stack of open spans serves the whole process, so trace only
    single-threaded runs (``STICKYLAB_THREADS=1``).
    """

    def __init__(self):
        self.spans: dict[str, list] = {}  # name -> [calls, self_s, total_s]
        self.counters: dict[str, float] = {
            "paths_estimated": 0, "stopped": 0, "jumps": 0, "csv_bytes": 0,
            "ensemble_mb": 0.0, "rss_after_mb": 0.0,
        }
        self._stack: list[float] = []  # child time covered, one entry per open span

    # ------------------------------ wrapping ------------------------------ #

    def _wrap(self, name: str, fn, on_exit=None):
        record = self.spans.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                covered = stack.pop()
                record[0] += 1
                record[1] += elapsed - covered
                record[2] += elapsed
                if stack:
                    stack[-1] += elapsed
            if on_exit is not None:
                on_exit(result)
            return result

        return span

    def _hooks(self) -> dict:
        c = self.counters

        def ensemble(result):
            c["ensemble_mb"] = max(c["ensemble_mb"], result.values.size * 8 / 1e6)
            c["rss_after_mb"] = max(c["rss_after_mb"], _rss_mb())

        def estimate(result):
            c["paths_estimated"] += result.n

        def stop(result):
            c["stopped"] += bool(result.stopped)

        def strategy(result):
            c["jumps"] += result.n_jumps

        def rendered(result):
            c["csv_bytes"] += len(result.encode("utf-8"))

        return {
            "pathgen.sample_ensemble": ensemble,
            "stickiness.estimate_stickiness": estimate,
            "stopping.evaluate_rule": stop,
            "market.momentum_strategy": strategy,
            "cli.render_csv": rendered,
        }

    def install(self) -> None:
        """Wrap every traced function in every stickylab module binding it."""
        hooks = self._hooks()
        wrappers = {}  # id(original) -> wrapper; the wrapper keeps the original alive
        for short in MODULES:
            module = importlib.import_module(f"stickylab.{short}")
            for attr in list(module.__all__) + list(EXTRA_FUNCTIONS.get(short, ())):
                fn = getattr(module, attr)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    name = f"{short}.{attr}"
                    wrappers[id(fn)] = self._wrap(name, fn, hooks.get(name))
            for cls_name, method in METHODS.get(short, ()):
                cls = getattr(module, cls_name)
                setattr(cls, method, self._wrap(f"{short}.{cls_name}.{method}",
                                                cls.__dict__[method]))
        for name, module in list(sys.modules.items()):
            if name == "stickylab" or name.startswith("stickylab."):
                for attr, value in list(vars(module).items()):
                    if id(value) in wrappers:
                        setattr(module, attr, wrappers[id(value)])

    # ------------------------------ results ------------------------------ #

    def snapshot(self) -> dict:
        return {
            "spans": {name: list(rec) for name, rec in self.spans.items()},
            "counters": dict(self.counters),
        }


def missing_spans(workload: str, spans: dict) -> list[str]:
    """Spans the coverage guard expects on this workload that recorded no call."""
    return [name for name in DOMINANT[workload] if spans.get(name, [0])[0] == 0]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(workload: str, snapshot: dict, iterations: int,
                      passage_kept_frac: float, csv_sha_mismatch: int,
                      overhead_s: float) -> dict:
    """The per-layer metrics, per workload iteration, from one traced run.

    Ratios whose denominator is zero on a workload (say, ledgers per second
    where no ledger is built) read 0. ``SWEEP_ONLY`` spans are left out
    except on cli-sweep.
    """
    spans, c = snapshot["spans"], snapshot["counters"]

    def calls(name):
        return spans.get(name, [0])[0] / iterations

    def self_s(name):
        return spans.get(name, [0, 0.0])[1] / iterations

    out = {}

    def add(name, value, unit):
        out[name] = {"value": value, "unit": unit}

    timed = {
        "pathgen": ("sample_ensemble", "sample_fbm", "sample_brownian",
                    "SeedSpec.generator", "Ensemble.path"),
        "transforms": ("time_change", "dds_brownianize", "build_example"),
        "stopping": ("evaluate_rule", "evaluate_event"),
        "stickiness": ("estimate_stickiness", "survival_ladder",
                       "cross_check_characterizations"),
        "market": ("exp_price", "momentum_strategy", "liquidation_value", "terminal_stats"),
        "cli": ("main", "run_experiment", "render_csv", "emit_csv"),
    }
    counted = {
        "pathgen": ("build_path",),
        "transforms": ("apply_map",),
        "stopping": ("passage_time",),
        "stickiness": ("wilson_ci",),
    }

    def reported(name):
        return workload == "cli-sweep" or name not in SWEEP_ONLY

    for module in MODULES:
        for fn in timed[module]:
            name = f"{module}.{fn}"
            if reported(name):
                add(f"{name}.calls", calls(name), "count")
                add(f"{name}.self_s", self_s(name), "s")
        for fn in counted.get(module, ()):
            name = f"{module}.{fn}"
            if reported(name):
                add(f"{name}.calls", calls(name), "count")

    add("pathgen.ensemble_mb", c["ensemble_mb"], "MB")
    add("pathgen.rss_after_mb", c["rss_after_mb"], "MB")
    add("transforms.passage_kept_frac", passage_kept_frac, "fraction")
    add("stopping.stopped_frac",
        _ratio(c["stopped"], spans.get("stopping.evaluate_rule", [0])[0]), "fraction")
    estimate = spans.get("stickiness.estimate_stickiness", [0, 0.0, 0.0])
    add("stickiness.paths_per_s", _ratio(c["paths_estimated"], estimate[2]), "1/s")
    market_self = sum(spans.get(f"market.{fn}", [0, 0.0])[1] for fn in timed["market"])
    add("market.ledgers_per_s",
        _ratio(spans.get("market.liquidation_value", [0])[0], market_self), "1/s")
    add("market.jumps_per_strategy",
        _ratio(c["jumps"], spans.get("market.momentum_strategy", [0])[0]), "count")
    add("cli.render_csv.bytes", c["csv_bytes"] / iterations, "B")
    add("cli.csv_sha_mismatch", csv_sha_mismatch, "count")
    add("trace.overhead_s", overhead_s, "s")
    return out
