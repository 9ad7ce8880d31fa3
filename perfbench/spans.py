"""In-memory span recorder for the traced benchmark run.

The tracer wraps dtmv's functions at the names each calling module imported
(`dtmv.evaluation.train` and `dtmv.cli.train` are separate spans of the same
learner) and records one span per call: name, parent span, start and end.
Spans stay in flat arrays while the command runs; `layer_metrics` reduces
them to the per-layer numbers afterwards and `save` writes them out.
"""

import importlib
import inspect
import time
from array import array

import numpy as np

# (module, functions) wrapped in the traced run.  A span is named after the
# wrapped binding without the package prefix, e.g. "learner.sample_path".
WRAPPED = (
    ("dtmv.cli", (
        "cmd_train", "train", "baseline_train", "_write_text", "save_checkpoint",
        "write_report_csv", "load_monthly_csv", "rolling_backtest", "dp_oracle",
        "optimal_value", "optimal_policy", "lagrange_fixed_point",
    )),
    ("dtmv.evaluation", ("train", "baseline_train")),
    ("dtmv.learner", (
        "sample_episode", "sample_path", "grad_theta", "grad_phi", "cost", "apply_updates",
    )),
    ("dtmv.baseline", (
        "sample_path", "baseline_gradients", "baseline_cost", "baseline_apply_updates",
    )),
)

LEARNER_TRAIN = ("cli.train", "evaluation.train")
BASELINE_TRAIN = ("cli.baseline_train", "evaluation.baseline_train")
CELL_TRAIN = ("evaluation.train", "evaluation.baseline_train")
SAMPLE_PATH = ("learner.sample_path", "baseline.sample_path")

# Per-layer metrics with their units, in report order.
LAYER_UNITS = {
    "cli.import_s": "s",
    "cli.import_scipy_s": "s",
    "cli.serialize_s": "s",
    "cli.write_s": "s",
    "cli.bytes_written": "count",
    "market.sample_path.us_p50": "us",
    "market.sample_path.calls": "count",
    "market.load_monthly_csv_ms": "ms",
    "learner.sample_episode.self_us_p50": "us",
    "learner.residual.us_per_episode": "us",
    "learner.residual.calls_per_episode": "count",
    "learner.apply_updates.us_per_episode": "us",
    "learner.apply_updates.calls_per_episode": "count",
    "learner.train.self_us_per_episode": "us",
    "learner.train.us_per_episode": "us",
    "baseline.baseline_gradients.us_per_episode": "us",
    "baseline.baseline_cost.us_per_episode": "us",
    "baseline.baseline_apply_updates.us_per_episode": "us",
    "baseline.baseline_train.self_us_per_episode": "us",
    "baseline.baseline_train.us_per_episode": "us",
    "evaluation.cells": "count",
    "evaluation.cell_train_s.p50": "s",
    "evaluation.cell_train_s.p_tail": "s",
    "evaluation.cell_train_s.tail_pct": "%",
    "evaluation.backtest_test_self_s": "s",
    "analytic.dp_oracle_s": "s",
    "analytic.dp_oracle.elements": "count",
    "analytic.dp_oracle.computed_bytes": "bytes",
    "analytic.dp_oracle.ns_per_element": "ns",
    "analytic.closed_form_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
    "machine.ref_s": "s",
    "machine.wall_s": "s",
}

# Metrics that are counts of work.  They must repeat exactly between runs of
# one commit on one seed; the benchmark fails its self-check otherwise.
EXACT_COUNTS = (
    "cli.bytes_written",
    "market.sample_path.calls",
    "learner.residual.calls_per_episode",
    "learner.apply_updates.calls_per_episode",
    "evaluation.cells",
    "analytic.dp_oracle.elements",
    "analytic.dp_oracle.computed_bytes",
    "trace.spans",
)


class Tracer:
    """Records spans of the wrapped functions; see the module docstring."""

    def __init__(self) -> None:
        self.names = []
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.oracle_calls = []

    def install(self) -> None:
        for module_name, attrs in WRAPPED:
            module = importlib.import_module(module_name)
            short = module_name.split(".", 1)[1]
            for attr in attrs:
                fn = getattr(module, attr)
                setattr(module, attr, self._wrap(fn, f"{short}.{attr}"))

    def _wrap(self, fn, span_name):
        nid = len(self.names)
        self.names.append(span_name)
        name, parent, start, end = self.name, self.parent, self.start, self.end
        stack, clock = self._stack, time.perf_counter
        oracle_calls = self.oracle_calls if span_name == "cli.dp_oracle" else None

        def wrapper(*args, **kwargs):
            if oracle_calls is not None:
                oracle_calls.append(inspect.signature(fn).bind(*args, **kwargs))
            idx = len(start)
            name.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return wrapper

    def _columns(self):
        names = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        return names, dur, dur - child

    def layer_metrics(self) -> dict:
        """Per-layer numbers of this traced command; layers it never entered
        read 0.  cli.import_*, cli.bytes_written, the evaluation.cell_train_s
        percentiles, trace.overhead_s and machine.* are filled in by the
        caller."""
        names, dur, self_time = self._columns()
        ids = {s: i for i, s in enumerate(self.names)}

        def mask(spans):
            return np.isin(names, [ids[s] for s in spans])

        def total(*spans) -> float:
            return float(dur[mask(spans)].sum())

        def count(*spans) -> int:
            return int(mask(spans).sum())

        def p50(values) -> float:
            return float(np.median(values)) if values.size else 0.0

        def per(value: float, n: int) -> float:
            return value / n if n else 0.0

        learner_eps = count("learner.sample_episode")
        baseline_eps = count("baseline.sample_path")
        residual = ("learner.grad_theta", "learner.grad_phi", "learner.cost")
        elements = sum(oracle_elements(call) for call in self.oracle_calls)
        oracle_s = total("cli.dp_oracle")
        backtest_s = total("cli.rolling_backtest")
        return {
            "cli.serialize_s": float(self_time[mask(("cli.cmd_train",))].sum()),
            "cli.write_s": total("cli._write_text", "cli.save_checkpoint", "cli.write_report_csv"),
            "market.sample_path.us_p50": 1e6 * p50(dur[mask(SAMPLE_PATH)]),
            "market.sample_path.calls": count(*SAMPLE_PATH),
            "market.load_monthly_csv_ms": 1e3 * total("cli.load_monthly_csv"),
            "learner.sample_episode.self_us_p50":
                1e6 * p50(self_time[mask(("learner.sample_episode",))]),
            "learner.residual.us_per_episode": 1e6 * per(total(*residual), learner_eps),
            "learner.residual.calls_per_episode": per(count(*residual), learner_eps),
            "learner.apply_updates.us_per_episode":
                1e6 * per(total("learner.apply_updates"), learner_eps),
            "learner.apply_updates.calls_per_episode":
                per(count("learner.apply_updates"), learner_eps),
            "learner.train.self_us_per_episode":
                1e6 * per(float(self_time[mask(LEARNER_TRAIN)].sum()), learner_eps),
            "learner.train.us_per_episode": 1e6 * per(total(*LEARNER_TRAIN), learner_eps),
            "baseline.baseline_gradients.us_per_episode":
                1e6 * per(total("baseline.baseline_gradients"), baseline_eps),
            "baseline.baseline_cost.us_per_episode":
                1e6 * per(total("baseline.baseline_cost"), baseline_eps),
            "baseline.baseline_apply_updates.us_per_episode":
                1e6 * per(total("baseline.baseline_apply_updates"), baseline_eps),
            "baseline.baseline_train.self_us_per_episode":
                1e6 * per(float(self_time[mask(BASELINE_TRAIN)].sum()), baseline_eps),
            "baseline.baseline_train.us_per_episode":
                1e6 * per(total(*BASELINE_TRAIN), baseline_eps),
            "evaluation.cells": count(*CELL_TRAIN),
            "evaluation.backtest_test_self_s":
                backtest_s - total(*CELL_TRAIN) if backtest_s else 0.0,
            "analytic.dp_oracle_s": oracle_s,
            "analytic.dp_oracle.elements": elements,
            # computed, not measured: one float64 written and read back per element
            "analytic.dp_oracle.computed_bytes": 16 * elements,
            "analytic.dp_oracle.ns_per_element": 1e9 * per(oracle_s, elements),
            "analytic.closed_form_s":
                total("cli.optimal_value", "cli.optimal_policy", "cli.lagrange_fixed_point"),
            "trace.spans": len(dur),
        }

    def cell_train_s(self) -> list:
        """Seconds of every training cell the command ran."""
        names, dur, _ = self._columns()
        ids = [self.names.index(s) for s in CELL_TRAIN]
        return dur[np.isin(names, ids)].tolist()

    def save(self, path: str) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
        )


def oracle_elements(call: inspect.BoundArguments) -> int:
    """Quadrature elements one dp_oracle call evaluates, computed from its
    arguments: per backward step, every state against the Gauss-Hermite
    nodes, the trapezoid grid and the widened trapezoid grid."""
    call.apply_defaults()
    a = call.arguments
    n_u = a["n_u"]
    per_state = a["n_hermite"] + n_u + (int(1.5 * n_u) | 1)
    return a["spec"].T * len(a["x_values"]) * per_state


def cell_percentiles(cells: list) -> dict:
    """p50 of the cell training times, and the highest percentile with at
    least ten cells beyond it (all cells when there are ten or fewer)."""
    cells = sorted(cells)
    if len(cells) > 10:
        tail, tail_pct = cells[-11], 100.0 * (len(cells) - 10) / len(cells)
    else:
        tail, tail_pct = (cells[-1], 100.0) if cells else (0.0, 0.0)
    return {
        "evaluation.cell_train_s.p50": float(np.median(cells)) if cells else 0.0,
        "evaluation.cell_train_s.p_tail": tail,
        "evaluation.cell_train_s.tail_pct": tail_pct,
    }
