"""Command line front end.

Every subcommand reads one INI-style config (flat key = value sections, all
keys optional), resolves defaults, and writes its outputs into a run
directory: always a `config.effective` snapshot that parses back to the
identical configuration, plus command-specific files (report.csv,
log.ndjson, checkpoint, curves.csv, histogram.csv, summary.txt).

Outputs are deterministic functions of (config, seed): no timestamps, no
machine state, repr-exact floats.  On any failure a single JSON error record
is printed to stderr and the exit status is nonzero; on success nothing is
printed to stderr and the status is zero.
"""

import argparse
import configparser
import dataclasses
import json
import math
import os
import sys
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .analytic import (
    IterationFamily,
    MarketModel,
    ProblemSpec,
    dp_oracle,
    iterate,
    lagrange_fixed_point,
    optimal_policy,
    optimal_value,
)
from .baseline import ALGORITHM_CONTINUOUS, baseline_train
from .evaluation import (
    ALGORITHMS,
    LEARNERS,
    PerformanceReport,
    RollingSpec,
    SplitSpec,
    StudySetting,
    first_stable_block,
    learning_curves,
    rolling_backtest,
    run_simulation_study,
    summary_text,
    terminal_stats,
    write_report_csv,
)
from .learner import ALGORITHM_DISCRETE, HyperParams, save_checkpoint, train
from .market import (
    RNG_ALGORITHM,
    Historical,
    NormalIID,
    SkewTIID,
    annualize_market,
    bundled_monthly_csv_path,
    histogram,
    load_monthly_csv,
    make_rng,
    sample_path,
    save_histogram_csv,
)


class ConfigError(ValueError):
    """Raised for unknown keys, bad values, or inconsistent settings."""


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MarketConfig:
    """Return model selection.  Rates are annual; keys say so."""

    model: str = "skewt"  # normal | skewt | historical
    a_annual: float = 0.30
    sigma_annual: float = 0.20
    r_annual: float = 0.02
    periods_per_year: int = 12
    nu: float = 10.0
    slant: float = -1.5
    csv_path: str = ""  # empty means the bundled synthetic series


@dataclass(frozen=True)
class ProblemConfig:
    horizon: int = 3
    x0: float = 1.0
    target_wealth: float = 1.1
    temperature: float = 2.0


@dataclass(frozen=True)
class LearningConfig:
    algorithm: str = ALGORITHM_DISCRETE
    episodes: int = 15000
    refresh_every: int = 10
    alpha: float = 0.05
    eta_theta: float = 0.0005
    eta_phi: float = 0.0005
    prefix_updates: bool = True
    init_phi1: float = 1.0
    init_phi2: float = 0.01


@dataclass(frozen=True)
class EvaluationConfig:
    test_episodes: int = 2000
    block: int = 50
    sigma_grid_annual: Tuple[float, ...] = (0.1, 0.2, 0.3)
    seeds: Tuple[int, ...] = (1, 2, 3)
    backtest_start_years: Tuple[int, ...] = tuple(range(2004, 2014))
    backtest_targets: Tuple[float, ...] = (1.03, 1.05, 1.07)
    window_months: int = 120
    horizon_months: int = 3
    test_months: int = 120
    online_test: bool = False
    histogram_draws: int = 100000
    histogram_bins: int = 60


@dataclass(frozen=True)
class FamilyConfig:
    """Seed policy family for the iterate subcommand."""

    mean_slope: float = -0.5
    var_base: float = 0.5
    var_ratio: float = 1.2


@dataclass(frozen=True)
class GridConfig:
    """State grid for the analytic and iterate subcommands.  w is either
    'auto' (solve the fixed point) or a number."""

    x_min: float = -1.0
    x_max: float = 3.0
    x_points: int = 21
    w: str = "auto"


@dataclass(frozen=True)
class RunControl:
    seed: int = 1
    jobs: int = 1
    rng_algorithm: str = RNG_ALGORITHM


@dataclass(frozen=True)
class RunConfig:
    market: MarketConfig = MarketConfig()
    problem: ProblemConfig = ProblemConfig()
    learning: LearningConfig = LearningConfig()
    evaluation: EvaluationConfig = EvaluationConfig()
    family: FamilyConfig = FamilyConfig()
    grid: GridConfig = GridConfig()
    run: RunControl = RunControl()


_SECTIONS = (
    ("evaluation", EvaluationConfig),
    ("family", FamilyConfig),
    ("grid", GridConfig),
    ("learning", LearningConfig),
    ("market", MarketConfig),
    ("problem", ProblemConfig),
    ("run", RunControl),
)


def _parse_scalar(section: str, key: str, text: str, kind: type):
    text = text.strip()
    try:
        if kind is bool:
            if text not in ("true", "false"):
                raise ValueError("expected true or false")
            return text == "true"
        if kind is int:
            return int(text)
        if kind is float:
            value = float(text)
            if not math.isfinite(value):
                raise ValueError("must be finite")
            return value
        return text
    except ValueError as exc:
        raise ConfigError(f"config: bad value for {section}.{key}: {exc}") from None


def _parse_value(section: str, key: str, text: str, default):
    if isinstance(default, tuple):
        kind = int if all(isinstance(v, int) for v in default) else float
        parts = [p for p in (s.strip() for s in text.split(",")) if p]
        if not parts:
            raise ConfigError(f"config: {section}.{key} must list at least one value")
        return tuple(_parse_scalar(section, key, p, kind) for p in parts)
    return _parse_scalar(section, key, text, type(default))


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ", ".join(_format_value(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def load_config(path: Optional[str]) -> RunConfig:
    """Parse an INI config; absent file sections and keys keep defaults."""
    parser = configparser.ConfigParser(interpolation=None)
    if path is not None:
        try:
            with open(path) as fh:
                parser.read_file(fh)
        except OSError as exc:
            raise ConfigError(f"config: cannot read {path}: {exc.strerror}") from None
        except configparser.Error as exc:
            raise ConfigError(f"config: {path}: {exc}") from None
    known = dict(_SECTIONS)
    for name in parser.sections():
        if name not in known:
            raise ConfigError(f"config: unknown section [{name}]")
    sections = {}
    for name, cls in _SECTIONS:
        defaults = cls()
        fields = {f.name: getattr(defaults, f.name) for f in dataclasses.fields(cls)}
        values = {}
        if parser.has_section(name):
            for key, text in parser.items(name):
                if key not in fields:
                    raise ConfigError(f"config: unknown key {name}.{key}")
                values[key] = _parse_value(name, key, text, fields[key])
        sections[name] = cls(**values)
    cfg = RunConfig(**sections)
    validate_config(cfg)
    return cfg


def validate_config(cfg: RunConfig) -> None:
    if cfg.market.model not in ("normal", "skewt", "historical"):
        raise ConfigError(f"config: unknown market.model {cfg.market.model!r}")
    if cfg.learning.algorithm not in LEARNERS:
        raise ConfigError(f"config: unknown learning.algorithm {cfg.learning.algorithm!r}")
    if cfg.run.rng_algorithm != RNG_ALGORITHM:
        raise ConfigError(f"config: run.rng_algorithm must be {RNG_ALGORITHM}")
    if cfg.grid.x_points < 2:
        raise ConfigError("config: grid.x_points must be >= 2")
    if not cfg.grid.x_max > cfg.grid.x_min:
        raise ConfigError("config: need grid.x_max > grid.x_min")
    if cfg.grid.w != "auto":
        _parse_scalar("grid", "w", cfg.grid.w, float)
    if cfg.evaluation.test_episodes > cfg.learning.episodes:
        raise ConfigError("config: evaluation.test_episodes exceeds learning.episodes")


def effective_config_text(cfg: RunConfig) -> str:
    """Canonical rendering: sorted sections, sorted keys, every value
    explicit.  load_config on this text reproduces cfg exactly."""
    lines = []
    for name, _cls in _SECTIONS:
        block = getattr(cfg, name if name != "run" else "run")
        lines.append(f"[{name}]")
        for key in sorted(f.name for f in dataclasses.fields(block)):
            lines.append(f"{key} = {_format_value(getattr(block, key))}")
        lines.append("")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# shared assembly
# ---------------------------------------------------------------------------


def _per_period(mc: MarketConfig, sigma_annual: Optional[float] = None):
    sigma = mc.sigma_annual if sigma_annual is None else sigma_annual
    return annualize_market(mc.a_annual, sigma, mc.r_annual, mc.periods_per_year)


def build_model(mc: MarketConfig, sigma_annual: Optional[float] = None):
    """Return (model, r_f) for one market block; sigma_annual overrides."""
    a, sigma, r_f = _per_period(mc, sigma_annual)
    if mc.model == "normal":
        return NormalIID(a, sigma), r_f
    if mc.model == "skewt":
        return SkewTIID(a, sigma, mc.nu, mc.slant), r_f
    series = load_monthly_csv(mc.csv_path or bundled_monthly_csv_path(), mc.r_annual)
    return Historical(series), r_f


def market_label(mc: MarketConfig, sigma_annual: Optional[float] = None) -> str:
    if mc.model == "historical":
        name = os.path.basename(mc.csv_path) if mc.csv_path else "bundled"
        return f"historical {name}"
    sigma = mc.sigma_annual if sigma_annual is None else sigma_annual
    return f"{mc.model} a={100 * mc.a_annual:g}% sigma={100 * sigma:g}%"


def problem_spec(cfg: RunConfig) -> ProblemSpec:
    p = cfg.problem
    return ProblemSpec(T=p.horizon, x0=p.x0, b=p.target_wealth, lam=p.temperature)


def hyper_params(cfg: RunConfig, spec: ProblemSpec) -> HyperParams:
    training = {k: v for k, v in vars(cfg.learning).items() if k != "algorithm"}
    return HyperParams(spec=spec, **training)


def _resolve_w(cfg: RunConfig, m: MarketModel, spec: ProblemSpec) -> float:
    if cfg.grid.w == "auto":
        return lagrange_fixed_point(m, spec)
    return float(cfg.grid.w)


def _x_grid(cfg: RunConfig) -> np.ndarray:
    g = cfg.grid
    return np.linspace(g.x_min, g.x_max, g.x_points)


def _seeds(cfg: RunConfig, override: Optional[int]) -> Tuple[int, ...]:
    return (override,) if override is not None else cfg.evaluation.seeds


def _write_text(path: str, text: str) -> None:
    with open(path, "w") as fh:
        fh.write(text)


def _write_csv(path: str, header: Sequence[str], rows: Sequence[Sequence[str]]) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(row) for row in rows)
    _write_text(path, "\n".join(lines) + "\n")


def _fmt(value: float) -> str:
    return repr(float(value))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_analytic(cfg: RunConfig, out: str) -> None:
    """Closed-form policy and value on a state grid, cross-checked against
    the dynamic-programming oracle; writes report.csv and summary.txt."""
    a, sigma, r_f = _per_period(cfg.market)
    m = MarketModel(a, sigma, r_f)
    spec = problem_spec(cfg)
    w = _resolve_w(cfg, m, spec)
    xs = _x_grid(cfg)
    layers = dp_oracle(m, spec, w, xs)
    header = ("t", "x", "policy_mean", "policy_variance", "value", "oracle_value", "rel_error")
    rows = []
    max_err = 0.0
    for t in range(spec.T + 1):
        grid = layers[t]
        for i, x in enumerate(xs):
            value = optimal_value(m, spec, t, float(x), w)
            oracle = float(grid.j_values[i])
            err = abs(value - oracle) / max(1.0, abs(value))
            max_err = max(max_err, err)
            if t < spec.T:
                pol = optimal_policy(m, spec, t, float(x), w)
                mean, var = _fmt(pol.mean), _fmt(pol.variance)
            else:
                mean, var = "", ""
            rows.append((str(t), _fmt(x), mean, var, _fmt(value), _fmt(oracle), _fmt(err)))
    _write_csv(os.path.join(out, "report.csv"), header, rows)
    summary = [
        f"w = {_fmt(w)}",
        f"grid = {cfg.grid.x_points} states on [{_fmt(cfg.grid.x_min)}, {_fmt(cfg.grid.x_max)}]",
        f"max_rel_error = {_fmt(max_err)}",
    ]
    _write_text(os.path.join(out, "summary.txt"), "\n".join(summary) + "\n")


def cmd_iterate(cfg: RunConfig, out: str) -> None:
    """Policy-improvement trace from the configured seed family at the
    initial state; writes the per-step table and the terminal residual."""
    a, sigma, r_f = _per_period(cfg.market)
    m = MarketModel(a, sigma, r_f)
    spec = problem_spec(cfg)
    w = _resolve_w(cfg, m, spec)
    fam = IterationFamily(cfg.family.mean_slope, cfg.family.var_base, cfg.family.var_ratio)
    x = spec.x0
    header = ("k", "policy_mean", "policy_variance", "value", "optimal_gap")
    target = optimal_value(m, spec, 0, x, w)
    rows = []
    values = []
    for k in range(spec.T + 1):
        pol, value = iterate(fam, m, spec, k, 0, x, w)
        values.append(value)
        rows.append((str(k), _fmt(pol.mean), _fmt(pol.variance), _fmt(value), _fmt(value - target)))
    _write_csv(os.path.join(out, "report.csv"), header, rows)
    residual = abs(values[-1] - target)
    monotone = all(nxt <= prev + 1e-12 for prev, nxt in zip(values, values[1:]))
    summary = [
        f"w = {_fmt(w)}",
        f"optimal_value = {_fmt(target)}",
        f"residual = {_fmt(residual)}",
        f"monotone = {'true' if monotone else 'false'}",
    ]
    _write_text(os.path.join(out, "summary.txt"), "\n".join(summary) + "\n")


def _train_one(cfg: RunConfig, algorithm: str, seed: int, stream: int):
    """Train one cell; returns (result, rng).  The trainer is looked up per
    call, as in dtmv.evaluation._train."""
    model, r_f = build_model(cfg.market)
    rng = make_rng(seed, stream)
    trainer = {ALGORITHM_DISCRETE: train, ALGORITHM_CONTINUOUS: baseline_train}[algorithm]
    return trainer(hyper_params(cfg, problem_spec(cfg)), model, r_f, rng), rng


def cmd_train(cfg: RunConfig, out: str, seed_override: Optional[int]) -> None:
    """Single training run: per-episode log, a checkpoint of the final
    parameters and generator state (no command reads it back yet), and a
    test-window report row."""
    seed = cfg.run.seed if seed_override is None else seed_override
    algorithm = cfg.learning.algorithm
    result, rng = _train_one(cfg, algorithm, seed, stream=0)
    params = LEARNERS[algorithm].fields(result.params)
    log_lines = [
        json.dumps(dataclasses.asdict(rec), sort_keys=True) for rec in result.history
    ]
    _write_text(os.path.join(out, "log.ndjson"), "\n".join(log_lines) + "\n" if log_lines else "")
    save_checkpoint(os.path.join(out, "checkpoint"), algorithm, params, rng)
    tws = [rec.terminal_wealth for rec in result.history]
    tail = tws[-cfg.evaluation.test_episodes:]
    mean, std, sharpe, n = terminal_stats(tail, cfg.problem.x0)
    row = PerformanceReport(market_label(cfg.market), algorithm, seed, mean, std, sharpe, n)
    write_report_csv([row], os.path.join(out, "report.csv"))
    _write_text(os.path.join(out, "summary.txt"), summary_text([row]) + "\n")


def cmd_simulate(cfg: RunConfig, out: str, seed_override: Optional[int], jobs: int) -> None:
    """Both-algorithm study over the volatility grid; writes the full report
    and its per-setting medians."""
    spec = problem_spec(cfg)
    hyper = hyper_params(cfg, spec)
    settings = []
    for sigma in cfg.evaluation.sigma_grid_annual:
        model, r_f = build_model(cfg.market, sigma)
        settings.append(StudySetting(market_label(cfg.market, sigma), model, r_f))
    split = SplitSpec(cfg.learning.episodes - cfg.evaluation.test_episodes,
                      cfg.evaluation.test_episodes)
    rows = run_simulation_study(settings, hyper, split, _seeds(cfg, seed_override), jobs)
    write_report_csv(rows, os.path.join(out, "report.csv"))
    _write_text(os.path.join(out, "summary.txt"), summary_text(rows) + "\n")


def cmd_backtest(cfg: RunConfig, out: str, seed_override: Optional[int], jobs: int) -> None:
    """Rolling decade-by-decade evaluation on a monthly close series."""
    ev = cfg.evaluation
    mc = cfg.market
    series = load_monthly_csv(mc.csv_path or bundled_monthly_csv_path(), mc.r_annual)
    spec = dataclasses.replace(problem_spec(cfg), T=ev.horizon_months)
    hyper = hyper_params(cfg, spec)
    rolling = RollingSpec(
        test_years=ev.backtest_start_years,
        targets=ev.backtest_targets,
        window_months=ev.window_months,
        horizon_months=ev.horizon_months,
        test_months=ev.test_months,
        online_test=ev.online_test,
    )
    _, _, r_f = _per_period(mc)
    seed = cfg.run.seed if seed_override is None else seed_override
    rows = rolling_backtest(series, rolling, hyper, r_f, seed, jobs)
    write_report_csv(rows, os.path.join(out, "report.csv"))
    _write_text(os.path.join(out, "summary.txt"), summary_text(rows) + "\n")


def cmd_compare(cfg: RunConfig, out: str, seed_override: Optional[int]) -> None:
    """Head-to-head learning curves of the two algorithms on one market.

    Writes the joined test report, blockwise curves, and per-algorithm
    stabilization summary (first block index from which block means stay
    within 2% of the target wealth)."""
    seeds = _seeds(cfg, seed_override)
    block = cfg.evaluation.block
    b = cfg.problem.target_wealth
    report_rows = []
    curve_rows = []
    stable: Dict[str, List[str]] = {}
    for stream, algorithm in enumerate(ALGORITHMS):
        for seed in seeds:
            result, _rng = _train_one(cfg, algorithm, seed, stream)
            tws = [rec.terminal_wealth for rec in result.history]
            tail = tws[-cfg.evaluation.test_episodes:]
            mean, std, sharpe, n = terminal_stats(tail, cfg.problem.x0)
            report_rows.append(PerformanceReport(
                market_label(cfg.market), algorithm, seed, mean, std, sharpe, n))
            means, variances = learning_curves(tws, block)
            for i, (mu, var) in enumerate(zip(means, variances)):
                curve_rows.append((algorithm, str(seed), str(i), _fmt(mu), _fmt(var)))
            idx = first_stable_block(means, b)
            stable.setdefault(algorithm, []).append("none" if idx is None else str(idx))
    write_report_csv(report_rows, os.path.join(out, "report.csv"))
    _write_csv(os.path.join(out, "curves.csv"),
               ("algorithm", "seed", "block", "mean_terminal_wealth", "var_terminal_wealth"),
               curve_rows)
    lines = [summary_text(report_rows), ""]
    for algorithm, marks in stable.items():
        lines.append(f"{algorithm} first_stable_block: {', '.join(marks)}")
    _write_text(os.path.join(out, "summary.txt"), "\n".join(lines) + "\n")


def cmd_histogram(cfg: RunConfig, out: str, seed_override: Optional[int]) -> None:
    """Empirical distribution of one-period excess returns under the
    configured market; bin counts sum to the number of draws."""
    seed = cfg.run.seed if seed_override is None else seed_override
    model, _r_f = build_model(cfg.market)
    if isinstance(model, Historical):
        data = np.asarray(model.series.values, dtype=float)
    else:
        rng = make_rng(seed, 0)
        data = sample_path(model, cfg.evaluation.histogram_draws, rng)
    counts, edges = histogram(data, cfg.evaluation.histogram_bins)
    save_histogram_csv(counts, edges, os.path.join(out, "histogram.csv"))
    summary = [
        f"setting = {market_label(cfg.market)}",
        f"draws = {int(counts.sum())}",
        f"bins = {len(counts)}",
        f"min = {_fmt(data.min())}",
        f"max = {_fmt(data.max())}",
        f"mean = {_fmt(data.mean())}",
    ]
    _write_text(os.path.join(out, "summary.txt"), "\n".join(summary) + "\n")


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


_COMMANDS = ("analytic", "iterate", "train", "simulate", "backtest", "compare", "histogram")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dtmv",
        description="Exploratory mean-variance portfolio selection toolkit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    helps = {
        "analytic": "closed-form policy/value table with oracle cross-check",
        "iterate": "policy-improvement trace from a configured seed family",
        "train": "single training run with log and checkpoint",
        "simulate": "simulation study over the volatility grid",
        "backtest": "rolling backtest on a monthly close series",
        "compare": "learning-curve comparison of the two algorithms",
        "histogram": "histogram of one-period excess returns",
    }
    for name in _COMMANDS:
        p = sub.add_parser(name, help=helps[name])
        p.add_argument("--config", default=None, help="INI config file (defaults apply)")
        p.add_argument("--seed", type=int, default=None, help="override run.seed / seed list")
        p.add_argument("--out", default=None, help="output directory (default runs/<command>)")
        p.add_argument("--jobs", type=int, default=None, help="worker processes for studies")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.seed is not None and args.seed < 0:
            raise ConfigError("config: seed must be >= 0")
        jobs = cfg.run.jobs if args.jobs is None else args.jobs
        if jobs < 1:
            raise ConfigError("config: jobs must be >= 1")
        out = args.out or os.path.join("runs", args.command)
        os.makedirs(out, exist_ok=True)
        _write_text(os.path.join(out, "config.effective"), effective_config_text(cfg))
        if args.command == "analytic":
            cmd_analytic(cfg, out)
        elif args.command == "iterate":
            cmd_iterate(cfg, out)
        elif args.command == "train":
            cmd_train(cfg, out, args.seed)
        elif args.command == "simulate":
            cmd_simulate(cfg, out, args.seed, jobs)
        elif args.command == "backtest":
            cmd_backtest(cfg, out, args.seed, jobs)
        elif args.command == "compare":
            cmd_compare(cfg, out, args.seed)
        else:
            cmd_histogram(cfg, out, args.seed)
    except Exception as exc:  # one machine-readable record per failure
        record = {"error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(record, sort_keys=True), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
