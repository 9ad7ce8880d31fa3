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
import math
import operator
import os
import sys
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple, get_type_hints

import numpy as np

from .analytic import (
    IterationFamily,
    MarketModel,
    ProblemSpec,
    QuadratureError,
    dp_oracle,
    iterate,
    lagrange_fixed_point,
    optimal_policy,
    optimal_value,
)
from .baseline import baseline_train  # noqa: F401  (perfbench/spans.py wraps this binding)
from .evaluation import (
    LEARNERS,
    Cell,
    PerformanceReport,
    RollingSpec,
    SplitSpec,
    StudySetting,
    cell_report,
    first_stable_block,
    learning_curves,
    rolling_backtest,
    run_simulation_study,
    study_cells,
    summary_text,
    train_cell,
)
from .learner import ALGORITHM_DISCRETE, HyperParams, TrainingDivergedError, save_checkpoint
from .learner import check_cold_start
from .learner import train  # noqa: F401  (perfbench/spans.py wraps this binding)
from .market import (
    RNG_ALGORITHM,
    Historical,
    NormalIID,
    ReturnModel,
    SkewTIID,
    annualize_market,
    bundled_monthly_csv_path,
    histogram,
    load_monthly_csv,
    make_rng,
    sample_path,
)


class ConfigError(ValueError):
    """Raised for unknown keys, bad values, or inconsistent settings."""


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


class MarketConfig(NamedTuple):
    """Return model selection.  Rates are annual; keys say so."""

    model: str = "skewt"  # normal | skewt | historical
    a_annual: float = 0.30
    sigma_annual: float = 0.20
    r_annual: float = 0.02
    periods_per_year: int = 12
    nu: float = 10.0
    slant: float = -1.5
    csv_path: str = ""  # empty means the bundled synthetic series


class ProblemConfig(NamedTuple):
    horizon: int = 3
    x0: float = 1.0
    target_wealth: float = 1.1
    temperature: float = 2.0


class LearningConfig(NamedTuple):
    algorithm: str = ALGORITHM_DISCRETE
    episodes: int = HyperParams._field_defaults["episodes"]
    refresh_every: int = HyperParams._field_defaults["refresh_every"]
    alpha: float = HyperParams._field_defaults["alpha"]
    eta_theta: float = HyperParams._field_defaults["eta_theta"]
    eta_phi: float = HyperParams._field_defaults["eta_phi"]
    prefix_updates: bool = HyperParams._field_defaults["prefix_updates"]
    init_phi1: float = HyperParams._field_defaults["init_phi1"]
    init_phi2: float = HyperParams._field_defaults["init_phi2"]


class EvaluationConfig(NamedTuple):
    test_episodes: int = 2000
    block: int = 50
    sigma_grid_annual: Tuple[float, ...] = (0.1, 0.2, 0.3)
    seeds: Tuple[int, ...] = (1, 2, 3)
    backtest_start_years: Tuple[int, ...] = tuple(range(2004, 2014))
    backtest_targets: Tuple[float, ...] = RollingSpec._field_defaults["targets"]
    window_months: int = RollingSpec._field_defaults["window_months"]
    horizon_months: int = RollingSpec._field_defaults["horizon_months"]
    test_months: int = RollingSpec._field_defaults["test_months"]
    online_test: bool = RollingSpec._field_defaults["online_test"]
    histogram_draws: int = 100000
    histogram_bins: int = 60


class FamilyConfig(NamedTuple):
    """Seed policy family for the iterate subcommand."""

    mean_slope: float = -0.5
    var_base: float = 0.5
    var_ratio: float = 1.2


class GridConfig(NamedTuple):
    """State grid for the analytic and iterate subcommands.  w is either
    'auto' (solve the fixed point) or a number."""

    x_min: float = -1.0
    x_max: float = 3.0
    x_points: int = 21
    w: str = "auto"


class RunControl(NamedTuple):
    seed: int = 1
    jobs: int = 1
    rng_algorithm: str = RNG_ALGORITHM


class RunConfig(NamedTuple):
    market: MarketConfig = MarketConfig()
    problem: ProblemConfig = ProblemConfig()
    learning: LearningConfig = LearningConfig()
    evaluation: EvaluationConfig = EvaluationConfig()
    family: FamilyConfig = FamilyConfig()
    grid: GridConfig = GridConfig()
    run: RunControl = RunControl()


_SECTIONS = sorted(RunConfig._field_defaults.items())  # (name, default block)


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
    for name in parser.sections() + ["DEFAULT"] * bool(parser.defaults()):  # its keys reach only sections present
        if name not in RunConfig._fields:
            raise ConfigError(f"config: unknown section [{name}]")
    sections = {}
    for name, defaults in _SECTIONS:
        values = {}
        if parser.has_section(name):
            for key, text in parser.items(name):
                if key not in defaults._fields:
                    raise ConfigError(f"config: unknown key {name}.{key}")
                values[key] = _parse_value(name, key, text, getattr(defaults, key))
        sections[name] = defaults._replace(**values)
    cfg = RunConfig(**sections)
    validate_config(cfg)
    return cfg


def validate_config(cfg: RunConfig) -> None:
    if cfg.market.model not in _MODELS:
        raise ConfigError(f"config: unknown market.model {cfg.market.model!r}")
    if cfg.learning.algorithm not in LEARNERS:
        raise ConfigError(f"config: unknown learning.algorithm {cfg.learning.algorithm!r}")
    if cfg.run.rng_algorithm != RNG_ALGORITHM:
        raise ConfigError(f"config: run.rng_algorithm must be {RNG_ALGORITHM}")
    if cfg.grid.x_points < 3:
        raise ConfigError("config: grid.x_points must be >= 3")
    if not cfg.grid.x_max > cfg.grid.x_min:
        raise ConfigError("config: need grid.x_max > grid.x_min")
    if cfg.grid.w != "auto":  # analytic and iterate square w - b
        gap = _parse_scalar("grid", "w", cfg.grid.w, float) - cfg.problem.target_wealth
        if gap * gap == math.inf:
            raise ConfigError("config: grid.w is so far from problem.target_wealth that (w - b)^2 overflows")
    ev = cfg.evaluation
    for key, values, least in (
        ("evaluation.block", (ev.block,), 1),
        ("evaluation.histogram_bins", (ev.histogram_bins,), 1),
        ("evaluation.histogram_draws", (ev.histogram_draws,), 1),
        ("evaluation.seeds", ev.seeds, 0),
        ("run.jobs", (cfg.run.jobs,), 1),
        ("run.seed", (cfg.run.seed,), 0),
    ):
        _check_least(key, values, least)
    message = _domain_error(cfg)
    if message:
        raise ConfigError(f"config: {_rejected_key(cfg, message)}: {message}")


def _check_least(key: str, values: Iterable[int], least: int) -> None:
    """The rule for the integer settings no domain object checks on its own:
    seeds, worker counts, block, bin and draw counts."""
    if min(values) < least:
        raise ConfigError(f"config: {key} must be >= {least}")


def _domain_error(cfg: RunConfig) -> str:
    """The message of the first of the domain objects' own checks that rejects
    cfg, or ''; a historical series is checked when read."""
    try:
        spec = problem_spec(cfg)
        hyper_params(cfg, spec)
        IterationFamily(cfg.family.mean_slope, cfg.family.var_base, cfg.family.var_ratio)
        for sigma in (cfg.market.sigma_annual, *cfg.evaluation.sigma_grid_annual):
            MarketModel(*_per_period(cfg.market, sigma))  # r_f > 0 for every model, and sigma > 0
        if cfg.market.model != "historical":
            build_model(cfg.market)
        SplitSpec(cfg.learning.episodes - cfg.evaluation.test_episodes, cfg.evaluation.test_episodes)
        rolling_spec(cfg)
        # each learner's cold start at the longer horizon, among whose variances are the other's
        spec = spec._replace(T=max(spec.T, cfg.evaluation.horizon_months))
        for learner in LEARNERS.values():
            check_cold_start(learner, hyper_params(cfg, spec), _per_period(cfg.market)[2])
    except ValueError as exc:
        return str(exc)
    return ""


def _rejected_key(cfg: RunConfig, message: str) -> str:
    """The key a domain check's message comes from: the first key set off its
    default whose default alone changes the message, else every key set off."""
    changed = [(name, key, value) for name, defaults in _SECTIONS
               for key, value in defaults._asdict().items() if getattr(getattr(cfg, name), key) != value]
    for name, key, value in changed:
        reset = getattr(cfg, name)._replace(**{key: value})
        if _domain_error(cfg._replace(**{name: reset})) != message:
            return f"{name}.{key}"
    return ", ".join(f"{name}.{key}" for name, key, _ in changed)


def effective_config_text(cfg: RunConfig) -> str:
    """Canonical rendering: sorted sections, sorted keys, every value
    explicit.  load_config on this text reproduces cfg exactly."""
    lines = []
    for name, _ in _SECTIONS:
        items = sorted(getattr(cfg, name)._asdict().items())
        lines += [f"[{name}]", *(f"{key} = {_format_value(value)}" for key, value in items), ""]
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# shared assembly
# ---------------------------------------------------------------------------


def _per_period(mc: MarketConfig, sigma_annual: Optional[float] = None):
    sigma = mc.sigma_annual if sigma_annual is None else sigma_annual
    return annualize_market(mc.a_annual, sigma, mc.r_annual, mc.periods_per_year)


def _load_series(mc: MarketConfig):
    return load_monthly_csv(mc.csv_path or bundled_monthly_csv_path(), mc.r_annual)


# market.model name -> builder of the model from (market block, per-period a, per-period sigma)
_MODELS: Dict[str, Callable[[MarketConfig, float, float], ReturnModel]] = {
    "normal": lambda mc, a, sigma: NormalIID(a, sigma),
    "skewt": lambda mc, a, sigma: SkewTIID(a, sigma, mc.nu, mc.slant),
    "historical": lambda mc, a, sigma: Historical(_load_series(mc)),
}


def build_model(mc: MarketConfig, sigma_annual: Optional[float] = None):
    """Return (model, r_f) for one market block; sigma_annual overrides."""
    if mc.model not in _MODELS:
        raise ValueError(f"unknown market model {mc.model!r}")
    a, sigma, r_f = _per_period(mc, sigma_annual)
    return _MODELS[mc.model](mc, a, sigma), r_f


def _setting(cfg: RunConfig, sigma: Optional[float] = None) -> StudySetting:
    """(label, model, r_f) of the configured market; sigma overrides its volatility."""
    mc = cfg.market
    sigma = mc.sigma_annual if sigma is None else sigma
    if mc.model == "historical":
        label = f"historical {os.path.basename(mc.csv_path) if mc.csv_path else 'bundled'}"
    else:
        label = f"{mc.model} a={100 * mc.a_annual:g}% sigma={100 * sigma:g}%"
    return StudySetting(label, *build_model(mc, sigma))


def problem_spec(cfg: RunConfig) -> ProblemSpec:
    p = cfg.problem
    return ProblemSpec(T=p.horizon, x0=p.x0, b=p.target_wealth, lam=p.temperature)


def hyper_params(cfg: RunConfig, spec: ProblemSpec) -> HyperParams:
    training = {k: v for k, v in cfg.learning._asdict().items() if k != "algorithm"}
    return HyperParams(spec=spec, **training)


def rolling_spec(cfg: RunConfig) -> RollingSpec:
    ev = cfg.evaluation
    return RollingSpec(
        test_years=ev.backtest_start_years,
        targets=ev.backtest_targets,
        window_months=ev.window_months,
        horizon_months=ev.horizon_months,
        test_months=ev.test_months,
        online_test=ev.online_test,
    )


def _resolve_w(cfg: RunConfig, m: MarketModel, spec: ProblemSpec) -> float:
    if cfg.grid.w == "auto":
        return lagrange_fixed_point(m, spec)
    return float(cfg.grid.w)


def _x_grid(cfg: RunConfig) -> np.ndarray:
    g = cfg.grid
    return np.linspace(g.x_min, g.x_max, g.x_points)


def _write_text(path: str, text) -> None:
    """Write a string, or an iterable of strings as it yields them."""
    with open(path, "w") as fh:
        fh.writelines((text,) if isinstance(text, str) else text)


def _write_csv(path: str, header: Sequence[str], rows: Iterable[Sequence[str]]) -> None:
    """Every CSV file of a run: rows of formatted fields, joined as they are, lines ended in \\n."""
    _write_text(path, (",".join(row) + "\n" for part in ((header,), rows) for row in part))


def _csv_field(text: str) -> str:
    """text as one CSV field, quoted as the csv module quotes by default: in double quotes,
    with inner quotes doubled, when it holds a comma, quote or line break."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


REPORT_HEADER = ("setting", "algorithm", "seed", "mean_return", "std_return", "sharpe", "n")


def write_report_csv(rows: Iterable[PerformanceReport], path: str) -> None:
    """report.csv of train, simulate, backtest and compare: one row per cell, floats in repr
    form.  The setting label may carry a data file's name, so it alone is quoted."""
    _write_csv(path, REPORT_HEADER, (
        (_csv_field(r.setting), r.algorithm, str(r.seed), repr(r.mean_return),
         repr(r.std_return), repr(r.sharpe), str(r.n)) for r in rows))


def _held_texts(column: Iterable) -> Iterable[str]:
    """repr of each value of column, formed once per run of equal nonzero values (0.0 and -0.0 are
    equal, their reprs are not); the values are of one type, as a float column's are."""
    last = text = None
    for x in column:
        if x != last or not x:
            last, text = x, repr(x)
        yield text


def _ndjson_lines(cls, columns: Sequence[Iterable]) -> Iterable[str]:
    """json.dumps(rec._asdict(), sort_keys=True) + newline per record rec of the NamedTuple cls over
    columns (a field each, in order), from one %-template of its sorted field names.  json writes ints
    and finite floats by repr, so the two agree on records of finite values; cls has int and float fields.
    A w field, which the learners hold between refreshes, is formatted once per run (_held_texts)."""
    names = sorted(cls._fields)
    if not set(get_type_hints(cls).values()) <= {int, float}:
        raise TypeError(f"{cls.__name__}: the log takes int and float fields only")
    template = "{" + ", ".join(f'"{n}": %{"s" if n == "w" else "r"}' for n in names) + "}\n"
    by_name = dict(zip(cls._fields, columns))
    if "w" in by_name:
        by_name["w"] = _held_texts(by_name["w"])
    return map(template.__mod__, zip(*(by_name[n] for n in names)))


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
    tables = []
    max_err = 0.0
    for t, grid in enumerate(layers):  # whole layers: the closed forms take state arrays
        value = optimal_value(m, spec, t, xs, w)
        err = np.abs(value - grid.j_values) / np.maximum(1.0, np.abs(value))
        max_err = float(np.maximum(max_err, err.max()))  # a NaN error stays NaN
        if t < spec.T:
            pol = optimal_policy(m, spec, t, xs, w)
            means, var = map(repr, pol.mean.tolist()), _fmt(pol.variance)
        else:
            means, var = [""] * xs.size, ""
        tables.append((str(t), means, var, value, grid.j_values, err))
    x_strs = list(map(repr, xs.tolist()))  # every layer's rows share these
    rows = ((t, x, mean, var, repr(v), repr(o), repr(e)) for t, means, var, value, oracle, err in tables
            for x, mean, v, o, e in zip(x_strs, means, value.tolist(), oracle.tolist(), err.tolist()))
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


def cmd_train(cfg: RunConfig, out: str) -> None:
    """Single training run: log.ndjson (one JSON object per episode, keys sorted, floats in
    repr form), a checkpoint of the final parameters and generator state (no command reads it
    back yet) and a test-window report row, all written after training, each as it is formatted."""
    algorithm = cfg.learning.algorithm
    cell = Cell(*_setting(cfg), hyper_params(cfg, problem_spec(cfg)), algorithm, cfg.run.seed, 0)
    result, rng = train_cell(cell)
    learner, history = LEARNERS[algorithm], result.history
    row = cell_report(cell, history.wealths[-cfg.evaluation.test_episodes:])
    _write_text(os.path.join(out, "log.ndjson"), _ndjson_lines(learner.record, history.columns()))
    save_checkpoint(os.path.join(out, "checkpoint"), algorithm, learner.fields(result.params), rng)
    write_report_csv([row], os.path.join(out, "report.csv"))
    _write_text(os.path.join(out, "summary.txt"), summary_text([row]) + "\n")


def cmd_simulate(cfg: RunConfig, out: str) -> None:
    """Both-algorithm study over the volatility grid; writes the full report
    and its per-setting medians."""
    hyper = hyper_params(cfg, problem_spec(cfg))
    settings = [_setting(cfg, sigma) for sigma in cfg.evaluation.sigma_grid_annual]
    split = SplitSpec(cfg.learning.episodes - cfg.evaluation.test_episodes,
                      cfg.evaluation.test_episodes)
    rows = run_simulation_study(settings, hyper, split, cfg.evaluation.seeds, cfg.run.jobs)
    write_report_csv(rows, os.path.join(out, "report.csv"))
    _write_text(os.path.join(out, "summary.txt"), summary_text(rows) + "\n")


def cmd_backtest(cfg: RunConfig, out: str) -> None:
    """Rolling decade-by-decade evaluation on a monthly close series."""
    series = _load_series(cfg.market)
    spec = problem_spec(cfg)._replace(T=cfg.evaluation.horizon_months)
    hyper = hyper_params(cfg, spec)
    _, _, r_f = _per_period(cfg.market)
    rows = rolling_backtest(series, rolling_spec(cfg), hyper, r_f, cfg.run.seed, cfg.run.jobs)
    write_report_csv(rows, os.path.join(out, "report.csv"))
    _write_text(os.path.join(out, "summary.txt"), summary_text(rows) + "\n")


def cmd_compare(cfg: RunConfig, out: str) -> None:
    """Head-to-head learning curves of the two algorithms on one market.

    Writes the joined test report, blockwise curves, and per-algorithm
    stabilization summary (first block index from which block means stay
    within 2% of the target wealth)."""
    report_rows = []
    curve_rows = []
    stable: Dict[str, List[str]] = {}
    hyper = hyper_params(cfg, problem_spec(cfg))
    for cell in study_cells([_setting(cfg)], hyper, cfg.evaluation.seeds):
        tws = train_cell(cell, records=False)[0].history
        report_rows.append(cell_report(cell, tws[-cfg.evaluation.test_episodes:]))
        means, variances = learning_curves(tws, cfg.evaluation.block)
        for i, (mu, var) in enumerate(zip(means, variances)):
            curve_rows.append((cell.algorithm, str(cell.seed), str(i), _fmt(mu), _fmt(var)))
        idx = first_stable_block(means, cfg.problem.target_wealth)
        stable.setdefault(cell.algorithm, []).append("none" if idx is None else str(idx))
    write_report_csv(report_rows, os.path.join(out, "report.csv"))
    _write_csv(os.path.join(out, "curves.csv"),
               ("algorithm", "seed", "block", "mean_terminal_wealth", "var_terminal_wealth"),
               curve_rows)
    lines = [summary_text(report_rows), ""]
    for algorithm, marks in stable.items():
        lines.append(f"{algorithm} first_stable_block: {', '.join(marks)}")
    _write_text(os.path.join(out, "summary.txt"), "\n".join(lines) + "\n")


def cmd_histogram(cfg: RunConfig, out: str) -> None:
    """Empirical distribution of one-period excess returns under the
    configured market; bin counts sum to the number of draws."""
    label, model, _r_f = _setting(cfg)
    if isinstance(model, Historical):
        data = np.asarray(model.series.values, dtype=float)
    else:
        data = sample_path(model, cfg.evaluation.histogram_draws, make_rng(cfg.run.seed, 0))
    counts, edges = histogram(data, cfg.evaluation.histogram_bins)
    edges = edges.tolist()
    _write_csv(os.path.join(out, "histogram.csv"), ("bin_left", "bin_right", "count"),
               zip(map(repr, edges[:-1]), map(repr, edges[1:]), map(str, counts.tolist())))
    summary = [
        f"setting = {label}",
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


_COMMANDS: Dict[str, Tuple[Callable[[RunConfig, str], None], str]] = {
    "analytic": (cmd_analytic, "closed-form policy/value table with oracle cross-check"),
    "iterate": (cmd_iterate, "policy-improvement trace from a configured seed family"),
    "train": (cmd_train, "single training run with log and checkpoint"),
    "simulate": (cmd_simulate, "simulation study over the volatility grid"),
    "backtest": (cmd_backtest, "rolling backtest on a monthly close series"),
    "compare": (cmd_compare, "learning-curve comparison of the two algorithms"),
    "histogram": (cmd_histogram, "histogram of one-period excess returns"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dtmv",
        description="Exploratory mean-variance portfolio selection toolkit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_cmd, help_text) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", default=None, help="INI config file (defaults apply)")
        p.add_argument("--seed", type=int, default=None, help="override run.seed / seed list")
        p.add_argument("--out", default=None, help="output directory (default runs/<command>)")
        p.add_argument("--jobs", type=int, default=None,
                       help="worker processes; only simulate and backtest use them")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        for flag, value, least in (("--seed", args.seed, 0), ("--jobs", args.jobs, 1)):
            if value is not None:
                _check_least(flag, (value,), least)
        out = args.out or os.path.join("runs", args.command)
        os.makedirs(out, exist_ok=True)
        _write_text(os.path.join(out, "config.effective"), effective_config_text(cfg))
        # the flags override the config for this run; config.effective keeps the file's values
        if args.seed is not None:
            cfg = cfg._replace(run=cfg.run._replace(seed=args.seed),
                               evaluation=cfg.evaluation._replace(seeds=(args.seed,)))
        if args.jobs is not None:
            cfg = cfg._replace(run=cfg.run._replace(jobs=args.jobs))
        cmd, _help = _COMMANDS[args.command]
        cmd(cfg, out)
    except Exception as exc:  # one machine-readable record per failure
        import json  # here, not at the top: a successful command never uses it
        record = {"error": type(exc).__name__, "message": str(exc)}
        keys = []  # the keys behind the failure, named with their values
        if isinstance(exc, TrainingDivergedError):  # those that size a step
            keys = ["learning.eta_theta", "learning.eta_phi",
                    "evaluation.horizon_months" if args.command == "backtest" else "problem.horizon"]
        elif isinstance(exc, QuadratureError):  # the oracle's w and its grid of states
            keys = ["grid.w", "grid.x_min", "grid.x_max"]
        if keys:
            record["settings"] = {key: operator.attrgetter(key)(cfg) for key in keys}
        print(json.dumps(record, sort_keys=True), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
