"""Performance measurement over terminal wealths, simulation studies on
synthetic markets, and rolling historical backtests.

Reported returns are simple per-horizon returns x_T / x0 - 1; std is the
population standard deviation; sharpe is mean_return / std_return with no
riskless adjustment (returns are already in excess of compounding at r_f
through the wealth dynamics).
"""

from __future__ import annotations

import csv
import statistics
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from dtmv.analytic import ProblemSpec
from dtmv.baseline import ALGORITHM_CONTINUOUS, CONTINUOUS, baseline_train
from dtmv.learner import (
    ALGORITHM_DISCRETE,
    DISCRETE,
    HyperParams,
    LagrangeState,
    episode_step,
    train,
)
from dtmv.market import (
    Historical,
    InsufficientDataError,
    ReturnModel,
    ReturnSeries,
    RngStream,
    month_index,
    month_label,
)

REPORT_HEADER = ("setting", "algorithm", "seed", "mean_return", "std_return", "sharpe", "n")

LEARNERS = {ALGORITHM_DISCRETE: DISCRETE, ALGORITHM_CONTINUOUS: CONTINUOUS}
ALGORITHMS = tuple(LEARNERS)


class StatsError(ValueError):
    """Terminal-wealth statistics are undefined for the given sample."""


@dataclass(frozen=True)
class PerformanceReport:
    """One report row; sharpe * std_return equals mean_return by construction."""

    setting: str
    algorithm: str
    seed: int
    mean_return: float
    std_return: float
    sharpe: float
    n: int


@dataclass(frozen=True)
class SplitSpec:
    """Episode budget split of one uninterrupted training run: statistics are
    taken over the last test_episodes, the train_episodes before them are not
    measured.  Learning does not stop at the split: the learners' parameters
    and w keep adapting through the measured episodes.  Must sum to the
    training budget in use."""

    train_episodes: int
    test_episodes: int

    def __post_init__(self) -> None:
        if self.train_episodes < 0 or self.test_episodes < 2:
            raise ValueError("need train_episodes >= 0 and test_episodes >= 2")

    @property
    def total(self) -> int:
        return self.train_episodes + self.test_episodes


@dataclass(frozen=True)
class StudySetting:
    """A labeled market for the simulation study."""

    label: str
    model: ReturnModel
    r_f: float


@dataclass(frozen=True)
class RollingSpec:
    """Rolling backtest layout: for each test year Y, train on the
    window_months immediately preceding January Y, then measure frozen-policy
    performance on sequential nonoverlapping horizon_months windows covering
    test_months from January Y, once per target wealth."""

    test_years: Tuple[int, ...]
    targets: Tuple[float, ...] = (1.03, 1.05, 1.07)
    window_months: int = 120
    horizon_months: int = 3
    test_months: int = 120
    online_test: bool = False

    def __post_init__(self) -> None:
        if not self.test_years or not self.targets:
            raise ValueError("test_years and targets must be nonempty")
        if self.horizon_months < 1 or self.window_months < self.horizon_months:
            raise ValueError("need window_months >= horizon_months >= 1")
        if self.test_months < self.horizon_months:
            raise ValueError("test period shorter than one horizon window")


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------


def terminal_stats(terminal_wealths: Sequence[float], x0: float) -> Tuple[float, float, float, int]:
    """(mean_return, std_return, sharpe, n) of simple returns x_T / x0 - 1.

    Raises StatsError for fewer than two observations or zero spread.
    """
    arr = np.asarray(terminal_wealths, dtype=float)
    n = int(arr.size)
    if n < 2:
        raise StatsError(f"need at least 2 terminal wealths, got {n}")
    if x0 == 0.0:
        raise StatsError("x0 must be nonzero to define returns")
    rets = arr / x0 - 1.0
    mean = float(np.mean(rets))
    std = float(np.std(rets))
    if std == 0.0:
        raise StatsError("terminal wealths have zero spread; sharpe undefined")
    return mean, std, mean / std, n


def learning_curves(
    terminal_wealths: Sequence[float], block: int = 50
) -> Tuple[np.ndarray, np.ndarray]:
    """Blockwise (means, variances) of terminal wealth in episode order.

    The trailing partial block, if any, is dropped.
    """
    if block < 1:
        raise ValueError("block must be >= 1")
    arr = np.asarray(terminal_wealths, dtype=float)
    n_blocks = arr.size // block
    if n_blocks == 0:
        return np.empty(0), np.empty(0)
    chunks = arr[: n_blocks * block].reshape(n_blocks, block)
    return chunks.mean(axis=1), chunks.var(axis=1)


def first_stable_block(means: Sequence[float], target: float, rel_tol: float = 0.02) -> Optional[int]:
    """Smallest block index from which all block means stay within
    rel_tol * |target| of target; None if never."""
    arr = np.asarray(means, dtype=float)
    band = rel_tol * abs(target)
    ok = np.abs(arr - target) <= band
    stable_from = None
    for i in range(arr.size - 1, -1, -1):
        if not ok[i]:
            break
        stable_from = i
    return stable_from


def mv_objective(
    terminal_wealths: Sequence[float], w: float, b: float
) -> Tuple[float, float, float]:
    """(mean, variance, lagrangian) of terminal wealth, where the lagrangian
    is E[(x_T - w)^2] - (w - b)^2."""
    arr = np.asarray(terminal_wealths, dtype=float)
    if arr.size == 0:
        raise StatsError("no terminal wealths")
    mean = float(arr.mean())
    var = float(arr.var())
    lagrangian = float(np.mean((arr - w) ** 2)) - (w - b) ** 2
    return mean, var, lagrangian


# ---------------------------------------------------------------------------
# simulation study
# ---------------------------------------------------------------------------


def _train(algorithm: str, hyper: HyperParams, model: ReturnModel, r_f: float, rng):
    # the table is built per call, so a wrapper installed later on this
    # module's train or baseline_train (perfbench/spans.py) sees every cell
    trainer = {ALGORITHM_DISCRETE: train, ALGORITHM_CONTINUOUS: baseline_train}[algorithm]
    return trainer(hyper, model, r_f, rng)


def _study_cell(args) -> PerformanceReport:
    label, model, r_f, hyper, test_episodes, algorithm, seed, stream = args
    rng = RngStream(seed=seed, stream=stream).generator()
    history = _train(algorithm, hyper, model, r_f, rng).history
    tail = [rec.terminal_wealth for rec in history[-test_episodes:]]
    mean, std, sharpe, n = terminal_stats(tail, hyper.spec.x0)
    return PerformanceReport(label, algorithm, seed, mean, std, sharpe, n)


def _run_cells(worker, cells, jobs: int):
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    if jobs == 1:
        return [worker(c) for c in cells]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(worker, cells))


def run_simulation_study(
    settings: Sequence[StudySetting],
    hyper: HyperParams,
    split: SplitSpec,
    seeds: Sequence[int],
    jobs: int = 1,
) -> List[PerformanceReport]:
    """Train both algorithms on every setting for every seed and report
    test statistics over the final split.test_episodes episodes.

    Cells are independent and deterministic given (seed, setting, algorithm),
    so the report is identical for any jobs value.
    """
    if split.total != hyper.episodes:
        raise ValueError(
            f"split {split.train_episodes}+{split.test_episodes} != episode budget {hyper.episodes}"
        )
    if not settings or not seeds:
        raise ValueError("settings and seeds must be nonempty")
    cells = []
    for si, setting in enumerate(settings):
        for ai, algorithm in enumerate(ALGORITHMS):
            for seed in seeds:
                stream = si * len(ALGORITHMS) + ai
                cells.append(
                    (
                        setting.label,
                        setting.model,
                        setting.r_f,
                        hyper,
                        split.test_episodes,
                        algorithm,
                        seed,
                        stream,
                    )
                )
    return _run_cells(_study_cell, cells, jobs)


def median_summary(rows: Sequence[PerformanceReport]) -> List[Dict[str, object]]:
    """Per (setting, algorithm): median across seeds of each statistic,
    in first-appearance order."""
    order: List[Tuple[str, str]] = []
    groups: Dict[Tuple[str, str], List[PerformanceReport]] = {}
    for row in rows:
        key = (row.setting, row.algorithm)
        if key not in groups:
            groups[key] = []
            order.append(key)
        groups[key].append(row)
    out = []
    for key in order:
        rs = groups[key]
        out.append(
            {
                "setting": key[0],
                "algorithm": key[1],
                "mean_return": statistics.median(r.mean_return for r in rs),
                "std_return": statistics.median(r.std_return for r in rs),
                "sharpe": statistics.median(r.sharpe for r in rs),
                "seeds": len(rs),
            }
        )
    return out


# ---------------------------------------------------------------------------
# rolling backtest
# ---------------------------------------------------------------------------


def _backtest_cell(args) -> PerformanceReport:
    series, rolling, hyper, r_f, year, target, algorithm, seed, stream = args
    spec = replace(hyper.spec, b=target)
    hyper = replace(hyper, spec=spec)
    decade = f"{year}-{year + rolling.test_months // 12 - 1}"
    label = f"{decade} b={target:g}"

    test_start = month_index(f"{year:04d}-01")
    train_start = test_start - rolling.window_months
    n_windows = rolling.test_months // rolling.horizon_months
    try:
        train_series = series.subseries(month_label(train_start), rolling.window_months)
        test_values = series.slice_months(
            month_label(test_start), n_windows * rolling.horizon_months
        )
    except InsufficientDataError as exc:
        raise InsufficientDataError(f"{label}: {exc}") from exc

    rng = RngStream(seed=seed, stream=stream).generator()
    model = Historical(train_series, mode="random-window")

    params = _train(algorithm, hyper, model, r_f, rng).params
    lag = LagrangeState(w=params.w, alpha=hyper.alpha)
    wealths: List[float] = []
    for j in range(n_windows):
        window = test_values[j * rolling.horizon_months : (j + 1) * rolling.horizon_months]
        episode, params = episode_step(
            LEARNERS[algorithm], params, lag, hyper, r_f, window, rng, rolling.online_test
        )
        wealths.append(episode.terminal_wealth)

    mean, std, sharpe, n = terminal_stats(wealths, spec.x0)
    return PerformanceReport(label, algorithm, seed, mean, std, sharpe, n)


def rolling_backtest(
    series: ReturnSeries,
    rolling: RollingSpec,
    hyper: HyperParams,
    r_f: float,
    seed: int,
    jobs: int = 1,
) -> List[PerformanceReport]:
    """Decade-by-decade out-of-sample evaluation on a monthly return series.

    For each (test year, target, algorithm) cell: train on the window
    immediately preceding the test period (episodes are random contiguous
    horizon windows of the training months), then execute the trained policy
    on the sequential nonoverlapping windows of the test period.  Parameters
    stay frozen during testing unless rolling.online_test is set; then every
    test window is one more training episode (episode_step), w refresh
    included.

    Returns len(test_years) * len(targets) * 2 rows in (year, target,
    algorithm) order.  Raises InsufficientDataError naming the first month
    an incomplete cell would need.
    """
    if hyper.spec.T != rolling.horizon_months:
        raise ValueError(
            f"hyper horizon T={hyper.spec.T} != rolling horizon {rolling.horizon_months}"
        )
    cells = []
    idx = 0
    for year in rolling.test_years:
        for target in rolling.targets:
            for algorithm in ALGORITHMS:
                cells.append((series, rolling, hyper, r_f, year, target, algorithm, seed, idx))
                idx += 1
    return _run_cells(_backtest_cell, cells, jobs)


# ---------------------------------------------------------------------------
# report emission
# ---------------------------------------------------------------------------


def write_report_csv(rows: Sequence[PerformanceReport], path: str) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(REPORT_HEADER)
        for row in rows:
            writer.writerow(
                [
                    row.setting,
                    row.algorithm,
                    row.seed,
                    repr(row.mean_return),
                    repr(row.std_return),
                    repr(row.sharpe),
                    row.n,
                ]
            )


def read_report_csv(path: str) -> List[PerformanceReport]:
    rows = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = tuple(next(reader))
        if header != REPORT_HEADER:
            raise ValueError(f"{path}: unexpected report header {header}")
        for rec in reader:
            rows.append(
                PerformanceReport(
                    setting=rec[0],
                    algorithm=rec[1],
                    seed=int(rec[2]),
                    mean_return=float(rec[3]),
                    std_return=float(rec[4]),
                    sharpe=float(rec[5]),
                    n=int(rec[6]),
                )
            )
    return rows


def summary_text(rows: Sequence[PerformanceReport]) -> str:
    """Fixed-width table of per-(setting, algorithm) medians across seeds.

    Percentages and sharpe are rounded to two decimals for display; the CSV
    report keeps full precision.
    """
    summary = median_summary(rows)
    width = max([len("setting")] + [len(s["setting"]) for s in summary]) + 2
    awidth = max([len("algorithm")] + [len(s["algorithm"]) for s in summary]) + 2
    lines = [
        f"{'setting':<{width}}{'algorithm':<{awidth}}{'mean':>9}{'std':>9}{'sharpe':>9}{'seeds':>7}"
    ]
    for s in summary:
        lines.append(
            f"{s['setting']:<{width}}{s['algorithm']:<{awidth}}"
            f"{100 * s['mean_return']:>8.2f}%{100 * s['std_return']:>8.2f}%"
            f"{s['sharpe']:>9.2f}{s['seeds']:>7}"
        )
    return "\n".join(lines) + "\n"
