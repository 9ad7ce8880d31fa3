"""Performance measurement over terminal wealths, simulation studies on
synthetic markets, and rolling historical backtests.

Reported returns are simple per-horizon returns x_T / x0 - 1; std is the
population standard deviation; sharpe is mean_return / std_return with no
riskless adjustment (returns are already in excess of compounding at r_f
through the wealth dynamics).
"""

from __future__ import annotations

from functools import partial
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from dtmv.baseline import ALGORITHM_CONTINUOUS, CONTINUOUS
from dtmv.baseline import baseline_train  # noqa: F401  (perfbench/spans.py wraps this binding)
from dtmv.learner import ALGORITHM_DISCRETE, DISCRETE, HyperParams, TrainResult, run_episodes, train
from dtmv.market import (
    Historical,
    InsufficientDataError,
    ReturnModel,
    ReturnSeries,
    make_rng,
    month_index,
    month_label,
)
from dtmv.records import checked

LEARNERS = {ALGORITHM_DISCRETE: DISCRETE, ALGORITHM_CONTINUOUS: CONTINUOUS}
ALGORITHMS = tuple(LEARNERS)


class StatsError(ValueError):
    """Terminal-wealth statistics are undefined for the given sample."""


class PerformanceReport(NamedTuple):
    """One report row; sharpe * std_return equals mean_return by construction."""

    setting: str
    algorithm: str
    seed: int
    mean_return: float
    std_return: float
    sharpe: float
    n: int


@checked
class SplitSpec(NamedTuple):
    """Episode budget split of one uninterrupted training run: statistics are
    taken over the last test_episodes, the train_episodes before them are not
    measured.  Learning does not stop at the split: the learners' parameters
    and w keep adapting through the measured episodes.  Must sum to the
    training budget in use."""

    train_episodes: int
    test_episodes: int

    def _check(self) -> None:
        if self.train_episodes < 0 or self.test_episodes < 2:
            raise ValueError("need train_episodes >= 0 and test_episodes >= 2")

    @property
    def total(self) -> int:
        return self.train_episodes + self.test_episodes


class StudySetting(NamedTuple):
    """A labeled market for the simulation study."""

    label: str
    model: ReturnModel
    r_f: float


class Cell(NamedTuple):
    """One training run: labeled market, HyperParams, learner name and generator (seed, stream)."""

    label: str
    model: ReturnModel
    r_f: float
    hyper: HyperParams
    algorithm: str
    seed: int
    stream: int


@checked
class RollingSpec(NamedTuple):
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

    def _check(self) -> None:
        if not self.test_years or not self.targets:
            raise ValueError("test_years and targets must be nonempty")
        if self.horizon_months < 1 or self.window_months < self.horizon_months:
            raise ValueError("need window_months >= horizon_months >= 1")
        if self.test_months < 2 * self.horizon_months:  # a test cell's statistics need two windows
            raise ValueError("test period shorter than two horizon windows")


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


# ---------------------------------------------------------------------------
# cells and the simulation study
# ---------------------------------------------------------------------------


def train_cell(cell: Cell, records: bool = True) -> Tuple[TrainResult, np.random.Generator]:
    """The cell trained from a fresh generator (train, records passed on), and that generator."""
    rng = make_rng(cell.seed, cell.stream)
    return train(cell.hyper, cell.model, cell.r_f, rng, LEARNERS[cell.algorithm], records), rng


def cell_report(cell: Cell, terminal_wealths: Sequence[float]) -> PerformanceReport:
    """The cell's report row: terminal_stats of the given wealths."""
    stats = terminal_stats(terminal_wealths, cell.hyper.spec.x0)
    return PerformanceReport(cell.label, cell.algorithm, cell.seed, *stats)


def _run_cells(worker, cells, jobs: int):
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    if jobs == 1:
        return [worker(c) for c in cells]
    # imported here: it loads multiprocessing, which a --jobs 1 run never uses
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(worker, cells))


def study_cells(settings: Sequence[StudySetting], hyper: HyperParams,
                seeds: Sequence[int]) -> List[Cell]:
    """Every (setting, algorithm, seed) cell in that order; each (setting,
    algorithm) pair has its own stream, shared by its seeds."""
    return [Cell(*setting, hyper, algorithm, seed, si * len(ALGORITHMS) + ai)
            for si, setting in enumerate(settings)
            for ai, algorithm in enumerate(ALGORITHMS)
            for seed in seeds]


def _study_cell(test_episodes: int, cell: Cell) -> PerformanceReport:
    return cell_report(cell, train_cell(cell, records=False)[0].history[-test_episodes:])


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
    cells = study_cells(settings, hyper, seeds)
    return _run_cells(partial(_study_cell, split.test_episodes), cells, jobs)


def _median(values: Iterable[float]) -> float:
    """statistics.median's arithmetic: the middle sorted value, or (a + b) / 2 of the middle two."""
    data = sorted(values)
    half = len(data) // 2
    return data[half] if len(data) % 2 else (data[half - 1] + data[half]) / 2


def median_summary(rows: Sequence[PerformanceReport]) -> List[Dict[str, object]]:
    """Per (setting, algorithm): median across seeds of each statistic,
    in first-appearance order."""
    groups: Dict[Tuple[str, str], List[PerformanceReport]] = {}
    for row in rows:
        groups.setdefault((row.setting, row.algorithm), []).append(row)
    stats = ("mean_return", "std_return", "sharpe")
    return [{"setting": key[0], "algorithm": key[1], **{s: _median(getattr(r, s) for r in rs) for s in stats},
             "seeds": len(rs)} for key, rs in groups.items()]


# ---------------------------------------------------------------------------
# rolling backtest
# ---------------------------------------------------------------------------


def _backtest_cell(online_test: bool, cell_and_test: Tuple[Cell, np.ndarray]) -> PerformanceReport:
    cell, test_values = cell_and_test
    result, rng = train_cell(cell, records=False)
    learner, h = LEARNERS[cell.algorithm], cell.hyper.spec.T
    # one row per test window: its h returns, then its h policy normals, all drawn in one call
    n = test_values.size // h
    windows = np.concatenate((test_values[: n * h].reshape(n, h), rng.standard_normal((n, h))), axis=1)
    tested = run_episodes(learner, cell.hyper, cell.r_f, windows.tolist(), result.params, online_test,
                          records=False)
    return cell_report(cell, tested.history)


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
    test window is one more training episode (run_episodes), w refresh and
    divergence check included.

    Returns len(test_years) * len(targets) * 2 rows in (year, target,
    algorithm) order.  Raises InsufficientDataError naming the first month
    an incomplete cell would need, before any cell trains.
    """
    if hyper.spec.T != rolling.horizon_months:
        raise ValueError(
            f"hyper horizon T={hyper.spec.T} != rolling horizon {rolling.horizon_months}"
        )
    n_test = rolling.test_months // rolling.horizon_months * rolling.horizon_months
    cells = []
    for year in rolling.test_years:
        test_start = month_index(f"{year:04d}-01")
        decade = f"{year}-{(test_start + n_test - 1) // 12}"  # the year of the test windows' last month
        try:
            model = Historical(series.subseries(
                month_label(test_start - rolling.window_months), rolling.window_months))
            test_values = series.slice_months(month_label(test_start), n_test)
        except InsufficientDataError as exc:
            raise InsufficientDataError(f"{decade} b={rolling.targets[0]:g}: {exc}") from exc
        for target in rolling.targets:
            cell_hyper = hyper._replace(spec=hyper.spec._replace(b=target))
            for algorithm in ALGORITHMS:
                cell = Cell(f"{decade} b={target:g}", model, r_f, cell_hyper, algorithm, seed,
                            len(cells))
                cells.append((cell, test_values))
    return _run_cells(partial(_backtest_cell, rolling.online_test), cells, jobs)


# ---------------------------------------------------------------------------
# summary
# ---------------------------------------------------------------------------


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
