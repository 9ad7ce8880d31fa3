"""Tests for statistics, the simulation study, and the rolling backtest."""

import math
import statistics
import struct

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from dtmv.analytic import ProblemSpec
from dtmv.baseline import ALGORITHM_CONTINUOUS
from dtmv.evaluation import (
    ALGORITHMS,
    PerformanceReport,
    RollingSpec,
    SplitSpec,
    StatsError,
    StudySetting,
    _median,
    first_stable_block,
    learning_curves,
    median_summary,
    rolling_backtest,
    run_simulation_study,
    summary_text,
    terminal_stats,
)
from dtmv.learner import ALGORITHM_DISCRETE, HyperParams, train
from dtmv.market import (
    InsufficientDataError,
    NormalIID,
    ReturnSeries,
    month_index,
    month_label,
)

SPEC = ProblemSpec(T=3, x0=1.0, b=1.1, lam=2.0)
R_F = 1.0 + 0.02 / 12.0


def _months(start, n):
    base = month_index(start)
    return tuple(month_label(base + k) for k in range(n))


def _flat_series(start, n, value=0.004):
    return ReturnSeries(_months(start, n), tuple([value] * n))


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------


def test_terminal_stats_basic_identity():
    mean, std, sharpe, n = terminal_stats([1.0, 1.1, 1.2, 1.3], x0=1.0)
    rets = np.array([0.0, 0.1, 0.2, 0.3])
    assert mean == pytest.approx(rets.mean())
    assert std == pytest.approx(rets.std())
    assert sharpe * std == pytest.approx(mean, rel=1e-14)
    assert n == 4


def test_terminal_stats_respects_x0_scaling():
    mean_a, *_ = terminal_stats([2.0, 2.2], x0=2.0)
    mean_b, *_ = terminal_stats([1.0, 1.1], x0=1.0)
    assert mean_a == pytest.approx(mean_b, rel=1e-14)


def test_terminal_stats_error_cases():
    with pytest.raises(StatsError, match="at least 2"):
        terminal_stats([1.0], 1.0)
    with pytest.raises(StatsError, match="zero spread"):
        terminal_stats([1.1, 1.1, 1.1], 1.0)
    with pytest.raises(StatsError, match="nonzero"):
        terminal_stats([1.0, 1.1], 0.0)


def test_learning_curves_blocks_and_partial_drop():
    tws = list(range(10))  # 10 observations, block 4 -> 2 full blocks
    means, variances = learning_curves(tws, block=4)
    np.testing.assert_allclose(means, [1.5, 5.5])
    np.testing.assert_allclose(variances, [np.var([0, 1, 2, 3]), np.var([4, 5, 6, 7])])
    means, variances = learning_curves([1.0, 2.0], block=5)
    assert means.size == 0 and variances.size == 0
    with pytest.raises(ValueError):
        learning_curves(tws, block=0)


def test_first_stable_block_scans_from_the_tail():
    target = 1.0
    assert first_stable_block([2.0, 1.01, 0.99, 1.0], target) == 1
    assert first_stable_block([1.0, 1.0, 2.0], target) is None  # exits the band
    assert first_stable_block([1.0, 1.0], target) == 0
    assert first_stable_block([], target) is None
    # band is relative to the target
    assert first_stable_block([108.0], 110.0, rel_tol=0.02) == 0
    assert first_stable_block([107.0], 110.0, rel_tol=0.02) is None


# ---------------------------------------------------------------------------
# simulation study
# ---------------------------------------------------------------------------


def _tiny_hyper(episodes=80):
    return HyperParams(spec=SPEC, episodes=episodes)


def _settings():
    return [
        StudySetting("low-vol", NormalIID(0.025, 0.03), R_F),
        StudySetting("high-vol", NormalIID(0.025, 0.08), R_F),
    ]


def test_run_simulation_study_row_grid_and_order():
    rows = run_simulation_study(_settings(), _tiny_hyper(), SplitSpec(40, 40), seeds=(1, 2))
    assert len(rows) == 2 * 2 * 2
    expected = [
        (s.label, algo, seed)
        for s in _settings()
        for algo in ALGORITHMS
        for seed in (1, 2)
    ]
    assert [(r.setting, r.algorithm, r.seed) for r in rows] == expected
    for r in rows:
        assert r.n == 40
        assert r.sharpe * r.std_return == pytest.approx(r.mean_return, rel=1e-12, abs=1e-15)


def test_run_simulation_study_validates_the_split():
    with pytest.raises(ValueError, match="episode budget"):
        run_simulation_study(_settings(), _tiny_hyper(80), SplitSpec(10, 40), seeds=(1,))
    with pytest.raises(ValueError):
        run_simulation_study([], _tiny_hyper(), SplitSpec(40, 40), seeds=(1,))
    with pytest.raises(ValueError):
        SplitSpec(10, 1)  # too few test episodes to form statistics


def test_run_simulation_study_parallel_matches_serial():
    serial = run_simulation_study(_settings(), _tiny_hyper(), SplitSpec(40, 40), (1, 2), jobs=1)
    parallel = run_simulation_study(_settings(), _tiny_hyper(), SplitSpec(40, 40), (1, 2), jobs=3)
    assert serial == parallel


@given(st.lists(st.one_of(st.floats(), st.sampled_from([0.0, -0.0])), min_size=1, max_size=12))
@example([0.0, -0.0])
@example([-0.0, 0.0])
@example([-0.0, 0.0, 0.0])
@example([1e308, 1e308])
def test_the_local_median_is_statistics_median_bit_for_bit(values):
    """median_summary's median keeps statistics.median's arithmetic: the
    middle of the sorted values, or (a + b) / 2 of the middle two; the same
    bits for odd and even counts, signed zeros, infinities and NaNs."""
    def bits(x):
        return struct.pack("<d", x)

    assert bits(_median(iter(values))) == bits(statistics.median(values))


def test_median_summary_groups_in_first_appearance_order():
    rows = [
        PerformanceReport("s", "a", 1, 0.10, 0.2, 0.50, 4),
        PerformanceReport("s", "a", 2, 0.30, 0.4, 0.75, 4),
        PerformanceReport("s", "a", 3, 0.20, 0.3, 0.10, 4),
        PerformanceReport("s", "b", 1, 0.05, 0.1, 0.50, 4),
    ]
    out = median_summary(rows)
    assert [(g["setting"], g["algorithm"]) for g in out] == [("s", "a"), ("s", "b")]
    assert out[0]["mean_return"] == pytest.approx(0.20)
    assert out[0]["sharpe"] == pytest.approx(0.50)
    assert out[0]["seeds"] == 3


def test_summary_text_is_deterministic_and_readable():
    rows = [PerformanceReport("set", "algo", 1, 0.123456, 0.2, 0.617, 4)]
    text = summary_text(rows)
    assert text == summary_text(rows)
    assert "set" in text and "algo" in text and "12.35%" in text


# ---------------------------------------------------------------------------
# rolling backtest
# ---------------------------------------------------------------------------


def _hist_hyper(episodes=60):
    return HyperParams(spec=SPEC, episodes=episodes)


def _noise_series(start="1992-01", n=216):
    rng = np.random.Generator(np.random.PCG64(123))
    vals = tuple(float(v) for v in 0.004 + 0.03 * rng.standard_normal(n))
    return ReturnSeries(_months(start, n), vals)


def test_rolling_backtest_row_grid_order_and_identity():
    series = _noise_series()  # 1992-01 .. 2009-12
    rolling = RollingSpec(
        test_years=(2002, 2003), targets=(1.03, 1.05), window_months=120,
        horizon_months=3, test_months=24,
    )
    rows = rolling_backtest(series, rolling, _hist_hyper(), R_F, seed=5)
    keys = [(r.setting, r.algorithm) for r in rows]
    assert keys == [
        (f"{y}-{y + 1} b={t:g}", algo)
        for y in (2002, 2003)
        for t in (1.03, 1.05)
        for algo in ALGORITHMS
    ]
    for r in rows:
        assert r.n == 8  # 24 test months / 3-month windows
        assert r.sharpe * r.std_return == pytest.approx(r.mean_return, rel=1e-12, abs=1e-15)
        assert r.seed == 5


def test_rolling_backtest_is_deterministic_and_parallel_safe():
    series = _noise_series()
    rolling = RollingSpec(test_years=(2002,), targets=(1.05,), test_months=12)
    a = rolling_backtest(series, rolling, _hist_hyper(), R_F, seed=2, jobs=1)
    b = rolling_backtest(series, rolling, _hist_hyper(), R_F, seed=2, jobs=2)
    assert a == b


def test_rolling_backtest_requires_matching_horizon():
    series = _noise_series()
    rolling = RollingSpec(test_years=(2002,), targets=(1.05,), horizon_months=6)
    with pytest.raises(ValueError, match="horizon"):
        rolling_backtest(series, rolling, _hist_hyper(), R_F, seed=1)


def test_rolling_backtest_names_the_missing_month():
    series = _flat_series("1995-01", 120)  # ends 2004-12: test window runs dry
    rolling = RollingSpec(test_years=(2005,), targets=(1.05,), test_months=12)
    with pytest.raises(InsufficientDataError, match="2005-01"):
        rolling_backtest(series, rolling, _hist_hyper(), R_F, seed=1)
    # training window reaches before the series start
    series = _noise_series("2000-01", 60)
    rolling = RollingSpec(test_years=(2004,), targets=(1.05,), test_months=12)
    with pytest.raises(InsufficientDataError, match="1994-01"):
        rolling_backtest(series, rolling, _hist_hyper(), R_F, seed=1)


def test_rolling_backtest_fails_on_missing_data_before_any_cell_trains(monkeypatch):
    """The decade that lacks data is the second one; its error, with the label
    of its first cell, comes before the first decade's cells train."""
    calls = []
    monkeypatch.setattr("dtmv.evaluation.train", lambda *args: calls.append(args) or train(*args))
    series = _noise_series()  # 1992-01 .. 2009-12
    rolling = RollingSpec(test_years=(2002, 2009), targets=(1.03, 1.05), test_months=24)
    with pytest.raises(InsufficientDataError) as info:
        rolling_backtest(series, rolling, _hist_hyper(), R_F, seed=1)
    assert str(info.value) == "2009-2010 b=1.03: series has no data for 2010-01"
    assert calls == []


def test_rolling_backtest_tolerates_constant_returns():
    """A constant-return series would break the sharpe denominator under a
    deterministic policy; the stochastic policy keeps spread in the terminal
    wealths, so the run succeeds with finite statistics."""
    series = _flat_series("1992-01", 216)
    rolling = RollingSpec(test_years=(2002,), targets=(1.05,), test_months=12)
    rows = rolling_backtest(series, rolling, _hist_hyper(), R_F, seed=3)
    assert len(rows) == 2
    for r in rows:
        assert math.isfinite(r.sharpe)


def test_rolling_backtest_online_mode_changes_the_outcome():
    """After 60 training episodes the discrete learner's phi2 sits on its
    floor and its phi1 is held, so its online updates reach the policy only
    through the w refresh, once every refresh_every = 10 test windows: 24
    test months (8 windows) leave its row as frozen, 36 months (12 windows)
    change it.  The comparator steps phi1 in every window, so its row
    changes at either length."""
    series = _noise_series()
    changed = {}
    for months in (24, 36):
        frozen = RollingSpec(test_years=(2002,), targets=(1.05,), test_months=months)
        online = RollingSpec(test_years=(2002,), targets=(1.05,), test_months=months,
                             online_test=True)
        a = rolling_backtest(series, frozen, _hist_hyper(), R_F, seed=4)
        b = rolling_backtest(series, online, _hist_hyper(), R_F, seed=4)
        for x, y in zip(a, b):
            changed[(months, x.algorithm)] = x != y
    assert changed == {
        (24, ALGORITHM_DISCRETE): False,
        (24, ALGORITHM_CONTINUOUS): True,
        (36, ALGORITHM_DISCRETE): True,
        (36, ALGORITHM_CONTINUOUS): True,
    }


def test_rolling_spec_validation():
    with pytest.raises(ValueError):
        RollingSpec(test_years=(), targets=(1.05,))
    with pytest.raises(ValueError):
        RollingSpec(test_years=(2002,), targets=(1.05,), window_months=2, horizon_months=3)
    with pytest.raises(ValueError):
        RollingSpec(test_years=(2002,), targets=(1.05,), test_months=2)
