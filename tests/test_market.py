"""Tests for return models, monthly data handling, and seeded sampling."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dtmv.market import (
    DataError,
    Historical,
    InsufficientDataError,
    NormalIID,
    ReturnSeries,
    RngStream,
    SkewTIID,
    annualize_market,
    bundled_monthly_csv_path,
    histogram,
    load_monthly_csv,
    make_rng,
    month_index,
    month_label,
    sample_path,
    skewt_core_moments,
    step_wealth,
)


# ---------------------------------------------------------------------------
# rng streams
# ---------------------------------------------------------------------------


def test_make_rng_is_deterministic_per_seed_and_stream():
    a = make_rng(7, 0).standard_normal(5)
    b = make_rng(7, 0).standard_normal(5)
    c = make_rng(7, 1).standard_normal(5)
    d = make_rng(8, 0).standard_normal(5)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_rng_stream_dataclass_matches_helper():
    assert np.array_equal(
        RngStream(3, 2).generator().standard_normal(4),
        make_rng(3, 2).standard_normal(4),
    )


# ---------------------------------------------------------------------------
# month arithmetic
# ---------------------------------------------------------------------------


def test_month_index_and_label_round_trip():
    for label in ("1990-01", "1999-12", "2022-06"):
        assert month_label(month_index(label)) == label
    assert month_index("1990-02") == month_index("1990-01") + 1
    assert month_index("1991-01") == month_index("1990-12") + 1


@pytest.mark.parametrize("bad", ["1990", "1990-13", "1990-00", "90-01", "1990/01"])
def test_month_index_rejects_malformed_labels(bad):
    with pytest.raises(DataError):
        month_index(bad)


# ---------------------------------------------------------------------------
# return series
# ---------------------------------------------------------------------------


def _series(start="2000-01", values=(0.01, -0.02, 0.03, 0.0)):
    labels = tuple(month_label(month_index(start) + k) for k in range(len(values)))
    return ReturnSeries(labels, tuple(values))


def test_return_series_requires_consecutive_months():
    with pytest.raises(DataError, match="not consecutive at 2000-04"):
        ReturnSeries(("2000-01", "2000-02", "2000-04"), (0.0, 0.0, 0.0))


def test_return_series_rejects_returns_at_or_below_minus_one():
    with pytest.raises(DataError, match="invalid excess return"):
        ReturnSeries(("2000-01", "2000-02"), (0.0, -1.0))


def test_return_series_rejects_empty_and_mismatched():
    with pytest.raises(DataError):
        ReturnSeries((), ())
    with pytest.raises(DataError):
        ReturnSeries(("2000-01",), (0.0, 0.1))


def test_slice_months_returns_requested_window():
    s = _series()
    np.testing.assert_array_equal(s.slice_months("2000-02", 2), [-0.02, 0.03])
    np.testing.assert_array_equal(s.slice_months("2000-01", 4), list(s.values))


def test_slice_months_names_first_missing_month():
    s = _series()
    with pytest.raises(InsufficientDataError, match="no data for 2000-05"):
        s.slice_months("2000-04", 2)
    with pytest.raises(InsufficientDataError, match="no data for 1999-12"):
        s.slice_months("1999-12", 2)


def test_subseries_is_a_valid_series_with_same_labels():
    sub = _series().subseries("2000-02", 2)
    assert sub.months == ("2000-02", "2000-03")
    assert sub.values == (-0.02, 0.03)


# ---------------------------------------------------------------------------
# monthly close files
# ---------------------------------------------------------------------------


def _write(tmp_path, text, name="closes.csv"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_load_monthly_csv_computes_excess_returns(tmp_path):
    path = _write(tmp_path, "date,close\n2000-01,100\n2000-02,110\n2000-03,99\n")
    s = load_monthly_csv(path, r_annual=0.12)
    assert s.months == ("2000-02", "2000-03")
    assert s.values[0] == pytest.approx(0.10 - 0.01)
    assert s.values[1] == pytest.approx(99.0 / 110.0 - 1.0 - 0.01)


def test_load_monthly_csv_reports_line_numbers(tmp_path):
    path = _write(tmp_path, "date,close\n2000-01,100\n2000-02,zero\n")
    with pytest.raises(DataError, match=r"closes\.csv:3: bad close"):
        load_monthly_csv(path)
    path = _write(tmp_path, "date,close\n2000-01,100\n2000-02,-3\n")
    with pytest.raises(DataError, match=r":3: close must be positive"):
        load_monthly_csv(path)


def test_load_monthly_csv_rejects_bad_header_and_short_files(tmp_path):
    with pytest.raises(DataError, match="expected header date,close"):
        load_monthly_csv(_write(tmp_path, "month,price\n2000-01,100\n"))
    with pytest.raises(DataError, match="at least two"):
        load_monthly_csv(_write(tmp_path, "date,close\n2000-01,100\n"))


def test_load_monthly_csv_names_nonmonotone_dates(tmp_path):
    path = _write(tmp_path, "date,close\n2000-03,100\n2000-02,101\n")
    with pytest.raises(DataError, match=r"dates not increasing \(2000-03 then 2000-02\)"):
        load_monthly_csv(path)


def test_load_monthly_csv_lists_missing_months(tmp_path):
    path = _write(tmp_path, "date,close\n2000-01,100\n2000-05,101\n")
    with pytest.raises(DataError, match="missing months: 2000-02, 2000-03, 2000-04"):
        load_monthly_csv(path)


def test_bundled_series_loads_and_covers_all_backtest_decades():
    s = load_monthly_csv(bundled_monthly_csv_path(), r_annual=0.02)
    assert s.months[0] == "1990-02"
    assert s.months[-1] == "2022-12"
    for year in range(2004, 2014):
        assert len(s.slice_months(f"{year - 10}-01", 120)) == 120
        assert len(s.slice_months(f"{year}-01", 120)) == 120


# ---------------------------------------------------------------------------
# skew-t sampling
# ---------------------------------------------------------------------------


def test_skewt_core_moments_match_direct_integration():
    # deterministic cross-check of the closed form on a fine t-grid
    from scipy import stats

    nu, slant = 10.0, -1.5
    mean, var = skewt_core_moments(nu, slant)
    delta = slant / math.sqrt(1.0 + slant**2)
    b_nu = math.sqrt(nu / math.pi) * math.exp(
        math.lgamma((nu - 1.0) / 2.0) - math.lgamma(nu / 2.0)
    )
    assert mean == pytest.approx(delta * b_nu, rel=1e-12)
    assert var == pytest.approx(nu / (nu - 2.0) - mean**2, rel=1e-12)
    assert stats.t(nu).var() == pytest.approx(nu / (nu - 2.0), rel=1e-12)


@settings(max_examples=200, deadline=None)
@given(nu=st.floats(2.01, 200.0), slant=st.floats(-5.0, 5.0, allow_subnormal=False))
def test_skewt_core_moments_match_the_gammaln_formula(nu, slant):
    """math.lgamma in place of scipy's gammaln moves the moments by at most
    a few parts in 1e13 on this range.  Subnormal slants are left out: a
    subnormal delta keeps too few bits for the formula itself to meet the
    tolerance."""
    from scipy.special import gammaln

    delta = slant / math.sqrt(1.0 + slant * slant)
    b_nu = math.sqrt(nu / math.pi) * math.exp(gammaln((nu - 1.0) / 2.0) - gammaln(nu / 2.0))
    mean, var = skewt_core_moments(nu, slant)
    assert math.isclose(mean, delta * b_nu, rel_tol=1e-12)
    assert math.isclose(var, nu / (nu - 2.0) - (delta * b_nu) ** 2, rel_tol=1e-12)


def test_skewt_core_is_standardized():
    """Large-sample mean and variance of the core (the skew-t market at
    a = 0, sigma = 1) must sit at 0 and 1."""
    rng = make_rng(11, 0)
    x = sample_path(SkewTIID(0.0, 1.0, 10.0, -1.5), 1_000_000, rng)
    assert abs(x.mean()) < 0.005
    assert abs(x.var() - 1.0) < 0.02


def test_skewt_negative_slant_gives_negative_skew_and_fat_left_tail():
    rng = make_rng(12, 0)
    x = sample_path(SkewTIID(0.0, 1.0, 10.0, -1.5), 200_000, rng)
    skew = np.mean(((x - x.mean()) / x.std()) ** 3)
    assert skew < -0.3
    # left 3-sigma exceedances outnumber right ones
    assert np.sum(x < -3.0) > 2 * np.sum(x > 3.0)


def test_skewt_zero_slant_is_symmetric():
    rng = make_rng(13, 0)
    x = sample_path(SkewTIID(0.0, 1.0, 8.0, 0.0), 400_000, rng)
    skew = np.mean(((x - x.mean()) / x.std()) ** 3)
    assert abs(skew) < 0.05


def test_skewt_requires_nu_above_two():
    with pytest.raises(ValueError):
        skewt_core_moments(2.0, -1.0)
    with pytest.raises(ValueError):
        SkewTIID(0.01, 0.05, 1.5, -1.0)


# ---------------------------------------------------------------------------
# return models and paths
# ---------------------------------------------------------------------------


def test_sample_path_normal_moments():
    model = NormalIID(0.025, 0.05)
    x = sample_path(model, 200_000, make_rng(5, 0))
    assert x.mean() == pytest.approx(0.025, abs=5e-4)
    assert x.std() == pytest.approx(0.05, abs=5e-4)


def test_sample_path_skewt_moments_scaled():
    model = SkewTIID(0.025, 0.0577, 10.0, -1.5)
    x = sample_path(model, 400_000, make_rng(6, 0))
    assert x.mean() == pytest.approx(0.025, abs=5e-4)
    assert x.std() == pytest.approx(0.0577, abs=1e-3)


def test_sample_path_is_reproducible():
    model = SkewTIID(0.02, 0.06, 9.0, -1.0)
    a = sample_path(model, 16, make_rng(9, 3))
    b = sample_path(model, 16, make_rng(9, 3))
    assert np.array_equal(a, b)


def test_historical_random_window_draws_contiguous_windows():
    s = _series(values=tuple(v / 100.0 for v in range(1, 11)))
    model = Historical(s)
    vals = list(s.values)
    rng = make_rng(2, 0)
    for _ in range(25):
        path = sample_path(model, 3, rng)
        start = vals.index(path[0])
        np.testing.assert_array_equal(path, vals[start : start + 3])


def test_historical_rejects_paths_longer_than_series():
    model = Historical(_series())
    with pytest.raises(InsufficientDataError):
        sample_path(model, 5, make_rng(0, 0))


# ---------------------------------------------------------------------------
# wealth step, unit conversion, histograms
# ---------------------------------------------------------------------------


def test_step_wealth_is_the_self_financing_identity():
    assert step_wealth(2.0, 3.0, 0.1, 1.01) == 1.01 * 2.0 + 0.1 * 3.0
    assert step_wealth(1.0, 0.0, -0.5, 1.0) == 1.0


def test_annualize_market_monthly_example():
    a, sigma, r_f = annualize_market(0.30, 0.20, 0.02)
    assert a == pytest.approx(0.025)
    assert sigma == pytest.approx(0.20 / math.sqrt(12.0))
    assert r_f == pytest.approx(1.0 + 0.02 / 12.0)


def test_annualize_market_identity_at_one_period():
    assert annualize_market(0.3, 0.2, 0.02, 1) == (0.3, 0.2, 1.02)


def test_histogram_counts_sum_to_draws():
    data = make_rng(1, 0).standard_normal(10_000)
    counts, edges = histogram(data, 37)
    assert counts.sum() == 10_000
    assert len(edges) == 38
    assert edges[0] == data.min() and edges[-1] == data.max()


def test_histogram_rejects_empty_and_bad_bins():
    with pytest.raises(ValueError):
        histogram([], 10)
    with pytest.raises(ValueError):
        histogram([1.0], 0)
