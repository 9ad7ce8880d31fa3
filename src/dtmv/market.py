"""Market models and monthly return sampling.

Excess returns here are per-period (monthly) and arithmetic.  Wealth follows
the self-financing recursion x' = r_f * x + r * u where u is the amount held
in the risky asset and r is its excess return over the period.
"""

from __future__ import annotations

import csv
import importlib.resources
import math
import re
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from typing import NamedTuple, Tuple, Union

import numpy as np
import numpy.random  # noqa: F401  (numpy loads it lazily; load it at import, not in make_rng)

# Recorded in effective configs so runs are reproducible across machines.
RNG_ALGORITHM = "pcg64"

_MONTH_RE = re.compile(r"^(\d{4})-(\d{2})$")


class DataError(ValueError):
    """Malformed or inconsistent market data."""


class InsufficientDataError(ValueError):
    """A return series is too short for the requested window."""


# ---------------------------------------------------------------------------
# deterministic RNG streams
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RngStream:
    """Handle for a named deterministic random stream.

    Distinct (seed, stream) pairs yield statistically independent PCG64
    generators; equal pairs yield bitwise-identical draw sequences.
    """

    seed: int
    stream: int = 0

    def __post_init__(self) -> None:
        if self.seed < 0 or self.stream < 0:
            raise ValueError("seed and stream must be nonnegative")

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream,))
        return np.random.Generator(np.random.PCG64(ss))


def make_rng(seed: int, stream: int = 0) -> np.random.Generator:
    return RngStream(seed, stream).generator()


# ---------------------------------------------------------------------------
# month arithmetic
# ---------------------------------------------------------------------------


def month_index(label: str) -> int:
    """Map a 'YYYY-MM' label to a monotone integer index."""
    m = _MONTH_RE.match(label)
    if not m:
        raise DataError(f"bad month label {label!r}, expected YYYY-MM")
    year, month = int(m.group(1)), int(m.group(2))
    if not 1 <= month <= 12:
        raise DataError(f"bad month label {label!r}, month out of range")
    return year * 12 + (month - 1)


def month_label(index: int) -> str:
    year, month = divmod(index, 12)
    return f"{year:04d}-{month + 1:02d}"


# ---------------------------------------------------------------------------
# return series
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ReturnSeries:
    """Consecutive monthly excess returns.

    Each value is labeled by the month at whose end it is realized, so a
    close series covering 1990-01 .. 2022-12 yields returns labeled
    1990-02 .. 2022-12.
    """

    months: Tuple[str, ...]
    values: Tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.months) != len(self.values):
            raise DataError("months and values differ in length")
        if not self.months:
            raise DataError("empty return series")
        idx = [month_index(m) for m in self.months]
        for prev, cur, label in zip(idx, idx[1:], self.months[1:]):
            if cur != prev + 1:
                raise DataError(f"months not consecutive at {label}")
        for m, v in zip(self.months, self.values):
            if not math.isfinite(v) or v <= -1.0:
                raise DataError(f"invalid excess return {v!r} at {m}")

    def __len__(self) -> int:
        return len(self.values)

    def slice_months(self, start: str, n_months: int) -> np.ndarray:
        """Return n_months consecutive values starting at label `start`.

        Raises InsufficientDataError naming the first missing month.
        """
        if n_months < 1:
            raise ValueError("n_months must be >= 1")
        first = month_index(self.months[0])
        s = month_index(start)
        for k in range(n_months):
            if not first <= s + k <= first + len(self) - 1:
                raise InsufficientDataError(
                    f"series has no data for {month_label(s + k)}"
                )
        lo = s - first
        return np.asarray(self.values[lo : lo + n_months], dtype=float)

    def subseries(self, start: str, n_months: int) -> "ReturnSeries":
        """The contiguous sub-series of n_months starting at label `start`."""
        self.slice_months(start, n_months)  # availability check
        lo = month_index(start) - month_index(self.months[0])
        return ReturnSeries(
            self.months[lo : lo + n_months], self.values[lo : lo + n_months]
        )


def load_monthly_csv(path: str, r_annual: float = 0.0) -> ReturnSeries:
    """Build a ReturnSeries from a monthly close-price CSV.

    The file must have a `date,close` header, YYYY-MM dates in strictly
    increasing order with no missing months, and positive closes.  Excess
    returns are close-to-close simple returns minus the per-month riskless
    rate r_annual / 12.

    Args:
        path: CSV file path.
        r_annual: annual riskless rate subtracted (after division by 12)
            from each monthly return.

    Returns:
        ReturnSeries with one point per consecutive close pair.
    """
    rows = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [c.strip() for c in header] != ["date", "close"]:
            raise DataError(f"{path}: expected header date,close")
        for lineno, row in enumerate(reader, start=2):
            if len(row) != 2:
                raise DataError(f"{path}:{lineno}: expected 2 fields, got {len(row)}")
            label = row[0].strip()
            try:
                idx = month_index(label)
            except DataError as exc:
                raise DataError(f"{path}:{lineno}: {exc}") from exc
            try:
                close = float(row[1])
            except ValueError as exc:
                raise DataError(f"{path}:{lineno}: bad close {row[1]!r}") from exc
            if not math.isfinite(close) or close <= 0.0:
                raise DataError(f"{path}:{lineno}: close must be positive, got {row[1]}")
            rows.append((lineno, label, idx, close))

    if len(rows) < 2:
        raise DataError(f"{path}: need at least two monthly closes")

    for (ln_a, lab_a, ia, _), (ln_b, lab_b, ib, _) in zip(rows, rows[1:]):
        if ib <= ia:
            raise DataError(
                f"{path}:{ln_b}: dates not increasing ({lab_a} then {lab_b})"
            )
    missing = []
    for (_, _, ia, _), (_, _, ib, _) in zip(rows, rows[1:]):
        missing.extend(month_label(k) for k in range(ia + 1, ib))
    if missing:
        raise DataError(f"{path}: missing months: {', '.join(missing)}")

    r_month = r_annual / 12.0
    months, values = [], []
    for (_, _, _, c0), (lineno, label, _, c1) in zip(rows, rows[1:]):
        r = c1 / c0 - 1.0 - r_month
        if r <= -1.0:
            raise DataError(f"{path}:{lineno}: excess return {r} <= -1 at {label}")
        months.append(label)
        values.append(r)
    return ReturnSeries(tuple(months), tuple(values))


def bundled_monthly_csv_path() -> str:
    """Path to the synthetic monthly index bundled with the package.

    396 month-end closes (1990-01 through 2022-12), generated once from a
    fixed seed and shipped as data so backtests run without external files.
    """
    ref = importlib.resources.files("dtmv").joinpath("data/synthetic_index_monthly.csv")
    return str(ref)


# ---------------------------------------------------------------------------
# return models
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NormalIID:
    """IID normal excess returns with per-period mean a and volatility sigma."""

    a: float
    sigma: float

    def __post_init__(self) -> None:
        if self.sigma <= 0.0:
            raise ValueError("sigma must be positive")


@dataclass(frozen=True)
class SkewTIID:
    """IID standardized skew-t excess returns, rescaled to mean a and sd sigma.

    The core draw is an Azzalini skew-t with nu degrees of freedom and the
    given slant, shifted and scaled to zero mean and unit variance (nu > 2
    required so the variance exists).
    """

    a: float
    sigma: float
    nu: float
    slant: float

    def __post_init__(self) -> None:
        if self.sigma <= 0.0:
            raise ValueError("sigma must be positive")
        if self.nu <= 2.0:
            raise ValueError("nu must exceed 2 for a finite variance")


class Historical(NamedTuple):
    """Draws T-month windows from a recorded return series: each call picks
    a uniformly random contiguous window."""

    series: ReturnSeries


ReturnModel = Union[NormalIID, SkewTIID, Historical]


def skewt_core_moments(nu: float, slant: float) -> Tuple[float, float]:
    """Mean and variance of the unit-scale Azzalini skew-t with df nu."""
    if nu <= 2.0:
        raise ValueError("nu must exceed 2")
    delta = slant / math.sqrt(1.0 + slant * slant)
    # E|T_nu-component|-style factor; the log-gamma difference keeps large nu finite
    b_nu = math.sqrt(nu / math.pi) * math.exp(math.lgamma((nu - 1.0) / 2.0) - math.lgamma(nu / 2.0))
    mean = delta * b_nu
    var = nu / (nu - 2.0) - mean * mean
    return mean, var


@lru_cache(maxsize=None)
def _skewt_constants(nu: float, slant: float) -> Tuple[float, float, float, float]:
    """(delta, sqrt(1 - delta^2), mean, sd) of the Azzalini construction with
    df nu and the given slant, computed once per (nu, slant)."""
    delta = slant / math.sqrt(1.0 + slant * slant)
    mean, var = skewt_core_moments(nu, slant)
    return delta, math.sqrt(1.0 - delta * delta), mean, math.sqrt(var)


def _skewt_core(nu: float, slant: float, z0, z1, chi2) -> np.ndarray:
    """Standardized skew-t variates of equal-shape arrays of two standard
    normals and chi-square(nu) draws (the Azzalini construction): the
    skew-normal delta |z0| + sqrt(1 - delta^2) z1 over sqrt(chi2 / nu),
    shifted and scaled by the closed-form mean and variance."""
    delta, delta_c, mean, sd = _skewt_constants(nu, slant)
    return ((delta * np.abs(z0) + delta_c * z1) / np.sqrt(chi2 / nu) - mean) / sd


def sample_path(model: ReturnModel, T: int, rng: np.random.Generator) -> np.ndarray:
    """Sample T consecutive per-period excess returns from a return model."""
    if T < 1:
        raise ValueError("T must be >= 1")
    if isinstance(model, NormalIID):
        return model.a + model.sigma * rng.standard_normal(T)
    if isinstance(model, SkewTIID):
        nu, normal = model.nu, rng.standard_normal
        core = _skewt_core(nu, model.slant, normal(T), normal(T), rng.chisquare(nu, size=T))
        return model.a + model.sigma * core
    if isinstance(model, Historical):
        values = model.series.values
        n = len(values)
        if n < T:
            raise InsufficientDataError(f"series of {n} months cannot supply {T}")
        start = int(rng.integers(0, n - T + 1))
        return np.array(values[start : start + T], dtype=float)
    raise TypeError(f"unknown return model {type(model).__name__}")


# episode_draws' episodes per block of generator calls, and blocks per batch of rows
_DRAW_BLOCK = 64
_DRAW_BATCH = 4


def episode_draws(model: ReturnModel, T: int, rng: np.random.Generator, episodes: int):
    """An iterator over each episode's draws as one row, a list of 2T
    floats: its T excess returns, then its T policy normals.  The generator
    calls are made per block of n = _DRAW_BLOCK episodes (fewer in the
    last): on the normal market standard_normal((n, 2, T)), rows [returns,
    policy normals]; on the skew-t market standard_normal((n, 3, T)), rows
    [z0, z1 of _skewt_core, policy normals], then chisquare(nu, (n, T)); on
    the historical market integers(0, len - T + 1, n) window starts, then
    standard_normal((n, T)).  The returns and the rows are formed for a
    batch of _DRAW_BATCH blocks at a time, so the generator has drawn a
    whole batch, up to _DRAW_BLOCK * _DRAW_BATCH episodes, before its first
    row is taken, and only on the normal market are an episode's draws
    those of sample_path then standard_normal(T)."""
    if T < 1:
        raise ValueError("T must be >= 1")
    values = None
    if isinstance(model, Historical):
        values = np.asarray(model.series.values, dtype=float)
        if values.size < T:
            raise InsufficientDataError(f"series of {values.size} months cannot supply {T}")
    elif not isinstance(model, (NormalIID, SkewTIID)):
        raise TypeError(f"unknown return model {type(model).__name__}")
    sizes = [min(_DRAW_BLOCK, episodes - done) for done in range(0, episodes, _DRAW_BLOCK)]  # per block
    return chain.from_iterable(_batch_rows(model, T, rng, values, sizes[k : k + _DRAW_BATCH]).tolist()
                               for k in range(0, len(sizes), _DRAW_BATCH))


def _batch_rows(model: ReturnModel, T: int, rng: np.random.Generator, values, ns) -> np.ndarray:
    """episode_draws' rows of a batch of blocks of ns[0], ns[1], ... episodes (values: the
    historical series), as an array: its temporaries are freed before the rows become floats."""
    normal = rng.standard_normal
    if isinstance(model, NormalIID):
        draws = np.concatenate([normal((n, 2, T)) for n in ns])
        rets, z = model.a + model.sigma * draws[:, 0], draws[:, 1]
    elif isinstance(model, SkewTIID):
        draws, chi2 = map(np.concatenate, zip(*[(normal((n, 3, T)), rng.chisquare(model.nu, (n, T)))
                                                for n in ns]))
        core = _skewt_core(model.nu, model.slant, draws[:, 0], draws[:, 1], chi2)
        rets, z = model.a + model.sigma * core, draws[:, 2]
    else:
        starts, z = map(np.concatenate, zip(*[(rng.integers(0, values.size - T + 1, n), normal((n, T)))
                                              for n in ns]))
        rets = values[starts[:, None] + np.arange(T)]
    return np.concatenate((rets, z), axis=1)


# ---------------------------------------------------------------------------
# wealth dynamics and unit conversions
# ---------------------------------------------------------------------------


def step_wealth(x: float, u: float, r: float, r_f: float) -> float:
    """One self-financing step: new wealth r_f * x + r * u."""
    return r_f * x + r * u


def annualize_market(
    a_annual: float, sigma_annual: float, r_annual: float, periods_per_year: int = 12
) -> Tuple[float, float, float]:
    """Convert annual (mean excess, volatility, riskless rate) to per-period.

    Means scale with 1/periods, volatility with 1/sqrt(periods), and the
    gross riskless factor is 1 + r_annual / periods.
    """
    if periods_per_year < 1:
        raise ValueError("periods_per_year must be >= 1")
    p = float(periods_per_year)
    return a_annual / p, sigma_annual / math.sqrt(p), 1.0 + r_annual / p


def histogram(data, bins: int) -> Tuple[np.ndarray, np.ndarray]:
    """Equal-width histogram over [min(data), max(data)].

    Returns (counts, edges) with len(edges) == bins + 1 and counts summing
    to len(data); the final bin is closed on the right.
    """
    arr = np.asarray(data, dtype=float)
    if arr.size == 0:
        raise ValueError("histogram needs at least one observation")
    if bins < 1:
        raise ValueError("bins must be >= 1")
    counts, edges = np.histogram(arr, bins=bins, range=(arr.min(), arr.max()))
    return counts, edges
