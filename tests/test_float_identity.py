"""Float identity of the training hot path and of the DP oracle.

The golden digests pin every record of short training runs of both learners
on the three market models, and the rows of one online-test backtest cell.
The normal-market digests were computed with the per-step rollout and the
ndarray samplers that the current code replaced; the discrete learner's
kept its digest until the geometric policy forms below.  The skew-t and
historical digests, and the backtest cell's, were computed again when
training's draws on those markets moved to whole blocks of episodes (one
standard_normal and one chisquare call per skew-t block, one integers and
one standard_normal call per historical block):
each new value is what the loop kernel of reference_kernel.py gives on the
plain numpy draws of reference_draws.py, with the skew-t constant from
math.lgamma.  Every comparator digest but T = 1's was computed again when
its value weights and theta4 took the discrete learner's float order
(e2**(T - t) * dev * dev and T**2, where it had dev * dev * exp(-2 phi2
(T - t)) and T * T): the same numbers but for the last bits, as the loop
kernel gives them in that order.  Every digest but the discrete learner's
at T = 1, the backtest cell's and both train run directories' included,
was computed again when the policy's standard deviations became a
geometric sequence (half / sqrt(2 pi) times powers of exp(phi2), by
multiplication, where each was the root of exp(2 phi2 k + 2 phi1 - 1) /
(2 pi)) and the value weights e2**k were formed once per pass by
multiplication: the same numbers but for the last bits, as the loop kernel
gives them in those forms.  The cases beyond the default short run
on each market (a 12-period skew-t path, whole-episode updates, a 5-period
historical horizon at lam = 0.5 with w refreshed every 7 episodes, and
T = 1) were first computed while each learner ran its own policy, residual
and update functions behind per-learner hooks.  The properties check the identities the samplers rest
on: one vector draw of T normals is T scalar draws, sample_path is the
ndarray arithmetic of the reference sampler, episode_draws gives,
whatever the block size and the number of blocks in a batch of rows, the
values and the final generator state of reference_draws.block_draws on
every market, and a backtest cell's window rows, their normals drawn in one
call, are the per-window draws.

A further digest pins the run directory of `dtmv analytic` at a 60-period
horizon.  It was computed while the oracle's trapezoid cross-check still ran
over whole arrays; that check gates the oracle's values without entering
them, so running it in row blocks, or as a moment series, must not move a
byte.  A second pins the same command on the 201-state grid of the
oracle-fine benchmark workload; it was computed while the check took one exp
per node in row blocks.

Two more pin whole `dtmv train` run directories, one per learner.  They were
computed while the episode log was still written by json.dumps over every
record and one joined text (the comparator's again with its float order); the log is now streamed through one %-template
per record class, which the last tests hold to json.dumps's layout and to a
small memory footprint.
"""

import hashlib
import json
import math
import os
import tracemalloc
from typing import NamedTuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dtmv import evaluation, market
from dtmv.analytic import ProblemSpec
from dtmv.baseline import BaselineRecord, baseline_train
from dtmv.cli import _ndjson_lines, _write_text, main
from dtmv.evaluation import ALGORITHMS, LEARNERS, Cell, RollingSpec, cell_report, rolling_backtest, train_cell
from dtmv.learner import EpisodeRecord, HyperParams, run_episodes, train
from dtmv.market import (
    Historical,
    NormalIID,
    SkewTIID,
    annualize_market,
    bundled_monthly_csv_path,
    episode_draws,
    load_monthly_csv,
    make_rng,
    sample_path,
    skewt_core_moments,
)
from reference_draws import block_draws

SPEC = ProblemSpec(T=3, x0=1.0, b=1.1, lam=2.0)
A, SIGMA, R_F = annualize_market(0.30, 0.20, 0.02)
SERIES = load_monthly_csv(bundled_monthly_csv_path(), 0.02)
MODELS = {
    "normal": NormalIID(A, SIGMA),
    "skewt": SkewTIID(A, SIGMA, 5.0, -1.5),
    "historical": Historical(SERIES.subseries("1995-01", 120)),
}
TRAINERS = {"discrete": train, "continuous": baseline_train}
# (market, hyper) of each training case: the default short run on each
# market, then a skew-t path long enough for the ndarray sampler, whole-episode
# updates, a historical horizon with another lam and refresh period, and T = 1
HISTORY_CASES = {
    "normal": ("normal", HyperParams(spec=SPEC, episodes=300)),
    "skewt": ("skewt", HyperParams(spec=SPEC, episodes=300)),
    "historical": ("historical", HyperParams(spec=SPEC, episodes=300)),
    "skewt-T12": ("skewt", HyperParams(spec=SPEC._replace(T=12), episodes=300)),
    "normal-whole": ("normal", HyperParams(spec=SPEC, episodes=300, prefix_updates=False)),
    "historical-T5": (
        "historical",
        HyperParams(spec=SPEC._replace(T=5, lam=0.5), episodes=300, refresh_every=7),
    ),
    "normal-T1": ("normal", HyperParams(spec=SPEC._replace(T=1), episodes=300)),
}

GOLDEN_HISTORIES = {
    ("normal", "discrete"): "8920d9caa78c727a78f1775e667a7a033f93dbe84d5fc7bf28a6ff60065639d1",
    ("normal", "continuous"): "58527215f387b5d3af21ed6f8e9180ea613080410e8cb4295eefb1004a75c9dc",
    ("skewt", "discrete"): "ff9c868ebf5b149899ec4a47447f9c7300a67b6910e9a9811f788e542e639f28",
    ("skewt", "continuous"): "7ed0f758081b904c0ce64df943e6d872404f7a8b77823640a5cadf67200007dd",
    ("historical", "discrete"): "8539ddb3d85b2addb770558de94e4c773ef68be0dc5f972b05c964e8424bdcaa",
    ("historical", "continuous"): "661e6fe5c21dc059aeae69a122c3884a406331febbb4b0a4d87410641770d2af",
    ("skewt-T12", "discrete"): "6b79fffb1b139b884981d68820191e7065835fb0d56585d5f680afcb330b5438",
    ("skewt-T12", "continuous"): "8b861ac6132ae19c61b8aa4440b4b56e0210f8660a04ade6ec20df5810898c3d",
    ("normal-whole", "discrete"): "d085ffc6a2ca12333c74e232f9c50e85954a7857f0328e1a5ba67c2fc2e81df9",
    ("normal-whole", "continuous"): "aed3676fb26f9ff43a144bed23fd2f58f33fa058cbf92b530a83982a36cbd22b",
    ("historical-T5", "discrete"): "eae4463cd0832a6db5bf0283f47712a6eec2a40f7d7a5178798b93e1c90f1a22",
    ("historical-T5", "continuous"): "b018c4a9a616534ab6cf6b4fa1d6a75ee99d5c002a43320b47ad6ba2694a199d",
    ("normal-T1", "discrete"): "a0b249e5652491c7871a0cbf74501fb554abe0c73fe90dc116a719d8830df29f",
    ("normal-T1", "continuous"): "29927b36a8c5f2ecdf2150e66f9ee1e74a0f8cee23541483fcf394e0758c35f5",
}
GOLDEN_ONLINE_BACKTEST = "75ef3aa0c7614c7240397651c5eb0da1bea3b9ab64441aa735987e42f0cd1742"
GOLDEN_ANALYTIC_RUN = "3221e3b055ad995651995cc68fa37c5d0c43bb8cc147a5dafea973d486d3a2f5"
GOLDEN_ANALYTIC_RUN_201 = "46ed7b93ff9436f824ee295a28950405bacff009562a9e710b5b374a251285ff"
GOLDEN_TRAIN_RUNS = {
    "emv-discrete": "5341b0415820dfc6c602915faa2f5cd675502a704b3799e9fbaa5e83aad37662",
    "emv-continuous": "62c047864bdd05aa8976f85ee5934277cedb28f787dd31a142efca363e74352b",
}
RECORDS = (EpisodeRecord, BaselineRecord)


def _digest(rows) -> str:
    return hashlib.sha256(repr([tuple(r) for r in rows]).encode()).hexdigest()


@pytest.mark.parametrize("case, learner", sorted(GOLDEN_HISTORIES))
def test_training_history_matches_its_golden_digest(case, learner):
    market, hyper = HISTORY_CASES[case]
    result = TRAINERS[learner](hyper, MODELS[market], R_F, make_rng(7, 1))
    assert _digest(result.history) == GOLDEN_HISTORIES[(case, learner)]


def test_online_backtest_cell_matches_its_golden_digest():
    rolling = RollingSpec(test_years=(2006,), targets=(1.05,), online_test=True)
    rows = rolling_backtest(SERIES, rolling, HyperParams(spec=SPEC, episodes=300), R_F, seed=4)
    assert _digest(map(tuple, rows)) == GOLDEN_ONLINE_BACKTEST


def _run_digest(tmp_path, capsys, command, config) -> str:
    """sha256 over the names and bytes of the run directory of one command."""
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(config)
    out = tmp_path / "run"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 0, capsys.readouterr().err
    digest = hashlib.sha256()
    for name in sorted(os.listdir(out)):
        digest.update(name.encode() + b"\0" + (out / name).read_bytes())
    return digest.hexdigest()


def test_analytic_run_directory_matches_its_golden_digest(tmp_path, capsys):
    config = "[problem]\nhorizon = 60\n\n[grid]\nx_points = 21\n"
    assert _run_digest(tmp_path, capsys, "analytic", config) == GOLDEN_ANALYTIC_RUN


def test_analytic_run_directory_at_the_benchmark_grid_matches_its_golden_digest(tmp_path, capsys):
    """The oracle-fine workload's config: 61 layers of 201 states."""
    config = "[problem]\nhorizon = 60\n\n[grid]\nx_points = 201\n"
    assert _run_digest(tmp_path, capsys, "analytic", config) == GOLDEN_ANALYTIC_RUN_201


@pytest.mark.parametrize("algorithm", sorted(GOLDEN_TRAIN_RUNS))
def test_train_run_directory_matches_its_golden_digest(tmp_path, capsys, algorithm):
    """log.ndjson, checkpoint, report.csv, summary.txt and config.effective of
    a 300-episode run on the normal market."""
    config = (
        "[market]\nmodel = normal\n\n[learning]\n"
        f"algorithm = {algorithm}\nepisodes = 300\n\n[evaluation]\ntest_episodes = 100\n"
    )
    assert _run_digest(tmp_path, capsys, "train", config) == GOLDEN_TRAIN_RUNS[algorithm]


_LOGGED_FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e300, -1e300, 1e16, 0.1]),
)


@settings(max_examples=300, deadline=None)
@given(cls=st.sampled_from(RECORDS), data=st.data())
def test_log_line_is_the_json_dumps_line(cls, data):
    """The template line of any record of finite values is the line json.dumps
    writes with sorted keys, for both record classes."""
    episode = data.draw(st.integers(-(2**70), 2**70))
    rec = cls(episode, *(data.draw(_LOGGED_FLOATS) for _ in cls._fields[1:]))
    (line,) = _ndjson_lines(cls, [[x] for x in rec])
    assert line == json.dumps(rec._asdict(), sort_keys=True) + "\n"
    assert json.loads(line) == rec._asdict()


# columns of long runs of one value, or of 0.0 and -0.0 in any order: the w column's text is
# formed once per run of equal values, and 0.0 == -0.0 must not share it
_RUN_COLUMNS = st.one_of(
    st.lists(st.tuples(_LOGGED_FLOATS, st.integers(1, 60)), min_size=1, max_size=6).map(
        lambda runs: [x for x, length in runs for _ in range(length)]),
    st.lists(st.sampled_from([0.0, -0.0]), min_size=1, max_size=60),
)


@settings(max_examples=300, deadline=None)
@given(cls=st.sampled_from(RECORDS), data=st.data())
def test_log_lines_of_repeating_columns_are_the_json_dumps_lines(cls, data):
    """Over columns of long runs and of signed-zero alternations, the writer
    yields lazily, one line a record, each the line json.dumps writes with
    sorted keys."""
    floats = [data.draw(_RUN_COLUMNS) for _ in cls._fields[1:]]
    n = min(map(len, floats))
    columns = [range(1, n + 1), *(column[:n] for column in floats)]
    lines = _ndjson_lines(cls, columns)
    assert iter(lines) is lines
    assert list(lines) == [json.dumps(cls(*row)._asdict(), sort_keys=True) + "\n" for row in zip(*columns)]


class _Probe:
    """Renders differently under repr and str."""

    def __repr__(self) -> str:
        return "R"

    def __str__(self) -> str:
        return "S"


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_log_template_writes_every_field_by_repr_in_sorted_key_order(cls):
    names = sorted(cls._fields)
    (line,) = _ndjson_lines(cls, [[_Probe()]] * len(names))
    assert line == "{" + ", ".join(f'"{name}": R' for name in names) + "}\n"


def test_log_template_rejects_fields_json_would_not_write_by_repr():
    class Flagged(NamedTuple):
        episode: int
        diverged: bool

    with pytest.raises(TypeError, match="int and float"):
        _ndjson_lines(Flagged, [])


def test_log_is_written_without_holding_the_file_in_memory(tmp_path):
    """Streaming the columns of 20,000 records holds a few lines at a time:
    the traced peak of the write stays below a fiftieth of the bytes it
    writes."""
    records = [EpisodeRecord(k, 1.1 + k * 1e-7, 0.99, -1e-5, 3e-4, -0.1, 1.0, 0.2, 1.25 + 1e-9 * k)
               for k in range(1, 20001)]
    path, columns = tmp_path / "log.ndjson", list(zip(*records))
    tracemalloc.start()
    try:
        _write_text(str(path), _ndjson_lines(EpisodeRecord, columns))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    assert size > 3_000_000
    assert peak < size / 50, (peak, size)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), T=st.integers(1, 12))
def test_one_vector_draw_equals_scalar_draws(seed, T):
    one, many = make_rng(seed), make_rng(seed)
    vector = one.standard_normal(T).tolist()
    scalars = [many.standard_normal() for _ in range(T)]
    assert vector == scalars
    assert one.bit_generator.state == many.bit_generator.state


def _ndarray_sample_path(model, T, rng):
    """sample_path as whole-array numpy arithmetic."""
    if isinstance(model, NormalIID):
        return model.a + model.sigma * rng.standard_normal(T)
    if isinstance(model, SkewTIID):
        nu, slant = model.nu, model.slant
        delta = slant / math.sqrt(1.0 + slant * slant)
        z0 = rng.standard_normal(T)
        z1 = rng.standard_normal(T)
        skew_normal = delta * np.abs(z0) + math.sqrt(1.0 - delta * delta) * z1
        chi2 = rng.chisquare(nu, size=T)
        t = skew_normal / np.sqrt(chi2 / nu)
        mean, var = skewt_core_moments(nu, slant)
        return model.a + model.sigma * ((t - mean) / math.sqrt(var))
    vals = np.asarray(model.series.values, dtype=float)
    start = int(rng.integers(0, len(vals) - T + 1))
    return vals[start : start + T].copy()


_MODELS = st.one_of(
    st.builds(NormalIID, st.floats(-0.05, 0.05), st.floats(0.001, 0.3)),
    st.builds(
        SkewTIID,
        st.floats(-0.05, 0.05),
        st.floats(0.001, 0.3),
        st.floats(2.05, 200.0),
        st.floats(-5.0, 5.0),
    ),
    st.just(MODELS["historical"]),
)


@settings(max_examples=300, deadline=None)
@given(model=_MODELS, seed=st.integers(0, 2**32 - 1), T=st.integers(1, 12))
def test_sample_path_equals_the_ndarray_computation(model, seed, T):
    fast, reference = make_rng(seed), make_rng(seed)
    got = sample_path(model, T, fast)
    want = _ndarray_sample_path(model, T, reference)
    assert isinstance(got, np.ndarray) and got.dtype == np.float64 and got.shape == (T,)
    assert got.tolist() == want.tolist()
    assert fast.bit_generator.state == reference.bit_generator.state


@settings(max_examples=300, deadline=None)
@given(
    model=_MODELS,
    seed=st.integers(0, 2**32 - 1),
    T=st.integers(1, 12),
    episodes=st.integers(0, 150),
    block=st.sampled_from([1, 2, 7, 64]),
    batch=st.sampled_from([1, 3, 8]),
)
def test_episode_draws_equal_the_plain_numpy_block_schedule(model, seed, T, episodes, block, batch):
    """Training's draws are, block by block, the plain numpy calls of
    reference_draws.block_draws on every market: the same rows and the
    same final generator state, whatever the block size and however many
    blocks make a batch of rows, a last batch that ends mid-run included."""
    fast, reference = make_rng(seed), make_rng(seed)
    with mock.patch.object(market, "_DRAW_BLOCK", block), mock.patch.object(market, "_DRAW_BATCH", batch):
        got = list(episode_draws(model, T, fast, episodes))
    assert got == block_draws(model, T, reference, episodes, block)
    assert fast.bit_generator.state == reference.bit_generator.state


@settings(max_examples=60, deadline=None)
@given(
    algorithm=st.sampled_from(ALGORITHMS),
    online_test=st.booleans(),
    h=st.integers(1, 6),
    windows=st.integers(2, 20),
    spare=st.integers(0, 5),
    episodes=st.integers(1, 40),
    seed=st.integers(0, 2**32 - 1),
)
def test_backtest_window_rows_equal_the_per_window_draws(algorithm, online_test, h, windows, spare,
                                                        episodes, seed):
    """A backtest cell tests on one row per window, the window's h returns
    and then its h policy normals, all normals drawn in one
    standard_normal((n, h)) call: the same rows, and the same generator
    state after them, as the per-window draws (each window a slice of the
    test values, then one standard_normal(h) call), so the same report,
    frozen or learning on the windows.  Test values beyond the last whole
    window are left out."""
    cell = Cell("cell", MODELS["historical"], R_F, HyperParams(SPEC._replace(T=h), episodes=episodes),
                algorithm, seed, 0)
    test_values = SERIES.slice_months("2005-01", windows * h + spare % h)
    seen = {}

    def trained(*args, **kwargs):
        result, seen["rng"] = train_cell(*args, **kwargs)
        return result, seen["rng"]

    def tested(learner, hyper, r_f, draws, *args, **kwargs):
        seen["rows"] = list(draws)
        return run_episodes(learner, hyper, r_f, seen["rows"], *args, **kwargs)

    with mock.patch.object(evaluation, "train_cell", trained), \
            mock.patch.object(evaluation, "run_episodes", tested):
        report = evaluation._backtest_cell(online_test, (cell, test_values))
    result, rng = train_cell(cell, records=False)
    rows = [test_values[j * h : (j + 1) * h].tolist() + rng.standard_normal(h).tolist()
            for j in range(windows)]
    assert seen["rows"] == rows
    assert seen["rng"].bit_generator.state == rng.bit_generator.state
    want = run_episodes(LEARNERS[algorithm], cell.hyper, R_F, rows, result.params, online_test, records=False)
    assert report == cell_report(cell, want.history)
