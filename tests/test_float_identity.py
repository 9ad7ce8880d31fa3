"""Float identity of the training hot path and of the DP oracle.

The golden digests pin every record of short training runs of both learners
on the three market models, and the rows of one online-test backtest cell.
The normal-market digests were computed with the per-step rollout and the
ndarray samplers that the current code replaced, and the discrete learner's
must not move.  The skew-t and historical digests, and the backtest cell's,
were computed again when training's draws on those markets moved to whole
blocks of episodes (one standard_normal and one chisquare call per skew-t
block, one integers and one standard_normal call per historical block):
each new value is what the loop kernel of reference_kernel.py gives on the
plain numpy draws of reference_draws.py, with the skew-t constant from
math.lgamma.  Every comparator digest but T = 1's was computed again when
its value weights and theta4 took the discrete learner's float order
(e2**(T - t) * dev * dev and T**2, where it had dev * dev * exp(-2 phi2
(T - t)) and T * T): the same numbers but for the last bits, as the loop
kernel gives them in that order.  The cases beyond the default short run
on each market (a 12-period skew-t path, whole-episode updates, a 5-period
historical horizon at lam = 0.5 with w refreshed every 7 episodes, and
T = 1) were first computed while each learner ran its own policy, residual
and update functions behind per-learner hooks.  The properties check the identities the samplers rest
on: one vector draw of T normals is T scalar draws, sample_path is the
ndarray arithmetic of the reference sampler, and episode_draws gives,
whatever the block size, the values and the final generator state of
reference_draws.block_draws on every market.

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

from dtmv import market
from dtmv.analytic import ProblemSpec
from dtmv.baseline import BaselineRecord, baseline_train
from dtmv.cli import _ndjson_lines, _write_text, main
from dtmv.evaluation import RollingSpec, rolling_backtest
from dtmv.learner import EpisodeRecord, HyperParams, train
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
    ("normal", "discrete"): "b585fcf95f595ace9e1cdf5a6530acb8f30d99ce84d737161b76ad7069e38306",
    ("normal", "continuous"): "ad3bca1134f2fbd360c1b39bd2b645b1ee011c14ab41dba4de7400de26e50b4b",
    ("skewt", "discrete"): "c12c8b00f26501124a94dabae233afaa0c8e186f13479d97386035f0fa019c6d",
    ("skewt", "continuous"): "fcb7892f702fdc3f1c508faf7dcc6e085389897ce10efab2d03113eebff6bbec",
    ("historical", "discrete"): "9d72eebdeec82f2fe2540759e96d652ac0287d01957d3882c15b9010c3649f36",
    ("historical", "continuous"): "1178335d81eb559a05d8d3019e76b9bd0ee1f615fb97bbc97705992d64211d9f",
    ("skewt-T12", "discrete"): "42a1be250cf5e113daf4ad18997965d0aab1a178a6799b46fbbb377b49675d63",
    ("skewt-T12", "continuous"): "3dc18abd4a81f99f850824023edfe41b0dd38d0394e6da8bca5c630c5e343faa",
    ("normal-whole", "discrete"): "e540a135fe0e9aac25351f5894576cf16340866ef7cffddcd51b762a04f4b676",
    ("normal-whole", "continuous"): "05bce79f8db61bef6ac039764d3e9001878ac892ffb0813d7a4f5ca10ae33a4e",
    ("historical-T5", "discrete"): "45ee47612ced40f7783a07e5838d9bb16bcf1ec64f2f88da474db18af268ac0e",
    ("historical-T5", "continuous"): "12921299efe21b8a9b5dc7bfd212f9a4748b6da4853eedde22541629f22f68f6",
    ("normal-T1", "discrete"): "a0b249e5652491c7871a0cbf74501fb554abe0c73fe90dc116a719d8830df29f",
    ("normal-T1", "continuous"): "fd53dd241946060ae2b9c8cd5685c11e2c955ce001170eb9d515f49aee106951",
}
GOLDEN_ONLINE_BACKTEST = "b9d242a3ae4f95c7b824253dfea01a0002043a2c2d41955a09498b26c5493401"
GOLDEN_ANALYTIC_RUN = "3221e3b055ad995651995cc68fa37c5d0c43bb8cc147a5dafea973d486d3a2f5"
GOLDEN_ANALYTIC_RUN_201 = "46ed7b93ff9436f824ee295a28950405bacff009562a9e710b5b374a251285ff"
GOLDEN_TRAIN_RUNS = {
    "emv-discrete": "683acc352a22ca8693cd2df6f17998a34bf62b85506ecd2ee1521d2672accaba",
    "emv-continuous": "34bbc517beea7c001fb05a9335784fbde15582a06998ea659a975f39502f26f3",
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
)
def test_episode_draws_equal_the_plain_numpy_block_schedule(model, seed, T, episodes, block):
    """Training's draws are, block by block, the plain numpy calls of
    reference_draws.block_draws on every market: the same values and the
    same final generator state, whatever the block size."""
    fast, reference = make_rng(seed), make_rng(seed)
    with mock.patch.object(market, "_DRAW_BLOCK", block):
        got = list(episode_draws(model, T, fast, episodes))
    assert got == block_draws(model, T, reference, episodes, block)
    assert fast.bit_generator.state == reference.bit_generator.state
