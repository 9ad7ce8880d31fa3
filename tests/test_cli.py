"""End-to-end tests of the command line interface."""

import ast
import csv
import importlib
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dtmv import cli
from dtmv.cli import (
    ConfigError,
    EvaluationConfig,
    FamilyConfig,
    GridConfig,
    LearningConfig,
    MarketConfig,
    ProblemConfig,
    RunConfig,
    RunControl,
    build_model,
    effective_config_text,
    hyper_params,
    load_config,
    main,
    problem_spec,
    rolling_spec,
    validate_config,
)
from dtmv.baseline import BaselineRecord
from dtmv.evaluation import LEARNERS, PerformanceReport
from dtmv.learner import EpisodeRecord, check_cold_start
from dtmv.market import bundled_monthly_csv_path, make_rng, sample_path

TINY = """
[learning]
episodes = 200

[evaluation]
test_episodes = 100
seeds = 1, 2
sigma_grid_annual = 0.2
histogram_draws = 4000
backtest_start_years = 2004, 2005
backtest_targets = 1.03, 1.05
"""


def _cfg_file(tmp_path, text=TINY, name="cfg.ini"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def _read_csv(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


def _run(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


def test_defaults_load_without_a_file():
    cfg = load_config(None)
    assert cfg == RunConfig()
    assert cfg.market.model == "skewt"
    assert cfg.problem.horizon == 3
    assert cfg.learning.episodes == 15000
    assert cfg.evaluation.sigma_grid_annual == (0.1, 0.2, 0.3)
    assert cfg.run.rng_algorithm == "pcg64"


def test_partial_file_overrides_only_named_keys(tmp_path):
    cfg = load_config(_cfg_file(tmp_path))
    assert cfg.learning.episodes == 200
    assert cfg.learning.alpha == 0.05  # untouched default
    assert cfg.evaluation.seeds == (1, 2)
    assert cfg.evaluation.sigma_grid_annual == (0.2,)


def test_effective_text_round_trips_to_the_identical_config(tmp_path):
    cfg = load_config(_cfg_file(tmp_path))
    text = effective_config_text(cfg)
    p = tmp_path / "effective.ini"
    p.write_text(text)
    again = load_config(str(p))
    assert again == cfg
    assert effective_config_text(again) == text


def test_unknown_sections_and_keys_are_rejected(tmp_path):
    with pytest.raises(ConfigError, match=r"unknown section \[portfolio\]"):
        load_config(_cfg_file(tmp_path, "[portfolio]\nx = 1\n"))
    with pytest.raises(ConfigError, match="unknown key market.volatility"):
        load_config(_cfg_file(tmp_path, "[market]\nvolatility = 0.2\n"))


@pytest.mark.parametrize("text", ["", "[problem]\n"], ids=["alone", "with-its-section"])
def test_a_key_under_default_is_rejected_before_any_output(tmp_path, capsys, text):
    """configparser copies a [DEFAULT] key into each section the file has, so
    horizon = 5 there set problem.horizon only beside a [problem] section;
    either way it is a config error that names [DEFAULT], and no file is
    written.  An empty [DEFAULT] sets nothing and passes."""
    assert load_config(_cfg_file(tmp_path, "[DEFAULT]\n" + text)) == load_config(None)
    bad = _cfg_file(tmp_path, "[DEFAULT]\nhorizon = 5\n" + text)
    with pytest.raises(ConfigError, match=r"unknown section \[DEFAULT\]"):
        load_config(bad)
    out = tmp_path / "run"
    code, _, err = _run(["analytic", "--config", bad, "--out", str(out)], capsys)
    assert code == 1 and json.loads(err)["error"] == "ConfigError" and "[DEFAULT]" in err
    assert not out.exists()


def test_bad_values_name_the_field(tmp_path):
    with pytest.raises(ConfigError, match="market.nu"):
        load_config(_cfg_file(tmp_path, "[market]\nnu = ten\n"))
    with pytest.raises(ConfigError, match="learning.prefix_updates"):
        load_config(_cfg_file(tmp_path, "[learning]\nprefix_updates = yes\n"))
    with pytest.raises(ConfigError, match="evaluation.seeds"):
        load_config(_cfg_file(tmp_path, "[evaluation]\nseeds = ,\n"))


def test_config_validation_rules(tmp_path):
    with pytest.raises(ConfigError, match="market.model"):
        load_config(_cfg_file(tmp_path, "[market]\nmodel = garch\n"))
    with pytest.raises(ConfigError, match="rng_algorithm"):
        load_config(_cfg_file(tmp_path, "[run]\nrng_algorithm = mt19937\n"))
    with pytest.raises(ConfigError, match="test_episodes"):
        load_config(_cfg_file(tmp_path, "[learning]\nepisodes = 10\n"))
    with pytest.raises(ConfigError, match="grid.w"):
        load_config(_cfg_file(tmp_path, "[grid]\nw = auto-ish\n"))
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(str(tmp_path / "absent.ini"))


def test_build_model_rejects_an_unknown_market_name():
    """An unknown name is an error, not the historical model over the bundled series."""
    with pytest.raises(ValueError, match="nrmal"):
        build_model(MarketConfig(model="nrmal"))


def test_grid_needs_three_points(tmp_path, capsys):
    """The DP oracle needs three grid points; fewer is a config error that
    names the key, raised before any output is written."""
    assert load_config(_cfg_file(tmp_path, "[grid]\nx_points = 3\n")).grid.x_points == 3
    bad = _cfg_file(tmp_path, "[grid]\nx_points = 2\n")
    with pytest.raises(ConfigError, match="grid.x_points must be >= 3"):
        load_config(bad)
    out = tmp_path / "run"
    code, _, err = _run(["analytic", "--config", bad, "--out", str(out)], capsys)
    assert code == 1
    record = json.loads(err)
    assert record["error"] == "ConfigError" and "grid.x_points" in record["message"]
    assert not out.exists()


@pytest.mark.parametrize(
    "command, section, key, value",
    [
        ("analytic", "problem", "horizon", "0"),
        ("train", "learning", "refresh_every", "0"),
        ("histogram", "market", "nu", "2.0"),
        ("compare", "evaluation", "block", "0"),
        ("histogram", "evaluation", "histogram_bins", "0"),
        ("train", "evaluation", "test_episodes", "1"),
        ("iterate", "family", "var_base", "0.0"),
        ("backtest", "evaluation", "window_months", "0"),
        ("backtest", "evaluation", "test_months", "1"),
        # one 3-month window, so one terminal wealth a cell: no statistics
        ("backtest", "evaluation", "test_months", "5"),
        # riskless factor 1 + r_annual / periods_per_year <= 0, for every command that
        # reads it and for histogram, which does not
        ("analytic", "market", "r_annual", "-13.0"),
        ("train", "market", "r_annual", "-13.0"),
        ("histogram", "market", "r_annual", "-13.0"),
        pytest.param("backtest", "market", "periods_per_year", "0\nmodel = historical",
                     id="backtest-market-periods_per_year-0-historical"),
        # the generator, sampler, grid market models and worker pool reject these only mid-run
        ("train", "run", "seed", "-1"),
        ("compare", "evaluation", "seeds", "1, -2"),
        ("histogram", "evaluation", "histogram_draws", "0"),
        ("simulate", "evaluation", "sigma_grid_annual", "0.2, 0.0"),
        ("simulate", "run", "jobs", "0"),
        # a cold start whose policy's exps overflow, or whose variances underflow to 0, for
        # each command that trains; a phi2 of 0 leaves the comparator no policy
        *((command, "learning", "init_phi1", phi1) for command in ("train", "simulate", "backtest")
          for phi1 in ("400.0", "-400.0")),
        ("compare", "learning", "init_phi2", "0.0"),
        # (w - b) ** 2 overflows in the closed forms and the oracle
        ("analytic", "grid", "w", "1e308"),
        ("iterate", "grid", "w", "-1e200"),
    ],
)
def test_domain_checks_reject_the_config_before_any_output(
    tmp_path, capsys, command, section, key, value
):
    """A value the domain objects reject is a config error that names the
    key, raised before the run directory is made and not after a training
    run."""
    bad = _cfg_file(tmp_path, f"[{section}]\n{key} = {value}\n")
    with pytest.raises(ConfigError, match=f"{section}.{key}"):
        load_config(bad)
    out = tmp_path / "run"
    code, _, err = _run([command, "--config", bad, "--out", str(out)], capsys)
    assert code == 1
    record = json.loads(err)
    assert record["error"] == "ConfigError"
    assert f"{section}.{key}" in record["message"]
    assert not out.exists()


@pytest.mark.parametrize("flag, value", [("--seed", "-1"), ("--jobs", "0")])
def test_bad_flags_are_rejected_before_any_output(tmp_path, capsys, flag, value):
    out = tmp_path / "run"
    code, _, err = _run(["simulate", flag, value, "--out", str(out)], capsys)
    assert code == 1
    record = json.loads(err)
    assert record["error"] == "ConfigError" and flag in record["message"]
    assert not out.exists()


def _tuples(elements):
    return st.lists(elements, min_size=1, max_size=4).map(tuple)


_REAL = st.floats(-1e6, 1e6)
_POSITIVE = st.floats(1e-6, 1e3)


@st.composite
def _configs(draw):
    """RunConfigs with every value inside the domain checks, but for seeds,
    grid volatilities and histogram draws, which may also lie outside; the
    cold start's (phi1, phi2) are drawn where the policy stays in the float
    range at horizons up to 120."""
    episodes = draw(st.integers(2, 10**6))
    horizon_months = draw(st.integers(1, 24))
    return RunConfig(
        market=MarketConfig(
            model=draw(st.sampled_from(["normal", "skewt", "historical"])),
            a_annual=draw(_REAL), sigma_annual=draw(_POSITIVE), r_annual=draw(st.floats(-0.5, 0.5)),
            periods_per_year=draw(st.integers(1, 365)), nu=draw(st.floats(2.001, 1e3)),
            slant=draw(_REAL), csv_path=draw(st.sampled_from(["", "data/sp500.csv", "my returns.csv"])),
        ),
        problem=ProblemConfig(
            horizon=draw(st.integers(1, 120)), x0=draw(_REAL), target_wealth=draw(_REAL),
            temperature=draw(_POSITIVE),
        ),
        learning=LearningConfig(
            algorithm=draw(st.sampled_from(sorted(LEARNERS))), episodes=episodes,
            refresh_every=draw(st.integers(1, 1000)), alpha=draw(_POSITIVE),
            eta_theta=draw(_POSITIVE), eta_phi=draw(_POSITIVE), prefix_updates=draw(st.booleans()),
            init_phi1=draw(st.floats(-100.0, 100.0)), init_phi2=draw(st.floats(1e-3, 2.0)),
        ),
        evaluation=EvaluationConfig(
            test_episodes=draw(st.integers(2, episodes)), block=draw(st.integers(1, 1000)),
            sigma_grid_annual=draw(_tuples(st.one_of(_POSITIVE, st.floats(-1.0, 0.0)))),
            seeds=draw(_tuples(st.integers(-3, 2**31))),
            backtest_start_years=draw(_tuples(st.integers(1900, 2100))),
            backtest_targets=draw(_tuples(_REAL)),
            window_months=draw(st.integers(horizon_months, 600)), horizon_months=horizon_months,
            test_months=draw(st.integers(horizon_months, 600)), online_test=draw(st.booleans()),
            histogram_draws=draw(st.integers(-3, 10**4)), histogram_bins=draw(st.integers(1, 500)),
        ),
        family=FamilyConfig(mean_slope=draw(_REAL), var_base=draw(_POSITIVE), var_ratio=draw(_POSITIVE)),
        grid=GridConfig(
            x_min=draw(st.floats(-1e3, 0.0)), x_max=draw(st.floats(1e-3, 1e3)),
            x_points=draw(st.integers(3, 500)),
            w=draw(st.one_of(st.just("auto"), _REAL.map(repr))),
        ),
        run=RunControl(seed=draw(st.integers(-3, 2**31)), jobs=draw(st.integers(1, 8))),
    )


def _accepted(cfg):
    try:
        validate_config(cfg)
    except ConfigError:
        return False
    return True


_valid_configs = _configs().filter(_accepted)


@settings(max_examples=100, deadline=None)
@given(cfg=_valid_configs)
def test_effective_text_round_trips_any_valid_config(cfg):
    """load_config(effective_config_text(cfg)) == cfg for any config that
    validates: every value is written so that it parses back exactly."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "effective.ini")
        with open(path, "w") as fh:
            fh.write(effective_config_text(cfg))
        assert load_config(path) == cfg


@settings(max_examples=100, deadline=None)
@given(cfg=_valid_configs)
def test_a_valid_config_builds_what_every_command_builds_before_it_runs(cfg):
    """What validate_config accepts, no command rejects after config.effective
    is written: the per-volatility markets of simulate (a historical series
    is checked when read, so the bundled one stands in), a generator per
    seed, the sample of histogram, the backtest horizon and each learner's
    cold start at either horizon, though validate_config checks only the
    longer."""
    market = cfg.market._replace(csv_path="")
    for sigma in cfg.evaluation.sigma_grid_annual:
        build_model(market, sigma)
    for seed in (cfg.run.seed, *cfg.evaluation.seeds):
        make_rng(seed)
    if cfg.market.model != "historical":
        sample_path(build_model(market)[0], cfg.evaluation.histogram_draws, make_rng(cfg.run.seed))
    hyper = hyper_params(cfg, problem_spec(cfg)._replace(T=cfg.evaluation.horizon_months))
    assert hyper.spec.T == rolling_spec(cfg).horizon_months
    r_f = build_model(market)[1]
    for learner in LEARNERS.values():
        for at_horizon in (hyper, hyper_params(cfg, problem_spec(cfg))):
            check_cold_start(learner, at_horizon, r_f)


def test_config_sections_are_plain_values():
    assert MarketConfig().a_annual == 0.30
    assert LearningConfig().algorithm == "emv-discrete"
    assert EvaluationConfig().backtest_start_years == tuple(range(2004, 2014))
    assert GridConfig().w == "auto"


# ---------------------------------------------------------------------------
# error records and exit codes
# ---------------------------------------------------------------------------


def test_success_emits_no_error_record(tmp_path, capsys):
    out = str(tmp_path / "run")
    code, _, err = _run(["analytic", "--out", out], capsys)
    assert code == 0
    assert err == ""


def test_failure_emits_one_json_record_and_nonzero_exit(tmp_path, capsys):
    bad = _cfg_file(tmp_path, "[market]\nmodel = garch\n")
    code, _, err = _run(["analytic", "--config", bad, "--out", str(tmp_path / "r")], capsys)
    assert code == 1
    record = json.loads(err)
    assert record["error"] == "ConfigError"
    assert "garch" in record["message"]


def test_missing_data_file_is_reported_as_an_error_record(tmp_path, capsys):
    cfg = _cfg_file(tmp_path, "[market]\nmodel = historical\ncsv_path = nope.csv\n")
    code, _, err = _run(["histogram", "--config", cfg, "--out", str(tmp_path / "h")], capsys)
    assert code == 1
    assert json.loads(err)["error"] in ("FileNotFoundError", "DataError")


def test_degenerate_iteration_family_is_reported(tmp_path, capsys):
    cfg = _cfg_file(
        tmp_path,
        "[market]\nmodel = normal\na_annual = 0.0\nr_annual = 0.0\n\n"
        "[family]\nmean_slope = 0.0\nvar_ratio = 1.0\n\n[grid]\nw = 1.0\n",
    )
    code, _, err = _run(["iterate", "--config", cfg, "--out", str(tmp_path / "d")], capsys)
    assert code == 1
    record = json.loads(err)
    assert record["error"] == "DegenerateFamilyError"
    assert "exactly 1" in record["message"]


def test_a_policy_that_underflows_is_reported_as_divergence(tmp_path, capsys):
    """Large steps take the comparator's phi1 to about -455 in its first
    episode: finite, but the variances of the second episode's policy
    underflow to 0.  The run fails with a TrainingDivergedError that names
    that episode and every parameter it started from."""
    cfg = _cfg_file(
        tmp_path,
        "[market]\nmodel = normal\n\n[learning]\nalgorithm = emv-continuous\n"
        "eta_theta = 0.5\neta_phi = 0.5\n",
    )
    code, _, err = _run(["train", "--config", cfg, "--out", str(tmp_path / "r")], capsys)
    assert code == 1
    record = json.loads(err)
    assert record["error"] == "TrainingDivergedError"
    message = record["message"]
    assert message.startswith("training diverged at episode 2 (InfeasiblePolicyError: ")
    assert "variance is 0.0" in message
    named = dict(item.split("=") for item in message[message.index("; ") + 2 : -1].split(", "))
    assert list(named) == ["theta2", "theta3", "theta4", "phi1", "phi2", "w"]
    assert float(named["phi1"]) < -400.0
    assert all(map(math.isfinite, map(float, named.values())))
    assert record["settings"] == {"learning.eta_theta": 0.5, "learning.eta_phi": 0.5,
                                  "problem.horizon": 3}


@pytest.mark.parametrize("command, text, start, named", [
    ("train", "[problem]\nhorizon = 60\n", "episode 1 (cost 1.4492418743981493e+144; ",
     {"learning.eta_theta": 0.0005, "learning.eta_phi": 0.0005, "problem.horizon": 60}),
    ("backtest", TINY.replace("[learning]\n", "[learning]\neta_theta = 50.0\neta_phi = 50.0\n"),
     "episode ", {"learning.eta_theta": 50.0, "learning.eta_phi": 50.0,
                  "evaluation.horizon_months": 3}),
])
def test_a_diverged_run_names_the_keys_that_size_its_steps(tmp_path, capsys, command, text, start,
                                                           named):
    """At horizon 60 the default step sizes diverge in the first episode,
    whose last step pass starts at a cost of 1.45e+144 (a backtest at steps
    of 50 diverges too).  Beside the message, the error record names the
    two step sizes and the horizon the command trains at, with their
    values: a backtest's horizon is evaluation.horizon_months."""
    code, _, err = _run([command, "--config", _cfg_file(tmp_path, text), "--out",
                         str(tmp_path / "r")], capsys)
    assert code == 1
    record = json.loads(err)
    assert record["error"] == "TrainingDivergedError"
    assert record["message"].startswith("training diverged at " + start)
    assert record["settings"] == named


# ---------------------------------------------------------------------------
# analytic and iterate commands
# ---------------------------------------------------------------------------


def test_analytic_outputs_cover_the_grid(tmp_path, capsys):
    out = str(tmp_path / "a")
    code, _, _ = _run(["analytic", "--out", out], capsys)
    assert code == 0
    rows = _read_csv(os.path.join(out, "report.csv"))
    assert len(rows) == 4 * 21  # t = 0..3 on the 21-point default grid
    assert {r["t"] for r in rows} == {"0", "1", "2", "3"}
    for r in rows:
        assert float(r["rel_error"]) <= 1e-6
        if r["t"] == "3":
            assert r["policy_mean"] == "" and r["policy_variance"] == ""
        else:
            assert float(r["policy_variance"]) > 0.0
    summary = open(os.path.join(out, "summary.txt")).read()
    assert "max_rel_error" in summary


@pytest.mark.parametrize("w", ["1e154", "1e100", "-1e154"])
def test_an_oracle_failing_at_a_far_w_prints_one_line_naming_the_grid(tmp_path, w):
    """At a grid.w this far from the target (w - b)^2 is finite, but the DP
    oracle's layers overflow: analytic exits 1 with its one JSON error
    record on stderr, no numpy warning beside it, naming grid.w and the
    grid's bounds; iterate, which runs no oracle, succeeds with stderr
    silent.  Each command runs in a child, whose warnings reach stderr."""
    cfg = _cfg_file(tmp_path, f"[grid]\nw = {w}\n")
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")

    def cli_run(command):
        argv = [command, "--config", cfg, "--out", str(tmp_path / command)]
        return subprocess.run([sys.executable, "-c", "import sys; from dtmv.cli import main; "
                               "sys.exit(main(sys.argv[1:]))", *argv],
                              env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
                              timeout=120)

    analytic, iterate = cli_run("analytic"), cli_run("iterate")
    assert analytic.returncode == 1 and len(analytic.stderr.splitlines()) == 1, analytic.stderr
    record = json.loads(analytic.stderr)
    assert record["error"] == "QuadratureError"
    assert record["settings"] == {"grid.w": w, "grid.x_min": -1.0, "grid.x_max": 3.0}
    assert iterate.returncode == 0 and iterate.stderr == ""


def test_analytic_means_do_not_depend_on_the_temperature(tmp_path, capsys):
    out_a = str(tmp_path / "a")
    out_b = str(tmp_path / "b")
    hot = _cfg_file(tmp_path, "[problem]\ntemperature = 8.0\n")
    assert _run(["analytic", "--out", out_a], capsys)[0] == 0
    assert _run(["analytic", "--config", hot, "--out", out_b], capsys)[0] == 0
    rows_a = _read_csv(os.path.join(out_a, "report.csv"))
    rows_b = _read_csv(os.path.join(out_b, "report.csv"))
    assert [r["policy_mean"] for r in rows_a] == [r["policy_mean"] for r in rows_b]
    assert [r["value"] for r in rows_a] != [r["value"] for r in rows_b]


def test_analytic_summary_keeps_a_nan_error(tmp_path, capsys, monkeypatch):
    """A NaN relative error that is not the first one still reaches
    summary.txt's max_rel_error, instead of dropping out of the max."""
    real = cli.optimal_value

    def nan_at_one_state(m, spec, t, xs, w):
        value = real(m, spec, t, xs, w)
        if t == 1:
            value = value.copy()
            value[3] = math.nan
        return value

    monkeypatch.setattr(cli, "optimal_value", nan_at_one_state)
    out = str(tmp_path / "a")
    assert _run(["analytic", "--out", out], capsys)[0] == 0
    summary = open(os.path.join(out, "summary.txt")).read()
    assert "max_rel_error = nan\n" in summary


def test_iterate_trace_descends_to_zero_residual(tmp_path, capsys):
    out = str(tmp_path / "i")
    code, _, _ = _run(["iterate", "--out", out], capsys)
    assert code == 0
    rows = _read_csv(os.path.join(out, "report.csv"))
    assert [r["k"] for r in rows] == ["0", "1", "2", "3"]
    values = [float(r["value"]) for r in rows]
    assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))
    summary = open(os.path.join(out, "summary.txt")).read()
    assert "monotone = true" in summary
    residual = float(summary.split("residual = ")[1].splitlines()[0])
    assert residual <= 1e-10


def test_iterate_with_the_optimal_mean_slope_pins_the_mean_column(tmp_path, capsys):
    # a seed whose mean slope already matches the optimal coefficient: every
    # iterate reports the same policy mean while variances keep improving
    from dtmv.analytic import MarketModel
    from dtmv.market import annualize_market

    a, sigma, r_f = annualize_market(0.30, 0.20, 0.02)
    m = MarketModel(a, sigma, r_f)
    slope = -a * r_f / m.second_moment
    cfg = _cfg_file(tmp_path, f"[family]\nmean_slope = {slope!r}\n")
    out = str(tmp_path / "opt")
    assert _run(["iterate", "--config", cfg, "--out", out], capsys)[0] == 0
    rows = _read_csv(os.path.join(out, "report.csv"))
    means = {r["policy_mean"] for r in rows}
    values = [float(r["value"]) for r in rows]
    assert len(means) == 1
    assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))


# ---------------------------------------------------------------------------
# training commands
# ---------------------------------------------------------------------------


def test_train_writes_log_checkpoint_report(tmp_path, capsys):
    cfg = _cfg_file(tmp_path)
    out = str(tmp_path / "t")
    code, _, _ = _run(["train", "--config", cfg, "--out", out], capsys)
    assert code == 0
    log_lines = open(os.path.join(out, "log.ndjson")).read().splitlines()
    assert len(log_lines) == 200
    first = json.loads(log_lines[0])
    assert first["episode"] == 1
    assert set(first) == {
        "episode", "terminal_wealth", "theta1", "theta2", "theta3", "theta4",
        "phi1", "phi2", "w",
    }
    from dtmv.learner import load_checkpoint

    algorithm, params, _rng = load_checkpoint(os.path.join(out, "checkpoint"))
    assert algorithm == "emv-discrete"
    assert params["w"] == json.loads(log_lines[-1])["w"]
    rows = _read_csv(os.path.join(out, "report.csv"))
    assert len(rows) == 1 and rows[0]["n"] == "100"


BASELINE_TINY = """
[learning]
algorithm = emv-continuous
episodes = 150

[evaluation]
test_episodes = 100
"""


def test_train_baseline_algorithm_selected_by_config(tmp_path, capsys):
    cfg = _cfg_file(tmp_path, BASELINE_TINY)
    out = str(tmp_path / "tb")
    code, _, _ = _run(["train", "--config", cfg, "--out", out], capsys)
    assert code == 0
    from dtmv.learner import load_checkpoint

    algorithm, params, _ = load_checkpoint(os.path.join(out, "checkpoint"))
    assert algorithm == "emv-continuous"
    assert "theta1" not in params  # the comparator has no quadratic coefficient
    first = json.loads(open(os.path.join(out, "log.ndjson")).readline())
    assert "theta1" not in first


def test_a_third_learner_is_one_learners_entry(tmp_path, capsys, monkeypatch):
    """A learner registered in LEARNERS alone trains from the config: no
    command keeps a table of its own."""
    from dtmv.learner import DISCRETE, load_checkpoint

    monkeypatch.setitem(LEARNERS, "emv-plain-step", DISCRETE._replace(hold_phi1=False))
    cfg = _cfg_file(tmp_path, BASELINE_TINY.replace("emv-continuous", "emv-plain-step"))
    out = str(tmp_path / "third")
    code, _, err = _run(["train", "--config", cfg, "--out", out], capsys)
    assert code == 0 and err == ""
    log = [json.loads(line) for line in open(os.path.join(out, "log.ndjson"))]
    assert len(log) == 150
    assert log[-1]["phi1"] != 1.0  # stepped, not held as DISCRETE holds it
    algorithm, params, _ = load_checkpoint(os.path.join(out, "checkpoint"))
    assert algorithm == "emv-plain-step"
    assert params["w"] == log[-1]["w"]


def test_a_learner_of_two_fresh_record_classes_trains_from_the_config(tmp_path, capsys, monkeypatch):
    """A learner is two NamedTuple classes and three constants.  One built
    from fresh classes (theta2..w, with compounding centers and phi1 stepped,
    as neither registered learner has it) trains through dtmv train, and its
    log and checkpoint are keyed by its own fields."""
    from typing import NamedTuple

    from dtmv.learner import Learner, load_checkpoint

    fields = [(name, float) for name in ("theta2", "theta3", "theta4", "phi1", "phi2", "w")]
    params = NamedTuple("CompoundingParams", fields)
    record = NamedTuple("CompoundingRecord", [("episode", int), ("terminal_wealth", float), *fields])
    monkeypatch.setitem(LEARNERS, "emv-compounding", Learner(params, record, 1, True, False))
    cfg = _cfg_file(tmp_path, BASELINE_TINY.replace("emv-continuous", "emv-compounding"))
    out = str(tmp_path / "fresh")
    code, _, err = _run(["train", "--config", cfg, "--out", out], capsys)
    assert code == 0 and err == ""
    log = [json.loads(line) for line in open(os.path.join(out, "log.ndjson"))]
    assert len(log) == 150 and all(list(rec) == sorted(record._fields) for rec in log)
    algorithm, saved, _ = load_checkpoint(os.path.join(out, "checkpoint"))
    assert algorithm == "emv-compounding"
    assert saved == {name: log[-1][name] for name in params._fields}


@pytest.mark.parametrize("algorithm", sorted(LEARNERS))
def test_a_checkpoint_rebuilds_its_runs_params_and_generator(tmp_path, capsys, algorithm):
    """The learner's params class rebuilds, from train's checkpoint, the
    params the run ended with, and the restored generator continues where
    the run's left off."""
    from dtmv.evaluation import Cell, train_cell
    from dtmv.learner import load_checkpoint

    path = _cfg_file(tmp_path, BASELINE_TINY.replace("emv-continuous", algorithm))
    out = str(tmp_path / "ck")
    assert _run(["train", "--config", path, "--out", out], capsys)[0] == 0
    _, saved, rng = load_checkpoint(os.path.join(out, "checkpoint"))
    cfg = load_config(path)
    cell = Cell(*cli._setting(cfg), hyper_params(cfg, problem_spec(cfg)), algorithm, cfg.run.seed, 0)
    result, run_rng = train_cell(cell)
    assert LEARNERS[algorithm].params(**saved) == result.params
    assert rng.bit_generator.state == run_rng.bit_generator.state


def test_train_seed_flag_changes_the_run(tmp_path, capsys):
    cfg = _cfg_file(tmp_path)
    out_a, out_b = str(tmp_path / "s1"), str(tmp_path / "s2")
    assert _run(["train", "--config", cfg, "--seed", "1", "--out", out_a], capsys)[0] == 0
    assert _run(["train", "--config", cfg, "--seed", "2", "--out", out_b], capsys)[0] == 0
    a = open(os.path.join(out_a, "log.ndjson")).read()
    b = open(os.path.join(out_b, "log.ndjson")).read()
    assert a != b


def test_cold_start_reaches_every_training_command(tmp_path, capsys):
    """learning.init_phi2 sets the cold start of both learners in simulate
    and backtest, as it does in train."""
    base = _cfg_file(tmp_path)
    moved = _cfg_file(
        tmp_path, TINY.replace("episodes = 200", "episodes = 200\ninit_phi2 = 0.05"), "moved.ini"
    )
    for command in ("train", "simulate", "backtest"):
        reports = []
        for name, cfg in (("base", base), ("moved", moved)):
            out = str(tmp_path / f"{command}-{name}")
            assert _run([command, "--config", cfg, "--out", out], capsys)[0] == 0
            reports.append(_read_csv(os.path.join(out, "report.csv")))
        assert len(reports[0]) == len(reports[1])
        for a, b in zip(*reports):
            assert a["mean_return"] != b["mean_return"], (command, a["setting"], a["algorithm"])


# ---------------------------------------------------------------------------
# simulate, backtest, compare, histogram
# ---------------------------------------------------------------------------


def test_simulate_report_covers_settings_algorithms_seeds(tmp_path, capsys):
    cfg = _cfg_file(tmp_path)
    out = str(tmp_path / "sim")
    code, _, _ = _run(["simulate", "--config", cfg, "--out", out], capsys)
    assert code == 0
    rows = _read_csv(os.path.join(out, "report.csv"))
    assert len(rows) == 1 * 2 * 2  # one sigma, both algorithms, two seeds
    assert {r["algorithm"] for r in rows} == {"emv-discrete", "emv-continuous"}
    assert {r["seed"] for r in rows} == {"1", "2"}
    assert all(r["setting"] == "skewt a=30% sigma=20%" for r in rows)


def test_simulate_jobs_flag_gives_identical_report(tmp_path, capsys):
    cfg = _cfg_file(tmp_path)
    out_a, out_b = str(tmp_path / "j1"), str(tmp_path / "j2")
    assert _run(["simulate", "--config", cfg, "--out", out_a], capsys)[0] == 0
    assert _run(["simulate", "--config", cfg, "--jobs", "2", "--out", out_b], capsys)[0] == 0
    assert (
        open(os.path.join(out_a, "report.csv")).read()
        == open(os.path.join(out_b, "report.csv")).read()
    )


def test_backtest_runs_on_the_bundled_series(tmp_path, capsys):
    cfg = _cfg_file(tmp_path)
    out = str(tmp_path / "bt")
    code, _, _ = _run(["backtest", "--config", cfg, "--out", out], capsys)
    assert code == 0
    rows = _read_csv(os.path.join(out, "report.csv"))
    assert len(rows) == 2 * 2 * 2  # years x targets x algorithms
    assert rows[0]["setting"] == "2004-2013 b=1.03"
    for r in rows:
        assert float(r["sharpe"]) * float(r["std_return"]) == pytest.approx(
            float(r["mean_return"]), rel=1e-12, abs=1e-15
        )


def test_compare_emits_curves_and_stabilization_summary(tmp_path, capsys):
    cfg = _cfg_file(tmp_path)
    out = str(tmp_path / "cmp")
    code, _, _ = _run(["compare", "--config", cfg, "--out", out], capsys)
    assert code == 0
    curves = _read_csv(os.path.join(out, "curves.csv"))
    # 200 episodes / block 50 = 4 blocks per (algorithm, seed) cell
    assert len(curves) == 4 * 2 * 2
    assert {c["algorithm"] for c in curves} == {"emv-discrete", "emv-continuous"}
    summary = open(os.path.join(out, "summary.txt")).read()
    assert "first_stable_block" in summary
    report = _read_csv(os.path.join(out, "report.csv"))
    assert len(report) == 4


def test_compare_reports_what_simulate_reports_on_its_one_market(tmp_path, capsys):
    """With the volatility grid the one configured volatility, compare trains
    simulate's cells on the same streams, so the two reports are the same bytes."""
    cfg = _cfg_file(tmp_path)  # sigma_grid_annual = 0.2 = market.sigma_annual
    assert load_config(cfg).evaluation.sigma_grid_annual == (MarketConfig().sigma_annual,)
    reports = []
    for command in ("compare", "simulate"):
        out = tmp_path / command
        code, _, _ = _run([command, "--config", cfg, "--out", str(out)], capsys)
        assert code == 0
        reports.append((out / "report.csv").read_bytes())
    assert reports[0] == reports[1]


def _counting_records(monkeypatch):
    """Constructions of each per-episode record class from now on, by name."""
    counts = {cls.__name__: 0 for cls in (EpisodeRecord, BaselineRecord)}
    for cls in (EpisodeRecord, BaselineRecord):
        def counted(klass, *args, _new=cls.__new__):
            counts[klass.__name__] += 1
            return _new(klass, *args)

        monkeypatch.setattr(cls, "__new__", counted)
    return counts


@pytest.mark.parametrize("command, config", [
    ("simulate", TINY),
    ("compare", TINY),
    ("backtest", TINY),
    ("backtest", TINY + "online_test = true\n"),
    ("train", TINY),
    ("train", BASELINE_TINY),
], ids=["simulate", "compare", "backtest", "backtest-online", "train", "train-continuous"])
def test_no_command_builds_episode_records(tmp_path, capsys, monkeypatch, command, config):
    """simulate, compare and backtest read only terminal wealths, and train,
    the one command that trains with records, writes its log of one line
    per episode from the history's columns: no command builds a per-episode
    record."""
    counts = _counting_records(monkeypatch)
    code, _, err = _run([command, "--config", _cfg_file(tmp_path, config), "--out",
                         str(tmp_path / "run")], capsys)
    assert code == 0, err
    if command == "train":
        episodes = load_config(_cfg_file(tmp_path, config)).learning.episodes
        assert len((tmp_path / "run" / "log.ndjson").read_text().splitlines()) == episodes
    assert counts == {"EpisodeRecord": 0, "BaselineRecord": 0}


def test_histogram_bins_sum_to_draws(tmp_path, capsys):
    cfg = _cfg_file(tmp_path)
    out = str(tmp_path / "h")
    code, _, _ = _run(["histogram", "--config", cfg, "--out", out], capsys)
    assert code == 0
    rows = _read_csv(os.path.join(out, "histogram.csv"))
    assert sum(int(r["count"]) for r in rows) == 4000
    summary = open(os.path.join(out, "summary.txt")).read()
    assert "draws = 4000" in summary


def test_histogram_historical_uses_the_series_itself(tmp_path, capsys):
    cfg = _cfg_file(tmp_path, "[market]\nmodel = historical\n")
    out = str(tmp_path / "hh")
    code, _, _ = _run(["histogram", "--config", cfg, "--out", out], capsys)
    assert code == 0
    rows = _read_csv(os.path.join(out, "histogram.csv"))
    assert sum(int(r["count"]) for r in rows) == 395  # bundled series length


# ---------------------------------------------------------------------------
# CSV files
# ---------------------------------------------------------------------------


def test_report_csv_round_trip_is_exact(tmp_path, capsys, monkeypatch):
    """The report rows simulate writes parse back to the rows it computed."""
    import dtmv.cli

    computed = []
    study = dtmv.cli.run_simulation_study
    monkeypatch.setattr(dtmv.cli, "run_simulation_study", lambda *a: computed.extend(study(*a)) or computed)
    out = tmp_path / "sim"
    assert _run(["simulate", "--config", _cfg_file(tmp_path), "--out", str(out)], capsys)[0] == 0
    with open(out / "report.csv", newline="") as fh:
        header, *rows = csv.reader(fh)
    assert tuple(header) == dtmv.cli.REPORT_HEADER
    parsed = [PerformanceReport(r[0], r[1], int(r[2]), *map(float, r[3:6]), int(r[6])) for r in rows]
    assert len(computed) == 4 and parsed == computed


def test_histogram_csv_rows(tmp_path, capsys, monkeypatch):
    """One row per bin, its edges in repr form, the counts summing to the draws."""
    import dtmv.cli

    computed = []
    binned = dtmv.cli.histogram
    monkeypatch.setattr(dtmv.cli, "histogram", lambda *a: computed.append(binned(*a)) or computed[0])
    out = tmp_path / "h"
    assert _run(["histogram", "--config", _cfg_file(tmp_path), "--out", str(out)], capsys)[0] == 0
    lines = (out / "histogram.csv").read_text().splitlines()
    assert lines[0] == "bin_left,bin_right,count"
    ((counts, edges),) = computed
    rows = [line.split(",") for line in lines[1:]]
    assert [(float(left), float(right), int(c)) for left, right, c in rows] == list(
        zip(edges[:-1].tolist(), edges[1:].tolist(), counts.tolist()))
    assert counts.sum() == 4000 and len(lines) == 1 + 60


@pytest.mark.parametrize(
    "command", ["analytic", "iterate", "train", "simulate", "backtest", "compare", "histogram"]
)
def test_every_csv_ends_its_lines_in_lf(tmp_path, capsys, command):
    out = tmp_path / "run"
    assert _run([command, "--config", _cfg_file(tmp_path), "--out", str(out)], capsys)[0] == 0
    written = sorted(out.glob("*.csv"))
    assert written
    for path in written:
        assert b"\r" not in path.read_bytes(), path.name


def test_report_setting_with_a_comma_and_a_quote_reads_back(tmp_path, capsys):
    """The setting label carries the data file's name, the one outside text
    in a report row; it is quoted as the csv module quotes it."""
    data = tmp_path / 'sp500, "monthly".csv'
    shutil.copy(bundled_monthly_csv_path(), data)
    cfg = _cfg_file(tmp_path, TINY + f"\n[market]\nmodel = historical\ncsv_path = {data}\n")
    out = tmp_path / "t"
    assert _run(["train", "--config", cfg, "--out", str(out)], capsys)[0] == 0
    with open(out / "report.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 2 and len(rows[1]) == 7
    assert rows[1][0] == 'historical sp500, "monthly".csv'


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------


def _all_bytes(root):
    out = {}
    for name in sorted(os.listdir(root)):
        with open(os.path.join(root, name), "rb") as fh:
            out[name] = fh.read()
    return out


@pytest.mark.parametrize("command", ["analytic", "iterate", "train", "histogram"])
def test_reruns_are_byte_identical(tmp_path, capsys, command):
    cfg = _cfg_file(tmp_path)
    out_a, out_b = str(tmp_path / "r1"), str(tmp_path / "r2")
    assert _run([command, "--config", cfg, "--out", out_a], capsys)[0] == 0
    assert _run([command, "--config", cfg, "--out", out_b], capsys)[0] == 0
    bytes_a, bytes_b = _all_bytes(out_a), _all_bytes(out_b)
    assert list(bytes_a) == list(bytes_b)
    assert bytes_a == bytes_b


# ---------------------------------------------------------------------------
# benchmark tracer
# ---------------------------------------------------------------------------


ROOT = os.path.join(os.path.dirname(__file__), os.pardir)


def _parse(*path):
    with open(os.path.join(ROOT, *path)) as fh:
        return ast.parse(fh.read())


def _wrapped():
    """The (module, names) pairs of perfbench/spans.py's WRAPPED tuple."""
    (wrapped,) = [
        ast.literal_eval(node.value)
        for node in _parse("perfbench", "spans.py").body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "WRAPPED" for t in node.targets)
    ]
    return wrapped


def _package_files():
    package = os.path.join(ROOT, "src", "dtmv")
    return [f for f in sorted(os.listdir(package)) if f.endswith(".py")]


def test_every_traced_name_resolves_to_a_callable():
    """perfbench/spans.py wraps each (module, name) of its WRAPPED tuple; one
    that no longer resolves makes every traced benchmark run fail."""
    wrapped = _wrapped()
    assert wrapped
    for module_name, names in wrapped:
        module = importlib.import_module(module_name)
        for name in names:
            assert callable(getattr(module, name, None)), f"{module_name}.{name}"


TRACER_ONLY = "# noqa: F401  (perfbench/spans.py wraps this binding)"


def test_every_tracer_only_import_is_traced():
    """A binding that src/ imports only for the tracer names a (module, name)
    pair of perfbench/spans.py's WRAPPED, so none outlives the tracer's need."""
    traced = {(module, name) for module, names in _wrapped() for name in names}
    bindings = []
    for filename in _package_files():
        with open(os.path.join(ROOT, "src", "dtmv", filename)) as fh:
            for line in fh:
                if TRACER_ONLY in line:
                    (node,) = ast.parse(line.split("#", 1)[0]).body
                    module = f"dtmv.{filename[:-3]}"
                    bindings += [(module, a.asname or a.name) for a in node.names]
    assert bindings
    assert [b for b in bindings if b not in traced] == []


# Defined for ROADMAP item 5, which gives it a caller.
UNUSED_ALLOWED = {"expected_terminal_wealth"}


def _imported(tree):
    return {a.asname or a.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
            for a in node.names}


def test_every_top_level_name_in_src_has_a_user():
    """Each function, class and constant defined at the top level of
    src/dtmv/*.py is read by src/ code (an AST name or attribute, so a
    docstring does not count), re-exported by dtmv/__init__.py, wrapped by
    perfbench/spans.py, or imported by tests/test_acceptance.py or
    perfbench/*.py: no wrapper outlives its last caller."""
    defined, read = [], set()
    for filename in _package_files():
        tree = _parse("src", "dtmv", filename)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((filename, node.name))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined += [(filename, n.id) for target in targets for n in ast.walk(target)
                            if isinstance(n, ast.Name)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    used = read | _imported(_parse("src", "dtmv", "__init__.py"))
    used |= {name for _, names in _wrapped() for name in names}
    used |= _imported(_parse("tests", "test_acceptance.py"))
    for filename in os.listdir(os.path.join(ROOT, "perfbench")):
        if filename.endswith(".py"):
            used |= _imported(_parse("perfbench", filename))
    unused = [f"{filename}: {name}" for filename, name in defined
              if name not in used | UNUSED_ALLOWED and not name.startswith("__")]
    assert unused == []


# ---------------------------------------------------------------------------
# import footprint
# ---------------------------------------------------------------------------


def test_import_loads_no_scipy_and_no_process_pool():
    """Every command pays for what `import dtmv.cli` loads.  scipy is a test
    dependency only, the process pool is imported by --jobs > 1 runs, and the
    lazily loaded numpy subpackages the commands use are loaded at import."""
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    script = "import json, sys; import dtmv.cli; print(json.dumps(sorted(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, check=True, timeout=120)
    loaded = set(json.loads(proc.stdout))
    assert not [m for m in loaded if m == "scipy" or m.startswith("scipy.")]
    assert "concurrent.futures.process" not in loaded
    assert {"numpy.random", "numpy.polynomial"} <= loaded


# The public top-level modules `import dtmv.cli` adds to an interpreter that has loaded numpy,
# numpy.random and numpy.polynomial: the package, the standard library modules it imports
# (csv, argparse, configparser, dataclasses) and what those load in turn.  json is imported
# only by a failing command's error record.
CLI_IMPORTS = {"argparse", "configparser", "copy", "csv", "dataclasses", "dtmv", "gettext"}


def test_import_adds_only_the_pinned_top_level_modules():
    """In a fresh interpreter, `import dtmv.cli` loads no top-level module
    beyond numpy's but CLI_IMPORTS (private ones, the C halves of the
    standard library's, left out), so that a new eager import, and what it
    costs every command, shows here for review."""
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    # the child prints with repr, so that the snapshot is not taken after a json import
    script = ("import sys; import numpy, numpy.random, numpy.polynomial; "
              "before = set(sys.modules); import dtmv.cli; "
              "print(repr(sorted(set(sys.modules) - before)))")
    proc = subprocess.run([sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, check=True, timeout=120)
    added = {name.partition(".")[0] for name in ast.literal_eval(proc.stdout)}
    assert {name for name in added if not name.startswith("_")} == CLI_IMPORTS
