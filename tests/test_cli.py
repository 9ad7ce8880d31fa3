"""End-to-end tests of the command line interface."""

import csv
import json
import os

import pytest

from dtmv.cli import (
    ConfigError,
    EvaluationConfig,
    GridConfig,
    LearningConfig,
    MarketConfig,
    RunConfig,
    effective_config_text,
    load_config,
    main,
)

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


def test_config_dataclasses_are_plain_values():
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
