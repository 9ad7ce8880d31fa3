"""The generated episode kernel against the loop kernel it replaced
(reference_kernel.py), float for float, and how often a run compiles it."""

import ast
import builtins
import dis
import functools
import json
import math
import sys
from array import array
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_kernel as loop
from dtmv import learner as learner_module
from dtmv.analytic import ProblemSpec
from dtmv.cli import _ndjson_lines
from dtmv.evaluation import ALGORITHMS, LEARNERS, RollingSpec, rolling_backtest
from dtmv.learner import (
    DISCRETE,
    DIVERGENCE_COST,
    History,
    HyperParams,
    InfeasiblePolicyError,
    LagrangeState,
    PolicyParams,
    TrainingDivergedError,
    ValueParams,
    _diverged,
    _kernel_source,
    _names,
    _setup,
    _values,
    check_cold_start,
    cost,
    run_episodes,
    sample_episode,
    train,
)
from dtmv.market import (
    NormalIID,
    SkewTIID,
    bundled_monthly_csv_path,
    episode_draws,
    load_monthly_csv,
    make_rng,
)

SPEC = ProblemSpec(T=3, x0=1.0, b=1.1, lam=2.0)
R_F = 1.0 + 0.02 / 12.0
_MARKETS = {"normal": NormalIID(0.025, 0.0577), "skewt": SkewTIID(0.025, 0.0577, 5.0, -1.5)}


def _identical(got, want) -> bool:
    """got == want, and the same repr: every float keeps its bits, the sign
    of a zero included (and a NaN, which == cannot match, stays a NaN)."""
    return repr(got) == repr(want) and (got == want or "nan" in repr(want))


def _outcome(fn, *args):
    """fn's result, or the type, message and cause type of what it raised."""
    try:
        return fn(*args)
    except (ArithmeticError, ValueError, TrainingDivergedError) as exc:
        return type(exc).__name__, str(exc), type(exc.__cause__).__name__


_FLOATS = st.floats(-0.3, 0.3)
# mostly feasible policies, some below either learner's phi2 floor, some
# whose scale overflows exp, beyond 710 in the slope's factor too
_PHI1 = st.one_of(st.floats(-0.5, 1.5), st.floats(300.0, 400.0), st.floats(710.0, 800.0))
_PHI2 = st.one_of(st.floats(0.01, 0.3), st.floats(-0.05, 0.01))
_LAM = st.floats(0.1, 8.0)
_ETAS = st.tuples(*[st.floats(1e-4, 0.5)] * 2)  # (eta_theta, eta_phi)


def _driven(episode, learner, v, lag, draws, kept, records, bound=DIVERGENCE_COST):
    """run_episodes' training loop over episode (the loop kernel's episode
    with learn set, under one divergence rule: (v, lag, rets, z) -> (wealths,
    controls, values after, the cost the rule reads)) on the draws' rows
    (rets, then z), with the check at the cost bound: (the values after the
    draws, one record or terminal wealth per episode)."""
    history = []
    for ep, row in enumerate(draws, 1):
        try:
            wealth, _, after, cost = episode(v, lag, row[:len(row) // 2], row[len(row) // 2:])
        except (InfeasiblePolicyError, OverflowError) as exc:
            raise _diverged(learner, ep, f"{type(exc).__name__}: {exc}", v[kept:]) from exc
        v = after
        if not (all(map(math.isfinite, v)) and abs(cost) <= bound):
            raise _diverged(learner, ep, f"cost {cost!r}", v[kept:])
        history.append(learner.record(ep, wealth[-1], *v[kept:]) if records else wealth[-1])
    return v, history


def _run(kernel, learner, v, lag, draws, kept, records):
    """The generated run as run_episodes calls it, in _driven's terms: (the
    values after the draws, the History of its value array and wealths, or
    with records off the wealths)."""
    values = array("d") if records else None
    v, wealths = kernel.run(v, lag, draws, kept, values)
    return v, wealths if values is None else list(History(learner.record, kept, wealths, values))


def _old_rule(run):
    """The loop kernel's episode under the rule the generated run had before:
    the cost of a pass after the steps, at the centers after the refresh."""
    return lambda v, lag, rets, z: loop._episode(run, v, lag, rets, z, True)


# a training run's horizon, passes, point in the w refresh cycle, values and
# step sizes; and data, from which the test draws its 1 to 30 episodes
_RUNS = dict(
    algorithm=st.sampled_from(ALGORITHMS),
    T=st.integers(1, 12),
    prefix_updates=st.booleans(),
    refresh_every=st.integers(1, 5),
    recorded=st.integers(0, 5).map(lambda k: [1.0 + 0.01 * j for j in range(k)]),  # wealths
    records=st.booleans(),
    theta=st.tuples(_FLOATS, _FLOATS),
    phi1=_PHI1,
    phi2=_PHI2,
    w=st.floats(0.9, 1.6),
    lam=_LAM,
    etas=_ETAS,
    data=st.data(),
)


def _run_case(algorithm, T, prefix_updates, refresh_every, recorded, theta, phi1, phi2, w, lam, etas,
              data):
    """(learner, hyper, values, kept, recorded wealths, draws) of one _RUNS case."""
    rows = st.tuples(*[st.lists(st.floats(lo, hi), min_size=T, max_size=T)
                       for lo, hi in ((-0.2, 0.2), (-4.0, 4.0))]).map(lambda pair: pair[0] + pair[1])
    draws = data.draw(st.lists(rows, min_size=1, max_size=30))  # rows: returns, then policy normals
    learner = LEARNERS[algorithm]
    hyper = HyperParams(SPEC._replace(T=T, lam=lam), *etas, refresh_every=refresh_every,
                        prefix_updates=prefix_updates)
    v = (math.exp(-2.0 * phi2), *theta, 0.0, phi1, phi2, w)
    _, kept = _values(learner, learner.cold_start(hyper.spec, R_F, 1.0, 0.5))
    return learner, hyper, v, kept, recorded, draws


@settings(max_examples=200, deadline=None)
@given(**_RUNS)
def test_generated_episode_equals_the_loop_kernel(
    algorithm, T, prefix_updates, refresh_every, recorded, records, theta, phi1, phi2, w, lam, etas,
    data
):
    """The generated training loop over 1 to 30 episodes gives what
    run_episodes' divergence rule over the loop kernel gives, the cost being
    that of the last step pass before its step (loop._learn): the values
    after them, each episode's record (or terminal wealth with records off)
    and the Lagrange state, or the same TrainingDivergedError at the same
    episode with the same message and cause, for either learner at any
    horizon, pass list and point in the w refresh cycle.  With the cost
    bound below every cost the first episode's last step pass's cost shows
    in the message, bit for bit.  One frozen rollout gives the loop kernel's
    wealths and controls, or raises what it raises."""
    _equals_the_loop_kernel(algorithm, T, prefix_updates, refresh_every, recorded, records, theta, phi1,
                            phi2, w, lam, etas, data)


# w, or a wealth recorded before the run, so far out that the squared deviations
# overflow in the passes, (w - b) ** 2 where theta4 is formed, or the w a refresh moves to
_FAR = st.floats(1e20, 1.7e308) | st.floats(-1.7e308, -1e20)
_OVERFLOWING = dict(_RUNS, refresh_every=st.integers(1, 3), phi1=st.floats(-0.5, 1.5),
                    recorded=st.lists(st.floats(0.9, 1.6) | _FAR, max_size=3),
                    w=st.floats(0.9, 1.6) | _FAR)


@settings(max_examples=200, deadline=None)
@given(**_OVERFLOWING)
def test_an_overflowing_w_diverges_as_in_the_loop_kernel(
    algorithm, T, prefix_updates, refresh_every, recorded, records, theta, phi1, phi2, w, lam, etas,
    data
):
    """test_generated_episode_equals_the_loop_kernel's check where w starts,
    or a refresh moves it, beyond where (w - b) ** 2 or w itself overflows:
    run forms the centers and (w - b) ** 2 once per w, and still diverges at
    the episode, with the message and cause, that the loop kernel does."""
    _equals_the_loop_kernel(algorithm, T, prefix_updates, refresh_every, recorded, records, theta, phi1,
                            phi2, w, lam, etas, data)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("w, recorded, refresh_every, lam, eta, episode, why", [
    (1e200, [], 1, 2.0, 5e-4, 1, "OverflowError"),  # (w - b) ** 2 overflows from the start
    (1.1, [1e200], 2, 2.0, 5e-4, 2, "OverflowError"),  # the refresh of episode 1 moves w to where it does
    (1.1, [1.7e308, 1.7e308], 3, 2.0, 5e-4, 1, "cost"),  # the refreshed w overflows to -inf
    # the squared deviations overflow, and a pass takes phi2 to inf: the discrete learner
    # reports cost nan, the comparator, with the same weights, cost inf (theta2 = inf)
    (1e80, [], 5, 0.5, 0.1, 1, "cost"),
])
def test_an_overflowing_w_diverges_at_the_episode_it_reaches(algorithm, w, recorded, refresh_every, lam,
                                                            eta, episode, why):
    """Three episodes from the cold start but for w: the generated run and the
    loop kernel diverge at the same episode, for the same reason, alike."""
    learner = LEARNERS[algorithm]
    hyper = HyperParams(SPEC._replace(lam=lam), eta, eta, refresh_every=refresh_every)
    v, kept = _values(learner, learner.cold_start(SPEC, R_F, 1.0, 0.05))
    v = (*v[:6], w)
    draws = [[0.01, -0.02, 0.03, 0.5, -1.0, 0.2]] * 3
    want_lag, got_lag = LagrangeState(w, 0.05, list(recorded)), LagrangeState(w, 0.05, list(recorded))
    want = _outcome(_driven, functools.partial(loop._learn, loop._setup(learner, hyper, R_F)), learner,
                    v, want_lag, draws, kept, True)
    got = _outcome(_run, _setup(learner, hyper, R_F), learner, v, got_lag, draws, kept, True)
    assert _identical(got, want) and _identical(vars(got_lag), vars(want_lag))
    assert got[0] == "TrainingDivergedError" and f"at episode {episode} ({why}" in got[1]


def _equals_the_loop_kernel(algorithm, T, prefix_updates, refresh_every, recorded, records, theta, phi1,
                            phi2, w, lam, etas, data):
    learner, hyper, v, kept, wealths, draws = _run_case(
        algorithm, T, prefix_updates, refresh_every, recorded, theta, phi1, phi2, w, lam, etas, data)
    run, kernel = loop._setup(learner, hyper, R_F), _setup(learner, hyper, R_F)
    episode = functools.partial(loop._learn, run)

    for bound in (DIVERGENCE_COST, -1.0):
        kernel.run.__kwdefaults__["DIVERGENCE_COST"] = bound
        want_lag, got_lag = LagrangeState(w, 0.05, list(wealths)), LagrangeState(w, 0.05, list(wealths))
        want = _outcome(_driven, episode, learner, v, want_lag, draws, kept, records, bound)
        got = _outcome(_run, kernel, learner, v, got_lag, draws, kept, records)
        assert _identical(got, want)
        assert _identical(vars(got_lag), vars(want_lag))
        if bound < 0.0:
            assert want[0] == "TrainingDivergedError" and "at episode 1 (" in want[1]

    want = _outcome(loop._episode, run, v, None, draws[0][:T], draws[0][T:], False)
    got = _outcome(kernel.rollout, v, draws[0])
    assert _identical(got, want if isinstance(want[0], str) else (tuple(want[0]), tuple(want[1])))


@settings(max_examples=200, deadline=None)
@given(**_RUNS)
def test_a_run_the_old_divergence_rule_finishes_keeps_its_bits(
    algorithm, T, prefix_updates, refresh_every, recorded, records, theta, phi1, phi2, w, lam, etas,
    data
):
    """The divergence check reads the training loop's floats and moves none
    of them: over 1 to 30 episodes that the old rule (loop._episode's cost
    pass after the steps, at the refreshed centers) finishes, the generated
    run gives that run's values, records (or terminal wealths) and Lagrange
    state, bit for bit."""
    learner, hyper, v, kept, wealths, draws = _run_case(
        algorithm, T, prefix_updates, refresh_every, recorded, theta, phi1, phi2, w, lam, etas, data)
    want_lag, got_lag = LagrangeState(w, 0.05, list(wealths)), LagrangeState(w, 0.05, list(wealths))
    want = _outcome(_driven, _old_rule(loop._setup(learner, hyper, R_F)), learner, v, want_lag,
                    draws, kept, records)
    if isinstance(want[0], str):
        return
    got = _outcome(_run, _setup(learner, hyper, R_F), learner, v, got_lag, draws, kept, records)
    assert _identical(got, want)
    assert _identical(vars(got_lag), vars(want_lag))


@settings(max_examples=300, deadline=None)
@given(
    algorithm=st.sampled_from(ALGORITHMS),
    T=st.integers(1, 12),
    theta=st.tuples(_FLOATS, _FLOATS),
    phi1=st.floats(-0.5, 1.5),
    phi2=_PHI2,
    w=st.floats(0.9, 1.6),
    lam=_LAM,
    etas=_ETAS,
    data=st.data(),
)
def test_generated_pass_equals_the_loop_kernel(algorithm, T, theta, phi1, phi2, w, lam, etas, data):
    """The one pass of the sample adapters (the n transitions from period
    t_first, a step on given grads for apply_updates) gives the loop
    kernel's values and gradient after its step pass, and the summed
    squares of its pass without a step."""
    t_first = data.draw(st.integers(0, T))
    n = data.draw(st.integers(0, T - t_first))
    devs = data.draw(st.lists(st.floats(-2.0, 2.0), min_size=n + 1, max_size=n + 1))
    grads = data.draw(st.none() | st.tuples(*[st.floats(-1.0, 1.0)] * 4))
    learner, hyper = LEARNERS[algorithm], HyperParams(SPEC._replace(T=T, lam=lam), *etas)
    args = (theta[0], theta[1], phi1, phi2, math.exp(-2.0 * phi2), w)
    run = loop._setup(learner, hyper, R_F)
    want = _outcome(loop._descend, run, ((n, True),), devs, devs, t_first, *args, grads)
    squares = _outcome(loop._descend, run, ((n, False),), devs, devs, t_first, *args)
    got = _outcome(_setup(learner, hyper, R_F, t_first, (n,)).descend, *args, devs, grads)
    if isinstance(want[0], str):
        assert got == want == squares
    else:  # the adapters read the gradient and the squares of the one pass, and its step
        assert _identical(got[:2], want[:2])
        assert _identical(got[2], squares[2])


def _counting_compiles(monkeypatch):
    """The structures compiled from now on: _kernel_source runs once per
    compile, and the compile cache starts empty."""
    compiled, source = [], learner_module._kernel_source
    monkeypatch.setattr(learner_module, "_kernel_source", lambda *s: compiled.append(s) or source(*s))
    learner_module._compile.cache_clear()
    return compiled


def test_a_training_run_compiles_its_kernel_once(monkeypatch):
    compiled = _counting_compiles(monkeypatch)
    result = train(HyperParams(SPEC, episodes=300), NormalIID(0.025, 0.0577), R_F, make_rng(1))
    assert len(result.history) == 300
    assert len(compiled) == 1


def test_a_backtest_decade_compiles_one_learning_kernel_per_learner(monkeypatch):
    """Its six cells (three targets, two learners) and their frozen test
    windows share one kernel per learner: the targets' floats are bound at
    run time, not compiled in."""
    compiled = _counting_compiles(monkeypatch)
    series = load_monthly_csv(bundled_monthly_csv_path(), 0.02)
    rows = rolling_backtest(series, RollingSpec(test_years=(2004,)), HyperParams(SPEC, episodes=50),
                            R_F, seed=1)
    assert len(rows) == 6
    per_learner = Counter(structure[1:4] for structure in compiled)  # shift, compounding, hold_phi1
    assert sorted(per_learner.values()) == [1, 1]
    assert (DISCRETE.shift, DISCRETE.compounding, DISCRETE.hold_phi1) in per_learner


def _sources(learner, T, t_first, passes, training):
    """The structure's sources, run's keyword-only constants those _setup binds at T."""
    bound = tuple(_setup(learner, HyperParams(SPEC._replace(T=T)), R_F).run.__kwdefaults__)
    return _kernel_source(T, learner.shift, learner.compounding, learner.hold_phi1, t_first, passes,
                          training, bound)


def _training_passes(T, prefix_updates=True):
    return tuple(range(1, T + 1)) if prefix_updates else (T,)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_no_generated_source_grows_faster_than_the_horizon(algorithm):
    """The training loop holds every pass of an episode, and the growing
    prefixes hold T (T + 1) / 2 residuals; still, from T = 48 to T = 96
    neither the kernel's whole source nor its longest function more than
    doubles in lines."""
    def lines(T):
        sources = _sources(LEARNERS[algorithm], T, 0, _training_passes(T), True)
        per_function = [source.count("\n") for source in sources]
        return sum(per_function), max(per_function)

    (total, longest), (total_2x, longest_2x) = lines(48), lines(96)
    assert total_2x <= 2 * total and longest_2x <= 2 * longest


def _structures(T):
    """(t_first, passes, training) of training runs with and without prefix
    updates, of the one-pass structures of the sample adapters, and of the
    policy alone and with its rollout."""
    structures = [(0, _training_passes(T, prefix_updates), True) for prefix_updates in (True, False)]
    structures += [(t_first, (n,), False) for t_first in (0, T - 1) for n in (0, 1)]
    return structures + [(0, (), False), (0, (), True)]


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_the_generated_source_is_python_3_10(algorithm):
    """The package supports Python 3.10 (pyproject.toml) and no linter reads
    the generated functions, so each one of every structure (_structures)
    parses with the 3.10 grammar.  A syntax check only."""
    for T in (1, 2, 12):
        for t_first, passes, training in _structures(T):
            for source in _sources(LEARNERS[algorithm], T, t_first, passes, training):
                ast.parse(source, feature_version=(3, 10))


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_both_learners_share_one_float_order(algorithm):
    """Either learner's generated functions weight q_t as e2_k * d_t * d_t,
    e2_k = e2**(T - t) by multiplication, and square T as T**2: none takes
    an exp(-2.0 * phi2 * k) per weight, names a squared deviation dd_t or
    forms theta4 from T * T."""
    for T in (1, 3, 12):
        for t_first, passes, training in _structures(T):
            for source in _sources(LEARNERS[algorithm], T, t_first, passes, training):
                names = {node.id for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Name)}
                assert "exp(-2.0 * phi2 *" not in source
                assert not [name for name in names if name.startswith("dd")]
                assert "theta4 = " not in source or f"theta4 = -theta2 * {T ** 2} - " in source


def _residuals_per_episode(learner, T, prefix_updates, episodes=3, start="res = "):
    """The residuals the generated run evaluates per episode: the line
    events of its residual lines (or of those that begin with start) over a
    few episodes that do not diverge, counted by a tracer."""
    hyper = HyperParams(SPEC._replace(T=T), prefix_updates=prefix_updates)
    kernel = _setup(learner, hyper, R_F)
    source = _sources(learner, T, 0, _training_passes(T, prefix_updates), True)[2]
    residual = {k for k, line in enumerate(source.splitlines(), 1) if line.lstrip().startswith(start)}
    code, counted = kernel.run.__code__, []

    def trace(frame, event, arg):
        if frame.f_code is not code:
            return None
        if event == "line" and frame.f_lineno in residual:
            counted.append(frame.f_lineno)
        return trace

    v, kept = _values(learner, learner.cold_start(hyper.spec, R_F, 1.0, 0.01))
    sys.settrace(trace)
    try:
        kernel.run(v, LagrangeState(SPEC.b, 0.05), [[0.01] * T + [0.5] * T] * episodes, kept, None)
    finally:
        sys.settrace(None)
    return len(counted) / episodes


def _episode_loop(learner, T):
    """The generated training run's syntax tree at T (prefix updates on), its
    episode loop, and its pass forms: the loop over the passes before the
    last, where there are any, and the last pass's statements as a module."""
    (run,) = ast.parse(_sources(learner, T, 0, _training_passes(T), True)[2]).body
    (episodes,) = [node for node in run.body if isinstance(node, ast.For)]
    (attempt,) = [node for node in episodes.body if isinstance(node, ast.Try)]
    lines = [ast.unparse(node) for node in attempt.body]
    first = next(k for k, line in enumerate(lines) if line.startswith("g_t2 = g_t3 = g_p2 = "))
    end = next(k for k, line in enumerate(lines) if line.startswith("theta4 = "))
    looped = [node for node in attempt.body[:first] if isinstance(node, ast.For)]
    return run, episodes, [*looped, ast.Module(attempt.body[first:end], [])]


@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("T", [1, 3, 12])
def test_the_last_pass_alone_sums_the_squares_in_straight_line(algorithm, T):
    """run sums the squared residuals only in its last pass, whose sum the
    divergence check reads: `sq +=` appears T times, once per transition of
    the last pass, so an episode evaluates T of them, not T (T + 1) / 2.  The
    last pass is straight-line, no while loop and no `if n ==` break, and
    the episode loop unpacks each row of draws, the T returns and then the T
    policy normals, in its for target."""
    learner = LEARNERS[algorithm]
    run, episodes, forms = _episode_loop(learner, T)
    squares = [n for n in ast.walk(run) if isinstance(n, ast.AugAssign) and ast.unparse(n.target) == "sq"]
    assert len(squares) == T and _residuals_per_episode(learner, T, True, start="sq += ") == T
    assert [n for n in ast.walk(forms[-1]) if isinstance(n, ast.AugAssign)
            and ast.unparse(n.target) == "sq"] == squares
    assert not [n for n in ast.walk(forms[-1]) if isinstance(n, (ast.While, ast.For))]
    assert "if n ==" not in ast.unparse(forms[-1])
    assert len(forms) == (2 if T > 1 else 1)
    target = episodes.target
    assert isinstance(target, ast.Tuple) and [type(node) for node in target.elts] == [ast.Name, ast.Tuple]
    assert [node.id for node in target.elts[1].elts] == [f"{x}{t}" for x in "rz" for t in range(T)]


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_the_training_loop_evaluates_only_its_step_passes(algorithm):
    """Per episode the generated run evaluates the residuals of its step
    passes and no more, T (T + 1) / 2 with prefix updates and T without:
    its divergence check reads the last step pass's squares.  The check
    calls no isfinite."""
    learner = LEARNERS[algorithm]
    for T in (1, 2, 3, 7):
        assert _residuals_per_episode(learner, T, True) == T * (T + 1) / 2
        assert _residuals_per_episode(learner, T, False) == T
    assert "isfinite" not in _setup(learner, HyperParams(SPEC), R_F).run.__code__.co_names


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_run_reads_no_constant_as_a_global_and_centers_only_where_w_moves(algorithm):
    """run binds every name _setup gives the kernel as a keyword-only default,
    so the only globals it reads are builtins; and it forms rho_t * w, the
    centers and the first deviation, only before its episode loop and in the
    branch after a refresh moves w, not once per episode."""
    learner = LEARNERS[algorithm]
    for T in (1, 3, 12):
        run = _setup(learner, HyperParams(SPEC._replace(T=T)), R_F).run
        constants = set(run.__globals__) - {"__builtins__", "policy", "rollout", "run"}
        loads = {i.argval for i in dis.get_instructions(run) if i.opname == "LOAD_GLOBAL"}
        assert constants <= set(run.__kwdefaults__) and loads <= set(vars(builtins))

        def centers(node):
            return sum(isinstance(n, ast.BinOp) and isinstance(n.op, ast.Mult)
                       and isinstance(n.left, ast.Name) and n.left.id.startswith("rho")
                       and isinstance(n.right, ast.Name) and n.right.id == "w" for n in ast.walk(node))

        (source,) = ast.parse(_sources(learner, T, 0, _training_passes(T), True)[2]).body
        (loop_,) = [node for node in source.body if isinstance(node, ast.For)]
        refresh = [node for node in loop_.body if ast.unparse(node).startswith("if not phase:")]
        assert len(refresh) == 1 and centers(refresh[0]) == T + 1 == centers(source) - centers(loop_)
        assert centers(loop_) == T + 1


@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("T", [3, 12])
def test_the_episode_loop_calls_no_python_function_and_records_once(algorithm, T):
    """Over 25 episodes and two w refreshes, the generated run calls no
    Python function (so no dtmv one: the w correction is inline) and makes
    one call on the record array an episode.  A profiler sees every call run
    makes; the draws are a list, so no generator is resumed."""
    learner = LEARNERS[algorithm]
    hyper = HyperParams(SPEC._replace(T=T))
    kernel = _setup(learner, hyper, R_F)
    v, kept = _values(learner, learner.cold_start(hyper.spec, R_F, hyper.init_phi1, hyper.init_phi2))
    draws = list(episode_draws(_MARKETS["normal"], T, make_rng(5), 25))
    history, lag, calls = array("d"), LagrangeState(v[-1], hyper.alpha), []

    def profile(frame, event, arg):
        if event == "call" and frame.f_back.f_code is kernel.run.__code__:
            calls.append(frame.f_code.co_name)
        elif event == "c_call" and frame.f_code is kernel.run.__code__:
            calls.append(arg)

    sys.setprofile(profile)
    try:
        _, wealths = kernel.run(v, lag, draws, kept, history)
    finally:
        sys.setprofile(None)
    assert len(wealths) == 25 and lag.w != v[-1] and len(history) == 7 * 25
    assert [c for c in calls if isinstance(c, str)] == []
    assert [c.__name__ for c in calls if getattr(c, "__self__", None) is history] == ["frombytes"] * 25


@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("T, prefix_updates", [(1, True), (1, False), (3, False)])
@pytest.mark.parametrize("adapter_first", [False, True])
def test_a_one_pass_training_run_gets_run_not_descend(algorithm, T, prefix_updates, adapter_first):
    """At T = 1, or with prefix updates off, a training run has one pass, as
    a sample adapter's structure does; it still gets run, and the adapter
    descend, whichever of the two is compiled first."""
    learner = LEARNERS[algorithm]
    hyper = HyperParams(SPEC._replace(T=T), prefix_updates=prefix_updates)
    learner_module._compile.cache_clear()
    if adapter_first:
        _setup(learner, hyper, R_F, 0, (T,))
    training, adapter = _setup(learner, hyper, R_F), _setup(learner, hyper, R_F, 0, (T,))
    assert callable(training.run) and training.descend is None
    assert callable(adapter.descend) and adapter.run is None


def _inlined_policy(learner, T, r_f):
    """The policy lines that rollout inlines (run inlines the same standard deviation
    lines), as a function of (phi1, phi2, e2) that returns what the standalone policy
    returns, reading the same globals."""
    lines = _sources(learner, T, 0, (), True)[1].splitlines()
    body = lines[2:next(k for k, line in enumerate(lines) if line.endswith("= row"))]
    source = "\n".join(["def inlined(phi1, phi2, e2):", *body,
                        f"    return slope, ({_names('s', range(T))})"])
    standalone = _setup(learner, HyperParams(SPEC._replace(T=T)), r_f, 0, ()).policy
    names = dict(standalone.__globals__)
    exec(source, names)
    return standalone, names["inlined"]


@settings(max_examples=300, deadline=None)
@given(algorithm=st.sampled_from(ALGORITHMS), T=st.integers(1, 60),
       phi1=st.one_of(_PHI1, st.floats(-400.0, 400.0)), phi2=st.one_of(_PHI2, st.floats(-20.0, 20.0)))
def test_the_standalone_policy_is_the_inlined_policy_bit_for_bit(algorithm, T, phi1, phi2):
    """The standalone policy sets its standard deviations in one loop over
    the exponents, rollout and run one line per period: the slope and every
    standard deviation have the same bits, and where the inlined lines
    raise, the standalone policy raises the same InfeasiblePolicyError, or
    reports the OverflowError as one."""
    learner = LEARNERS[algorithm]
    standalone, inlined = _inlined_policy(learner, T, R_F)
    e2 = math.exp(-2.0 * phi2)
    got, want = _outcome(standalone, phi1, phi2, e2), _outcome(inlined, phi1, phi2, e2)
    if want[0] == "OverflowError":
        want = ("InfeasiblePolicyError", f"phi1={phi1}, phi2={phi2} overflow the policy", "NoneType")
    assert _identical(got, want)


def test_the_standalone_policy_does_not_grow_with_the_horizon():
    """What check_cold_start compiles, the standalone policy, has as many
    lines at T = 60 as at T = 1, so the check's compile cost does not grow
    with the horizon."""
    for learner in LEARNERS.values():
        sizes = {len(_sources(learner, T, 0, (), False)[0].splitlines()) for T in (1, 60)}
        assert len(sizes) == 1 and len(_sources(learner, 60, 0, (), False)) == 1


# 2**-53: a float's relative rounding error, at most its ulp / |float| for a normal float
_U = 2.0**-53


def _descend_locals(learner, T, e2):
    """The locals of one generated descend pass over T transitions (t_first 0),
    as they are when it returns: the weights e2_k among them."""
    kernel = _setup(learner, HyperParams(SPEC._replace(T=T)), R_F, 0, (T,))
    code, seen, previous = kernel.descend.__code__, {}, sys.gettrace()

    def trace(frame, event, arg):
        if frame.f_code is not code:
            return None
        if event == "return":
            seen.update(frame.f_locals)
        return trace

    sys.settrace(trace)
    try:
        kernel.descend(0.0, 0.0, 1.0, 0.5, e2, 1.1, [1.0] * (T + 1), None)
    finally:
        sys.settrace(previous)
    return seen


@settings(max_examples=300, deadline=None)
@given(algorithm=st.sampled_from(ALGORITHMS), T=st.integers(1, 60), phi1=_PHI1, phi2=_PHI2)
def test_the_geometric_forms_differ_from_the_per_term_forms_by_rounding_only(algorithm, T, phi1, phi2):
    """The policy's standard deviations are a geometric sequence and the value
    weights chained products, where each was formed from its own exp or
    power: the two differ by rounding alone.

    The standard deviation s_t at exponent k = T - t - 1 + shift is
    ((half / root_two_pi) * g) * ... * g, with half = exp(phi1 - 0.5) and
    g = exp(phi2): phi1 - 0.5 is rounded (|phi1| + 0.5 units u = 2**-53 of
    relative error after the exp), the exp's within an ulp (2u), the root and
    the division one u each, and each of the k factors g brings 2u and its
    product u: (|phi1| + 3k + 4.5) u.  The per-term form sqrt(exp(p2 * k +
    p1 - 1) / two_pi) rounds its exponent three times (6k|phi2| + 4|phi1| + 1
    u of relative error after the exp), takes the exp's 2u and the
    division's u, and the root halves that and adds u: (3k|phi2| + 2|phi1| +
    3) u.  So, where both are normal floats, they are within (3k + 9 +
    3|phi1| + 3k|phi2|) u of s_t, one u of slack for the products of errors.
    The weight e2_k = e2**k, formed as e2 * e2 * ... * e2, carries k - 1
    rounding errors, and pow is within an ulp: within k ulp of e2**k."""
    learner = LEARNERS[algorithm]
    e2 = math.exp(-2.0 * phi2)
    got = _outcome(_setup(learner, HyperParams(SPEC._replace(T=T)), R_F, 0, ()).policy, phi1, phi2, e2)
    if not isinstance(got[0], str):
        for t, s in enumerate(got[1]):
            k = T - t - 1 + learner.shift
            try:
                want = math.sqrt(math.exp(2.0 * phi2 * k + 2.0 * phi1 - 1.0) / (2.0 * math.pi))
            except OverflowError:
                continue
            if want >= sys.float_info.min:
                assert abs(s - want) <= (3 * k + 9 + 3 * abs(phi1) + 3 * k * abs(phi2)) * _U * want
    weights = _descend_locals(learner, T, e2)
    for k in range(2, T + 1):
        assert abs(weights[f"e2_{k}"] - e2**k) <= k * math.ulp(e2**k)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("T", [3, 12])
def test_the_episode_loop_takes_one_exp_per_pass_and_no_power_in_its_passes(algorithm, T):
    """Per episode the generated run takes one exp in its policy, g = exp(phi2)
    (and half = exp(phi1 - 0.5) for the comparator, whose phi1 moves; the
    discrete learner's is taken once per run), one per pass, e2 after its
    step, and no float power in the pass loop; sqrt only in the slope."""
    learner = LEARNERS[algorithm]
    run, episodes, forms = _episode_loop(learner, T)
    passes = ast.Module(forms, [])  # the loop over the earlier passes and the last pass

    def calls(node, name):
        return sum(isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id == name
                   for n in ast.walk(node))

    assert calls(episodes, "exp") - calls(passes, "exp") == (1 if learner.hold_phi1 else 2)
    for form in forms:
        assert calls(form, "exp") == 1
    assert not [n for n in ast.walk(passes) if isinstance(n, ast.BinOp) and isinstance(n.op, ast.Pow)]
    rooted = [n for n in ast.walk(run) if isinstance(n, ast.Assign) and calls(n, "sqrt")]
    assert [ast.unparse(n.targets[0]) for n in rooted] == ["slope"]


def _old_decision(a):
    """What the per-term form decided for a variance exp(a) / (2 pi)."""
    try:
        return "ok" if math.exp(a) / (2.0 * math.pi) > 0.0 else "underflow"
    except OverflowError:
        return "overflow"


@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("a, old, new", [
    (709.7, "ok", "ok"),
    (709.9, "overflow", "ok"),  # ln(max float) < a <= ln(max float) + ln(2 pi)
    (711.5, "overflow", "ok"),
    (711.7, "overflow", "overflow"),
    (-743.1, "ok", "ok"),
    (-743.25, "underflow", "ok"),  # the variance a subnormal float, not 0.0
    (-743.4, "underflow", "underflow"),
])
def test_the_policy_decides_on_the_squares_of_its_extreme_deviations(algorithm, a, old, new):
    """At T = 2 and phi2 = 0.01, phi1 puts the largest variance exponent a =
    2 phi2 k + 2 phi1 - 1 (or, below 0, the smallest) at a.  The policy is
    infeasible where the square of an end term of its standard deviations
    overflows or underflows to 0.0: the standalone policy raises as it did
    (check_cold_start), and run diverges at the first episode with the
    OverflowError or the InfeasiblePolicyError.  Where the per-term form
    took exp(a), which overflows from ln(max float), and divided by 2 pi,
    the two decide differently in two bands: a in (709.78, 711.62], and a
    in about (-743.30, -743.19], where exp(a) / (2 pi) underflowed to 0.0
    and the square is a subnormal float."""
    learner, phi2 = LEARNERS[algorithm], 0.01
    k = 1 + learner.shift if a > 0.0 else learner.shift
    phi1 = (a + 1.0 - 2.0 * phi2 * k) / 2.0
    hyper = HyperParams(SPEC._replace(T=2), init_phi1=phi1, init_phi2=phi2)
    assert _old_decision(a) == old
    cold = _outcome(check_cold_start, learner, hyper, R_F)
    v, kept = _values(learner, learner.cold_start(hyper.spec, R_F, phi1, phi2))
    kernel = _setup(learner, hyper, R_F)
    ran = _outcome(kernel.run, v, LagrangeState(v[-1], 0.05), [[0.0] * 4], kept, None)
    if new == "ok":
        assert cold is None and len(ran[1]) == 1
    else:
        why = {"overflow": ("overflow the policy", "OverflowError: math range error"),
               "underflow": ("variance is 0.0", "InfeasiblePolicyError: the policy variance is 0.0")}[new]
        assert cold[0] == "InfeasiblePolicyError" and why[0] in cold[1]
        assert ran[0] == "TrainingDivergedError" and f"at episode 1 ({why[1]};" in ran[1]


def test_a_fresh_sample_episode_compiles_no_training_loop(monkeypatch):
    """sample_episode compiles the policy and the rollout, which it calls,
    and no run; and rolls out as the training structure's rollout does."""
    compiled = []

    def recording(*structure):
        compiled.append(_kernel_source(*structure))
        return compiled[-1]

    spec, phi, model = SPEC._replace(T=60), PolicyParams(1.0, 0.01), NormalIID(0.004, 0.02)
    learner_module._compile.cache_clear()
    monkeypatch.setattr(learner_module, "_kernel_source", recording)
    episode = sample_episode(phi, 1.1, model, spec, R_F, make_rng(3))
    assert [[source.split("(")[0] for source in sources] for sources in compiled] == [
        ["def policy", "def rollout"]]
    draws = make_rng(3)
    returns, z = model.a + model.sigma * draws.standard_normal(60), draws.standard_normal(60)
    v = (math.exp(-2.0 * phi.phi2), 0.0, 0.0, 0.0, phi.phi1, phi.phi2, 1.1)
    wealth, controls = _setup(DISCRETE, HyperParams(spec), R_F).rollout(v, returns.tolist() + z.tolist())
    assert _identical((episode.wealth, episode.controls), (wealth, controls))


def test_a_fresh_cost_call_compiles_no_rollout(monkeypatch):
    """The sample adapters call only descend: a fresh cost call compiles the
    policy and the descend, and no rollout."""
    compiled = []

    def recording(*structure):
        compiled.append(_kernel_source(*structure))
        return compiled[-1]

    learner_module._compile.cache_clear()
    monkeypatch.setattr(learner_module, "_kernel_source", recording)
    samples = [(t, 1.0 + 0.01 * t) for t in range(61)]
    cost(samples, ValueParams(0.99, 0.0, 0.0, 0.0), PolicyParams(1.0, 0.01), 1.1, SPEC._replace(T=60), R_F)
    assert [[source.split("(")[0] for source in sources] for sources in compiled] == [
        ["def policy", "def descend"]]


@settings(max_examples=60, deadline=None)
@given(algorithm=st.sampled_from(ALGORITHMS), market=st.sampled_from(["normal", "skewt"]),
       T=st.integers(1, 4), episodes=st.integers(1, 80), seed=st.integers(0, 2**32 - 1),
       data=st.data())
def test_the_columnar_log_is_the_json_dumps_log_of_the_reference_records(
    algorithm, market, T, episodes, seed, data
):
    """A run's History writes, through train's log writer, the line
    json.dumps writes with sorted keys for each of its records; those records
    are the reference driver's over the loop kernel on the same draws; and
    the History indexes, slices and counts as the tuple of its records."""
    learner, model = LEARNERS[algorithm], _MARKETS[market]
    hyper = HyperParams(SPEC._replace(T=T))
    draws = list(episode_draws(model, T, make_rng(seed), episodes))
    v, kept = _values(learner, learner.cold_start(hyper.spec, R_F, hyper.init_phi1, hyper.init_phi2))
    want = _outcome(_driven, functools.partial(loop._learn, loop._setup(learner, hyper, R_F)), learner,
                    v, LagrangeState(v[-1], hyper.alpha), draws, kept, True)
    result = _outcome(run_episodes, learner, hyper, R_F, draws)
    if isinstance(want[0], str):
        assert result == want
        return
    history = result.history
    records = tuple(history)
    assert _identical(list(records), want[1])
    assert list(_ndjson_lines(learner.record, history.columns())) == [
        json.dumps(rec._asdict(), sort_keys=True) + "\n" for rec in records]
    index = data.draw(st.integers(-episodes, episodes - 1))
    window = data.draw(st.slices(episodes + 2))
    assert len(history) == len(records) == episodes
    assert history[index] == records[index] and history[window] == records[window]
    for outside in (episodes, -episodes - 1):
        with pytest.raises(IndexError):
            history[outside]
