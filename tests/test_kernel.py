"""The generated episode kernel against the loop kernel it replaced
(reference_kernel.py), float for float, and how often a run compiles it."""

import math
from collections import Counter
from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

import reference_kernel as loop
from dtmv import learner as learner_module
from dtmv.analytic import ProblemSpec
from dtmv.evaluation import ALGORITHMS, LEARNERS, RollingSpec, rolling_backtest
from dtmv.learner import DISCRETE, HyperParams, LagrangeState, _setup, train
from dtmv.market import NormalIID, bundled_monthly_csv_path, load_monthly_csv, make_rng

SPEC = ProblemSpec(T=3, x0=1.0, b=1.1, lam=2.0)
R_F = 1.0 + 0.02 / 12.0


def _identical(got, want) -> bool:
    """got == want, and the same repr: every float keeps its bits, the sign
    of a zero included (and a NaN, which == cannot match, stays a NaN)."""
    return repr(got) == repr(want) and (got == want or "nan" in repr(want))


def _outcome(fn, *args):
    """fn's result, or the type and message of what it raised."""
    try:
        return fn(*args)
    except (ArithmeticError, ValueError) as exc:
        return type(exc).__name__, str(exc)


_FLOATS = st.floats(-0.3, 0.3)
# mostly feasible policies, some below either learner's phi2 floor, some
# whose scale overflows exp
_PHI1 = st.one_of(st.floats(-0.5, 1.5), st.floats(300.0, 400.0))
_PHI2 = st.one_of(st.floats(0.01, 0.3), st.floats(-0.05, 0.01))
_LAM = st.floats(0.1, 8.0)
_ETAS = st.tuples(*[st.floats(1e-4, 0.5)] * 2)  # (eta_theta, eta_phi)


@settings(max_examples=200, deadline=None)
@given(
    algorithm=st.sampled_from(ALGORITHMS),
    T=st.integers(1, 12),
    prefix_updates=st.booleans(),
    refresh_every=st.integers(1, 5),
    recorded=st.integers(0, 5),
    theta=st.tuples(_FLOATS, _FLOATS),
    phi1=_PHI1,
    phi2=_PHI2,
    w=st.floats(0.9, 1.6),
    lam=_LAM,
    etas=_ETAS,
    data=st.data(),
)
def test_generated_episode_equals_the_loop_kernel(
    algorithm, T, prefix_updates, refresh_every, recorded, theta, phi1, phi2, w, lam, etas, data
):
    """One learning episode and one frozen rollout of the generated kernel
    give the loop kernel's wealths, controls, values after the episode, cost
    and Lagrange state, or raise what it raises, for either learner at any
    horizon, pass list and point in the w refresh cycle."""
    rets = data.draw(st.lists(st.floats(-0.2, 0.2), min_size=T, max_size=T))
    z = data.draw(st.lists(st.floats(-4.0, 4.0), min_size=T, max_size=T))
    learner = LEARNERS[algorithm]
    hyper = HyperParams(replace(SPEC, T=T, lam=lam), *etas, refresh_every=refresh_every,
                        prefix_updates=prefix_updates)
    v = (math.exp(-2.0 * phi2), *theta, 0.0, phi1, phi2, w)
    wealths = [1.0 + 0.01 * k for k in range(recorded)]
    want_lag, got_lag = LagrangeState(w, 0.05, list(wealths)), LagrangeState(w, 0.05, list(wealths))
    run, kernel = loop._setup(learner, hyper, R_F), _setup(learner, hyper, R_F)

    want = _outcome(loop._episode, run, v, want_lag, rets, z, True)
    got = _outcome(kernel.learn, v, got_lag, rets, z)
    if isinstance(want[0], str):  # raised
        assert got == want
    else:
        wealth, _, values, cost = want
        assert _identical(got, (values, cost, wealth[-1]))
    assert _identical(vars(got_lag), vars(want_lag))

    want = _outcome(loop._episode, run, v, None, rets, z, False)
    got = _outcome(kernel.rollout, v, rets, z)
    assert _identical(got, want if isinstance(want[0], str) else (tuple(want[0]), tuple(want[1])))


@settings(max_examples=300, deadline=None)
@given(
    algorithm=st.sampled_from(ALGORITHMS),
    T=st.integers(1, 12),
    step=st.booleans(),
    theta=st.tuples(_FLOATS, _FLOATS),
    phi1=st.floats(-0.5, 1.5),
    phi2=_PHI2,
    w=st.floats(0.9, 1.6),
    lam=_LAM,
    etas=_ETAS,
    data=st.data(),
)
def test_generated_pass_equals_the_loop_kernel(algorithm, T, step, theta, phi1, phi2, w, lam, etas,
                                               data):
    """The one pass of the sample adapters (the n transitions from period
    t_first, a step on given grads for apply_updates) gives the loop
    kernel's values, gradient and summed squares."""
    t_first = data.draw(st.integers(0, T))
    n = data.draw(st.integers(0, T - t_first))
    devs = data.draw(st.lists(st.floats(-2.0, 2.0), min_size=n + 1, max_size=n + 1))
    grads = data.draw(st.none() | st.tuples(*[st.floats(-1.0, 1.0)] * 4)) if step else None
    learner, hyper = LEARNERS[algorithm], HyperParams(replace(SPEC, T=T, lam=lam), *etas)
    args = (theta[0], theta[1], phi1, phi2, math.exp(-2.0 * phi2), w)
    want = _outcome(loop._descend, loop._setup(learner, hyper, R_F), ((n, step),), devs, devs,
                    t_first, *args, grads)
    kernel = _setup(learner, hyper, R_F, t_first, ((n, step),))
    got = _outcome(kernel.descend, *args, devs, devs, grads)
    if isinstance(want[0], str):
        assert got == want
    else:  # the adapters read the gradient of a step pass, the squares of the others
        assert _identical(got[0], want[0])
        assert _identical(got[1] if step else got[2], want[1] if step else want[2])


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
