"""Tests for the episodic learner: parametric surfaces, gradients, training."""

import gc
import math
import os
import re
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dtmv.analytic import GaussianPolicy, MarketModel, ProblemSpec, gaussian_entropy
from dtmv.baseline import (
    ALGORITHM_CONTINUOUS,
    BaselineParams,
    baseline_cost,
    baseline_gradients,
    baseline_train,
)
from dtmv.evaluation import ALGORITHMS, LEARNERS, Cell, train_cell
from dtmv.learner import (
    ALGORITHM_DISCRETE,
    DISCRETE,
    _setup,
    DiscreteParams,
    Episode,
    HyperParams,
    InfeasiblePolicyError,
    LagrangeState,
    PolicyParams,
    TrainingDivergedError,
    ValueParams,
    apply_updates,
    check_cold_start,
    cold_start,
    cost,
    grad_phi,
    grad_theta,
    load_checkpoint,
    run_episodes,
    sample_episode,
    save_checkpoint,
    train,
)
from dtmv.market import (
    _DRAW_BLOCK,
    Historical,
    NormalIID,
    SkewTIID,
    annualize_market,
    bundled_monthly_csv_path,
    load_monthly_csv,
    make_rng,
    sample_path,
    step_wealth,
)
from reference_draws import block_draws
from reference_kernel import update_w

SPEC = ProblemSpec(T=3, x0=1.0, b=1.1, lam=2.0)
R_F = 1.0 + 0.02 / 12.0
DEFAULTS = HyperParams(SPEC)
COLD_STARTS = {
    algorithm: LEARNERS[algorithm].cold_start(SPEC, R_F, DEFAULTS.init_phi1, DEFAULTS.init_phi2)
    for algorithm in ALGORITHMS
}
COLD = COLD_STARTS[ALGORITHM_DISCRETE]


def _random_params(rng, r_f=R_F):
    phi2 = float(rng.uniform(-math.log(r_f) + 0.005, 0.3))
    phi = PolicyParams(float(rng.uniform(-0.5, 1.5)), phi2)
    theta = ValueParams(
        math.exp(-2.0 * phi2),
        float(rng.uniform(-0.3, 0.3)),
        float(rng.uniform(-0.3, 0.3)),
        float(rng.uniform(-0.3, 0.3)),
    )
    return theta, phi


def _random_samples(rng, T):
    t0 = int(rng.integers(0, T))
    length = int(rng.integers(2, T - t0 + 2))
    ts = range(t0, min(t0 + length, T + 1))
    return [(t, float(rng.uniform(0.2, 2.5))) for t in ts]


def _policy(learner, phi1, phi2, t, x, w, spec=SPEC, r_f=R_F):
    """The learner's Gaussian control density at state (t, x): its kernel's
    policy around the center of w at period t, of the standard deviation it gives."""
    kernel = _setup(learner, HyperParams(spec), r_f)
    slope, deviations = kernel.policy(phi1, phi2, math.exp(-2.0 * phi2))
    return GaussianPolicy(slope * (x - kernel.rhos[t] * w), deviations[t] * deviations[t])


# ---------------------------------------------------------------------------
# parametric policy and cold start
# ---------------------------------------------------------------------------


def test_policy_from_params_formula():
    phi = PolicyParams(0.8, 0.05)
    t, x, w = 1, 1.4, 1.25
    pol = _policy(DISCRETE, phi.phi1, phi.phi2, t, x, w)
    gap = R_F**2 - math.exp(-0.1)
    dev = x - R_F ** -(SPEC.T - t) * w
    assert pol.mean == pytest.approx(
        -math.sqrt(gap / (SPEC.lam * math.pi)) * math.exp(0.3) * dev, rel=1e-14
    )
    assert pol.variance == pytest.approx(
        math.exp(2.0 * 0.05 * (SPEC.T - t - 1) + 0.6) / (2.0 * math.pi), rel=1e-14
    )


def test_policy_mean_sign_opposes_the_deviation():
    phi = PolicyParams(1.0, 0.01)
    above = _policy(DISCRETE, phi.phi1, phi.phi2, 0, 2.0, 1.1)
    below = _policy(DISCRETE, phi.phi1, phi.phi2, 0, 0.5, 1.1)
    assert above.mean < 0.0 < below.mean


def test_policy_requires_feasible_phi2():
    with pytest.raises(InfeasiblePolicyError):
        _policy(DISCRETE, 1.0, -math.log(R_F) - 1e-6, 0, 1.0, 1.1)


def test_policy_entropy_is_the_gaussian_entropy_of_the_variance():
    # the discrete learner's parametrization: entropy phi1 + phi2 * (T - t - 1)
    rng = make_rng(31, 0)
    for _ in range(50):
        _, phi = _random_params(rng)
        t = int(rng.integers(0, SPEC.T))
        pol = _policy(DISCRETE, phi.phi1, phi.phi2, t, float(rng.uniform(0, 2)), 1.2)
        entropy = phi.phi1 + phi.phi2 * (SPEC.T - t - 1)
        assert abs(entropy - gaussian_entropy(pol.variance)) <= 1e-12


def test_policy_entropy_is_linear_in_time_to_go():
    ents = [gaussian_entropy(_policy(DISCRETE, 0.4, 0.07, t, 1.0, 1.1).variance)
            for t in range(SPEC.T)]
    diffs = [a - b for a, b in zip(ents, ents[1:])]
    assert all(d == pytest.approx(0.07, rel=1e-12) for d in diffs)


def test_default_params_link_theta1_to_phi2():
    theta, phi = COLD.theta, COLD.phi
    assert (phi.phi1, phi.phi2) == (1.0, 0.01)
    assert theta.theta1 == pytest.approx(math.exp(-0.02), rel=1e-15)
    assert (theta.theta2, theta.theta3, theta.theta4) == (0.0, 0.0, 0.0)
    with pytest.raises(InfeasiblePolicyError):  # phi2=0.01 is below the floor for r_f=0.95
        cold_start(SPEC, 0.95, DEFAULTS.init_phi1, DEFAULTS.init_phi2)


# ---------------------------------------------------------------------------
# episode sampling
# ---------------------------------------------------------------------------


def test_episode_validation():
    with pytest.raises(ValueError):
        Episode((1.0, 1.1), (0.5, 0.5), (0.01,))
    ep = Episode((1.0, 1.1, 1.2), (0.5, 0.4), (0.01, 0.02))
    assert ep.terminal_wealth == 1.2


def test_sample_episode_replays_the_wealth_recursion_exactly():
    model = NormalIID(0.025, 0.0577)
    phi = COLD.phi
    ep = sample_episode(phi, 1.2, model, SPEC, R_F, make_rng(41, 0))
    assert len(ep.wealth) == SPEC.T + 1 and ep.wealth[0] == SPEC.x0
    for t in range(SPEC.T):
        assert ep.wealth[t + 1] == step_wealth(
            ep.wealth[t], ep.controls[t], ep.returns[t], R_F
        )


def test_sample_episode_is_reproducible():
    model = NormalIID(0.025, 0.0577)
    phi = COLD.phi
    a = sample_episode(phi, 1.2, model, SPEC, R_F, make_rng(5, 1))
    b = sample_episode(phi, 1.2, model, SPEC, R_F, make_rng(5, 1))
    assert a == b


# ---------------------------------------------------------------------------
# cost and gradients
# ---------------------------------------------------------------------------


def _cost_reference(samples, theta, phi, w, spec, r_f):
    # independent vectorized recomputation of the residual cost
    ts = np.array([t for t, _ in samples], dtype=float)
    xs = np.array([x for _, x in samples])
    dev = xs - r_f ** -(spec.T - ts) * w
    q = np.exp(-2.0 * phi.phi2) ** (spec.T - ts) * dev**2
    res = (
        q[1:]
        - q[:-1]
        + theta.theta2 * (2.0 * ts[:-1] + 1.0)
        + theta.theta3
        - spec.lam * (phi.phi1 + phi.phi2 * (spec.T - ts[:-1] - 1.0))
    )
    return 0.5 * float(np.sum(res**2))


def test_cost_matches_independent_reimplementation():
    rng = make_rng(7, 0)
    for _ in range(60):
        theta, phi = _random_params(rng)
        samples = _random_samples(rng, SPEC.T)
        w = float(rng.uniform(0.9, 1.6))
        assert cost(samples, theta, phi, w, SPEC, R_F) == pytest.approx(
            _cost_reference(samples, theta, phi, w, SPEC, R_F), rel=1e-12, abs=1e-15
        )


def test_cost_of_no_transitions_is_zero():
    theta, phi = COLD.theta, COLD.phi
    assert cost([], theta, phi, 1.1, SPEC, R_F) == 0.0
    assert cost([(0, 1.0)], theta, phi, 1.1, SPEC, R_F) == 0.0


def test_cost_rejects_nonconsecutive_periods():
    theta, phi = COLD.theta, COLD.phi
    with pytest.raises(ValueError, match="consecutive"):
        cost([(0, 1.0), (2, 1.1)], theta, phi, 1.1, SPEC, R_F)


def _learner_params(algorithm, theta2, theta3, theta4, phi1, phi2, w):
    if algorithm == ALGORITHM_DISCRETE:
        theta = ValueParams(math.exp(-2.0 * phi2), theta2, theta3, theta4)
        return DiscreteParams(theta, PolicyParams(phi1, phi2), w)
    return BaselineParams(theta2, theta3, theta4, phi1, phi2, w)


def _public_gradients(algorithm, samples, params, spec):
    if algorithm == ALGORITHM_DISCRETE:
        args = (samples, params.theta, params.phi, params.w, spec, R_F)
        return grad_theta(*args) + grad_phi(*args)
    return baseline_gradients(samples, params, spec)


def _public_cost(algorithm, samples, params, spec):
    if algorithm == ALGORITHM_DISCRETE:
        return cost(samples, params.theta, params.phi, params.w, spec, R_F)
    return baseline_cost(samples, params, spec)


def _residuals(algorithm, T, w, wealth):
    """The shared residual pass (the generated kernel's descend) of a learner
    at horizon T on the deviations of the states wealth from its centers at
    w: f(n, gradient, theta2, theta3, phi1, phi2) is the gradient of the cost
    of the first n transitions with gradient set, else half their summed
    squared residual, both from the one pass over them."""
    spec = SPEC._replace(T=T)
    rhos = _setup(LEARNERS[algorithm], HyperParams(spec), R_F).rhos
    devs = [x - rho * w for x, rho in zip(wealth, rhos)]

    def f(n, gradient, theta2, theta3, phi1, phi2):
        e2 = math.exp(-2.0 * phi2)
        kernel = _setup(LEARNERS[algorithm], HyperParams(spec), R_F, 0, (n,))
        _, grads, sq = kernel.descend(theta2, theta3, phi1, phi2, e2, w, devs[: n + 1], None)
        return grads if gradient else 0.5 * sq

    return spec, f


# the states of one episode at a horizon T of 1..12
_EPISODE_WEALTHS = st.integers(1, 12).flatmap(
    lambda T: st.lists(st.floats(0.2, 2.5), min_size=T + 1, max_size=T + 1)
)


@settings(max_examples=150, deadline=None)
@given(
    algorithm=st.sampled_from(ALGORITHMS),
    theta=st.tuples(*[st.floats(-0.3, 0.3)] * 2),
    phi1=st.floats(-0.5, 1.5),
    phi2=st.floats(0.01, 0.3),  # above both learners' phi2 floors
    w=st.floats(0.9, 1.6),
    wealth=_EPISODE_WEALTHS,
)
def test_gradients_match_central_finite_differences(algorithm, theta, phi1, phi2, w, wealth):
    """The shared residual function's gradient over a whole episode, with
    either learner's constants, equals central differences of its cost in
    (theta2, theta3, phi1, phi2); its phi1 partial is exactly -lam times its
    theta3 partial."""
    T = len(wealth) - 1
    _, f = _residuals(algorithm, T, w, wealth)
    h = 1e-6
    base = (theta[0], theta[1], phi1, phi2)
    grads = f(T, True, *base)
    assert grads[2] == -SPEC.lam * grads[1]
    for idx, got in enumerate(grads):
        up, dn = list(base), list(base)
        up[idx] += h
        dn[idx] -= h
        fd = (f(T, False, *up) - f(T, False, *dn)) / (2.0 * h)
        assert abs(got - fd) <= 1e-5 * max(1.0, abs(fd)), (idx, got, fd)


@settings(max_examples=100, deadline=None)
@given(
    algorithm=st.sampled_from(ALGORITHMS),
    theta=st.tuples(*[st.floats(-0.3, 0.3)] * 3),
    phi1=st.floats(-0.5, 1.5),
    phi2=st.floats(0.01, 0.3),
    w=st.floats(0.9, 1.6),
    wealth=_EPISODE_WEALTHS,
    n=st.integers(0, 12),
)
def test_prefix_hooks_equal_the_public_functions(algorithm, theta, phi1, phi2, w, wealth, n):
    """On the first n transitions of an episode, the shared residual
    function that the kernel's prefix updates run returns exactly the public
    gradients of the (t, x) samples 0..n; on all of them it returns exactly
    the public cost."""
    T = len(wealth) - 1
    n = min(n, T)
    spec, f = _residuals(algorithm, T, w, wealth)
    params = _learner_params(algorithm, *theta, phi1, phi2, w)
    samples = list(enumerate(wealth))
    assert f(n, True, *theta[:2], phi1, phi2) == _public_gradients(
        algorithm, samples[: n + 1], params, spec
    )
    assert f(T, False, *theta[:2], phi1, phi2) == _public_cost(algorithm, samples, params, spec)


def test_gradient_of_empty_samples_is_zero():
    theta, phi = COLD.theta, COLD.phi
    assert grad_theta([], theta, phi, 1.1, SPEC, R_F) == (0.0, 0.0)
    assert grad_phi([], theta, phi, 1.1, SPEC, R_F) == (0.0, 0.0)


# ---------------------------------------------------------------------------
# parameter updates
# ---------------------------------------------------------------------------


def test_apply_updates_steps_and_pins_constrained_coefficients():
    theta, phi = COLD.theta, COLD.phi
    new_theta, new_phi = apply_updates(
        theta, phi, (1.0, -2.0, 3.0, -0.5), 0.01, 0.02, 1.2, SPEC, R_F
    )
    assert new_theta.theta2 == pytest.approx(-0.01)
    # theta3 also takes the move of theta3 - lam * phi1 that phi1 would make
    assert new_theta.theta3 == pytest.approx(0.02 + SPEC.lam * 0.02 * 3.0)
    assert new_phi.phi1 == 1.0
    assert new_phi.phi2 == pytest.approx(0.01 + 0.01)
    assert new_theta.theta1 == pytest.approx(math.exp(-2.0 * new_phi.phi2), rel=1e-15)
    # the terminal condition: the value at T is (x - w)^2 - (w - b)^2 for any wealth x
    T = SPEC.T
    assert new_theta.theta2 * T**2 + new_theta.theta3 * T + new_theta.theta4 == pytest.approx(
        -((1.2 - SPEC.b) ** 2), rel=1e-12, abs=1e-12
    )


def test_apply_updates_projects_phi2_onto_the_feasible_floor():
    theta, phi = COLD.theta, COLD.phi
    new_theta, new_phi = apply_updates(
        theta, phi, (0.0, 0.0, 0.0, 1e9), 0.0005, 0.0005, 1.1, SPEC, R_F
    )
    assert new_phi.phi2 == -math.log(R_F) + 1e-8
    assert new_theta.theta1 == pytest.approx(math.exp(-2.0 * new_phi.phi2), rel=1e-15)
    assert new_theta.theta1 < R_F**2  # policy stays feasible after projection
    _policy(DISCRETE, new_phi.phi1, new_phi.phi2, 0, 1.0, 1.1)


def test_apply_updates_holds_phi1_and_moves_the_residual_like_a_plain_step():
    rng = make_rng(17, 0)
    for _ in range(40):
        theta, phi = _random_params(rng)
        samples = _random_samples(rng, SPEC.T)
        w = float(rng.uniform(0.9, 1.6))
        grads = grad_theta(samples, theta, phi, w, SPEC, R_F) + grad_phi(
            samples, theta, phi, w, SPEC, R_F
        )
        # the cost cannot tell phi1 from theta3
        assert grads[2] == pytest.approx(-SPEC.lam * grads[1], rel=1e-12, abs=1e-15)
        eta_theta, eta_phi = float(rng.uniform(1e-4, 1e-2)), float(rng.uniform(1e-4, 1e-2))
        new_theta, new_phi = apply_updates(theta, phi, grads, eta_theta, eta_phi, w, SPEC, R_F)
        assert new_phi.phi1 == phi.phi1
        # a plain step on all four parameters lands at the same cost
        plain_theta = new_theta._replace(theta3=theta.theta3 - eta_theta * grads[1])
        plain_phi = new_phi._replace(phi1=phi.phi1 - eta_phi * grads[2])
        assert new_theta.theta3 - SPEC.lam * new_phi.phi1 == pytest.approx(
            plain_theta.theta3 - SPEC.lam * plain_phi.phi1, rel=1e-12, abs=1e-15
        )
        assert cost(samples, new_theta, new_phi, w, SPEC, R_F) == pytest.approx(
            cost(samples, plain_theta, plain_phi, w, SPEC, R_F), rel=1e-9, abs=1e-15
        )


# ---------------------------------------------------------------------------
# lagrange target updates
# ---------------------------------------------------------------------------


def test_update_w_moves_against_the_recent_mean():
    state = LagrangeState(w=1.2, alpha=0.05, terminal_wealths=[9.9, 1.3, 1.5])
    update_w(state, b=1.1, n=2)
    assert state.w == pytest.approx(1.2 - 0.05 * (1.4 - 1.1), rel=1e-14)


def test_update_w_fixed_point_and_short_buffer():
    state = LagrangeState(w=1.2, alpha=0.05, terminal_wealths=[1.1, 1.1, 1.1])
    update_w(state, b=1.1, n=3)
    assert state.w == 1.2
    with pytest.raises(ValueError, match="needs 4"):
        update_w(state, b=1.1, n=4)
    with pytest.raises(ValueError):
        update_w(state, b=1.1, n=0)


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", ["eta_theta", "eta_phi", "alpha", "init_phi1", "init_phi2"])
def test_hyper_params_reject_non_finite_values(name, value):
    """A NaN rate passed the positivity check alone (nan <= 0.0 is False),
    and an infinite initial phi left the cold start undefined."""
    with pytest.raises(ValueError, match=f"^{name} must be finite, got {value!r}$"):
        HyperParams(SPEC, **{name: value})


def _hyper(episodes, **kw):
    return HyperParams(spec=SPEC, episodes=episodes, **kw)


TRAINERS = {ALGORITHM_DISCRETE: train, ALGORITHM_CONTINUOUS: baseline_train}
both_learners = pytest.mark.parametrize("algorithm", ALGORITHMS)


@both_learners
def test_train_zero_episodes_returns_the_initial_state(algorithm):
    model = NormalIID(0.025, 0.0577)
    result = TRAINERS[algorithm](_hyper(0), model, R_F, make_rng(1, 0))
    assert result.params == COLD_STARTS[algorithm]
    assert result.params == LEARNERS[algorithm].cold_start(SPEC, R_F, 1.0, 0.01)
    assert result.params.w == SPEC.b and result.history == ()


@both_learners
def test_train_is_bit_reproducible(algorithm):
    model = NormalIID(0.025, 0.0577)
    a = TRAINERS[algorithm](_hyper(150), model, R_F, make_rng(9, 1))
    b = TRAINERS[algorithm](_hyper(150), model, R_F, make_rng(9, 1))
    assert a == b
    assert type(a.params) is type(COLD_STARTS[algorithm])
    assert [rec.episode for rec in a.history] == list(range(1, 151))


@both_learners
def test_train_updates_w_only_on_schedule(algorithm):
    model = NormalIID(0.025, 0.0577)
    result = TRAINERS[algorithm](_hyper(40, refresh_every=10), model, R_F, make_rng(3, 0))
    ws = [SPEC.b] + [rec.w for rec in result.history]
    changed = {i for i in range(1, len(ws)) if ws[i] != ws[i - 1]}
    assert changed == {10, 20, 30, 40}  # w can only change on refresh episodes
    assert result.params.w == ws[-1]


@both_learners
def test_train_divergence_guard_raises(algorithm):
    """The error names the episode, the cost and every value of the learner
    after that episode, by field, in the order of its params."""
    model = NormalIID(0.025, 0.0577)
    hyper = _hyper(500, eta_theta=50.0, eta_phi=50.0)
    with pytest.raises(TrainingDivergedError, match="episode") as info:
        TRAINERS[algorithm](hyper, model, R_F, make_rng(1, 1))
    message = str(info.value)
    names = list(LEARNERS[algorithm].fields(COLD_STARTS[algorithm]))
    assert names[-1] == "w"
    assert "(cost " in message
    named = message[message.index("; ") + 2 : -1].split(", ")
    assert [item.split("=")[0] for item in named] == names
    for item in named:
        float(item.split("=")[1])


@pytest.mark.parametrize(
    "algorithm, eta, lam, episode",
    [(ALGORITHM_DISCRETE, 0.01, 8.0, 6), (ALGORITHM_CONTINUOUS, 0.2, 2.0, 3)],
)
def test_arithmetic_out_of_range_is_divergence(algorithm, eta, lam, episode):
    """Steps that leave every value finite can still take an episode's
    arithmetic out of the float range.  The run then fails with a
    TrainingDivergedError that names the episode and the finite values it
    started from, not with a bare OverflowError."""
    a, sigma, r_f = annualize_market(0.30, 0.20, 0.02)
    hyper = HyperParams(SPEC._replace(lam=lam), eta_theta=eta, eta_phi=eta, episodes=300)
    with pytest.raises(TrainingDivergedError) as info:
        TRAINERS[algorithm](hyper, NormalIID(a, sigma), r_f, make_rng(1))
    message = str(info.value)
    assert message.startswith(f"training diverged at episode {episode} (OverflowError: ")
    assert isinstance(info.value.__cause__, OverflowError)
    named = [item.split("=") for item in message[message.index("; ") + 2 : -1].split(", ")]
    assert [k for k, _ in named] == list(LEARNERS[algorithm].fields(COLD_STARTS[algorithm]))
    assert all(math.isfinite(float(x)) for _, x in named)


@both_learners
def test_online_windows_refresh_w(algorithm):
    """Test windows run through run_episodes with learning on are more
    training episodes: after refresh_every windows w has moved by
    -alpha * (mean terminal wealth - b), and not before.  Frozen windows
    change nothing."""
    learner = LEARNERS[algorithm]
    hyper = _hyper(0, refresh_every=4)
    params = COLD_STARTS[algorithm]
    rng = make_rng(12, 0)
    windows = ([0.02, -0.01, 0.03], [0.0, 0.05, -0.04], [0.01, 0.01, 0.01], [-0.03, 0.02, 0.04])
    draws = [window + rng.standard_normal(3).tolist() for window in windows]
    frozen = run_episodes(learner, hyper, R_F, draws, params, learn=False)
    assert frozen.params is params and len(frozen.history) == 4
    result = run_episodes(learner, hyper, R_F, draws, params)
    wealths = [rec.terminal_wealth for rec in result.history]
    assert wealths[0] == frozen.history[0]
    assert [rec.w for rec in result.history[:3]] == [SPEC.b] * 3
    assert result.params.w == result.history[-1].w
    assert result.params.w == SPEC.b - hyper.alpha * (sum(wealths) / 4 - SPEC.b)
    assert result.params.w != SPEC.b


@both_learners
def test_online_windows_get_the_divergence_check(algorithm):
    """Learning on given windows diverges as training on the same draws
    does, with a TrainingDivergedError; frozen windows are not checked."""
    learner = LEARNERS[algorithm]
    hyper = _hyper(0, eta_theta=50.0, eta_phi=50.0)
    model, rng = NormalIID(0.025, 0.0577), make_rng(1, 1)
    draws = [sample_path(model, 3, rng).tolist() + rng.standard_normal(3).tolist() for _ in range(500)]
    with pytest.raises(TrainingDivergedError, match="training diverged at episode") as online:
        run_episodes(learner, hyper, R_F, draws)
    with pytest.raises(TrainingDivergedError) as trained:
        train(hyper._replace(episodes=500), model, R_F, make_rng(1, 1), learner)
    assert str(online.value) == str(trained.value)
    frozen = run_episodes(learner, hyper, R_F, draws, learn=False)
    assert len(frozen.history) == 500


@both_learners
@pytest.mark.parametrize("phi1, why", [(400.0, "overflow the policy"), (-400.0, "variance is 0.0")])
def test_a_cold_start_that_defines_no_policy_is_infeasible(algorithm, phi1, why):
    """A cold start whose policy's exps overflow, or whose variances
    underflow to 0, raises InfeasiblePolicyError before any episode, learning
    or not, and so does check_cold_start."""
    learner, hyper = LEARNERS[algorithm], _hyper(0, init_phi1=phi1)
    draws = [[0.01, 0.02, -0.01, 0.5, -0.5, 0.1]]
    for learn in (True, False):
        with pytest.raises(InfeasiblePolicyError, match=why):
            run_episodes(learner, hyper, R_F, draws, learn=learn)
    with pytest.raises(InfeasiblePolicyError, match=why):
        check_cold_start(learner, hyper, R_F)
    check_cold_start(learner, _hyper(0), R_F)


_A, _SIGMA, _ = annualize_market(0.30, 0.20, 0.02)
_SERIES = load_monthly_csv(bundled_monthly_csv_path(), 0.02)
MARKETS = {
    "normal": NormalIID(_A, _SIGMA),
    "skewt": SkewTIID(_A, _SIGMA, 5.0, -1.5),
    "historical": Historical(_SERIES.subseries("1995-01", 120)),
}


@settings(max_examples=60, deadline=None)
@given(
    algorithm=st.sampled_from(ALGORITHMS),
    market=st.sampled_from(sorted(MARKETS)),
    T=st.integers(1, 6),
    refresh_every=st.integers(1, 5),
    prefix_updates=st.booleans(),
    episodes=st.integers(1, 25),
    seed=st.integers(0, 2**32 - 1),
)
def test_training_is_a_sequence_of_online_steps(
    algorithm, market, T, refresh_every, prefix_updates, episodes, seed
):
    """train equals run_episodes on the plain numpy block draws of
    reference_draws from the same generator: the same params, the same
    records and the same final generator state.  Training and the online
    test windows of the backtest run one driver."""
    learner, model = LEARNERS[algorithm], MARKETS[market]
    spec = SPEC._replace(T=T)
    hyper = HyperParams(spec, episodes=episodes, refresh_every=refresh_every,
                        prefix_updates=prefix_updates)
    trained, stepped = make_rng(seed), make_rng(seed)
    result = train(hyper, model, R_F, trained, learner)
    draws = block_draws(model, T, stepped, episodes, _DRAW_BLOCK)
    assert run_episodes(learner, hyper, R_F, draws) == result
    assert stepped.bit_generator.state == trained.bit_generator.state


def _outcome(run, *args, **kwargs):
    """run's result, or the message of the TrainingDivergedError it raised."""
    try:
        return run(*args, **kwargs)
    except TrainingDivergedError as exc:
        return str(exc)


@settings(max_examples=80, deadline=None)
@given(
    algorithm=st.sampled_from(ALGORITHMS),
    market=st.sampled_from(sorted(MARKETS)),
    T=st.integers(1, 12),
    eta=st.sampled_from([0.0005, 0.005, 0.05, 0.5]),
    learn=st.booleans(),
    episodes=st.integers(0, 150),
    seed=st.integers(0, 2**32 - 1),
)
def test_a_run_without_records_keeps_each_terminal_wealth(
    algorithm, market, T, eta, learn, episodes, seed
):
    """With records off, run_episodes (and train and train_cell, which pass
    records on) gives the params of a run with records and, in place of
    each record, its terminal wealth; a run that diverges raises the same
    TrainingDivergedError at the same episode, with the same message.  A
    frozen run gives the terminal wealths whatever records says."""
    learner, model = LEARNERS[algorithm], MARKETS[market]
    hyper = HyperParams(SPEC._replace(T=T), eta_theta=eta, eta_phi=eta, episodes=episodes)
    draws = block_draws(model, T, make_rng(seed), episodes, _DRAW_BLOCK)
    full = _outcome(run_episodes, learner, hyper, R_F, draws, learn=learn)
    bare = _outcome(run_episodes, learner, hyper, R_F, draws, learn=learn, records=False)
    if isinstance(full, str):
        assert bare == full
    else:
        assert bare.params == full.params
        assert bare.history == (tuple(rec.terminal_wealth for rec in full.history) if learn
                                else full.history)
    if learn:
        cell = Cell("cell", model, R_F, hyper, algorithm, seed, 0)
        assert _outcome(lambda: train_cell(cell, records=False)[0]) == bare
        assert _outcome(train, hyper, model, R_F, make_rng(seed), learner, False) == bare


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_a_diverging_run_without_records_names_the_same_episode(algorithm):
    """At a 60-period horizon the default step sizes diverge; without
    records, training stops with the same message."""
    model, hyper = MARKETS["skewt"], HyperParams(SPEC._replace(T=60), episodes=300)
    with pytest.raises(TrainingDivergedError, match="training diverged at episode") as full:
        train(hyper, model, R_F, make_rng(5), LEARNERS[algorithm])
    with pytest.raises(TrainingDivergedError) as bare:
        train(hyper, model, R_F, make_rng(5), LEARNERS[algorithm], records=False)
    assert str(bare.value) == str(full.value)


class _CountingGenerator:
    """A generator that counts the calls made to its methods."""

    def __init__(self, rng):
        self.rng, self.calls = rng, 0

    def __getattr__(self, name):
        method = getattr(self.rng, name)

        def counted(*args, **kwargs):
            self.calls += 1
            return method(*args, **kwargs)

        return counted


@pytest.mark.parametrize("market", sorted(MARKETS))
@pytest.mark.parametrize("episodes", [1, 2, _DRAW_BLOCK, 2 * _DRAW_BLOCK + 1])
def test_training_draws_in_the_fused_schedule(market, episodes):
    """Training makes one generator call per block of _DRAW_BLOCK episodes
    on the normal market, and two on the skew-t (the normals, then the
    chi-square draws) and historical (the window starts, then the policy
    normals) markets."""
    rng = _CountingGenerator(make_rng(3))
    train(_hyper(episodes), MARKETS[market], R_F, rng)
    blocks = -(-episodes // _DRAW_BLOCK)
    assert rng.calls == {"normal": blocks, "historical": 2 * blocks, "skewt": 2 * blocks}[market]


def test_train_history_records_every_episode_in_order():
    model = NormalIID(0.025, 0.0577)
    result = train(_hyper(25), model, R_F, make_rng(2, 0))
    assert [rec.episode for rec in result.history] == list(range(1, 26))


@both_learners
def test_a_train_history_retains_at_most_128_bytes_an_episode(algorithm):
    """A run with records keeps them as columns, not as record objects: the
    memory a 5,000-episode result holds is the kernel's seven floats an
    episode in one array and its terminal wealth, not a record and its floats
    (which took some 280 bytes an episode)."""
    model = NormalIID(0.025, 0.0577)
    TRAINERS[algorithm](_hyper(1), model, R_F, make_rng(2, 0))  # the kernel compiled and cached
    tracemalloc.start()
    try:
        result = TRAINERS[algorithm](_hyper(5000), model, R_F, make_rng(2, 0))
        gc.collect()
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(result.history) == 5000
    assert retained <= 128 * 5000, retained / 5000


def test_train_whole_episode_updates_also_run():
    model = NormalIID(0.025, 0.0577)
    result = train(_hyper(50, prefix_updates=False), model, R_F, make_rng(4, 0))
    assert len(result.history) == 50


def test_train_keeps_phi1_and_phi2_leaves_its_floor_while_w_winds_up():
    """The residual cannot tell phi1 from theta3, so training keeps phi1 at
    its initial value.  A plain gradient step on phi1 would instead cut it
    from 1 to about 0.2 over the first 2,000 episodes; the policy then hardly
    responds to w, phi2 sits on its floor, and w winds up for some 10,000
    episodes."""
    a, sigma, r_f = annualize_market(0.30, 0.20, 0.02)
    result = train(_hyper(3000), NormalIID(a, sigma), r_f, make_rng(1, 0))
    assert all(rec.phi1 == 1.0 for rec in result.history)
    assert result.params.theta.theta3 > 1.0  # the drift carries the residual's constant
    assert result.params.w < 2.7  # w is still on its way up from b ...
    assert result.params.phi.phi2 + math.log(r_f) > 0.015  # ... and phi2 has left its floor


def test_train_reaches_the_known_market_solution():
    """On a monthly normal market the learned theta1 must approach its
    model-implied level sigma^2 r_f^2 / (a^2 + sigma^2), and the late
    terminal wealths must average near the target (median of 3 seeds)."""
    a, sigma, r_f = annualize_market(0.30, 0.20, 0.02)
    model = NormalIID(a, sigma)
    m = MarketModel(a, sigma, r_f)
    target_theta1 = (sigma * r_f) ** 2 / m.second_moment
    hyper = HyperParams(spec=SPEC)
    theta1s, means = [], []
    for seed in (1, 2, 3):
        result = train(hyper, model, r_f, make_rng(seed, 0))
        theta1s.append(result.params.theta.theta1)
        tail = [rec.terminal_wealth for rec in result.history[-2000:]]
        means.append(sum(tail) / len(tail))
    assert abs(sorted(theta1s)[1] - target_theta1) <= 0.25 * target_theta1
    assert abs(sorted(means)[1] - SPEC.b) <= 0.02


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------


def test_checkpoint_round_trip_restores_params_and_stream(tmp_path):
    rng = make_rng(77, 0)
    rng.standard_normal(13)  # advance to a nontrivial state
    params = {"theta1": 0.987654321, "phi2": -1.5e-3, "w": 1.2408}
    path = tmp_path / "checkpoint"
    save_checkpoint(str(path), ALGORITHM_DISCRETE, params, rng)
    algorithm, loaded, restored = load_checkpoint(str(path))
    assert algorithm == ALGORITHM_DISCRETE
    assert loaded == params
    np.testing.assert_array_equal(restored.standard_normal(8), rng.standard_normal(8))


_PARAM_NAMES = st.from_regex(r"[a-z][a-z0-9_]{0,11}", fullmatch=True)


@settings(max_examples=100, deadline=None)
@given(
    algorithm=st.sampled_from(ALGORITHMS),
    params=st.dictionaries(_PARAM_NAMES, st.floats(allow_nan=False, allow_infinity=False), max_size=8),
    seed=st.integers(0, 2**63 - 1),
    stream=st.integers(0, 1000),
    normals=st.integers(0, 7),
    words=st.integers(0, 3),
)
def test_checkpoint_round_trip_property(algorithm, params, seed, stream, normals, words):
    """Any finite parameter dict comes back bit for bit (-0.0 included), and
    the restored generator continues the saved stream from any state,
    including one holding half of a 64-bit word (an odd count of 32-bit
    draws)."""
    rng = make_rng(seed, stream)
    rng.standard_normal(normals)
    rng.integers(0, 2**32, size=words, dtype=np.uint32)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "checkpoint")
        save_checkpoint(path, algorithm, params, rng)
        got_algorithm, loaded, restored = load_checkpoint(path)
    assert got_algorithm == algorithm
    assert {k: repr(v) for k, v in loaded.items()} == {k: repr(v) for k, v in params.items()}
    assert restored.bit_generator.state == rng.bit_generator.state
    for draw in (lambda g: g.integers(0, 2**32, size=3, dtype=np.uint32), lambda g: g.standard_normal(5)):
        assert draw(restored).tolist() == draw(rng).tolist()


def test_checkpoint_rejects_foreign_files(tmp_path):
    path = tmp_path / "checkpoint"
    path.write_text("algorithm=x\nrng.algorithm=mt19937\n")
    with pytest.raises(ValueError, match="unsupported rng algorithm"):
        load_checkpoint(str(path))
    path.write_text("algorithm emv\n")
    with pytest.raises(ValueError, match="expected key=value"):
        load_checkpoint(str(path))
    # a truncated file, or a value that does not parse, is named by file and key
    save_checkpoint(str(path), ALGORITHM_DISCRETE, {"w": 1.1}, make_rng(5))
    whole = path.read_text().splitlines()
    for missing in ("algorithm", "rng.state"):
        path.write_text("\n".join(line for line in whole if not line.startswith(missing + "=")))
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: missing key '{missing}'$"):
            load_checkpoint(str(path))
    path.write_text("\n".join(whole).replace("param.w=1.1", "param.w=abc"))
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: param.w='abc' is not a valid float$"):
        load_checkpoint(str(path))
