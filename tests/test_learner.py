"""Tests for the episodic learner: parametric surfaces, gradients, training."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dtmv.analytic import MarketModel, ProblemSpec, gaussian_entropy
from dtmv.baseline import (
    ALGORITHM_CONTINUOUS,
    BaselineParams,
    baseline_train,
    default_baseline_params,
)
from dtmv.evaluation import ALGORITHMS, LEARNERS
from dtmv.learner import (
    ALGORITHM_DISCRETE,
    DiscreteParams,
    Episode,
    HyperParams,
    InfeasiblePolicyError,
    LagrangeState,
    PolicyParams,
    TrainingDivergedError,
    ValueParams,
    apply_updates,
    cost,
    default_params,
    episode_step,
    grad_phi,
    grad_theta,
    load_checkpoint,
    policy_entropy,
    policy_from_params,
    sample_episode,
    save_checkpoint,
    train,
    update_w,
    value_from_params,
)
from dtmv.market import NormalIID, annualize_market, make_rng, step_wealth

SPEC = ProblemSpec(T=3, x0=1.0, b=1.1, lam=2.0)
R_F = 1.0 + 0.02 / 12.0


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


# ---------------------------------------------------------------------------
# parametric policy and value surface
# ---------------------------------------------------------------------------


def test_policy_from_params_formula():
    phi = PolicyParams(0.8, 0.05)
    t, x, w = 1, 1.4, 1.25
    pol = policy_from_params(phi, SPEC, R_F, t, x, w)
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
    above = policy_from_params(phi, SPEC, R_F, 0, 2.0, 1.1)
    below = policy_from_params(phi, SPEC, R_F, 0, 0.5, 1.1)
    assert above.mean < 0.0 < below.mean


def test_policy_requires_feasible_phi2():
    bad = PolicyParams(1.0, -math.log(R_F) - 1e-6)
    with pytest.raises(InfeasiblePolicyError):
        policy_from_params(bad, SPEC, R_F, 0, 1.0, 1.1)
    with pytest.raises(ValueError):
        policy_from_params(PolicyParams(1.0, 0.01), SPEC, R_F, 3, 1.0, 1.1)


def test_policy_entropy_is_the_gaussian_entropy_of_the_variance():
    rng = make_rng(31, 0)
    for _ in range(50):
        _, phi = _random_params(rng)
        t = int(rng.integers(0, SPEC.T))
        pol = policy_from_params(phi, SPEC, R_F, t, float(rng.uniform(0, 2)), 1.2)
        assert abs(policy_entropy(phi, SPEC, t) - gaussian_entropy(pol.variance)) <= 1e-12


def test_policy_entropy_is_linear_in_time_to_go():
    phi = PolicyParams(0.4, 0.07)
    ents = [policy_entropy(phi, SPEC, t) for t in range(SPEC.T)]
    diffs = [a - b for a, b in zip(ents, ents[1:])]
    assert all(d == pytest.approx(0.07, rel=1e-12) for d in diffs)


def test_value_from_params_formula_and_bounds():
    theta = ValueParams(0.9, 0.2, -0.1, 0.05)
    t, x, w = 1, 1.5, 1.2
    dev = x - R_F ** -(SPEC.T - t) * w
    expect = 0.9 ** (SPEC.T - t) * dev * dev + 0.2 * t * t - 0.1 * t + 0.05
    assert value_from_params(theta, SPEC, R_F, t, x, w) == pytest.approx(expect, rel=1e-14)
    with pytest.raises(ValueError):
        value_from_params(theta, SPEC, R_F, 4, x, w)


def test_default_params_link_theta1_to_phi2():
    theta, phi = default_params(SPEC, R_F)
    assert (phi.phi1, phi.phi2) == (1.0, 0.01)
    assert theta.theta1 == pytest.approx(math.exp(-0.02), rel=1e-15)
    assert (theta.theta2, theta.theta3, theta.theta4) == (0.0, 0.0, 0.0)
    with pytest.raises(InfeasiblePolicyError):
        default_params(SPEC, 0.95)  # phi2=0.01 is below the floor for this r_f


# ---------------------------------------------------------------------------
# episode sampling
# ---------------------------------------------------------------------------


def test_episode_validation():
    with pytest.raises(ValueError):
        Episode((1.0, 1.1), (0.5, 0.5), (0.01,))
    ep = Episode((1.0, 1.1, 1.2), (0.5, 0.4), (0.01, 0.02))
    assert ep.terminal_wealth == 1.2
    assert ep.states == ((0, 1.0), (1, 1.1), (2, 1.2))


def test_sample_episode_replays_the_wealth_recursion_exactly():
    model = NormalIID(0.025, 0.0577)
    _, phi = default_params(SPEC, R_F)
    ep = sample_episode(phi, 1.2, model, SPEC, R_F, make_rng(41, 0))
    assert len(ep.wealth) == SPEC.T + 1 and ep.wealth[0] == SPEC.x0
    for t in range(SPEC.T):
        assert ep.wealth[t + 1] == step_wealth(
            ep.wealth[t], ep.controls[t], ep.returns[t], R_F
        )


def test_sample_episode_is_reproducible():
    model = NormalIID(0.025, 0.0577)
    _, phi = default_params(SPEC, R_F)
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
    theta, phi = default_params(SPEC, R_F)
    assert cost([], theta, phi, 1.1, SPEC, R_F) == 0.0
    assert cost([(0, 1.0)], theta, phi, 1.1, SPEC, R_F) == 0.0


def test_cost_rejects_nonconsecutive_periods():
    theta, phi = default_params(SPEC, R_F)
    with pytest.raises(ValueError, match="consecutive"):
        cost([(0, 1.0), (2, 1.1)], theta, phi, 1.1, SPEC, R_F)


def _learner_params(algorithm, theta2, theta3, theta4, phi1, phi2, w):
    if algorithm == ALGORITHM_DISCRETE:
        theta = ValueParams(math.exp(-2.0 * phi2), theta2, theta3, theta4)
        return DiscreteParams(theta, PolicyParams(phi1, phi2), w)
    return BaselineParams(theta2, theta3, theta4, phi1, phi2, w)


@st.composite
def _transitions(draw):
    t0 = draw(st.integers(0, SPEC.T - 1))
    xs = draw(st.lists(st.floats(0.2, 2.5), min_size=2, max_size=SPEC.T - t0 + 1))
    return [(t0 + i, x) for i, x in enumerate(xs)]


@settings(max_examples=150, deadline=None)
@given(
    algorithm=st.sampled_from(ALGORITHMS),
    theta=st.tuples(*[st.floats(-0.3, 0.3)] * 3),
    phi1=st.floats(-0.5, 1.5),
    phi2=st.floats(0.01, 0.3),  # above both learners' phi2 floors
    w=st.floats(0.9, 1.6),
    samples=_transitions(),
)
def test_gradients_match_central_finite_differences(algorithm, theta, phi1, phi2, w, samples):
    """Each learner's fused gradients equal central differences of its cost
    in (theta2, theta3, phi1, phi2)."""
    learner = LEARNERS[algorithm]
    theta4 = theta[2]
    h = 1e-6

    def c(th2, th3, p1, p2):
        params = _learner_params(algorithm, th2, th3, theta4, p1, p2, w)
        return learner.cost(samples, params, SPEC, R_F)

    base = (theta[0], theta[1], phi1, phi2)
    grads = learner.gradients(samples, _learner_params(algorithm, *theta, phi1, phi2, w), SPEC, R_F)
    for idx, got in enumerate(grads):
        up, dn = list(base), list(base)
        up[idx] += h
        dn[idx] -= h
        fd = (c(*up) - c(*dn)) / (2.0 * h)
        assert abs(got - fd) <= 1e-5 * max(1.0, abs(fd)), (idx, got, fd)


def test_gradient_of_empty_samples_is_zero():
    theta, phi = default_params(SPEC, R_F)
    assert grad_theta([], theta, phi, 1.1, SPEC, R_F) == (0.0, 0.0)
    assert grad_phi([], theta, phi, 1.1, SPEC, R_F) == (0.0, 0.0)


# ---------------------------------------------------------------------------
# parameter updates
# ---------------------------------------------------------------------------


def test_apply_updates_steps_and_pins_constrained_coefficients():
    theta, phi = default_params(SPEC, R_F)
    new_theta, new_phi = apply_updates(
        theta, phi, (1.0, -2.0, 3.0, -0.5), 0.01, 0.02, 1.2, SPEC, R_F
    )
    assert new_theta.theta2 == pytest.approx(-0.01)
    # theta3 also takes the move of theta3 - lam * phi1 that phi1 would make
    assert new_theta.theta3 == pytest.approx(0.02 + SPEC.lam * 0.02 * 3.0)
    assert new_phi.phi1 == 1.0
    assert new_phi.phi2 == pytest.approx(0.01 + 0.01)
    assert new_theta.theta1 == pytest.approx(math.exp(-2.0 * new_phi.phi2), rel=1e-15)
    # terminal identity for arbitrary wealth
    for x in (-0.5, 1.0, 2.4):
        assert value_from_params(new_theta, SPEC, R_F, SPEC.T, x, 1.2) == pytest.approx(
            (x - 1.2) ** 2 - (1.2 - SPEC.b) ** 2, rel=1e-12, abs=1e-12
        )


def test_apply_updates_projects_phi2_onto_the_feasible_floor():
    theta, phi = default_params(SPEC, R_F)
    new_theta, new_phi = apply_updates(
        theta, phi, (0.0, 0.0, 0.0, 1e9), 0.0005, 0.0005, 1.1, SPEC, R_F
    )
    assert new_phi.phi2 == -math.log(R_F) + 1e-8
    assert new_theta.theta1 == pytest.approx(math.exp(-2.0 * new_phi.phi2), rel=1e-15)
    assert new_theta.theta1 < R_F**2  # policy stays feasible after projection
    policy_from_params(new_phi, SPEC, R_F, 0, 1.0, 1.1)


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
        plain_theta = replace(new_theta, theta3=theta.theta3 - eta_theta * grads[1])
        plain_phi = replace(new_phi, phi1=phi.phi1 - eta_phi * grads[2])
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


def _hyper(episodes, **kw):
    return HyperParams(spec=SPEC, episodes=episodes, **kw)


TRAINERS = {ALGORITHM_DISCRETE: train, ALGORITHM_CONTINUOUS: baseline_train}
COLD_STARTS = {
    ALGORITHM_DISCRETE: DiscreteParams(*default_params(SPEC, R_F), SPEC.b),
    ALGORITHM_CONTINUOUS: default_baseline_params(SPEC),
}
both_learners = pytest.mark.parametrize("algorithm", ALGORITHMS)


@both_learners
def test_train_zero_episodes_returns_the_initial_state(algorithm):
    model = NormalIID(0.025, 0.0577)
    result = TRAINERS[algorithm](_hyper(0), model, R_F, make_rng(1, 0))
    assert result.params == COLD_STARTS[algorithm]
    assert result.params == LEARNERS[algorithm].cold_start(SPEC, R_F, 1.0, 0.01)
    assert result.params.w == SPEC.b and result.history == ()
    assert result.algorithm == algorithm


@both_learners
def test_train_is_bit_reproducible(algorithm):
    model = NormalIID(0.025, 0.0577)
    a = TRAINERS[algorithm](_hyper(150), model, R_F, make_rng(9, 1))
    b = TRAINERS[algorithm](_hyper(150), model, R_F, make_rng(9, 1))
    assert a == b
    assert a.algorithm == algorithm
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
    model = NormalIID(0.025, 0.0577)
    hyper = _hyper(500, eta_theta=50.0, eta_phi=50.0)
    with pytest.raises(TrainingDivergedError, match="episode"):
        TRAINERS[algorithm](hyper, model, R_F, make_rng(1, 1))


@both_learners
def test_online_windows_refresh_w(algorithm):
    """A test window run through episode_step with learning on is one more
    training episode: after refresh_every windows w has moved by
    -alpha * (mean terminal wealth - b), and not before.  A frozen window
    changes nothing."""
    learner = LEARNERS[algorithm]
    hyper = _hyper(0, refresh_every=4)
    params = COLD_STARTS[algorithm]
    lag = LagrangeState(w=params.w, alpha=hyper.alpha)
    rng = make_rng(12, 0)
    _, frozen = episode_step(learner, params, lag, hyper, R_F, (0.02, 0.0, 0.01), rng, learn=False)
    assert frozen is params and lag.terminal_wealths == []
    wealths = []
    windows = ((0.02, -0.01, 0.03), (0.0, 0.05, -0.04), (0.01, 0.01, 0.01), (-0.03, 0.02, 0.04))
    for window in windows:
        assert params.w == SPEC.b
        episode, params = episode_step(learner, params, lag, hyper, R_F, window, rng)
        wealths.append(episode.terminal_wealth)
    assert lag.terminal_wealths == wealths
    assert params.w == SPEC.b - hyper.alpha * (sum(wealths) / 4 - SPEC.b)
    assert params.w != SPEC.b


def test_train_history_records_every_episode_in_order():
    model = NormalIID(0.025, 0.0577)
    result = train(_hyper(25), model, R_F, make_rng(2, 0))
    assert [rec.episode for rec in result.history] == list(range(1, 26))


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
    assert result.theta.theta3 > 1.0  # the drift carries the residual's constant
    assert result.w < 2.7  # w is still on its way up from b ...
    assert result.phi.phi2 + math.log(r_f) > 0.015  # ... and phi2 has left its floor


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
        theta1s.append(result.theta.theta1)
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


def test_checkpoint_rejects_foreign_files(tmp_path):
    path = tmp_path / "checkpoint"
    path.write_text("algorithm=x\nrng.algorithm=mt19937\n")
    with pytest.raises(ValueError, match="unsupported rng algorithm"):
        load_checkpoint(str(path))
    path.write_text("algorithm emv\n")
    with pytest.raises(ValueError, match="expected key=value"):
        load_checkpoint(str(path))
