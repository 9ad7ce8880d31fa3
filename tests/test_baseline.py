"""Tests for the continuous-time comparator learner.  Its training loop is
the shared skeleton, tested over both learners in test_learner.py."""

import math

import numpy as np
import pytest

from dtmv.analytic import ProblemSpec, gaussian_entropy
from dtmv.baseline import (
    BaselineParams,
    baseline_apply_updates,
    baseline_cost,
    baseline_gradients,
    baseline_entropy,
    baseline_policy,
    baseline_value,
    default_baseline_params,
)
from dtmv.learner import PHI2_MARGIN, InfeasiblePolicyError
from dtmv.market import make_rng

SPEC = ProblemSpec(T=3, x0=1.0, b=1.1, lam=2.0)


def _random_params(rng):
    return BaselineParams(
        theta2=float(rng.uniform(-0.3, 0.3)),
        theta3=float(rng.uniform(-0.3, 0.3)),
        theta4=float(rng.uniform(-0.3, 0.3)),
        phi1=float(rng.uniform(-0.5, 1.5)),
        phi2=float(rng.uniform(0.01, 0.4)),
        w=float(rng.uniform(0.9, 1.6)),
    )


def _random_samples(rng, T):
    t0 = int(rng.integers(0, T))
    length = int(rng.integers(2, T - t0 + 2))
    return [(t, float(rng.uniform(0.2, 2.5))) for t in range(t0, min(t0 + length, T + 1))]


# ---------------------------------------------------------------------------
# policy and value surface
# ---------------------------------------------------------------------------


def test_baseline_policy_formula():
    p = BaselineParams(0.0, 0.0, 0.0, phi1=0.7, phi2=0.06, w=1.25)
    pol = baseline_policy(p, SPEC, 1, 1.5)
    dev = 1.5 - 1.25
    assert pol.mean == pytest.approx(
        -math.sqrt(2.0 * 0.06 / (SPEC.lam * math.pi)) * math.exp(0.2) * dev, rel=1e-14
    )
    assert pol.variance == pytest.approx(
        math.exp(2.0 * 0.06 * (SPEC.T - 1) + 0.4) / (2.0 * math.pi), rel=1e-14
    )


def test_baseline_mean_depends_on_the_raw_deviation_only():
    """The comparator centers on x - w with no horizon discounting, so
    shifting x and w together leaves the whole policy unchanged.  The
    discrete learner's policy does not have this property when r_f != 1."""
    from dtmv.learner import PolicyParams, policy_from_params

    p = BaselineParams(0.0, 0.0, 0.0, 0.9, 0.04, w=1.2)
    ref = baseline_policy(p, SPEC, 0, 1.4)
    for shift in (-0.7, 0.0, 2.5):
        moved = BaselineParams(0.0, 0.0, 0.0, 0.9, 0.04, w=1.2 + shift)
        pol = baseline_policy(moved, SPEC, 0, 1.4 + shift)
        assert pol.mean == pytest.approx(ref.mean, rel=1e-12)
        assert pol.variance == ref.variance
    r_f = 1.0 + 0.02 / 12.0
    phi = PolicyParams(0.9, 0.04)
    a = policy_from_params(phi, SPEC, r_f, 0, 1.4, 1.2)
    b = policy_from_params(phi, SPEC, r_f, 0, 1.4 + 0.5, 1.2 + 0.5)
    assert a.mean != b.mean  # discounted centering breaks translation


def test_baseline_policy_requires_positive_phi2():
    p = BaselineParams(0.0, 0.0, 0.0, 1.0, 0.0, 1.1)
    with pytest.raises(InfeasiblePolicyError):
        baseline_policy(p, SPEC, 0, 1.0)
    with pytest.raises(ValueError):
        baseline_policy(default_baseline_params(SPEC), SPEC, 3, 1.0)


def test_baseline_entropy_matches_the_policy_variance():
    rng = make_rng(19, 0)
    for _ in range(40):
        p = _random_params(rng)
        t = int(rng.integers(0, SPEC.T))
        pol = baseline_policy(p, SPEC, t, float(rng.uniform(0.0, 2.0)))
        assert abs(baseline_entropy(p, SPEC, t) - gaussian_entropy(pol.variance)) <= 1e-12


def test_baseline_value_formula_and_terminal_time():
    p = BaselineParams(0.2, -0.1, 0.05, 1.0, 0.03, 1.2)
    t, x = 1, 1.5
    expect = (
        (x - 1.2) ** 2 * math.exp(-2.0 * 0.03 * (SPEC.T - t))
        + 0.2 * t * t
        - 0.1 * t
        + 0.05
    )
    assert baseline_value(p, SPEC, t, x) == pytest.approx(expect, rel=1e-14)
    # at t = T the exponential factor is 1
    assert baseline_value(p, SPEC, SPEC.T, x) == pytest.approx(
        (x - 1.2) ** 2 + 0.2 * 9 - 0.3 + 0.05, rel=1e-14
    )
    with pytest.raises(ValueError):
        baseline_value(p, SPEC, 4, x)


def test_default_baseline_params_start_at_the_target():
    p = default_baseline_params(SPEC)
    assert p == BaselineParams(0.0, 0.0, 0.0, 1.0, 0.01, SPEC.b)


# ---------------------------------------------------------------------------
# cost
# ---------------------------------------------------------------------------


def _cost_reference(samples, p, spec):
    ts = np.array([t for t, _ in samples], dtype=float)
    xs = np.array([x for _, x in samples])
    q = (xs - p.w) ** 2 * np.exp(-2.0 * p.phi2 * (spec.T - ts))
    res = (
        q[1:]
        - q[:-1]
        + p.theta2 * (ts[1:] ** 2 - ts[:-1] ** 2)
        + p.theta3 * (ts[1:] - ts[:-1])
        - spec.lam * (p.phi1 + p.phi2 * (spec.T - ts[:-1]))
    )
    return 0.5 * float(np.sum(res**2))


def test_baseline_cost_matches_independent_reimplementation():
    rng = make_rng(23, 0)
    for _ in range(60):
        p = _random_params(rng)
        samples = _random_samples(rng, SPEC.T)
        assert baseline_cost(samples, p, SPEC) == pytest.approx(
            _cost_reference(samples, p, SPEC), rel=1e-12, abs=1e-15
        )


def test_baseline_cost_rejects_nonconsecutive_periods():
    with pytest.raises(ValueError, match="consecutive"):
        baseline_cost([(0, 1.0), (2, 1.2)], default_baseline_params(SPEC), SPEC)


def test_baseline_gradients_match_central_finite_differences():
    rng = make_rng(37, 0)
    h = 1e-6
    for _ in range(40):
        p = _random_params(rng)
        samples = _random_samples(rng, SPEC.T)

        def c(th2, th3, p1, p2):
            q = BaselineParams(th2, th3, p.theta4, p1, p2, p.w)
            return baseline_cost(samples, q, SPEC)

        grads = baseline_gradients(samples, p, SPEC)
        base = (p.theta2, p.theta3, p.phi1, p.phi2)
        for idx, got in enumerate(grads):
            up, dn = list(base), list(base)
            up[idx] += h
            dn[idx] -= h
            fd = (c(*up) - c(*dn)) / (2.0 * h)
            assert abs(got - fd) <= 1e-5 * max(1.0, abs(fd)), (idx, got, fd)


def test_baseline_apply_updates_pins_the_terminal_condition():
    p = _random_params(make_rng(41, 0))
    q = baseline_apply_updates(p, (0.3, -0.2, 0.1, 0.05), 0.01, 0.02, SPEC)
    assert q.theta2 == pytest.approx(p.theta2 - 0.003)
    assert q.theta3 == pytest.approx(p.theta3 + 0.002)
    assert q.phi1 == pytest.approx(p.phi1 - 0.002)
    assert q.phi2 == pytest.approx(p.phi2 - 0.001)
    for x in (-0.5, 1.0, 2.4):
        assert baseline_value(q, SPEC, SPEC.T, x) == pytest.approx(
            (x - q.w) ** 2 - (q.w - SPEC.b) ** 2, rel=1e-12, abs=1e-12
        )


def test_baseline_phi2_projection_keeps_the_policy_defined():
    p = default_baseline_params(SPEC)
    q = baseline_apply_updates(p, (0.0, 0.0, 0.0, 1e9), 0.0005, 0.0005, SPEC)
    assert q.phi2 == PHI2_MARGIN
    baseline_policy(q, SPEC, 0, 1.0)
