"""Continuous-time mean-variance learner run on the discrete monthly grid.

This is the comparator: the same episodic protocol as the discrete learner
(dtmv.learner.run_training), but with value surface and policy taken from the
continuous-time construction, which ignores riskless compounding inside its
functional forms (the state deviation is x - w with no horizon discounting).
The period is the unit of time.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from dtmv.analytic import GaussianPolicy, ProblemSpec
from dtmv.learner import PHI2_MARGIN, HyperParams, InfeasiblePolicyError, Learner, run_training
from dtmv.market import ReturnModel
from dtmv.market import sample_path  # noqa: F401  (perfbench/spans.py wraps this binding)

ALGORITHM_CONTINUOUS = "emv-continuous"


@dataclass(frozen=True)
class BaselineParams:
    """Continuous-time learner state: value drift coefficients theta2..theta4,
    policy parameters phi1, phi2, and the Lagrange target w."""

    theta2: float
    theta3: float
    theta4: float
    phi1: float
    phi2: float
    w: float


@dataclass(frozen=True)
class BaselineRecord:
    episode: int
    terminal_wealth: float
    theta2: float
    theta3: float
    theta4: float
    phi1: float
    phi2: float
    w: float


@dataclass(frozen=True)
class BaselineResult:
    params: BaselineParams
    history: Tuple[BaselineRecord, ...]
    algorithm: str = ALGORITHM_CONTINUOUS


def default_baseline_params(spec: ProblemSpec) -> BaselineParams:
    """Same cold start as the discrete learner; w begins at the target b."""
    # the comparator's cold start does not depend on r_f
    return CONTINUOUS.cold_start(spec, None, HyperParams.init_phi1, HyperParams.init_phi2)


def _policy_slope(phi1: float, phi2: float, spec: ProblemSpec) -> float:
    """Coefficient of the wealth deviation in the policy mean; requires
    phi2 > 0 (InfeasiblePolicyError)."""
    if phi2 <= 0.0:
        raise InfeasiblePolicyError(f"phi2={phi2} must be positive")
    return -math.sqrt(2.0 * phi2 / (spec.lam * math.pi)) * math.exp((2.0 * phi1 - 1.0) / 2.0)


def _policy_variance(phi1: float, phi2: float, spec: ProblemSpec, t: int) -> float:
    return math.exp(2.0 * phi2 * (spec.T - t) + 2.0 * phi1 - 1.0) / (2.0 * math.pi)


def _policy(phi1: float, phi2: float, spec: ProblemSpec):
    """(slope, variances) of the comparator's policy over one episode."""
    slope = _policy_slope(phi1, phi2, spec)
    return slope, [_policy_variance(phi1, phi2, spec, t) for t in range(spec.T)]


def baseline_policy(params: BaselineParams, spec: ProblemSpec, t: int, x: float) -> GaussianPolicy:
    """Gaussian control density of the continuous-time learner at (t, x).

    The mean is independent of the riskless rate by construction.  Requires
    phi2 > 0.
    """
    if not 0 <= t < spec.T:
        raise ValueError(f"t={t} outside 0..{spec.T - 1}")
    slope = _policy_slope(params.phi1, params.phi2, spec)
    variance = _policy_variance(params.phi1, params.phi2, spec, t)
    return GaussianPolicy(slope * (x - params.w), variance)


def baseline_value(params: BaselineParams, spec: ProblemSpec, t: int, x: float) -> float:
    if not 0 <= t <= spec.T:
        raise ValueError(f"t={t} outside 0..{spec.T}")
    dev = x - params.w
    return (
        dev * dev * math.exp(-2.0 * params.phi2 * (spec.T - t))
        + params.theta2 * t * t
        + params.theta3 * t
        + params.theta4
    )


def _residual_sums(devs, t_first, n, theta2, theta3, phi1, phi2, spec: ProblemSpec):
    """Cost gradient in (theta2, theta3, phi1, phi2) and summed squared
    temporal-difference residual over the n transitions from period t_first,
    devs[k] being the deviation x - w of the state at period t_first + k."""
    T, lam = spec.T, spec.lam
    g_t2 = g_t3 = g_p2 = sq = 0.0
    if n:
        dev = devs[0]
        q1 = dev * dev * math.exp(-2.0 * phi2 * (T - t_first))
        t0 = t_first
        for k in range(1, n + 1):
            q0 = q1
            dev = devs[k]
            m = T - t0  # periods left before the transition
            q1 = dev * dev * math.exp(-2.0 * phi2 * (m - 1))
            d2 = 2 * t0 + 1  # (t0 + 1)^2 - t0^2
            res = q1 - q0 + theta2 * d2 + theta3 - lam * (phi1 + phi2 * m)
            g_t2 += res * d2
            g_t3 += res
            g_p2 += res * (2.0 * m * q0 - 2.0 * (m - 1) * q1 - lam * m)
            sq += res * res
            t0 += 1
    return g_t2, g_t3, -lam * g_t3, g_p2, sq


def _sample_sums(samples: Sequence[Tuple[int, float]], params: BaselineParams, spec: ProblemSpec):
    """_residual_sums over (t, x) samples of consecutive periods."""
    for (t0, _), (t1, _) in zip(samples, samples[1:]):
        if t1 != t0 + 1:
            raise ValueError("samples must carry consecutive periods")
    devs = [x - params.w for _, x in samples]
    t_first = samples[0][0] if samples else 0
    n = max(len(samples) - 1, 0)
    return _residual_sums(
        devs, t_first, n, params.theta2, params.theta3, params.phi1, params.phi2, spec
    )


def baseline_cost(
    samples: Sequence[Tuple[int, float]], params: BaselineParams, spec: ProblemSpec
) -> float:
    return 0.5 * _sample_sums(samples, params, spec)[4]


def baseline_gradients(
    samples: Sequence[Tuple[int, float]], params: BaselineParams, spec: ProblemSpec
) -> Tuple[float, float, float, float]:
    """Cost gradient in (theta2, theta3, phi1, phi2)."""
    return _sample_sums(samples, params, spec)[:4]


def baseline_apply_updates(
    params: BaselineParams,
    grads: Tuple[float, float, float, float],
    eta_theta: float,
    eta_phi: float,
    spec: ProblemSpec,
) -> BaselineParams:
    """Gradient steps, phi2 projected positive, theta4 pinned to the terminal
    condition baseline_value(T, x) = (x - w)^2 - (w - b)^2."""
    return BaselineParams(*_apply_updates(astuple(params), grads, eta_theta, eta_phi, spec))


def _apply_updates(values, grads, eta_theta, eta_phi, spec: ProblemSpec):
    """baseline_apply_updates on the flat values (theta2, theta3, theta4,
    phi1, phi2, w)."""
    theta2, theta3, _, phi1, phi2, w = values
    g_t2, g_t3, g_p1, g_p2 = grads
    theta2 = theta2 - eta_theta * g_t2
    theta3 = theta3 - eta_theta * g_t3
    phi1 = phi1 - eta_phi * g_p1
    phi2 = phi2 - eta_phi * g_p2
    if phi2 < PHI2_MARGIN:
        phi2 = PHI2_MARGIN
    theta4 = -theta2 * spec.T * spec.T - theta3 * spec.T - (w - spec.b) ** 2
    return theta2, theta3, theta4, phi1, phi2, w


CONTINUOUS = Learner(
    cold_start=lambda spec, r_f, phi1, phi2: BaselineParams(0.0, 0.0, 0.0, phi1, phi2, spec.b),
    fields=lambda p: dict(vars(p)),
    params=BaselineParams,
    policy=lambda v, spec, r_f: _policy(v[3], v[4], spec),
    centers=lambda v, spec, r_f: [v[5]] * (spec.T + 1),
    gradients=lambda devs, n, v, spec, r_f: _residual_sums(
        devs, 0, n, v[0], v[1], v[3], v[4], spec
    )[:4],
    apply_updates=lambda v, g, hyper, r_f: _apply_updates(
        v, g, hyper.eta_theta, hyper.eta_phi, hyper.spec
    ),
    cost=lambda devs, v, spec, r_f: 0.5
    * _residual_sums(devs, 0, spec.T, v[0], v[1], v[3], v[4], spec)[4],
    record=BaselineRecord,
)


def baseline_train(
    hyper: HyperParams,
    model: ReturnModel,
    r_f: float,
    rng: np.random.Generator,
    init: Optional[BaselineParams] = None,
) -> BaselineResult:
    """Run the comparator for hyper.episodes episodes (run_training), from
    init or from the cold start in hyper."""
    params, history = run_training(CONTINUOUS, hyper, model, r_f, rng, init)
    return BaselineResult(params=params, history=history)
