"""Continuous-time mean-variance learner run on the discrete monthly grid.

This is the comparator: the same episodic protocol as the discrete learner
(dtmv.learner.run_training), but with value surface and policy taken from the
continuous-time construction, which ignores riskless compounding inside its
functional forms (the state deviation is x - w with no horizon discounting).
The period is the unit of time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

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


def baseline_policy(params: BaselineParams, spec: ProblemSpec, t: int, x: float) -> GaussianPolicy:
    """Gaussian control density of the continuous-time learner at (t, x).

    The mean is independent of the riskless rate by construction.  Requires
    phi2 > 0.
    """
    if not 0 <= t < spec.T:
        raise ValueError(f"t={t} outside 0..{spec.T - 1}")
    if params.phi2 <= 0.0:
        raise InfeasiblePolicyError(f"phi2={params.phi2} must be positive")
    dev = x - params.w
    mean = (
        -math.sqrt(2.0 * params.phi2 / (spec.lam * math.pi))
        * math.exp((2.0 * params.phi1 - 1.0) / 2.0)
        * dev
    )
    variance = math.exp(2.0 * params.phi2 * (spec.T - t) + 2.0 * params.phi1 - 1.0) / (
        2.0 * math.pi
    )
    return GaussianPolicy(mean, variance)


def baseline_entropy(params: BaselineParams, spec: ProblemSpec, t: int) -> float:
    if not 0 <= t < spec.T:
        raise ValueError(f"t={t} outside 0..{spec.T - 1}")
    return params.phi1 + params.phi2 * (spec.T - t)


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


def _residual_terms(
    samples: Sequence[Tuple[int, float]],
    params: BaselineParams,
    spec: ProblemSpec,
) -> List[Tuple[float, float, int]]:
    """Per-transition (residual, dres/dphi2, dres/dtheta2) terms of the
    temporal-difference cost; dres/dtheta3 is 1."""
    T, lam = spec.T, spec.lam
    out = []
    for (t0, x0), (t1, x1) in zip(samples, samples[1:]):
        if t1 != t0 + 1:
            raise ValueError("samples must carry consecutive periods")
        dev0 = x0 - params.w
        dev1 = x1 - params.w
        q0 = dev0 * dev0 * math.exp(-2.0 * params.phi2 * (T - t0))
        q1 = dev1 * dev1 * math.exp(-2.0 * params.phi2 * (T - t1))
        res = (
            q1
            - q0
            + params.theta2 * (t1 * t1 - t0 * t0)
            + params.theta3
            - lam * (params.phi1 + params.phi2 * (T - t0))
        )
        dres_dphi2 = 2.0 * (T - t0) * q0 - 2.0 * (T - t1) * q1 - lam * (T - t0)
        out.append((res, dres_dphi2, t1 * t1 - t0 * t0))
    return out


def baseline_cost(
    samples: Sequence[Tuple[int, float]], params: BaselineParams, spec: ProblemSpec
) -> float:
    terms = _residual_terms(samples, params, spec)
    return 0.5 * sum(res * res for res, _, _ in terms)


def baseline_gradients(
    samples: Sequence[Tuple[int, float]], params: BaselineParams, spec: ProblemSpec
) -> Tuple[float, float, float, float]:
    """Cost gradient in (theta2, theta3, phi1, phi2)."""
    terms = _residual_terms(samples, params, spec)
    g_t2 = sum(res * d2 for res, _, d2 in terms)
    g_t3 = sum(res for res, _, _ in terms)
    g_p1 = -spec.lam * g_t3
    g_p2 = sum(res * dphi for res, dphi, _ in terms)
    return g_t2, g_t3, g_p1, g_p2


def baseline_apply_updates(
    params: BaselineParams,
    grads: Tuple[float, float, float, float],
    eta_theta: float,
    eta_phi: float,
    spec: ProblemSpec,
) -> BaselineParams:
    """Gradient steps, phi2 projected positive, theta4 pinned to the terminal
    condition baseline_value(T, x) = (x - w)^2 - (w - b)^2."""
    g_t2, g_t3, g_p1, g_p2 = grads
    theta2 = params.theta2 - eta_theta * g_t2
    theta3 = params.theta3 - eta_theta * g_t3
    phi1 = params.phi1 - eta_phi * g_p1
    phi2 = params.phi2 - eta_phi * g_p2
    if phi2 < PHI2_MARGIN:
        phi2 = PHI2_MARGIN
    theta4 = -theta2 * spec.T * spec.T - theta3 * spec.T - (params.w - spec.b) ** 2
    return BaselineParams(theta2, theta3, theta4, phi1, phi2, params.w)


CONTINUOUS = Learner(
    cold_start=lambda spec, r_f, phi1, phi2: BaselineParams(0.0, 0.0, 0.0, phi1, phi2, spec.b),
    policy=lambda p, spec, r_f, t, x: baseline_policy(p, spec, t, x),
    gradients=lambda samples, p, spec, r_f: baseline_gradients(samples, p, spec),
    apply_updates=lambda p, grads, hyper, r_f: baseline_apply_updates(
        p, grads, hyper.eta_theta, hyper.eta_phi, hyper.spec
    ),
    cost=lambda samples, p, spec, r_f: baseline_cost(samples, p, spec),
    fields=lambda p: dict(vars(p)),
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
