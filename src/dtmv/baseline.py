"""Continuous-time mean-variance learner run on the discrete monthly grid.

This is the comparator: the discrete learner's episode kernel with the
constants of the continuous-time construction, one Learner value
(CONTINUOUS) that dtmv.learner.train runs like any other.  Its functional
forms ignore riskless compounding (the state deviation is x - w with no
horizon discounting, and the slope's gap is 2 * phi2), it counts one more
period of entropy at each period, and it steps phi1 with the other
parameters.  The period is the unit of time.  Its sample adapters run the
discrete learner's plain-Python pass and step (_on_samples, step_params).
"""

from __future__ import annotations

from typing import NamedTuple, Sequence, Tuple

import numpy as np

from dtmv.analytic import ProblemSpec
from dtmv.learner import (
    HyperParams,
    Learner,
    TrainResult,
    _on_samples,
    step_params,
    train,
)
from dtmv.market import ReturnModel
from dtmv.market import sample_path  # noqa: F401  (perfbench/spans.py wraps this binding)

ALGORITHM_CONTINUOUS = "emv-continuous"


class BaselineParams(NamedTuple):
    """Continuous-time learner state: value drift coefficients theta2..theta4,
    policy parameters phi1, phi2, and the Lagrange target w."""

    theta2: float
    theta3: float
    theta4: float
    phi1: float
    phi2: float
    w: float


class BaselineRecord(NamedTuple):
    episode: int
    terminal_wealth: float
    theta2: float
    theta3: float
    theta4: float
    phi1: float
    phi2: float
    w: float


# Centers w, the gap 2 * phi2 (phi2 > 0), phi1 stepped, the entropy count
# m + 1 = T - t.
CONTINUOUS = Learner(
    params=BaselineParams,
    record=BaselineRecord,
    shift=1,
    compounding=False,
    hold_phi1=False,
)


def baseline_cost(
    samples: Sequence[Tuple[int, float]], params: BaselineParams, spec: ProblemSpec
) -> float:
    return 0.5 * _on_samples(CONTINUOUS, samples, params, spec, None)[1]


def baseline_gradients(
    samples: Sequence[Tuple[int, float]], params: BaselineParams, spec: ProblemSpec
) -> Tuple[float, float, float, float]:
    """Cost gradient in (theta2, theta3, phi1, phi2)."""
    return _on_samples(CONTINUOUS, samples, params, spec, None)[0]


def baseline_apply_updates(
    params: BaselineParams,
    grads: Tuple[float, float, float, float],
    eta_theta: float,
    eta_phi: float,
    spec: ProblemSpec,
) -> BaselineParams:
    """Gradient steps, phi2 projected positive, theta4 pinned to the terminal
    condition theta2 * T^2 + theta3 * T + theta4 = -(w - b)^2."""
    return step_params(CONTINUOUS, params, grads, eta_theta, eta_phi, spec, None)


def baseline_train(hyper: HyperParams, model: ReturnModel, r_f: float,
                   rng: np.random.Generator) -> TrainResult:
    """Run the comparator for hyper.episodes episodes (train)."""
    return train(hyper, model, r_f, rng, CONTINUOUS)
