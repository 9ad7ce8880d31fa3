"""Model-free learning of the mean-variance policy from sampled episodes.

The learner never sees the return distribution.  It fits a parametric value
surface and Gaussian policy by stochastic gradient steps on a squared
Bellman-residual cost, and tunes the Lagrange target w from realized
terminal wealths.  The policy's scale phi1 is not identified by that cost
and keeps its initial value (see apply_updates); this departs from a plain
gradient step on every parameter.  The riskless factor r_f is treated as
known.

The episodic protocol (rollout, growing-prefix updates, w refresh, divergence
check) is written once, in episode_step and run_training, for any Learner:
DISCRETE here and the comparator dtmv.baseline.CONTINUOUS.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from dtmv.analytic import GaussianPolicy, ProblemSpec
from dtmv.market import RNG_ALGORITHM, ReturnModel, sample_path, step_wealth

ALGORITHM_DISCRETE = "emv-discrete"

# training aborts rather than emit garbage past these
DIVERGENCE_COST = 1e12
PHI2_MARGIN = 1e-8


class InfeasiblePolicyError(ValueError):
    """Policy parameters outside the region where the policy mean is real."""


class TrainingDivergedError(RuntimeError):
    """The residual cost or a parameter left the finite range during training."""


# ---------------------------------------------------------------------------
# parameter containers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ValueParams:
    """Coefficients of the value surface
    theta1^(T-t) * (x - rho_t * w)^2 + theta2 * t^2 + theta3 * t + theta4."""

    theta1: float
    theta2: float
    theta3: float
    theta4: float


@dataclass(frozen=True)
class PolicyParams:
    """Exploitation scale phi1 and time-decay rate phi2 of the learned policy."""

    phi1: float
    phi2: float


@dataclass
class LagrangeState:
    """Self-correcting multiplier: w tracks the wealth target b through the
    running record of terminal wealths."""

    w: float
    alpha: float
    terminal_wealths: List[float] = field(default_factory=list)


@dataclass(frozen=True)
class HyperParams:
    """Training configuration.  episodes is the total episode budget M,
    refresh_every the period N of the w update, and (init_phi1, init_phi2)
    the policy parameters of the cold start."""

    spec: ProblemSpec
    eta_theta: float = 0.0005
    eta_phi: float = 0.0005
    alpha: float = 0.05
    episodes: int = 15000
    refresh_every: int = 10
    prefix_updates: bool = True
    init_phi1: float = 1.0
    init_phi2: float = 0.01

    def __post_init__(self) -> None:
        if self.episodes < 0:
            raise ValueError("episodes must be >= 0")
        if self.refresh_every < 1:
            raise ValueError("refresh_every must be >= 1")
        if self.eta_theta <= 0.0 or self.eta_phi <= 0.0 or self.alpha <= 0.0:
            raise ValueError("learning rates must be positive")


@dataclass(frozen=True)
class Episode:
    """One sampled trajectory: wealth x_0..x_T, controls u_0..u_{T-1}, and
    the realized excess returns r_0..r_{T-1}."""

    wealth: Tuple[float, ...]
    controls: Tuple[float, ...]
    returns: Tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.wealth) != len(self.controls) + 1 or len(self.controls) != len(self.returns):
            raise ValueError("episode arrays inconsistent")

    @property
    def terminal_wealth(self) -> float:
        return self.wealth[-1]

    @property
    def states(self) -> Tuple[Tuple[int, float], ...]:
        return tuple(enumerate(self.wealth))


@dataclass(frozen=True)
class EpisodeRecord:
    """Per-episode training log row."""

    episode: int
    terminal_wealth: float
    theta1: float
    theta2: float
    theta3: float
    theta4: float
    phi1: float
    phi2: float
    w: float


@dataclass(frozen=True)
class DiscreteParams:
    """Discrete learner state: value surface, policy and the Lagrange target w."""

    theta: ValueParams
    phi: PolicyParams
    w: float


@dataclass(frozen=True)
class TrainResult:
    theta: ValueParams
    phi: PolicyParams
    w: float
    history: Tuple[EpisodeRecord, ...]
    algorithm: str = ALGORITHM_DISCRETE

    @property
    def params(self) -> DiscreteParams:
        return DiscreteParams(self.theta, self.phi, self.w)


# ---------------------------------------------------------------------------
# parametric policy and value surface
# ---------------------------------------------------------------------------


def _discount(t: int, T: int, r_f: float) -> float:
    return r_f ** -(T - t)


def policy_from_params(
    phi: PolicyParams, spec: ProblemSpec, r_f: float, t: int, x: float, w: float
) -> GaussianPolicy:
    """Gaussian control density implied by phi at state (t, x).

    Requires exp(-2*phi2) <= r_f^2, otherwise the mean coefficient would be
    imaginary (InfeasiblePolicyError).
    """
    if not 0 <= t < spec.T:
        raise ValueError(f"t={t} outside 0..{spec.T - 1}")
    gap = r_f * r_f - math.exp(-2.0 * phi.phi2)
    if gap < 0.0:
        raise InfeasiblePolicyError(f"phi2={phi.phi2} below the feasibility floor -ln(r_f)")
    dev = x - _discount(t, spec.T, r_f) * w
    mean = -math.sqrt(gap / (spec.lam * math.pi)) * math.exp((2.0 * phi.phi1 - 1.0) / 2.0) * dev
    variance = math.exp(2.0 * phi.phi2 * (spec.T - t - 1) + 2.0 * phi.phi1 - 1.0) / (2.0 * math.pi)
    return GaussianPolicy(mean, variance)


def policy_entropy(phi: PolicyParams, spec: ProblemSpec, t: int) -> float:
    """Differential entropy of the learned policy; linear in phi by design."""
    if not 0 <= t < spec.T:
        raise ValueError(f"t={t} outside 0..{spec.T - 1}")
    return phi.phi1 + phi.phi2 * (spec.T - t - 1)


def value_from_params(
    theta: ValueParams, spec: ProblemSpec, r_f: float, t: int, x: float, w: float
) -> float:
    if not 0 <= t <= spec.T:
        raise ValueError(f"t={t} outside 0..{spec.T}")
    dev = x - _discount(t, spec.T, r_f) * w
    return (
        theta.theta1 ** (spec.T - t) * dev * dev
        + theta.theta2 * t * t
        + theta.theta3 * t
        + theta.theta4
    )


def cold_start(spec: ProblemSpec, r_f: float, phi1: float, phi2: float) -> DiscreteParams:
    """Initial state from the policy parameters: flat value drift terms,
    theta1 linked to phi2, w at the target b."""
    if phi2 <= -math.log(r_f):
        raise InfeasiblePolicyError(f"initial phi2={phi2} infeasible for r_f={r_f}")
    theta = ValueParams(math.exp(-2.0 * phi2), 0.0, 0.0, 0.0)
    # w starts at b, so the terminal constant starts at zero
    return DiscreteParams(theta, PolicyParams(phi1, phi2), spec.b)


def default_params(spec: ProblemSpec, r_f: float) -> Tuple[ValueParams, PolicyParams]:
    """Standard cold start: flat value drift terms, mild exploration decay."""
    p = cold_start(spec, r_f, HyperParams.init_phi1, HyperParams.init_phi2)
    return p.theta, p.phi


# ---------------------------------------------------------------------------
# episode sampling
# ---------------------------------------------------------------------------


def rollout(policy, returns, spec: ProblemSpec, r_f: float, rng) -> Episode:
    """Run one trajectory from x0 over the given excess returns, drawing one
    control per period from the GaussianPolicy policy(t, x)."""
    wealth = [spec.x0]
    controls = []
    x = spec.x0
    for t in range(spec.T):
        pol = policy(t, x)
        u = pol.mean + math.sqrt(pol.variance) * rng.standard_normal()
        x = step_wealth(x, u, float(returns[t]), r_f)
        controls.append(u)
        wealth.append(x)
    return Episode(tuple(wealth), tuple(controls), tuple(returns))


def sample_episode(
    phi: PolicyParams,
    w: float,
    model: ReturnModel,
    spec: ProblemSpec,
    r_f: float,
    rng: np.random.Generator,
) -> Episode:
    """Roll out one trajectory from x0 under the current stochastic policy."""
    returns = sample_path(model, spec.T, rng)
    return rollout(
        lambda t, x: policy_from_params(phi, spec, r_f, t, x, w), returns, spec, r_f, rng
    )


# ---------------------------------------------------------------------------
# residual cost and gradients
# ---------------------------------------------------------------------------


def _check_samples(samples: Sequence[Tuple[int, float]], T: int) -> None:
    for (t0, _), (t1, _) in zip(samples, samples[1:]):
        if t1 != t0 + 1:
            raise ValueError("samples must carry consecutive periods")
    if samples and not (0 <= samples[0][0] and samples[-1][0] <= T):
        raise ValueError("sample periods outside 0..T")


def _residual_terms(
    samples: Sequence[Tuple[int, float]],
    theta: ValueParams,
    phi: PolicyParams,
    w: float,
    spec: ProblemSpec,
    r_f: float,
) -> List[Tuple[float, float, float]]:
    """Per-transition (residual, d_residual/d_phi2, d_residual/d_theta2) terms
    of samples already checked by the caller.

    theta1 is always taken as exp(-2*phi2): the value surface and the policy
    share phi2.
    """
    T, lam = spec.T, spec.lam
    e2 = math.exp(-2.0 * phi.phi2)
    out = []
    for (t0, x0), (t1, x1) in zip(samples, samples[1:]):
        dev0 = x0 - _discount(t0, T, r_f) * w
        dev1 = x1 - _discount(t1, T, r_f) * w
        q0 = e2 ** (T - t0) * dev0 * dev0
        q1 = e2 ** (T - t1) * dev1 * dev1
        res = (
            q1
            - q0
            + theta.theta2 * (2.0 * t0 + 1.0)
            + theta.theta3
            - lam * (phi.phi1 + phi.phi2 * (T - t0 - 1))
        )
        dres_dphi2 = 2.0 * (T - t0) * q0 - 2.0 * (T - t1) * q1 - lam * (T - t0 - 1)
        out.append((res, dres_dphi2, 2.0 * t0 + 1.0))
    return out


def _gradients(samples, p: DiscreteParams, spec: ProblemSpec, r_f: float):
    """Cost gradient in (theta2, theta3, phi1, phi2) from one pass over the
    transitions of samples already checked by the caller."""
    terms = _residual_terms(samples, p.theta, p.phi, p.w, spec, r_f)
    g_res = sum(res for res, _, _ in terms)
    return (
        sum(res * wt for res, _, wt in terms),
        g_res,
        -spec.lam * g_res,
        sum(res * dres for res, dres, _ in terms),
    )


def cost(
    samples: Sequence[Tuple[int, float]],
    theta: ValueParams,
    phi: PolicyParams,
    w: float,
    spec: ProblemSpec,
    r_f: float,
) -> float:
    """Half the summed squared Bellman residual over the sampled transitions.

    An empty or single-state sample list has no transitions and costs 0.
    """
    _check_samples(samples, spec.T)
    terms = _residual_terms(samples, theta, phi, w, spec, r_f)
    return 0.5 * sum(res * res for res, _, _ in terms)


def grad_theta(
    samples: Sequence[Tuple[int, float]],
    theta: ValueParams,
    phi: PolicyParams,
    w: float,
    spec: ProblemSpec,
    r_f: float,
) -> Tuple[float, float]:
    """Cost gradient in (theta2, theta3)."""
    _check_samples(samples, spec.T)
    return _gradients(samples, DiscreteParams(theta, phi, w), spec, r_f)[:2]


def grad_phi(
    samples: Sequence[Tuple[int, float]],
    theta: ValueParams,
    phi: PolicyParams,
    w: float,
    spec: ProblemSpec,
    r_f: float,
) -> Tuple[float, float]:
    """Cost gradient in (phi1, phi2)."""
    _check_samples(samples, spec.T)
    return _gradients(samples, DiscreteParams(theta, phi, w), spec, r_f)[2:]


def apply_updates(
    theta: ValueParams,
    phi: PolicyParams,
    grads: Tuple[float, float, float, float],
    eta_theta: float,
    eta_phi: float,
    w: float,
    spec: ProblemSpec,
    r_f: float,
) -> Tuple[ValueParams, PolicyParams]:
    """One gradient step on the cost, with phi1 held, then the two
    constrained coefficients.

    phi1 enters every residual only through theta3 - lam * phi1, so its
    partial g_p1 is always -lam times the theta3 partial g_t3: the cost is
    flat along (theta3, phi1) -> (theta3 + lam * s, phi1 + s), and no sample
    says how a correction should be split between the two.  A plain step on
    all four parameters splits it in the ratio eta_theta : lam^2 * eta_phi;
    from the cold start (theta3 = 0) at eta_theta = eta_phi and lam = 2 it
    takes phi1 from 1 to about 0.2 within 2,000 episodes, cuts the policy's
    slope in the wealth deviation, hence its response to w, by exp(-0.8),
    and leaves w winding up for some 10,000 episodes.  Here theta3 takes the
    whole move of theta3 - lam * phi1 that the plain step would make,
    -eta_theta * g_t3 + lam * eta_phi * g_p1, and phi1 stays where it is.
    This is a deviation from a plain gradient step on (phi1, phi2), chosen
    so that the learned policy keeps responding to w; the continuous-time
    comparator (baseline_apply_updates) still steps phi1.

    theta1 is pinned to exp(-2*phi2) and theta4 to the terminal condition
    value_from_params(T, x) = (x - w)^2 - (w - b)^2.  phi2 is projected onto
    the feasible region phi2 > -ln(r_f).
    """
    g_t2, g_t3, g_p1, g_p2 = grads
    theta2 = theta.theta2 - eta_theta * g_t2
    theta3 = theta.theta3 - eta_theta * g_t3 + spec.lam * eta_phi * g_p1
    phi2 = phi.phi2 - eta_phi * g_p2
    floor = -math.log(r_f) + PHI2_MARGIN
    if phi2 < floor:
        phi2 = floor
    theta1 = math.exp(-2.0 * phi2)
    theta4 = -theta2 * spec.T**2 - theta3 * spec.T - (w - spec.b) ** 2
    return ValueParams(theta1, theta2, theta3, theta4), PolicyParams(phi.phi1, phi2)


def update_w(state: LagrangeState, b: float, n: int) -> LagrangeState:
    """Move w against the mean of the last n terminal wealths:
    w <- w - alpha * (mean - b).  Requires at least n recorded wealths."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if len(state.terminal_wealths) < n:
        raise ValueError(
            f"w update needs {n} terminal wealths, have {len(state.terminal_wealths)}"
        )
    recent = state.terminal_wealths[-n:]
    state.w = state.w - state.alpha * (sum(recent) / n - b)
    return state


# ---------------------------------------------------------------------------
# training skeleton
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Learner:
    """One parametrization of the episodic protocol (episode_step,
    run_training).  Its params are a frozen dataclass with a field w, the
    Lagrange target, and every hook takes them as they are."""

    cold_start: Callable  # (spec, r_f, phi1, phi2) -> params
    policy: Callable  # (params, spec, r_f, t, x) -> GaussianPolicy
    gradients: Callable  # (samples, params, spec, r_f) -> d cost / d(theta2, theta3, phi1, phi2)
    apply_updates: Callable  # (params, gradients, hyper, r_f) -> params
    cost: Callable  # (samples, params, spec, r_f) -> float
    fields: Callable  # params -> {name: value} of the record and the checkpoint
    record: Callable  # (episode=, terminal_wealth=, **fields) -> record


def episode_step(learner, params, lag, hyper, r_f, returns, rng, learn=True):
    """Roll out one episode over the given returns under params.  With learn
    set, then take one update per growing prefix of its states (or a single
    whole-episode update when prefix_updates is off), record its terminal
    wealth in lag, and refresh w every refresh_every recorded wealths."""
    spec = hyper.spec
    episode = rollout(partial(learner.policy, params, spec, r_f), returns, spec, r_f, rng)
    if learn:
        states = episode.states
        if hyper.prefix_updates:
            prefixes = [states[: i + 1] for i in range(1, spec.T + 1)]
        else:
            prefixes = [states]
        for sample in prefixes:
            grads = learner.gradients(sample, params, spec, r_f)
            params = learner.apply_updates(params, grads, hyper, r_f)
        lag.terminal_wealths.append(episode.terminal_wealth)
        if len(lag.terminal_wealths) % hyper.refresh_every == 0:
            update_w(lag, spec.b, hyper.refresh_every)
            params = replace(params, w=lag.w)
    return episode, params


def run_training(learner, hyper, model, r_f, rng, params=None):
    """Run hyper.episodes episodes from params (the learner's cold start
    from hyper when None); returns the final params and one record per
    episode.  Each episode draws its returns, then runs episode_step.

    Raises TrainingDivergedError when the residual cost exceeds
    DIVERGENCE_COST or any parameter stops being finite.
    """
    spec = hyper.spec
    if params is None:
        params = learner.cold_start(spec, r_f, hyper.init_phi1, hyper.init_phi2)
    lag = LagrangeState(w=params.w, alpha=hyper.alpha)
    history = []
    for ep in range(1, hyper.episodes + 1):
        returns = sample_path(model, spec.T, rng)
        episode, params = episode_step(learner, params, lag, hyper, r_f, returns, rng)
        final_cost = learner.cost(episode.states, params, spec, r_f)
        fields = learner.fields(params)
        finite = all(math.isfinite(v) for v in fields.values()) and math.isfinite(final_cost)
        if not finite or abs(final_cost) > DIVERGENCE_COST:
            raise TrainingDivergedError(f"training diverged at episode {ep} (cost {final_cost!r})")
        x_T = episode.terminal_wealth
        history.append(learner.record(episode=ep, terminal_wealth=x_T, **fields))
    return params, tuple(history)


DISCRETE = Learner(
    cold_start=cold_start,
    policy=lambda p, spec, r_f, t, x: policy_from_params(p.phi, spec, r_f, t, x, p.w),
    gradients=_gradients,
    apply_updates=lambda p, g, hyper, r_f: DiscreteParams(
        *apply_updates(p.theta, p.phi, g, hyper.eta_theta, hyper.eta_phi, p.w, hyper.spec, r_f), p.w
    ),
    cost=lambda samples, p, spec, r_f: cost(samples, p.theta, p.phi, p.w, spec, r_f),
    fields=lambda p: {**vars(p.theta), **vars(p.phi), "w": p.w},
    record=EpisodeRecord,
)


def train(
    hyper: HyperParams,
    model: ReturnModel,
    r_f: float,
    rng: np.random.Generator,
    init: Optional[Tuple[ValueParams, PolicyParams]] = None,
) -> TrainResult:
    """Run the discrete learner for hyper.episodes episodes (run_training),
    from init with w at b, or from the cold start in hyper."""
    start = None if init is None else DiscreteParams(init[0], init[1], hyper.spec.b)
    params, history = run_training(DISCRETE, hyper, model, r_f, rng, start)
    return TrainResult(theta=params.theta, phi=params.phi, w=params.w, history=history)


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------


def save_checkpoint(
    path: str, algorithm: str, params: Dict[str, float], rng: np.random.Generator
) -> None:
    """Write a flat key=value checkpoint including the full RNG state."""
    state = rng.bit_generator.state
    if state["bit_generator"] != "PCG64":
        raise ValueError("only pcg64 generators are checkpointable")
    lines = [f"algorithm={algorithm}", f"rng.algorithm={RNG_ALGORITHM}"]
    lines.append(f"rng.state={state['state']['state']}")
    lines.append(f"rng.inc={state['state']['inc']}")
    lines.append(f"rng.has_uint32={state['has_uint32']}")
    lines.append(f"rng.uinteger={state['uinteger']}")
    for key in sorted(params):
        lines.append(f"param.{key}={params[key]!r}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_checkpoint(path: str) -> Tuple[str, Dict[str, float], np.random.Generator]:
    """Inverse of save_checkpoint; the restored generator continues the
    saved stream exactly."""
    raw: Dict[str, str] = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value")
            key, val = line.split("=", 1)
            raw[key] = val
    if raw.get("rng.algorithm") != RNG_ALGORITHM:
        raise ValueError(f"{path}: unsupported rng algorithm {raw.get('rng.algorithm')!r}")
    params = {
        key[len("param.") :]: float(val) for key, val in raw.items() if key.startswith("param.")
    }
    bitgen = np.random.PCG64()
    bitgen.state = {
        "bit_generator": "PCG64",
        "state": {"state": int(raw["rng.state"]), "inc": int(raw["rng.inc"])},
        "has_uint32": int(raw["rng.has_uint32"]),
        "uinteger": int(raw["rng.uinteger"]),
    }
    return raw["algorithm"], params, np.random.Generator(bitgen)
