"""Model-free learning of the mean-variance policy from sampled episodes.

The learner never sees the return distribution.  It fits a parametric value
surface and Gaussian policy by stochastic gradient steps on a squared
Bellman-residual cost, and tunes the Lagrange target w from realized
terminal wealths.  The policy's scale phi1 is not identified by that cost
and keeps its initial value (see apply_updates); this departs from a plain
gradient step on every parameter.  The riskless factor r_f is treated as
known.

The episodic protocol (rollout, growing-prefix updates, w refresh, divergence
check) is written once, in _episode (behind episode_step) and run_training,
for any Learner: DISCRETE here and the comparator dtmv.baseline.CONTINUOUS.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
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


def _policy_slope(phi1: float, phi2: float, spec: ProblemSpec, r_f: float) -> float:
    """Coefficient of the wealth deviation in the policy mean; raises
    InfeasiblePolicyError where exp(-2*phi2) > r_f^2 makes it imaginary."""
    gap = r_f * r_f - math.exp(-2.0 * phi2)
    if gap < 0.0:
        raise InfeasiblePolicyError(f"phi2={phi2} below the feasibility floor -ln(r_f)")
    return -math.sqrt(gap / (spec.lam * math.pi)) * math.exp((2.0 * phi1 - 1.0) / 2.0)


def _policy_variance(phi1: float, phi2: float, spec: ProblemSpec, t: int) -> float:
    return math.exp(2.0 * phi2 * (spec.T - t - 1) + 2.0 * phi1 - 1.0) / (2.0 * math.pi)


@lru_cache(maxsize=None)
def _discounts(T: int, r_f: float) -> Tuple[float, ...]:
    return tuple(_discount(t, T, r_f) for t in range(T + 1))


def _centers(w: float, spec: ProblemSpec, r_f: float) -> List[float]:
    """Discounted targets rho_t * w, t = 0..T, the wealth deviations are taken from."""
    return [rho * w for rho in _discounts(spec.T, r_f)]


def policy_from_params(
    phi: PolicyParams, spec: ProblemSpec, r_f: float, t: int, x: float, w: float
) -> GaussianPolicy:
    """Gaussian control density implied by phi at state (t, x).

    Requires exp(-2*phi2) <= r_f^2, otherwise the mean coefficient would be
    imaginary (InfeasiblePolicyError).
    """
    if not 0 <= t < spec.T:
        raise ValueError(f"t={t} outside 0..{spec.T - 1}")
    slope = _policy_slope(phi.phi1, phi.phi2, spec, r_f)
    dev = x - _discount(t, spec.T, r_f) * w
    return GaussianPolicy(slope * dev, _policy_variance(phi.phi1, phi.phi2, spec, t))


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


def rollout(policy, centers, returns, spec: ProblemSpec, r_f: float, rng):
    """Run one trajectory from x0 over the given excess returns under the
    policy (slope, variances), fixed for the episode: the control at period
    t is u_t = slope * (x_t - c_t) + sqrt(variances[t]) * z_t, with c_t from
    centers.  The T standard normals z are drawn at once, which gives the
    values and the generator state of T scalar draws.  Returns the wealths
    x_0..x_T, the controls u_0..u_{T-1} and the deviations x_t - c_t,
    t = 0..T."""
    slope, variances = policy
    if not all(v > 0.0 for v in variances):
        raise ValueError("variance must be positive")
    z = rng.standard_normal(spec.T).tolist()
    x = spec.x0
    wealth, controls, devs = [x], [], [x - centers[0]]
    for t in range(spec.T):
        u = slope * devs[t] + math.sqrt(variances[t]) * z[t]
        x = step_wealth(x, u, float(returns[t]), r_f)
        controls.append(u)
        wealth.append(x)
        devs.append(x - centers[t + 1])
    return wealth, controls, devs


def _policy(phi1: float, phi2: float, spec: ProblemSpec, r_f: float):
    """(slope, variances) of the learned policy over one episode; see
    policy_from_params."""
    slope = _policy_slope(phi1, phi2, spec, r_f)
    return slope, [_policy_variance(phi1, phi2, spec, t) for t in range(spec.T)]


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
    policy = _policy(phi.phi1, phi.phi2, spec, r_f)
    wealth, controls, _ = rollout(policy, _centers(w, spec, r_f), returns, spec, r_f, rng)
    return Episode(tuple(wealth), tuple(controls), tuple(returns))


# ---------------------------------------------------------------------------
# residual cost and gradients
# ---------------------------------------------------------------------------


def _check_samples(samples: Sequence[Tuple[int, float]], T: int) -> None:
    for (t0, _), (t1, _) in zip(samples, samples[1:]):
        if t1 != t0 + 1:
            raise ValueError("samples must carry consecutive periods")
    if samples and not (0 <= samples[0][0] and samples[-1][0] <= T):
        raise ValueError("sample periods outside 0..T")


def _residual_sums(devs, t_first, n, theta2, theta3, phi1, phi2, spec: ProblemSpec):
    """Cost gradient in (theta2, theta3, phi1, phi2) and summed squared
    residual over the n transitions from period t_first, devs[k] being the
    deviation x - rho_t * w of the state at period t = t_first + k.

    theta1 is always taken as exp(-2*phi2): the value surface and the policy
    share phi2.
    """
    T, lam = spec.T, spec.lam
    e2 = math.exp(-2.0 * phi2)
    g_t2 = g_t3 = g_p2 = sq = 0.0
    if n:
        dev = devs[0]
        q1 = e2 ** (T - t_first) * dev * dev
        t0 = t_first
        for k in range(1, n + 1):
            q0 = q1
            dev = devs[k]
            m = T - t0 - 1  # periods left after the transition
            q1 = e2**m * dev * dev
            wt = 2.0 * t0 + 1.0
            res = q1 - q0 + theta2 * wt + theta3 - lam * (phi1 + phi2 * m)
            g_t2 += res * wt
            g_t3 += res
            g_p2 += res * (2.0 * (m + 1) * q0 - 2.0 * m * q1 - lam * m)
            sq += res * res
            t0 += 1
    return g_t2, g_t3, -lam * g_t3, g_p2, sq


def _sample_sums(samples, theta: ValueParams, phi: PolicyParams, w: float, spec: ProblemSpec, r_f):
    """_residual_sums over validated (t, x) samples."""
    _check_samples(samples, spec.T)
    devs = [x - _discount(t, spec.T, r_f) * w for t, x in samples]
    t_first = samples[0][0] if samples else 0
    n = max(len(samples) - 1, 0)
    return _residual_sums(devs, t_first, n, theta.theta2, theta.theta3, phi.phi1, phi.phi2, spec)


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
    return 0.5 * _sample_sums(samples, theta, phi, w, spec, r_f)[4]


def grad_theta(
    samples: Sequence[Tuple[int, float]],
    theta: ValueParams,
    phi: PolicyParams,
    w: float,
    spec: ProblemSpec,
    r_f: float,
) -> Tuple[float, float]:
    """Cost gradient in (theta2, theta3)."""
    return _sample_sums(samples, theta, phi, w, spec, r_f)[:2]


def grad_phi(
    samples: Sequence[Tuple[int, float]],
    theta: ValueParams,
    phi: PolicyParams,
    w: float,
    spec: ProblemSpec,
    r_f: float,
) -> Tuple[float, float]:
    """Cost gradient in (phi1, phi2)."""
    return _sample_sums(samples, theta, phi, w, spec, r_f)[2:4]


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
    values = (*vars(theta).values(), *vars(phi).values(), w)
    values = _apply_updates(values, grads, eta_theta, eta_phi, spec, r_f)
    return ValueParams(*values[:4]), PolicyParams(*values[4:6])


def _apply_updates(values, grads, eta_theta, eta_phi, spec: ProblemSpec, r_f: float):
    """apply_updates on the flat values (theta1, theta2, theta3, theta4,
    phi1, phi2, w)."""
    _, theta2, theta3, _, phi1, phi2, w = values
    g_t2, g_t3, g_p1, g_p2 = grads
    theta2 = theta2 - eta_theta * g_t2
    theta3 = theta3 - eta_theta * g_t3 + spec.lam * eta_phi * g_p1
    phi2 = phi2 - eta_phi * g_p2
    floor = -math.log(r_f) + PHI2_MARGIN
    if phi2 < floor:
        phi2 = floor
    theta4 = -theta2 * spec.T**2 - theta3 * spec.T - (w - spec.b) ** 2
    return math.exp(-2.0 * phi2), theta2, theta3, theta4, phi1, phi2, w


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
    run_training).

    Its params are a frozen dataclass; fields names them, w (the Lagrange
    target) last, and params builds them back from the values in that
    order.  Within training the skeleton steps the flat tuple of values,
    and every hook but cold_start, fields and params takes it as it is.
    The policy is fixed for an episode: policy gives its slope and its
    per-period variances (rollout), centers the c_t, t = 0..T, that the
    wealth deviations x_t - c_t are taken from.  The gradient and cost
    hooks take those deviations of the episode's states."""

    cold_start: Callable  # (spec, r_f, phi1, phi2) -> params
    fields: Callable  # params -> {name: value} of the record and the checkpoint
    params: Callable  # (*values) -> params
    policy: Callable  # (values, spec, r_f) -> (slope, [variance_t for t < T])
    centers: Callable  # (values, spec, r_f) -> [c_t for t <= T]
    # (devs, n, values, spec, r_f) -> gradient in (theta2, theta3, phi1, phi2)
    # of the cost of the first n transitions
    gradients: Callable
    apply_updates: Callable  # (values, gradients, hyper, r_f) -> values
    cost: Callable  # (devs, values, spec, r_f) -> cost of the T transitions
    record: Callable  # (episode, terminal_wealth, *values) -> record


def _episode(learner, values, lag, hyper, r_f, returns, rng, learn):
    """episode_step on the learner's values.  Returns the wealths, the
    controls, the values after the episode and the deviations of the
    episode's states from the centers at those values."""
    spec = hyper.spec
    policy = learner.policy(values, spec, r_f)
    centers = learner.centers(values, spec, r_f)
    wealth, controls, devs = rollout(policy, centers, returns, spec, r_f, rng)
    if learn:
        for n in range(1, spec.T + 1) if hyper.prefix_updates else (spec.T,):
            grads = learner.gradients(devs, n, values, spec, r_f)
            values = learner.apply_updates(values, grads, hyper, r_f)
        lag.terminal_wealths.append(wealth[-1])
        if len(lag.terminal_wealths) % hyper.refresh_every == 0:
            update_w(lag, spec.b, hyper.refresh_every)
            values = values[:-1] + (lag.w,)
            # the centers move with w, and the deviations with them
            centers = learner.centers(values, spec, r_f)
            devs = [x - c for x, c in zip(wealth, centers)]
    return wealth, controls, values, devs


def episode_step(learner, params, lag, hyper, r_f, returns, rng, learn=True):
    """Roll out one episode over the given returns under params.  With learn
    set, then take one update per growing prefix of its states (or a single
    whole-episode update when prefix_updates is off), record its terminal
    wealth in lag, and refresh w every refresh_every recorded wealths."""
    values = tuple(learner.fields(params).values())
    wealth, controls, values, _ = _episode(learner, values, lag, hyper, r_f, returns, rng, learn)
    episode = Episode(tuple(wealth), tuple(controls), tuple(returns))
    return episode, learner.params(*values) if learn else params


def run_training(learner, hyper, model, r_f, rng, params=None):
    """Run hyper.episodes episodes from params (the learner's cold start
    from hyper when None); returns the final params and one record per
    episode.  Each episode draws its returns, then runs the step of
    episode_step on them.

    Raises TrainingDivergedError when the residual cost exceeds
    DIVERGENCE_COST or any parameter stops being finite; its message names
    the learner's values after that episode by field.
    """
    spec = hyper.spec
    if params is None:
        params = learner.cold_start(spec, r_f, hyper.init_phi1, hyper.init_phi2)
    values = tuple(learner.fields(params).values())
    lag = LagrangeState(w=values[-1], alpha=hyper.alpha)
    history = []
    for ep in range(1, hyper.episodes + 1):
        returns = sample_path(model, spec.T, rng)
        wealth, _, values, devs = _episode(learner, values, lag, hyper, r_f, returns, rng, True)
        final_cost = learner.cost(devs, values, spec, r_f)
        finite = all(map(math.isfinite, values)) and math.isfinite(final_cost)
        if not finite or abs(final_cost) > DIVERGENCE_COST:
            named = ", ".join(f"{k}={v!r}" for k, v in learner.fields(learner.params(*values)).items())
            raise TrainingDivergedError(f"training diverged at episode {ep} (cost {final_cost!r}; {named})")
        history.append(learner.record(ep, wealth[-1], *values))
    return learner.params(*values), tuple(history)


DISCRETE = Learner(
    cold_start=cold_start,
    fields=lambda p: {**vars(p.theta), **vars(p.phi), "w": p.w},
    params=lambda *v: DiscreteParams(ValueParams(*v[:4]), PolicyParams(*v[4:6]), v[6]),
    policy=lambda v, spec, r_f: _policy(v[4], v[5], spec, r_f),
    centers=lambda v, spec, r_f: _centers(v[6], spec, r_f),
    gradients=lambda devs, n, v, spec, r_f: _residual_sums(
        devs, 0, n, v[1], v[2], v[4], v[5], spec
    )[:4],
    apply_updates=lambda v, g, hyper, r_f: _apply_updates(
        v, g, hyper.eta_theta, hyper.eta_phi, hyper.spec, r_f
    ),
    cost=lambda devs, v, spec, r_f: 0.5
    * _residual_sums(devs, 0, spec.T, v[1], v[2], v[4], v[5], spec)[4],
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
