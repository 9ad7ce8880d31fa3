"""Model-free learning of the mean-variance policy from sampled episodes.

The learner never sees the return distribution.  It fits a parametric value
surface and Gaussian policy by stochastic gradient steps on a squared
Bellman-residual cost, and tunes the Lagrange target w from realized
terminal wealths.  The policy's scale phi1 is not identified by that cost
and keeps its initial value (see _descend); this departs from a plain
gradient step on every parameter.  The riskless factor r_f is treated as
known.

One episode kernel serves both learners: _episode rolls out the policy
(_policy), records the terminal wealth, refreshes w, and runs the
growing-prefix updates and the cost (_descend) on local floats.
run_episodes is its one driver: it runs the kernel on each (returns, policy
normals) pair it is given, checks for divergence and returns a TrainResult;
train feeds it each episode's draws (market.episode_draws), and the
backtest's test windows feed it the windows.  A Learner is data: its
params, its records and the few constants in which the continuous-time
comparator (dtmv.baseline.CONTINUOUS) differs from DISCRETE here.  The
public functions on samples and parameters (cost, grad_theta, grad_phi,
apply_updates, sample_episode, policy_from_params) are thin adapters over
the kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, NamedTuple, Sequence, Tuple

import numpy as np

from dtmv.analytic import GaussianPolicy, ProblemSpec, discount_factor
from dtmv.market import RNG_ALGORITHM, ReturnModel, episode_draws, sample_path

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


class EpisodeRecord(NamedTuple):
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


class TrainResult(NamedTuple):
    """The params a run of the kernel ended with, and one record per episode."""

    params: object
    history: tuple


# ---------------------------------------------------------------------------
# the episode kernel, shared by both learners
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Learner:
    """A learner of the episode kernel: its params and records, and the
    constants in which it differs from the other one.

    Both learners fit the value surface q_t + theta2 t^2 + theta3 t + theta4,
    q_t = exp(-2 phi2)^(T - t) (x - c_t)^2, and the Gaussian policy of mean
    slope (x - c_t) and variance exp(2 phi2 (m + shift) + 2 phi1 - 1) / (2 pi)
    at period t, m = T - t - 1 periods after it, by gradient steps on the
    squared residuals
        q_{t+1} - q_t + theta2 (2t + 1) + theta3 - lam (phi1 + phi2 (m + shift))
    of the transitions t -> t + 1 (_descend).

    fields names the values of its params, w (the Lagrange target) last:
    the kernel's theta1..w, or theta2..w for a learner that keeps no theta1.
    params builds the params, and record one log row, from those values.
    """

    cold_start: Callable  # (spec, r_f, phi1, phi2) -> params
    fields: Callable  # params -> {name: value} of the record and the checkpoint
    params: Callable  # (*values) -> params
    record: Callable  # (episode, terminal_wealth, *values) -> record
    shift: int  # of the entropy count and the variance exponent
    # compounding at r_f inside the functional forms: centers c_t = w / r_f^(T - t)
    # and a slope with the root of r_f^2 - exp(-2 phi2), so phi2 > -ln(r_f);
    # else c_t = w and the root of 2 phi2, so phi2 > 0
    compounding: bool
    hold_phi1: bool  # phi1 held, theta3 taking its move (_descend), or stepped


class _Run(NamedTuple):
    """A learner's constants over one run of the kernel."""

    T: int
    x0: float
    b: float
    lam: float
    r_f: float
    eta_theta: float
    eta_phi: float
    refresh_every: int
    passes: tuple  # (n, step) of _descend over an episode: each prefix, then the cost
    rhos: tuple  # c_t / w, t = 0..T
    counts: tuple  # m + shift, t < T
    steps: tuple  # (m, 2t + 1, m + shift, 2 (m + 1), 2m, lam (m + shift)), t < T
    floor: float  # of phi2
    compounding: bool
    hold_phi1: bool


def _setup(learner: Learner, hyper: HyperParams, r_f) -> _Run:
    spec = hyper.spec
    T, lam = spec.T, spec.lam
    if learner.compounding:
        rhos = tuple(discount_factor(t, T, r_f) for t in range(T + 1))
        floor = -math.log(r_f) + PHI2_MARGIN
    else:
        rhos, floor = (1.0,) * (T + 1), PHI2_MARGIN
    counts = tuple(T - t - 1 + learner.shift for t in range(T))
    steps = tuple(
        (T - t - 1, 2.0 * t + 1.0, c, 2.0 * (T - t), 2.0 * (T - t - 1), lam * c)
        for t, c in enumerate(counts)
    )
    prefixes = range(1, T + 1) if hyper.prefix_updates else (T,)
    passes = tuple((n, True) for n in prefixes) + ((T, False),)
    return _Run(T, spec.x0, spec.b, lam, r_f, hyper.eta_theta, hyper.eta_phi, hyper.refresh_every,
                passes, rhos, counts, steps, floor, learner.compounding, learner.hold_phi1)


def _values(learner: Learner, params) -> Tuple[Tuple[float, ...], int]:
    """The kernel's values (theta1, theta2, theta3, theta4, phi1, phi2, w) of
    params, theta1 = exp(-2 phi2), and the index of the first one the
    learner keeps."""
    f = learner.fields(params)
    v = (math.exp(-2.0 * f["phi2"]), f["theta2"], f["theta3"], f["theta4"], f["phi1"],
         f["phi2"], f["w"])
    return v, 0 if "theta1" in f else 1


def _policy(run: _Run, phi1: float, phi2: float, e2: float):
    """(slope, [variance_t for t < T]) of the learner's policy, e2 being
    exp(-2 phi2); raises InfeasiblePolicyError where the root under the
    slope is not of a positive number or a variance is not positive."""
    gap = run.r_f * run.r_f - e2 if run.compounding else 2.0 * phi2
    if not gap > 0.0:
        raise InfeasiblePolicyError(f"phi2={phi2} below the floor of the feasible region")
    p1, p2, exp, two_pi = 2.0 * phi1, 2.0 * phi2, math.exp, 2.0 * math.pi
    slope = -math.sqrt(gap / (run.lam * math.pi)) * exp((p1 - 1.0) / 2.0)
    variances = [exp(p2 * c + p1 - 1.0) / two_pi for c in run.counts]
    if not min(variances) > 0.0:
        raise InfeasiblePolicyError(f"the policy variance is {min(variances)!r}")
    return slope, variances


def _descend(run: _Run, passes, devs, devs_after, t_first, theta2, theta3, phi1, phi2, e2, w,
             grads=None):
    """Passes over the residuals of the n transitions from period t_first
    at the current values, one per (n, step) in passes.  With step set, a
    pass sums the gradient (g_t2, g_t3, g_p1, g_p2) in (theta2, theta3,
    phi1, phi2) of half their summed squares, then takes one gradient step
    of sizes (eta_theta, eta_phi) on it, or on grads when they are given;
    without, it sums their squares.  devs[k] is the deviation x - c_t of the
    state at period t_first + k from the centers at w; a pass without a step
    reads devs_after, the deviations from the centers at w after the
    episode's refresh.  e2 is exp(-2 phi2), i.e. theta1: the value surface
    and the policy share phi2.  Returns theta1..phi2 after the steps, with
    theta1 and theta4 pinned at w, and the gradient and the summed squares
    of the last pass.

    phi1 enters every residual only through theta3 - lam * phi1, so its
    partial g_p1 is always -lam times the theta3 partial g_t3: the cost is
    flat along (theta3, phi1) -> (theta3 + lam * s, phi1 + s), and no sample
    says how a correction should be split between the two.  A plain step on
    all four parameters splits it in the ratio eta_theta : lam^2 * eta_phi;
    from the cold start (theta3 = 0) at eta_theta = eta_phi and lam = 2 it
    takes phi1 from 1 to about 0.2 within 2,000 episodes, cuts the policy's
    slope in the wealth deviation, hence its response to w, by exp(-0.8),
    and leaves w winding up for some 10,000 episodes.  Where hold_phi1 is
    set, theta3 takes the whole move of theta3 - lam * phi1 that the plain
    step would make, -eta_theta * g_t3 + lam * eta_phi * g_p1, and phi1
    stays where it is.  This is a deviation from a plain gradient step on
    (phi1, phi2), chosen so that the learned policy keeps responding to w;
    the continuous-time comparator still steps phi1.

    phi2 is projected onto its floor; theta1 is pinned to exp(-2 phi2) and
    theta4 to the terminal condition value(T, x) = (x - w)^2 - (w - b)^2.

    The weights exp(-2 phi2 (T - t)) of q_t and the T^2 of theta4 are
    evaluated in the float order each learner's pinned outputs were computed
    in: e2**(T - t) * dev * dev and T**2 where compounding is set (the
    discrete learner), dev * dev * exp(-2 phi2 (T - t)) and T * T otherwise.
    """
    T, b, lam, steps, floor = run.T, run.b, run.lam, run.steps, run.floor
    eta_theta, eta_phi = run.eta_theta, run.eta_phi
    hold, compounding = run.hold_phi1, run.compounding
    exp = math.exp
    for n, step in passes:
        g_t2 = g_t3 = g_p2 = sq = 0.0
        d = devs if step else devs_after
        if n:
            dev = d[0]
            left = T - t_first
            q1 = e2**left * dev * dev if compounding else dev * dev * exp(-2.0 * phi2 * left)
            for k in range(n):
                m, wt, count, a0, a1, lam_count = steps[t_first + k]
                q0 = q1
                dev = d[k + 1]
                q1 = e2**m * dev * dev if compounding else dev * dev * exp(-2.0 * phi2 * m)
                res = q1 - q0 + theta2 * wt + theta3 - lam * (phi1 + phi2 * count)
                if step:
                    g_t2 += res * wt
                    g_t3 += res
                    g_p2 += res * (a0 * q0 - a1 * q1 - lam_count)
                else:
                    sq += res * res
        g_p1 = -lam * g_t3
        if grads is not None:
            g_t2, g_t3, g_p1, g_p2 = grads
        if step:
            theta2 = theta2 - eta_theta * g_t2
            theta3 = theta3 - eta_theta * g_t3
            if hold:
                theta3 = theta3 + lam * eta_phi * g_p1
            else:
                phi1 = phi1 - eta_phi * g_p1
            phi2 = phi2 - eta_phi * g_p2
            if phi2 < floor:
                phi2 = floor
            e2 = exp(-2.0 * phi2)
    theta4 = (-theta2 * T**2 if compounding else -theta2 * T * T) - theta3 * T - (w - b) ** 2
    return (e2, theta2, theta3, theta4, phi1, phi2), (g_t2, g_t3, g_p1, g_p2), sq


def _episode(run: _Run, v, lag, rets, z, learn):
    """One episode from the values v = (theta1, ..., w) over the excess
    returns rets and the T standard normals z of the policy (floats).

    The policy is fixed for the episode: the control at period t is
    u_t = slope * (x_t - c_t) + sqrt(variance_t) * z_t.  With learn set, its
    terminal wealth is then recorded in lag, w refreshed every refresh_every
    recorded wealths, and _descend takes one gradient step per growing prefix
    of its transitions (or one on all of them when prefix_updates is off) and
    the cost of all of them at the values after the episode.  Returns the
    wealths x_0..x_T, the controls u_0..u_{T-1}, those values and, with
    learn, that cost.
    """
    T, x, b, r_f, rhos = run.T, run.x0, run.b, run.r_f, run.rhos
    e2, theta2, theta3, _, phi1, phi2, w = v
    slope, variances = _policy(run, phi1, phi2, e2)
    sqrt = math.sqrt
    dev = x - rhos[0] * w
    wealth, controls, devs = [x], [], [dev]
    for t in range(T):
        u = slope * dev + sqrt(variances[t]) * z[t]
        x = r_f * x + rets[t] * u  # step_wealth
        dev = x - rhos[t + 1] * w
        wealth.append(x)
        controls.append(u)
        devs.append(dev)
    if not learn:
        return wealth, controls, v, None
    lag.terminal_wealths.append(x)
    w_after, devs_after = w, devs
    if len(lag.terminal_wealths) % run.refresh_every == 0:
        update_w(lag, b, run.refresh_every)
        w_after = lag.w
        # the centers move with w, and the deviations with them
        devs_after = [xt - rho * w_after for xt, rho in zip(wealth, rhos)]
    values, _, sq = _descend(run, run.passes, devs, devs_after, 0, theta2, theta3, phi1, phi2, e2,
                             w)
    return wealth, controls, (*values, w_after), 0.5 * sq


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


def _diverged(learner: Learner, ep: int, why: str, values) -> TrainingDivergedError:
    named = ", ".join(f"{k}={x!r}" for k, x in learner.fields(learner.params(*values)).items())
    return TrainingDivergedError(f"training diverged at episode {ep} ({why}; {named})")


def run_episodes(learner: Learner, hyper: HyperParams, r_f, draws: Iterable, params=None,
                 learn: bool = True) -> TrainResult:
    """Run the kernel once per (returns, policy normals) pair of float lists
    in draws, from params (the learner's cold start from hyper when None);
    returns the final params and one record per episode.  With learn off
    the params stay as given and only the rollouts are recorded.

    Raises InfeasiblePolicyError when params define no policy.  With learn
    set, raises TrainingDivergedError when the residual cost exceeds
    DIVERGENCE_COST or any parameter stops being finite, naming the
    learner's values after that episode by field; or when the values
    training reached leave an episode's policy undefined (a variance that
    underflows to 0) or its arithmetic out of the float range, naming the
    values the episode started from.  A generator behind draws may then
    have drawn past the diverged episode, so its state is unspecified.
    """
    if params is None:
        params = learner.cold_start(hyper.spec, r_f, hyper.init_phi1, hyper.init_phi2)
    run = _setup(learner, hyper, r_f)
    v, kept = _values(learner, params)
    _policy(run, v[4], v[5], v[0])  # raises where params define no policy
    lag = LagrangeState(w=v[-1], alpha=hyper.alpha)
    history = []
    record = learner.record
    for ep, (rets, z) in enumerate(draws, 1):
        try:
            wealth, _, v_next, cost_ = _episode(run, v, lag, rets, z, learn)
        except (InfeasiblePolicyError, OverflowError) as exc:
            raise _diverged(learner, ep, f"{type(exc).__name__}: {exc}", v[kept:]) from exc
        v = v_next
        if learn and not (all(map(math.isfinite, v)) and abs(cost_) <= DIVERGENCE_COST):
            raise _diverged(learner, ep, f"cost {cost_!r}", v[kept:])
        history.append(record(ep, wealth[-1], *v[kept:]))
    return TrainResult(learner.params(*v[kept:]) if learn else params, tuple(history))


def learner_policy(learner, spec: ProblemSpec, r_f, phi1: float, phi2: float, t: int, x: float,
                   w: float) -> GaussianPolicy:
    """The learner's Gaussian control density at state (t, x) (_policy)."""
    if not 0 <= t < spec.T:
        raise ValueError(f"t={t} outside 0..{spec.T - 1}")
    run = _setup(learner, HyperParams(spec), r_f)
    slope, variances = _policy(run, phi1, phi2, math.exp(-2.0 * phi2))
    return GaussianPolicy(slope * (x - run.rhos[t] * w), variances[t])


def _check_samples(samples: Sequence[Tuple[int, float]], T: int) -> None:
    for (t0, _), (t1, _) in zip(samples, samples[1:]):
        if t1 != t0 + 1:
            raise ValueError("samples must carry consecutive periods")
    if samples and not (0 <= samples[0][0] and samples[-1][0] <= T):
        raise ValueError("sample periods outside 0..T")


def _on_samples(learner, samples, params, spec: ProblemSpec, r_f, step: bool):
    """One pass of _descend over (t, x) samples of consecutive periods in
    0..T: the gradient (theta2, theta3, phi1, phi2) of half the summed
    squared residual with step set (its step is not kept), else that sum; an
    empty or single-state sample list has no transitions and sums to 0."""
    _check_samples(samples, spec.T)
    run = _setup(learner, HyperParams(spec), r_f)
    (e2, theta2, theta3, _, phi1, phi2, w), _ = _values(learner, params)
    devs = [x - run.rhos[t] * w for t, x in samples]
    t_first, n = (samples[0][0], len(samples) - 1) if samples else (0, 0)
    _, grads, sq = _descend(run, ((n, step),), devs, devs, t_first, theta2, theta3, phi1, phi2,
                            e2, w)
    return grads if step else sq


def step_params(learner, params, grads, eta_theta: float, eta_phi: float, spec: ProblemSpec, r_f):
    """params after the learner's gradient step (_descend) on grads."""
    run = _setup(learner, HyperParams(spec, eta_theta, eta_phi), r_f)
    (e2, theta2, theta3, _, phi1, phi2, w), kept = _values(learner, params)
    stepped, _, _ = _descend(run, ((0, True),), (), (), 0, theta2, theta3, phi1, phi2, e2, w,
                             grads)
    return learner.params(*(*stepped, w)[kept:])


# ---------------------------------------------------------------------------
# the discrete learner
# ---------------------------------------------------------------------------


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


# Discounted centers, phi1 held, the entropy count m = T - t - 1.
DISCRETE = Learner(
    cold_start=cold_start,
    fields=lambda p: {**vars(p.theta), **vars(p.phi), "w": p.w},
    params=lambda *v: DiscreteParams(ValueParams(*v[:4]), PolicyParams(*v[4:6]), v[6]),
    record=EpisodeRecord,
    shift=0,
    compounding=True,
    hold_phi1=True,
)


def policy_from_params(
    phi: PolicyParams, spec: ProblemSpec, r_f: float, t: int, x: float, w: float
) -> GaussianPolicy:
    """Gaussian control density implied by phi at state (t, x).

    Requires exp(-2*phi2) < r_f^2, otherwise the mean coefficient would be
    imaginary (InfeasiblePolicyError).
    """
    return learner_policy(DISCRETE, spec, r_f, phi.phi1, phi.phi2, t, x, w)


def policy_entropy(phi: PolicyParams, spec: ProblemSpec, t: int) -> float:
    """Differential entropy of the learned policy; linear in phi by design."""
    if not 0 <= t < spec.T:
        raise ValueError(f"t={t} outside 0..{spec.T - 1}")
    return phi.phi1 + phi.phi2 * (spec.T - t - 1)


def value_from_params(
    theta: ValueParams, spec: ProblemSpec, r_f: float, t: int, x: float, w: float
) -> float:
    dev = x - discount_factor(t, spec.T, r_f) * w  # raises for t outside 0..T
    return (
        theta.theta1 ** (spec.T - t) * dev * dev
        + theta.theta2 * t * t
        + theta.theta3 * t
        + theta.theta4
    )


def sample_episode(phi: PolicyParams, w: float, model: ReturnModel, spec: ProblemSpec, r_f: float,
                   rng: np.random.Generator) -> Episode:
    """Roll out one trajectory from x0 under the current stochastic policy."""
    returns = sample_path(model, spec.T, rng)
    z = rng.standard_normal(spec.T).tolist()
    v = (math.exp(-2.0 * phi.phi2), 0.0, 0.0, 0.0, phi.phi1, phi.phi2, w)
    run = _setup(DISCRETE, HyperParams(spec), r_f)
    wealth, controls, _, _ = _episode(run, v, None, returns.tolist(), z, False)
    return Episode(tuple(wealth), tuple(controls), tuple(returns))


def cost(samples: Sequence[Tuple[int, float]], theta: ValueParams, phi: PolicyParams, w: float,
         spec: ProblemSpec, r_f: float) -> float:
    """Half the summed squared Bellman residual over the sampled transitions.

    An empty or single-state sample list has no transitions and costs 0.
    """
    return 0.5 * _on_samples(DISCRETE, samples, DiscreteParams(theta, phi, w), spec, r_f, False)


def grad_theta(samples: Sequence[Tuple[int, float]], theta: ValueParams, phi: PolicyParams,
               w: float, spec: ProblemSpec, r_f: float) -> Tuple[float, float]:
    """Cost gradient in (theta2, theta3)."""
    return _on_samples(DISCRETE, samples, DiscreteParams(theta, phi, w), spec, r_f, True)[:2]


def grad_phi(samples: Sequence[Tuple[int, float]], theta: ValueParams, phi: PolicyParams,
             w: float, spec: ProblemSpec, r_f: float) -> Tuple[float, float]:
    """Cost gradient in (phi1, phi2)."""
    return _on_samples(DISCRETE, samples, DiscreteParams(theta, phi, w), spec, r_f, True)[2:]


def apply_updates(theta: ValueParams, phi: PolicyParams, grads: Tuple[float, float, float, float],
                  eta_theta: float, eta_phi: float, w: float, spec: ProblemSpec,
                  r_f: float) -> Tuple[ValueParams, PolicyParams]:
    """One gradient step on the cost with phi1 held (see _descend), phi2
    projected onto the feasible region phi2 > -ln(r_f), theta1 pinned to
    exp(-2*phi2) and theta4 to value_from_params(T, x) = (x - w)^2 - (w - b)^2."""
    p = step_params(DISCRETE, DiscreteParams(theta, phi, w), grads, eta_theta, eta_phi, spec, r_f)
    return p.theta, p.phi


def train(hyper: HyperParams, model: ReturnModel, r_f: float, rng: np.random.Generator,
          learner: Learner = DISCRETE) -> TrainResult:
    """Run the learner for hyper.episodes episodes of its draws from
    episode_draws (run_episodes), from the cold start in hyper."""
    spec = hyper.spec
    if not hyper.episodes:
        return TrainResult(learner.cold_start(spec, r_f, hyper.init_phi1, hyper.init_phi2), ())
    return run_episodes(learner, hyper, r_f, episode_draws(model, spec.T, rng, hyper.episodes))


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
    saved stream exactly.  A missing or malformed entry raises a ValueError
    naming the file and the key."""
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

    def value(key: str, parse=str):
        if key not in raw:
            raise ValueError(f"{path}: missing key {key!r}")
        try:
            return parse(raw[key])
        except ValueError:
            raise ValueError(f"{path}: {key}={raw[key]!r} is not a valid {parse.__name__}") from None

    params = {key[len("param.") :]: value(key, float) for key in raw if key.startswith("param.")}
    bitgen = np.random.PCG64()
    bitgen.state = {
        "bit_generator": "PCG64",
        "state": {"state": value("rng.state", int), "inc": value("rng.inc", int)},
        "has_uint32": value("rng.has_uint32", int),
        "uinteger": value("rng.uinteger", int),
    }
    return value("algorithm"), params, np.random.Generator(bitgen)
