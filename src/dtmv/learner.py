"""Model-free learning of the mean-variance policy from sampled episodes.

The learner never sees the return distribution.  It fits a parametric value
surface and Gaussian policy by stochastic gradient steps on a squared
Bellman-residual cost, and tunes the Lagrange target w from realized
terminal wealths.  The policy's scale phi1 is not identified by that cost
and keeps its initial value (see _kernel_source); this departs from a plain
gradient step on every parameter.  The riskless factor r_f is treated as
known.

One episode kernel serves both learners.  _kernel_source writes it as
straight-line Python for each run structure (horizon, passes and the
learner's constants): the policy, the rollout, and the training loop run,
which per row of draws (an episode's returns, then its policy normals)
rolls out, records the terminal wealth, refreshes w, runs the
growing-prefix updates on local floats and checks for divergence on the
squared residuals of the last.  _compile compiles a structure once;
_setup binds a run's floats to it.  run_episodes calls run once per run
(a frozen run rolls out each row alone) and returns a TrainResult; train
feeds it each episode's row (market.episode_draws), the backtest's test
windows one row per window.  Only train's log reads the per-episode records, each
built on access (History); with records off a run keeps its wealths alone.  A Learner is
data: its params, its records and the few constants in which the
continuous-time comparator (dtmv.baseline.CONTINUOUS) differs from DISCRETE
here.  The sample adapters (cost, grad_theta, grad_phi, apply_updates) run
the kernel's descend, sample_episode its rollout.
"""

from __future__ import annotations

import functools
import math
import struct
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, NamedTuple, Sequence, Tuple

import numpy as np

from dtmv.analytic import ProblemSpec, discount_factor
from dtmv.market import RNG_ALGORITHM, ReturnModel, episode_draws, sample_path
from dtmv.records import checked

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


class ValueParams(NamedTuple):
    """Coefficients of the value surface
    theta1^(T-t) * (x - rho_t * w)^2 + theta2 * t^2 + theta3 * t + theta4."""

    theta1: float
    theta2: float
    theta3: float
    theta4: float


class PolicyParams(NamedTuple):
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


@checked
class HyperParams(NamedTuple):
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

    def _check(self) -> None:
        for name in ("eta_theta", "eta_phi", "alpha", "init_phi1", "init_phi2"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.episodes < 0:
            raise ValueError("episodes must be >= 0")
        if self.refresh_every < 1:
            raise ValueError("refresh_every must be >= 1")
        if self.eta_theta <= 0.0 or self.eta_phi <= 0.0 or self.alpha <= 0.0:
            raise ValueError("learning rates must be positive")


@checked
class Episode(NamedTuple):
    """One sampled trajectory: wealth x_0..x_T, controls u_0..u_{T-1}, and
    the realized excess returns r_0..r_{T-1}."""

    wealth: Tuple[float, ...]
    controls: Tuple[float, ...]
    returns: Tuple[float, ...]

    def _check(self) -> None:
        if len(self.wealth) != len(self.controls) + 1 or len(self.controls) != len(self.returns):
            raise ValueError("episode arrays inconsistent")

    @property
    def terminal_wealth(self) -> float:
        return self.wealth[-1]


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


class DiscreteParams(NamedTuple):
    """Discrete learner state: value surface, policy and the Lagrange target w."""

    theta: ValueParams
    phi: PolicyParams
    w: float


class TrainResult(NamedTuple):
    """The params a run ended with, and per episode its record (a History) or terminal wealth."""

    params: object
    history: Sequence


class History(Sequence):
    """A run's records as columns: its terminal wealths and one float array of
    the kernel's seven values (theta1, ..., w) after each episode.  An index, a
    slice or iteration builds the records it reads, and nothing else does."""

    def __init__(self, record: Callable, kept: int, wealths: List[float], values):  # values: array("d")
        self.record, self.kept, self.wealths, self.values = record, kept, wealths, values

    def __len__(self) -> int:
        return len(self.wealths)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(map(self.__getitem__, range(len(self))[index]))
        k = range(len(self))[index]
        return self.record(k + 1, self.wealths[k], *self.values[7 * k + self.kept:7 * k + 7])

    def __iter__(self):
        return map(self.record, *self.columns())

    def __eq__(self, other) -> bool:
        return tuple(self) == (tuple(other) if isinstance(other, History) else other)

    def columns(self) -> tuple:  # the records' fields in order: episodes 1..n, wealths, kept values
        return (range(1, len(self) + 1), self.wealths, *(self.values[k::7] for k in range(self.kept, 7)))


# ---------------------------------------------------------------------------
# the episode kernel, generated per run structure and shared by both learners
# ---------------------------------------------------------------------------

# the kernel's seven values (theta1, ..., w) as the native doubles of one History row
_PACK = struct.Struct("7d").pack


class Learner(NamedTuple):
    """A learner of the episode kernel: its params and records, and the
    constants in which it differs from the other one.

    Both learners fit the value surface q_t + theta2 t^2 + theta3 t + theta4,
    q_t = exp(-2 phi2)^(T - t) (x - c_t)^2, and the Gaussian policy of mean
    slope (x - c_t) and variance exp(2 phi2 (m + shift) + 2 phi1 - 1) / (2 pi)
    at period t, m = T - t - 1 periods after it, by gradient steps on the
    squared residuals
        q_{t+1} - q_t + theta2 (2t + 1) + theta3 - lam (phi1 + phi2 (m + shift))
    of the transitions t -> t + 1 (_kernel_source, which forms the standard
    deviations and the weights, geometric in t, by multiplication).

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
    hold_phi1: bool  # phi1 held, theta3 taking its move (_kernel_source), or stepped


def _names(prefix: str, periods) -> str:
    """'x0, x1, ' for ('x', range(2)): a tuple's items, or its unpacking targets."""
    return "".join(f"{prefix}{t}, " for t in periods)


def _kernel_source(T: int, shift: int, compounding: bool, hold_phi1: bool, t_first: int,
                   passes: tuple, training: bool, bound: tuple) -> Tuple[str, ...]:
    """Python sources of a learner's episode kernel at horizon T, with one
    pass over the residuals of the n transitions from period t_first per n
    in passes: one function each, compiled one at a time (_compile).  run
    reads a run's floats (_setup's names, bound here) as keyword-only
    defaults, locals; the others read them as globals.  Of the values
    v = (theta1, ..., w), theta1 being e2 = exp(-2 phi2):
        policy(phi1, phi2, e2) -> (slope, standard deviation s_t for t <
            T); raises InfeasiblePolicyError where the root under the slope
            is not of a positive number, a value overflows or a variance is
            not positive; one loop sets its s_t, a line each where inlined;
        rollout(v, row) -> (x_0..x_T, u_0..u_{T-1}): one episode over the
            row of 2T floats, the T excess returns r_t and then the T
            standard normals z_t of the policy, fixed for the episode, u_t =
            slope (x_t - c_t) + s_t z_t;
        run(v, lag, draws, kept, history) -> (v after the training loop, the
            wealths it recorded in lag), with training set: per row of
            draws, unpacked into r_t and z_t in the episode loop's for
            target, that rollout, its terminal wealth recorded in lag, w
            refreshed every refresh_every recorded wealths (inline: lag.w -
            lag.alpha * (their mean - b)), the passes, run_episodes'
            divergence check on half the summed squares of the last, taken
            before its step, and the values after the episode packed into
            history, a float array, with one frombytes(pack(*v)) call,
            unless it is None; its episode loop calls no Python function.
            It forms c_t = rho_t w, x_0 - c_0 and (w - b)^2 once per w, and
            the last again for theta4 where it overflowed, so that episode
            raises;
        descend(theta2, theta3, phi1, phi2, e2, w, devs, grads) -> (theta1..
            phi2 after the passes, the last one's gradient and summed
            squares), without: the one pass of the sample adapters, without
            rollout; with no passes the policy (and rollout if training).
    A pass sums the gradient (g_t2, g_t3, g_p1, g_p2) in (theta2, theta3,
    phi1, phi2) of half the summed squared residuals (and, the last pass
    alone, whose sum the check and descend read, their squares), then
    takes one gradient step of sizes (eta_theta, eta_phi) on it, or on
    grads when descend is given them.  It reads the deviations x - c_t of
    the states from the centers at w (devs[k] at period t_first + k) and
    weights their squares as e2_k * dev * dev, e2_k = e2**(T - t) formed
    once per pass as e2 * e2 * ... * e2.  The steps leave theta1 and theta4
    pinned at w.  The passes before the last are a loop over their n around
    the straight-line residuals of the longest of them, with a break after
    each shorter n; the last pass follows as straight-line code: no source
    grows faster than T, however many growing prefixes there are, and
    neither does the compiler's memory.

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

    The s_t = exp(phi1 - 1/2 + phi2 k) / sqrt(2 pi), k = T - t - 1 + shift,
    are geometric: s_{T-1} = half / sqrt(2 pi) g^shift, half = exp(phi1 -
    0.5) the slope's factor, g = exp(phi2), and s_t = g s_{t+1}.  The
    squares of the end terms are the extreme variances: one that overflows
    raises exp's OverflowError, one not positive InfeasiblePolicyError.

    phi2 is projected onto its floor; theta1 is pinned to exp(-2 phi2) and
    theta4 to the terminal condition value(T, x) = (x - w)^2 - (w - b)^2.
    Every operation keeps the float order of the loop kernel this source
    replaced, in those geometric forms, sums starting at 0.0 included.
    """
    ts = range(T)

    def q(t):  # the weighted square q_t of d{t}, its weight e2_k = e2**k, k = T - t: 1.0 * left out
        return {0: "", 1: "e2 * "}.get(T - t, f"e2_{T - t} * ") + f"d{t} * d{t}"

    def indent(lines, depth=1):
        return [f"{'    ' * depth}{line}" for line in lines]

    def function(head, lines):
        return "".join([f"def {head}:\n", *indent(f"{line}\n" for line in lines)])

    span = range(t_first, t_first + max(passes) + 1) if any(passes) else ()
    *earlier, final = passes or (0,)

    def residuals(n, summed):  # the first n transitions; unless summed (no squares), a break per earlier n
        body = []
        for k in range(n):
            t = t_first + k
            wt = f" * {2.0 * t + 1.0!r}" * (t > 0)  # the factor 2t + 1, left out where it is 1.0
            body += [f"if n == {k}:", "    break"] * (k in earlier and not summed)
            body += [f"q{t} = {q(t)}"] * (k == 0) + [
                f"q{t + 1} = {q(t + 1)}",
                f"res = q{t + 1} - q{t} + theta2{wt} + theta3"
                f" - lam * (phi1 + phi2 * {T - t - 1 + shift})",
                f"g_t2 += res{wt}", "g_t3 += res",
                f"g_p2 += res * ({2.0 * (T - t)!r} * q{t} - {2.0 * (T - t - 1)!r} * q{t + 1} - lc{t})",
                *["sq += res * res"] * summed]
        return body

    move = (["theta3 = theta3 - eta_theta * g_t3 + lam_eta_phi * g_p1"] if hold_phi1 else
            ["theta3 = theta3 - eta_theta * g_t3", "phi1 = phi1 - eta_phi * g_p1"])
    update = ["g_p1 = -lam * g_t3", "if grads is not None:", "    g_t2, g_t3, g_p1, g_p2 = grads",
              "theta2 = theta2 - eta_theta * g_t2", *move, "phi2 = phi2 - eta_phi * g_p2",
              "if phi2 < floor:", "    phi2 = floor", "e2 = exp(-2.0 * phi2)"]
    update = update[:1] + update[3:] if training else update  # run never steps on grads
    powers = [f"e2_{k} = {'e2' if k == 2 else f'e2_{k - 1}'} * e2" for k in range(2, T - t_first + 1)]
    # the passes before the last: a loop over their n that sums no squares; then the last, straight-line
    looped = [f"for n in {tuple(earlier)!r}:", "    g_t2 = g_t3 = g_p2 = 0.0", *indent(powers),
              "    while True:", *indent(residuals(max(earlier, default=0), False), 2), "        break",
              *indent(update)]
    step_passes = looped * bool(earlier) + [
        "g_t2 = g_t3 = g_p2 = sq = 0.0", *powers * bool(final), *residuals(final, True), *update]
    theta4 = f"theta4 = -theta2 * {T ** 2} - theta3 * {T} - {{}}".format

    half = "half = exp(phi1 - 0.5)"
    last = f"s{T - 1} = half / root_two_pi" + " * g" * shift
    ends = sorted({0, T - 1})
    check = [f"if not ({' and '.join(f'var{t} > 0.0' for t in ends)}):",
             f"    raise InfeasiblePolicyError(f'the policy variance is {{min(({_names('var', ends)}))!r}}')",
             f"if {' or '.join(f'var{t} == inf' for t in ends)}:",
             "    raise OverflowError('math range error')"]  # what exp raises there
    policy = [
        "gap = rf2 - e2" if compounding else "gap = 2.0 * phi2",
        "if not gap > 0.0:",
        "    raise InfeasiblePolicyError(f'phi2={phi2} below the floor of the feasible region')",
        half, "slope = -sqrt(gap / lam_pi) * half", *["g = exp(phi2)"] * (T + shift > 1), last,
        *(f"s{t} = s{t + 1} * g" for t in reversed(range(T - 1))),
        *(f"var{t} = s{t} * s{t}" for t in ends), *check,
    ]
    standalone = [*policy[:5], "s = [half / root_two_pi]", f"for _ in range({T - 1 + shift}):",
                  "    s.append(s[-1] * exp(phi2))", f"s = tuple(reversed(s[{shift}:]))",
                  f"{_names('var', ends)}= {''.join(f's[{t}] * s[{t}], ' for t in ends).rstrip()}", *check]
    # where phi1 never moves, run forms half (inf where it overflows) and, without g, s{T-1} once
    fixed = [half, *[last] * (not shift)] if hold_phi1 else []
    held = ["try:", f"    {half}", "except OverflowError:", "    half = inf", *fixed[1:]] * bool(fixed)
    moving = [line for line in policy if line not in fixed]
    centers = [*(f"c{t} = rho{t} * w" for t in range(1, T + 1)), "d0 = x_init - rho0 * w"]
    hoisted = [*centers, "try:", "    wb2 = (w - b) ** 2", "except OverflowError:", "    wb2 = None"]
    row = f"{_names('r', ts)}{_names('z', ts)}"[:-2]  # an episode's draws: its returns, then its normals
    rollout = []
    for t in ts:
        rollout += [f"u{t} = slope * d{t} + s{t} * z{t}",
                    f"x{t + 1} = {f'r_f * x{t}' if t else 'rf_x0'} + r{t} * u{t}",  # step_wealth
                    f"d{t + 1} = x{t + 1} - c{t + 1}"]
    refresh = [f"tws.append(x{T})", "phase += 1", "w_after = w",  # phase: wealths since w moved
               "if phase == refresh_every:", "    phase = 0",
               "    lag.w = w_after = lag.w - lag.alpha * (sum(tws[-refresh_every:]) / refresh_every - b)"]
    finite = " + ".join(f"({x} - {x})" for x in "e2 theta2 theta3 theta4 phi1 phi2 w_after".split())
    sources = (
        function("policy(phi1, phi2, e2)", ["try:", *indent(standalone), "except OverflowError:",
                 "    raise InfeasiblePolicyError(f'phi1={phi1}, phi2={phi2} overflow the policy')",
                 "return slope, s"]),
        function("rollout(v, row)", [
            "e2, _, _, _, phi1, phi2, w = v", *policy, f"{row} = row", *centers, *rollout,
            f"return (x_init, {_names('x', range(1, T + 1))}), ({_names('u', ts)})"]),
        function(f"run(v, lag, draws, kept, history, *, {', '.join(f'{n}={n}' for n in bound)})", [
            "e2, theta2, theta3, theta4, phi1, phi2, w = v", *held, *hoisted, "tws = lag.terminal_wealths",
            "recorded = len(tws)", "phase = recorded % refresh_every",
            f"for ep, ({row}) in enumerate(draws, 1):",
            "    try:", *indent([*moving, *rollout, *refresh, *step_passes], 2),
            f"        {theta4('(wb2 or (w - b) ** 2)')}",
            "    except (InfeasiblePolicyError, OverflowError) as exc:",
            "        raise diverged(ep, f'{type(exc).__name__}: {exc}', v[kept:]) from exc",
            "    v, cost = (e2, theta2, theta3, theta4, phi1, phi2, w_after), 0.5 * sq",
            # x - x is 0.0 for every finite x and NaN for the rest; the cost is >= 0 or NaN
            f"    if not ({finite} == 0.0 and cost <= DIVERGENCE_COST):",
            "        raise diverged(ep, f'cost {cost!r}', v[kept:])",
            "    if history is not None:",
            "        history.frombytes(pack(*v))",
            "    if not phase:  # the refresh moved w",
            *indent(["w = w_after", *hoisted], 2),
            "return v, tws[recorded:]"])
        if training else function("descend(theta2, theta3, phi1, phi2, e2, w, devs, grads)", [
            *[f"{_names('d', span)}= devs"] * bool(span), *step_passes, theta4("(w - b) ** 2"),
            "return (e2, theta2, theta3, theta4, phi1, phi2), (g_t2, g_t3, g_p1, g_p2), sq"]),
    )
    return sources[:1 + training] + sources[2:] * bool(passes)  # rollout if training, run or descend if passes


@functools.lru_cache(maxsize=32)
def _compile(*structure) -> tuple:
    """The code of each function of _kernel_source(*structure), compiled
    once per structure and one function at a time."""
    return tuple(compile(source, "<episode kernel>", "exec") for source in _kernel_source(*structure))


class _Kernel(NamedTuple):
    """A learner's generated functions (_kernel_source) bound to one run's
    floats (one of run and descend None), and its centers c_t / w, t = 0..T."""

    policy: Callable
    rollout: Callable
    run: Callable
    descend: Callable
    rhos: tuple


def _setup(learner: Learner, hyper: HyperParams, r_f, t_first=0, passes=None, training=False) -> _Kernel:
    """The learner's kernel for hyper at r_f, bound to the run's floats (names):
    run, or descend over the passes given; for passes (), the policy (with training, its rollout)."""
    spec = hyper.spec
    T, lam = spec.T, spec.lam
    if learner.compounding:
        rhos = tuple(discount_factor(t, T, r_f) for t in range(T + 1))
        floor = -math.log(r_f) + PHI2_MARGIN
    else:
        rhos, floor = (1.0,) * (T + 1), PHI2_MARGIN
    training = training or passes is None  # run: a step on each growing prefix, or the episode
    if passes is None:
        passes = tuple(range(1, T + 1)) if hyper.prefix_updates else (T,)
    names = {
        "exp": math.exp, "sqrt": math.sqrt, "root_two_pi": math.sqrt(2.0 * math.pi), "pack": _PACK,
        "InfeasiblePolicyError": InfeasiblePolicyError, "x_init": spec.x0, "b": spec.b, "lam": lam,
        "r_f": r_f, "eta_theta": hyper.eta_theta, "eta_phi": hyper.eta_phi,
        "refresh_every": hyper.refresh_every, "floor": floor, "lam_pi": lam * math.pi,
        "lam_eta_phi": lam * hyper.eta_phi, **{f"rho{t}": rho for t, rho in enumerate(rhos)},
        **({} if r_f is None else {"rf2": r_f * r_f, "rf_x0": r_f * spec.x0}),  # None: no run, no rollout
        **{f"lc{t}": lam * (T - t - 1 + learner.shift) for t in range(T)}, "inf": math.inf,
        "DIVERGENCE_COST": DIVERGENCE_COST, "diverged": functools.partial(_diverged, learner),
    }
    for code in _compile(T, learner.shift, learner.compounding, learner.hold_phi1, t_first, passes,
                         training, tuple(names)):
        exec(code, names)
    return _Kernel(names["policy"], names.get("rollout"), names.get("run"), names.get("descend"), rhos)


def _values(learner: Learner, params) -> Tuple[Tuple[float, ...], int]:
    """The kernel's values (theta1, theta2, theta3, theta4, phi1, phi2, w) of
    params, theta1 = exp(-2 phi2), and the index of the first one the
    learner keeps."""
    f = learner.fields(params)
    v = (math.exp(-2.0 * f["phi2"]), f["theta2"], f["theta3"], f["theta4"], f["phi1"],
         f["phi2"], f["w"])
    return v, 0 if "theta1" in f else 1


def _diverged(learner: Learner, ep: int, why: str, values) -> TrainingDivergedError:
    named = ", ".join(f"{k}={x!r}" for k, x in learner.fields(learner.params(*values)).items())
    return TrainingDivergedError(f"training diverged at episode {ep} ({why}; {named})")


def run_episodes(learner: Learner, hyper: HyperParams, r_f, draws: Iterable, params=None,
                 learn: bool = True, records: bool = True) -> TrainResult:
    """One episode per row of draws, a list of 2T floats (the T returns,
    then the T policy normals), all in one call of the kernel's run, from
    params (the learner's cold start from hyper when None); returns the
    final params and a History of one record per episode, over the float
    array run packs each episode's seven values into, or with records off a
    tuple of each episode's terminal wealth.  With learn off the params stay as given: a rollout per
    row, and the terminal wealths whatever records says.

    Raises InfeasiblePolicyError when params define no policy.  With learn
    set, raises TrainingDivergedError when the cost of an episode's last
    step pass before its step exceeds DIVERGENCE_COST or a value after the
    episode is not finite, naming those values by field; or when the values
    training reached leave an episode's policy undefined (a variance that
    underflows to 0) or its arithmetic out of the float range, naming the
    values the episode started from.  A generator behind draws may then
    have drawn past the diverged episode, so its state is unspecified.
    """
    if params is None:
        params = learner.cold_start(hyper.spec, r_f, hyper.init_phi1, hyper.init_phi2)
    kernel = _setup(learner, hyper, r_f)
    v, kept = _values(learner, params)
    kernel.policy(v[4], v[5], v[0])  # raises where params define no policy
    if not learn:
        return TrainResult(params, tuple(kernel.rollout(v, row)[0][-1] for row in draws))
    values = None
    if records:  # array is loaded by a run with records alone (train's), not by every import
        from array import array
        values = array("d")
    v, wealths = kernel.run(v, LagrangeState(v[-1], hyper.alpha), draws, kept, values)
    history = tuple(wealths) if values is None else History(learner.record, kept, wealths, values)
    return TrainResult(learner.params(*v[kept:]), history)


def check_cold_start(learner: Learner, hyper: HyperParams, r_f) -> None:
    """run_episodes' check before its first episode, on the kernel's policy alone: raises
    InfeasiblePolicyError where the learner's cold start from hyper at r_f defines none."""
    v, _ = _values(learner, learner.cold_start(hyper.spec, r_f, hyper.init_phi1, hyper.init_phi2))
    _setup(learner, hyper, r_f, 0, ()).policy(v[4], v[5], v[0])


def _check_samples(samples: Sequence[Tuple[int, float]], T: int) -> None:
    for (t0, _), (t1, _) in zip(samples, samples[1:]):
        if t1 != t0 + 1:
            raise ValueError("samples must carry consecutive periods")
    if samples and not (0 <= samples[0][0] and samples[-1][0] <= T):
        raise ValueError("sample periods outside 0..T")


def _on_samples(learner, samples, params, spec: ProblemSpec, r_f):
    """One pass of the kernel's descend over (t, x) samples of consecutive
    periods in 0..T: the gradient (theta2, theta3, phi1, phi2) of half the
    summed squared residuals, and the summed squares (its step is not
    kept); an empty or single-state sample list has no transitions and sums
    to 0."""
    _check_samples(samples, spec.T)
    t_first, n = (samples[0][0], len(samples) - 1) if samples else (0, 0)
    kernel = _setup(learner, HyperParams(spec), r_f, t_first, (n,))
    (e2, theta2, theta3, _, phi1, phi2, w), _ = _values(learner, params)
    devs = [x - kernel.rhos[t] * w for t, x in samples]
    return kernel.descend(theta2, theta3, phi1, phi2, e2, w, devs, None)[1:]


def step_params(learner, params, grads, eta_theta: float, eta_phi: float, spec: ProblemSpec, r_f):
    """params after the learner's gradient step (its kernel's descend) on grads."""
    kernel = _setup(learner, HyperParams(spec, eta_theta, eta_phi), r_f, 0, (0,))
    (e2, theta2, theta3, _, phi1, phi2, w), kept = _values(learner, params)
    stepped, _, _ = kernel.descend(theta2, theta3, phi1, phi2, e2, w, (), grads)
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


# Discounted centers, phi1 held, the entropy count m = T - t - 1.
DISCRETE = Learner(
    cold_start=cold_start,
    fields=lambda p: {**p.theta._asdict(), **p.phi._asdict(), "w": p.w},
    params=lambda *v: DiscreteParams(ValueParams(*v[:4]), PolicyParams(*v[4:6]), v[6]),
    record=EpisodeRecord,
    shift=0,
    compounding=True,
    hold_phi1=True,
)


def sample_episode(phi: PolicyParams, w: float, model: ReturnModel, spec: ProblemSpec, r_f: float,
                   rng: np.random.Generator) -> Episode:
    """Roll out one trajectory from x0 under the current stochastic policy."""
    returns = sample_path(model, spec.T, rng)
    z = rng.standard_normal(spec.T).tolist()
    v = (math.exp(-2.0 * phi.phi2), 0.0, 0.0, 0.0, phi.phi1, phi.phi2, w)
    wealth, controls = _setup(DISCRETE, HyperParams(spec), r_f, 0, (), True).rollout(v, returns.tolist() + z)
    return Episode(wealth, controls, tuple(returns))


def cost(samples: Sequence[Tuple[int, float]], theta: ValueParams, phi: PolicyParams, w: float,
         spec: ProblemSpec, r_f: float) -> float:
    """Half the summed squared Bellman residual over the sampled transitions.

    An empty or single-state sample list has no transitions and costs 0.
    """
    return 0.5 * _on_samples(DISCRETE, samples, DiscreteParams(theta, phi, w), spec, r_f)[1]


def grad_theta(samples: Sequence[Tuple[int, float]], theta: ValueParams, phi: PolicyParams,
               w: float, spec: ProblemSpec, r_f: float) -> Tuple[float, float]:
    """Cost gradient in (theta2, theta3)."""
    return _on_samples(DISCRETE, samples, DiscreteParams(theta, phi, w), spec, r_f)[0][:2]


def grad_phi(samples: Sequence[Tuple[int, float]], theta: ValueParams, phi: PolicyParams,
             w: float, spec: ProblemSpec, r_f: float) -> Tuple[float, float]:
    """Cost gradient in (phi1, phi2)."""
    return _on_samples(DISCRETE, samples, DiscreteParams(theta, phi, w), spec, r_f)[0][2:]


def apply_updates(theta: ValueParams, phi: PolicyParams, grads: Tuple[float, float, float, float],
                  eta_theta: float, eta_phi: float, w: float, spec: ProblemSpec,
                  r_f: float) -> Tuple[ValueParams, PolicyParams]:
    """One gradient step on the cost with phi1 held (see _kernel_source), phi2
    projected onto the feasible region phi2 > -ln(r_f), theta1 pinned to
    exp(-2*phi2) and theta4 to the terminal condition
    theta2 * T^2 + theta3 * T + theta4 = -(w - b)^2."""
    p = step_params(DISCRETE, DiscreteParams(theta, phi, w), grads, eta_theta, eta_phi, spec, r_f)
    return p.theta, p.phi


def train(hyper: HyperParams, model: ReturnModel, r_f: float, rng: np.random.Generator,
          learner: Learner = DISCRETE, records: bool = True) -> TrainResult:
    """Run the learner (run_episodes, records passed on) for hyper.episodes
    episodes of its draws from episode_draws, from the cold start in hyper."""
    spec = hyper.spec
    if not hyper.episodes:
        return TrainResult(learner.cold_start(spec, r_f, hyper.init_phi1, hyper.init_phi2), ())
    draws = episode_draws(model, spec.T, rng, hyper.episodes)
    return run_episodes(learner, hyper, r_f, draws, records=records)


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
