"""The loop kernel that the generated episode kernel replaced, kept as a
test-only reference: tests/test_kernel.py checks that the generated code
gives the same values, gradients, costs and rollouts, float for float.

_Run, _setup, _policy, _descend, _episode and update_w are copied verbatim
from dtmv.learner as they were before the kernel was generated (update_w
until the generated run took its w correction inline), but that
_descend weights the comparator's squared deviations, and squares its T,
in the discrete learner's float order, which the generated kernel uses for
both learners.  _episode's cost is the old divergence rule's: a pass
without a step after the steps, at the centers after the episode's
refresh.  _learn is an episode under the rule the generated run has now:
the cost is that of the last step pass, before its step.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from dtmv.analytic import discount_factor
from dtmv.learner import PHI2_MARGIN, HyperParams, InfeasiblePolicyError, LagrangeState, Learner


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
    of the last pass.  q_t is e2**(T - t) * dev * dev.

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
    """
    T, b, lam, steps, floor = run.T, run.b, run.lam, run.steps, run.floor
    eta_theta, eta_phi = run.eta_theta, run.eta_phi
    hold = run.hold_phi1
    exp = math.exp
    for n, step in passes:
        g_t2 = g_t3 = g_p2 = sq = 0.0
        d = devs if step else devs_after
        if n:
            dev = d[0]
            left = T - t_first
            q1 = e2**left * dev * dev
            for k in range(n):
                m, wt, count, a0, a1, lam_count = steps[t_first + k]
                q0 = q1
                dev = d[k + 1]
                q1 = e2**m * dev * dev
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
    theta4 = -theta2 * T**2 - theta3 * T - (w - b) ** 2
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



def _learn(run: _Run, v, lag, rets, z):
    """_episode with learn set, but the cost the divergence check reads is
    half the summed squares of the last step pass's residuals, taken before
    its step at the centers before the refresh; the steps are _episode's."""
    wealth, controls, _, _ = _episode(run, v, None, rets, z, False)
    _, theta2, theta3, _, phi1, phi2, w = v
    lag.terminal_wealths.append(wealth[-1])
    w_after = w
    if len(lag.terminal_wealths) % run.refresh_every == 0:
        update_w(lag, run.b, run.refresh_every)
        w_after = lag.w
    devs = [x - rho * w for x, rho in zip(wealth, run.rhos)]
    *steps, last = run.passes[:-1]  # the step passes, without _episode's cost pass
    values = v[:6]
    if steps:
        values, _, _ = _descend(run, steps, devs, devs, 0, *values[1:3], *values[4:6], values[0], w)
    args = (*values[1:3], *values[4:6], values[0], w)
    _, _, sq = _descend(run, ((last[0], False),), devs, devs, 0, *args)
    values, _, _ = _descend(run, (last,), devs, devs, 0, *args)
    return wealth, controls, (*values, w_after), 0.5 * sq
