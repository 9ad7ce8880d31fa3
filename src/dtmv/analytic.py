"""Closed-form solutions for entropy-regularized discrete-time mean-variance control.

The control problem: choose a randomized risky allocation u_t ~ pi_t at each
of T periods to minimize E[(x_T - w)^2] - (w - b)^2 plus a differential
entropy penalty -lam * H(pi_t) per period, where wealth follows
x_{t+1} = r_f * x_t + r_t * u_t and the excess return r_t is IID with mean a
and variance sigma^2.  The minimizing policies are Gaussian in closed form,
and a fixed-point iteration over a family of Gaussian seed policies converges
to them in finitely many steps.

All functions here are pure and all types immutable.
"""

from __future__ import annotations

import math
from typing import Dict, List, NamedTuple, Tuple

import numpy as np
import numpy.polynomial  # noqa: F401  (numpy loads it lazily; load it at import, not in dp_oracle)

from dtmv.records import checked


class DegenerateFamilyError(ValueError):
    """The seed family's geometric value sum has ratio exactly 1."""


class QuadratureError(RuntimeError):
    """The numerical value iteration failed its own convergence checks."""


# ---------------------------------------------------------------------------
# data types
# ---------------------------------------------------------------------------


@checked
class MarketModel(NamedTuple):
    """Per-period market primitives.

    a: mean excess return, sigma: excess return volatility (> 0),
    r_f: gross riskless factor per period (> 0).
    """

    a: float
    sigma: float
    r_f: float

    def _check(self) -> None:
        if self.sigma <= 0.0:
            raise ValueError("sigma must be positive")
        if self.r_f <= 0.0:
            raise ValueError("r_f must be positive")

    @property
    def second_moment(self) -> float:
        """a^2 + sigma^2, the raw second moment of the excess return."""
        return self.a * self.a + self.sigma * self.sigma


@checked
class ProblemSpec(NamedTuple):
    """Horizon T (periods), initial wealth x0, wealth target b, and
    exploration temperature lam (> 0)."""

    T: int
    x0: float
    b: float
    lam: float

    def _check(self) -> None:
        if not isinstance(self.T, int) or self.T < 1:
            raise ValueError("T must be an integer >= 1")
        if self.lam <= 0.0:
            raise ValueError("lam must be positive")


@checked
class GaussianPolicy(NamedTuple):
    """A Gaussian control density over the risky allocation."""

    mean: float
    variance: float

    def _check(self) -> None:
        if not self.variance > 0.0:
            raise ValueError("variance must be positive")


@checked
class IterationFamily(NamedTuple):
    """Seed policy family u ~ N(mean_slope * (x - rho_t * w), lam * var_base * var_ratio^(T-t-1)).

    mean_slope may take any sign; var_base and var_ratio must be positive.
    """

    mean_slope: float
    var_base: float
    var_ratio: float

    def _check(self) -> None:
        if self.var_base <= 0.0:
            raise ValueError("var_base must be positive")
        if self.var_ratio <= 0.0:
            raise ValueError("var_ratio must be positive")


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------


def discount_factor(t: int, T: int, r_f: float) -> float:
    """Riskless discount from the horizon back to period t: r_f^-(T-t)."""
    if not 0 <= t <= T:
        raise ValueError(f"t={t} outside 0..{T}")
    return r_f ** -(T - t)


def _check_time(t: int, T: int, terminal_ok: bool) -> None:
    hi = T if terminal_ok else T - 1
    if not 0 <= t <= hi:
        raise ValueError(f"t={t} outside 0..{hi}")


def variance_growth(m: MarketModel) -> float:
    """Per-step backward growth ratio of the optimal exploration variance,
    (a^2 + sigma^2) / (sigma^2 * r_f^2)."""
    return m.second_moment / (m.sigma * m.sigma * m.r_f * m.r_f)


def optimal_policy(m: MarketModel, spec: ProblemSpec, t: int, x: float, w: float) -> GaussianPolicy:
    """The entropy-regularized optimum at period t and wealth x.

    The mean does not involve lam and the variance does not involve x, so
    exploitation and exploration separate exactly.
    """
    _check_time(t, spec.T, terminal_ok=False)
    m2 = m.second_moment
    dev = x - discount_factor(t, spec.T, m.r_f) * w
    mean = -m.a * m.r_f * dev / m2
    variance = spec.lam / (2.0 * m2) * variance_growth(m) ** (spec.T - t - 1)
    return GaussianPolicy(mean, variance)


def optimal_value(m: MarketModel, spec: ProblemSpec, t: int, x: float, w: float) -> float:
    """Cost-to-go of the optimal policy at (t, x); at t = T this is the
    terminal cost (x - w)^2 - (w - b)^2."""
    _check_time(t, spec.T, terminal_ok=True)
    m2 = m.second_moment
    lam = spec.lam
    n = spec.T - t
    dev = x - discount_factor(t, spec.T, m.r_f) * w
    shrink = 1.0 / variance_growth(m)
    quad = shrink**n * dev * dev
    ent = 0.5 * lam * n * math.log(m2 / (math.pi * lam))
    ent += 0.5 * lam * math.log(shrink) * (n * (n - 1) / 2.0)
    return quad + ent - (w - spec.b) ** 2


def gaussian_entropy(variance: float) -> float:
    """Differential entropy of N(mu, variance); independent of mu."""
    if not variance > 0.0:
        raise ValueError("variance must be positive")
    return 0.5 * math.log(2.0 * math.pi * math.e * variance)


def expected_terminal_wealth(m: MarketModel, spec: ProblemSpec, w: float) -> float:
    """E[x_T] under the optimal policy, from the linear mean recursion.

    The deviation e_t = E[x_t] - rho_t * w contracts by r_f * sigma^2 / (a^2
    + sigma^2) per period, independent of lam.
    """
    g = m.r_f * m.sigma * m.sigma / m.second_moment
    beta = g**spec.T
    return w + beta * (spec.x0 - discount_factor(0, spec.T, m.r_f) * w)


def lagrange_fixed_point(m: MarketModel, spec: ProblemSpec) -> float:
    """The w at which the optimal policy's expected terminal wealth equals
    the target b, i.e. the resting point of the w-correction scheme."""
    g = m.r_f * m.sigma * m.sigma / m.second_moment
    beta = g**spec.T
    denom = 1.0 - beta * discount_factor(0, spec.T, m.r_f)
    if denom == 0.0:
        raise ValueError("degenerate market: expected wealth is independent of w")
    return (spec.b - beta * spec.x0) / denom


# ---------------------------------------------------------------------------
# policy improvement from a Gaussian seed family
# ---------------------------------------------------------------------------


def step_factor(fam: IterationFamily, m: MarketModel) -> float:
    """Quadratic-coefficient growth per step under the seed policy.

    Equals (r_f + a*K)^2 + sigma^2*K^2 with K the mean slope, hence always
    positive.
    """
    k = fam.mean_slope
    return m.r_f * m.r_f + m.second_moment * k * k + 2.0 * m.r_f * m.a * k


def seed_policy(fam: IterationFamily, m: MarketModel, spec: ProblemSpec, t: int, x: float, w: float) -> GaussianPolicy:
    _check_time(t, spec.T, terminal_ok=False)
    dev = x - discount_factor(t, spec.T, m.r_f) * w
    mean = fam.mean_slope * dev
    variance = spec.lam * fam.var_base * fam.var_ratio ** (spec.T - t - 1)
    return GaussianPolicy(mean, variance)


def _family_offset(fam: IterationFamily, m: MarketModel, spec: ProblemSpec, t: int, w: float) -> float:
    """State-independent part of the seed policy's cost-to-go at period t.

    Depends on w through the terminal constant, so values for different w
    must not be cached against each other.
    """
    lam = spec.lam
    n = spec.T - t
    a_fac = step_factor(fam, m)
    ca = fam.var_ratio * a_fac
    if ca == 1.0:
        raise DegenerateFamilyError(
            "var_ratio * step factor is exactly 1; the geometric value sum degenerates"
        )
    geom = (1.0 - ca**n) / (1.0 - ca)
    out = lam * fam.var_base * m.second_moment * geom
    out -= 0.5 * lam * math.log(2.0 * math.pi * lam * fam.var_base) * n
    out -= 0.5 * lam * n
    out -= 0.5 * lam * math.log(fam.var_ratio) * (n * (n - 1) / 2.0)
    out -= (w - spec.b) ** 2
    if not math.isfinite(out):
        raise DegenerateFamilyError("seed value overflowed; family too far from admissible")
    return out


def seed_value(fam: IterationFamily, m: MarketModel, spec: ProblemSpec, t: int, x: float, w: float) -> float:
    """Cost-to-go of the seed policy itself (iteration step k = 0)."""
    _check_time(t, spec.T, terminal_ok=True)
    dev = x - discount_factor(t, spec.T, m.r_f) * w
    n = spec.T - t
    return step_factor(fam, m) ** n * dev * dev + _family_offset(fam, m, spec, t, w)


def iterate(
    fam: IterationFamily,
    m: MarketModel,
    spec: ProblemSpec,
    k: int,
    t: int,
    x: float,
    w: float,
) -> Tuple[GaussianPolicy, float]:
    """Policy and cost-to-go after k policy-improvement steps from the seed.

    k = 0 returns the seed pair; k = T - t returns the optimum exactly.
    The improvement acts on the last k periods before the horizon, so k may
    not exceed T - t.
    """
    _check_time(t, spec.T, terminal_ok=False)
    n = spec.T - t
    if not 0 <= k <= n:
        raise ValueError(f"k={k} outside 0..{n}")
    if k == 0:
        return seed_policy(fam, m, spec, t, x, w), seed_value(fam, m, spec, t, x, w)

    m2 = m.second_moment
    lam = spec.lam
    a_fac = step_factor(fam, m)
    growth = variance_growth(m)
    shrink = 1.0 / growth
    dev = x - discount_factor(t, spec.T, m.r_f) * w

    mean = -m.a * m.r_f * dev / m2
    variance = lam / (2.0 * m2 * a_fac ** (n - k)) * growth ** (k - 1)
    policy = GaussianPolicy(mean, variance)

    value = a_fac ** (n - k) * shrink**k * dev * dev
    value += 0.5 * lam * k * math.log(m2 / (math.pi * lam))
    value += 0.5 * lam * math.log(shrink) * (k * (k - 1) / 2.0)
    value += 0.5 * lam * math.log(a_fac) * k * (n - k)
    value += _family_offset(fam, m, spec, t + k, w)
    return policy, value


# ---------------------------------------------------------------------------
# numerical oracle: backward value iteration over densities
# ---------------------------------------------------------------------------


class ValueGrid(NamedTuple):
    """One backward-induction layer: cost-to-go j_values on x_values at period t.

    meta records the fitted quadratic (curvature, center, offset), the grid
    geometry, and the internal consistency errors of the layer.
    """

    t: int
    x_values: np.ndarray
    j_values: np.ndarray
    meta: Dict[str, float]


def _trapezoid_nodes(halfwidth: float, points: int) -> Tuple[np.ndarray, slice]:
    """The wide trapezoid grid, and the slice of it that is the narrow grid of `points`
    nodes over +-halfwidth, extended at the same spacing by ceil((points - 1) / 4) nodes
    per side: 1.5 times as wide when 4 divides points - 1, a little more otherwise."""
    k = -(-(points - 1) // 4)
    wide = halfwidth * ((points - 1 + 2 * k) / (points - 1))
    return np.linspace(-wide, wide, points + 2 * k), slice(k, k + points)


def _trapezoid_values(a2: float, lam: float, halfwidth: float, points: int) -> Tuple[float, float]:
    """-lam * ln of the trapezoid sum of exp(-a2*o^2/lam) on the narrow and the wide grid of
    _trapezoid_nodes, each rule with its own end weights w_j (as np.trapezoid), the exps
    shifted by their largest exponent top.  On a window centered on the minimizer of phi(u)
    = a2*u^2 + a1*u, phi is phi_min + a2*o^2, so the rule's min over pi of E_pi[phi] + lam *
    E_pi[ln pi], which cancels node for node to -lam * ln sum_j w_j exp(-phi_j/lam), is
    phi_min plus this value: one per rule for every state of a layer."""
    offs, inner = _trapezoid_nodes(halfwidth, points)
    curve = offs * offs * (-a2 / lam)
    top = curve.max()
    g = np.exp(curve - top)
    values = []
    for cols in (inner, slice(None)):
        half = 0.5 * np.diff(offs[cols])
        wt = np.concatenate((half, [0.0])) + np.concatenate(([0.0], half))
        values.append(-lam * (top + np.log(wt @ g[cols])))
    return values[0], values[1]


def dp_oracle(
    m: MarketModel,
    spec: ProblemSpec,
    w: float,
    x_values,
    n_u: int = 2001,
    halfwidth_sigmas: float = 8.0,
    n_hermite: int = 64,
    tol: float = 1e-9,
) -> List[ValueGrid]:
    """Backward value iteration with explicit minimization over control densities.

    Independent of the closed forms above are the backward recursion and the
    quadratic refit: each layer comes from a Bellman step against the layer
    after it, refit as a quadratic in x, and never from their coefficients.
    Shared with them is the Gibbs soft minimum over densities, -lam * ln Z with
    Z the integral of exp(-phi/lam): the value returned is the Gibbs
    Gaussian's closed-form -lam * ln Z, and the Gauss-Hermite nodes around its
    center cancel in E[phi] + lam * E[ln pi] but for rounding.  The trapezoid
    rule on n_u uniform nodes over +-halfwidth_sigmas around that center checks
    the control window (n_u, halfwidth_sigmas), not each state: there phi is
    its minimum plus a2 * o^2, so the rule gives one value per layer, and the
    widening check one more on that grid extended at the same spacing
    (_trapezoid_nodes).  Raises QuadratureError if widening the control window
    moves any value beyond `tol` (scaled), if the closed-form and trapezoid
    values disagree, or if a layer stops being quadratic; a NaN fails each of
    these checks.

    The x grid should cover the wealth range of interest with a few points to
    spare; at least 3 strictly increasing values are required.  Returns one
    ValueGrid per period, ordered t = 0..T.

    Runtime is O(T * len(x_values) * n_hermite) plus O(T * n_u) for the
    trapezoid pair, one per layer (see _trapezoid_values).
    """
    if not 0.0 < halfwidth_sigmas < math.inf:
        raise ValueError(f"halfwidth_sigmas must be finite and > 0, got {halfwidth_sigmas!r}")
    if n_hermite < 1:
        raise ValueError(f"n_hermite must be >= 1, got {n_hermite!r}")
    if not tol >= 1e-15:  # below it the gates would compare the values' rounding noise
        raise ValueError(f"tol must be >= 1e-15, got {tol!r}")
    if tol == math.inf:  # every gate would pass
        raise ValueError(f"tol must be finite, got {tol!r}")
    grid = np.asarray(x_values, dtype=float)
    if grid.ndim != 1 or grid.size < 3:
        raise ValueError("x_values must be 1-D with at least 3 points")
    if np.any(np.diff(grid) <= 0):
        raise ValueError("x_values must be strictly increasing")
    if n_u < 51:
        raise ValueError("n_u too small for a trustworthy cross-check")

    lam = spec.lam
    m2 = m.second_moment
    gh_nodes, gh_weights = np.polynomial.hermite.hermgauss(n_hermite)
    wide_sigmas = float(_trapezoid_nodes(halfwidth_sigmas, n_u)[0][-1])

    def soft_min_layer(q: float, c: float, g: float) -> Tuple[np.ndarray, float]:
        """One Bellman step against the quadratic layer q*(y-c)^2 + g.

        Returns (values on grid, worst cross-check error).
        """
        # integrand in u after taking E over the return: phi(u) = a2*u^2 + a1*u
        a2 = q * m2
        a1 = 2.0 * q * m.a * (m.r_f * grid - c)
        base = q * (m.r_f * grid - c) ** 2 + g
        center = -a1 / (2.0 * a2)
        s = math.sqrt(lam / (2.0 * a2))
        phi_min = a2 * center**2 + a1 * center

        # value: the Gibbs Gaussian's -lam * ln Z, through Gauss-Hermite nodes around its center
        u_gh = center[:, None] + math.sqrt(2.0) * s * gh_nodes[None, :]
        phi_gh = a2 * u_gh**2 + a1[:, None] * u_gh
        e_phi = (phi_gh @ gh_weights) / gh_weights.sum()
        ln_z = 0.5 * math.log(2.0 * math.pi * s * s) - phi_min / lam
        e_lnpi = -e_phi / lam - ln_z
        val_gh = e_phi + lam * e_lnpi + base

        narrow, wide = _trapezoid_values(a2, lam, halfwidth_sigmas * s, n_u)
        val_tr, val_wide = phi_min + narrow + base, phi_min + wide + base
        scale = 1.0 + np.abs(val_gh)
        widen_err = float(np.max(np.abs(val_wide - val_tr) / scale))
        cross_err = float(np.max(np.abs(val_gh - val_tr) / scale))
        if not widen_err <= tol:  # written so that a NaN fails each gate
            raise QuadratureError(
                f"control quadrature unconverged at t-layer against width "
                f"{wide_sigmas:g} sigmas (err {widen_err:.3e} > {tol:g})"
            )
        if not cross_err <= tol:
            raise QuadratureError(
                f"Gauss-Hermite and trapezoid quadratures disagree (err {cross_err:.3e})"
            )
        return val_gh, max(widen_err, cross_err)

    def fit_quadratic(values: np.ndarray) -> Tuple[float, float, float, float]:
        coefs = np.polynomial.polynomial.polyfit(grid, values, 2)
        c0, c1, c2 = (float(v) for v in coefs)
        resid = float(np.max(np.abs(np.polynomial.polynomial.polyval(grid, coefs) - values)))
        resid_rel = resid / float(np.max(1.0 + np.abs(values)))
        if not resid_rel <= 100.0 * tol:
            raise QuadratureError(f"layer is not quadratic in x (residual {resid_rel:.3e})")
        if not c2 > 0.0:
            raise QuadratureError("fitted layer lost convexity")
        return c2, -c1 / (2.0 * c2), c0 - c1 * c1 / (4.0 * c2), resid_rel

    q, c, g = 1.0, w, -((w - spec.b) ** 2)
    layers: List[ValueGrid] = []
    with np.errstate(all="ignore"):  # an overflow or a NaN fails a gate, and warns nothing
        vals, fit_resid, quad_err = (grid - w) ** 2 - (w - spec.b) ** 2, 0.0, 0.0  # the terminal layer
        for t in range(spec.T, -1, -1):
            if t < spec.T:
                vals, quad_err = soft_min_layer(q, c, g)
                q, c, g, fit_resid = fit_quadratic(vals)
            meta = {"curvature": q, "center": c, "offset": g, "fit_residual": fit_resid,
                    "quadrature_error": quad_err, "halfwidth_sigmas": halfwidth_sigmas, "n_u": float(n_u)}
            layers.append(ValueGrid(t=t, x_values=grid.copy(), j_values=vals, meta=meta))
    layers.reverse()
    return layers
