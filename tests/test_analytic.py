"""Tests for the closed-form solution, policy improvement, and the DP oracle."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dtmv.analytic import (
    DegenerateFamilyError,
    GaussianPolicy,
    IterationFamily,
    MarketModel,
    ProblemSpec,
    QuadratureError,
    ValueGrid,
    discount_factor,
    dp_oracle,
    expected_terminal_wealth,
    gaussian_entropy,
    iterate,
    _trapezoid_nodes,
    _trapezoid_values,
    lagrange_fixed_point,
    optimal_policy,
    optimal_value,
    seed_policy,
    seed_value,
    step_factor,
    variance_growth,
)
from dtmv.market import make_rng

M = MarketModel(a=0.1, sigma=0.2, r_f=1.05)
SPEC = ProblemSpec(T=2, x0=1.0, b=1.2, lam=0.5)

MONTHLY = MarketModel(a=0.30 / 12, sigma=0.20 / math.sqrt(12), r_f=1 + 0.02 / 12)
MONTHLY_SPEC = ProblemSpec(T=3, x0=1.0, b=1.1, lam=2.0)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def test_constructor_validation():
    with pytest.raises(ValueError):
        MarketModel(0.1, 0.0, 1.0)
    with pytest.raises(ValueError):
        MarketModel(0.1, 0.2, 0.0)
    with pytest.raises(ValueError):
        ProblemSpec(0, 1.0, 1.1, 2.0)
    with pytest.raises(ValueError):
        ProblemSpec(3, 1.0, 1.1, 0.0)
    with pytest.raises(ValueError):
        GaussianPolicy(0.0, 0.0)
    with pytest.raises(ValueError):
        IterationFamily(0.5, 0.0, 1.0)
    with pytest.raises(ValueError):
        IterationFamily(0.5, 1.0, -1.0)


def test_time_bounds_are_enforced():
    with pytest.raises(ValueError):
        discount_factor(3, 2, 1.05)
    with pytest.raises(ValueError):
        optimal_policy(M, SPEC, 2, 1.0, 1.3)  # no decision at the horizon
    with pytest.raises(ValueError):
        optimal_policy(M, SPEC, -1, 1.0, 1.3)
    assert optimal_value(M, SPEC, 2, 1.0, 1.3) == pytest.approx((1.0 - 1.3) ** 2 - 0.01)
    with pytest.raises(ValueError):
        optimal_value(M, SPEC, 3, 1.0, 1.3)
    with pytest.raises(ValueError):
        iterate(IterationFamily(0.1, 1.0, 1.0), M, SPEC, 3, 0, 1.0, 1.3)
    with pytest.raises(ValueError):
        iterate(IterationFamily(0.1, 1.0, 1.0), M, SPEC, -1, 0, 1.0, 1.3)


# ---------------------------------------------------------------------------
# closed forms against independently derived constants
# ---------------------------------------------------------------------------


def test_discount_factor_values():
    assert discount_factor(2, 2, 1.05) == 1.0
    assert discount_factor(0, 2, 1.05) == pytest.approx(1.05**-2, rel=1e-15)
    assert discount_factor(1, 3, 1.0) == 1.0


def test_optimal_policy_small_case_exact():
    # constants derived by hand with exact rational arithmetic
    pol = optimal_policy(M, SPEC, 0, 1.0, 1.3)
    assert pol.mean == pytest.approx(79.0 / 210.0, rel=1e-14)
    assert pol.variance == pytest.approx(2500.0 / 441.0, rel=1e-14)
    assert variance_growth(M) == pytest.approx(0.05 / (0.04 * 1.05**2), rel=1e-15)


def test_optimal_value_small_case_exact():
    assert optimal_value(M, SPEC, 0, 1.0, 1.3) == pytest.approx(
        -1.7400842951655593, rel=1e-13
    )


def test_optimal_value_satisfies_one_step_recursion():
    """J(t, x) must equal the expected one-step cost of its own policy:
    E[J(t+1, r_f x + r u)] + lam * E[ln pi(u)] with u drawn from the policy."""
    rng = make_rng(21, 0)
    for _ in range(30):
        x = float(rng.uniform(-1.0, 3.0))
        w = float(rng.uniform(0.5, 2.0))
        t = int(rng.integers(0, SPEC.T))
        pol = optimal_policy(M, SPEC, t, x, w)
        u = pol.mean + math.sqrt(pol.variance) * rng.standard_normal(400_000)
        r = M.a + M.sigma * rng.standard_normal(400_000)
        nxt = M.r_f * x + r * u
        # the next layer is quadratic in x, so recover it from three probes
        # and take expectations through the first two moments of nxt
        j0 = optimal_value(M, SPEC, t + 1, 0.0, w)
        j1 = optimal_value(M, SPEC, t + 1, 1.0, w)
        j2 = optimal_value(M, SPEC, t + 1, -1.0, w)
        curv = (j1 + j2) / 2.0 - j0
        lin = (j1 - j2) / 2.0
        exp_next = curv * float(np.mean(nxt * nxt)) + lin * float(np.mean(nxt)) + j0
        ent_cost = -SPEC.lam * gaussian_entropy(pol.variance)
        lhs = optimal_value(M, SPEC, t, x, w)
        se = float(np.std(curv * nxt * nxt + lin * nxt)) / math.sqrt(nxt.size)
        assert lhs == pytest.approx(exp_next + ent_cost, abs=6.0 * se + 1e-10)


def test_policy_mean_is_invariant_in_lam_bitwise():
    lo = ProblemSpec(T=3, x0=1.0, b=1.1, lam=0.25)
    hi = ProblemSpec(T=3, x0=1.0, b=1.1, lam=8.0)
    for t in range(3):
        for x in (-1.0, 0.3, 1.7):
            assert (
                optimal_policy(MONTHLY, lo, t, x, 1.24).mean
                == optimal_policy(MONTHLY, hi, t, x, 1.24).mean
            )


def test_policy_variance_is_invariant_in_x_bitwise():
    for t in range(MONTHLY_SPEC.T):
        ref = optimal_policy(MONTHLY, MONTHLY_SPEC, t, 0.0, 1.24).variance
        for x in (-5.0, -0.1, 2.2, 17.0):
            assert optimal_policy(MONTHLY, MONTHLY_SPEC, t, x, 1.24).variance == ref


def test_variance_decays_in_t_exactly_when_growth_exceeds_one():
    spec = ProblemSpec(T=4, x0=1.0, b=1.1, lam=1.0)
    risky = MarketModel(0.02, 0.05, 1.001)  # a^2 + sigma^2 > sigma^2 r_f^2
    assert variance_growth(risky) > 1.0
    vs = [optimal_policy(risky, spec, t, 1.0, 1.2).variance for t in range(4)]
    assert all(b < a for a, b in zip(vs, vs[1:]))

    flat = MarketModel(1e-12, 0.05, 1.01)  # growth below one: variance grows
    assert variance_growth(flat) < 1.0
    vs = [optimal_policy(flat, spec, t, 1.0, 1.2).variance for t in range(4)]
    assert all(b > a for a, b in zip(vs, vs[1:]))


def test_gaussian_entropy_matches_reference():
    from scipy import stats

    for var in (0.04, 1.0, 17.3):
        assert gaussian_entropy(var) == pytest.approx(
            float(stats.norm(0.0, math.sqrt(var)).entropy()), rel=1e-12
        )
    with pytest.raises(ValueError):
        gaussian_entropy(0.0)


# ---------------------------------------------------------------------------
# expected terminal wealth and the fixed point
# ---------------------------------------------------------------------------


def _forward_mean(m, spec, w):
    # independent forward recursion over E[x_t]
    ex = spec.x0
    for t in range(spec.T):
        mean_u = -m.a * m.r_f * (ex - discount_factor(t, spec.T, m.r_f) * w) / m.second_moment
        ex = m.r_f * ex + m.a * mean_u
    return ex


def test_expected_terminal_wealth_matches_forward_recursion():
    rng = make_rng(3, 0)
    for _ in range(50):
        m = MarketModel(float(rng.uniform(0.005, 0.1)), float(rng.uniform(0.02, 0.3)),
                        float(rng.uniform(0.98, 1.05)))
        spec = ProblemSpec(int(rng.integers(1, 7)), float(rng.uniform(0.5, 2.0)),
                           1.1, 1.0)
        w = float(rng.uniform(0.8, 2.5))
        assert expected_terminal_wealth(m, spec, w) == pytest.approx(
            _forward_mean(m, spec, w), rel=1e-12
        )


def test_lagrange_fixed_point_is_the_root():
    w = lagrange_fixed_point(MONTHLY, MONTHLY_SPEC)
    assert w == pytest.approx(1.240820067934746, rel=1e-14)
    assert expected_terminal_wealth(MONTHLY, MONTHLY_SPEC, w) == pytest.approx(
        MONTHLY_SPEC.b, abs=1e-12
    )


def test_lagrange_fixed_point_degenerate_market_raises():
    # with no excess return and r_f = 1, E[x_T] never depends on w
    degenerate = MarketModel(0.0, 0.1, 1.0)
    with pytest.raises(ValueError, match="independent of w"):
        lagrange_fixed_point(degenerate, ProblemSpec(3, 1.0, 1.1, 1.0))


# ---------------------------------------------------------------------------
# seed families and policy improvement
# ---------------------------------------------------------------------------


def test_seed_policy_shape():
    fam = IterationFamily(-0.4, 0.7, 1.3)
    pol = seed_policy(fam, M, SPEC, 0, 1.0, 1.3)
    dev = 1.0 - discount_factor(0, 2, M.r_f) * 1.3
    assert pol.mean == pytest.approx(-0.4 * dev, rel=1e-14)
    assert pol.variance == pytest.approx(0.5 * 0.7 * 1.3, rel=1e-14)
    # last period uses ratio^0
    assert seed_policy(fam, M, SPEC, 1, 1.0, 1.3).variance == pytest.approx(0.35)


def test_step_factor_is_the_second_moment_of_the_step():
    fam = IterationFamily(-0.8, 1.0, 1.0)
    k = fam.mean_slope
    expect = (M.r_f + M.a * k) ** 2 + (M.sigma * k) ** 2
    assert step_factor(fam, M) == pytest.approx(expect, rel=1e-14)


def test_seed_value_matches_monte_carlo():
    """Simulate the seed policy and compare the sampled objective, including
    the entropy running cost, against the closed form."""
    fam = IterationFamily(-0.6, 0.9, 1.25)
    w, n = 1.3, 400_000
    rng = make_rng(17, 0)
    x = np.full(n, SPEC.x0)
    ent = 0.0
    for t in range(SPEC.T):
        pol_var = SPEC.lam * fam.var_base * fam.var_ratio ** (SPEC.T - t - 1)
        dev = x - discount_factor(t, SPEC.T, M.r_f) * w
        u = fam.mean_slope * dev + math.sqrt(pol_var) * rng.standard_normal(n)
        r = M.a + M.sigma * rng.standard_normal(n)
        x = M.r_f * x + r * u
        ent += gaussian_entropy(pol_var)
    cost = (x - w) ** 2 - (w - SPEC.b) ** 2 - SPEC.lam * ent
    se = float(np.std(cost)) / math.sqrt(n)
    assert seed_value(fam, M, SPEC, 0, SPEC.x0, w) == pytest.approx(
        float(np.mean(cost)), abs=6.0 * se
    )


def test_iterate_k0_is_the_seed_pair():
    fam = IterationFamily(0.3, 0.4, 1.1)
    pol, val = iterate(fam, M, SPEC, 0, 0, 1.0, 1.3)
    assert pol == seed_policy(fam, M, SPEC, 0, 1.0, 1.3)
    assert val == seed_value(fam, M, SPEC, 0, 1.0, 1.3)


def test_iterate_is_monotone_and_lands_on_the_optimum():
    rng = make_rng(29, 0)
    xs = np.linspace(-1.0, 3.0, 9)
    for _ in range(10):
        fam = IterationFamily(
            float(rng.uniform(-2.0, 2.0)),
            float(rng.uniform(0.1, 3.0)),
            float(rng.uniform(0.5, 2.0)),
        )
        for t in (0, 1):
            n = SPEC.T - t
            for x in xs:
                w = 1.3
                vals = [iterate(fam, M, SPEC, k, t, float(x), w)[1] for k in range(n + 1)]
                assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))
                pol, val = iterate(fam, M, SPEC, n, t, float(x), w)
                ref = optimal_policy(M, SPEC, t, float(x), w)
                assert abs(val - optimal_value(M, SPEC, t, float(x), w)) <= 1e-10
                assert abs(pol.mean - ref.mean) <= 1e-10
                assert abs(pol.variance - ref.variance) <= 1e-10


def test_iterate_mean_is_optimal_from_the_first_step():
    fam = IterationFamily(1.7, 2.0, 0.8)
    for k in range(1, 3):
        pol, _ = iterate(fam, M, SPEC, k, 0, 1.0, 1.3)
        assert pol.mean == optimal_policy(M, SPEC, 0, 1.0, 1.3).mean


def test_degenerate_family_is_rejected_exactly():
    # slope 0 in a driftless unit-rate market: the geometric ratio is exactly 1
    flat = MarketModel(0.0, 0.2, 1.0)
    fam = IterationFamily(0.0, 0.5, 1.0)
    with pytest.raises(DegenerateFamilyError, match="exactly 1"):
        seed_value(fam, flat, SPEC, 0, 1.0, 1.0)
    # an epsilon away it is fine
    ok = IterationFamily(0.0, 0.5, 1.0 + 1e-9)
    assert math.isfinite(seed_value(ok, flat, SPEC, 0, 1.0, 1.0))


def test_absurd_family_overflow_is_reported():
    fam = IterationFamily(1e200, 0.5, 1.0)
    with pytest.raises(DegenerateFamilyError):
        seed_value(fam, M, SPEC, 0, 1.0, 1.3)


# ---------------------------------------------------------------------------
# numerical oracle
# ---------------------------------------------------------------------------


def test_dp_oracle_agrees_with_closed_form():
    xs = np.linspace(-1.0, 3.0, 11)
    w = lagrange_fixed_point(M, SPEC)
    layers = dp_oracle(M, SPEC, w, xs)
    assert [g.t for g in layers] == [0, 1, 2]
    for t, grid in enumerate(layers):
        for x, j in zip(xs, grid.j_values):
            ref = optimal_value(M, SPEC, t, float(x), w)
            assert abs(j - ref) / max(1.0, abs(ref)) <= 1e-9


def test_dp_oracle_terminal_layer_is_the_terminal_cost():
    xs = np.linspace(0.0, 2.0, 5)
    layers = dp_oracle(M, SPEC, 1.3, xs)
    np.testing.assert_allclose(layers[-1].j_values, (xs - 1.3) ** 2 - 0.01, rtol=1e-15)


def test_dp_oracle_flags_unreachable_tolerance():
    """A tol below the values' rounding noise is rejected by name, before the
    gates compare that noise."""
    xs = np.linspace(0.0, 2.0, 5)
    with pytest.raises(ValueError, match="^tol must be >= 1e-15, got 1e-18$"):
        dp_oracle(M, SPEC, 1.3, xs, tol=1e-18)


def test_dp_oracle_rejects_an_infinite_tolerance():
    """An infinite tol would pass every gate: 51 nodes over +-2 sigmas, which
    the widening gate rejects at the default tol, would come back with a
    quadrature error of 1.4e-2.  It is rejected by name instead."""
    xs = np.linspace(0.0, 2.0, 5)
    with pytest.raises(QuadratureError, match="unconverged"):
        dp_oracle(M, SPEC, 1.3, xs, n_u=51, halfwidth_sigmas=2.0)
    with pytest.raises(ValueError, match="^tol must be finite, got inf$"):
        dp_oracle(M, SPEC, 1.3, xs, n_u=51, halfwidth_sigmas=2.0, tol=math.inf)


@pytest.mark.parametrize("halfwidth, converged", [(2.0, False), (4.0, False), (6.0, True)])
def test_dp_oracle_widening_gate_rejects_narrow_windows(halfwidth, converged):
    """At the default tol, a control window of 2 or 4 sigmas moves the value
    when widened by half, and 6 sigmas does not."""
    spec = ProblemSpec(T=3, x0=1.0, b=1.2, lam=0.5)
    xs = np.linspace(0.0, 2.0, 5)
    if converged:
        assert len(dp_oracle(M, spec, 1.3, xs, halfwidth_sigmas=halfwidth)) == 4
    else:
        with pytest.raises(QuadratureError, match="unconverged"):
            dp_oracle(M, spec, 1.3, xs, halfwidth_sigmas=halfwidth)


def test_dp_oracle_rejects_a_nan_target():
    """A NaN w makes every value of the first Bellman step NaN; each gate is
    written so that a NaN fails it, so no NaN layer comes back."""
    with pytest.raises(QuadratureError, match="unconverged"):
        dp_oracle(M, SPEC, float("nan"), np.linspace(0.0, 2.0, 5))


def test_dp_oracle_cross_check_catches_a_coarse_grid():
    """51 nodes over +-40 sigmas are 1.6 sigmas apart: the trapezoid rule
    misses the Gibbs integral by far more than tol, and the cross-check says
    so."""
    xs = np.linspace(0.0, 2.0, 5)
    with pytest.raises(QuadratureError, match="disagree"):
        dp_oracle(M, SPEC, 1.3, xs, n_u=51, halfwidth_sigmas=40.0)


def _moments(m, x, mu, v):
    """E[Y] and E[Y^2] of Y = r_f x + r u, r of mean a and second moment m2
    independent of u ~ N(mu, v)."""
    y0 = m.r_f * x
    return y0 + m.a * mu, y0 * y0 + 2.0 * y0 * m.a * mu + m.second_moment * (mu * mu + v)


def _brute_force_step(m, lam, quad, x, zooms=4, nodes=41):
    """min over Gaussian pi = N(mu, e^ell) of E_pi[J(r_f x + r u)] + lam *
    E_pi[ln pi], for J(y) = sum_k quad[k] y^k, on a grid of (mu, ell) zoomed
    `zooms` times to +-2 spacings about its argmin, with no Gibbs identity.
    The objective is a convex function of mu plus one of ell, so the minimizer
    lies within a spacing of the argmin and the nearest node within half a
    spacing (h_mu, h_ell) of it; Taylor's bound about the minimizer then puts
    the grid's minimum at most f_mu (h_mu / 2)^2 / 2 + f_ell (h_ell / 2)^2 / 2
    above the true one, f_mu = 2 * q * m2 and f_ell = q * m2 * e^ell the
    curvatures, the latter at its largest over that spacing.  Returns the
    minimum, that bound and the argmin (mu, v)."""
    c0, c1, c2 = quad

    def objective(mu, ell):
        ey, ey2 = _moments(m, x, mu, np.exp(ell))
        return c2 * ey2 + c1 * ey + c0 - 0.5 * lam * (1.0 + math.log(2.0 * math.pi) + ell)

    mus, ells = np.linspace(-100.0, 100.0, nodes), np.linspace(-20.0, 20.0, nodes)
    for zoom in range(zooms + 1):
        values = objective(mus[:, None], ells[None, :])
        i, j = np.unravel_index(np.argmin(values), values.shape)
        assert 0 < i < nodes - 1 and 0 < j < nodes - 1  # the minimizer is inside the box
        h_mu, h_ell = mus[1] - mus[0], ells[1] - ells[0]
        if zoom < zooms:
            mus = np.linspace(mus[i] - 2.0 * h_mu, mus[i] + 2.0 * h_mu, nodes)
            ells = np.linspace(ells[j] - 2.0 * h_ell, ells[j] + 2.0 * h_ell, nodes)
    f_mu, f_ell = 2.0 * c2 * m.second_moment, c2 * m.second_moment * math.exp(ells[j] + h_ell)
    bound = 0.5 * f_mu * (h_mu / 2.0) ** 2 + 0.5 * f_ell * (h_ell / 2.0) ** 2
    return float(values[i, j]), bound, (mus[i], math.exp(ells[j]))


@pytest.mark.parametrize("market, spec", [(M, SPEC), (MONTHLY, MONTHLY_SPEC)])
@pytest.mark.parametrize("T", [1, 2])
def test_dp_oracle_matches_a_brute_force_minimum_over_gaussians(market, spec, T):
    """The Bellman minimum over Gaussian densities by brute force on a grid
    of (mean, log-variance), the expectation in closed form through a and m2,
    against dp_oracle's layers and optimal_value, with no Gibbs soft-min:
    J_T is the terminal cost, and at T = 2 J_1 is the quadratic through its
    brute-forced values at three states.  Those values lie above J_1 by at
    most b_1, their grid bound (_brute_force_step), so at T = 2 the values at
    t = 0 may move by b_1 * sum_i |E_pi[L_i(Y)]| further, L_i the Lagrange
    basis of the three states, at the brute-force argmin pi."""
    spec = ProblemSpec(T=T, x0=spec.x0, b=spec.b, lam=spec.lam)
    w = lagrange_fixed_point(market, spec)
    xs = np.array([0.4, 1.0, 1.7])
    layers = dp_oracle(market, spec, w, xs)
    quad, spread = (w * w - (w - spec.b) ** 2, -2.0 * w, 1.0), 0.0  # (y - w)^2 - (w - b)^2, exact
    basis = [np.polynomial.polynomial.polyfit(xs, row, 2) for row in np.eye(3)]
    for t in range(T - 1, -1, -1):
        steps = [_brute_force_step(market, spec.lam, quad, x) for x in xs]
        for x, j, (value, bound, (mu, v)) in zip(xs, layers[t].j_values, steps):
            ey, ey2 = _moments(market, x, mu, v)
            bound += spread * sum(abs(l2 * ey2 + l1 * ey + l0) for l0, l1, l2 in basis)
            assert abs(value - j) <= bound
            assert abs(value - optimal_value(market, spec, t, float(x), w)) <= bound
        spread = max(b for _, b, _ in steps)  # the bound b_1 of J_1's values, for t = 0
        quad = np.polynomial.polynomial.polyfit(xs, [value for value, _, _ in steps], 2)


def _reference_trapezoid(a2, a1, center, lam, halfwidth, points):
    """dp_oracle's trapezoid cross-check as it was written over the whole
    (states x nodes) array, with two exps and np.trapezoid."""
    offs = np.linspace(-halfwidth, halfwidth, points)
    u = center[:, None] + offs[None, :]
    phi = a2 * u**2 + a1[:, None] * u
    lp = -phi / lam
    lp_max = lp.max(axis=1, keepdims=True)
    norm = np.trapezoid(np.exp(lp - lp_max), offs, axis=1)
    ln_z_tr = np.log(norm) + lp_max[:, 0]
    dens = np.exp(lp - lp_max) / norm[:, None]
    e_phi_tr = np.trapezoid(dens * phi, offs, axis=1)
    e_lnpi_tr = np.trapezoid(dens * (lp - ln_z_tr[:, None]), offs, axis=1)
    return e_phi_tr + lam * e_lnpi_tr


@settings(max_examples=80, deadline=None)
@given(
    market=st.sampled_from([M, MONTHLY]),
    q=st.floats(0.01, 100.0),
    c=st.floats(-3.0, 3.0),
    lam=st.floats(0.01, 10.0),
    x_min=st.floats(-3.0, 3.0),
    span=st.floats(0.1, 6.0),
    states=st.integers(3, 250),
    width=st.sampled_from([2.0, 4.0, 8.0, 12.0]),
    points=st.integers(51, 3001),
)
def test_trapezoid_pair_matches_the_whole_array_formulation(
    market, q, c, lam, x_min, span, states, width, points
):
    """Both rules' per-layer values, added to each state's minimum
    phi(center), against the reference above for the layer q*(y - c)^2 + g
    (g only adds the same constant to both) on grids of any size: the narrow
    rule on `points` nodes over +-halfwidth, the wide rule on that grid
    extended by ceil((points - 1) / 4) nodes per side at the same spacing.
    Windows of 2 and 4 sigmas leave enough mass at the ends that a narrow
    window one node off shows.  The tolerance is on the oracle gates' scale
    1 + |value|."""
    grid = np.linspace(x_min, x_min + span, states)
    a2 = q * market.second_moment
    a1 = 2.0 * q * market.a * (market.r_f * grid - c)
    center = -a1 / (2.0 * a2)
    phi_center = a2 * center**2 + a1 * center
    halfwidth = width * math.sqrt(lam / (2.0 * a2))
    narrow, wide = _trapezoid_values(a2, lam, halfwidth, points)
    k = math.ceil((points - 1) / 4)
    wide_halfwidth = (points - 1 + 2 * k) / (points - 1) * halfwidth
    want_narrow = _reference_trapezoid(a2, a1, center, lam, halfwidth, points)
    want_wide = _reference_trapezoid(a2, a1, center, lam, wide_halfwidth, points + 2 * k)
    np.testing.assert_allclose(phi_center + narrow, want_narrow, rtol=1e-13, atol=1e-13)
    np.testing.assert_allclose(phi_center + wide, want_wide, rtol=1e-13, atol=1e-13)


@given(s=st.floats(1e-6, 1e3))
def test_wide_trapezoid_nodes_at_the_default_grid_are_the_linspace_over_1_5_widths(s):
    """At dp_oracle's default 2001 nodes the wide grid is exactly
    linspace(-1.5h, 1.5h, 3001); at the default 8 sigmas that is exactly
    linspace(-12s, 12s, 3001), so the wide rule's values do not depend on
    whether it shares its nodes with the narrow one."""
    halfwidth = 8.0 * s
    offs, inner = _trapezoid_nodes(halfwidth, 2001)
    assert offs.tobytes() == np.linspace(-1.5 * halfwidth, 1.5 * halfwidth, 3001).tobytes()
    assert offs.tobytes() == np.linspace(-12.0 * s, 12.0 * s, 3001).tobytes()
    assert inner == slice(500, 2501)


@settings(max_examples=200, deadline=None)
@given(
    a=st.floats(-0.3, 0.3),
    sigma=st.floats(0.05, 0.5),
    r_f=st.floats(0.95, 1.1),
    T=st.integers(1, 60),
    t_frac=st.floats(0.0, 1.0),
    lam=st.floats(0.01, 10.0),
    b=st.floats(-2.0, 3.0),
    w=st.floats(-5.0, 5.0),
    x_min=st.floats(-5.0, 5.0),
    span=st.floats(0.0, 10.0),
    states=st.integers(1, 40),
)
def test_closed_forms_on_a_state_array_equal_the_scalar_calls_bitwise(
    a, sigma, r_f, T, t_frac, lam, b, w, x_min, span, states
):
    """optimal_value and optimal_policy on an array of states give, bit for
    bit, the per-state scalar results: the analytic command's table takes
    whole layers at once and must print the same digits."""
    m = MarketModel(a, sigma, r_f)
    spec = ProblemSpec(T=T, x0=1.0, b=b, lam=lam)
    t = min(int(t_frac * (T + 1)), T)
    xs = np.linspace(x_min, x_min + span, states)
    scalar = [optimal_value(m, spec, t, x, w) for x in xs.tolist()]
    assert optimal_value(m, spec, t, xs, w).tobytes() == np.array(scalar).tobytes()
    if t < T:
        pol = optimal_policy(m, spec, t, xs, w)
        scalar_pols = [optimal_policy(m, spec, t, x, w) for x in xs.tolist()]
        assert pol.mean.tobytes() == np.array([p.mean for p in scalar_pols]).tobytes()
        assert {p.variance.hex() for p in scalar_pols} == {pol.variance.hex()}


def test_dp_oracle_grid_validation():
    with pytest.raises(ValueError):
        dp_oracle(M, SPEC, 1.3, [0.0, 1.0])
    with pytest.raises(ValueError):
        dp_oracle(M, SPEC, 1.3, [0.0, 1.0, 0.5])
    with pytest.raises(ValueError):
        dp_oracle(M, SPEC, 1.3, np.linspace(0, 2, 5), n_u=11)
    # a window that is not finite and positive, or no Gauss-Hermite node, is
    # rejected by name before numpy runs (and warns) on it
    xs = np.linspace(0, 2, 5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for halfwidth in (-8.0, 0.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="^halfwidth_sigmas must be finite and > 0"):
                dp_oracle(M, SPEC, 1.3, xs, halfwidth_sigmas=halfwidth)
        for n_hermite in (0, -3):
            with pytest.raises(ValueError, match="^n_hermite must be >= 1"):
                dp_oracle(M, SPEC, 1.3, xs, n_hermite=n_hermite)
        # a tol that is not a number, not positive, or below about 1e-15, where the gates would
        # compare rounding noise
        for tol in (math.nan, 0.0, -0.0, -1e-9, -math.inf, 1e-16, 9.9e-16, 1e-18):
            with pytest.raises(ValueError, match="^tol must be >= 1e-15"):
                dp_oracle(M, SPEC, 1.3, xs, tol=tol)
    dp_oracle(M, SPEC, 1.3, xs, tol=1e-15)  # the floor itself is a tol


def test_value_grid_metadata_records_geometry():
    xs = np.linspace(0.0, 2.0, 5)
    grid = dp_oracle(M, SPEC, 1.3, xs)[0]
    assert isinstance(grid, ValueGrid)
    assert grid.meta["n_u"] == 2001.0
    assert grid.meta["curvature"] > 0.0
    assert grid.meta["fit_residual"] <= 1e-7
