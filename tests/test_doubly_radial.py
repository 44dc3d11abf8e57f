import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import integrate
from scipy.special import hyp2f1

from nlsaddle.errors import (ConvergenceError, DomainError, PreconditionError,
                             SingularityError)
from nlsaddle import doubly_radial
from nlsaddle.kernels import (counterexample_kernel, eval_kernel, fractional_kernel,
                              standard_c_norm, tabulated_kernel)
from nlsaddle.doubly_radial import (appell_f2, appell_prefactor, exterior_tail_coefficient,
                                    f2_arguments, gauss_jacobi_rule, j_kernel_appell,
                                    j_values, kernel_difference, omega_sphere,
                                    sample_outer_orbits, verify_kernel_inequality,
                                    zero_order_coefficient, zero_order_integral)
from nlsaddle.energy import build_grid

K1 = fractional_kernel(0.5, 1)
RULE1 = gauss_jacobi_rule(2, 1)
K2 = fractional_kernel(0.25, 2)
RULE2 = gauss_jacobi_rule(32, 2)
K3 = fractional_kernel(0.5, 3)
RULE3 = gauss_jacobi_rule(4, 3)


def J(kernel, p, q, rule):
    return float(j_values(kernel, *p, *q, rule))


def four_term_sum(s, t, sig, tau, power=3.0):
    """Independent oracle: the exact m=1 spherical sum for the power kernel.

    Sign choice e contributes r^2 = (s - sig)^2 + (t - tau)^2 + 2 s sig (1 - es)
    + 2 t tau (1 - et), a sum of nonnegative terms that does not cancel near
    the diagonal.
    """
    total = 0.0
    for es in (1, -1):
        for et in (1, -1):
            r2 = ((s - sig) ** 2 + (t - tau) ** 2
                  + 2 * s * sig * (1 - es) + 2 * t * tau * (1 - et))
            total += r2 ** (-power / 2.0)
    return total


# --- orbit pairs ---------------------------------------------------------------

def test_negative_coordinates_rejected():
    for p, q in (((-1.0, 0.5), (3.0, 1.0)), ((3.0, 1.0), (2.0, -0.5))):
        with pytest.raises(DomainError):
            kernel_difference(K1, p, q)
        with pytest.raises(DomainError):
            f2_arguments(p, q)
        with pytest.raises(DomainError):
            j_kernel_appell(0.5, 2, p, q)
        # every J path checks the radii: the exact m=1 sum, the closed m=2
        # form and the m >= 3 tensor rule
        for kernel, rule in ((K1, RULE1), (K2, RULE2), (K3, RULE3)):
            with pytest.raises(DomainError):
                J(kernel, p, q, rule)
    for kernel, rule in ((K1, RULE1), (K2, RULE2), (K3, RULE3)):
        with pytest.raises(DomainError):
            J(kernel, (math.nan, 0.5), (3.0, 1.0), rule)
    # in an array call, one bad radius is enough
    with pytest.raises(DomainError):
        j_values(K1, np.array([3.0, 2.0]), 1.0, np.array([[1.0], [-1e-300]]), 0.5, RULE1)


# --- quadrature rules --------------------------------------------------------

def weight_integral(m: int) -> float:
    """Exact value of int_{-1}^{1} (1-theta^2)^((m-2)/2) dtheta (m >= 2)."""
    return math.sqrt(math.pi) * math.gamma(m / 2.0) / math.gamma((m + 1) / 2.0)


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_rule_weights_sum_to_weight_integral(m):
    rule = gauss_jacobi_rule(32, m)
    assert rule.weights.min() > 0
    assert rule.weights.sum() == pytest.approx(weight_integral(m), abs=1e-12)


def test_omega_sphere_values():
    assert omega_sphere(1) == 2.0
    assert omega_sphere(2) == pytest.approx(2.0 * math.pi, rel=1e-14)


def test_c_m_at_two():
    # with u = 2 s sigma = 0 and v = 2 t tau = 0 both sphere averages are
    # trivial: J = c_2^2 int int K(sqrt d) = 16 K(sqrt d), with c_2 = |S^0| = 2,
    # in closed form (fractional) and on the tensor rule (counterexample)
    for kernel in (K2, counterexample_kernel(0.5, 2)):
        assert J(kernel, (0.0, 1.0), (2.0, 0.0), RULE2) == pytest.approx(
            16.0 * float(eval_kernel(kernel, math.sqrt(5.0))), rel=1e-14)


def test_the_half_weight_rule_is_exact_to_rounding():
    # the closed Gauss-Chebyshev rule of (1 - x^2)^(1/2) (J at m=3, the m=2
    # sphere-slice tail) integrates x^(2j) to B(j + 1/2, 3/2) for 2j <= 2n - 1;
    # scipy's roots_jacobi is off by up to 1.5e-13 relative at n = 48
    x, w = doubly_radial._gauss(48, 0.5)
    assert np.all(np.diff(x) > 0.0) and not (x.flags.writeable or w.flags.writeable)
    for j in range(48):
        exact = math.exp(math.lgamma(j + 0.5) + math.lgamma(1.5) - math.lgamma(j + 2.0))
        assert w @ x ** (2 * j) == pytest.approx(exact, rel=4e-15)


# --- J kernel ----------------------------------------------------------------

def test_j_kernel_axis_example():
    # J(1,0,2,0) = 2 [K(1) + K(3)] = 56/27
    assert J(K1, (1, 0), (2, 0), RULE1) == pytest.approx(56.0 / 27.0, rel=1e-13)
    assert four_term_sum(1, 0, 2, 0) == pytest.approx(56.0 / 27.0, rel=1e-13)


def test_j_kernel_interior_example():
    expected = four_term_sum(2, 1, 3, 1)
    assert expected == pytest.approx(1.103846, abs=1e-6)
    assert J(K1, (2, 1), (3, 1), RULE1) == pytest.approx(expected, rel=1e-13)


def test_j_kernel_refuses_diagonal_and_negative():
    with pytest.raises(SingularityError):
        kernel_difference(K1, (2, 1), (2, 1))
    with pytest.raises(SingularityError):
        j_kernel_appell(0.5, 2, (2, 1), (2, 1))
    with pytest.raises(DomainError):
        kernel_difference(K1, (2, -1), (3, 1))


# near-diagonal pairs where the expanded r^2 = s^2 + ... - 2 s sig th cancels
NEAR_DIAGONAL = [(6.87081594406054, 0.0, 6.87081594406054, 1e-6),
                 (2.107, 1e-4, 2.107, 0.0)]


@given(st.floats(0.05, 20), st.floats(0.0, 20), st.floats(0.05, 20), st.floats(0.0, 20))
@example(*NEAR_DIAGONAL[0])
@example(*NEAR_DIAGONAL[1])
@settings(max_examples=200, deadline=None)
def test_j_symmetry_m1(s, t, sig, tau):
    if abs(s - sig) + abs(t - tau) < 1e-9 * (s + sig):
        return
    a = J(K1, (s, t), (sig, tau), RULE1)
    b = J(K1, (sig, tau), (s, t), RULE1)
    assert a == pytest.approx(b, rel=1e-12)


@pytest.mark.parametrize("s, t, sig, tau", NEAR_DIAGONAL)
def test_j_near_diagonal_closed_form(s, t, sig, tau):
    # s = sig and one of t, tau is 0: the sign choices give r^2 = delta^2
    # twice and 4 s^2 + delta^2 twice, with delta = |t - tau|
    delta = abs(t - tau)
    exact = 2.0 * delta ** -3 + 2.0 * (4.0 * s * s + delta * delta) ** -1.5
    assert J(K1, (s, t), (sig, tau), RULE1) == pytest.approx(exact, rel=1e-12)


@pytest.mark.parametrize("s, t, sig, tau", NEAR_DIAGONAL)
def test_j_values_exactly_symmetric_near_diagonal(s, t, sig, tau):
    for kernel, rule in ((K1, RULE1), (K2, RULE2)):
        assert j_values(kernel, s, t, sig, tau, rule) == j_values(kernel, sig, tau, s, t, rule)


def test_j_symmetry_m2_fixed_rule():
    rng = np.random.default_rng(5)
    for _ in range(20):
        s, t = sample_outer_orbits(rng, 1)
        sig, tau = sample_outer_orbits(rng, 1)
        a = J(K2, (s[0], t[0]), (sig[0], tau[0]), RULE2)
        b = J(K2, (sig[0], tau[0]), (s[0], t[0]), RULE2)
        assert a == pytest.approx(b, rel=1e-12)


def test_j_quadrature_doubling_converges():
    # every doubling of the order from 32 to 256 agrees to 1e-8
    k2 = fractional_kernel(0.5, 2)
    for p, q in (((1.0, 0.5), (2.0, 0.8)), ((1.0, 0.4), (1.6, 0.9))):
        vals = [J(k2, p, q, gauss_jacobi_rule(n, 2)) for n in (32, 64, 128, 256)]
        for a, b in zip(vals, vals[1:]):
            assert abs(a - b) <= 1e-8 * abs(b)


# --- closed form of the power kernel at m=2 -----------------------------------

def tensor_sum(kernel, s, t, sig, tau, rule):
    """Independent oracle: c_2^2 sum_ij w_i w_j K(r_ij) with c_2 = |S^0| = 2,
    written out."""
    th, w = rule.nodes, rule.weights
    r2 = ((s - sig) ** 2 + (t - tau) ** 2
          + 2 * s * sig * (1 - th)[:, None] + 2 * t * tau * (1 - th)[None, :])
    return 4.0 * float(w @ eval_kernel(kernel, np.sqrt(r2)) @ w)


def test_j_power_m2_matches_tensor_sum():
    # radii over four decades, the second orbit 1.5 to 4 times farther out
    # so that the order-256 tensor sum has converged; a change of the m=2
    # rule's weight breaks the agreement, since the closed form assumes a
    # constant one
    rng = np.random.default_rng(21)
    rule = gauss_jacobi_rule(256, 2)
    for kernel in (K2, fractional_kernel(0.5, 2, c_norm=0.3)):
        for _ in range(20):
            r = math.exp(rng.uniform(math.log(1e-2), math.log(1e2)))
            rq = r * rng.uniform(1.5, 4.0)
            a, b = rng.uniform(0.0, math.pi / 2.0, size=2)
            p, q = (r * math.cos(a), r * math.sin(a)), (rq * math.cos(b), rq * math.sin(b))
            assert J(kernel, p, q, rule) == pytest.approx(
                tensor_sum(kernel, *p, *q, rule), rel=1e-10)


@pytest.mark.parametrize("p, q", [((1.0, 0.5), (2.0, 0.8)), ((3.0, 0.2), (0.7, 0.6)),
                                  ((2.0, 1.0), (2.05, 1.02))])
def test_j_power_m2_matches_adaptive_double_integral(p, q):
    # the near-diagonal pair needs the order-256 outer rule
    k2 = fractional_kernel(0.5, 2)
    (s, t), (sig, tau) = p, q

    def integrand(th_t, th_s):
        r2 = (s - sig) ** 2 + (t - tau) ** 2 + 2 * s * sig * (1 - th_s) + 2 * t * tau * (1 - th_t)
        return 4.0 * r2 ** (-k2.power / 2.0)  # c_2^2 = 4

    exact, _ = integrate.dblquad(integrand, -1.0, 1.0, -1.0, 1.0, epsabs=0.0, epsrel=1e-11)
    assert J(k2, p, q, gauss_jacobi_rule(256, 2)) == pytest.approx(exact, rel=1e-9)


@pytest.mark.parametrize("p, q", [((0.0, 1.0), (2.0, 0.0)), ((0.0, 0.0), (1.5, 0.5)),
                                  ((1.5, 0.5), (0.0, 0.0)), ((2.0, 0.0), (0.0, 0.7))])
def test_j_power_m2_without_angle_products(p, q):
    # s sig = t tau = 0: the distance does not depend on either angle
    val = J(K2, p, q, RULE2)
    assert math.isfinite(val)
    assert val == pytest.approx(tensor_sum(K2, *p, *q, RULE2), rel=1e-13)


def test_j_power_m2_matches_the_appell_series():
    # the double hypergeometric series over four decades of radii, where it
    # converges fast (x + y <= 0.95), against J on the order-32 rule
    rng = np.random.default_rng(8)
    n = 0
    while n < 40:
        (s,), (t,) = sample_outer_orbits(rng, 1)
        (sig,), (tau,) = sample_outer_orbits(rng, 1)
        if sum(f2_arguments((s, t), (sig, tau))) > 0.95:
            continue
        for gamma, c_norm in ((0.25, 1.0), (0.75, 0.3)):
            series = j_kernel_appell(gamma, 2, (s, t), (sig, tau), series_tol=1e-15,
                                     c_norm=c_norm)
            kernel = fractional_kernel(gamma, 2, c_norm=c_norm)
            assert J(kernel, (s, t), (sig, tau), RULE2) == pytest.approx(series, rel=1e-12)
        n += 1


def _log_dblquad(kernel, s, t, sig, tau):
    """Independent oracle: c_2^2 int int c_norm r^(-2m-2 gamma) dth_1 dth_2
    with 1 - th = 2 e^(-a) on each angle, by adaptive quadrature in
    (a_1, a_2) on [0, 60]^2.  The substitution spreads the corner
    th_1 = th_2 = 1, where the integrand peaks for near pairs, over the
    whole a range."""
    d = (s - sig) ** 2 + (t - tau) ** 2
    k = -kernel.power / 2.0

    def integrand(a2, a1):
        x1, x2 = 2.0 * math.exp(-a1), 2.0 * math.exp(-a2)
        return x1 * x2 * (d + 2 * s * sig * x1 + 2 * t * tau * x2) ** k

    quad = integrate.dblquad(integrand, 0.0, 60.0, 0.0, 60.0, epsabs=0.0, epsrel=1e-13)[0]
    return 4.0 * kernel.c_norm * quad  # c_2^2 = 4


@pytest.mark.parametrize("p, q", [((2.75, 0.75), (3.25, 0.75)), ((1.75, 0.25), (1.75, 0.75)),
                                  ((2.0, 1.0), (2.05, 1.02)), ((2.0, 1.0), (2.01, 1.0)),
                                  ((2.0, 1.0), (2.00001, 1.0))])
def test_j_power_m2_is_exact_on_near_pairs(p, q):
    # lattice neighbours of the m=2, h=0.5 grids and three nearer pairs: even
    # the order-1024 tensor sum is visibly off (4e-13 to 1.0), while J on
    # the default order-32 rule agrees with adaptive quadrature to rounding.
    # At d = 1e-10, J must take the log of 1 - q = 1 - 4uv/((d+2u)(d+2v))
    # from 1 - q itself: log1p(-q) leaves it 2.8e-12 off
    k2 = fractional_kernel(0.5, 2)
    exact = _log_dblquad(k2, *p, *q)
    assert abs(tensor_sum(k2, *p, *q, gauss_jacobi_rule(1024, 2)) / exact - 1.0) > 1e-13
    assert J(k2, p, q, RULE2) == pytest.approx(exact, rel=1e-14)


def test_j_power_m2_keeps_its_accuracy_where_the_angles_barely_matter():
    # one orbit near the origin: u, v << A0 = d + u + v, where a difference
    # of the two-angle antiderivative would cancel.  Oracle: the mean of
    # (A0 - u th_1 - v th_2)^(-k) over the square, expanded in the even
    # moments of u th_1 + v th_2 through the fourth
    gamma = 0.5
    k = 2.0 + gamma
    k2 = fractional_kernel(gamma, 2)
    q = (3.0, 1.0)
    for eps in (1e-3, 1e-4, 1e-5, 1e-6, 1e-8, 1e-10):
        p = (0.06 * eps, 0.1 * eps)
        u, v = 2 * p[0] * q[0], 2 * p[1] * q[1]
        a0 = (p[0] - q[0]) ** 2 + (p[1] - q[1]) ** 2 + u + v
        x, y = (u / a0) ** 2, (v / a0) ** 2
        mean = a0 ** -k * (1.0 + k * (k + 1) / 6.0 * (x + y)
                           + k * (k + 1) * (k + 2) * (k + 3) / 24.0
                           * (x * x / 5.0 + 2.0 * x * y / 3.0 + y * y / 5.0))
        assert max(u, v) / a0 <= 1e-3
        assert J(k2, p, q, RULE2) == pytest.approx(16.0 * mean, rel=1e-14), eps  # 4 c_2^2


@pytest.mark.parametrize("p, q", [((2.0, 0.0), (3.0, 1.0)), ((0.0, 2.0), (1.0, 3.0)),
                                  ((1e-3, 0.0), (2.0, 0.5)), ((0.0, 1.0), (2.0, 1.1))])
def test_j_power_m2_with_one_angle_product(p, q):
    # s sig = 0 or t tau = 0: J is 2 c_2^2 times a one-angle integral
    (s, t), (sig, tau) = p, q
    d, w = (s - sig) ** 2 + (t - tau) ** 2, 2 * s * sig + 2 * t * tau
    exact = 8.0 * integrate.quad(lambda th: (d + w * (1 - th)) ** (-K2.power / 2.0), -1.0, 1.0,
                                 epsabs=0.0, epsrel=1e-13)[0]
    assert J(K2, p, q, RULE2) == pytest.approx(exact, rel=1e-13)


def test_verify_inequality_m2_converges_on_every_sample():
    # the benchmark's m2-coarse settings: the closed form leaves no sample
    # to the order escalation
    k2 = fractional_kernel(0.5, 2, c_norm=standard_c_norm(0.5, 2))
    rep = verify_kernel_inequality(k2, seed=0, n_samples=10000)
    assert rep.violations == 0
    assert rep.n_unconverged == 0


@pytest.mark.parametrize("kernel, calls", [
    (fractional_kernel(0.5, 2, c_norm=standard_c_norm(0.5, 2)), [32, 32]),
    (tabulated_kernel(np.geomspace(1e-3, 1e3, 64), np.geomspace(1e-3, 1e3, 64) ** -5.0,
                      gamma=0.5, m=2), [32, 32, 64, 64, 128, 128])],
    ids=["closed", "rule"])
def test_verify_inequality_escalates_only_where_j_reads_its_rule(kernel, calls, monkeypatch):
    # the closed-form J reads no rule node, so a doubled order would give the
    # same values bit for bit: the direct and the swapped call suffice.  J on
    # the rule doubles its order on the unsettled samples until none is left
    orders = []

    def counted(kernel, s, t, sig, tau, rule):
        orders.append(rule.order)
        return j_values(kernel, s, t, sig, tau, rule)

    monkeypatch.setattr(doubly_radial, "j_values", counted)
    verify_kernel_inequality(kernel, seed=0, n_samples=64)
    assert orders == calls


def test_closed_j_is_its_own_doubled_rule():
    # what makes the escalation redundant for the closed form
    k2 = fractional_kernel(0.5, 2, c_norm=standard_c_norm(0.5, 2))
    xs, xt = sample_outer_orbits(np.random.default_rng(0), 500)
    ys, yt = sample_outer_orbits(np.random.default_rng(1), 500)
    for a, b in (((xs, xt), (ys, yt)), ((xs, xt), (yt, ys))):
        assert np.array_equal(j_values(k2, *a, *b, gauss_jacobi_rule(32, 2)),
                              j_values(k2, *a, *b, gauss_jacobi_rule(64, 2)))


def test_tabulated_kernel_at_m2_takes_the_tensor_rule():
    # the tabulated power law is the fractional kernel up to rounding, but
    # only the latter integrates the angles in closed form
    r = np.geomspace(1e-3, 1e3, 64)
    tab = tabulated_kernel(r, r ** -5.0, gamma=0.5, m=2)
    rule = gauss_jacobi_rule(8, 2)
    p, q = (2.0, 1.0), (2.4, 1.1)
    val = J(tab, p, q, rule)
    assert val == pytest.approx(tensor_sum(tab, *p, *q, rule), rel=1e-12)
    assert abs(val - J(fractional_kernel(0.5, 2), p, q, rule)) > 1e-3 * val


# --- averaged kernel ----------------------------------------------------------

DEFECT_1 = pytest.mark.xfail(strict=True, reason=(
    "ROADMAP Defect 1: J's rule carries the weight (1 - th^2)^((m-2)/2), where the "
    "uniform measure on S^(m-1) gives (m-3)/2; K = 1 gives 16 against 4 pi^2 at m=2"))


@pytest.mark.parametrize("m", [1, *(pytest.param(m, marks=DEFECT_1) for m in (2, 3, 4, 5))])
def test_flat_kernel_averages_to_one(m):
    # K = 1: J integrates 1 over both spheres, so kbar = J / |S^(m-1)|^2 = 1 at
    # every pair, an identity that shares no formula with the program
    r = np.geomspace(1e-3, 1e3, 8)
    flat = tabulated_kernel(r, np.ones_like(r), gamma=0.5, m=m)
    s, t = sample_outer_orbits(np.random.default_rng(4), 50, (0.1, 10.0))
    sig, tau = sample_outer_orbits(np.random.default_rng(5), 50, (0.1, 10.0))
    for a, b in ((sig, tau), (tau, sig)):
        kbar = j_values(flat, s, t, a, b, gauss_jacobi_rule(32, m)) / omega_sphere(m) ** 2
        np.testing.assert_allclose(kbar, 1.0, rtol=1e-13, atol=0.0)


def test_kbar_is_quarter_of_j_for_m1():
    # kbar = J / |S^0|^2 = J / 4
    assert J(K1, (1, 0), (2, 0), RULE1) / omega_sphere(1) ** 2 == pytest.approx(
        56.0 / 108.0, rel=1e-13)


def test_kbar_symmetry_and_star_identities():
    # J(p, q) = J(q, p) = J(p*, q*) and J(p*, q) = J(p, q*), with * = (s, t) -> (t, s)
    for kernel, rule in ((K1, RULE1), (K2, RULE2)):
        for (p, q) in [((2, 1), (3, 1)), ((0.5, 0.2), (1.5, 0.9)), ((4, 2), (1, 0.3))]:
            a = J(kernel, p, q, rule)
            assert J(kernel, q, p, rule) == pytest.approx(a, rel=1e-12)
            ps, qs = (p[1], p[0]), (q[1], q[0])
            assert J(kernel, ps, q, rule) == pytest.approx(J(kernel, p, qs, rule), rel=1e-12)
            assert J(kernel, ps, qs, rule) == pytest.approx(a, rel=1e-12)


def test_kernel_difference_example():
    expected = (four_term_sum(2, 1, 3, 1) - four_term_sum(2, 1, 1, 3)) / 4.0
    assert expected == pytest.approx(0.242701, abs=2e-6)
    assert kernel_difference(K1, (2, 1), (3, 1)) == pytest.approx(expected, rel=1e-12)
    assert expected > 0


def test_kernel_difference_on_cone_is_zero():
    assert kernel_difference(K1, (2, 1), (2.5, 2.5)) == 0.0


def test_kernel_difference_rejects_inner():
    with pytest.raises(DomainError):
        kernel_difference(K1, (1, 2), (3, 1))
    with pytest.raises(DomainError):
        kernel_difference(K1, (2, 1), (1, 3))


def test_kernel_difference_far_field_decay():
    near = kernel_difference(K1, (2, 1), (3, 1))
    far = kernel_difference(K1, (2, 1), (30, 1))
    assert 0 < far < near


# --- randomized inequality verification ---------------------------------------

def test_verify_inequality_fractional_quick():
    rep = verify_kernel_inequality(K1, seed=11, n_samples=2000)
    assert rep.violations == 0
    assert rep.min_gap > 0


def test_verify_inequality_m2_quick():
    k2 = fractional_kernel(0.5, 2)
    rep = verify_kernel_inequality(k2, seed=3, n_samples=200)
    assert rep.violations == 0
    assert rep.n_unconverged == 0


def test_verify_inequality_detects_concave_interval_kernel():
    # h(tau) = 1/(1+tau^2) has an interval of concavity; the necessary
    # condition fails and sampled violations appear among small-radius pairs
    r = np.geomspace(1e-6, 1e4, 6000)
    k = tabulated_kernel(r, 1.0 / (1.0 + r ** 4), gamma=0.5, m=1)
    rep = verify_kernel_inequality(k, seed=2, n_samples=4000, r_range=(5e-3, 5.0))
    assert rep.violations > 0


def test_verify_inequality_needs_samples():
    with pytest.raises(DomainError):
        verify_kernel_inequality(K1, seed=0, n_samples=0)


# --- closed hypergeometric form ------------------------------------------------

def test_f2_argument_bound_example():
    x, y = f2_arguments((1, 0.5), (2, 0.8))
    assert x + y == pytest.approx(9.6 / 10.69, abs=1e-4)
    assert x + y < 1


def test_prefactor_duplication_identity():
    # 2^(2m-4) c_m^2 Gamma(m/2)^4 / Gamma(m)^2
    #   == pi^m Gamma(m/2)^2 / (Gamma((m-1)/2)^2 Gamma((m+1)/2)^2)
    for m in (2, 3, 4, 5):
        c_m = 2.0 * math.pi ** ((m - 1) / 2.0) / math.gamma((m - 1) / 2.0)
        lhs = 2.0 ** (2 * m - 4) * c_m ** 2 * math.gamma(m / 2.0) ** 4 / math.gamma(m) ** 2
        rhs = (math.pi ** m * math.gamma(m / 2.0) ** 2
               / (math.gamma((m - 1) / 2.0) ** 2 * math.gamma((m + 1) / 2.0) ** 2))
        assert lhs == pytest.approx(rhs, rel=1e-12)
        # the series prefactor carries the substitution Jacobians (4x)
        assert appell_prefactor(0.5, m) == pytest.approx(4.0 * rhs, rel=1e-12)


def test_appell_agrees_with_quadrature():
    k2 = fractional_kernel(0.5, 2)
    quad = J(k2, (1, 0.5), (2, 0.8), gauss_jacobi_rule(512, 2))
    series = j_kernel_appell(0.5, 2, (1, 0.5), (2, 0.8), series_tol=1e-12)
    assert series == pytest.approx(quad, rel=1e-6)


def test_appell_agrees_on_random_sample():
    rng = np.random.default_rng(12)
    rule = gauss_jacobi_rule(512, 2)
    n = 0
    while n < 25:
        (s,), (t,) = sample_outer_orbits(rng, 1)
        (sig,), (tau,) = sample_outer_orbits(rng, 1)
        x, y = f2_arguments((s, t), (sig, tau))
        if x + y > 0.95:
            continue
        quad = J(K2, (s, t), (sig, tau), rule)
        series = j_kernel_appell(0.25, 2, (s, t), (sig, tau), series_tol=1e-12)
        assert series == pytest.approx(quad, rel=1e-6)
        n += 1


def test_appell_domain_errors():
    with pytest.raises(DomainError):
        j_kernel_appell(0.5, 1, (1, 0.5), (2, 0.8))
    with pytest.raises(DomainError):
        appell_f2(2.5, 1.0, 1.0, 2.0, 2.0, 0.7, 0.4)  # x + y >= 1
    with pytest.raises(ConvergenceError):
        appell_f2(2.5, 1.0, 1.0, 2.0, 2.0, 0.55, 0.449999, max_terms=5)


# --- zero-order coefficient -----------------------------------------------------

def test_zero_order_bound_sandwich():
    probes = [(1.5, 0.5), (2.0, 0.4), (3.0, 1.0), (4.0, 1.5), (2.5, 2.0), (5.0, 0.5)]
    ratios = []
    for p in probes:
        z = zero_order_coefficient(K1, p, R_out=50.0)
        d = (p[0] - p[1]) / math.sqrt(2.0)  # cone distance
        ratios.append(z * d)  # 2 gamma = 1
    c1, c2 = min(ratios), max(ratios)
    assert 0 < c1 <= c2 < 10.0 * c1
    z31 = zero_order_coefficient(K1, (3, 1), R_out=50.0)
    d = math.sqrt(2.0)
    assert c1 / d <= z31 + 1e-12 and z31 <= c2 / d + 1e-12


def test_zero_order_monotone_toward_cone():
    z_near = zero_order_coefficient(K1, (2.5, 2.4), R_out=50.0)
    z_far = zero_order_coefficient(K1, (3, 1), R_out=50.0)
    assert z_near > z_far


def test_zero_order_tail_consistency():
    z50 = zero_order_coefficient(K1, (3, 1), R_out=50.0)
    z100 = zero_order_coefficient(K1, (3, 1), R_out=100.0)
    assert abs(z100 - z50) / z50 < 0.01


def test_zero_order_domain_errors():
    with pytest.raises(DomainError):
        zero_order_coefficient(K1, (2, 2), R_out=50.0)
    with pytest.raises(DomainError):
        zero_order_coefficient(K1, (1, 2), R_out=50.0)


def test_zero_order_integral_matches_scalar_calls(small_grid):
    # one array call against per-node calls; at m=2 a low J order keeps the
    # scalar loop cheap (the two paths share the rule either way)
    m2_grid = build_grid(R=1.5, h=0.5, m=2, R_out=2.25)
    for grid, kernel, rule in ((small_grid, K1, RULE1),
                               (m2_grid, fractional_kernel(0.5, 2), gauss_jacobi_rule(8, 2))):
        tail = 0.5 * exterior_tail_coefficient(kernel, grid.s, grid.t, grid.R_out)
        arr = zero_order_integral(kernel, grid.s, grid.t, grid.R_out, rule) + tail
        one = [zero_order_coefficient(kernel, (s, t), grid.R_out, rule)
               for s, t in zip(grid.s, grid.t)]
        assert all(type(z) is float for z in one)
        assert np.allclose(arr, one, rtol=1e-13, atol=0.0)
        # the array call is the same sum
        both = zero_order_coefficient(kernel, (grid.s, grid.t), grid.R_out, rule)
        assert np.array_equal(both, arr)


def test_zero_order_integral_domain_errors():
    with pytest.raises(DomainError):
        zero_order_integral(K1, np.array([3.0, 2.0, 1.5]), np.array([1.0, 2.0, 0.5]), 50.0)
    with pytest.raises(PreconditionError):
        zero_order_integral(K1, np.array([3.0, 40.0]), np.array([1.0, 30.0]), 50.0)


@pytest.mark.parametrize("call, error", [
    (lambda: exterior_tail_coefficient(K1, math.nan, 1.0, 50.0), DomainError),
    (lambda: exterior_tail_coefficient(K1, -1.0, 0.5, 50.0), DomainError),
    (lambda: exterior_tail_coefficient(K2, 3.0, -1.0, 50.0), DomainError),
    (lambda: exterior_tail_coefficient(K1, 3.0, 1.0, math.nan), DomainError),
    (lambda: zero_order_integral(K1, 3.0, 1.0, math.nan), PreconditionError),
    (lambda: zero_order_integral(K2, 3.0, 1.0, math.nan), PreconditionError),
    (lambda: zero_order_coefficient(K1, (3.0, 1.0), math.nan), PreconditionError),
], ids=["tail-nan-s", "tail-negative-s", "tail-negative-t", "tail-nan-r-out",
        "integral-nan-r-out-m1", "integral-nan-r-out-m2", "coefficient-nan-r-out"])
def test_nan_or_negative_inputs_are_refused(call, error):
    # each returned a number (NaN, or a value at s < 0) while the guards read
    # `|x| >= R_out` and `|p| >= R_out`, which a NaN does not meet
    with pytest.raises(error):
        call()


def _wedge_dblquad(gamma, s, t, R_out):
    """Independent oracle: int |x - z|^(-2-2 gamma) dz over the double wedge
    {|z_1| < |z_2|, |z| < R_out} of R^2, x = (s, t), by adaptive Cartesian
    quadrature.  The z_2 < 0 wedge is the z_2 > 0 one seen from (s, -t); each
    is cut at z_2 = R_out/sqrt(2), where the z_1 limits change from the cone
    lines to the rim.
    """
    c = R_out / math.sqrt(2.0)
    total = 0.0
    for tt in (t, -t):
        def f(z1, z2):
            return ((s - z1) ** 2 + (tt - z2) ** 2) ** (-1.0 - gamma)
        for lo, hi, half in ((0.0, c, lambda z2: z2),
                             (c, R_out, lambda z2: math.sqrt(R_out ** 2 - z2 ** 2))):
            total += integrate.dblquad(f, lo, hi, lambda z2: -half(z2), half,
                                       epsabs=0.0, epsrel=1e-11)[0]
    return total


@pytest.mark.parametrize("gamma", [0.1, 0.5, 0.9])
def test_m1_zero_order_column_matches_cartesian_quadrature(gamma):
    # near the origin, an interior node, near the cone, in the band, near the
    # cone at the rim
    nodes = np.array([(0.375, 0.125), (3.0, 1.0), (5.125, 4.875), (16.875, 1.875),
                      (12.625, 12.375)])
    z = zero_order_integral(fractional_kernel(gamma, 1), nodes[:, 0], nodes[:, 1], 18.0)
    ref = [_wedge_dblquad(gamma, s, t, 18.0) for s, t in nodes]
    assert np.allclose(z, ref, rtol=1e-7, atol=0.0)


@pytest.mark.parametrize("gamma", [0.1, 0.25, 0.5, 0.75, 0.9])
def test_m1_zero_order_column_is_converged_in_the_angle(gamma):
    g = build_grid(R=12.0, h=0.25, m=1, R_out=18.0)
    kernel = fractional_kernel(gamma, 1)
    z = zero_order_integral(kernel, g.s, g.t, g.R_out)
    ref = zero_order_integral(kernel, g.s, g.t, g.R_out, n_phi=320)
    assert np.max(np.abs(z - ref) / ref) <= 1e-7


def _octant_dblquad(gamma, s, t, R_out):
    """Independent oracle: int J(s,t,b,a) a b over the truncated outer octant
    {0 <= b <= a, a^2 + b^2 <= R_out^2} for the m=2 kernel r^(-4-2 gamma),
    by adaptive Cartesian quadrature, b outer and a inner.  J is written as
    the mixed second difference of x^(2-k), k = 2 + gamma, over the steps
    2u = 4 s b and 2v = 4 t a at d = |(s - b, t - a)|^2, divided by
    (k-1)(k-2) u v and times |S^0|^2 = 4: the textbook form, which cancels
    where u or v is small, next to b = 0 or for small t, where a b is small.
    """
    k = 2.0 + gamma

    def f(a, b):
        d = (s - b) ** 2 + (t - a) ** 2
        u, v = 2.0 * s * b, 2.0 * t * a
        diff = ((d + 2.0 * u + 2.0 * v) ** (2.0 - k) - (d + 2.0 * u) ** (2.0 - k)
                - (d + 2.0 * v) ** (2.0 - k) + d ** (2.0 - k))
        return diff / (u * v) * a * b

    total = integrate.dblquad(f, 0.0, R_out / math.sqrt(2.0), lambda b: b,
                              lambda b: math.sqrt(R_out ** 2 - b ** 2),
                              epsabs=0.0, epsrel=1e-11)[0]
    return 4.0 * total / ((k - 1.0) * (k - 2.0))


@pytest.mark.parametrize("gamma", [0.1, 0.5, 0.9])
def test_m2_zero_order_column_matches_cartesian_quadrature(gamma):
    # near the origin, an interior node, near the cone, in the band, near the
    # cone at the rim
    nodes = np.array([(0.375, 0.125), (3.0, 1.0), (5.125, 4.875), (16.875, 1.875),
                      (12.625, 12.375)])
    z = zero_order_integral(fractional_kernel(gamma, 2), nodes[:, 0], nodes[:, 1], 18.0)
    ref = [_octant_dblquad(gamma, s, t, 18.0) for s, t in nodes]
    assert np.allclose(z, ref, rtol=1e-9, atol=0.0)


@pytest.mark.parametrize("gamma", [0.1, 0.5, 0.9])
def test_m2_zero_order_column_is_converged(gamma):
    g = build_grid(R=8.0, h=0.25, m=2)
    kernel = fractional_kernel(gamma, 2)
    z = zero_order_integral(kernel, g.s, g.t, g.R_out)
    ref = zero_order_integral(kernel, g.s, g.t, g.R_out, n_phi=320, n_rho=48)
    assert np.max(np.abs(z - ref) / ref) <= 1e-9


def _wedge_rays(kernel_at, s, t, R_out, tol):
    """Independent oracle: int K(|x - z|) dz over {|z_1| < |z_2|, |z| < R_out}
    in R^2, x = (s, t), along exact rays from x by adaptive quadrature.  On
    the ray at th, z_2^2 - z_1^2 has the roots rho = (s - t) / (sin - cos) and
    (s + t) / -(sin + cos) where positive; the ray is inside between them (or
    past the one root) and inside the disk, and rho integrates K(rho) rho
    split at 1, the kink of the counterexample.  th is split at the
    directions to the origin, to the rim points (+-R_out, +-R_out)/sqrt(2)
    and along the cone, where the limits change formula."""
    def radial(th):
        c, sn = math.cos(th), math.sin(th)
        roots = sorted(num / den for num, den in ((s - t, sn - c), (s + t, -(sn + c)))
                       if den > 0.0)
        pe = s * c + t * sn
        lo, hi = (roots + [math.inf, math.inf])[:2]
        hi = min(hi, math.sqrt(pe * pe + R_out ** 2 - s * s - t * t) - pe)
        if not lo < hi:
            return 0.0
        return integrate.quad(lambda r: kernel_at(r) * r, lo, hi, epsabs=0.0, epsrel=tol,
                              points=[1.0] if lo < 1.0 < hi else None, limit=200)[0]

    c = R_out / math.sqrt(2.0)
    brk = [math.atan2(-t, -s)] + [math.atan2(z2 - t, z1 - s) for z1 in (c, -c) for z2 in (c, -c)]
    th = brk[0] + np.sort(np.mod(np.array(brk + [k * math.pi / 4.0 for k in (1, 3, 5, 7)])
                                 - brk[0], 2.0 * math.pi))
    th = np.append(th, brk[0] + 2.0 * math.pi)
    return sum(integrate.quad(radial, a, b, epsabs=0.0, epsrel=tol, limit=200)[0]
               for a, b in zip(th[:-1], th[1:]))


def test_m1_counterexample_column_matches_exact_rays():
    # the polar column splits each ray's log(rho) rule at K's kink r = 1, the
    # circle rho = 1 around the reflected corner; one rule across it was
    # 4.5e-4, 2.4e-3 and 2.9e-3 off.  What is left at the corner node comes
    # from the kinks of the other images, which no split follows yet
    def kernel_at(r):
        return r ** -3.0 if r < 1.0 else 1.0 / (10.0 * r ** 3 - 9.0)

    nodes = np.array([(0.75, 0.25), (2.25, 1.75), (3.75, 3.25)])
    ref = np.array([_wedge_rays(kernel_at, s, t, 6.0, 1e-12) for s, t in nodes])
    assert ref == pytest.approx([3.649739231313846, 3.258531636452571, 3.195736152347398],
                                rel=1e-12)
    z = zero_order_integral(counterexample_kernel(0.5, 1), nodes[:, 0], nodes[:, 1], 6.0)
    assert np.all(np.abs(z - ref) / ref <= [3e-4, 5e-5, 5e-5])


def test_m1_power_zero_order_column_makes_no_j_call(small_grid, monkeypatch):
    def no_j(*args, **kwargs):
        raise AssertionError("j_values was called")

    monkeypatch.setattr(doubly_radial, "j_values", no_j)
    z = zero_order_integral(K1, small_grid.s, small_grid.t, small_grid.R_out)
    assert np.all(np.isfinite(z) & (z > 0.0))
    # the counterexample kernel keeps the polar J form
    with pytest.raises(AssertionError, match="j_values"):
        zero_order_integral(counterexample_kernel(0.5, 1), 3.0, 1.0, small_grid.R_out)


def test_exterior_tail_closed_form_at_origin():
    # int_{|y|>R} |y|^(-2-2 gamma) dy = pi R^(-2 gamma) / gamma in dimension 2
    for gamma, R in ((0.5, 50.0), (0.25, 20.0), (0.75, 35.0)):
        k = fractional_kernel(gamma, 1)
        val = float(exterior_tail_coefficient(k, 1e-9, 0.0, R))
        assert val == pytest.approx(math.pi * R ** (-2 * gamma) / gamma, rel=1e-9)


def _tail_closed_form(kernel, a, R_out):
    """Independent oracle: int_{|y| > R_out} c_norm |x - y|^(-2m-2 gamma) dy
    at |x| = a in R^(2m), c_norm |S^(2m-1)| R_out^(-2 gamma) / (2 gamma)
    2F1(m + gamma, gamma; m; a^2 / R_out^2)."""
    m, g = kernel.m, kernel.gamma
    return (kernel.c_norm * 2.0 * math.pi ** m / math.gamma(m)
            * R_out ** (-2.0 * g) / (2.0 * g) * hyp2f1(m + g, g, m, (a / R_out) ** 2))


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_exterior_tail_rays_match_the_closed_form(m):
    # m = 1 through the public function; m >= 2 still takes the sphere-slice
    # rule there, so its ray form is called directly
    R_out = 18.0
    a = R_out * np.concatenate([np.linspace(0.0, 0.99, 100), np.linspace(0.99, 0.999, 10)])
    phi = np.linspace(0.0, math.pi / 4.0, a.size)
    for gamma in (0.1, 0.25, 0.5, 0.75, 0.9):
        kernel = fractional_kernel(gamma, m, c_norm=1.7)
        if m == 1:
            got = exterior_tail_coefficient(kernel, a * np.cos(phi), a * np.sin(phi), R_out)
        else:
            got = doubly_radial._tail_rays(kernel, a, R_out)
        want = _tail_closed_form(kernel, a, R_out)
        assert np.max(np.abs(got / want - 1.0)) <= 1e-12, gamma


def test_exterior_tail_rays_take_the_envelope_of_every_family():
    # c_norm r^(-2m-2 gamma) whatever the kernel's own profile
    g = build_grid(R=4.0, h=0.5, m=1)
    table = tabulated_kernel(np.geomspace(0.1, 20.0, 9), np.geomspace(0.1, 20.0, 9) ** -2,
                             gamma=0.25, m=1, c_norm=3.0)
    for kernel in (counterexample_kernel(0.5, 1), table):
        got = exterior_tail_coefficient(kernel, g.s, g.t, g.R_out)
        assert np.allclose(got, _tail_closed_form(kernel, g.radius, g.R_out), rtol=1e-12, atol=0)


def test_m1_exterior_tail_keeps_its_values_inside_b_r():
    # the sphere-slice rule the m=1 tail used before is accurate well inside
    # R_out, so on the m1-fine grid the nodes of the solve do not move; the
    # band cells next to R_out, where that rule is up to 0.97 off, do
    g = build_grid(R=12.0, h=0.25, m=1)
    kernel = fractional_kernel(0.5, 1, c_norm=0.6)
    rays = exterior_tail_coefficient(kernel, g.s, g.t, g.R_out)
    slices = doubly_radial._tail_sphere_slices(kernel, g.radius, g.R_out)
    inside = g.inside(g.R)
    assert np.max(np.abs(rays[inside] / slices[inside] - 1.0)) <= 1e-14
    closed = _tail_closed_form(kernel, g.radius, g.R_out)
    assert np.max(np.abs(rays / closed - 1.0)) <= 1e-12
    assert np.max(np.abs(slices / closed - 1.0)) > 0.9


# --- block budget and scratch memory ----------------------------------------------

BUDGET_KERNELS = [(fractional_kernel(0.5, 1), RULE1), (counterexample_kernel(0.5, 1), RULE1),
                  (fractional_kernel(0.5, 2), RULE2), (counterexample_kernel(0.5, 2), RULE2),
                  (K3, gauss_jacobi_rule(8, 3))]


@pytest.mark.parametrize("kernel, rule", BUDGET_KERNELS,
                         ids=["m1-fractional", "m1-counterexample", "m2-closed", "m2-rule", "m3-rule"])
def test_j_values_do_not_depend_on_the_block_budget(kernel, rule, monkeypatch):
    rng = np.random.default_rng(17)
    s, t, sig, tau = rng.uniform(0.0, 5.0, (4, 1001))
    ref = j_values(kernel, s, t, sig, tau, rule)
    monkeypatch.setattr(doubly_radial, "_BLOCK_VALUES", 64)
    assert np.array_equal(j_values(kernel, s, t, sig, tau, rule), ref)


def test_exterior_tail_does_not_depend_on_the_block_budget(monkeypatch):
    g = build_grid(R=12.0, h=0.5, m=1)
    refs = [exterior_tail_coefficient(kernel, g.s, g.t, g.R_out) for kernel in (K1, K2)]
    monkeypatch.setattr(doubly_radial, "_BLOCK_VALUES", 64)
    for kernel, ref in zip((K1, K2), refs):
        assert np.array_equal(exterior_tail_coefficient(kernel, g.s, g.t, g.R_out), ref), kernel.m


@pytest.mark.parametrize("kernel", [K1, counterexample_kernel(0.5, 1), fractional_kernel(0.5, 2)],
                         ids=["rays", "polar-m1", "polar-m2"])
def test_zero_order_reference_does_not_depend_on_the_block_budget(kernel, monkeypatch):
    # the settings of the check-operator reference column
    g = build_grid(R=3.0, h=0.5, m=kernel.m)
    p = (g.s[::8], g.t[::8])
    kw = dict(rule=gauss_jacobi_rule(64, kernel.m), n_phi=320, n_rho=48)
    ref = zero_order_coefficient(kernel, p, g.R_out, **kw)
    monkeypatch.setattr(doubly_radial, "_BLOCK_VALUES", 64)
    assert np.array_equal(zero_order_coefficient(kernel, p, g.R_out, **kw), ref)


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("kernel, R", [(K1, 12.0), (counterexample_kernel(0.5, 1), 4.0)],
                         ids=["rays", "polar"])
def test_zero_order_scratch_does_not_grow_with_the_grid(kernel, R):
    # numpy reports its buffers to tracemalloc; the scratch is a few blocks
    # at any h once the coarse grid fills one, and only the O(n) input and
    # output arrays grow with n
    block = doubly_radial._BLOCK_VALUES * 8
    peaks = []
    for h in (0.5, 0.25):
        g = build_grid(R=R, h=h, m=1)
        peaks.append(_traced_peak(lambda: zero_order_integral(kernel, g.s, g.t, g.R_out)))
    assert abs(peaks[1] - peaks[0]) <= block
    assert max(peaks) <= 24 * block


def _breakpoints(S, T, R_out, cone):
    """Per node, the directions to the origin and to the four rim points
    (+-R_out, +-R_out)/sqrt(2), and the cone directions `cone`."""
    rim_z1 = R_out / math.sqrt(2.0) * np.array([1.0, -1.0, 1.0, -1.0])
    rim_z2 = R_out / math.sqrt(2.0) * np.array([1.0, 1.0, -1.0, -1.0])
    return np.concatenate([np.arctan2(-T, -S), np.arctan2(rim_z2 - T, rim_z1 - S),
                           np.broadcast_to(cone, (S.shape[0], cone.size))], axis=1)


def _full_circle_edges(S, T, R_out):
    """The panel edges of the full circle of directions, split at the
    breakpoints with all four cone directions: nine panels per node."""
    brk = _breakpoints(S, T, R_out, math.pi / 4.0 * np.array([1.0, 3.0, 5.0, 7.0]))
    rel = np.sort(np.mod(brk - brk[:, :1], 2.0 * math.pi), axis=1)
    return brk[:, :1] + np.concatenate([rel, np.full_like(S, 2.0 * math.pi)], axis=1)


def _live_arc_edges(S, T, R_out):
    """The panel edges of the live arc alone, from the direction to the rim
    point (R_out, R_out)/sqrt(2) to that to (R_out, -R_out)/sqrt(2), with the
    same splits inside it: six panels per node."""
    brk = _breakpoints(S, T, R_out, math.pi / 4.0 * np.array([3.0, 5.0]))
    return np.sort(np.mod(brk, 2.0 * math.pi), axis=1)


def _rays_out_of_place(kernel, s, t, R_out, order, edges=_full_circle_edges):
    """`doubly_radial._zero_order_rays` written with a fresh array per step,
    all blocks at once, over the panels `edges` gives: over the full circle
    the oracle of the live arc, and over the live arc the reference for the
    in-place form."""
    two_g = 2.0 * kernel.gamma
    gl, wgl = np.polynomial.legendre.leggauss(order)
    S, T = s[:, None], t[:, None]
    edges = edges(S, T, R_out)
    mid = 0.5 * (edges[:, 1:] + edges[:, :-1])
    half = 0.5 * (edges[:, 1:] - edges[:, :-1])
    th = (mid[:, :, None] + half[:, :, None] * gl).reshape(S.shape[0], -1)
    w = (half[:, :, None] * wgl).reshape(S.shape[0], -1)
    c, sn = np.cos(th), np.sin(th)
    with np.errstate(divide="ignore"):
        rho_a = np.where(sn > c, (S - T) / (sn - c), np.inf)
        rho_b = np.where(sn < -c, (S + T) / -(sn + c), np.inf)
    pe = S * c + T * sn
    rho_disk = np.sqrt(pe ** 2 + (R_out ** 2 - S ** 2 - T ** 2)) - pe
    rho_lo = np.minimum(rho_a, rho_b)
    rho_hi = np.minimum(np.maximum(rho_a, rho_b), rho_disk)
    ray = np.maximum(rho_lo ** -two_g - rho_hi ** -two_g, 0.0)
    return (ray * w).sum(axis=1) * (kernel.c_norm / two_g)


@pytest.mark.parametrize("gamma", [0.1, 0.5, 0.9])
@pytest.mark.parametrize("h", [0.5, 0.25])
def test_live_arc_rays_match_the_full_circle(h, gamma):
    # the rays that leave V = {z_1 > |z_2|} through its arc add exactly 0, so
    # the live arc's six panels sum what the full circle's nine do, to
    # rounding; the grid's nodes come within h of the rim and of t = 0, and
    # four points come within 1e-9 R_out of the rim or on the axis
    g = build_grid(R=12.0, h=h, m=1)
    assert (g.R_out - g.radius).min() < h and g.t.min() < h
    far = g.R_out * (1.0 - 1e-9)
    s = np.concatenate([g.s, [far, far * math.cos(0.7), 1e-3, 5.0]])
    t = np.concatenate([g.t, [0.0, far * math.sin(0.7), 0.0, 0.0]])
    kernel = fractional_kernel(gamma, 1)
    for order in (32, 64):
        got = doubly_radial._zero_order_rays(kernel, s, t, g.R_out, order)
        want = _rays_out_of_place(kernel, s, t, g.R_out, order)
        assert np.max(np.abs(got - want) / want) <= 4e-15


@pytest.mark.parametrize("gamma", [0.25, 0.5, 0.75])
@pytest.mark.parametrize("h", [0.5, 0.25])
def test_zero_order_rays_in_place_match_the_out_of_place_form(h, gamma):
    # the R=12 grids of the m1-pipeline (h = 0.5) and m1-fine (h = 0.25) benchmarks
    g = build_grid(R=12.0, h=h, m=1)
    kernel = fractional_kernel(gamma, 1)
    for order in (32, 64):  # the table's and the check-operator reference's
        got = doubly_radial._zero_order_rays(kernel, g.s, g.t, g.R_out, order)
        want = _rays_out_of_place(kernel, g.s, g.t, g.R_out, order, _live_arc_edges)
        assert got.tobytes() == want.tobytes()


def test_zero_order_rays_scratch_is_a_few_blocks():
    # the weights and four arrays updated in place per block, plus the next
    # block's first array and the masks; the out-of-place form held 13 blocks
    g = build_grid(R=12.0, h=0.5, m=1)
    peak = _traced_peak(lambda: zero_order_integral(K1, g.s, g.t, g.R_out))
    assert peak <= 8 * doubly_radial._BLOCK_VALUES * 8



@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("table, r_range", [
    ((1e-3, 1e3, 400, -3.0), (1e-4, 1e4)),  # radii past both ends of the table
    ((1e-3, 1e3, 400, -3.0), (1e-3, 4e-3)),  # most pairs nearer than the table's start
    ((0.03, 32.0, 200, 2.0), (1e-2, 1e2)),  # h(tau) = tau, narrower than the default draw
], ids=["r^-3-wide", "r^-3-near", "tau"])
def test_verify_inequality_reads_a_table_only_over_its_range(table, r_range, m):
    # every J distance lies between the nearer image of the pair and |x| + |y|:
    # radii are drawn from [r_first, r_last / 2] and near pairs re-drawn
    lo, hi, rows, power = table
    r = np.geomspace(lo, hi, rows)
    kern = tabulated_kernel(r, r ** power, gamma=0.5, m=m)
    rep = verify_kernel_inequality(kern, seed=0, n_samples=64 if m == 1 else 16,
                                   r_range=r_range)
    assert rep.violations == 0 and rep.n_unconverged == 0
    for sample in rep.worst_samples:
        (s, t), (sig, tau) = sample["x"], sample["y"]
        assert lo <= math.hypot(s, t) <= hi / 2 and lo <= math.hypot(sig, tau) <= hi / 2
        assert min(math.hypot(s - sig, t - tau), math.hypot(s - tau, t - sig)) >= lo


def test_verify_inequality_refuses_a_table_too_short_to_sample():
    r = np.array([1.0, 1.5])
    with pytest.raises(DomainError, match="r_last > 2 r_first"):
        verify_kernel_inequality(tabulated_kernel(r, r ** -3, gamma=0.5, m=1), seed=0,
                                 n_samples=4)


@pytest.mark.parametrize("call, match", [
    (lambda: gauss_jacobi_rule(1, 2), "order must be >= 2"),
    (lambda: exterior_tail_coefficient(K1, 3.0, 1.0, 3.0), r"\|x\| < R_out"),
    (lambda: exterior_tail_coefficient(K2, [1.0, 4.0], [0.5, 0.5], 4.0), r"\|x\| < R_out"),
], ids=["rule-order", "tail-m1", "tail-m2"])
def test_doubly_radial_input_checks(call, match):
    with pytest.raises(DomainError, match=match):
        call()


def test_appell_f2_puts_the_larger_argument_first():
    # F2 is symmetric in its (b1, c1, x) and (b2, c2, y) slots, and y > x is
    # summed with the slots swapped
    swapped = appell_f2(2.5, 1.0, 1.5, 2.0, 3.0, 0.1, 0.4)
    assert swapped == appell_f2(2.5, 1.5, 1.0, 3.0, 2.0, 0.4, 0.1)
