import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from nlsaddle.cli import RunConfig
from nlsaddle.errors import DomainError, PreconditionError
from nlsaddle.kernels import (RadialKernel, _midpoint_gaps, check_sqrt_convexity,
                              counterexample_kernel, ellipticity_margins,
                              eval_kernel, fractional_kernel, sqrt_profile, standard_c_norm,
                              tabulated_kernel)


# --- evaluation -----------------------------------------------------------

def test_midpoint_gaps_evaluate_h_once_per_point():
    # h at the n grid points and once at each of the n(n-1)/2 midpoints, and
    # the gaps of the definition over the upper triangle, bit for bit
    tau = np.geomspace(1e-2, 1e2, 40)
    sizes = []

    def h(x):
        sizes.append(np.size(x))
        return x ** -0.75

    iu, rel = _midpoint_gaps(h, tau)
    n = tau.size
    assert sum(sizes) == n + n * (n - 1) // 2
    mid = 0.5 * (tau[:, None] + tau[None, :])
    want = (tau[:, None] ** -0.75 + tau[None, :] ** -0.75 - 2.0 * mid ** -0.75) / mid ** -0.75
    assert np.array_equal(rel, want[iu])


def test_fractional_power_law():
    k = fractional_kernel(0.5, 1)
    assert eval_kernel(k, 3.0) == pytest.approx(1.0 / 27.0, rel=1e-14)


def test_counterexample_value_at_breakpoint():
    k = counterexample_kernel(0.5, 1)
    assert eval_kernel(k, 1.0) == pytest.approx(1.0, rel=1e-14)
    # continuous across r = 1
    assert eval_kernel(k, 1.0 - 1e-9) == pytest.approx(eval_kernel(k, 1.0 + 1e-9), rel=1e-6)


def test_unit_radius_returns_c_norm():
    k = fractional_kernel(0.3, 2, c_norm=3.7)
    assert eval_kernel(k, 1.0) == pytest.approx(3.7)


def test_nonpositive_radius_rejected():
    k = fractional_kernel(0.5, 1)
    with pytest.raises(DomainError):
        eval_kernel(k, 0.0)
    with pytest.raises(DomainError):
        eval_kernel(k, np.array([1.0, -2.0]))


def test_bad_parameters_rejected():
    with pytest.raises(DomainError):
        RadialKernel("fractional", 1.2, 1)
    with pytest.raises(DomainError):
        RadialKernel("fractional", 0.5, 0)
    with pytest.raises(DomainError):
        RadialKernel("mystery", 0.5, 1)


def test_ellipticity_margins():
    lo, hi = ellipticity_margins(fractional_kernel(0.5, 1), np.geomspace(0.01, 100, 100))
    assert lo == pytest.approx(1.0) and hi == pytest.approx(1.0)
    lo, hi = ellipticity_margins(counterexample_kernel(0.5, 1), np.geomspace(0.01, 100, 400))
    assert 0.1 <= lo <= hi <= 1.0 + 1e-12


def test_tabulated_interpolation_and_refusal():
    r = np.geomspace(0.1, 10, 40)
    k = tabulated_kernel(r, r ** -3.0, gamma=0.5, m=1)
    # log-log linear interpolation is exact on a power law
    assert eval_kernel(k, 0.37) == pytest.approx(0.37 ** -3.0, rel=1e-12)
    with pytest.raises(DomainError):
        eval_kernel(k, 20.0)
    with pytest.raises(DomainError):
        eval_kernel(k, 0.05)


def test_tabulated_kernels_compare_and_hash_by_value():
    r = np.geomspace(1e-2, 1e2, 33)
    k = r ** -3.0
    a = tabulated_kernel(r, k, gamma=0.5, m=1)
    b = tabulated_kernel(r.copy(), k.copy(), gamma=0.5, m=1)
    assert a == b and hash(a) == hash(b)
    assert {a: "table"}[b] == "table"
    k[16] = np.nextafter(k[16], np.inf)
    assert tabulated_kernel(r, k, gamma=0.5, m=1) != a


def test_standard_c_norm_half():
    # closed form 1/(2 pi) in dimension 2 at gamma = 1/2
    assert standard_c_norm(0.5, 1) == pytest.approx(1.0 / (2.0 * math.pi), rel=1e-12)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
@pytest.mark.parametrize("gamma", [0.25, 0.5, 0.75])
def test_standard_c_norm_matches_scipy_gammaln(gamma, m):
    from scipy.special import gammaln
    want = 4.0 ** gamma * gamma * np.exp(gammaln(m + gamma) - gammaln(1.0 - gamma)) / np.pi ** m
    assert standard_c_norm(gamma, m) == pytest.approx(want, rel=2e-15, abs=0.0)


@pytest.mark.parametrize("gamma, m", [(1.0, 1), (2.0, 1), (0.5, 200)])
def test_standard_c_norm_refuses_a_pole_or_an_overflow(gamma, m):
    # Gamma(1 - gamma) is infinite at gamma = 1, 2, and Gamma(m + gamma) overflows
    # at m = 200: a DomainError, not math's ValueError or OverflowError
    with pytest.raises(DomainError):
        standard_c_norm(gamma, m)


@pytest.mark.parametrize("params", [
    dict(c_norm=math.nan), dict(c_norm=math.inf)])
def test_non_finite_kernel_parameters_are_refused(params):
    with pytest.raises(DomainError):
        RadialKernel("fractional", 0.5, 1, **params)


@pytest.mark.parametrize("r, k", [
    ([0.1, 1.0, 10.0], [1e3, math.nan, 1e-3]), ([0.1, 1.0, 10.0], [math.inf, 1.0, 1e-3]),
    ([0.1, 1.0, math.inf], [1e3, 1.0, 1e-3]), ([math.nan, 1.0, 10.0], [1e3, 1.0, 1e-3])])
def test_non_finite_table_samples_are_refused(r, k):
    with pytest.raises(DomainError):
        tabulated_kernel(r, k, 0.5, 1)


def test_non_finite_midpoint_gap_fails_the_convexity_check():
    # c_norm tau^(-3/2) overflows near tau = 1e-3, where the gaps are inf - inf
    with np.errstate(over="ignore", invalid="ignore"):
        rep = check_sqrt_convexity(fractional_kernel(0.5, 1, c_norm=1e305))
    assert rep.verdict == "fails" and rep.n_fail > 0


# --- sqrt-convexity -------------------------------------------------------

def test_fractional_midpoint_gap_value():
    # oracle: h(tau) = tau^(-m-gamma); gap at (1, 3) around midpoint 2
    k = fractional_kernel(0.5, 1)
    gap = 1.0 + 3.0 ** -1.5 - 2.0 * 2.0 ** -1.5
    assert gap == pytest.approx(0.4853433, abs=1e-6)
    rep = check_sqrt_convexity(k, np.array([1.0, 2.0, 3.0]))
    assert rep.verdict == "strictly-convex"


@pytest.mark.parametrize("gamma", [0.1, 0.25, 0.5, 0.75, 0.9])
@pytest.mark.parametrize("m", [1, 2])
def test_fractional_strictly_convex(gamma, m):
    rep = check_sqrt_convexity(fractional_kernel(gamma, m))
    assert rep.verdict == "strictly-convex"
    assert not rep.concavity_interval


def test_counterexample_fails_with_straddling_witness():
    # oracle around the breakpoint: h(0.81) + h(1.21) < 2 h(1.01)
    h081 = 0.81 ** -1.5
    h121 = 1.0 / (10.0 * 1.21 ** 1.5 - 9.0)
    h101 = 1.0 / (10.0 * 1.01 ** 1.5 - 9.0)
    assert h081 == pytest.approx(1.37174, abs=1e-5)
    assert h121 == pytest.approx(0.23202, abs=1e-5)
    assert h081 + h121 - 2 * h101 < -0.1

    rep = check_sqrt_convexity(counterexample_kernel(0.5, 1))
    assert rep.verdict == "fails"
    assert any(t1 < 1.0 < t2 for (t1, t2, _) in rep.witnesses)
    # no interval of concavity is certified, only the kink at tau = 1
    assert not rep.concavity_interval


def test_affine_tabulated_is_convex_nonstrict():
    r = np.geomspace(0.03, 32, 60)
    k = tabulated_kernel(r, r ** 2, gamma=0.5, m=1)  # h(tau) = tau
    rep = check_sqrt_convexity(k, np.geomspace(1e-3, 1e3, 64))
    assert rep.verdict == "convex-nonstrict"
    assert rep.n_fail == 0


def test_concave_interval_is_certified():
    # h(tau) = 1/(1 + tau^2) is concave on (0, 1/sqrt(3)): the detector fires
    r = np.geomspace(1e-4, 1e3, 4000)
    k = tabulated_kernel(r, 1.0 / (1.0 + r ** 4), gamma=0.5, m=1)
    rep = check_sqrt_convexity(k, np.geomspace(1e-3, 0.9, 256))
    assert rep.verdict == "fails"
    assert rep.concavity_interval


def test_grid_validation():
    k = fractional_kernel(0.5, 1)
    with pytest.raises(DomainError):
        check_sqrt_convexity(k, np.array([1.0, 2.0]))
    with pytest.raises(DomainError):
        check_sqrt_convexity(k, np.array([-1.0, 1.0, 2.0]))


# --- quadruple coefficients -----------------------------------------------
#
# The paper's positivity proof compares K(sqrt(.)) at the four bilinear
# combinations A, B, C, D of two orbit points and a rotation pair.  The lemma
# is a statement about real numbers, so the coefficients are exact Fractions.

def abcd_coefficients(alpha: float, beta: float,
                      sx: float, tx: float, sy: float, ty: float):
    """The four bilinear combinations of two orbit points and a rotation pair.

    A = sx*sy*alpha + tx*ty*beta      B = sx*ty*alpha + tx*sy*beta
    C = tx*sy*alpha + sx*ty*beta      D = tx*ty*alpha + sx*sy*beta

    Preconditions: alpha >= |beta|, and both points strictly on the outer
    side of the cone (sx > tx >= 0, sy > ty >= 0).
    """
    if alpha < abs(beta):
        raise PreconditionError(f"need alpha >= |beta|, got {alpha}, {beta}")
    if not (sx > tx >= 0.0 and sy > ty >= 0.0):
        raise PreconditionError("points must satisfy s > t >= 0")
    a, b, sx, tx, sy, ty = map(Fraction, (alpha, beta, sx, tx, sy, ty))
    return (sx * sy * a + tx * ty * b, sx * ty * a + tx * sy * b,
            tx * sy * a + sx * ty * b, tx * ty * a + sx * sy * b)


@dataclass(frozen=True)
class AbcdReport:
    dominance: bool
    sum_inequality: bool


def abcd_inequalities(A, B, C, D) -> AbcdReport:
    """Check |A| >= |B|,|C|,|D| and |A|+|D| >= |B|+|C| (pure arithmetic)."""
    a, b, c, d = abs(A), abs(B), abs(C), abs(D)
    return AbcdReport(dominance=bool(a >= b and a >= c and a >= d),
                      sum_inequality=bool(a + d >= b + c))


def convex_quad_oracle(h: Callable, A: float, B: float, C: float, D: float,
                       rel_slack: float = 1e-12) -> bool:
    """Truth of h(A) + h(D) >= h(B) + h(C) under the quadruple hypotheses.

    Preconditions (part of the contract): A = max{A,B,C,D} and A+D >= B+C;
    h nondecreasing on the sampled range.  Ties are resolved with a small
    relative slack so that exact equality cases (affine h with A+D = B+C)
    do not flip on rounding.
    """
    if not (A >= B and A >= C and A >= D):
        raise PreconditionError("A must be the maximum of the quadruple")
    if A + D < B + C:
        raise PreconditionError("need A + D >= B + C")
    lhs = h(A) + h(D)
    rhs = h(B) + h(C)
    scale = max(abs(lhs), abs(rhs), 1.0)
    return bool(lhs >= rhs - rel_slack * scale)


def test_abcd_example():
    assert abcd_coefficients(1.0, -1.0, 2.0, 1.0, 3.0, 1.0) == (5.0, -1.0, 1.0, -5.0)


def test_abcd_degenerate_t():
    assert abcd_coefficients(1.0, 0.0, 2.0, 0.0, 3.0, 0.0) == (6.0, 0.0, 0.0, 0.0)


def test_abcd_zero():
    assert abcd_coefficients(0.0, 0.0, 1.0, 0.0, 1.0, 0.0) == (0.0, 0.0, 0.0, 0.0)


def test_abcd_preconditions():
    with pytest.raises(PreconditionError):
        abcd_coefficients(0.5, -1.0, 2.0, 1.0, 3.0, 1.0)
    with pytest.raises(PreconditionError):
        abcd_coefficients(1.0, 0.0, 1.0, 1.0, 3.0, 1.0)


def test_abcd_inequalities_examples():
    assert abcd_inequalities(5, -1, 1, -5) == AbcdReport(True, True)
    assert abcd_inequalities(6, 0, 0, 0) == AbcdReport(True, True)
    # adversarial input outside the lemma's hypotheses
    assert abcd_inequalities(1, 2, 0, 0).dominance is False


_orbit = st.tuples(st.floats(0.0, 50.0), st.floats(0.001, 50.0)).map(
    lambda p: (p[0] + p[1], p[0]))  # (s, t) with s > t >= 0


@given(alpha=st.floats(0.0, 10.0), frac=st.floats(-1.0, 1.0), x=_orbit, y=_orbit)
# three inputs on which coefficients rounded to floats broke the lemma:
# beta within an ulp of alpha: D computed apart from A came out above it
@example(alpha=0.954734195359064, frac=0.9999999999999999,
         x=(22.125, 4.625), y=(6.107421875, 4.607421875))
# beta = -alpha: D = A - (sx sy - tx ty)(alpha - beta) comes out below -A
@example(alpha=3.8142298266722072, frac=-1.0, x=(1.5, 1.0), y=(1.5, 1.0))
# subnormal alpha: A, B, C, D rounded to nearest break |A| + |D| >= |B| + |C|
@example(alpha=5e-324, frac=0.0, x=(3.0203922348622574, 2.5203922348622574),
         y=(3.0203922348622574, 2.5203922348622574))
@settings(max_examples=300, deadline=None)
def test_abcd_inequalities_hold_under_preconditions(alpha, frac, x, y):
    beta = frac * alpha
    A, B, C, D = abcd_coefficients(alpha, beta, x[0], x[1], y[0], y[1])
    rep = abcd_inequalities(A, B, C, D)
    assert rep.dominance and rep.sum_inequality


@given(alpha=st.floats(1e-6, 10.0), frac=st.floats(-1.0, 1.0), x=_orbit, y=_orbit)
@settings(max_examples=300, deadline=None)
def test_abcd_set_equality_forces_zero(alpha, frac, x, y):
    # contrapositive of the equality case: alpha != 0 implies the sets differ
    beta = frac * alpha
    A, B, C, D = abcd_coefficients(alpha, beta, x[0], x[1], y[0], y[1])
    lhs = sorted([abs(A), abs(D)])
    rhs = sorted([abs(B), abs(C)])
    scale = max(lhs[1], 1e-30)
    sets_equal = (abs(lhs[0] - rhs[0]) <= 1e-12 * scale
                  and abs(lhs[1] - rhs[1]) <= 1e-12 * scale)
    assert not sets_equal


def test_abcd_set_equality_at_zero():
    A, B, C, D = abcd_coefficients(0.0, 0.0, 2.0, 1.0, 3.0, 1.0)
    assert sorted([abs(A), abs(D)]) == sorted([abs(B), abs(C)])


# --- convex quadruple oracle ----------------------------------------------

def test_quad_oracle_examples():
    sq = lambda x: x * x
    assert convex_quad_oracle(sq, 4, 3, 3, 2) is True
    assert convex_quad_oracle(sq, 4, 3, 3, 4) is True
    ident = lambda x: x
    assert convex_quad_oracle(ident, 4, 3.5, 2.5, 2) is True  # equality case


def test_quad_oracle_preconditions():
    with pytest.raises(PreconditionError):
        convex_quad_oracle(lambda x: x, 1, 2, 0, 0)
    with pytest.raises(PreconditionError):
        convex_quad_oracle(lambda x: x, 4, 3, 3, 1)


def _admissible_quadruple(vals):
    a, b, c, d = sorted(vals, reverse=True)
    return a, c, d, b  # A + D = a + b >= c + d = B + C


_hfuncs = [lambda x: x * x, np.exp, lambda x: x ** 4,
           lambda x: 0.3 * x * x + 1.7 * np.exp(x),
           lambda x: 2.0 * x ** 4 + 0.1 * x * x]


@given(vals=st.tuples(*(st.floats(0.01, 8.0) for _ in range(4))),
       hidx=st.integers(0, len(_hfuncs) - 1))
@settings(max_examples=400, deadline=None)
def test_quad_oracle_holds_for_convex_nondecreasing(vals, hidx):
    A, B, C, D = _admissible_quadruple(vals)
    assert convex_quad_oracle(_hfuncs[hidx], A, B, C, D)


def test_default_convexity_grid_reads_a_table_only_over_its_range():
    # tau = r^2 in [1e-3, 1e3], cut to the table's [0.01, 1e4]: the r^-3 table
    # on [0.1, 100] used to be refused as extrapolation below tau = 0.01
    r = np.geomspace(0.1, 100.0, 400)
    kern = tabulated_kernel(r, r ** -3.0, 0.5, 1)
    assert kern.window(1e-3, 1e3, squared=True) == pytest.approx((0.01, 1e3), rel=1e-15)
    assert check_sqrt_convexity(kern).verdict == "strictly-convex"
    # any other kernel is read at every r > 0: its window is the one asked for
    assert fractional_kernel(0.5, 1).window(1e-3, 1e3, squared=True) == (1e-3, 1e3)


# --- config loading --------------------------------------------------------

def test_kernel_section_roundtrip(tmp_path):
    k = RunConfig(kernel={"family": "fractional", "gamma": "0.25", "m": "2",
                          "c_norm": "1.5"}).make_kernel()
    assert k == RadialKernel("fractional", 0.25, 2, 1.5)

    table_path = tmp_path / "kern.csv"
    r = np.geomspace(0.1, 10, 20)
    with open(table_path, "w") as fh:
        fh.write("r,K\n")
        for rv in r:
            fh.write(f"{rv},{rv ** -3.0}\n")
    k2 = RunConfig(kernel={"family": "tabulated", "gamma": "0.5", "m": "1",
                           "table": str(table_path)}).make_kernel()
    assert eval_kernel(k2, 1.0) == pytest.approx(1.0, rel=1e-9)


@pytest.mark.parametrize("call, match", [
    (lambda: RadialKernel("tabulated", 0.5, 1), "requires a table"),
    (lambda: tabulated_kernel([1.0], [1.0], 0.5, 1), "matching 1-D"),
    (lambda: tabulated_kernel([1.0, 2.0], [1.0, 0.5, 0.2], 0.5, 1), "matching 1-D"),
    (lambda: tabulated_kernel([2.0, 1.0], [1.0, 0.5], 0.5, 1), "strictly increasing"),
    (lambda: sqrt_profile(fractional_kernel(0.5, 1), [1.0, 0.0]), "positive"),
    (lambda: check_sqrt_convexity(fractional_kernel(0.5, 1), [1.0, 3.0, 2.0]),
     "strictly increasing"),
    (lambda: RunConfig(kernel={"family": "tabulated"}).make_kernel(), "requires a table"),
    (lambda: RadialKernel("fractional", 0.5, 1, table=((1.0, 2.0), (1.0, 0.5))),
     "no other kernel takes one"),
    (lambda: tabulated_kernel([1.0, 2.0], [1.0, 0.5], 0.5, 1).window(3.0, 4.0),
     "read only over"),
], ids=["no-table", "one-row", "ragged", "radii-order", "tau-zero", "tau-order",
        "config-no-table", "table-of-another-family", "window-past-the-table"])
def test_kernel_input_checks(call, match):
    with pytest.raises(DomainError, match=match):
        call()
