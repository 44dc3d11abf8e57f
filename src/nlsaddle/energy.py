"""Discrete odd-sector energy on a triangle grid of orbit cells.

The energy of a profile w supported in B_R, written only through its values
on the outer octant {0 <= t < s}, is

    E(w, B_S) = (1/4) { I(in, in) + 2 I(in, outer \\ B_S) } + 2 sum_in G(w) mu

with the interaction

    I(A, B) = 2 sum |w_i - w_j|^2 (kbar_ij - kbar*_ij) mu_i mu_j
            + 4 sum (w_i^2 + w_j^2) kbar*_ij mu_i mu_j,

kbar*_ij = kbar(x_i, x_j^star).  Cells are midpoint squares in (s, t), and
`total_energy` adds two corrections to the I sums.  2 sum_in w^2 mu (Z - P mu)
swaps the midpoint zero-order mass (P mu)_i of a node for Z_i: the polar
integral around the reflected corner that defines `zero_order_coefficient`
(`doubly_radial.zero_order_integral`) inside R_out, plus the analytic
power-law tail beyond it.  (1/2) w^T C w, C from `self_cell_matrix`,
reinstates the self-cell part of the quadratic term (the only sub-h pairs
on the lattice), ~ |grad w|^2 h^(2-2 gamma) per node with constants
integrated exactly.  At S = R this one form is E = mu . (u o L u) + 2 mu . G(u),

    L u = (D mu + 2 Z) u - D (mu u) + C u / (2 mu),

so grad E = 2 mu (L u - f(u)): `EnergyModel` evaluates L on the nodes in
B_R and `discrete_operator.assemble` over every node.
"""

from __future__ import annotations

import csv
import math
from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np
import scipy.sparse as sp

from .errors import DomainError, PreconditionError, TableError
from .kernels import RadialKernel, check_sqrt_convexity
from .doubly_radial import (QuadratureRule, exterior_tail_coefficient,
                            gauss_jacobi_rule, j_values, omega_sphere,
                            zero_order_integral)

_ROW_CHUNK = 512
# polar angles and radial nodes of the self-cell quadrature
_SELF_CELL_N_THETA = 16
_SELF_CELL_N_RAD = 12


@dataclass(frozen=True)
class Grid:
    """Cell-centered triangle grid on {0 <= t < s, s^2 + t^2 <= R_out^2}.

    Node k sits at ((i_k + 1/2) h, (j_k + 1/2) h) with j_k < i_k and carries
    the orbit-cell volume weight omega^2 s^(m-1) t^(m-1) h^2.  Nodes are
    sorted by (i, j), i first, which `locate` relies on.  Profiles on the
    grid vanish outside B_R; the band R < |x| <= R_out only mediates
    interactions.
    """

    R: float
    h: float
    m: int
    R_out: float
    s: np.ndarray
    t: np.ndarray
    ii: np.ndarray
    jj: np.ndarray
    weights: np.ndarray

    @property
    def n_nodes(self) -> int:
        return self.s.size

    @property
    def radius(self) -> np.ndarray:
        return np.hypot(self.s, self.t)

    @property
    def cone_dist(self) -> np.ndarray:
        return (self.s - self.t) / math.sqrt(2.0)

    def inside(self, S: float) -> np.ndarray:
        return self.radius <= S * (1.0 + 1e-12)

    def node_index(self) -> dict:
        return {(int(i), int(j)): k for k, (i, j) in enumerate(zip(self.ii, self.jj))}

    def locate(self, i, j) -> np.ndarray:
        """Node index of each lattice cell (i, j), broadcast, or -1 where the
        grid has none: a binary search on the key i K + j (K > every j),
        which the (i, j) node order sorts."""
        i, j = np.broadcast_arrays(np.asarray(i, np.int64), np.asarray(j, np.int64))
        K = int(self.ii[-1]) + 1
        keys = self.ii * K + self.jj
        want = i * K + j
        k = np.minimum(np.searchsorted(keys, want), keys.size - 1)
        return np.where((j >= 0) & (j < K) & (keys[k] == want), k, -1)


def build_grid(R: float, h: float, m: int, R_out: float | None = None) -> Grid:
    """Lay out the triangle grid; R_out defaults to 1.5 R."""
    if R_out is None:
        R_out = 1.5 * R
    if not (0.0 < h < R < R_out):
        raise DomainError(f"need 0 < h < R < R_out, got h={h}, R={R}, R_out={R_out}")
    if int(m) != m or m < 1:
        raise DomainError("m must be an integer >= 1")
    n_max = int(math.ceil(R_out / h)) + 1
    i, j = np.meshgrid(np.arange(n_max), np.arange(n_max), indexing="ij")
    i = i.ravel()
    j = j.ravel()
    s = (i + 0.5) * h
    t = (j + 0.5) * h
    keep = (j < i) & (s ** 2 + t ** 2 <= R_out ** 2)
    i, j, s, t = i[keep], j[keep], s[keep], t[keep]
    order = np.lexsort((j, i))
    i, j, s, t = i[order], j[order], s[order], t[order]
    w = omega_sphere(m) ** 2 * s ** (m - 1) * t ** (m - 1) * h ** 2
    return Grid(R=float(R), h=float(h), m=int(m), R_out=float(R_out),
                s=s, t=t, ii=i, jj=j, weights=w)


@dataclass(frozen=True)
class OddProfile:
    """Values of the odd profile on the outer-octant nodes.

    The stored values define the full function through w(t,s) = -w(s,t),
    w = 0 on the cone, and w = 0 outside B_R (enforced at construction).
    """

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.grid.n_nodes,):
            raise DomainError("profile shape does not match the grid")
        if not np.all(np.isfinite(v)):
            raise DomainError("profile values must be finite")
        v = np.where(self.grid.inside(self.grid.R), v, 0.0)
        object.__setattr__(self, "values", v)

    def with_values(self, values: np.ndarray) -> "OddProfile":
        return OddProfile(self.grid, values)


def zero_profile(grid: Grid) -> OddProfile:
    return OddProfile(grid, np.zeros(grid.n_nodes))


def truncate_profile(profile: OddProfile) -> OddProfile:
    """Sign rearrangement then cap at 1: values become min(1, |w|).

    Both maps are energy-decreasing whenever the kernel table's difference
    entries are nonnegative.
    """
    return profile.with_values(np.minimum(1.0, np.abs(profile.values)))


def save_profile(profile: OddProfile, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["s", "t", "u"])
        for s, t, u in zip(profile.grid.s, profile.grid.t, profile.values):
            writer.writerow([repr(float(s)), repr(float(t)), repr(float(u))])


def load_profile(path, grid: Grid) -> OddProfile:
    """Read a `save_profile` file; rows may come in any order, but each must
    sit on its own node of the grid."""
    with open(path, newline="") as fh:
        if [c.strip() for c in fh.readline().split(",")] != ["s", "t", "u"]:
            raise DomainError(f"profile file {path} must have header s,t,u")
        try:
            rows = np.loadtxt(fh, delimiter=",", ndmin=2)
        except ValueError as exc:
            raise DomainError(f"profile file {path}: {exc}") from None
    if rows.shape != (grid.n_nodes, 3):
        raise DomainError("profile file needs one s,t,u row per grid node")
    # NaN and far-off coordinates become cells the grid lacks
    cells = np.nan_to_num(rows[:, :2] / grid.h - 0.5, nan=-1.0).clip(-1, grid.ii[-1] + 1)
    k = grid.locate(*np.rint(cells).astype(np.int64).T)
    if ((k < 0).any() or np.unique(k).size != k.size
            or not (np.allclose(rows[:, 0], grid.s[k], atol=1e-9 * grid.h)
                    and np.allclose(rows[:, 1], grid.t[k], atol=1e-9 * grid.h))):
        raise DomainError("profile node coordinates do not match the grid")
    values = np.empty(grid.n_nodes)
    values[k] = rows[:, 2]
    return OddProfile(grid, values)


@dataclass(frozen=True)
class Potential:
    """Double-well data: G with f = -G'."""

    G: Callable
    f: Callable
    name: str = "custom"


def allen_cahn() -> Potential:
    return Potential(G=lambda u: 0.25 * (1.0 - np.asarray(u) ** 2) ** 2,
                     f=lambda u: np.asarray(u) - np.asarray(u) ** 3,
                     name="allen-cahn")


def zero_potential() -> Potential:
    return Potential(G=lambda u: np.zeros_like(np.asarray(u, dtype=float)),
                     f=lambda u: np.zeros_like(np.asarray(u, dtype=float)),
                     name="zero")


@dataclass
class EnergyBreakdown:
    kinetic_in_in: float
    kinetic_in_out: float
    potential: float
    S: float
    h: float
    R: float

    @property
    def total(self) -> float:
        return self.kinetic_in_in + self.kinetic_in_out + self.potential

    def as_dict(self) -> dict:
        return {**asdict(self), "total": self.total}


# ---------------------------------------------------------------------------
# Kernel table
# ---------------------------------------------------------------------------

@dataclass
class KernelTable:
    """Pairwise averaged-kernel data over all grid node pairs.

    D[i,j]   kbar(x_i, x_j) - kbar(x_i, x_j*)   (0 on the diagonal)
    P[i,j]   kbar(x_i, x_j*)                     (finite for all pairs)
    zcol[i]  int kbar(x_i, y*) dy over the outer octant truncated at
             R_out, integrated in polar coordinates around the singular
             reflected corner (t_i, s_i) by `zero_order_integral`, the
             integrator of `zero_order_coefficient`
    ztail[i] analytic zero-order tail, (1/2) int_{|y|>R_out} K_env(|x_i-y|) dy
    cs, ct   self-cell correction coefficients: the omitted quadratic-term
             mass is cs_i (dw_s)^2 + ct_i (dw_t)^2 with one-sided dw
    es, et   one-sided neighbor node index per axis (-1 when absent)
    """

    grid: Grid
    kernel: RadialKernel
    rule: QuadratureRule
    D: np.ndarray
    P: np.ndarray
    zcol: np.ndarray
    ztail: np.ndarray
    cs: np.ndarray
    ct: np.ndarray
    es: np.ndarray
    et: np.ndarray

    @property
    def zero_order(self) -> np.ndarray:
        """Per-node zero-order coefficient including the exterior tail."""
        return self.zcol + self.ztail


def _self_cell_coefficients(grid: Grid, kernel: RadialKernel, rule: QuadratureRule):
    """Exact constants of the omitted self-cell quadratic mass.

    cs_i, ct_i with  (1/2) mu_i int_cell (dw . z)^2 D(x, x+z) d(orbit measure)
    ~= cs_i (dw_s)^2 + ct_i (dw_t)^2, integrated in polar coordinates over
    the square cell (integrand ~ |z|^(1 - 2 gamma + 2(m-1)), integrable).
    """
    h = grid.h
    m = grid.m
    n_theta = _SELF_CELL_N_THETA
    theta = (np.arange(n_theta) + 0.5) * (2.0 * math.pi / n_theta)
    rmax = 0.5 * h / np.maximum(np.abs(np.cos(theta)), np.abs(np.sin(theta)))
    gx, gw = np.polynomial.legendre.leggauss(_SELF_CELL_N_RAD)
    r01 = 0.5 * (gx + 1.0)
    w01 = 0.5 * gw
    rr = rmax[:, None] * r01[None, :]              # (n_theta, n_rad)
    wr = rmax[:, None] * w01[None, :]
    zs = rr * np.cos(theta)[:, None]
    zt = rr * np.sin(theta)[:, None]
    cs = np.zeros(grid.n_nodes)
    ct = np.zeros(grid.n_nodes)
    for lo in range(0, grid.n_nodes, _ROW_CHUNK):
        hi = min(grid.n_nodes, lo + _ROW_CHUNK)
        S = grid.s[lo:hi][:, None, None]
        T = grid.t[lo:hi][:, None, None]
        aa = S + zs[None, :, :]
        bb = T + zt[None, :, :]
        ok = (aa > 0.0) & (bb >= 0.0) & (aa > bb)
        aa_safe = np.where(ok, aa, S)
        bb_safe = np.where(ok, bb, 0.0)
        with np.errstate(invalid="ignore"):
            direct = j_values(kernel, S, T, aa_safe, bb_safe, rule)
            swapped = j_values(kernel, S, T, bb_safe, aa_safe, rule)
        dens = np.where(ok, direct - swapped, 0.0)
        if m > 1:
            dens = dens * aa_safe ** (m - 1) * bb_safe ** (m - 1)
        meas = (rr * wr)[None, :, :] * (2.0 * math.pi / n_theta)
        cs[lo:hi] = (dens * zs[None] ** 2 * meas).sum(axis=(1, 2))
        ct[lo:hi] = (dens * zt[None] ** 2 * meas).sum(axis=(1, 2))
    scale = 0.5 * grid.weights / h ** 2
    return np.maximum(cs, 0.0) * scale, np.maximum(ct, 0.0) * scale


def _one_sided_neighbors(grid: Grid):
    """Per node, a neighbor strictly inside the octant per axis (-1 if none)."""
    i, j = grid.ii, grid.jj
    up, down = grid.locate(i + 1, j), grid.locate(i - 1, j)
    es = np.where(up >= 0, up, down)
    up, down = grid.locate(i, j + 1), grid.locate(i, j - 1)
    et = np.where(up >= 0, up, down)
    return es, et


def build_kernel_table(grid: Grid, kernel: RadialKernel,
                       rule: QuadratureRule | None = None,
                       assume_positive: bool = False,
                       mem_cap_gb: float = 6.0) -> KernelTable:
    """Cache kbar, kbar-star and their difference over all node pairs.

    Refuses kernels that fail the sqrt-convexity check unless
    assume_positive=True, and refuses grids whose dense pair tables would
    exceed mem_cap_gb (use a larger h).
    """
    n = grid.n_nodes
    need_gb = 2.0 * n * n * 8.0 / 2 ** 30
    if need_gb > mem_cap_gb:
        raise TableError(
            f"pair tables need {need_gb:.1f} GiB > cap {mem_cap_gb} GiB; increase h")
    if not assume_positive:
        tau_hi = min(4.0 * grid.R_out ** 2, 1e3)
        report = check_sqrt_convexity(kernel, np.geomspace(1e-3, tau_hi, 256))
        if report.verdict == "fails":
            raise PreconditionError(
                "kernel failed the sqrt-convexity check; pass assume_positive=True "
                "to build the table anyway")
    if rule is None:
        rule = gauss_jacobi_rule(32, kernel.m)

    om2 = omega_sphere(grid.m) ** 2
    D = np.empty((n, n))
    P = np.empty((n, n))
    for lo in range(0, n, _ROW_CHUNK):
        hi = min(n, lo + _ROW_CHUNK)
        S = grid.s[lo:hi][:, None]
        T = grid.t[lo:hi][:, None]
        direct = j_values(kernel, S, T, grid.s[None, :], grid.t[None, :], rule)
        swapped = j_values(kernel, S, T, grid.t[None, :], grid.s[None, :], rule)
        P[lo:hi] = swapped / om2
        diag = np.arange(lo, hi)
        direct[diag - lo, diag] = swapped[diag - lo, diag]  # zero difference on the diagonal
        D[lo:hi] = (direct - swapped) / om2

    zcol = zero_order_integral(kernel, grid.s, grid.t, grid.R_out, rule)
    ztail = 0.5 * exterior_tail_coefficient(kernel, grid.s, grid.t, grid.R_out)
    cs, ct = _self_cell_coefficients(grid, kernel, rule)
    es, et = _one_sided_neighbors(grid)
    return KernelTable(grid=grid, kernel=kernel, rule=rule, D=D, P=P,
                       zcol=zcol, ztail=np.asarray(ztail), cs=cs, ct=ct,
                       es=es, et=et)


# ---------------------------------------------------------------------------
# Interactions and the total energy
# ---------------------------------------------------------------------------

def _as_index(grid: Grid, sel) -> np.ndarray:
    sel = np.asarray(sel)
    if sel.dtype == bool:
        if sel.shape != (grid.n_nodes,):
            raise TableError("mask length does not match the grid")
        return np.where(sel)[0]
    idx = sel.astype(np.int64)
    if idx.size and (idx.min() < 0 or idx.max() >= grid.n_nodes):
        raise TableError("node index outside the table")
    return idx


def interaction(profile: OddProfile, A, B, table: KernelTable) -> float:
    """Discrete I(A, B): pairwise over A x B with the tabulated kernels.

    With x = mu 1_A and y = mu 1_B (an index listed twice counts twice),
    I = 2 [(w^2 x).Dy - 2 (w x).D(w y) + x.D(w^2 y)] + 4 [(w^2 x).Py + x.P(w^2 y)].
    The quadratic term skips the self pairs through D's zero diagonal (they
    are the form of `self_cell_matrix`, added by `total_energy`); the
    squared term includes them.
    """
    grid = profile.grid
    n = grid.n_nodes
    mu = grid.weights
    ia = _as_index(grid, A)
    ib = _as_index(grid, B)
    x = np.bincount(ia, weights=mu[ia], minlength=n)
    y = np.bincount(ib, weights=mu[ib], minlength=n)
    w = profile.values
    w2 = w * w
    D, P = table.D, table.P
    quad = (w2 * x) @ (D @ y) - 2.0 * (w * x) @ (D @ (w * y)) + x @ (D @ (w2 * y))
    return float(2.0 * quad + 4.0 * ((w2 * x) @ (P @ y) + x @ (P @ (w2 * y))))


def self_cell_matrix(table: KernelTable, owners) -> sp.csr_matrix:
    """Sparse symmetric C over all nodes with

        (1/2) w^T C w = sum_k cs_k (w_es(k) - w_k)^2 + ct_k (w_et(k) - w_k)^2

    over the owner nodes k (an index array or a mask).  The form is
    one-sided: a node without an in-octant neighbor on an axis drops that
    axis' term.
    """
    k = _as_index(table.grid, owners)
    nb = np.concatenate([table.es[k], table.et[k]])
    c = np.concatenate([table.cs[k], table.ct[k]])
    k = np.concatenate([k, k])
    keep = (nb >= 0) & (c > 0.0)
    k, nb, c = k[keep], nb[keep], 2.0 * c[keep]
    ij = (np.concatenate([k, nb, k, nb]), np.concatenate([k, nb, nb, k]))
    return sp.csr_matrix((np.concatenate([c, c, -c, -c]), ij), shape=(table.grid.n_nodes,) * 2)


def operator_diagonal(table: KernelTable) -> np.ndarray:
    """Diagonal D mu + 2 Z of L without its self-cell part, over all nodes."""
    return table.D @ table.grid.weights + 2.0 * table.zero_order


def total_energy(profile: OddProfile, S: float, table: KernelTable,
                 potential: Potential | None = None) -> EnergyBreakdown:
    """E(w, B_S) of the module docstring: (1/4) I(in, in) plus the self-cell
    form of the nodes in B_S, and (1/2) I(in, out) plus the zero-order
    correction; the exterior band carries the profile's implicit zeros."""
    if potential is None:
        potential = allen_cahn()
    grid = profile.grid
    if S > grid.R_out:
        raise DomainError("evaluation radius exceeds the grid extent R_out")
    w = profile.values
    mu = grid.weights
    inside = grid.inside(S)
    zero = 2.0 * float((w ** 2 * mu * (table.zero_order - table.P @ mu))[inside].sum())
    self_cell = 0.5 * float(w @ (self_cell_matrix(table, inside) @ w))
    pot = 2.0 * float((np.asarray(potential.G(w[inside])) * mu[inside]).sum())
    return EnergyBreakdown(
        kinetic_in_in=0.25 * interaction(profile, inside, inside, table) + self_cell,
        kinetic_in_out=0.5 * interaction(profile, inside, ~inside, table) + zero,
        potential=pot,
        S=float(S), h=grid.h, R=grid.R)


# ---------------------------------------------------------------------------
# Differentiable objective for the minimizer (support radius = grid.R)
# ---------------------------------------------------------------------------

class EnergyModel:
    """E(u) = E(w_u, B_R) for u living on the nodes inside B_R.

    Holds the free block of the operator L of the module docstring: its
    diagonal D mu + 2 Z and the self-cell form C of the nodes in B_R scaled
    by 1/(2 mu).  One matvec of the full D with mu u embedded in the grid
    per point gives L u, hence both E = mu . (u o L u) + 2 mu . G(u) and its
    exact gradient 2 mu (L u - f(u)).
    """

    def __init__(self, table: KernelTable, potential: Potential):
        self.table = table
        self.grid = grid = table.grid
        self.potential = potential
        self.iin = np.where(grid.inside(grid.R))[0]
        self.mu = grid.weights[self.iin]
        self.diag = operator_diagonal(table)[self.iin]
        C = self_cell_matrix(table, self.iin)[self.iin][:, self.iin]
        self.C = sp.diags(0.5 / self.mu) @ C

    def value_and_grad(self, u: np.ndarray):
        mu = self.mu
        mu_u = np.zeros(self.grid.n_nodes)
        mu_u[self.iin] = mu * u
        lu = self.diag * u - (self.table.D @ mu_u)[self.iin] + self.C @ u
        E = float(mu @ (u * lu)) + 2.0 * float(mu @ np.asarray(self.potential.G(u)))
        return E, 2.0 * mu * (lu - np.asarray(self.potential.f(u)))

    def embed(self, u: np.ndarray) -> OddProfile:
        vals = np.zeros(self.grid.n_nodes)
        vals[self.iin] = u
        return OddProfile(self.grid, vals)

    def restrict(self, profile: OddProfile) -> np.ndarray:
        return profile.values[self.iin].copy()
