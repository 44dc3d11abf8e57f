"""Discrete odd-sector energy on a triangle grid of orbit cells.

A profile w supported in B_R is written only through its values on the
outer octant {0 <= t < s}.  Over all node pairs, D = kbar - kbar* and
P = kbar*, kbar*_ij = kbar(x_i, x_j^star), and `build_kernel_table` gives
the products D v and P v.  At m=1, kbar is the 4-term sum of K over the sign
reflections and each of its distances on the cell-centred lattice is
h sqrt(a^2 + b^2) for integers a, b, so the products are convolutions of the
lattice values with K per offset (a, b), taken by FFT with no n x n table,
and the self-cell constants sum K per offset; neither calls J.  At m >= 2,
D and P are dense tables from `doubly_radial.j_values`.  Folded onto
the octant, the double sum over the odd extension weighs each pair of nodes
by (w_i - w_j)^2 D_ij + 2 (w_i^2 + w_j^2) P_ij.  Cells are midpoint squares
in (s, t), with two corrections.  Z_i replaces the midpoint mass (P mu)_i
of the pairs reflected across the cone: the integral that defines
`zero_order_coefficient` (`doubly_radial.zero_order_integral`: exact rays
from x_i for the power kernel at m=1, a polar integral of J around the
reflected corner on two graded angular panels otherwise) inside R_out,
plus the analytic power-law tail beyond it.  (1/2) w^T C w, C from
`self_cell_edges`, reinstates the self-cell part of the quadratic term (the
only sub-h pairs on the lattice), ~ |grad w|^2 h^(2-2 gamma) per node with
constants integrated exactly.
With x = mu 1_{B_S}, y = mu - x, w^2 = w o w and C_S the C owned by the
nodes in B_S, the one quadratic form is

    E(w, B_S) = kinetic_in_in + kinetic_in_out + 2 sum_{B_S} G(w) mu,
    kinetic_in_in  = (w^2 x).Dx - (w x).D(w x) + 2 (w^2 x).Px + (1/2) w^T C_S w,
    kinetic_in_out = (w^2 x).Dy - 2 (w x).D(w y) + (w^2 y).Dx
                     + 2 (w^2 x).(Z - Px) + 2 (w^2 y).Px.

At S = R, where w y = 0, it is E = mu . (u o L u) + 2 mu . G(u) with

    L u = (D mu + 2 Z) u - D (mu u) + C u / (2 mu),

so grad E = 2 mu (L u - f(u)): `EnergyModel` evaluates L on the nodes in
B_R, the one place L is written.  Energy, gradient and the diagonal of L
take D and P only as `apply_D` and `apply_P`; `discrete_operator`'s
certificate alone reads D's entries, as `KernelTable.d_rows`.  At m=1 the
table's products, D mu and those of `total_energy`, convolve on the lattice
of every node out to R_out, and the descent's D (mu u) on that of the free
nodes in B_R alone, the only nodes where mu u lives and L u is read.
"""

from __future__ import annotations

import csv
import json
import math
import zipfile
from dataclasses import asdict, dataclass, field, fields
from typing import Callable

import numpy as np
from numpy.fft import ifft, irfft, rfft2

from .errors import DomainError, PreconditionError, TableError
from .kernels import VERDICT_FAILS, RadialKernel, _h, check_sqrt_convexity, read_columns
from .doubly_radial import (QuadratureRule, _blocks, _default_rule, _panels,
                            exterior_tail_coefficient, j_values, omega_sphere,
                            zero_order_integral)

# largest D and P pair tables build_kernel_table allocates, together
_TABLE_MEM_CAP_GB = 6.0
# polar angles and radial nodes of the self-cell quadrature
_SELF_CELL_N_THETA = 16
_SELF_CELL_N_RAD = 12
# scratch arrays per row of `_lattice_rows`' blocks: its nine or so arrays then
# fit a 2 MiB L2 cache, and it ran 1.6x faster at n = 495 (2-core Xeon)
_GATHER_ARRAYS = 4
# the per-node columns of a KernelTable that `save_node_columns` keeps, and
# the version of that file's key (raise it when a column's values or meaning change)
NODE_COLUMNS = ("zcol", "ztail", "cs", "ct")
_NODE_FILE_VERSION = 2


@dataclass(frozen=True)
class Grid:
    """Cell-centered triangle grid on {0 <= t < s, s^2 + t^2 <= R_out^2}.

    Node k sits at ((i_k + 1/2) h, (j_k + 1/2) h) with j_k < i_k and carries
    the orbit-cell volume weight omega^2 s^(m-1) t^(m-1) h^2.  Nodes are
    sorted by (i, j), i first, which `locate` relies on.  Profiles on the
    grid vanish outside B_R; the band R < |x| <= R_out enters only as the
    partner of pairs.
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
    """Lay out the triangle grid; R_out defaults to 1.5 R.  Refuses an
    (i, j) index lattice past _TABLE_MEM_CAP_GB before allocating it."""
    if R_out is None:
        R_out = 1.5 * R
    if not (0.0 < h < R < R_out and math.isfinite(R_out / h)):
        raise DomainError(f"need 0 < h < R < R_out, all finite: h, R, R_out = {h}, {R}, {R_out}")
    if int(m) != m or m < 1:
        raise DomainError("m must be an integer >= 1")
    n_max = int(math.ceil(R_out / h)) + 1
    _refuse_past_cap(n_max, "the grid's i and j index lattices")
    i, j = np.divmod(np.arange(n_max * n_max), n_max)  # i-major: kept nodes sort by (i, j)
    s, t = (i + 0.5) * h, (j + 0.5) * h
    keep = (j < i) & (s ** 2 + t ** 2 <= R_out ** 2)
    i, j, s, t = i[keep], j[keep], s[keep], t[keep]
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


def zero_profile(grid: Grid) -> OddProfile:
    return OddProfile(grid, np.zeros(grid.n_nodes))


def save_profile(profile: OddProfile, path) -> None:
    """Header s,t,u, then one row per node; csv writes each float by repr."""
    grid = profile.grid
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows([("s", "t", "u"), *zip(grid.s.tolist(), grid.t.tolist(),
                                                        profile.values.tolist())])


def load_profile(path, grid: Grid) -> OddProfile:
    """Read a `save_profile` file; rows may come in any order, but each must
    sit on its own node of the grid."""
    rows = read_columns(path, ("s", "t", "u"), "profile file")
    if rows.shape[0] != grid.n_nodes:
        raise DomainError("profile file needs one s,t,u row per grid node")
    # NaN and far-off coordinates become cells the grid lacks
    cells = np.nan_to_num(rows[:, :2] / grid.h - 0.5, nan=-1.0).clip(-1, grid.ii[-1] + 1)
    k = grid.locate(*np.rint(cells).astype(np.int64).T)
    if ((k < 0).any() or np.bincount(k).max() > 1 or not np.allclose(
            rows[:, :2], np.stack([grid.s[k], grid.t[k]], axis=1), atol=1e-9 * grid.h)):
        raise DomainError("profile node coordinates do not match the grid")
    return OddProfile(grid, rows[np.argsort(k), 2])


@dataclass(frozen=True)
class Potential:
    """Double-well data: G with f = -G'."""

    G: Callable
    f: Callable


def allen_cahn() -> Potential:
    return Potential(G=lambda u: 0.25 * (1.0 - np.asarray(u) ** 2) ** 2,
                     f=lambda u: np.asarray(u) - np.asarray(u) ** 3)


def zero_potential() -> Potential:
    return Potential(G=lambda u: np.zeros_like(np.asarray(u, dtype=float)),
                     f=lambda u: np.zeros_like(np.asarray(u, dtype=float)))


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

@dataclass(frozen=True)
class LatticeConvolution:
    """kbar and kbar* on the m=1 lattice as one circular convolution.

    It serves a set of nodes sorted by (i, j), on N = max i + 1 lattice
    columns, and takes `apply_D` and `apply_P` over them alone.  A table's
    covers every node of the grid (D mu, `total_energy`, and G for the
    certificate's rows); `EnergyModel`'s covers the free nodes in B_R, all
    the descent's products need, on the corner G[:2N, :2N] of the table's G.

    With G the `_lattice_kernel` of the N lattice columns, sum_l kbar(x_k, x_l)
    v_l is G convolved with the lattice values V of v, extended evenly about
    -1/2 on both axes (Martucci, IEEE Trans. Signal Process. 42, 1994), and
    sum_l kbar*(x_k, x_l) v_l the same with V transposed.  V is the (N, N)
    quadrant, node (i, j)'s value at V[i, j] (j < i) and 0 elsewhere; the
    extension is the (2N, 2N) patch of V and its flips, cell k and its
    reflection -k - 1 at N + k and N - 1 - k on each axis.  Its offsets to the
    N output cells per axis span 3N - 1 values, so a circle of side L >= 3N - 1
    holds the convolution without wrap-around; L is 5-smooth, which the FFT
    takes without Bluestein's algorithm.  D convolves V - V.T, P convolves V.T.

    spectrum  rfft2 of G placed on the circle
    cells     flat index i N + j of node (i, j) in V
    out       flat index of node (i, j) in the output rows N..2N - 1
    diag      D's diagonal fix, the signed sum of G over `_self_images`:
              G[0, 0] is 0, and the fix leaves D's diagonal 0
    G         the `_lattice_kernel`, which `_lattice_rows` gathers D and P from
    """

    N: int
    spectrum: np.ndarray
    cells: np.ndarray
    out: np.ndarray
    diag: np.ndarray
    G: np.ndarray = field(repr=False)

    def place(self, v: np.ndarray) -> np.ndarray:
        """The quadrant V of v."""
        return np.bincount(self.cells, v, self.N ** 2).reshape(self.N, self.N)

    def convolve(self, V: np.ndarray) -> np.ndarray:
        """At every node, G convolved with the even extension of the quadrant V."""
        N, L = self.N, self.spectrum.shape[0]
        H = np.concatenate([V[:, ::-1], V], axis=1)  # np.block takes 3x as long at N = 48
        E = np.concatenate([H[::-1], H])
        rows = ifft(rfft2(E, s=(L, L)) * self.spectrum, axis=0)[N:2 * N]
        return irfft(rows, n=L, axis=1).reshape(-1)[self.out]

    def apply_D(self, v: np.ndarray) -> np.ndarray:
        """D v over this lattice's nodes."""
        V = self.place(v)
        return self.convolve(V - V.T) - self.diag * v

    def apply_P(self, v: np.ndarray) -> np.ndarray:
        """P v over this lattice's nodes."""
        return self.convolve(self.place(v).T)


@dataclass
class KernelTable:
    """Pairwise averaged-kernel data over all grid node pairs.

    D[i,j]   kbar(x_i, x_j) - kbar(x_i, x_j*)   (0 on the diagonal)
    P[i,j]   kbar(x_i, x_j*)                     (finite for all pairs)
             both symmetric, and taken by the program as the products
             `apply_D(v)` = D v and `apply_P(v)` = P v.  At m >= 2 the
             dense (2, n, n) block `pairs` comes from `j_values` with the
             table; at m=1 the products are the convolutions of `lattice`,
             `d_rows` gathers D's rows for the certificate from the same
             kernel values per lattice offset, and `pairs` (for tests and
             checks) is gathered from them on the first read and kept
    zcol[i]  int kbar(x_i, y*) dy over the outer octant truncated at
             R_out, by `zero_order_integral`, the integrator of
             `zero_order_coefficient`: for the power kernel at m=1 the
             planar integral of K along exact rays from x_i, otherwise J
             in polar coordinates around the reflected corner (t_i, s_i)
             on the two graded panels of directions that see the octant
    ztail[i] analytic zero-order tail, (1/2) int_{|y|>R_out} K_env(|x_i-y|) dy
    cs, ct   self-cell correction coefficients: the omitted quadratic-term
             mass is cs_i (dw_s)^2 + ct_i (dw_t)^2 with one-sided dw; at
             m=1 from kernel moments per lattice offset, at m >= 2 from J
    es, et   one-sided neighbor node index per axis (-1 when absent)

    zcol, ztail, cs and ct (NODE_COLUMNS) carry most of a build's time and
    only O(n) memory: `save_node_columns` keeps them, and passing them back
    as `build_kernel_table(..., nodes=...)` rebuilds the same table from the
    neighbors and the pairs alone.
    """

    grid: Grid
    kernel: RadialKernel
    rule: QuadratureRule
    zcol: np.ndarray
    ztail: np.ndarray
    cs: np.ndarray
    ct: np.ndarray
    es: np.ndarray
    et: np.ndarray
    lattice: LatticeConvolution | None = None
    pairs: np.ndarray | None = field(default=None, repr=False)

    @property
    def zero_order(self) -> np.ndarray:
        """Per-node zero-order coefficient including the exterior tail."""
        return self.zcol + self.ztail

    def _pair_tables(self) -> np.ndarray:
        if self.pairs is None:
            n = self.grid.n_nodes
            pairs = _pair_table_block(n)
            for lo, hi in _blocks(n, _GATHER_ARRAYS * n):
                pairs[0, lo:hi], pairs[1, lo:hi] = _lattice_rows(self.grid, self.lattice.G, lo, hi)
            self.pairs = pairs
        return self.pairs

    @property
    def D(self) -> np.ndarray:
        return self._pair_tables()[0]

    @property
    def P(self) -> np.ndarray:
        return self._pair_tables()[1]

    def d_rows(self):
        """(lo, first, rows lo:hi of D over the columns first:) per row block:
        at m >= 2 the dense block's full rows, at m=1 the rows from the diagonal
        rightwards, each pair once, gathered from the lattice even once D is read."""
        n = self.grid.n_nodes
        for lo, hi in _blocks(n, _GATHER_ARRAYS * n):
            if self.lattice is None:
                yield lo, 0, self.pairs[0, lo:hi]
            else:
                yield lo, lo, _lattice_rows(self.grid, self.lattice.G, lo, hi, lo)[0]

    def apply_D(self, v: np.ndarray) -> np.ndarray:
        """D v."""
        return self.D @ v if self.lattice is None else self.lattice.apply_D(v)

    def apply_P(self, v: np.ndarray) -> np.ndarray:
        """P v."""
        return self.P @ v if self.lattice is None else self.lattice.apply_P(v)


def _self_cell_rule(h: float):
    """Points (zs, zt) and weights of the polar rule on the cell [-h/2, h/2]^2."""
    n_theta = _SELF_CELL_N_THETA
    theta = (np.arange(n_theta) + 0.5) * (2.0 * math.pi / n_theta)
    rmax = 0.5 * h / np.maximum(np.abs(np.cos(theta)), np.abs(np.sin(theta)))
    x, w = _panels([0.0, 1.0], _SELF_CELL_N_RAD)
    rr = rmax[:, None] * x[None, :]
    meas = rr * (rmax[:, None] * w[None, :]) * (2.0 * math.pi / n_theta)
    return rr * np.cos(theta)[:, None], rr * np.sin(theta)[:, None], meas


def _self_cell_coefficients(grid: Grid, kernel: RadialKernel, rule: QuadratureRule):
    """Exact constants of the omitted self-cell quadratic mass.

    cs_i, ct_i with  (1/2) mu_i int_cell (dw . z)^2 D(x, x+z) d(orbit measure)
    ~= cs_i (dw_s)^2 + ct_i (dw_t)^2 on `_self_cell_rule` (integrand ~
    |z|^(1 - 2 gamma + 2(m-1)), integrable; every x + z has 0 < b < a).  At
    m >= 2 the density is J(x, x+z) - J(x, (x+z)*).  At m=1, node (i, j), its
    eight images are K(|(a h + u, b h + v)|) at the `_self_images` offsets
    (a, b), (u, v) = z sign-flipped and, in the four of (x+z)*, swapped.
    The rule maps onto itself under both, so cs gains (or loses) F_s[a, b] =
    sum meas zs^2 K(|(a h + zs, b h + zt)|) (F_s[b, a] if swapped), ct the
    same with a, b exchanged; F_s and F_t = F_s transposed are summed once per
    offset a >= b that some node reaches, with no J call.
    """
    h, m = grid.h, grid.m
    zs, zt, meas = _self_cell_rule(h)
    if m == 1:
        a, b, sign = _self_images(grid.ii, grid.jj)
        W = 2 * int(grid.ii[-1]) + 2  # every offset is at most 2 max(i) + 1
        keys, inv = np.unique(np.maximum(a, b) * W + np.minimum(a, b), return_inverse=True)
        A, B = (h * c[:, None, None] for c in np.divmod(keys, W))
        F = np.empty((2, keys.size))
        for lo, hi in _blocks(keys.size, 2 * zs.size):
            k = _h(kernel, (A[lo:hi] + zs) ** 2 + (B[lo:hi] + zt) ** 2)
            F[0, lo:hi] = (k * (zs ** 2 * meas)).sum(axis=(1, 2))
            F[1, lo:hi] = (k * (zt ** 2 * meas)).sum(axis=(1, 2))
        cs, ct = ((sign * F[np.where(a < b, 1 - c, c), inv.reshape(a.shape)]).sum(axis=0)
                  for c in (0, 1))
    else:
        cs, ct = np.zeros((2, grid.n_nodes))
        for lo, hi in _blocks(grid.n_nodes, zs.size):
            S, T = grid.s[lo:hi, None, None], grid.t[lo:hi, None, None]
            aa, bb = S + zs, T + zt
            dens = j_values(kernel, S, T, aa, bb, rule) - j_values(kernel, S, T, bb, aa, rule)
            dens = dens * aa ** (m - 1) * bb ** (m - 1)
            cs[lo:hi] = (dens * zs ** 2 * meas).sum(axis=(1, 2))
            ct[lo:hi] = (dens * zt ** 2 * meas).sum(axis=(1, 2))
    scale = 0.5 * grid.weights / h ** 2
    return np.maximum(cs, 0.0) * scale, np.maximum(ct, 0.0) * scale


def _self_images(i: np.ndarray, j: np.ndarray):
    """The m=1 lattice offsets (a, b), each (8, n), of each node (i, j)'s eight
    images of itself, with their (8, 1) signs: + for kbar's, a in {0, 2i + 1},
    b in {0, 2j + 1} (row 0 the node itself), - for kbar*'s, in {i - j, i + j + 1}."""
    z, d, e = 0 * i, i - j, i + j + 1
    a = np.stack([z, 2 * i + 1, z, 2 * i + 1, d, d, e, e])
    b = np.stack([z, z, 2 * j + 1, 2 * j + 1, d, e, d, e])
    return a, b, np.repeat([1.0, -1.0], 4)[:, None]


def _radii_read(grid: Grid, rule: QuadratureRule) -> tuple[float, float]:
    """The least and the greatest r at which `_self_cell_coefficients` reads
    K, as the same floats; the other layers read between them on every grid
    measured (m = 1 to 3), and so does J(x, (x + z)*) at m >= 2."""
    zs, zt, _ = _self_cell_rule(grid.h)
    if grid.m == 1:  # the lattice offsets 0 and ((2i + 1) h, (2j + 1) h) of the farthest node
        far = grid.radius.argmax()
        A, B = (grid.h * np.array([0, 2 * c[far] + 1])[:, None, None] for c in (grid.ii, grid.jj))
        r = np.sqrt((A + zs) ** 2 + (B + zt) ** 2)
    else:  # `_inner_rule`'s r^2 of J(x, x + z) at the largest and the least rule node
        S, T = grid.s[:, None, None], grid.t[:, None, None]
        aa, bb = S + zs, T + zt
        d, u, v = (S - aa) ** 2 + (T - bb) ** 2, 2.0 * S * aa, 2.0 * T * bb
        r = np.sqrt([(1.0 - th) * np.minimum(u, v) + d + (1.0 - th) * np.maximum(u, v)
                     for th in (rule.nodes.max(), rule.nodes.min())])
    return float(r.min()), float(r.max())


def _one_sided_neighbors(grid: Grid):
    """Per node, a neighbor strictly inside the octant per axis (-1 if none)."""
    i, j = grid.ii, grid.jj
    up, down = grid.locate(i + 1, j), grid.locate(i - 1, j)
    es = np.where(up >= 0, up, down)
    up, down = grid.locate(i, j + 1), grid.locate(i, j - 1)
    et = np.where(up >= 0, up, down)
    return es, et


def _lattice_kernel(grid: Grid, kernel: RadialKernel) -> np.ndarray:
    """G[a, b] = h(h^2 (a^2 + b^2)) / |S^0|^2 for 0 <= a, b < 2N, N = max i + 1
    the lattice columns: the terms of the m=1 kbar, one per lattice offset.

    At m=1, J is the 4-term sum of K over the sign reflections, and on the
    cell-centred lattice each of its distances is h sqrt(a^2 + b^2) for
    integers a, b: node (i, j) sees node (k, l) at a in {|i - k|, i + k + 1}
    and b in {|j - l|, j + l + 1}.  G is evaluated only at offsets some pair
    reaches (|(a, b)| <= max |(2i + 1, 2j + 1)|; a tabulated kernel refuses
    to extrapolate beyond them) and never at (0, 0), the diagonal's direct
    term, which D does not hold: there it is 0.
    """
    a = np.arange(2 * int(grid.ii[-1]) + 2)
    q = a[:, None] ** 2 + a[None, :] ** 2
    reach = (q > 0) & (q <= ((2 * grid.ii + 1) ** 2 + (2 * grid.jj + 1) ** 2).max())
    G = np.zeros(q.shape)
    G[reach] = _h(kernel, grid.h ** 2 * q[reach]) / omega_sphere(1) ** 2
    return G


def _fft_side(n: int) -> int:
    """The least 2^a 3^b 5^c >= n: such a k, and no other, divides 30^e for
    every e >= log2 k (a power of 2 lies in [n, 2n])."""
    return next(k for k in range(n, 2 * n + 1) if pow(30, k.bit_length(), k) == 0)


def _lattice_convolution(i: np.ndarray, j: np.ndarray, G: np.ndarray) -> LatticeConvolution:
    """The `LatticeConvolution` of the m=1 nodes at lattice cells (i, j),
    sorted by (i, j), over G[:2N, :2N], N = max i + 1: the table's nodes with
    its `_lattice_kernel`, or a leading part of them with a corner of it."""
    N = int(i[-1]) + 1
    G = G[:2 * N, :2 * N]
    L = _fft_side(3 * N - 1)
    # circle position p < 2N holds the offset p, and p >= 2N the offset p - L,
    # -N < p - L < 0 (L < 4N: the 5-smooth numbers from 3 on are at most 4/3 apart)
    p = np.arange(L)
    p = np.where(p < 2 * N, p, L - p)
    a, b, sign = _self_images(i, j)
    return LatticeConvolution(N=N, spectrum=rfft2(G[np.ix_(p, p)]), cells=i * N + j,
                              out=i * L + N + j, diag=(sign * G[a, b]).sum(axis=0), G=G)


def _refuse_past_cap(n: int, what: str) -> None:
    """Refuse two n x n arrays of 8-byte values past _TABLE_MEM_CAP_GB."""
    gib = 2.0 * n * n * 8.0 / 2 ** 30
    if gib > _TABLE_MEM_CAP_GB:
        raise TableError(f"{what} need {gib:.1f} GiB > cap {_TABLE_MEM_CAP_GB} GiB; increase h")


def _pair_table_block(n: int) -> np.ndarray:
    """One (2, n, n) block for D and P, refused past _TABLE_MEM_CAP_GB: past
    glibc's 32 MiB mmap ceiling it is mapped on its own and given back on
    drop, where two n x n blocks just under it could stay resident in the
    heap under the next build's tables."""
    _refuse_past_cap(n, "pair tables")
    return np.empty((2, n, n))


def _lattice_rows(grid: Grid, G: np.ndarray, lo: int, hi: int, first: int = 0):
    """Rows lo:hi of the m=1 D and P over the columns first:, gathered from
    the `_lattice_kernel` G, with D's diagonal 0.  Node (i, j) sees (k, l) at
    a in {|i - k|, i + k + 1}, b in {|j - l|, j + l + 1} in kbar, and at
    a in {|i - l|, i + l + 1}, b in {|j - k|, j + k + 1} in kbar*.  With A, B,
    C, E the terms at (near a, near b), (far, near), (near, far), (far, far),
    kbar is (A + B) + (C + E) and kbar* (A + E) + (B + C).  G is symmetric,
    so swapping the nodes keeps kbar's terms and exchanges kbar*'s B and C:
    D and P are bitwise symmetric, whatever rows and columns a call takes.
    """
    g, W = G.reshape(-1), G.shape[1]
    iW, j = grid.ii[lo:hi, None] * W, grid.jj[lo:hi, None]

    def offsets(p, q):  # near and far a W, near and far b
        return np.abs(iW - p * W), iW + (p + 1) * W, np.abs(j - q), j + q + 1

    na, fa, nb, fb = offsets(grid.ii[first:], grid.jj[first:])
    diff = (g.take(na + nb) + g.take(fa + nb)) + (g.take(na + fb) + g.take(fa + fb))
    na, fa, nb, fb = offsets(grid.jj[first:], grid.ii[first:])
    star = (g.take(na + nb) + g.take(fa + fb)) + (g.take(fa + nb) + g.take(na + fb))
    diff -= star
    rows = np.arange(max(lo, first), hi)
    diff[rows - lo, rows - first] = 0.0
    return diff, star


def build_kernel_table(grid: Grid, kernel: RadialKernel,
                       rule: QuadratureRule | None = None,
                       assume_positive: bool = False,
                       nodes: dict | None = None) -> KernelTable:
    """Cache kbar, kbar-star and their difference over all node pairs.

    First the per-node layers (zero-order column, tail, self-cell, neighbors),
    then the pairs: at m=1 the `LatticeConvolution` of the one kernel value
    per lattice offset, in O(n) memory, with the dense D and P left to their
    first read; at m >= 2 the dense D and P, `j_values` over row blocks.
    `rule` serves J, which the m=1 pairs and self-cell never call.  `nodes`
    maps each name of NODE_COLUMNS to that column of a table built before
    for the same grid, kernel and rule (`load_node_columns` checks this);
    they are taken as given, and only the neighbors and the pairs are
    computed.  Scratch comes in blocks of `doubly_radial._BLOCK_VALUES`, so
    the build peaks at the dense tables (none at m=1) plus a few blocks.
    Refuses a kernel of another m than the grid's, kernels that fail the
    sqrt-convexity check (a tabulated one sampled only over its table)
    unless assume_positive=True, a kernel table missing the `_radii_read`
    before the node columns are computed, and, when allocated (at m >= 2
    before anything else, at m=1 on the first read), dense tables that
    would exceed _TABLE_MEM_CAP_GB (use a larger h).
    """
    if kernel.m != grid.m:
        raise DomainError(f"the kernel has m={kernel.m}, the grid m={grid.m}")
    pairs = None if grid.m == 1 else _pair_table_block(grid.n_nodes)
    if not assume_positive:
        tau = kernel.window(1e-3, min(4.0 * grid.R_out ** 2, 1e3), squared=True)
        report = check_sqrt_convexity(kernel, np.geomspace(*tau, 256))
        if report.verdict == VERDICT_FAILS:
            raise PreconditionError(
                "kernel failed the sqrt-convexity check; pass assume_positive=True "
                "to build the table anyway")
    rule = _default_rule(kernel.m, rule)
    if nodes is None:
        lo, hi = _radii_read(grid, rule)
        if lo < kernel.radii[0] or hi > kernel.radii[1]:
            raise DomainError(f"the kernel table covers r in {list(kernel.radii)}, and the "
                              f"build reads K over [{lo}, {hi}]; extrapolation is refused")
        zcol = zero_order_integral(kernel, grid.s, grid.t, grid.R_out, rule)
        ztail = 0.5 * exterior_tail_coefficient(kernel, grid.s, grid.t, grid.R_out)
        cs, ct = _self_cell_coefficients(grid, kernel, rule)
    else:
        zcol, ztail, cs, ct = (nodes[name] for name in NODE_COLUMNS)
    es, et = _one_sided_neighbors(grid)

    lattice = None
    if pairs is None:
        lattice = _lattice_convolution(grid.ii, grid.jj, _lattice_kernel(grid, kernel))
    else:
        D, P = pairs
        n = grid.n_nodes
        om2 = omega_sphere(grid.m) ** 2
        for lo, hi in _blocks(n, n):
            S, T = grid.s[lo:hi, None], grid.t[lo:hi, None]
            swapped = j_values(kernel, S, T, grid.t, grid.s, rule)
            P[lo:hi] = swapped / om2
            D[lo:hi] = (j_values(kernel, S, T, grid.s, grid.t, rule) - swapped) / om2
            D[np.arange(lo, hi), np.arange(lo, hi)] = 0.0
    return KernelTable(grid=grid, kernel=kernel, rule=rule, zcol=zcol,
                       ztail=np.asarray(ztail), cs=cs, ct=ct, es=es, et=et,
                       lattice=lattice, pairs=pairs)


def _node_key(grid: Grid, kernel: RadialKernel, rule: QuadratureRule) -> str:
    """Everything the node columns depend on, as JSON: every kernel field
    (a tabulated kernel's samples in full), (R, h, m, R_out), n_nodes and
    the rule order.  Floats are written by repr, which round-trips, so equal
    keys mean equal values."""
    kern = {f.name: getattr(kernel, f.name) for f in fields(RadialKernel)}
    return json.dumps({"version": _NODE_FILE_VERSION, "kernel": kern,
                       "grid": [grid.R, grid.h, grid.m, grid.R_out], "n_nodes": grid.n_nodes,
                       "rule_order": rule.order}, sort_keys=True, default=float)


def save_node_columns(table: KernelTable, path) -> None:
    """Write the table's NODE_COLUMNS and their key to an .npz file."""
    with open(path, "wb") as fh:
        np.savez(fh, key=np.array(_node_key(table.grid, table.kernel, table.rule)),
                 **{name: getattr(table, name) for name in NODE_COLUMNS})


def load_node_columns(path, grid: Grid, kernel: RadialKernel,
                      rule: QuadratureRule | None = None) -> dict | None:
    """The `nodes` argument of `build_kernel_table` from a `save_node_columns`
    file, or None when the file is missing or unreadable, holds anything but
    n_nodes float64 values per column, or was written for another key: then
    the caller builds the columns.  Nothing is unpickled."""
    key = _node_key(grid, kernel, _default_rule(kernel.m, rule))
    try:
        with open(path, "rb") as fh:
            data = np.load(fh, allow_pickle=False)
            if not isinstance(data, np.lib.npyio.NpzFile) or str(data["key"]) != key:
                return None
            nodes = {name: data[name] for name in NODE_COLUMNS}
    except (OSError, ValueError, KeyError, EOFError, zipfile.BadZipFile):
        return None
    if any(col.shape != (grid.n_nodes,) or col.dtype != np.float64 for col in nodes.values()):
        return None
    return nodes


# ---------------------------------------------------------------------------
# The quadratic form: self-cell part and total energy
# ---------------------------------------------------------------------------

def self_cell_edges(table: KernelTable, owners):
    """The edges (k, nb, c) of the symmetric C over all nodes with

        (1/2) w^T C w = sum_k cs_k (w_es(k) - w_k)^2 + ct_k (w_et(k) - w_k)^2

    over the owner nodes k, a boolean mask over the grid; each edge puts c at
    (k, k) and (nb, nb) and -c at (k, nb) and (nb, k).  The form is one-sided:
    a node without an in-octant neighbor on an axis drops that axis' term.
    """
    owners = np.asarray(owners)
    if owners.dtype != bool or owners.shape != (table.grid.n_nodes,):
        raise TableError("owners must be a boolean mask of the grid's length")
    k = np.flatnonzero(owners)
    nb = np.concatenate([table.es[k], table.et[k]])
    c = np.concatenate([table.cs[k], table.ct[k]])
    k = np.concatenate([k, k])
    keep = (nb >= 0) & (c > 0.0)
    return k[keep], nb[keep], 2.0 * c[keep]


def _self_cell_apply(edges, w: np.ndarray) -> np.ndarray:
    """C w for the `self_cell_edges` C, w over all nodes."""
    k, nb, c = edges
    delta = c * (w[k] - w[nb])
    return np.bincount(k, delta, w.size) - np.bincount(nb, delta, w.size)


def total_energy(profile: OddProfile, S: float, table: KernelTable,
                 potential: Potential | None = None) -> EnergyBreakdown:
    """E(w, B_S) of the module docstring, from three products with D and one
    with P (`apply_D`, `apply_P`); the exterior band carries the profile's
    implicit zeros.  The profile's grid must have the table grid's h, m and
    R_out, which fix the node set."""
    if potential is None:
        potential = allen_cahn()
    grid = profile.grid
    have = (grid.h, grid.m, grid.R_out)
    want = (table.grid.h, table.grid.m, table.grid.R_out)
    if have != want:
        raise DomainError(f"the profile's grid has (h, m, R_out) = {have}, "
                          f"the table's {want}")
    if not 0.0 <= S <= grid.R_out:
        raise DomainError(f"the evaluation radius must lie in [0, R_out = {grid.R_out}], got {S}")
    w = profile.values
    mu = grid.weights
    inside = grid.inside(S)
    x = np.where(inside, mu, 0.0)
    y = mu - x
    w2x, w2y, wx, wy = w * w * x, w * w * y, w * x, w * y
    Dx, Dy, Dwx, Px = table.apply_D(x), table.apply_D(y), table.apply_D(wx), table.apply_P(x)
    self_cell = 0.5 * float(w @ _self_cell_apply(self_cell_edges(table, inside), w))
    pot = 2.0 * float((np.asarray(potential.G(w[inside])) * mu[inside]).sum())
    return EnergyBreakdown(
        kinetic_in_in=float(w2x @ Dx - wx @ Dwx + 2.0 * w2x @ Px) + self_cell,
        kinetic_in_out=float(w2x @ Dy - 2.0 * wy @ Dwx + w2y @ Dx
                             + 2.0 * w2x @ (table.zero_order - Px) + 2.0 * w2y @ Px),
        potential=pot,
        S=float(S), h=grid.h, R=grid.R)


# ---------------------------------------------------------------------------
# Differentiable objective for the minimizer (support radius = grid.R)
# ---------------------------------------------------------------------------

class EnergyModel:
    """E(u) = E(w_u, B_R) for u living on the nodes inside B_R.

    Holds the free block of the operator L of the module docstring: its
    diagonal D mu + 2 Z, a product of D with the weights of every node on
    the table's own lattice, and the self-cell edges of the nodes in B_R,
    whose C u is scaled by 1/(2 mu).  `apply_L` takes L u from one product
    D (mu u), and `value_and_grad_from` turns u and L u, with no product,
    into E = mu . (u o L u) + 2 mu . G(u) and its exact gradient
    2 mu (L u - f(u)).  L is linear, so a descent step u + lam d needs only
    L u and L d: one product per direction, whatever the line search tries.

    mu u lives on the free nodes, and L u is read only there.  At m=1 the
    product is therefore the `LatticeConvolution` of the free nodes alone
    (`free`), whose N_R = max i + 1 lattice columns are 2/3 of the table's
    at the default R_out = 1.5 R, and whose FFT circle has about 4/9 of the
    points; it reads a corner of the table's G.  At m >= 2 (`free` None) it
    is the dense D's product with mu u embedded in the grid.
    """

    def __init__(self, table: KernelTable, potential: Potential):
        self.table = table
        self.grid = grid = table.grid
        self.potential = potential
        self.iin = np.where(grid.inside(grid.R))[0]
        self.mu = grid.weights[self.iin]
        self.diag = (table.apply_D(grid.weights) + 2.0 * table.zero_order)[self.iin]
        self.edges = self_cell_edges(table, grid.inside(grid.R))
        self.free = None
        if table.lattice is not None and self.iin.size:
            self.free = _lattice_convolution(grid.ii[self.iin], grid.jj[self.iin],
                                             table.lattice.G)

    def apply_L(self, u: np.ndarray) -> np.ndarray:
        """L u on the nodes in B_R."""
        w = np.zeros(self.grid.n_nodes)
        w[self.iin] = u
        if self.free is None:
            du = self.table.apply_D(self.grid.weights * w)[self.iin]
        else:
            du = self.free.apply_D(self.mu * u)
        return self.diag * u - du + _self_cell_apply(self.edges, w)[self.iin] * (0.5 / self.mu)

    def value_and_grad_from(self, u: np.ndarray, lu: np.ndarray):
        """E(u) and its gradient from u and lu = L u."""
        mu = self.mu
        # sums, not 1-D `@`: OpenBLAS's ddot wakes its threads between the FFTs
        E = float((mu * (u * lu)).sum()) + 2.0 * float((mu * self.potential.G(u)).sum())
        return E, 2.0 * mu * (lu - np.asarray(self.potential.f(u)))

    def value_and_grad(self, u: np.ndarray):
        return self.value_and_grad_from(u, self.apply_L(u))

    def embed(self, u: np.ndarray) -> OddProfile:
        vals = np.zeros(self.grid.n_nodes)
        vals[self.iin] = u
        return OddProfile(self.grid, vals)

    def restrict(self, profile: OddProfile) -> np.ndarray:
        return profile.values[self.iin].copy()
