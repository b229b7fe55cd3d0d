"""Discrete p-Dirichlet energy on uniform grids and its minimization.

The gradient lives on cells: along axis a it is the forward difference
of node values divided by h, averaged over the 2^(n-1) cell edges
parallel to a.  The energy is

    E(u) = coef * sum over cells of |grad u|^p h^n  -  sum over nodes of w u,

with coef = 1/p for measure-driven solves and coef = 1 (and w = 0) for
capacity problems.  E is convex for every p > 1, so any descent to
first-order stationarity finds the global minimizer subject to the
pinned nodes.  Minimization is limited-memory quasi-Newton descent with
an optional Newton polish: on grids small enough for a sparse direct
solve, damped Newton steps with the exact Hessian (nested-dissection
order, pattern built once per call) push the gradient to machine level.

Every solve runs at one setting: the descent stops at relative energy
change ``REL_ENERGY_TOL`` within ``LBFGS_MAXITER`` iterations, and the
polish stops at max-norm gradient ``NEWTON_GTOL`` within
``NEWTON_ITERS`` steps.  The solvers read these constants when called.

The energy works on the flat node array: a cell sits at the index of
its lowest corner, its neighbour along axis b is a shift by the node
stride s_b, and each difference, average and scatter is one contiguous
1-D operation on buffers a problem allocates once.  A position with its
lowest corner on an upper face is not a cell; its shifted reads wrap,
so its weight is overwritten with 0 (a product with 0 would pass inf or
nan) and adds exactly +0 to every node.  The float operations are those
of the cell-shaped form, in the same order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.optimize import minimize as scipy_minimize

from .errors import ResolutionError
from .grid import EvaluationGrid

REL_ENERGY_TOL = 1e-8
LBFGS_MAXITER = 20000
NEWTON_ITERS = 40
NEWTON_GTOL = 1e-14


class _CellKernel:
    """Cell gradients and their adjoint on the flat node array of one
    grid, in buffers reused from call to call; not for concurrent calls."""

    def __init__(self, grid: EvaluationGrid):
        shape, self.h = grid.node_shape, grid.h
        self.strides = [math.prod(shape[a + 1:]) for a in range(grid.dim)]
        self.on_face = np.pad(np.zeros(grid.cells, dtype=bool),
                              [(0, 1)] * grid.dim, constant_values=True).ravel()
        self.cells = np.flatnonzero(~self.on_face)
        self.grads = [np.zeros(grid.n_nodes) for _ in range(grid.dim)]
        self.g2, self.w, self.t, self.tmp = np.zeros((4, grid.n_nodes))

    def gradients(self, u: np.ndarray, eps: float):
        """Per axis the difference / h, then the mean of two neighbours
        along each other axis in ascending order; and |gradient|^2 + eps^2."""
        u = np.asarray(u, dtype=float).reshape(-1)
        g2, tmp = self.g2, self.tmp
        for a, g in enumerate(self.grads):
            sa = self.strides[a]
            np.divide(np.subtract(u[sa:], u[:-sa], out=g[:-sa]), self.h,
                      out=g[:-sa])
            for b, s in enumerate(self.strides):
                if b != a:
                    np.add(g[:-s], g[s:], out=tmp[:-s])
                    np.multiply(tmp[:-s], 0.5, out=g[:-s])
        np.multiply(self.grads[0], self.grads[0], out=g2)
        for d in self.grads[1:]:
            np.add(g2, np.multiply(d, d, out=tmp), out=g2)
        if eps > 0.0:
            np.add(g2, eps ** 2, out=g2)
        return self.grads, g2

    def add_adjoint(self, t: np.ndarray, axis: int, out: np.ndarray):
        """Add the adjoint of the gradient along ``axis`` at the cell weights
        t (overwritten, 0 off the cells) to the nodes: t spreads along the
        other axes in descending order, then adds +t/h hi and -t/h lo."""
        np.copyto(t, 0.0, where=self.on_face)
        half = self.tmp
        for b in reversed(range(len(self.strides))):
            if b != axis:
                s = self.strides[b]
                np.multiply(t, 0.5, out=half)
                t[:s] = half[:s]
                np.add(half[s:], half[:-s], out=t[s:])
        s = self.strides[axis]
        np.divide(t[:-s], self.h, out=half[:-s])
        np.add(out[s:], half[:-s], out=out[s:])
        np.subtract(out[:-s], half[:-s], out=out[:-s])


@dataclass
class PEnergyProblem:
    """Pinned-node p-energy problem on a grid.

    ``fixed_mask``/``fixed_values`` pin Dirichlet nodes; ``load`` is the
    per-node pairing weight (cell masses already distributed to nodes);
    ``capacity_mode`` drops the 1/p factor and the load term.  ``eps``
    regularizes the gradient magnitude for p < 2.
    """

    grid: EvaluationGrid
    p: float
    fixed_mask: np.ndarray
    fixed_values: np.ndarray
    load: np.ndarray | None = None
    capacity_mode: bool = False
    eps: float = 0.0
    _kernel: _CellKernel | None = field(default=None, init=False,
                                        repr=False, compare=False)
    # mirror copies of this grid that the energy counts: p_capacity passes
    # 2^k when it folds k axes, so L-BFGS stops on the whole grid's energy;
    # an init field, so dataclasses.replace keeps it
    _mult: float = field(default=1.0, repr=False)

    def __post_init__(self):
        if self.p <= 1.0:
            raise ValueError("p must exceed 1")
        shape = self.grid.node_shape
        if self.fixed_mask.shape != shape or self.fixed_values.shape != shape:
            raise ValueError("masks and values must be in node shape")
        if self.load is not None and self.load.shape != shape:
            raise ValueError("load must be in node shape")
        if not np.any(self.fixed_mask):
            raise ValueError("at least one node must be pinned")

    @property
    def coef(self) -> float:
        return self._mult * (1.0 if self.capacity_mode else 1.0 / self.p)

    def full(self, free_values: np.ndarray) -> np.ndarray:
        u = self.fixed_values.copy()
        u[~self.fixed_mask] = free_values
        return u

    def _cell_kernel(self) -> _CellKernel:
        if self._kernel is None:
            self._kernel = _CellKernel(self.grid)
        return self._kernel

    def energy_and_grad(self, u: np.ndarray):
        """Energy and its full node gradient at u."""
        p, hn = self.p, self.grid.cell_volume
        kernel = self._cell_kernel()
        grads, g2 = kernel.gradients(u, self.eps)
        w, t = kernel.w, kernel.t
        np.power(g2, p / 2.0, out=t)
        energy = self.coef * hn * float(t[kernel.cells].sum())
        with np.errstate(divide="ignore"):
            np.power(g2, (p - 2.0) / 2.0, out=w)
        np.copyto(w, 0.0, where=~(g2 > 0.0))
        np.multiply(w, self.coef * p * hn, out=w)
        node_grad = np.zeros(np.shape(u))
        for a, d in enumerate(grads):
            kernel.add_adjoint(np.multiply(w, d, out=t), a,
                               node_grad.reshape(-1))
        if self.load is not None:
            energy -= float((self.load * u).sum())
            node_grad -= self.load
        return energy, node_grad


@dataclass
class PEnergyInfo:
    """``iterations`` counts the steps of the method; after a polish,
    ``newton_steps`` counts the polish's steps (0 without one)."""

    energy: float
    iterations: int
    grad_norm: float
    method: str
    newton_steps: int = 0


def minimize_p_energy(problem: PEnergyProblem, u0: np.ndarray | None = None,
                      *, polish: str | None = None):
    """Minimize the pinned p-energy; returns (u, PEnergyInfo).

    ``polish="newton"`` follows the descent with :func:`newton_polish`
    (sparse assembled Hessian, quadratic convergence, for grids small
    enough to factor); the solve has converged when the polish has, and
    raises ResolutionError with it otherwise.  Without a polish, raises
    ResolutionError when the descent stops before reaching the
    relative-energy-change criterion, including when it runs out of
    iterations.
    """
    free = ~problem.fixed_mask
    if not np.any(free):
        u = problem.fixed_values.copy()
        energy, _ = problem.energy_and_grad(u)
        return u, PEnergyInfo(float(energy), 0, 0.0, "pinned")
    if u0 is None:
        u0 = problem.fixed_values.copy()
        if np.any(problem.fixed_mask):
            u0[free] = float(problem.fixed_values[problem.fixed_mask].mean())
    x0 = np.ascontiguousarray(u0[free], dtype=float)

    def fg(x):
        u = problem.full(x)
        e, g = problem.energy_and_grad(u)
        return e, np.ascontiguousarray(g[free])

    res = scipy_minimize(fg, x0, jac=True, method="L-BFGS-B",
                         options={"maxiter": LBFGS_MAXITER, "maxcor": 10,
                                  "ftol": REL_ENERGY_TOL,
                                  "gtol": 1e-12})
    u = problem.full(res.x)
    if polish == "newton":
        u, newton = newton_polish(problem, u)
        return u, PEnergyInfo(newton.energy, int(res.nit), newton.grad_norm,
                              "lbfgs+newton", newton.iterations)
    if polish is not None:
        raise ValueError("polish must be 'newton' or None")
    if not res.success:
        raise ResolutionError(
            f"p-energy descent did not converge ({res.message}); "
            "refine the grid or raise the iteration budget")
    energy, grad = problem.energy_and_grad(u)
    grad_norm = float(np.max(np.abs(grad[free])))
    return u, PEnergyInfo(float(energy), int(res.nit), grad_norm, "lbfgs")


def _nested_dissection(shape) -> np.ndarray:
    """Flat node indices of a lattice in nested-dissection order.

    Every box of nodes is cut by its middle plane of nodes across one
    axis, the axis whose boxes are widest at that level; the two halves
    come first, each ordered the same way, and the plane last.  A plane
    one node thick cuts every edge of the 3^n-point stencil, so
    eliminating the halves first creates no fill between them.  Boxes at
    most two nodes wide on every axis keep lattice order.
    """
    n = len(shape)
    # digits[a][l]: per coordinate along axis a, 0 or 1 for the half it
    # falls in at the l-th cut of axis a, 2 on the cut plane, 0 once its
    # interval is too narrow to cut (or after it was a plane)
    digits = [[] for _ in range(n)]
    widths = [s - 1 for s in shape]
    for a, s in enumerate(shape):
        c = np.arange(s)
        lo, hi = np.zeros(s, dtype=int), np.full(s, s - 1)
        while np.any(hi - lo >= 2):
            mid = (lo + hi) // 2
            cut = hi - lo >= 2
            d = np.where(cut, np.where(c < mid, 0, np.where(c > mid, 1, 2)), 0)
            hi = np.where(cut & (c < mid), mid - 1, np.where(d == 2, c, hi))
            lo = np.where(cut & (c > mid), mid + 1, np.where(d == 2, c, lo))
            digits[a].append(d.reshape([-1 if b == a else 1
                                        for b in range(n)]))
    # cut the widest axis first; a node on a plane pads with 0 from then
    # on, which still sorts it after both halves it separated
    levels = [0] * n
    key = np.zeros(shape, dtype=np.int64)
    live = np.ones(shape, dtype=bool)
    while any(levels[a] < len(digits[a]) for a in range(n)):
        a = max((a for a in range(n) if levels[a] < len(digits[a])),
                key=lambda a: widths[a])
        d = digits[a][levels[a]]
        levels[a] += 1
        widths[a] -= widths[a] // 2 + 1
        key = 3 * key + np.where(live, d, 0)
        live = live & (d != 2)
    return np.argsort(key.ravel(), kind="stable")


class _FrozenHessian:
    """Sparsity pattern of the free-node Hessian, in nested-dissection
    order, with the CSC slot of every per-cell contribution.

    The pattern is the 3^n-point stencil restricted to free nodes; it is
    built by index arithmetic, once, and ``assemble`` then only fills its
    values.  ``order`` lists the free nodes in elimination order: row and
    column k of the assembled matrix belong to node ``order[k]``.
    """

    def __init__(self, grid: EvaluationGrid, fixed_mask: np.ndarray):
        n = grid.dim
        shape = grid.node_shape
        nd = _nested_dissection(shape)
        self.order = nd[~fixed_mask.ravel()[nd]]
        m = self.order.size
        # ranks on the lattice padded by one node per side, so that every
        # stencil neighbour has an index; -1 marks pinned and pad nodes
        pshape = tuple(s + 2 for s in shape)
        pstrides = np.array([math.prod(pshape[a + 1:]) for a in range(n)])
        pidx = np.arange(math.prod(pshape), dtype=np.int32).reshape(pshape)
        inner = np.full(grid.n_nodes, -1, dtype=np.int32)
        inner[self.order] = np.arange(m, dtype=np.int32)
        rank = np.full(pshape, -1, dtype=np.int32)
        rank[(slice(1, -1),) * n] = inner.reshape(shape)
        rank = rank.ravel()

        # column k holds the free stencil neighbours of node order[k],
        # sorted by row; slot[k, s] is where stencil point s sits in the
        # CSC data, or the spare slot nnz (dropped) for a pinned node
        stencil = np.array(list(np.ndindex((3,) * n))) - 1
        width = len(stencil)
        origin = pidx[(slice(1, -1),) * n].ravel()[self.order]
        rows = rank[origin[:, None] + (stencil @ pstrides).astype(np.int32)]
        key = np.where(rows >= 0, rows, m)
        pos = np.empty((m, width), dtype=np.int32)
        np.put_along_axis(pos, np.argsort(key, axis=1, kind="stable"),
                          np.arange(width, dtype=np.int32)[None, :], axis=1)
        self.indptr = np.zeros(m + 1, dtype=np.int32)
        np.cumsum(np.count_nonzero(rows >= 0, axis=1), out=self.indptr[1:])
        self.nnz = int(self.indptr[-1])
        key.sort(axis=1)
        self.indices = key[key < m]
        slot = np.full((m + 1, width), self.nnz, dtype=np.int32)
        slot[:-1] = np.where(rows >= 0, self.indptr[:-1, None] + pos, self.nnz)
        self.diag = slot[:-1, width // 2]

        # contribution (cell, i, j) of local corner nodes i, j lands in
        # column rank(j) at stencil point corner_i - corner_j; rank -1
        # reads the last row of slot, which is all spare
        corners = np.array(list(np.ndindex((2,) * n)))
        s_ij = ((corners[:, None, :] - corners[None, :, :] + 1)
                @ 3 ** np.arange(n - 1, -1, -1)).astype(np.int32)
        first = pidx[tuple(slice(1, c + 1) for c in grid.cells)].ravel()
        r = rank[first[:, None] + (corners @ pstrides).astype(np.int32)]
        self.slots = slot.ravel()[(r * width)[:, None, :] + s_ij].ravel()
        # the cell gradient is B = 2^(1-n)/h S with S[a, k] = +-1, so
        # (B^T W B)_ij = 4^(1-n)/h^2 sum_ab S_ai S_bj W_ab
        sign = 2.0 * corners.T - 1.0
        self._outer = np.einsum("ai,bj->abij", sign, sign).reshape(n * n, -1)

    def assemble(self, problem: PEnergyProblem, u: np.ndarray):
        """Hessian of the energy at u on the free nodes, as CSC.

        Per cell it is coef p h^n B^T W B with the gradient operator B
        and W = g^(p-2) I + (p-2) g^(p-4) D D^T, D the cell gradient and
        g = |D| (regularized by eps).
        """
        grid, p = problem.grid, problem.p
        n = grid.dim
        kernel = problem._cell_kernel()
        grads, g2 = kernel.gradients(u, problem.eps)
        grads = [d[kernel.cells] for d in grads]
        g2 = g2[kernel.cells]
        # powers only where g > 0 (g2^((p-4)/2) is infinite on flat cells,
        # which get weight 0, or g^0 = 1 in the quadratic energy at p = 2)
        pos = g2 > 0.0
        w_iso = np.full(g2.size, 1.0 if p == 2.0 else 0.0)
        w_dir = np.zeros(g2.size)
        w_iso[pos] = g2[pos] ** ((p - 2.0) / 2.0)
        w_dir[pos] = (p - 2.0) * g2[pos] ** ((p - 4.0) / 2.0)
        W = np.stack([w_dir * grads[a] * grads[b] + (w_iso if a == b else 0.0)
                      for a in range(n) for b in range(n)], axis=1)
        scale = (problem.coef * p * grid.cell_volume
                 * (0.5 ** (n - 1) / grid.h) ** 2)
        local = W @ (scale * self._outer)
        data = np.bincount(self.slots, weights=local.ravel(),
                           minlength=self.nnz + 1)[:self.nnz]
        m = self.order.size
        return sp.csc_matrix((data, self.indices, self.indptr), shape=(m, m))


def newton_polish(problem: PEnergyProblem, u: np.ndarray):
    """Damped Newton refinement with the exact sparse Hessian; returns
    (u, PEnergyInfo) with the number of Newton steps as ``iterations``.

    The Hessian weights per cell are g^(p-2) I + (p-2) g^(p-4) D D^T
    (eigenvalues g^(p-2) and (p-1) g^(p-2), so it is positive definite
    wherever the gradient magnitude g is nonzero).  Its pattern is built
    once per call, in nested-dissection order of the node lattice, and
    each iteration only refills the values and factors them in that
    order (``permc_spec="NATURAL"``); nothing outlives the call.  Tiny
    diagonal damping covers cells where the energy degenerates.

    The line search backtracks from the full step under the Armijo
    test on the true energy.  Once the predicted decrease drops below
    the energy's rounding level, 64 eps max(1, |E|), that test compares
    round-off: there a step is accepted when it lowers the max-norm
    gradient, and the refinement stops when it does not.  Iteration ends
    when the max-norm gradient over free nodes is below ``NEWTON_GTOL``.
    Both stops count as converged; raises ResolutionError when
    ``NEWTON_ITERS`` steps do not reach either, or when no damping of
    the Newton system gives a descent direction.  Intended for grids
    small enough for a sparse direct solve.
    """
    hess = _FrozenHessian(problem.grid, problem.fixed_mask)
    order = hess.order
    u = u.copy()
    flat = u.reshape(-1)
    e0, grad = problem.energy_and_grad(u)
    gf = grad.reshape(-1)[order]
    gmax = float(np.max(np.abs(gf)))
    steps = 0
    while gmax >= NEWTON_GTOL:
        if steps == NEWTON_ITERS:
            raise ResolutionError(
                f"Newton polish spent its {NEWTON_ITERS} iterations at "
                f"gradient {gmax:.3g}; refine the descent or coarsen the grid")
        H = hess.assemble(problem, u)
        # a free node whose cells are all flat has a zero row: damp from
        # the start rather than factor an exactly singular matrix
        lam = 1e-10 if np.any(H.data[hess.diag] == 0.0) else 0.0
        step = None
        for _attempt in range(8):
            M = H
            if lam > 0.0:
                M = H.copy()
                M.data[hess.diag] += lam
            try:
                cand = spla.spsolve(M, -gf, permc_spec="NATURAL")
            except RuntimeError:
                cand = None
            if (cand is not None and np.all(np.isfinite(cand))
                    and float(gf @ cand) < 0.0):
                step = cand
                break
            lam = 1e-10 if lam == 0.0 else lam * 100.0
        if step is None:
            raise ResolutionError(
                f"Newton polish found no descent direction at gradient "
                f"{gmax:.3g}")
        slope = float(gf @ step)
        rounding = 64.0 * np.finfo(float).eps * max(1.0, abs(e0))
        x0 = flat[order]
        t = 1.0
        while True:
            flat[order] = x0 + t * step
            e1, grad = problem.energy_and_grad(u)
            g1 = grad.reshape(-1)[order]
            g1max = float(np.max(np.abs(g1)))
            if -t * slope < rounding:
                if g1max < gmax:
                    break
                flat[order] = x0
                return u, PEnergyInfo(e0, steps, gmax, "newton")
            if e1 <= e0 + 1e-4 * t * slope:
                break
            t *= 0.5
        steps += 1
        e0, gf, gmax = e1, g1, g1max
    return u, PEnergyInfo(e0, steps, gmax, "newton")


def refine_nodes(u: np.ndarray) -> np.ndarray:
    """Multilinear prolongation of node values to the factor-2 grid."""
    out = u
    for axis in range(u.ndim):
        shape = list(out.shape)
        shape[axis] = 2 * shape[axis] - 1
        r = np.zeros(shape)
        sl_even = [slice(None)] * out.ndim
        sl_even[axis] = slice(None, None, 2)
        r[tuple(sl_even)] = out
        sl_odd = [slice(None)] * out.ndim
        sl_odd[axis] = slice(1, None, 2)
        sl0 = [slice(None)] * out.ndim
        sl0[axis] = slice(None, -1)
        sl1 = [slice(None)] * out.ndim
        sl1[axis] = slice(1, None)
        r[tuple(sl_odd)] = 0.5 * (out[tuple(sl0)] + out[tuple(sl1)])
        out = r
    return out


def scatter_cells_to_nodes(cell_masses: np.ndarray,
                           grid: EvaluationGrid) -> np.ndarray:
    """Each cell's mass split equally among its 2^n nodes."""
    share = cell_masses / (2 ** grid.dim)
    load = np.zeros(grid.node_shape)
    for off in np.ndindex(*(2,) * grid.dim):
        sl = tuple(slice(o, o + c) for o, c in zip(off, grid.cells))
        load[sl] += share
    return load


def affine_fill(grid: EvaluationGrid, boundary_values: np.ndarray,
                fixed_mask: np.ndarray) -> np.ndarray:
    """Initial guess: least-squares affine fit to the pinned values,
    evaluated on all nodes.  Cheap and exact for affine boundary data."""
    axes = grid.node_axes()
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=1)
    pinned = fixed_mask.ravel()
    A = np.concatenate([pts[pinned], np.ones((int(pinned.sum()), 1))], axis=1)
    coef, *_ = np.linalg.lstsq(A, boundary_values.ravel()[pinned], rcond=None)
    vals = pts @ coef[:-1] + coef[-1]
    out = vals.reshape(grid.node_shape)
    out[fixed_mask] = boundary_values[fixed_mask]
    return out
