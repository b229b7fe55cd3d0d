"""Discrete p-Dirichlet energy on uniform grids and its minimization.

The gradient lives on cells.  Along axis a it is the difference of the
two cell faces normal to a: S_a sums u over the 2^(n-1) corners of a
face, and g_a = (S_a[upper face] - S_a[lower face]) / (2^(n-1) h), the
forward difference averaged over the 2^(n-1) cell edges parallel to a.
The energy is

    E(u) = coef * sum over cells of |grad u|^p h^n  -  sum over nodes of w u,

with coef = 1/p for measure-driven solves and, for a capacity problem
(w = 0), the number of mirror copies of the grid that the energy stands
for.  E is convex for every p > 1, so any descent to first-order
stationarity finds the global minimizer subject to the pinned nodes.

Minimization is an L-BFGS descent on the free nodes (Nocedal's two-loop
recursion over the newest 10 pairs, Armijo backtracking) with an
optional Newton polish: on grids small enough for a direct solve,
damped Newton steps with the exact Hessian (pattern built once per
call) push the gradient to machine level.  Up to 2-D each step factors
its Hessian in nested-dissection order.  Above 2-D the free nodes are
in lattice order (longest axis slowest), one single-precision banded
Cholesky factor of a Hessian is kept, and every step solves its Newton
system by double-precision conjugate gradients preconditioned by that
factor; a step refactors only when CG does not converge in 25 solves.

A coarse-to-fine cascade serves every caller but a p = 2 Dirichlet
solve small enough to factor (one Newton step from any start minimizes
its quadratic energy): ``minimize_p_energy`` solves the coarser levels
of a problem coarsest first and starts the free nodes of each finer
level from the prolonged minimizer below it.
Without a load that start is clipped to the range of the pinned values,
which the continuum minimizer never leaves (the maximum principle) but
a coarse grid minimizer can.

Every solve runs at one setting: the descent stops once an accepted
step lowers the energy by at most ``REL_ENERGY_TOL`` times the larger
of the two energies' magnitudes (a relative test at every scale), or
at max-norm gradient 1e-12, within ``LBFGS_MAXITER`` iterations; the
polish stops at max-norm gradient ``NEWTON_GTOL`` within
``NEWTON_ITERS`` steps.  The solvers read these constants when called.

The energy works on the flat node array: a cell sits at the index of
its lowest corner, its neighbour along axis b is a shift by the node
stride s_b, and each sum, difference and scatter is one contiguous 1-D
operation on buffers a problem allocates once.  It divides u by
2^(n-1) h first and sums the quotients; for n = 3 the three face sums
share two pairwise sums.  A position with its lowest corner on an
upper face is not a cell: its gradients are set to 0, and so is the
energy density there before the whole buffer is summed.  The adjoint
is the same steps transposed.  The float operations are those of the
cell-shaped form of these steps, in the same order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import lapack
from scipy.linalg.blas import daxpy

from .errors import ResolutionError
from .grid import EvaluationGrid

REL_ENERGY_TOL = 1e-8
LBFGS_MAXITER = 20000
NEWTON_ITERS = 40
NEWTON_GTOL = 1e-14


class _CellKernel:
    """Cell gradients and their adjoint on the flat node array of one
    grid, in buffers reused from call to call; not for concurrent calls.

    ``plan`` lists every partial sum of u over a set of axes after the
    set without its largest axis m, which it adds to its own shift by
    s_m; a set of n - 1 axes is the face sum of the axis it misses.  A
    sum over the axes K is kept at the first n_nodes - sum of s_b over K
    positions, where all of its terms lie in the array, and the
    gradients are set to 0 off the cells, so no call reads what an
    earlier call left in a buffer.
    """

    def __init__(self, grid: EvaluationGrid):
        n, shape = grid.dim, grid.node_shape
        self.strides = [math.prod(shape[a + 1:]) for a in range(n)]
        self.on_face = np.pad(np.zeros(grid.cells, dtype=bool),
                              [(0, 1)] * n, constant_values=True).ravel()
        self.cells = np.flatnonzero(~self.on_face)
        self.plan = []  # (axes, the face's axis or None, length)
        for a in range(n):
            face = tuple(b for b in range(n) if b != a)
            for k in range(1, n):
                if face[:k] not in (key for key, _, _ in self.plan):
                    self.plan.append((
                        face[:k], a if k == n - 1 else None,
                        grid.n_nodes - sum(self.strides[b] for b in face[:k])))
        self.sums = {key: np.zeros(grid.n_nodes)
                     for key, a, _ in self.plan if a is None}
        self.grads = np.zeros((n, grid.n_nodes))
        self.v, self.face, self.g2, self.w, self.t = np.zeros(
            (5, grid.n_nodes))
        self.flat = np.zeros(grid.n_nodes, dtype=bool)
        self.width = 2.0 ** (n - 1) * grid.h
        # every cell i has i + sum(strides) < n_nodes: g_a is taken over
        # the first `span` positions, then 0 off the cells
        self.span = grid.n_nodes - sum(self.strides)

    def gradients(self, u: np.ndarray, eps: float):
        """Per axis the face sum S_a of v = u / width and g_a = S_a[+s_a]
        - S_a, 0 off the cells; and |gradient|^2 + eps^2."""
        v = np.divide(np.asarray(u, dtype=float).reshape(-1), self.width,
                      out=self.v)
        for key, a, m in self.plan:
            parent, s = key[:-1], self.strides[key[-1]]
            x = self.sums[parent] if parent else v
            out = self.face if a is not None else self.sums[key]
            np.add(x[:m], x[s:s + m], out=out[:m])
            if a is not None:
                g, m, sa = self.grads[a], self.span, self.strides[a]
                np.subtract(out[sa:sa + m], out[:m], out=g[:m])
                np.copyto(g, 0.0, where=self.on_face)
        g2 = np.einsum("ij,ij->j", self.grads, self.grads, out=self.g2)
        if eps > 0.0:
            np.add(g2, eps ** 2, out=g2)
        return self.grads, g2

    def adjoint(self, w: np.ndarray, out: np.ndarray):
        """out = sum over axes a of the adjoint of g_a at the cell weights
        w g_a / width (w finite, so 0 off the cells): the steps of
        ``gradients`` transposed, in reverse order; the first push into
        a sum writes it, later pushes add to it."""
        t, written = self.t, set()
        for key, a, _ in reversed(self.plan):
            d = self.sums.get(key, self.face)
            if a is not None:
                sa = self.strides[a]
                np.multiply(w, self.grads[a], out=t)
                np.negative(t[:sa], out=d[:sa])
                np.subtract(t[:-sa], t[sa:], out=d[sa:])
            parent, s = key[:-1], self.strides[key[-1]]
            target = self.sums[parent] if parent else out
            if parent in written:
                np.add(target, d, out=target)
                np.add(target[s:], d[:-s], out=target[s:])
            else:
                target[:s] = d[:s]
                np.add(d[s:], d[:-s], out=target[s:])
                written.add(parent)


@dataclass
class PEnergyProblem:
    """Pinned-node p-energy problem on a grid.

    ``fixed_mask``/``fixed_values`` pin Dirichlet nodes; ``coef`` scales
    the gradient term, 1/p or a capacity problem's mirror count;
    ``load`` is the per-node pairing weight (cell masses already
    distributed to nodes).  ``eps`` regularizes the gradient magnitude
    for p < 2.
    """

    grid: EvaluationGrid
    p: float
    fixed_mask: np.ndarray
    fixed_values: np.ndarray
    coef: float
    load: np.ndarray | None = None
    eps: float = 0.0
    _kernel: _CellKernel | None = field(default=None, init=False,
                                        repr=False, compare=False)

    def __post_init__(self):
        if not self.p > 1.0:
            raise ValueError("p must exceed 1")
        shape = self.grid.node_shape
        if self.fixed_mask.shape != shape or self.fixed_values.shape != shape:
            raise ValueError("masks and values must be in node shape")
        if self.load is not None and self.load.shape != shape:
            raise ValueError("load must be in node shape")
        if not np.any(self.fixed_mask):
            raise ValueError("at least one node must be pinned")

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
        _, g2 = kernel.gradients(u, self.eps)
        w, t, flat = kernel.w, kernel.t, kernel.flat
        # w = g^(p-2), 0 where g is not positive; g^p = w g^2
        with np.errstate(divide="ignore"):
            np.power(g2, (p - 2.0) / 2.0, out=w)
        np.logical_not(np.greater(g2, 0.0, out=flat), out=flat)
        np.copyto(w, 0.0, where=flat)
        np.multiply(w, g2, out=t)
        np.copyto(t, 0.0, where=kernel.on_face)
        energy = self.coef * hn * float(t.sum())
        np.multiply(w, self.coef * p * hn / kernel.width, out=w)
        node_grad = np.empty(np.shape(u))
        kernel.adjoint(w, node_grad.reshape(-1))
        if self.load is not None:
            energy -= float((self.load * u).sum())
            node_grad -= self.load
        return energy, node_grad


@dataclass
class PEnergyInfo:
    """``iterations`` counts the steps of the method; ``newton_steps``
    counts its Newton steps and ``factorizations`` the sparse
    factorizations they made, damping retries included (both 0 without
    a polish)."""

    energy: float
    iterations: int
    grad_norm: float
    method: str
    newton_steps: int = 0
    factorizations: int = 0


def minimize_p_energy(problem: PEnergyProblem, u0: np.ndarray | None = None,
                      *, coarse=(), polish: str | None = None):
    """Minimize the pinned p-energy; returns (u, PEnergyInfo).

    ``coarse`` lists coarser levels on the same box, coarsest first, each
    at twice the pitch of the next; ``u0`` starts the coarsest (default:
    the mean of its pinned values), and each minimizer, prolonged by
    :func:`refine_nodes` and clipped as the module describes, starts the
    next.  Every level is one call of this function; the info returned
    and ``polish`` are the finest level's.

    Each level is one L-BFGS descent on its free nodes: the two-loop
    recursion over the newest 10 pairs (s, y), scaled by s.y / y.y (the
    first step is -g / |g|), and Armijo backtracking from t = 1.  It
    converges at max-norm gradient 1e-12, or once an accepted step
    lowers the energy by at most ``REL_ENERGY_TOL`` max(|E_k|, |E_k+1|).
    It fails when it spends ``LBFGS_MAXITER`` iterations (capped), or
    when 40 halvings along -g / |g| find no decrease (stalled).

    ``polish="newton"`` follows the descent, converged or not, with
    :func:`newton_polish` (sparse assembled Hessian, quadratic
    convergence, for grids small enough to factor); the solve has
    converged when the polish has, and raises ResolutionError with it
    otherwise.  Without a polish, a capped or stalled descent raises
    ResolutionError.
    """
    if polish not in (None, "newton"):
        raise ValueError("polish must be 'newton' or None")
    if coarse:
        below, _ = minimize_p_energy(coarse[-1], u0, coarse=coarse[:-1])
        u0 = refine_nodes(below)
        if problem.load is None:
            pinned = problem.fixed_values[problem.fixed_mask]
            u0 = np.clip(u0, pinned.min(), pinned.max())
    free = ~problem.fixed_mask
    if not np.any(free):
        u = problem.fixed_values.copy()
        energy, _ = problem.energy_and_grad(u)
        return u, PEnergyInfo(float(energy), 0, 0.0, "pinned")
    if u0 is None:
        u0 = problem.fixed_values.copy()
        u0[free] = float(problem.fixed_values[problem.fixed_mask].mean())
    idx = np.flatnonzero(free)
    work = problem.fixed_values.astype(float).reshape(-1)

    def fg(x):
        work[idx] = x
        e, g = problem.energy_and_grad(work.reshape(problem.grid.node_shape))
        return e, g.reshape(-1)[idx]

    x, energy, grad, iters, failure = _lbfgs(fg, u0.reshape(-1)[idx])
    u = problem.full(x)
    if polish == "newton":
        u, newton = newton_polish(problem, u)
        return u, PEnergyInfo(newton.energy, iters, newton.grad_norm,
                              "lbfgs+newton", newton.iterations,
                              newton.factorizations)
    if failure is not None:
        raise ResolutionError(
            f"p-energy descent did not converge ({failure}); "
            "refine the grid or raise the iteration budget")
    return u, PEnergyInfo(float(energy), iters, float(np.max(np.abs(grad))),
                          "lbfgs")


def _lbfgs(fg, x0: np.ndarray):
    """L-BFGS descent of fg = (f, gradient) from x0 (left unchanged);
    returns (x, f, g, iterations, failure), failure None on convergence.
    fg returns a new gradient array on every call: the previous one is
    overwritten with y.

    The direction is the two-loop recursion over the newest 10 pairs
    (s, y) with initial scaling s.y / y.y of the newest pair, or
    -g / |g| when there is none.  Armijo backtracking halves the step
    from t = 1; a pair with s.y <= 0 is not stored.  A step that finds
    no decrease drops the pairs and retries along -g / |g|.  Converged:
    max-norm gradient at most 1e-12, or an accepted step with
    f_k - f_k+1 <= REL_ENERGY_TOL max(|f_k|, |f_k+1|).
    """
    memory = 10
    x = np.array(x0, dtype=float)
    f, g = fg(x)
    S, Y = np.empty((2, memory, x.size))
    rho, pairs, d = np.empty(memory), [], np.empty_like(x)
    it = 0
    while it < LBFGS_MAXITER:
        if np.max(np.abs(g)) <= 1e-12:
            return x, f, g, it, None
        np.negative(g, out=d)
        alpha = []
        for j in reversed(pairs):
            alpha.append(rho[j] * (S[j] @ d))
            daxpy(Y[j], d, a=-alpha[-1])
        d *= (1.0 / (rho[pairs[-1]] * (Y[pairs[-1]] @ Y[pairs[-1]]))
              if pairs else 1.0 / np.linalg.norm(g))
        for j, a in zip(pairs, reversed(alpha)):
            daxpy(S[j], d, a=a - rho[j] * (Y[j] @ d))
        slope, t = float(g @ d), 1.0
        # not a descent direction (round-off): straight to the fallback
        for _ in range(40 if slope < 0.0 else 0):
            xt = x + t * d
            ft, gt = fg(xt)
            if ft <= f + 1e-4 * t * slope:
                break
            t *= 0.5
        else:
            if not pairs:
                return x, f, g, it, f"line search stalled at iteration {it}"
            pairs.clear()
            continue
        it += 1
        y = np.subtract(gt, g, out=g)
        sy = t * float(d @ y)
        if sy > 0.0:
            j = pairs.pop(0) if len(pairs) == memory else len(pairs)
            np.multiply(d, t, out=S[j])
            Y[j] = y
            rho[j] = 1.0 / sy
            pairs.append(j)
        done = f - ft <= REL_ENERGY_TOL * max(abs(f), abs(ft))
        x, f, g = xt, ft, gt
        if done:
            return x, f, g, it, None
    return x, f, g, it, f"stopped after {LBFGS_MAXITER} iterations"


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
    order up to 2-D and lattice order above, with the CSC slot of every
    per-cell contribution.

    The pattern is the 3^n-point stencil restricted to free nodes; it is
    built by index arithmetic, once, and ``assemble`` then only fills its
    values.  ``order`` lists the free nodes in elimination order: row and
    column k of the assembled matrix belong to node ``order[k]``.  Above
    2-D each lower-triangle CSC slot also has a place in ``band``.
    """

    def __init__(self, grid: EvaluationGrid, fixed_mask: np.ndarray):
        n = grid.dim
        shape = grid.node_shape
        # above 2-D the longest axis runs slowest, which narrows the band
        axes = sorted(range(n), key=lambda a: -shape[a])
        nodes = (_nested_dissection(shape) if n <= 2 else
                 np.arange(grid.n_nodes).reshape(shape).transpose(axes).ravel())
        self.order = nodes[~fixed_mask.ravel()[nodes]]
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
        if n > 2:
            # entry (i, j), i >= j, is row i - j of band column j; the
            # band is stored transposed, so its flat index is j (kd+1) + i-j
            col = np.repeat(np.arange(m), np.diff(self.indptr))
            off = self.indices - col
            self.band_slots = np.flatnonzero(off >= 0)
            self.kd = int(off.max(initial=0))
            self.band_pos = (col * (self.kd + 1) + off)[self.band_slots]

    def band(self, data: np.ndarray) -> np.ndarray:
        """The lower band of the matrix with CSC values ``data``, in
        single precision and LAPACK lower band storage: entry (d, j) is
        matrix entry (j + d, j).  Above 2-D only."""
        ab = np.zeros((self.order.size, self.kd + 1), dtype=np.float32)
        ab.reshape(-1)[self.band_pos] = data[self.band_slots]
        return ab.T

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


def _pcg(H, b: np.ndarray, precond):
    """Conjugate gradients on H x = b, preconditioned by ``precond`` (a
    solve with a factor of a nearby matrix) and started from
    precond(b); returns x once max|b - H x| <= 1e-10 max|b|, or None
    when 25 preconditioner solves do not reach that or H shows a
    direction of nonpositive curvature."""
    tol = 1e-10 * float(np.max(np.abs(b)))
    x = precond(b)
    r = b - H @ x
    solves = 1
    d = rz = None
    while not float(np.max(np.abs(r))) <= tol:
        if solves == 25:
            return None
        z = precond(r)
        solves += 1
        rz, rz_old = float(r @ z), rz
        d = z if d is None else z + (rz / rz_old) * d
        Hd = H @ d
        curv = float(d @ Hd)
        if not curv > 0.0:
            return None
        a = rz / curv
        x += a * d
        r -= a * Hd
    return x


def _band_cholesky(ab: np.ndarray):
    """Factor the single-precision lower band ``ab`` in place (LAPACK
    ``spbtrf``) and return its solve, in and out in double precision;
    raises LinAlgError when the band is not numerically definite."""
    c, info = lapack.spbtrf(ab, lower=1, overwrite_ab=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"spbtrf failed with info {info}")

    def solve(r):
        x, _ = lapack.spbtrs(c, r.astype(np.float32), lower=1)
        return x.astype(float)
    return solve


def newton_polish(problem: PEnergyProblem, u: np.ndarray):
    """Damped Newton refinement with the exact sparse Hessian; returns
    (u, PEnergyInfo) with the number of Newton steps as ``iterations``
    and the number of factorizations as ``factorizations``.

    The Hessian weights per cell are g^(p-2) I + (p-2) g^(p-4) D D^T
    (eigenvalues g^(p-2) and (p-1) g^(p-2), so it is positive definite
    wherever the gradient magnitude g is nonzero).  Its pattern is built
    once per call and each iteration only refills the values.  Up to
    2-D every iteration factors its Hessian in nested-dissection order
    (``spsolve`` with ``permc_spec="NATURAL"``).  Above 2-D the free
    nodes are in lattice order, longest axis slowest, where the Hessian
    is a band about one smallest lattice plane wide, and one
    single-precision banded Cholesky factor (LAPACK ``spbtrf``), filled
    by one scatter of the CSC values, serves many iterations: each, the
    first included, solves H_k d = -g_k by double-precision conjugate
    gradients on H_k, preconditioned by the kept factor and started from
    its solve of -g_k.  CG stops at max|H_k d + g_k| <= 1e-10 max|g_k|;
    when 25 preconditioner solves do not reach that, or the step is not
    finite or no descent direction, the iteration factors H_k, keeps the
    new factor and runs CG again.  Nothing outlives the call.  Tiny
    diagonal damping covers cells where the energy degenerates.  A
    factorization that fails or gives no descent direction is retried:
    up to 2-D with more damping, above with only the band shifted, by
    1e-6 of its largest diagonal entry and ten times more each retry.

    The line search backtracks from the full step under the Armijo
    test on the true energy.  Once the predicted decrease drops below
    the energy's rounding level, 64 eps max(1, |E|), that test compares
    round-off: there a step is accepted when it lowers the max-norm
    gradient, and the refinement stops when it does not.  Iteration ends
    when the max-norm gradient over free nodes is below ``NEWTON_GTOL``.
    Both stops count as converged; raises ResolutionError when
    ``NEWTON_ITERS`` steps do not reach either, or when no retry gives a
    descent direction.  Intended for grids small enough to factor.
    """
    hess = _FrozenHessian(problem.grid, problem.fixed_mask)
    order = hess.order
    u = u.copy()
    flat = u.reshape(-1)
    e0, grad = problem.energy_and_grad(u)
    gf = grad.reshape(-1)[order]
    gmax = float(np.max(np.abs(gf)))
    steps = factorizations = 0
    factor = None

    def damped(H, lam):
        if lam == 0.0:
            return H
        M = H.copy()
        M.data[hess.diag] += lam
        return M

    while gmax >= NEWTON_GTOL:
        if steps == NEWTON_ITERS:
            raise ResolutionError(
                f"Newton polish spent its {NEWTON_ITERS} iterations at "
                f"gradient {gmax:.3g}; refine the descent or coarsen the grid")
        H = hess.assemble(problem, u)
        # a free node whose cells are all flat has a zero row: damp from
        # the start rather than factor an exactly singular matrix
        lam = 1e-10 if np.any(H.data[hess.diag] == 0.0) else 0.0
        M = damped(H, lam)
        step = None if factor is None else _pcg(M, -gf, factor)
        attempts, shift = 0, 0.0
        while (step is None or not np.all(np.isfinite(step))
               or not float(gf @ step) < 0.0):
            if attempts == 8:
                raise ResolutionError(
                    f"Newton polish found no descent direction at gradient "
                    f"{gmax:.3g}")
            attempts += 1
            factorizations += 1
            try:
                # above 2-D the band factor is kept to precondition the
                # CG solves of this and later systems (the old band is
                # freed first); a retry shifts the band alone, by what
                # single precision resolves.  2-D solves every Newton
                # system with one spsolve (the benchmark's tracer counts
                # these calls)
                if problem.grid.dim > 2:
                    factor = None
                    ab = hess.band(M.data)
                    ab[0] += shift * ab[0].max()
                    factor = _band_cholesky(ab)
                    step = _pcg(M, -gf, factor)
                else:
                    step = spla.spsolve(M, -gf, permc_spec="NATURAL")
            except (RuntimeError, np.linalg.LinAlgError):
                step = None
            shift = 1e-6 if shift == 0.0 else shift * 10.0
            if problem.grid.dim <= 2:
                lam = 1e-10 if lam == 0.0 else lam * 100.0
                M = damped(H, lam)
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
                return u, PEnergyInfo(e0, steps, gmax, "newton", steps,
                                      factorizations)
            if e1 <= e0 + 1e-4 * t * slope:
                break
            t *= 0.5
        steps += 1
        e0, gf, gmax = e1, g1, g1max
    return u, PEnergyInfo(e0, steps, gmax, "newton", steps, factorizations)


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
    pts = grid.node_points()
    pinned = fixed_mask.ravel()
    A = np.concatenate([pts[pinned], np.ones((int(pinned.sum()), 1))], axis=1)
    coef, *_ = np.linalg.lstsq(A, boundary_values.ravel()[pinned], rcond=None)
    vals = pts @ coef[:-1] + coef[-1]
    out = vals.reshape(grid.node_shape)
    out[fixed_mask] = boundary_values[fixed_mask]
    return out
