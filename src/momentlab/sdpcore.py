"""Conic solver for equality-constrained programs over PSD cones,
nonnegative orthants, and free variables.

The solver is operator splitting on

    minimize  c'x   subject to  Ax = b,  x in K,

run as the over-relaxed Douglas–Rachford fixed-point map on one variable w.
With z = Π_K(w) and u = w − z (the scaled dual), one map evaluation takes
the equality-constrained quadratic step x from z − u, solved through one
sparse LU factorization of A A' with symmetric ordering and diagonal pivots
(reused across all iterations and penalty updates), and returns
T(w) = w + α(x − z). That is exactly one step of ADMM with the splitting
x = z: one linear solve and one block-wise projection onto K.

The map is accelerated by type-II Anderson acceleration (Walker & Ni 2011;
Zhang, O'Donoghue & Boyd 2020): the next point extrapolates the last
AA_MEMORY accepted iterates, with the least-squares weights read from an
incrementally updated, Tikhonov-regularized Gram matrix of residual
differences. An extrapolated point is kept only when its residual
‖T(w̃) − w̃‖ is at most AA_SAFEGUARD times the accepted iterate's;
otherwise the plain step T(w) is taken and the memory is cleared, as it is
on every penalty change. `Solution.iterations` counts map evaluations, so a
rejected extrapolation costs one, and `Solution.rejected_steps` counts the
rejections. PSD blocks are stored in symmetric-packed form with sqrt(2)
off-diagonal scaling so the flattening is an isometry and dual residuals
keep their meaning. The projection onto K is one gather, which expands every
packed PSD block into a full matrix at once, then one LAPACK `dsyevd` call
per PSD block; only a block with a negative eigenvalue is rebuilt.

`solve(program, opts, warm)` takes two options, the tolerance and the
iteration cap (`SolveOptions`), and optionally a `Start`, a primal x and row
duals y of the program to begin from; the penalty, relaxation, acceleration
and check schedule are the module constants below. Sized for desk-scale moment
relaxations (PSD blocks up to a few hundred); a solve is deterministic given
its arguments. The equilibration (Ruiz sweeps on the CSR arrays of A), the
factor of A A' and the cone plan (the gather index and the per-block layout
of the projection) read neither c nor b, so a program computes them once and
keeps them;
`ConicProgram.with_objective` hands them to a copy with another objective.
Distinct calls share nothing else.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Optional, Sequence

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import lapack

_SQRT2 = math.sqrt(2.0)

RHO = 1.0            # initial penalty, adapted every ADAPT_EVERY iterations
OVER_RELAX = 1.6     # over-relaxation factor of the x-update
CHECK_EVERY = 25     # iterations (map evaluations) between residual checks
ADAPT_EVERY = 100    # iterations between penalty updates; each change clears the memory
STALL_WINDOW = 500   # iterations without halving the residual before the ray test
AA_MEMORY = 20       # differences kept by Anderson acceleration; 10 takes 20k+ on Stengle r=4
AA_REGULARIZATION = 1e-6  # Tikhonov term on the Gram matrix, times its mean diagonal
AA_SAFEGUARD = 4.0   # keep an extrapolation whose residual is at most this times the last one
_RUIZ_SWEEPS = 8     # row/column sweeps of the equilibration


# ----------------------------------------------------------------------------
# blocks and symmetric packing


@dataclass(frozen=True)
class Block:
    kind: str  # psd | nonneg | free
    size: int  # matrix side for psd, vector length otherwise

    def __post_init__(self):
        if self.kind not in ("psd", "nonneg", "free"):
            raise ValueError(f"unknown block kind {self.kind!r}")
        if self.size < 1:
            raise ValueError("block size must be positive")

    @property
    def scalar_len(self) -> int:
        return self.size * (self.size + 1) // 2 if self.kind == "psd" else self.size


def packed_indices(size: int) -> tuple:
    """Upper-triangle (row, col) arrays in the row-major packed order."""
    return np.triu_indices(size)


def packed_weights(size: int) -> np.ndarray:
    rows, cols = packed_indices(size)
    return np.where(rows == cols, 1.0, _SQRT2)


def svec(M: np.ndarray) -> np.ndarray:
    size = M.shape[0]
    rows, cols = packed_indices(size)
    return M[rows, cols] * packed_weights(size)


def smat(v: np.ndarray, size: int) -> np.ndarray:
    rows, cols = packed_indices(size)
    vals = v / packed_weights(size)
    M = np.zeros((size, size))
    M[rows, cols] = vals
    M[cols, rows] = vals
    return M


def psd_project(M: np.ndarray) -> np.ndarray:
    """Nearest PSD matrix in Frobenius norm (eigenvalue clamping)."""
    M = np.asarray(M, dtype=float)
    scale = max(1.0, float(np.abs(M).max()))
    if np.abs(M - M.T).max() > 1e-12 * scale:
        raise ValueError("matrix is not symmetric to within 1e-12")
    sym = 0.5 * (M + M.T)
    w, V = np.linalg.eigh(sym)
    if w[0] >= 0:
        return sym
    out = (V * np.maximum(w, 0.0)) @ V.T
    return 0.5 * (out + out.T)


# ----------------------------------------------------------------------------
# program and solution containers


@dataclass(frozen=True)
class ConicProgram:
    """minimize c'x subject to Ax = b and x in the product cone of blocks."""

    blocks: tuple
    c: np.ndarray
    A: sp.csr_matrix
    b: np.ndarray

    def __post_init__(self):
        blocks = tuple(blk if isinstance(blk, Block) else Block(*blk) for blk in self.blocks)
        object.__setattr__(self, "blocks", blocks)
        c = np.asarray(self.c, dtype=float).ravel()
        b = np.asarray(self.b, dtype=float).ravel()
        A = sp.csr_matrix(self.A, dtype=float)
        n = sum(blk.scalar_len for blk in blocks)
        if c.size != n:
            raise ValueError(f"objective length {c.size} != scalarized length {n}")
        if A.shape != (b.size, n):
            raise ValueError(f"constraint matrix shape {A.shape} incompatible with "
                             f"{b.size} rows and {n} columns")
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)

    @property
    def num_vars(self) -> int:
        return self.c.size

    @property
    def num_rows(self) -> int:
        return self.b.size

    def with_objective(self, c: np.ndarray) -> "ConicProgram":
        """This program with objective c. The copy shares this program's
        scaling, A A' factor and cone plan, computed here if they were not
        yet, so a sweep over objectives equilibrates and factors once."""
        out = ConicProgram(self.blocks, c, self.A, self.b)
        out.__dict__["_scaled_factor"] = self._scaled_factor
        out.__dict__["_cone"] = self._cone
        return out

    @cached_property
    def _scaled_factor(self) -> tuple:
        """(A_scaled, d_row, d_col, A_scaled', sparse factor of A_scaled
        A_scaled'): what an equilibrated solve needs of A and the blocks."""
        A, d_row, d_col = _equilibrate(self)
        return (A, d_row, d_col, *_factor_gram(A))

    @cached_property
    def _cone(self) -> "_ConeOps":
        """The cone layer: gather, weights and per-block plan of the
        projection onto the blocks and of the dual-cone distance."""
        return _ConeOps(self.blocks, self.block_slices())

    def block_slices(self) -> list:
        out, offset = [], 0
        for blk in self.blocks:
            out.append(slice(offset, offset + blk.scalar_len))
            offset += blk.scalar_len
        return out

    def unpack(self, x: np.ndarray) -> list:
        vals = []
        for blk, sl in zip(self.blocks, self.block_slices()):
            seg = x[sl]
            vals.append(smat(seg, blk.size) if blk.kind == "psd" else seg.copy())
        return vals


@dataclass
class Residuals:
    primal: float
    dual: float
    gap: float

    def worst(self) -> float:
        return max(self.primal, self.dual, self.gap)


@dataclass
class Solution:
    status: str  # optimal | max_iters | infeasible_certificate
    primal_value: float
    dual_value: float
    blocks: list
    x: np.ndarray
    y: np.ndarray
    residuals: Residuals
    iterations: int  # map evaluations, rejected extrapolations included
    certificate_ray: Optional[np.ndarray] = None
    rejected_steps: int = 0  # extrapolations the safeguard turned down


class Start(NamedTuple):
    """A primal x and row duals y of a program: where a solve begins."""

    x: np.ndarray
    y: np.ndarray


@dataclass(frozen=True)
class SolveOptions:
    """Stop once every relative residual is at most `tol`, or after
    `max_iters` iterations."""

    tol: float = 1e-7
    max_iters: int = 100000

    def __post_init__(self):
        if not (math.isfinite(self.tol) and self.tol > 0):
            raise ValueError(f"tol must be finite and positive, got {self.tol!r}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be at least 1, got {self.max_iters!r}")


# ----------------------------------------------------------------------------
# the cone plan: projection onto K and distance to K*


class _ConeOps:
    """The cone layer of one program, built once. One gather index and one
    array of inverse weights expand every packed PSD block into a flat buffer
    of full s×s matrices; each block keeps its size, its range in that buffer,
    its packed slice, the upper-triangle positions (rows*s + cols) of its
    packed entries and their inverse weights."""

    def __init__(self, blocks: Sequence[Block], slices):
        self.nonneg = [sl for blk, sl in zip(blocks, slices) if blk.kind == "nonneg"]
        self.free = [sl for blk, sl in zip(blocks, slices) if blk.kind == "free"]
        self.psd = []
        gather, full_inv_w, offset = [], [], 0
        for blk, sl in zip(blocks, slices):
            if blk.kind != "psd":
                continue
            s = blk.size
            rows, cols = packed_indices(s)
            inv_w = 1.0 / packed_weights(s)
            pos = np.empty((s, s), dtype=np.intp)
            pos[rows, cols] = pos[cols, rows] = np.arange(rows.size)
            gather.append(sl.start + pos.ravel())
            full_inv_w.append(inv_w[pos.ravel()])
            self.psd.append((s, offset, offset + s * s, sl, rows * s + cols, inv_w))
            offset += s * s
        self.gather = np.concatenate(gather) if gather else np.zeros(0, dtype=np.intp)
        self.full_inv_w = np.concatenate(full_inv_w) if full_inv_w else np.zeros(0)

    def project(self, v: np.ndarray) -> np.ndarray:
        out = v.copy()
        for sl in self.nonneg:
            np.maximum(out[sl], 0.0, out=out[sl])
        F = v[self.gather] * self.full_inv_w
        for s, a, e, sl, tri, inv_w in self.psd:
            w, V = _dsyevd(F[a:e].reshape(s, s), 1)
            if w[0] < 0.0:
                out[sl] = ((V * np.maximum(w, 0.0)) @ V.T).ravel()[tri] / inv_w
        return out

    def dist_dual_cone(self, v: np.ndarray) -> float:
        """Distance-like measure of v to K* (free components must vanish)."""
        worst = 0.0
        for sl in self.nonneg:
            worst = max(worst, float(np.linalg.norm(np.minimum(v[sl], 0.0))))
        for sl in self.free:
            worst = max(worst, float(np.linalg.norm(v[sl])))
        F = v[self.gather] * self.full_inv_w
        for s, a, e, _, _, _ in self.psd:
            w, _ = _dsyevd(F[a:e].reshape(s, s), 0)
            worst = max(worst, float(np.linalg.norm(np.minimum(w, 0.0))))
        return worst


def _dsyevd(M: np.ndarray, compute_v: int) -> tuple:
    """(ascending eigenvalues, eigenvectors when compute_v) of the symmetric
    matrix M, which is overwritten; raises as np.linalg.eigh does when they
    do not converge (a NaN entry, say)."""
    # one direct LAPACK call: numpy's eigh wrapper costs more than the work on
    # these blocks. M is symmetric, so M.T is a Fortran-ordered view LAPACK
    # can work in without a copy.
    w, V, info = lapack.dsyevd(M.T, compute_v=compute_v, lower=1, overwrite_a=1)
    if info != 0:
        raise np.linalg.LinAlgError("Eigenvalues did not converge")
    return w, V


def _equilibrate(program: ConicProgram):
    """Ruiz-style row/column equilibration on the CSR arrays of A. Column
    scaling is per-entry on free and nonneg blocks but uniform on each PSD
    block, preserving the cone."""
    # duplicates summed and explicit zeros dropped, as a sparse product
    # leaves them, and column indices sorted; the sweeps rescale the entries
    # and keep this pattern
    A = program.A.copy()
    A.sum_duplicates()
    A.eliminate_zeros()
    m, n = A.shape
    rows = np.repeat(np.arange(m), np.diff(A.indptr))
    cols = A.indices
    data = A.data
    d_row = np.ones(m)
    d_col = np.ones(n)
    psd = [sl for blk, sl in zip(program.blocks, program.block_slices()) if blk.kind == "psd"]
    for _ in range(_RUIZ_SWEEPS):
        rn = np.zeros(m)
        np.maximum.at(rn, rows, np.abs(data))
        rn = np.sqrt(rn)
        rn[rn == 0] = 1.0
        data = data * (1.0 / rn)[rows]
        d_row /= rn
        cn = np.zeros(n)
        np.maximum.at(cn, cols, np.abs(data))
        cn = np.sqrt(cn)
        cn[cn == 0] = 1.0
        for sl in psd:
            g = cn[sl]
            pos = g[g > 0]
            cn[sl] = np.exp(np.mean(np.log(pos))) if pos.size else 1.0
        data = data * (1.0 / cn)[cols]
        d_col /= cn
    return sp.csr_matrix((data, cols, A.indptr), shape=(m, n)), d_row, d_col


def _factor_gram(A: sp.csr_matrix) -> tuple:
    """(A', sparse LU factor of A A'), with a growing ridge when A A' is
    singular to working precision. The ordering is symmetric and the pivots
    stay on the diagonal, so L and U are the halves of an L D L' factor; a
    pivot that is not finite and positive, or a row permutation that differs
    from the column one, means A A' was not numerically positive definite."""
    m = A.shape[0]
    AT = A.T.tocsr()
    gram = (A @ AT).tocsc()
    ridge = 0.0
    for _ in range(4):
        try:
            lu = spla.splu(gram + ridge * sp.identity(m, format="csc"),
                           permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                           options={"SymmetricMode": True})
        except RuntimeError:
            pass
        else:
            pivots = lu.U.diagonal()
            if (np.all(np.isfinite(pivots)) and np.all(pivots > 0.0)
                    and np.array_equal(lu.perm_r, lu.perm_c)):
                return AT, lu
        ridge = max(ridge * 100.0, 1e-12 * max(1.0, float(gram.diagonal().sum()) / m))
    raise np.linalg.LinAlgError("could not factor A A^T")


# ----------------------------------------------------------------------------
# main solve loop


class _Anderson:
    """Type-II Anderson acceleration of a fixed-point map T with residual
    g(w) = T(w) − w. Ring buffers hold the last AA_MEMORY differences of g
    and of T between accepted iterates, and the Gram matrix of the g
    differences is updated one row per iterate."""

    def __init__(self, n: int):
        self.dg = np.empty((AA_MEMORY, n))
        self.dt = np.empty((AA_MEMORY, n))
        self.gram = np.empty((AA_MEMORY, AA_MEMORY))
        self.eye = np.eye(AA_MEMORY)
        self.reset()

    def reset(self) -> None:
        self.count = 0     # differences held
        self.head = 0      # slot of the next difference
        self.last = None   # (g, T(w)) of the previous accepted iterate

    def extrapolate(self, g: np.ndarray, tw: np.ndarray) -> Optional[np.ndarray]:
        """Record the accepted iterate w by its residual g and image tw = T(w);
        return tw − ΔT γ with γ = argmin ‖g − ΔG γ‖ (regularized), or None
        while no difference is held."""
        if self.last is not None:
            j = self.head
            np.subtract(g, self.last[0], out=self.dg[j])
            np.subtract(tw, self.last[1], out=self.dt[j])
            self.count = min(self.count + 1, AA_MEMORY)
            self.head = (j + 1) % AA_MEMORY
            row = self.dg[:self.count] @ self.dg[j]
            self.gram[j, :self.count] = row
            self.gram[:self.count, j] = row
        self.last = (g, tw)
        k = self.count
        if k == 0:
            return None
        gram = self.gram[:k, :k]
        reg = AA_REGULARIZATION * float(gram.trace()) / k
        if not reg > 0.0:
            return None
        # Cholesky through LAPACK directly: a numpy solve's call overhead is
        # several times the work at this size
        _, gamma, info = lapack.dposv(gram + reg * self.eye[:k, :k], self.dg[:k] @ g)
        return tw - gamma @ self.dt[:k] if info == 0 else None


def solve(program: ConicProgram, opts: Optional[SolveOptions] = None,
          warm: Optional[Start] = None) -> Solution:
    """Solve `program`; with `warm`, a Start of this program (or a Solution
    of a program with the same A, whose x and y are all that is read), begin
    there. The stopping rule is the same either way."""
    opts = opts or SolveOptions()
    n = program.num_vars
    cone = program._cone

    A, d_row, d_col, AT, lu = program._scaled_factor
    b = d_row * program.b
    c = d_col * program.c
    b_scale = max(1.0, float(np.linalg.norm(b)))
    c_scale = max(1.0, float(np.linalg.norm(c)))
    b = b / b_scale
    c = c / c_scale

    rho = RHO
    z = np.zeros(n)
    u = np.zeros(n)
    if warm is not None:
        z = (warm.x / d_col) / b_scale
        slack = program.c - program.A.T @ warm.y
        u = -(d_col * slack) / (c_scale * rho)

    def report(z_cur, nu_cur):
        x_orig = d_col * z_cur * b_scale
        y_orig = -c_scale * (d_row * nu_cur)
        pv = float(program.c @ x_orig)
        dv = float(program.b @ y_orig)
        rp = float(np.linalg.norm(program.A @ x_orig - program.b)
                   / (1.0 + np.linalg.norm(program.b)))
        rd = float(cone.dist_dual_cone(program.c - program.A.T @ y_orig)
                   / (1.0 + np.linalg.norm(program.c)))
        gap = abs(pv - dv) / (1.0 + abs(pv) + abs(dv))
        return x_orig, y_orig, pv, dv, Residuals(rp, rd, gap)

    def fixed_point_map(w_in):
        """(T(w_in), z = Π_K(w_in), nu): one projection and one linear solve."""
        z_in = cone.project(w_in)
        v = 2.0 * z_in - w_in  # z - u
        nu_in = lu.solve(A @ (rho * v - c) - rho * b)
        x = v - (c + AT @ nu_in) / rho
        return w_in + OVER_RELAX * (x - z_in), z_in, nu_in

    anderson = _Anderson(n)
    w = w_next = z + u  # accepted iterate, and the point evaluated next
    plain = None        # T(w) while w_next is an extrapolation of w
    z_prev = z          # projection of the accepted iterate before w
    res_norm = math.inf
    rejected = 0
    best = None
    stall_anchor = math.inf
    stall_count = 0
    status = "max_iters"
    certificate = None

    for it in range(1, opts.max_iters + 1):
        tw, z_new, nu_new = fixed_point_map(w_next)
        g = tw - w_next
        g_norm = float(np.linalg.norm(g))
        if plain is not None and g_norm > AA_SAFEGUARD * res_norm:
            rejected += 1
            anderson.reset()
            w_next, plain = plain, None
        else:
            w, z_prev, z, nu, res_norm = w_next, z, z_new, nu_new, g_norm
            extrapolated = anderson.extrapolate(g, tw)
            w_next, plain = (tw, None) if extrapolated is None else (extrapolated, tw)

        if it % CHECK_EVERY == 0 or it == opts.max_iters:
            x_orig, y_orig, pv, dv, res = report(z, nu)
            if best is None or res.worst() < best[4].worst():
                best = (x_orig, y_orig, pv, dv, res)
            if res.worst() <= opts.tol:
                status = "optimal"
                break
            if res.worst() > 0.5 * stall_anchor:
                stall_count += CHECK_EVERY
            else:
                stall_anchor = res.worst()
                stall_count = 0
            if stall_count >= STALL_WINDOW:
                ray = _infeasibility_ray(program, cone, y_orig)
                if ray is not None:
                    status = "infeasible_certificate"
                    certificate = ray
                    break
                stall_count = 0
                stall_anchor = res.worst()

        if it % ADAPT_EVERY == 0:
            rp_s = float(np.linalg.norm(A @ z - b))
            rd_s = rho * float(np.linalg.norm(z - z_prev))
            scale = 1.0
            if rp_s > 10.0 * rd_s and rho < 1e6:
                scale = 2.0
            elif rd_s > 10.0 * rp_s and rho > 1e-6:
                scale = 0.5
            if scale != 1.0:
                rho *= scale
                w_next, plain = z + (w - z) / scale, None
                anderson.reset()

    x_orig, y_orig, pv, dv, res = best
    return Solution(status=status, primal_value=pv, dual_value=dv,
                    blocks=program.unpack(x_orig), x=x_orig, y=y_orig,
                    residuals=res, iterations=it, certificate_ray=certificate,
                    rejected_steps=rejected)


def _infeasibility_ray(program: ConicProgram, cone: _ConeOps,
                       y_candidate: np.ndarray) -> Optional[np.ndarray]:
    """Normalized improving-ray test: a y with A'y in K* and b'y < 0 certifies
    primal infeasibility."""
    nrm = float(np.linalg.norm(y_candidate))
    if nrm < 1e-12:
        return None
    for sgn in (1.0, -1.0):
        cand = sgn * y_candidate / nrm
        if (program.b @ cand) < -1e-9 and cone.dist_dual_cone(program.A.T @ cand) <= 1e-7:
            return cand
    return None
