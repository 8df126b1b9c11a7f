"""Conic solver for equality-constrained programs over PSD cones,
nonnegative orthants, and free variables:

    minimize  c'x   subject to  Ax = b,  x in K.

Two methods share one stopping rule: every relative residual (primal, dual
and gap, measured on the original data with x in K) is at most `tol`.

When each runs. `solve(program, opts, warm)` runs the interior-point
method. With `warm`, a primal x and row duals y (`Start`), the start's x is
projected onto K and measured first: a start that passes is returned as
`optimal` at iteration 0, before any equilibration or factor, and any other
start is dropped for the same cold interior-point solve, so a solve's
result does not depend on a start it turns down. An interior-point method
cannot use a start, and the callers that give one (an SOS solution read as
its moment program's point, an exact eigenpair) give a good one. If the
interior-point method stops short (its steps collapse, its Newton system
is singular, or it has taken IPM_MAX_ITERS steps), the ADMM, which runs
nowhere else, continues from its best point, or from zero when it found
none, within `opts.max_iters` in all, so `max_iters`, `infeasible_certificate` and the ray mean what
they meant before. `Solution.iterations` counts interior-point steps plus
ADMM map evaluations, and is 0 for an accepted start.

The interior-point method is primal-dual path following with the HKM
direction and Mehrotra's predictor-corrector (SDPT3: Toh, Todd & Tütüncü
1999) on the equilibrated program. Free columns enter through the
augmented system and nonnegative ones as diagonal terms. A PSD block whose
columns are single entries in rows of their own (a moment program's slacks
L_J y − slack_J = 0) is eliminated with those rows, so the Newton system
K = [[M, A_f], [A_f', −N]] has the size of the free columns plus the other
rows. The Schur complements M and N are assembled sparsely, as SDPA does
(Fujisawa, Kojima & Nakata 1997): per block, the sparse rows V_i times Q,
a stack of s × s products with P, and one sparse product of inner
products. The corrector is refined (IPM_REFINE steps) against the linear
residuals and then projected onto A dx = rp and the free columns' dual
equations, through the A A' factor the ADMM uses and a factor of A_f' A_f:
near the end K is too ill-conditioned for its solve alone to keep them.

No dense kernel in the interior-point loop goes to a threaded OpenBLAS
routine. Under the default two threads on a 2-vCPU VM, a call that OpenBLAS
splits across threads waits for the second thread to get a CPU, and some
shapes are far slower than on one thread:

    dgemm (84 x 400)(400 x 84)        24 ms    (1 thread 0.18 ms)
    dgemm (165 x 1225)(1225 x 165)    40 ms    (1.9 ms)
    dgemm (249 x 249)(249 x 249)      16 ms    (0.73 ms)
    dpotri, dtrtrs, side 6-20         8-40 ms  (0.003 ms)
    numpy eigh, side 35               16 ms    (scipy dsyevd 0.2 ms)
    dgetrf, dpotrf, dsytrf, 166 rows  50-180 ms in some calls or processes

Products up to (84 x 100)(100 x 84), gemv, and scipy's `dsyevd`, numpy's
batched Cholesky, inverse and `eigvalsh` on the blocks met here are not
slowed, nor is `dgetrf` below 10^4 entries, which OpenBLAS runs on one
thread. So K is factored by `dgetrf` up to 99 rows and by SuperLU above,
inverses and step lengths come from those batched calls, and no dense
product has an inner dimension above a block's side.

The ADMM is operator splitting: the over-relaxed Douglas–Rachford
fixed-point map on one variable w. With z = Π_K(w) and u = w − z (the
scaled dual), one map evaluation takes the equality-constrained quadratic
step x from z − u, solved through one sparse LU factorization of A A' with
symmetric ordering and diagonal pivots (reused across all iterations and
penalty updates), and returns T(w) = w + α(x − z). That is exactly one step
of ADMM with the splitting x = z: one linear solve and one block-wise
projection onto K.

PSD blocks are stored in symmetric-packed form with sqrt(2) off-diagonal
scaling so the flattening is an isometry and dual residuals keep their
meaning. The projection onto K and the distance to K* go block by block:
`smat` expands a PSD block and one LAPACK `dsyevd` call takes its
eigenvalues; only a block with a negative one gets a second call, for its
eigenvectors, and is rebuilt (`psd_project` uses the same clamp).

`solve` takes two options, the tolerance and the iteration cap
(`SolveOptions`); everything else is the module constants below. Sized for
desk-scale moment relaxations (PSD blocks up to a few hundred); a solve is
deterministic given its arguments. The interior-point plan, which holds the
equilibration (Ruiz sweeps on the CSR arrays of A), the factor of A A' and
the layout of the Newton system, reads neither c nor b, so a program builds
it once and keeps it; `ConicProgram.with_objective` hands it to a copy with
another objective. Distinct calls share nothing else.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple, Optional

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import lapack

_SQRT2 = math.sqrt(2.0)

log = logging.getLogger("momentlab")

RHO = 1.0            # initial penalty, adapted every ADAPT_EVERY iterations
OVER_RELAX = 1.6     # over-relaxation factor of the x-update
CHECK_EVERY = 25     # iterations (map evaluations) between residual checks
ADAPT_EVERY = 100    # iterations between penalty updates
STALL_WINDOW = 500   # iterations without halving the residual before the ray test
_RUIZ_SWEEPS = 8     # row/column sweeps of the equilibration
SCHUR_CHUNK = 1 << 15  # doubles per Schur work array (256 KB); see _Group
IPM_MAX_ITERS = 50   # Newton steps before the ADMM takes over; the lab's programs take 7-20
IPM_MIN_STEP = 1e-6  # primal and dual steps both shorter than this make no progress
IPM_STEP = 0.95      # share of the step to the boundary taken; SDPT3's 0.9-0.99 stalls on the circle
IPM_REFINE = 1       # refinement steps of the corrector; one saves 1-4 of 12-16 steps on the ladder


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


@lru_cache(maxsize=None)
def packed_indices(size: int) -> tuple:
    """Upper-triangle (row, col) arrays in the row-major packed order (read-only)."""
    rows, cols = np.triu_indices(size)
    rows.flags.writeable = cols.flags.writeable = False
    return rows, cols


@lru_cache(maxsize=None)
def packed_weights(size: int) -> np.ndarray:
    """1 on the diagonal's packed entries, sqrt(2) off it (read-only)."""
    rows, cols = packed_indices(size)
    w = np.where(rows == cols, 1.0, _SQRT2)
    w.flags.writeable = False
    return w


def svec(M: np.ndarray) -> np.ndarray:
    size = M.shape[0]
    rows, cols = packed_indices(size)
    return M[rows, cols] * packed_weights(size)


def smat(v: np.ndarray, size: int) -> np.ndarray:
    rows, cols = packed_indices(size)
    vals = v * (1.0 / packed_weights(size))
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
    out = _clamp(sym)
    return sym if out is None else 0.5 * (out + out.T)


def _clamp(M: np.ndarray) -> Optional[np.ndarray]:
    """The symmetric M with its negative eigenvalues set to zero (M is then
    overwritten), or None when it has none. Only then are eigenvectors taken:
    on blocks of side 35-153 they cost 1.3-2 times the eigenvalues alone."""
    if _dsyevd(M.copy(), 0)[0][0] >= 0.0:
        return None
    w, V = _dsyevd(M, 1)
    return (V * np.maximum(w, 0.0)) @ V.T


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
        interior-point plan (its scaling, A A' factor and Newton layout),
        built here if it was not yet, so a sweep over objectives
        equilibrates and factors once."""
        out = ConicProgram(self.blocks, c, self.A, self.b)
        out.__dict__["_interior"] = self._interior
        return out

    @cached_property
    def _interior(self) -> "_InteriorPlan":
        """What a solve reads of A beyond the start check."""
        return _InteriorPlan(self)

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
        """The largest residual; NaN when any is NaN."""
        return float(np.max((self.primal, self.dual, self.gap)))


@dataclass
class Solution:
    status: str  # optimal | max_iters | infeasible_certificate
    primal_value: float
    dual_value: float
    blocks: list
    x: np.ndarray
    y: np.ndarray
    residuals: Residuals
    iterations: int  # interior-point steps plus map evaluations; 0 for an accepted start
    certificate_ray: Optional[np.ndarray] = None


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
# projection onto K and distance to K*


def _project(program: ConicProgram, v: np.ndarray) -> np.ndarray:
    """The projection of v onto K, block by block; a PSD block already in
    the cone comes back bitwise unchanged."""
    out = v.copy()
    for blk, sl in zip(program.blocks, program.block_slices()):
        if blk.kind == "nonneg":
            np.maximum(out[sl], 0.0, out=out[sl])
        elif blk.kind == "psd":
            P = _clamp(smat(v[sl], blk.size))
            if P is not None:
                rows, cols = packed_indices(blk.size)
                # smat's factor undone by division: `* packed_weights` rounds differently
                out[sl] = P[rows, cols] / (1.0 / packed_weights(blk.size))
    return out


def _dist_dual_cone(program: ConicProgram, v: np.ndarray) -> float:
    """Distance-like measure of v to K* (free components must vanish); a
    NaN in v gives NaN, or LinAlgError from a PSD block's _dsyevd."""
    norms = [0.0]
    for blk, sl in zip(program.blocks, program.block_slices()):
        if blk.kind == "free":
            norms.append(np.linalg.norm(v[sl]))
        else:
            part = _dsyevd(smat(v[sl], blk.size), 0)[0] if blk.kind == "psd" else v[sl]
            norms.append(np.linalg.norm(np.minimum(part, 0.0)))
    return float(np.max(norms))


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


def solve(program: ConicProgram, opts: Optional[SolveOptions] = None,
          warm: Optional[Start] = None) -> Solution:
    """Solve `program` by the interior-point method, which hands its best
    point to the ADMM if it stops short. With `warm`, a Start of this
    program (or a Solution of a program with the same A, whose x and y are
    all that is read): a start that passes the stopping rule once its x is
    projected onto K is returned at iteration 0, and any other start is
    dropped, giving the result of a solve without it. The stopping rule is
    the same in every case. Logs one debug event on the `momentlab` logger:
    the route (with why the interior point stopped, for a hand-off to the
    ADMM), status, iterations and worst residual."""
    opts = opts or SolveOptions()
    sol = None if warm is None else _accept_start(program, warm, opts.tol)
    route = "start accepted at iteration 0"
    if sol is None:
        sol, stop = _interior_point(program, opts)
        route = "interior point"
        if sol is None or (sol.status != "optimal" and sol.iterations < opts.max_iters):
            route = f"ADMM hand-off, interior point stopped by {stop}"
            sol = _admm(program, opts, sol)
    log.debug("solve %d rows: %s; %s after %d iterations, worst residual %.3g",
              program.num_rows, route, sol.status, sol.iterations, sol.residuals.worst())
    return sol


def _measure(program: ConicProgram, x: np.ndarray, y: np.ndarray,
             rd: Optional[float] = None) -> tuple:
    """(c'x, b'y, relative residuals) of the point (x, y) of `program`, x in
    K: what the stopping rule reads. `rd`, the dual residual, when known."""
    pv = float(program.c @ x)
    dv = float(program.b @ y)
    rp = float(np.linalg.norm(program.A @ x - program.b)
               / (1.0 + np.linalg.norm(program.b)))
    if rd is None:
        rd = _dual_residual(program, y)
    gap = abs(pv - dv) / (1.0 + abs(pv) + abs(dv))
    return pv, dv, Residuals(rp, rd, gap)


def _dual_residual(program: ConicProgram, y: np.ndarray) -> float:
    return float(_dist_dual_cone(program, program.c - program.A.T @ y)
                 / (1.0 + np.linalg.norm(program.c)))


def _accept_start(program: ConicProgram, warm: Start, tol: float) -> Optional[Solution]:
    """`warm` as an `optimal` Solution at iteration 0, its x projected onto
    K, when that point passes the stopping rule at `tol`; None otherwise,
    and for a start with an entry that is not finite. The dual residual
    reads y alone, so a start it fails is turned down before x is
    projected."""
    x, y = np.asarray(warm.x, dtype=float), np.array(warm.y, dtype=float)
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        return None
    rd = _dual_residual(program, y)
    if not rd <= tol:
        return None
    x = _project(program, x)
    pv, dv, res = _measure(program, x, y, rd)
    if not res.worst() <= tol:
        return None
    return Solution(status="optimal", primal_value=pv, dual_value=dv,
                    blocks=program.unpack(x), x=x, y=y, residuals=res, iterations=0)


def _scaled_vectors(program: ConicProgram, d_row: np.ndarray, d_col: np.ndarray) -> tuple:
    """(b, c, b_scale, c_scale): the equilibrated b and c, each divided by
    the larger of 1 and its norm, which is kept to map points back."""
    b = d_row * program.b
    c = d_col * program.c
    b_scale = max(1.0, float(np.linalg.norm(b)))
    c_scale = max(1.0, float(np.linalg.norm(c)))
    return b / b_scale, c / c_scale, b_scale, c_scale


# ----------------------------------------------------------------------------
# the interior-point method


class _Group:
    """PSD blocks of one side s and one role, kept or slack, handled as one
    stack of s x s matrices. A slack block is one whose every column has a
    single entry D_p, in a row R_p holding no other cone entry (the rows
    L_J y - slack_J = 0 of a moment program); the Newton system eliminates
    it with those rows, and it enters N on the free columns through
    G = (D^-1 A[R, free])'. A kept block enters the Schur complement M on
    the remaining rows O through its rows there.

    The group's rows come as triplets (i, q, v): row i (of O, or the free
    column i of G) has entry v at the group's packed entry q, entries
    numbered block after block."""

    def __init__(self, slack: bool, size: int, starts: list, k: int, i: np.ndarray,
                 q: np.ndarray, v: np.ndarray):
        self.slack, self.size, self.count, self.k = slack, size, len(starts), k
        s, g = size, len(starts)
        rows, cols = packed_indices(s)
        t = rows.size
        inv_w = 1.0 / packed_weights(s)
        self.packed = (np.asarray(starts)[:, None] + np.arange(t)).ravel()
        self.tri = (np.arange(g)[:, None] * s * s + rows * s + cols).ravel()
        self.inv_w = np.tile(inv_w, g)
        # packed-order position of every entry of the stacked full matrices
        pos = np.empty(s * s, dtype=np.intp)
        pos[rows * s + cols] = pos[cols * s + rows] = np.arange(t)
        self.pos = (np.arange(g)[:, None] * t + pos).ravel()
        self.full_inv_w = self.inv_w[self.pos]
        if slack:
            self.G = sp.csr_matrix((v, (i, q)), shape=(k, g * t))
        # each row as its full symmetric matrices, flattened into row i of a
        # sparse k x (g s^2) matrix and stacked into rows (j k + i) s .. + s - 1
        # of a sparse (g k s) x (g s) one, block j in columns j s .. j s + s - 1
        j, p = np.divmod(q, t)
        a, b = rows[p], cols[p]
        w = v * inv_w[p]
        off = a != b
        i, j = np.r_[i, i[off]], np.r_[j, j[off]]
        a, b, w = np.r_[a, b[off]], np.r_[b, a[off]], np.r_[w, w[off]]
        self.flat = sp.csr_matrix((w, (i, j * s * s + a * s + b)), shape=(k, g * s * s))
        # schur works through the rows in chunks of SCHUR_CHUNK doubles per
        # work array: freed arrays of a few MB raise glibc's mmap threshold,
        # and the heap they then come from is not returned (one array per
        # pass at 165 rows and side 35 put a ladder run's peak RSS 4 MB higher)
        c = max(1, SCHUR_CHUNK // (g * s * s))
        self.chunks = []
        for lo in range(0, k, c):
            hi = min(k, lo + c)
            sel = (i >= lo) & (i < hi)
            self.chunks.append((lo, sp.csr_matrix(
                (w[sel], ((j[sel] * (hi - lo) + i[sel] - lo) * s + a[sel], j[sel] * s + b[sel])),
                shape=(g * (hi - lo) * s, g * s))))

    def full(self, v: np.ndarray) -> np.ndarray:
        """The (count, s, s) stack of the blocks' matrices, from the vector
        v of their packed entries in group order."""
        s = self.size
        return (v[self.pos] * self.full_inv_w).reshape(self.count, s, s)

    def pack(self, M: np.ndarray) -> np.ndarray:
        """The packed entries, in group order, of the symmetric stack M."""
        return M.reshape(-1)[self.tri] / self.inv_w

    def schur(self, P: np.ndarray, Q: np.ndarray) -> np.ndarray:
        """sum over the blocks of the k x k matrix <V_i, P V_j Q> of each
        block's rows V_i, symmetrized. V_j Q is a sparse product, P (V_j Q) a
        stack of s x s products and the inner products one more sparse
        product: no dense product here has an inner dimension above s, which
        keeps it off threaded dgemm."""
        g, k, s = self.count, self.k, self.size
        C = np.empty((k, k))
        for lo, stacked in self.chunks:
            c = stacked.shape[0] // (g * s)
            T = (stacked @ Q.reshape(g * s, s)).reshape(g, c, s, s)
            W = np.matmul(P[:, None], T).transpose(0, 2, 3, 1).reshape(g * s * s, c)
            C[:, lo:lo + c] = self.flat @ W
        return 0.5 * (C + C.T)


class _InteriorPlan:
    """What the interior-point method and the ADMM read of a program's A,
    built once: the equilibrated A (_equilibrate) and, from its coordinate
    arrays, the free and nonnegative columns, the rows O left once the
    slack blocks' rows are eliminated, the PSD blocks in _Groups, each
    block's row norms for the start, and the factors of A A' and A_f' A_f
    the corrector's projections use. A moment program's slacks are slack
    blocks, so its Newton system has the size of its moments plus its rows
    outside the slack rows."""

    def __init__(self, program: ConicProgram):
        A, self.d_row, self.d_col = _equilibrate(program)
        self.AT, self.gram_lu = _factor_gram(A)
        self.A = A
        m, n = A.shape
        row = np.repeat(np.arange(m), np.diff(A.indptr))
        col, val = A.indices, A.data
        FREE, NONNEG, PSD = 0, 1, 2
        kind = np.empty(n, dtype=np.int8)
        block = np.full(n, -1)  # PSD block of each column
        psd = []                # (side, first column) per PSD block
        for blk, sl in zip(program.blocks, program.block_slices()):
            kind[sl] = {"free": FREE, "nonneg": NONNEG, "psd": PSD}[blk.kind]
            if blk.kind == "psd":
                block[sl] = len(psd)
                psd.append((blk.size, sl.start))
        self.free, self.nonneg = np.flatnonzero(kind == FREE), np.flatnonzero(kind == NONNEG)
        self.degree = self.nonneg.size + sum(s for s, _ in psd)
        index = np.full(n, -1)  # position of a free or nonnegative column among its kind
        index[self.free], index[self.nonneg] = np.arange(self.free.size), np.arange(self.nonneg.size)

        # slack blocks: every column one entry, in a row with no other cone entry
        col_kind = kind[col]
        in_cone = col_kind != FREE
        cone_entries = np.bincount(row[in_cone], minlength=m)
        entries = np.bincount(col, minlength=n)
        entry_row, entry_val = np.zeros(n, dtype=np.intp), np.zeros(n)
        entry_row[col], entry_val[col] = row, val
        slack = [bool(np.all(entries[c0:c0 + s * (s + 1) // 2] == 1)
                      and np.all(cone_entries[entry_row[c0:c0 + s * (s + 1) // 2]] == 1))
                 for s, c0 in psd]
        slack_row = np.zeros(m, dtype=bool)
        for (s, c0), is_slack in zip(psd, slack):
            if is_slack:
                slack_row[entry_row[c0:c0 + s * (s + 1) // 2]] = True
        self.O = np.flatnonzero(~slack_row)
        o_index = np.full(m, -1)
        o_index[self.O] = np.arange(self.O.size)
        in_O = ~slack_row[row]

        # the groups: each PSD entry's group and its number q there; a slack
        # block's rows carry the group and q of their one cone entry
        members = {}
        for jb, ((s, c0), is_slack) in enumerate(zip(psd, slack)):
            members.setdefault((is_slack, s), []).append((jb, c0))
        entry_group, entry_q = np.full(n, -1), np.zeros(n, dtype=np.intp)
        row_group, row_q = np.full(m, -1), np.zeros(m, dtype=np.intp)
        self.groups = []
        for gid, ((is_slack, s), blocks) in enumerate(sorted(members.items())):
            t = s * (s + 1) // 2
            starts = [c0 for _, c0 in blocks]
            cols = (np.asarray(starts)[:, None] + np.arange(t)).ravel()
            entry_group[cols], entry_q[cols] = gid, np.arange(cols.size)
            if is_slack:
                row_group[entry_row[cols]], row_q[entry_row[cols]] = gid, np.arange(cols.size)
                D = entry_val[cols]
                sel = (row_group[row] == gid) & ~in_cone
                grp = _Group(True, s, starts, self.free.size, index[col[sel]], row_q[row[sel]],
                             val[sel] / D[row_q[row[sel]]])
                grp.rows, grp.D = entry_row[cols], D
            else:
                sel = in_O & (entry_group[col] == gid)
                grp = _Group(False, s, starts, self.O.size, o_index[row[sel]],
                             entry_q[col[sel]], val[sel])
            self.groups.append(grp)

        # the slack groups' entries side by side, for one product with G and
        # one with G' per solve
        slack_groups = [grp for grp in self.groups if grp.slack]
        offset = 0
        for grp in slack_groups:
            grp.span = slice(offset, offset + grp.packed.size)
            offset = grp.span.stop
        self.slack_packed = np.concatenate([grp.packed for grp in slack_groups] + [[]]).astype(np.intp)
        self.slack_rows = np.concatenate([grp.rows for grp in slack_groups] + [[]]).astype(np.intp)
        self.slack_D = np.concatenate([grp.D for grp in slack_groups] + [[]])
        self.G = sp.hstack([grp.G for grp in slack_groups], format="csr") if slack_groups else None
        self.GT = None if self.G is None else self.G.T.tocsr()
        self.kept = self.nonneg.size > 0 or len(slack_groups) < len(self.groups)
        sel = in_O & ~in_cone
        self.A_free_O = np.zeros((self.O.size, self.free.size))
        self.A_free_O[o_index[row[sel]], index[col[sel]]] = val[sel]
        sel = in_O & (col_kind == NONNEG)
        self.A_nonneg_O = sp.csr_matrix((val[sel], (o_index[row[sel]], index[col[sel]])),
                                        shape=(self.O.size, self.nonneg.size))
        # row norms of A on each PSD block and on the nonnegative columns
        sq = np.bincount(np.where(block[col] >= 0, block[col], len(psd)) * m + row,
                         weights=val * val, minlength=(len(psd) + 1) * m).reshape(-1, m)
        self.row_norms = np.sqrt(sq[:len(psd)])
        self.nonneg_row_norms = np.sqrt(np.bincount(row[col_kind == NONNEG],
                                                    weights=val[col_kind == NONNEG] ** 2,
                                                    minlength=m))
        self.psd = psd
        sel = ~in_cone
        self.A_free = sp.csr_matrix((val[sel], (row[sel], index[col[sel]])),
                                    shape=(m, self.free.size))
        self.A_free_T = self.A_free.T.tocsr()
        size = self.O.size + self.free.size  # K's CSC arrays, every entry stored
        self.dense_pattern = (np.tile(np.arange(size), size), np.arange(size + 1) * size)
        self.free_lu = None  # without free columns, or with dependent ones, no dual projection
        if self.free.size:
            try:
                self.free_lu = spla.splu((self.A_free_T @ self.A_free).tocsc(),
                                         permc_spec="MMD_AT_PLUS_A")
            except RuntimeError:
                pass

    def start(self, b: np.ndarray, c: np.ndarray) -> tuple:
        """(x, s) of the starting point: xi I and eta I on each PSD block and
        xi, eta on the nonnegative entries, with SDPT3's infeasible start
        (Toh, Todd & Tutuncu 1999): xi = max(10, sqrt(d), d max_i (1 + |b_i|)
        / (1 + |A_i|)) and eta = max(10, sqrt(d), |A_i|, |c|) over a block of
        side d, |A_i| being the norm of row i of A on the block."""
        x, z = np.zeros(self.A.shape[1]), np.zeros(self.A.shape[1])

        def scales(d: int, row_norms: np.ndarray, c_part: np.ndarray) -> tuple:
            root = math.sqrt(d)
            return (max(10.0, root, d * float(np.max((1.0 + np.abs(b)) / (1.0 + row_norms)))),
                    max(10.0, root, float(row_norms.max()), float(np.linalg.norm(c_part))))

        if self.nonneg.size:
            x[self.nonneg], z[self.nonneg] = scales(self.nonneg.size, self.nonneg_row_norms,
                                                    c[self.nonneg])
        for (s, c0), norms in zip(self.psd, self.row_norms):
            rows, cols = packed_indices(s)
            ix = c0 + np.arange(rows.size)
            xi, eta = scales(s, norms, c[ix])
            x[ix], z[ix] = xi * (rows == cols), eta * (rows == cols)
        return x, z


class _Newton:
    """The Newton system at one interior point (x, s): per group the stacked
    X and S, their inverse roots (_inverse_roots) and the pair (P, Q) of the
    operator V -> sym(P V Q) (X, S^-1 on kept blocks: the HKM direction;
    S, X^-1 on slack blocks, where the roles of the two sides swap), and the
    LU factor of K = [[M, A[O, free]], [A[O, free]', -N]] (solve_K)."""

    def __init__(self, plan: _InteriorPlan, x: np.ndarray, s: np.ndarray):
        self.plan = plan
        self.ratio = x[plan.nonneg] / s[plan.nonneg]
        o, nf = plan.O.size, plan.free.size
        K = np.zeros((o + nf, o + nf))
        self.mats = []
        for grp in plan.groups:
            X, S = grp.full(x[grp.packed]), grp.full(s[grp.packed])
            Rx, Rs = _inverse_roots(X), _inverse_roots(S)
            R = Rx if grp.slack else Rs
            P, Q = (S if grp.slack else X), R @ R.transpose(0, 2, 1)
            if grp.slack:
                K[o:, o:] -= grp.schur(P, Q)
            else:
                K[:o, :o] += grp.schur(P, Q)
            self.mats.append((X, S, Rx, Rs, P, Q))
        if plan.nonneg.size:
            Anz = plan.A_nonneg_O
            K[:o, :o] += (Anz @ sp.diags(self.ratio) @ Anz.T).toarray()
        K[:o, o:] = plan.A_free_O
        K[o:, :o] = plan.A_free_O.T
        if not K.size:
            self.solve_K = None
        elif K.size < 10_000:
            # OpenBLAS runs dgetrf on one thread below 10^4 entries
            lu, piv, info = lapack.dgetrf(K, overwrite_a=1)
            if info != 0:
                raise np.linalg.LinAlgError("singular Newton system")
            self.solve_K = lambda rhs: lapack.dgetrs(lu, piv, rhs)[0]
        else:
            # SuperLU on K's dense columns: under two OpenBLAS threads dgetrf,
            # dpotrf and dsytrf on 166 rows can take 50-180 ms a call
            # (whenever the BLAS worker waits for a CPU); splu never does
            dense = sp.csc_matrix((K.ravel(), *plan.dense_pattern), shape=K.shape)
            try:
                self.solve_K = spla.splu(dense, permc_spec="NATURAL").solve
            except RuntimeError as err:  # exactly singular
                raise np.linalg.LinAlgError(str(err)) from err

    def op(self, j: int, V: np.ndarray) -> np.ndarray:
        P, Q = self.mats[j][4:]
        W = P @ V @ Q
        return 0.5 * (W + W.transpose(0, 2, 1))

    def direction(self, rp: np.ndarray, rd: np.ndarray, T: list, tn: np.ndarray,
                  polish: bool = False) -> tuple:
        """(dx, dy, ds) solving A dx = rp, A'dy + ds = rd (ds = 0 on free
        entries) and the linearized complementarity: dX = T - op(dS) on kept
        blocks, dS = T - op(dX) on slack ones (T per group), and dx = tn -
        (x/s) ds on nonnegative entries. With `polish`, IPM_REFINE steps of
        iterative refinement on the residuals of the two linear equations
        follow, and then their projections: dx onto A dx = rp, and dy onto
        the free columns' A_f'dy = rd_f."""
        plan = self.plan
        dx, dy, ds = self._solve(rp, rd, T, tn)
        zero = [np.zeros_like(t) for t in T]
        for _ in range(IPM_REFINE if polish else 0):
            # ds is 0 on the free entries, so ey there is the free columns' own residual
            ey = rd - plan.AT @ dy - ds
            cx, cy, cs = self._solve(rp - plan.A @ dx, ey, zero, np.zeros_like(tn))
            dx, dy, ds = dx + cx, dy + cy, ds + cs
        if polish:
            dx += plan.AT @ plan.gram_lu.solve(rp - plan.A @ dx)
            if plan.free_lu is not None:
                dy += plan.A_free @ plan.free_lu.solve(rd[plan.free] - plan.A_free_T @ dy)
                ds = rd - plan.AT @ dy
                ds[plan.free] = 0.0
        return dx, dy, ds

    def _solve(self, rp: np.ndarray, rd: np.ndarray, T: list, tn: np.ndarray) -> tuple:
        plan = self.plan
        o = plan.O.size
        u = np.zeros_like(rd)
        h2 = rd[plan.free].copy()
        w = rd[plan.slack_packed]
        for j, grp in enumerate(plan.groups):
            if grp.slack:
                V = grp.full(rp[grp.rows] / grp.D)
                w[grp.span] -= grp.pack(T[j] - self.op(j, V))
            else:
                u[grp.packed] = grp.pack(T[j] - self.op(j, grp.full(rd[grp.packed])))
        if plan.G is not None:
            h2 -= plan.G @ w
        u[plan.nonneg] = tn - self.ratio * rd[plan.nonneg]
        rhs = np.concatenate((((rp - plan.A @ u) if plan.kept else rp)[plan.O], h2))
        sol = rhs if self.solve_K is None else self.solve_K(rhs)
        dy = np.zeros_like(rp)
        dy[plan.O] = sol[:o]
        dx = np.zeros_like(rd)
        dx[plan.free] = sol[o:]
        if plan.G is not None:
            dx[plan.slack_packed] = rp[plan.slack_rows] / plan.slack_D - plan.GT @ sol[o:]
        for j, grp in enumerate(plan.groups):
            if grp.slack:
                dS = T[j] - self.op(j, grp.full(dx[grp.packed]))
                dy[grp.rows] = (rd[grp.packed] - grp.pack(dS)) / grp.D
        ds = rd - plan.AT @ dy
        ds[plan.free] = 0.0
        for j, grp in enumerate(plan.groups):
            if not grp.slack:
                dx[grp.packed] = grp.pack(T[j] - self.op(j, grp.full(ds[grp.packed])))
        dx[plan.nonneg] = tn - self.ratio * ds[plan.nonneg]
        return dx, dy, ds

    def step_to_boundary(self, v: np.ndarray, dv: np.ndarray, primal: bool) -> float:
        """The largest step t with v + t dv in K (inf when every t is), v
        being x (primal) or s."""
        nn = self.plan.nonneg
        t = math.inf
        down = dv[nn] < 0.0
        if down.any():
            t = float(np.min(-v[nn][down] / dv[nn][down]))
        for grp, (_, _, Rx, Rs, _, _) in zip(self.plan.groups, self.mats):
            R = Rx if primal else Rs
            low = min(_dsyevd(Z, 0)[0][0] for Z in R.transpose(0, 2, 1) @ grp.full(dv[grp.packed]) @ R)
            if low < 0.0:
                t = min(t, -1.0 / low)
        return t

    def predictor(self) -> list:
        """The complementarity right-hand sides with sigma = 0: -X on kept
        blocks, -S on slack ones."""
        return [-(S if grp.slack else X) for grp, (X, S, *_) in zip(self.plan.groups, self.mats)]

    def corrector(self, sigma_mu: float, dx: np.ndarray, ds: np.ndarray) -> list:
        """Mehrotra's right-hand sides after the predictor (dx, ds): sigma mu
        S^-1 - X - sym(dX dS S^-1) on kept blocks, sigma mu X^-1 - S -
        sym(dS dX X^-1) on slack ones."""
        out = []
        for grp, (X, S, _, _, _, Q) in zip(self.plan.groups, self.mats):
            dX, dS = grp.full(dx[grp.packed]), grp.full(ds[grp.packed])
            W = (dS @ dX if grp.slack else dX @ dS) @ Q
            out.append(sigma_mu * Q - (S if grp.slack else X) - 0.5 * (W + W.transpose(0, 2, 1)))
        return out


def _inverse_roots(M: np.ndarray) -> np.ndarray:
    """R = L^-T per matrix of the stack M of positive definite matrices,
    L its Cholesky factor: M^-1 = R R', and R' N R = L^-1 N L^-T has the
    eigenvalues of M^-1/2 N M^-1/2. Batched numpy Cholesky and inverse, not
    dpotri or dtrtrs: under two OpenBLAS threads those take 8-40 ms on
    blocks of side 6-20, against 0.003 ms on one."""
    return np.linalg.inv(np.linalg.cholesky(M)).transpose(0, 2, 1)


def _interior_point(program: ConicProgram, opts: SolveOptions) -> tuple:
    """Primal-dual path following on the equilibrated program, with the HKM
    direction and Mehrotra's predictor-corrector (SDPT3), free columns
    through the augmented system and nonnegative ones as diagonal terms.
    Returns (solution, why it stopped): the first step's point that passes
    the stopping rule, as `optimal`, or else the best one met as
    `max_iters`, or None when no step reached a point with finite
    residuals. It stops short after IPM_MAX_ITERS steps, or opts.max_iters,
    or at a non-finite step, or once neither step length reaches
    IPM_MIN_STEP, or when a Cholesky factor or the Newton system fails.

    A step's point is screened from the scaled residuals the next step
    needs anyway: the primal residual and the gap are the rule's own, and
    as the slack s lies inside K*, the scaled dual residual rd bounds the
    rule's dual residual, dist(s + rd, K*) <= |rd|. Only a point whose bound
    passes is measured in full (_measure), and only that measure accepts it."""
    plan = program._interior
    if plan.degree == 0:
        return None, "a program without cone entries"
    A, d_row, d_col, AT, nn = plan.A, plan.d_row, plan.d_col, plan.AT, plan.nonneg
    b, c, b_scale, c_scale = _scaled_vectors(program, d_row, d_col)
    b_norm, c_norm = 1.0 + np.linalg.norm(program.b), 1.0 + np.linalg.norm(program.c)

    def screen(rp, rd):
        pv, dv = b_scale * c_scale * float(c @ x), b_scale * c_scale * float(b @ y)
        return max(b_scale * float(np.linalg.norm(rp / d_row)) / b_norm,
                   c_scale * float(np.linalg.norm(rd / d_col)) / c_norm,
                   abs(pv - dv) / (1.0 + abs(pv) + abs(dv)))

    def point():
        x_orig, y_orig = d_col * x * b_scale, c_scale * (d_row * y)
        return (x_orig, y_orig, *_measure(program, x_orig, y_orig))

    x, s = plan.start(b, c)
    y = np.zeros(A.shape[0])
    rp, rd = b - A @ x, c - AT @ y - s
    best, best_bound, found, steps = None, math.inf, None, 0
    cap = min(IPM_MAX_ITERS, opts.max_iters)
    stop = f"the cap of {cap} steps"
    # an infeasible or unbounded program drives the iterates to overflow;
    # that ends the loop through LinAlgError or a non-finite step, and a
    # point whose residuals overflow is never the best one
    with np.errstate(all="ignore"):
        for _ in range(cap):
            mu = float(x @ s) / plan.degree
            newton = None  # free the last step's system first: it keeps peak memory down
            try:
                newton = _Newton(plan, x, s)
                dx, dy, ds = newton.direction(rp, rd, newton.predictor(), -x[nn])
                tp = min(1.0, newton.step_to_boundary(x, dx, True))
                td = min(1.0, newton.step_to_boundary(s, ds, False))
                mu_aff = float((x + tp * dx) @ (s + td * ds)) / plan.degree
                sigma = min(1.0, max(0.0, mu_aff / mu) ** max(1.0, 3.0 * min(tp, td) ** 2))
                tn = sigma * mu / s[nn] - x[nn] - dx[nn] * ds[nn] / s[nn]
                dx, dy, ds = newton.direction(rp, rd, newton.corrector(sigma * mu, dx, ds), tn,
                                              polish=True)
                tp = min(1.0, IPM_STEP * newton.step_to_boundary(x, dx, True))
                td = min(1.0, IPM_STEP * newton.step_to_boundary(s, ds, False))
                if not (np.all(np.isfinite(dx)) and np.all(np.isfinite(dy))
                        and np.all(np.isfinite(ds)) and math.isfinite(tp) and math.isfinite(td)):
                    stop = "a non-finite step"
                    break
                x, y, s = x + tp * dx, y + td * dy, s + td * ds
                s[plan.free] = 0.0
                steps += 1
                rp, rd = b - A @ x, c - AT @ y - s
                bound = screen(rp, rd)
                if bound < best_bound:
                    best, best_bound = (x, y), bound
                if bound <= opts.tol:
                    found = point()
                    if found[4].worst() <= opts.tol:
                        stop = "the stopping rule"
                        break
                    found = None
            except np.linalg.LinAlgError as err:
                stop = f"LinAlgError '{err}' at step {steps}"
                break
            if max(tp, td) < IPM_MIN_STEP:
                stop = "steps below IPM_MIN_STEP"
                break
        if found is None and best is not None:
            x, y = best
            try:
                found = point()
            except np.linalg.LinAlgError:
                pass
    if found is None:
        return None, stop
    x_orig, y_orig, pv, dv, res = found
    return Solution(status="optimal" if res.worst() <= opts.tol else "max_iters",
                    primal_value=pv, dual_value=dv, blocks=program.unpack(x_orig),
                    x=x_orig, y=y_orig, residuals=res, iterations=steps), stop


# ----------------------------------------------------------------------------
# the ADMM


def _admm(program: ConicProgram, opts: SolveOptions, start: Optional[Solution]) -> Solution:
    """The ADMM from the interior point's `start` (from zero without it),
    for at most opts.max_iters map evaluations in all; the Solution's
    iterations count the start's too."""
    n = program.num_vars
    plan = program._interior
    A, d_row, d_col, AT, lu = plan.A, plan.d_row, plan.d_col, plan.AT, plan.gram_lu
    b, c, b_scale, c_scale = _scaled_vectors(program, d_row, d_col)

    rho = RHO
    z = np.zeros(n)
    u = np.zeros(n)
    if start is not None:
        z = (start.x / d_col) / b_scale
        slack = program.c - program.A.T @ start.y
        u = -(d_col * slack) / (c_scale * rho)

    def report(z_cur, nu_cur):
        x_orig = d_col * z_cur * b_scale
        y_orig = -c_scale * (d_row * nu_cur)
        return (x_orig, y_orig, *_measure(program, x_orig, y_orig))

    def fixed_point_map(w_in):
        """(T(w_in), z = Π_K(w_in), nu): one projection and one linear solve."""
        z_in = _project(program, w_in)
        v = 2.0 * z_in - w_in  # z - u
        nu_in = lu.solve(A @ (rho * v - c) - rho * b)
        x = v - (c + AT @ nu_in) / rho
        return w_in + OVER_RELAX * (x - z_in), z_in, nu_in

    spent = 0 if start is None else start.iterations
    budget = opts.max_iters - spent
    w = z + u  # the point evaluated next
    best = None
    stall_anchor = math.inf
    stall_count = 0
    status = "max_iters"
    certificate = None

    for it in range(1, budget + 1):
        tw, z_new, nu = fixed_point_map(w)
        z_prev, z = z, z_new

        if it % CHECK_EVERY == 0 or it == budget:
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
                ray = _infeasibility_ray(program, y_orig)
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
                # u = w - z is scaled by 1/rho: rescale it and evaluate w again
                rho *= scale
                tw = z + (w - z) / scale
        w = tw

    x_orig, y_orig, pv, dv, res = best
    return Solution(status=status, primal_value=pv, dual_value=dv,
                    blocks=program.unpack(x_orig), x=x_orig, y=y_orig,
                    residuals=res, iterations=spent + it, certificate_ray=certificate)


def _infeasibility_ray(program: ConicProgram, y_candidate: np.ndarray) -> Optional[np.ndarray]:
    """Normalized improving-ray test: a y with A'y in K* and b'y < 0 certifies
    primal infeasibility."""
    nrm = float(np.linalg.norm(y_candidate))
    if nrm < 1e-12:
        return None
    for sgn in (1.0, -1.0):
        cand = sgn * y_candidate / nrm
        if (program.b @ cand) < -1e-9 and _dist_dual_cone(program, program.A.T @ cand) <= 1e-7:
            return cand
    return None
