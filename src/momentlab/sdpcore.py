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

`solve_many(program, objectives, opts)` solves one program under D
objectives. The interior-point loop carries a leading axis of D: the
iterates are (D, n) arrays, each group's matrices (D, count, s, s) stacks
with one batched Cholesky and inverse, and one sparse product takes every
direction's columns, while each direction keeps its own factor of K, step
lengths, sigma, screen, measure and stopping rule and is masked out once it
stops. `solve` runs the same loop with D = 1. So that a lone solve costs
no more than a loop over one objective, the per-direction bookkeeping is
in Python floats, a single row is assigned and dotted as a vector (`_put`,
`_dots`), X and S share one Cholesky and inverse call, the predictor and
corrector share the residuals' part of their right-hand sides, and a
role's groups are gathered and packed together (`_Side`). Each row rounds
as a loop over one objective does: its dot products go to BLAS ddot, sigma
is taken in Python floats, and the step lengths' eigenvalues come from
scipy's `dsyevd`, one matrix a call. (numpy's `eigvalsh` runs another
OpenBLAS build, which rounds apart in the last bit, and the path amplifies
that: it moved 2 of the 200 direction values of four `distance` passes by
1.5e-8.) So a direction's values do not depend on D. Each direction's
lockstep point is then handed to `solve` as its start, so the stopping rule
is applied again on that direction's own data and a passing point comes
back at iteration 0; a direction the lockstep left short gets the cold
solve and the ADMM hand-off of a lone `solve`. Every Solution is thus one
`solve` call's.

The interior-point method is primal-dual path following with the HKM
direction and Mehrotra's predictor-corrector (SDPT3: Toh, Todd & Tütüncü
1999) on the equilibrated program. Free columns enter through the
augmented system. The method knows one cone: a nonnegative entry is a PSD
block of side 1, on which the HKM direction and Mehrotra's corrector are
the LP's diagonal terms. A PSD block whose columns are single entries in
rows of their own (a moment program's slacks L_J y − slack_J = 0) is
eliminated with those rows, so the Newton system
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
    scipy dsyevd, eigenvalues only,   median 5.2 ms, up to 129 ms
      side 153, rank one              (numpy eigvalsh 0.9 ms, at most 1.5 ms)
    scipy dsyevd, eigenvalues only,   median 0.6 ms, up to 9 ms
      side 136, zero                  (numpy eigvalsh 0.7 ms, up to 28 ms)

Products up to (84 x 100)(100 x 84), gemv, scipy's `dsyevd` with and
without vectors on blocks up to side 35, and numpy's batched Cholesky and
inverse on the blocks met here are not slowed, nor is `dgetrf` below 10^4
entries, which OpenBLAS runs on one thread. So K is factored by `dgetrf`
up to 99 rows and by SuperLU above, inverses come from those batched
calls, every eigenvalue from `dsyevd` (`_dsyevd`), and no dense product has
an inner dimension above a block's side. The rows at sides 136 and 153 are
the start checks of the simplex upper series (Q, r = 16; 15 checks per
process, three processes per kernel), the only blocks above side 35 met
so far. Whether numpy's `eigvalsh` serves them better is open: its own
slow calls at side 136 reach 28 ms, and with it the slow calls at side 153
move to the eigenvector call (median 5 ms, up to 128 ms). The step lengths
take one `dsyevd` call per matrix, so each nonnegative entry costs a call
per step length; the only nonnegative block built, the R certificate's
multipliers of the squared equalities, has one entry per equality, and the
catalog sets have at most one.

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
another objective. Distinct `solve` calls share nothing else; the D
directions of one `solve_many` call share that plan and the lockstep's
batched kernels, which compute each row as a lone solve does, so a
direction's result does not depend on the others or on their order.
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
        for name, data in (("objective c", c), ("right-hand side b", b),
                           ("constraint matrix A", A.data)):
            if not np.all(np.isfinite(data)):
                raise ValueError(f"{name} has an entry that is not finite")
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
        ((sol, stop),), _ = _interior_point([program], opts)
        route = "interior point"
        if sol is None or (sol.status != "optimal" and sol.iterations < opts.max_iters):
            route = f"ADMM hand-off, interior point stopped by {stop}"
            sol = _admm(program, opts, sol)
    log.debug("solve %d rows: %s; %s after %d iterations, worst residual %.3g",
              program.num_rows, route, sol.status, sol.iterations, sol.residuals.worst())
    return sol


def solve_many(program: ConicProgram, objectives, opts: Optional[SolveOptions] = None) -> list:
    """solve(program.with_objective(c), opts) for every objective c (rows
    of `objectives`), the interior-point method run on all of them in
    lockstep on the program's one plan. Each direction's lockstep point is
    then its start: solve(program.with_objective(c_d), opts, warm=Start(x_d,
    y_d)) applies the stopping rule again on the original data and returns a
    passing point at iteration 0, and a direction the lockstep left short
    goes on alone (the cold solve, then the ADMM hand-off). So every
    Solution is one `solve` call's, certified by its own residuals, and
    does not depend on the other objectives. Logs one debug event on the
    `momentlab` logger: the number of objectives, the lockstep steps, how
    many were accepted at iteration 0, and each one that went on alone with
    why the lockstep stopped it."""
    opts = opts or SolveOptions()
    programs = [program.with_objective(c) for c in objectives]
    if not programs:
        return []
    results, steps = _interior_point(programs, opts)
    out, alone = [], []
    for d, (prog, (sol, stop)) in enumerate(zip(programs, results)):
        out.append(solve(prog, opts, None if sol is None else Start(sol.x, sol.y)))
        if out[-1].iterations:
            alone.append(f"{d} (stopped by {stop})")
    log.debug("solve_many %d objectives, %d rows: %d lockstep steps; %d accepted at "
              "iteration 0; went on alone: %s", len(programs), program.num_rows, steps,
              len(programs) - len(alone), ", ".join(alone) or "none")
    return out


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
        self.at = self.packed[self.pos]  # the column of A behind each such entry
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

    def schur(self, P: np.ndarray, Q: np.ndarray) -> list:
        """Per direction d, the sum over the blocks of the k x k matrix
        <V_i, P_d V_j Q_d> of each block's rows V_i, symmetrized; P and Q are
        (D, count, s, s). V_j Q is a sparse product, P (V_j Q) a stack of
        s x s products and the inner products one more sparse product: no
        dense product here has an inner dimension above s, which keeps it
        off threaded dgemm. A chunk's product takes the Q of as many
        directions as keep each work array within SCHUR_CHUNK doubles, and
        each direction's matrix is an array of its own."""
        D, g, k, s = P.shape[0], self.count, self.k, self.size
        C = [np.empty((k, k)) for _ in range(D)]
        for lo, stacked in self.chunks:
            c = stacked.shape[0] // (g * s)
            batch = max(1, SCHUR_CHUNK // (c * g * s * s))
            for d0 in range(0, D, batch):
                n = min(batch, D - d0)
                Qn = Q[d0:d0 + n].transpose(1, 2, 0, 3).reshape(g * s, n * s)
                T = (stacked @ Qn).reshape(g, c, s, n, s).transpose(3, 0, 1, 2, 4)
                W = np.matmul(P[d0:d0 + n, :, None], T).transpose(1, 3, 4, 0, 2)
                part = (self.flat @ W.reshape(g * s * s, n * c)).reshape(k, n, c)
                for i in range(n):
                    C[d0 + i][:, lo:lo + c] = part[:, i]
        return [0.5 * (Cd + Cd.T) for Cd in C]


class _Side:
    """Groups side by side (the kept ones, the slack ones, or all): one
    gather of a vector builds every group's stacks and one take packs them,
    where a call per group would pay numpy's cost per call once a group."""

    def __init__(self, groups: list):
        def joined(arrays, dtype=float):
            return np.concatenate(arrays + [[]]).astype(dtype)

        self.groups = groups
        sizes = [grp.count * grp.size * grp.size for grp in groups]
        starts = np.cumsum([0] + sizes)
        self.spans = [slice(a, b) for a, b in zip(starts[:-1], starts[1:])]
        self.packed = joined([grp.packed for grp in groups], np.intp)
        self.at = joined([grp.at for grp in groups], np.intp)
        self.full_inv_w = joined([grp.full_inv_w for grp in groups])
        self.tri = joined([grp.tri + a for grp, a in zip(groups, starts)], np.intp)
        self.inv_w = joined([grp.inv_w for grp in groups])
        if groups and groups[0].slack:
            self.rows = joined([grp.rows for grp in groups], np.intp)
            self.D = joined([grp.D for grp in groups])
            self.row_at = joined([grp.rows[grp.pos] for grp in groups], np.intp)
            self.D_at = joined([grp.D[grp.pos] for grp in groups])

    def _split(self, F: np.ndarray) -> list:
        return [F[:, sl].reshape(-1, grp.count, grp.size, grp.size)
                for grp, sl in zip(self.groups, self.spans)]

    def full(self, v: np.ndarray) -> list:
        """Per group, the (D, count, s, s) stacks of the blocks' matrices in
        the rows v (D, n) of vectors over A's columns."""
        if not self.groups:
            return []
        return self._split(v.take(self.at, axis=1) * self.full_inv_w)

    def full_rows(self, r: np.ndarray) -> list:
        """Per slack group, the stacks whose packed entries are the rows r
        (D, m), over A's rows, divided by D at the group's rows R."""
        return self._split(r.take(self.row_at, axis=1) / self.D_at * self.full_inv_w)

    def pack(self, mats: list) -> np.ndarray:
        """The packed entries (D, ...), group after group, of the symmetric
        stacks mats, one per group."""
        F = [M.reshape(M.shape[0], -1) for M in mats]
        F = F[0] if len(F) == 1 else np.concatenate(F, axis=1)
        return F.take(self.tri, axis=1) / self.inv_w


class _InteriorPlan:
    """What the interior-point method and the ADMM read of a program's A,
    built once: the equilibrated A (_equilibrate) and, from its coordinate
    arrays, the free columns, the rows O left once the slack blocks' rows
    are eliminated, the PSD blocks in _Groups (and side by side in _Sides),
    each block's row norms for the start, and the factors of A A' and
    A_f' A_f the corrector's projections use. Each entry of a nonnegative
    block is a PSD block of side 1 here, so every cone column is a PSD
    block's. A moment program's slacks are slack blocks, so its Newton
    system has the size of its moments plus its rows outside the slack
    rows."""

    def __init__(self, program: ConicProgram):
        A, self.d_row, self.d_col = _equilibrate(program)
        self.AT, self.gram_lu = _factor_gram(A)
        self.A = A
        m, n = A.shape
        row = np.repeat(np.arange(m), np.diff(A.indptr))
        col, val = A.indices, A.data
        block = np.full(n, -1)  # PSD block of each column, -1 on free ones
        psd = []                # (side, first column) per PSD block
        for blk, sl in zip(program.blocks, program.block_slices()):
            if blk.kind != "free":  # a nonnegative entry is a PSD block of side 1
                side = blk.size if blk.kind == "psd" else 1
                t = side * (side + 1) // 2
                for c0 in range(sl.start, sl.stop, t):
                    block[c0:c0 + t] = len(psd)
                    psd.append((side, c0))
        self.free = np.flatnonzero(block < 0)
        self.degree = sum(s for s, _ in psd)
        index = np.full(n, -1)  # position of a free column among the free ones
        index[self.free] = np.arange(self.free.size)

        # slack blocks: every column one entry, in a row with no other cone entry
        in_cone = block[col] >= 0
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

        # the groups side by side, kept ones first (as they sort), and the
        # slack ones' G in one product with G and one with G' per solve
        self.every = _Side(self.groups)
        self.kept = _Side([grp for grp in self.groups if not grp.slack])
        self.slack = _Side([grp for grp in self.groups if grp.slack])
        slack_groups = self.slack.groups
        self.G = sp.hstack([grp.G for grp in slack_groups], format="csr") if slack_groups else None
        self.GT = None if self.G is None else self.G.T.tocsr()
        self.uses_u = bool(self.kept.groups)
        sel = in_O & ~in_cone
        self.A_free_O = np.zeros((self.O.size, self.free.size))
        self.A_free_O[o_index[row[sel]], index[col[sel]]] = val[sel]
        # row norms of A on each PSD block
        sq = np.bincount(np.where(in_cone, block[col], len(psd)) * m + row,
                         weights=val * val, minlength=(len(psd) + 1) * m).reshape(-1, m)
        self.row_norms = np.sqrt(sq[:len(psd)])
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
        """(x, s) of the starting point: xi I and eta I on each PSD block
        (a nonnegative entry is one of side 1), with SDPT3's infeasible start
        (Toh, Todd & Tutuncu 1999): xi = max(10, sqrt(d), d max_i (1 + |b_i|)
        / (1 + |A_i|)) and eta = max(10, sqrt(d), |A_i|, |c|) over a block of
        side d, |A_i| being the norm of row i of A on the block."""
        x, z = np.zeros(self.A.shape[1]), np.zeros(self.A.shape[1])
        for (s, c0), norms in zip(self.psd, self.row_norms):
            rows, cols = packed_indices(s)
            ix = c0 + np.arange(rows.size)
            root = math.sqrt(s)
            xi = max(10.0, root, s * float(np.max((1.0 + np.abs(b)) / (1.0 + norms))))
            eta = max(10.0, root, float(norms.max()), float(np.linalg.norm(c[ix])))
            x[ix], z[ix] = xi * (rows == cols), eta * (rows == cols)
        return x, z


class _Stopped(Exception):
    """Directions of a lockstep step that cannot take it: their positions in
    the step's batch, each with the message of its LinAlgError."""

    def __init__(self, reasons: dict):
        super().__init__(reasons)
        self.reasons = reasons


def _each(fn, M: np.ndarray) -> np.ndarray:
    """fn of the stacks M (D, ...), one batched call; when it raises
    LinAlgError, the directions whose own stacks raise it, as _Stopped."""
    try:
        return fn(M)
    except np.linalg.LinAlgError:
        reasons = {}
        for d in range(M.shape[0]):
            try:
                fn(M[d:d + 1])
            except np.linalg.LinAlgError as err:
                reasons[d] = str(err)
        if not reasons:
            raise
        raise _Stopped(reasons) from None


def _pairs(U: np.ndarray, V: np.ndarray) -> np.ndarray:
    """The rows u_0, v_0, u_1, v_1, ... of U and V (D, n), as (2 D, n)."""
    out = np.empty((U.shape[0], 2, U.shape[1]))
    out[:, 0], out[:, 1] = U, V
    return out.reshape(-1, U.shape[1])


def _dots(U: np.ndarray, V: np.ndarray) -> list:
    """The dot product of each row of U (D, n) with the same row of V (D,
    n), or with V (n,), as Python floats: a stack of vector products, which
    numpy hands to BLAS ddot row by row, so each row sums as `u @ v` does
    (einsum and gemv sum in other orders). A single row is one `u @ v`, at
    a third of the stack's cost."""
    if U.shape[0] == 1:
        return [float(U[0] @ (V if V.ndim == 1 else V[0]))]
    return np.matmul(U[:, None, :], V[..., None])[:, 0, 0].tolist()


def _put(U: np.ndarray, cols: np.ndarray, V) -> None:
    """U[:, cols] = V for the rows U (D, n). A single row is assigned as a
    vector: numpy's fancy assignment into a 2-D array costs about twice as
    much (4.7 against 2.5 us for 1200 of 3000 entries on a 2-vCPU VM), and a
    lone solve makes about 30 of them a step."""
    if U.shape[0] == 1:
        U[0][cols] = V[0] if isinstance(V, np.ndarray) else V
    else:
        U[:, cols] = V


def _mul(A: sp.csr_matrix, V: np.ndarray) -> np.ndarray:
    """A times every row of V (D, n): one sparse product, returned as
    C-ordered rows so that each row's sums run as in a lone solve (a sparse
    product sums each column of a block of vectors as it sums one vector)."""
    if V.shape[0] == 1:
        return (A @ V[0])[None]
    return np.ascontiguousarray((A @ V.T).T)


def _lu_rows(lu, R: np.ndarray) -> np.ndarray:
    """The sparse LU factor's solution for every row of R, as rows."""
    if R.shape[0] == 1:
        return lu.solve(R[0])[None]
    return np.ascontiguousarray(lu.solve(np.ascontiguousarray(R.T)).T)


def _factor_newton(K: np.ndarray, pattern: tuple):
    """The solve of one direction's K from its factor: dgetrf below 10^4
    entries, which OpenBLAS runs on one thread, and SuperLU above it on K's
    dense columns: under two OpenBLAS threads dgetrf, dpotrf and dsytrf on
    166 rows can take 50-180 ms a call (whenever the BLAS worker waits for a
    CPU); splu never does."""
    if K.size < 10_000:
        lu, piv, info = lapack.dgetrf(K, overwrite_a=1)
        if info != 0:
            raise np.linalg.LinAlgError("singular Newton system")
        return lambda rhs: lapack.dgetrs(lu, piv, rhs)[0]
    dense = sp.csc_matrix((K.ravel(), *pattern), shape=K.shape)
    try:
        return spla.splu(dense, permc_spec="NATURAL").solve
    except RuntimeError as err:  # exactly singular
        raise np.linalg.LinAlgError(str(err)) from err


class _Newton:
    """The Newton systems at D interior points (x, s), rows of (D, n)
    arrays, with their residuals rp and rd: per group the stacked X and S
    (D, count, s, s), the pair (P, Q) of the operator V -> sym(P V Q) (X,
    S^-1 on kept blocks: the HKM direction; S, X^-1 on slack blocks, where
    the roles of the two sides swap) and the inverse roots of X and S
    (_inverse_roots, one call on both), kept for the step lengths in the row
    order of _pairs; per direction the factor of K = [[M, A[O, free]],
    [A[O, free]', -N]] (solve_K), which the predictor, the corrector and its
    refinement reuse; and the part of the predictor's and the corrector's
    right-hand sides that rp and rd give (base). A direction whose Cholesky
    factor or K fails raises _Stopped."""

    def __init__(self, plan: _InteriorPlan, x: np.ndarray, s: np.ndarray, rp: np.ndarray,
                 rd: np.ndarray):
        self.plan, self.rp, self.rd = plan, rp, rd
        o, nf = plan.O.size, plan.free.size
        self.mats, self.roots, schur = [], [], []
        for grp, XS in zip(plan.groups, plan.every.full(_pairs(x, s))):
            XS = XS.reshape(-1, 2, grp.count, grp.size, grp.size)
            R = _each(_inverse_roots, XS)
            X, S, Rq = XS[:, 0], XS[:, 1], R[:, 0 if grp.slack else 1]
            P, Q = (S if grp.slack else X), Rq @ Rq.swapaxes(-1, -2)
            schur.append(grp.schur(P, Q))
            self.mats.append((X, S, P, Q))
            self.roots.append(R.reshape(-1, grp.count, grp.size, grp.size))
        self.solve_K, reasons = None, {}
        if o + nf:
            # one K at a time, dropped once factored: D of them at once would
            # raise glibc's mmap threshold (see _Group) and the peak memory
            self.solve_K = []
            for d in range(x.shape[0]):
                K = np.zeros((o + nf, o + nf))
                K[:o, o:] = plan.A_free_O
                K[o:, :o] = plan.A_free_O.T
                for grp, C in zip(plan.groups, schur):
                    if grp.slack:
                        K[o:, o:] -= C[d]
                    else:
                        K[:o, :o] += C[d]
                try:
                    self.solve_K.append(_factor_newton(K, plan.dense_pattern))
                except np.linalg.LinAlgError as err:
                    reasons[d] = str(err)
        if reasons:
            raise _Stopped(reasons)
        self.base = self._base(rp, rd)

    def op(self, j: int, V: np.ndarray) -> np.ndarray:
        P, Q = self.mats[j][2:]
        W = P @ V @ Q
        return 0.5 * (W + W.swapaxes(-1, -2))

    def _base(self, rp: np.ndarray, rd: np.ndarray) -> list:
        """Per group, op of the residuals' matrices: of rd on kept blocks, and
        on slack ones of rp at their rows R, divided by D."""
        plan = self.plan
        mats = plan.kept.full(rd) + (plan.slack.full_rows(rp) if plan.G is not None else [])
        return [self.op(j, V) for j, V in enumerate(mats)]

    def direction(self, T: list, polish: bool = False) -> tuple:
        """(dx, dy, ds), rows per direction, solving A dx = rp, A'dy + ds = rd
        (ds = 0 on free entries) and the linearized complementarity: dX = T -
        op(dS) on kept blocks, dS = T - op(dX) on slack ones (T per group).
        With `polish`, IPM_REFINE steps of iterative refinement on the
        residuals of the two linear equations follow, and then their
        projections: dx onto A dx = rp, and dy onto the free columns' A_f'dy
        = rd_f."""
        plan, rp, rd = self.plan, self.rp, self.rd
        dx, dy, ds = self._solve(rp, rd, self.base, T)
        zero = [np.zeros(t.shape) for t in T]
        for _ in range(IPM_REFINE if polish else 0):
            # ds is 0 on the free entries, so ey there is the free columns' own residual
            ex, ey = rp - _mul(plan.A, dx), rd - _mul(plan.AT, dy) - ds
            cx, cy, cs = self._solve(ex, ey, self._base(ex, ey), zero)
            dx, dy, ds = dx + cx, dy + cy, ds + cs
        if polish:
            dx += _mul(plan.AT, _lu_rows(plan.gram_lu, rp - _mul(plan.A, dx)))
            if plan.free_lu is not None:
                dy += _mul(plan.A_free, _lu_rows(plan.free_lu,
                                                  rd.take(plan.free, axis=1)
                                                  - _mul(plan.A_free_T, dy)))
                ds = rd - _mul(plan.AT, dy)
                _put(ds, plan.free, 0.0)
        return dx, dy, ds

    def _solve(self, rp: np.ndarray, rd: np.ndarray, base: list, T: list) -> tuple:
        plan, kept, slack = self.plan, self.plan.kept, self.plan.slack
        o, nk = plan.O.size, len(kept.groups)
        u = np.zeros(rd.shape) if plan.uses_u else None
        h2 = rd.take(plan.free, axis=1)
        if nk:
            _put(u, kept.packed, kept.pack([t - v for t, v in zip(T[:nk], base)]))
        if plan.G is not None:
            w = rd.take(slack.packed, axis=1) - slack.pack(
                [t - v for t, v in zip(T[nk:], base[nk:])])
            h2 -= _mul(plan.G, w)
        rhs = np.concatenate((((rp - _mul(plan.A, u)) if plan.uses_u else rp).take(plan.O, axis=1),
                              h2), axis=1)
        sol = rhs if self.solve_K is None else np.array([f(r) for f, r in zip(self.solve_K, rhs)])
        dy = np.zeros(rp.shape)
        _put(dy, plan.O, sol[:, :o])
        dx = np.zeros(rd.shape)
        _put(dx, plan.free, sol[:, o:])
        if plan.G is not None:
            _put(dx, slack.packed,
                 rp.take(slack.rows, axis=1) / slack.D - _mul(plan.GT, sol[:, o:]))
            dS = [T[j] - self.op(j, V) for j, V in enumerate(slack.full(dx), nk)]
            _put(dy, slack.rows, (rd.take(slack.packed, axis=1) - slack.pack(dS)) / slack.D)
        ds = rd - _mul(plan.AT, dy)
        _put(ds, plan.free, 0.0)
        if nk:
            _put(dx, kept.packed,
                 kept.pack([T[j] - self.op(j, V) for j, V in enumerate(kept.full(ds))]))
        return dx, dy, ds

    def steps_to_boundary(self, dx: np.ndarray, ds: np.ndarray) -> np.ndarray:
        """Per direction, the largest steps tp with x + tp dx in K and td with
        s + td ds in K, x and s the points this Newton system was built at,
        as the rows of a (2, D) array (inf when every step is, NaN when an
        eigenvalue fails): minus the inverse of the least eigenvalue of
        R' dV R per block, R the inverse root of the block of x or s, kept
        when the system was built. One `dsyevd` call per block, side 1 too."""
        dv = _pairs(dx, ds)  # the rows of the roots
        t = [math.inf] * dv.shape[0]
        for R, V in zip(self.roots, self.plan.every.full(dv)):
            for i, Z in enumerate(R.swapaxes(-1, -2) @ V @ R):
                for M in Z:
                    try:
                        low = _dsyevd(M, 0)[0][0]
                    except np.linalg.LinAlgError:
                        low = math.nan
                    if not low >= 0.0:  # a NaN step stays NaN: min(nan, t) is nan
                        t[i] = min(t[i], -1.0 / low) if low < 0.0 else math.nan
        return np.array(t).reshape(-1, 2).T

    def predictor(self) -> list:
        """The complementarity right-hand sides with sigma = 0: -X on kept
        blocks, -S on slack ones."""
        return [-(S if grp.slack else X) for grp, (X, S, *_) in zip(self.plan.groups, self.mats)]

    def corrector(self, sigma_mu: np.ndarray, dx: np.ndarray, ds: np.ndarray) -> list:
        """Mehrotra's right-hand sides after the predictor (dx, ds), with
        sigma mu per direction: sigma mu S^-1 - X - sym(dX dS S^-1) on kept
        blocks, sigma mu X^-1 - S - sym(dS dX X^-1) on slack ones."""
        out = []
        every = self.plan.every
        for grp, (X, S, _, Q), dX, dS in zip(every.groups, self.mats, every.full(dx),
                                             every.full(ds)):
            W = (dS @ dX if grp.slack else dX @ dS) @ Q
            out.append(sigma_mu[:, None, None, None] * Q - (S if grp.slack else X)
                       - 0.5 * (W + W.swapaxes(-1, -2)))
        return out


def _inverse_roots(M: np.ndarray) -> np.ndarray:
    """R = L^-T per matrix of the stack M of positive definite matrices,
    L its Cholesky factor: M^-1 = R R', and R' N R = L^-1 N L^-T has the
    eigenvalues of M^-1/2 N M^-1/2. Batched numpy Cholesky and inverse, not
    dpotri or dtrtrs: under two OpenBLAS threads those take 8-40 ms on
    blocks of side 6-20, against 0.003 ms on one."""
    return np.linalg.inv(np.linalg.cholesky(M)).swapaxes(-1, -2)


def _interior_point(programs: list, opts: SolveOptions) -> tuple:
    """Primal-dual path following on the equilibrated programs, which share
    A, b and the cone and differ in c, all D of them in lockstep: the HKM
    direction and Mehrotra's predictor-corrector (SDPT3), free columns
    through the augmented system and every cone entry in a PSD block.
    Returns ([(solution, why it stopped) per program], lockstep steps). A
    program's solution is its first step's point that passes the stopping
    rule, as `optimal`, or else the best one met as `max_iters`, or None
    when no step reached a point with finite residuals. A program stops
    short after IPM_MAX_ITERS steps, or opts.max_iters, or at a non-finite
    step, or once neither step length reaches IPM_MIN_STEP, or when a
    Cholesky factor or its Newton system fails; a program that stops is
    masked out, and the others go on.

    A step's point is screened from the scaled residuals the next step
    needs anyway: the primal residual and the gap are the rule's own, and
    as the slack s lies inside K*, the scaled dual residual rd bounds the
    rule's dual residual, dist(s + rd, K*) <= |rd|. Only a point whose bound
    passes is measured in full (_measure), and only that measure accepts it."""
    plan = programs[0]._interior
    D = len(programs)
    if plan.degree == 0:
        return [(None, "a program without cone entries")] * D, 0
    A, d_row, d_col, AT = plan.A, plan.d_row, plan.d_col, plan.AT
    scaled = [_scaled_vectors(program, d_row, d_col) for program in programs]
    b, b_scale = scaled[0][0], scaled[0][2]
    c = np.array([vec for _, vec, _, _ in scaled])
    c_scale = [scale for *_, scale in scaled]
    b_norm = 1.0 + np.linalg.norm(programs[0].b)
    c_norm = [1.0 + np.linalg.norm(program.c) for program in programs]

    def point(d, xd, yd):
        x_orig, y_orig = d_col * xd * b_scale, c_scale[d] * (d_row * yd)
        return (x_orig, y_orig, *_measure(programs[d], x_orig, y_orig))

    # the state holds the programs still stepping, row i being program
    # live[i]; the per-program bookkeeping is in Python floats and lists,
    # which a lone solve reaches faster than numpy's (1,) arrays
    x, s = (np.array(parts) for parts in zip(*(plan.start(b, cd) for cd in c)))
    y = np.zeros((D, A.shape[0]))
    rp, rd = b - _mul(A, x), c - _mul(AT, y) - s
    live = list(range(D))
    best = [(math.inf, None, None)] * D  # per program: its least bound, that step's x and y
    found, stop, taken, steps = [None] * D, [None] * D, [0] * D, 0
    cap = min(IPM_MAX_ITERS, opts.max_iters)

    def retire(halt: dict):
        """Drop the rows in `halt`, {row: why it stopped}, from the state."""
        nonlocal x, y, s, rp, rd, c, live
        for i, why in halt.items():
            stop[live[i]], taken[live[i]] = why, steps
        keep = [i for i in range(len(live)) if i not in halt]
        x, y, s, rp, rd, c = (v[keep] for v in (x, y, s, rp, rd, c))
        live = [live[i] for i in keep]

    # an infeasible or unbounded program drives the iterates to overflow;
    # that stops it through LinAlgError or a non-finite step, and a point
    # whose residuals overflow is never the best one
    with np.errstate(all="ignore"):
        while live and steps < cap:
            mu = [v / plan.degree for v in _dots(x, s)]
            newton = None  # free the last step's systems first: it keeps peak memory down
            try:
                newton = _Newton(plan, x, s, rp, rd)
            except _Stopped as err:
                retire({i: f"LinAlgError '{why}' at step {steps}"
                        for i, why in err.reasons.items()})
                continue
            dx, dy, ds = newton.direction(newton.predictor())
            tp, td = np.minimum(1.0, newton.steps_to_boundary(dx, ds))
            mu_aff = [v / plan.degree for v in _dots(x + tp[:, None] * dx, s + td[:, None] * ds)]
            # sigma in Python floats: numpy's power rounds apart from C's pow
            # in about one case in twenty
            sigma_mu = np.array([min(1.0, max(0.0, a / m) ** max(1.0, 3.0 * min(p, q) ** 2)) * m
                                 for a, m, p, q in zip(mu_aff, mu, tp.tolist(), td.tolist())])
            dx, dy, ds = newton.direction(newton.corrector(sigma_mu, dx, ds), polish=True)
            tp, td = np.minimum(1.0, IPM_STEP * newton.steps_to_boundary(dx, ds))[:, :, None]
            ok = np.isfinite(np.concatenate((dx, dy, ds, tp, td), axis=1)).all(axis=1)
            if not ok.all():
                retire({i: "a non-finite step" for i in np.flatnonzero(~ok).tolist()})
                if not live:
                    break
                dx, dy, ds, tp, td = (v[ok] for v in (dx, dy, ds, tp, td))
            x, y, s = x + tp * dx, y + td * dy, s + td * ds
            _put(s, plan.free, 0.0)
            steps += 1
            rp, rd = b - _mul(A, x), c - _mul(AT, y) - s
            # the screen: a bound on every residual of the stopping rule
            rps, rds = rp / d_row, rd / d_col
            halt = {}
            for i, (cx, yb, pp, dd, p, q) in enumerate(zip(
                    _dots(c, x), _dots(y, b), _dots(rps, rps), _dots(rds, rds), tp[:, 0].tolist(),
                    td[:, 0].tolist())):
                d = live[i]
                pv, dv = b_scale * c_scale[d] * cx, b_scale * c_scale[d] * yb
                bound = max(b_scale * math.sqrt(pp) / b_norm,
                            c_scale[d] * math.sqrt(dd) / c_norm[d],
                            abs(pv - dv) / (1.0 + abs(pv) + abs(dv)))
                if bound < best[d][0]:  # copies: a row's view would keep all D rows
                    best[d] = (bound, x[i].copy(), y[i].copy())
                if bound <= opts.tol:
                    try:
                        measured = point(d, x[i], y[i])
                    except np.linalg.LinAlgError as err:
                        halt[i] = f"LinAlgError '{err}' at step {steps}"
                        continue
                    if measured[4].worst() <= opts.tol:
                        found[d], halt[i] = measured, "the stopping rule"
                        continue
                if max(p, q) < IPM_MIN_STEP:
                    halt[i] = "steps below IPM_MIN_STEP"
            if halt:
                retire(halt)
        retire({i: f"the cap of {cap} steps" for i in range(len(live))})
        for d, (_, xd, yd) in enumerate(best):
            if found[d] is None and xd is not None:
                try:
                    found[d] = point(d, xd, yd)
                except np.linalg.LinAlgError:
                    pass
    out = []
    for d, program in enumerate(programs):
        sol = None
        if found[d] is not None:
            x_orig, y_orig, pv, dv, res = found[d]
            sol = Solution(status="optimal" if res.worst() <= opts.tol else "max_iters",
                           primal_value=pv, dual_value=dv, blocks=program.unpack(x_orig),
                           x=x_orig, y=y_orig, residuals=res, iterations=taken[d])
        out.append((sol, stop[d]))
    return out, steps


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
