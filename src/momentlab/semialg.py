"""Basic semi-algebraic sets, the catalog of test domains, and violation measurement.

Sign convention is g_j(x) >= 0 throughout; constraints supplied in the <= 0
convention must be negated by the caller at construction time.
"""

from __future__ import annotations

import inspect
import warnings
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

# eval_poly is unused here but stays bound: semialg.eval_poly is a public name
from momentlab.polycore import CompiledPoly, Polynomial, eval_poly, half_degree  # noqa: F401

# A point is a member of X when its violation is at most this.
FEASIBILITY_TOL = 1e-9
# Gauss-Newton schedule of restore_feasibility and _project_batch: at most
# _GN_STEPS steps, stopping once the residual is at most _GN_STOP.
_GN_STEPS = 40
_GN_STOP = 1e-13
_MAX_DRAWS = 200000  # box points rejection_sample draws before it gives up
# Points in a pool of support values or reference minima; at 256 the circle's
# pool left 10-degree gaps where a maximizer's basin got no polish start.
POOL_SIZE = 4096
_ACTIVE_TOL = 1e-6  # local_extremum: g is active where |g(x)| is at most this
_POLISH_ITERS = 120  # local_extremum: most search directions per row


def _ball_polynomial(n: int, radius: float) -> Polynomial:
    terms = {tuple([0] * n): radius * radius}
    for i in range(n):
        terms[tuple(2 if j == i else 0 for j in range(n))] = -1.0
    return Polynomial(n, terms)


@dataclass(frozen=True)
class SemiAlgebraicSet:
    """X = {x : g_j(x) >= 0 for all j, h_i(x) = 0 for all i}."""

    n: int
    inequalities: tuple = ()
    equalities: tuple = ()
    radius: Optional[float] = None
    name: str = "custom"
    box: Optional[tuple] = None  # (lower, upper) arrays bounding X, for samplers

    def __post_init__(self):
        object.__setattr__(self, "inequalities", tuple(self.inequalities))
        object.__setattr__(self, "equalities", tuple(self.equalities))
        for p in self.inequalities + self.equalities:
            if p.n != self.n:
                raise ValueError("constraint dimension does not match set dimension")
        if self.radius is not None:
            if self.radius <= 0:
                raise ValueError("radius must be positive")
            ball = _ball_polynomial(self.n, self.radius)
            if all(g != ball for g in self.inequalities):
                raise ValueError("radius set but R^2 - |x|^2 not present in inequalities")

    @property
    def max_half_degree(self) -> int:
        """d = max over all ceil(deg/2) of the defining polynomials."""
        degs = [half_degree(p) for p in self.inequalities + self.equalities]
        return max(degs, default=0)

    @cached_property
    def compiled(self) -> CompiledPoly:
        """The equalities, then the inequalities, compiled into one evaluator."""
        return CompiledPoly(self.n, self.equalities + self.inequalities)

    def bounding_box(self) -> tuple:
        if self.box is not None:
            lo, hi = self.box
            return np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
        if self.radius is not None:
            r = self.radius
            return -r * np.ones(self.n), r * np.ones(self.n)
        raise ValueError(f"no bounding box known for set {self.name!r}")


def violation(X: SemiAlgebraicSet, x) -> float:
    """max over 0, -g_j(x) and |h_i(x)|; zero exactly on X up to float round-off."""
    x = np.asarray(x, dtype=float).ravel()
    if x.size != X.n:
        raise ValueError(f"point has dimension {x.size}, set has {X.n}")
    return float(violation_many(X, x)[0])


def violation_many(X: SemiAlgebraicSet, points: np.ndarray) -> np.ndarray:
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    values = X.compiled(pts)
    neq = len(X.equalities)
    worst = np.abs(values[:, :neq]).max(axis=1, initial=0.0)
    return np.maximum(worst, (-values[:, neq:]).max(axis=1, initial=0.0))


def archimedean_augment(X: SemiAlgebraicSet, R: float) -> SemiAlgebraicSet:
    """Append g0 = R^2 - |x|^2 and record the radius. Idempotent.

    The caller asserts X is contained in the R-ball; that is not machine
    checkable in general, and it is not checked.
    """
    if R <= 0:
        raise ValueError("R must be positive")
    ball = _ball_polynomial(X.n, R)
    if any(g == ball for g in X.inequalities):
        return replace(X, radius=R if X.radius is None else X.radius)
    return replace(X, inequalities=X.inequalities + (ball,), radius=R)


# ----------------------------------------------------------------------------
# catalog


def make_catalog_set(kind: str, **params) -> SemiAlgebraicSet:
    """Construct a catalog domain: ball, simplex, hypercube, sphere, polytope,
    box_product, or custom. Scale and dimension are keyword parameters."""
    builder = _CATALOG.get(kind)
    if builder is None:
        raise ValueError(f"unknown catalog kind {kind!r}; have {sorted(_CATALOG)}")
    takes = inspect.signature(builder).parameters
    unknown = [key for key in params if key not in takes]
    missing = [key for key, p in takes.items() if p.default is p.empty and key not in params]
    if unknown or missing:
        problem = (f"does not take key {unknown[0]!r}" if unknown
                   else f"needs key {missing[0]!r}")
        raise ValueError(f"catalog set {kind!r} {problem}; it takes {', '.join(takes)}")
    return builder(**params)


def _make_ball(n: int, R: float = 1.0) -> SemiAlgebraicSet:
    if R <= 0:
        raise ValueError("ball radius must be positive")
    return SemiAlgebraicSet(
        n=n, inequalities=(_ball_polynomial(n, R),), radius=R, name=f"ball(n={n},R={R:g})",
        box=(-R * np.ones(n), R * np.ones(n)))


def _make_sphere(n: int, R: float = 1.0) -> SemiAlgebraicSet:
    # one equality plus the redundant ball inequality, so T/Q and R certificates
    # all apply to the same description
    if R <= 0:
        raise ValueError("sphere radius must be positive")
    ball = _ball_polynomial(n, R)
    return SemiAlgebraicSet(
        n=n, inequalities=(ball,), equalities=(ball,), radius=R, name=f"sphere(n={n},R={R:g})",
        box=(-R * np.ones(n), R * np.ones(n)))


def _make_simplex(n: int, K: float = 1.0) -> SemiAlgebraicSet:
    if K <= 0:
        raise ValueError("simplex scale must be positive")
    gs = [Polynomial.variable(n, i) for i in range(n)]
    cap = Polynomial.constant(n, K) - sum(gs, Polynomial.zero(n))
    return SemiAlgebraicSet(
        n=n, inequalities=tuple(gs) + (cap,), name=f"simplex(n={n},K={K:g})",
        box=(np.zeros(n), K * np.ones(n)))


def _make_hypercube(n: int, R: float = 1.0) -> SemiAlgebraicSet:
    if R <= 0:
        raise ValueError("hypercube scale must be positive")
    gs = []
    for i in range(n):
        xi = Polynomial.variable(n, i)
        gs.append(Polynomial.constant(n, R * R) - xi * xi)
    return SemiAlgebraicSet(
        n=n, inequalities=tuple(gs), name=f"hypercube(n={n},R={R:g})",
        box=(-R * np.ones(n), R * np.ones(n)))


def _make_polytope(A, b) -> SemiAlgebraicSet:
    """{x : Ax <= b}, stored row-wise as b_i - <a_i, x> >= 0."""
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float).ravel()
    if A.ndim != 2 or A.shape[0] != b.size:
        raise ValueError("polytope needs matrix A and matching vector b")
    n = A.shape[1]
    gs = []
    for i in range(A.shape[0]):
        terms = {tuple([0] * n): b[i]}
        for j in range(n):
            if A[i, j] != 0.0:
                terms[tuple(1 if k == j else 0 for k in range(n))] = -A[i, j]
        gs.append(Polynomial(n, terms))
    _warn_if_empty_polytope(A, b)
    box = _polytope_box(A, b)
    return SemiAlgebraicSet(
        n=n, inequalities=tuple(gs), name=f"polytope(m={A.shape[0]},n={n})", box=box)


def _warn_if_empty_polytope(A: np.ndarray, b: np.ndarray) -> None:
    # feasibility LP; emptiness is reported, not rejected
    from scipy.optimize import linprog

    res = linprog(np.zeros(A.shape[1]), A_ub=A, b_ub=b,
                  bounds=[(None, None)] * A.shape[1], method="highs")
    if not res.success:
        warnings.warn("polytope appears to be empty (feasibility LP failed)")


def _polytope_box(A: np.ndarray, b: np.ndarray) -> Optional[tuple]:
    from scipy.optimize import linprog

    n = A.shape[1]
    lo, hi = np.empty(n), np.empty(n)
    for j in range(n):
        c = np.zeros(n)
        c[j] = 1.0
        rlo = linprog(c, A_ub=A, b_ub=b, bounds=[(None, None)] * n, method="highs")
        rhi = linprog(-c, A_ub=A, b_ub=b, bounds=[(None, None)] * n, method="highs")
        if not (rlo.success and rhi.success):
            return None
        lo[j], hi[j] = rlo.fun, -rhi.fun
    return lo, hi


@dataclass(frozen=True)
class SimpleSetProduct:
    """Product of simple factors; each factor is (kind, dimension, scale)."""

    factors: tuple

    def __post_init__(self):
        object.__setattr__(self, "factors", tuple(tuple(f) for f in self.factors))
        for kind, ni, scale in self.factors:
            if kind not in ("ball", "simplex", "hypercube"):
                raise ValueError(f"unsupported simple-set kind {kind!r}")
            if ni < 1:
                raise ValueError("factor dimension must be >= 1")
            if scale <= 0:
                raise ValueError("factor scale must be positive")

    @property
    def n(self) -> int:
        return sum(ni for _, ni, _ in self.factors)

    def check_scaling_convention(self) -> None:
        """Transport of the error bounds to scaled factors assumes scale >= 1."""
        if any(scale < 1.0 for _, _, scale in self.factors):
            warnings.warn("factor scale < 1: scaled-domain rate transport not covered")

    def as_semialgebraic(self) -> SemiAlgebraicSet:
        n = self.n
        gs = []
        offset = 0
        lo = np.empty(n)
        hi = np.empty(n)
        for kind, ni, scale in self.factors:
            idx = list(range(offset, offset + ni))
            sub = make_catalog_set(kind, n=ni, **({"K": scale} if kind == "simplex" else {"R": scale}))
            for g in sub.inequalities:
                gs.append(_embed(g, n, idx))
            blo, bhi = sub.bounding_box()
            lo[idx], hi[idx] = blo, bhi
            offset += ni
        name = "x".join(f"{k}({ni},{s:g})" for k, ni, s in self.factors)
        return SemiAlgebraicSet(n=n, inequalities=tuple(gs),
                                name=f"product[{name}]", box=(lo, hi))


def _embed(p: Polynomial, n: int, coords: Sequence[int]) -> Polynomial:
    """Reinterpret a polynomial in len(coords) variables inside R^n."""
    out = {}
    for alpha, c in p.terms.items():
        key = [0] * n
        for e, j in zip(alpha, coords):
            key[j] = e
        out[tuple(key)] = c
    return Polynomial(n, out)


def _make_box_product(factors) -> SemiAlgebraicSet:
    return SimpleSetProduct(tuple(factors)).as_semialgebraic()


def _make_custom(n: int, inequalities=(), equalities=(), radius=None,
                 box=None, name: str = "custom") -> SemiAlgebraicSet:
    X = SemiAlgebraicSet(n=n, inequalities=tuple(inequalities),
                         equalities=tuple(equalities), name=name, box=box)
    if radius is not None:
        X = archimedean_augment(X, radius)
    return X


_CATALOG = {
    "ball": _make_ball,
    "sphere": _make_sphere,
    "simplex": _make_simplex,
    "hypercube": _make_hypercube,
    "polytope": _make_polytope,
    "box_product": _make_box_product,
    "custom": _make_custom,
}


def rejection_sample(X: SemiAlgebraicSet, count: int, seed: int = 0) -> np.ndarray:
    """Sample up to `count` points of X by rejection in the bounding box; the
    one sampler behind every pool of points of X.

    Plain rejection almost never hits a variety, so on sets with equalities
    each batch of box points is first projected onto the zero set (see
    _project_batch). A point is kept when its violation is at most
    FEASIBILITY_TOL, so a projection that fails, or that lands outside an
    inequality, costs a draw and nothing else. Batches continue one stream of
    draws and each point is projected on its own, so a smaller `count` only
    truncates the result. After _MAX_DRAWS box draws the points kept so far
    are returned, fewer than `count` on a set the box rarely hits (the
    5-simplex keeps about 1700); RuntimeError reports starvation only when
    none was kept. The result is a function of `seed`.
    """
    rng = np.random.default_rng(seed)
    lo, hi = X.bounding_box()
    kept = []
    tries = 0
    while len(kept) < count and tries < _MAX_DRAWS:
        batch = max(count - len(kept), 256)
        pts = rng.uniform(lo, hi, size=(batch, X.n))
        tries += batch
        if X.equalities:
            pts = _project_batch(X, pts)
        kept.extend(pts[violation_many(X, pts) <= FEASIBILITY_TOL])
    if not kept:
        raise RuntimeError(f"sampler starvation: kept 0/{count} after {tries} draws")
    return np.array(kept[:count])


def _svd(A: np.ndarray) -> tuple:
    """U, the inverted singular values and V^T of a stack of matrices, each
    inverse set to 0 where np.linalg.lstsq's cutoff drops that value. A zero
    row of A[i] adds nothing, so a masked-out constraint is a zeroed row."""
    u, s, vt = np.linalg.svd(A, full_matrices=False)
    kept = s > np.finfo(float).eps * max(A.shape[-2:]) * s[..., :1]
    return u, np.divide(1.0, s, out=np.zeros_like(s), where=kept), vt


def _apply(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a[i] @ b[i] over a stack of matrices a and vectors b."""
    return (a @ b[..., None])[..., 0]


def _lstsq(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Min-norm least-squares solutions of A[i] x = b[i] over a stack.

    A stack of one row a (a point projected onto one equality, as on the
    spheres) takes the closed form x = (a / |a|) (b / |a|), and 0 where
    a = 0. That is the SVD's answer: one row has u = +-1, s = |a| and
    v = +-a / |a|, and _svd's cutoff eps * n * s drops s only where a = 0.
    Two or more rows go through _svd."""
    if A.shape[-2] == 1:
        a = A[..., 0, :]
        norm = np.linalg.norm(a, axis=-1, keepdims=True)
        nonzero = norm != 0.0
        return (np.divide(a, norm, out=np.zeros_like(a), where=nonzero)
                * np.divide(b, norm, out=np.zeros_like(b), where=nonzero))
    u, inv, vt = _svd(A)
    return _apply(np.swapaxes(vt, -1, -2), inv * _apply(np.swapaxes(u, -1, -2), b))


def _gauss_newton(X: SemiAlgebraicSet, z: np.ndarray, inequalities: bool) -> np.ndarray:
    """Gauss-Newton steps z <- z - pinv(J) F on a batch of points, in place.

    F stacks the equalities of X and, with `inequalities`, the inequalities
    violated (negative) at the current point; the other rows of F and J are
    zeroed. A point stops once |F| <= _GN_STOP (status 1), or when F, J or
    its step is not finite (status -1; it stays where it was); status 0 marks
    a point still moving after _GN_STEPS steps. Each step evaluates the
    moving points only; a point's path does not depend on its batch-mates."""
    neq = len(X.equalities)
    m = neq + len(X.inequalities) if inequalities else neq
    status = np.zeros(len(z), dtype=np.int8)
    moving = np.arange(len(z))
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(_GN_STEPS):
            vals, jac = X.compiled.jet(z[moving])
            F, J = vals[:, :m], jac[:, :m]
            rows = F < 0.0
            rows[:, :neq] = True
            F = np.where(rows, F, 0.0)
            finite = np.isfinite(vals[:, :m]).all(axis=1) & np.isfinite(J).all(axis=(1, 2))
            done = np.abs(F).max(axis=1, initial=0.0) <= _GN_STOP
            status[moving[~finite]] = -1
            status[moving[finite & done]] = 1
            go = finite & ~done
            moving, F, J = moving[go], F[go], J[go] * rows[go, :, None]
            if not moving.size:
                break
            step = _lstsq(J, F)
            finite = np.isfinite(step).all(axis=1)
            status[moving[~finite]] = -1
            moving = moving[finite]
            z[moving] -= step[finite]
    return status


def _project_batch(X: SemiAlgebraicSet, pts: np.ndarray) -> np.ndarray:
    """Project a batch of points onto the equalities of X by _gauss_newton.

    The inequalities play no part: a point left off X (where the constraint
    gradients vanish, or on the zero set but outside an inequality) is
    returned where it stopped, and callers reject it by its violation.
    """
    z = np.array(pts, dtype=float)
    _gauss_newton(X, z, inequalities=False)
    return z


def restore_feasibility(X: SemiAlgebraicSet, points) -> np.ndarray:
    """Gauss-Newton restoration of a batch of points (m, n) onto X; a single
    point (n,) is one row. Each row steps onto the equalities and the
    inequalities it violates (_gauss_newton). A row that has not stopped
    after _GN_STEPS steps is kept when its violation is at most
    FEASIBILITY_TOL, so every finite row returned is a member of X. A failed
    row, including one whose constraint values or Jacobian are not finite,
    comes back as NaN."""
    z = np.array(np.atleast_2d(points), dtype=float)
    if z.ndim != 2 or z.shape[1] != X.n:
        raise ValueError(f"points have shape {z.shape}, set has dimension {X.n}")
    status = _gauss_newton(X, z, inequalities=True)
    open_ = np.flatnonzero(status == 0)
    status[open_] = np.where(violation_many(X, z[open_]) <= FEASIBILITY_TOL, 1, -1)
    z[status < 0] = np.nan
    return z


def sampled_extremum(fs: Sequence[Polynomial], X: SemiAlgebraicSet, pool: np.ndarray,
                     starts: int, maximize: bool):
    """(values, points): the best of each f in `fs` over a feasible pool of
    X, polished.

    The objectives are compiled together and evaluated at every pool point,
    and one local_extremum call polishes the `starts` best points of every f
    together. values[i] is fs[i] at the best feasible point found for it,
    points[i]: never below the true minimum (above the true maximum), and
    otherwise an estimate.
    """
    sign = 1.0 if maximize else -1.0
    vals = CompiledPoly(X.n, fs)(pool)
    # the best pool point of each f, then its `starts` best
    top = np.array([(np.argsort(v)[::-1] if maximize else np.argsort(v))[:max(starts, 1)]
                    for v in vals.T], dtype=np.int64).reshape(len(fs), -1)
    best, best_points = vals[top[:, 0], np.arange(len(fs))], pool[top[:, 0]]
    top = top[:, :starts]
    del vals  # a pool's worth of values per f, not needed by the polish
    if not top.size:
        return best, best_points
    points, values = local_extremum([f for f in fs for _ in range(top.shape[1])],
                                    X, pool[top.ravel()], maximize)
    # per f, the first of the pool best and the polished values, in start
    # order, that no later one beats; a failed polish (NaN) never wins
    values = np.column_stack([best, values.reshape(top.shape)])
    points = np.concatenate([best_points[:, None], points.reshape(top.shape + (X.n,))], axis=1)
    pick = np.argmax(np.where(np.isnan(values), -np.inf, sign * values), axis=1)
    each = np.arange(len(fs))
    return values[each, pick], points[each, pick]


def local_extremum(fs: Sequence[Polynomial], X: SemiAlgebraicSet, starts: np.ndarray,
                   maximize: bool = False):
    """Polish feasible points to nearby local extrema over X: row b of the
    batch `starts` (B, n) for the objective fs[b], all rows in lockstep.

    Each round takes a search direction at a row's best point (see
    `directions`): a Newton step on the tangent space of the active
    constraints where the Lagrangian is concave there, the projected gradient
    elsewhere, and the model's rising eigenvector where the gradient step
    would gain nothing (near a saddle). A backtracking line search along it
    restores each trial point onto X (Gauss-Newton) and accepts the first
    that improves the objective (ascent with `maximize`, descent without).
    Each row follows the rules of a one-point polish; masks keep the rows
    apart, and a row that finishes drops out. A round restores every live
    row's trial point in one restore_feasibility call and computes every new
    search direction in one batched solve. The distinct objectives are
    compiled once, and each row gathers its own coefficient columns.
    Returns (points, values): a feasible point per row and its objective
    value, or NaN where the start's restoration fails. Local solvers
    routinely stop short on curved constraint surfaces; this keeps
    grid-plus-polish estimates trustworthy to round-off.
    """
    starts = np.array(np.atleast_2d(starts), dtype=float)
    objectives: dict = {}
    which = np.array([objectives.setdefault(f, len(objectives)) for f in fs], dtype=np.int64)
    if which.shape != starts.shape[:1]:
        raise ValueError(f"{which.size} objectives for {len(starts)} starts")
    p = CompiledPoly(X.n, tuple(objectives))
    sign = 1.0 if maximize else -1.0
    neq = len(X.equalities)
    # rows never released: the equalities, and an inequality that is also an
    # equality (the sphere's redundant ball)
    fixed = np.array([True] * neq + [g in X.equalities for g in X.inequalities], dtype=bool)

    def jet(rows, z, order=1):
        """The objective of each row, signed so that the polish ascends."""
        return tuple(sign * t for t in p.jet_each(z, which[rows], order))

    def directions(rows):
        """The search direction d at best_x, whether it is a Newton step, the
        gain |g.d| / 2 of its quadratic model, and |lam|_1.

        The kept rows are the active rows whose multipliers do not release
        them: a positive multiplier means the ascent direction already
        points into the feasible side of that inequality. One SVD of the
        active rows J gives the multipliers pinv(J^T) g; a row that releases
        a constraint takes a second SVD of its kept rows, which gives their
        multipliers lam and the projector P on their null space. Where the
        Lagrangian's Hessian H = H_f - sum_i lam_i H_gi is negative definite
        on that null space, d is the Newton step -P (P H P - (I - P))^-1 P g;
        elsewhere it is the projected gradient P g, or, where the quadratic
        model gains nothing along P g over the row's step but P H P has a
        positive eigenvalue, that eigenvalue's eigenvector signed to ascend.
        The outer P drops the round-off of P g off the null space, which the
        inverse would keep at full size and which near the optimum moves the
        point off the active surface by more than the step gains."""
        z = best_x[rows]
        _, g, hf = jet(rows, z, 2)
        vals, jac, hess = X.compiled.jet(z, 2)
        on = np.abs(vals) <= _ACTIVE_TOL
        on[:, :neq] = True
        u, inv, vt = _svd(jac * on[..., None])
        keep = on & (fixed | (_apply(u, inv * _apply(vt, g)) <= 1e-12))
        released = np.flatnonzero((keep != on).any(axis=1))
        if released.size:
            u[released], inv[released], vt[released] = _svd(jac[released] * keep[released, :, None])
        lam = np.where(keep, _apply(u, inv * _apply(vt, g)), 0.0)
        v = vt * (inv > 0)[..., None]
        proj = np.eye(X.n) - np.swapaxes(v, 1, 2) @ v
        pg = _apply(proj, g)
        h = hf - (lam[..., None, None] * hess).sum(axis=1)
        M = proj @ h @ proj - (np.eye(X.n) - proj)
        w, q = np.linalg.eigh(M)
        newton = w[:, -1] < 0.0
        d = pg.copy()
        # near a saddle's stable axis the gradient points back to the saddle:
        # where the model gains nothing along it over the row's step t but
        # curves up along its top eigenvector, that eigenvector, signed to
        # ascend, is the direction
        norm = np.linalg.norm(pg, axis=1)
        unit = pg / np.where(norm > 0.0, norm, 1.0)[:, None]
        t = step[rows]
        gain = t * norm + 0.5 * t * t * (unit * _apply(M, unit)).sum(axis=1)
        rising = (w[:, -1] > 0.0) & (gain <= 0.0)
        top = q[rising, :, -1]
        d[rising] = top * np.where((g[rising] * top).sum(axis=1) < 0.0, -1.0, 1.0)[:, None]
        q, w = q[newton], w[newton]
        d[newton] = -_apply(proj[newton], _apply(q, _apply(np.swapaxes(q, 1, 2), pg[newton]) / w))
        return d, newton, 0.5 * np.abs((g * d).sum(axis=1)), np.abs(lam).sum(axis=1)

    best_x = restore_feasibility(X, starts)
    ok = np.isfinite(best_x).all(axis=1)
    best_v = np.full(len(starts), np.nan)
    if ok.any():
        best_v[ok] = jet(np.flatnonzero(ok), best_x[ok], 0)[0]
    step = np.full(len(starts), 0.1)
    trial_step = np.zeros(len(starts))
    trials = np.zeros(len(starts), dtype=np.int64)
    outer = np.zeros(len(starts), dtype=np.int64)
    direction = np.zeros_like(starts)
    nrm = np.zeros(len(starts))
    # The direction depends on best_x alone, so once a line search fails
    # every later one would retry shorter steps along the same ray: the row
    # ends there. A Newton row tries min(|d|, its step) first, and ends once
    # its model gains no more than the acceptance margin 1e-16 or |lam|_1
    # _GN_STOP, what the slack of two restored points can be worth: below
    # that a step that crosses the slack edge loses more than it gains.
    live, fresh = ok.copy(), ok.copy()
    while True:
        rows = np.flatnonzero(fresh)
        if rows.size:
            outer[rows] += 1
            direction[rows], newton, gain, lam = directions(rows)
            nrm[rows] = np.linalg.norm(direction[rows], axis=1)
            trial_step[rows] = np.where(newton, np.minimum(nrm[rows], step[rows]), step[rows])
            trials[rows] = 0
            floor = np.maximum(1e-16, lam * _GN_STOP)
            live[rows[(nrm[rows] <= 1e-14) | (newton & (gain <= floor))]] = False
        rows = np.flatnonzero(live)
        if not rows.size:
            break
        trial = (best_x[rows] + trial_step[rows, None] * direction[rows]
                 / np.maximum(nrm[rows], 1e-30)[:, None])
        cand = restore_feasibility(X, trial)
        feasible = np.flatnonzero(np.isfinite(cand[:, 0]))
        v = np.full(len(rows), -np.inf)
        if feasible.size:
            v[feasible] = jet(rows[feasible], cand[feasible], 0)[0]
        better = v > best_v[rows] + 1e-16
        up, down = rows[better], rows[~better]
        best_x[up] = cand[better]
        best_v[up] = v[better]
        step[up] = trial_step[up] * 1.5
        trial_step[down] *= 0.5
        trials[down] += 1
        fresh[:] = False
        fresh[up] = outer[up] < _POLISH_ITERS
        live[up[~fresh[up]]] = False
        live[down[trials[down] >= 30]] = False

    return best_x, sign * best_v
