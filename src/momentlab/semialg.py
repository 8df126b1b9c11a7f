"""Basic semi-algebraic sets, the catalog of test domains, and violation measurement.

Sign convention is g_j(x) >= 0 throughout; constraints supplied in the <= 0
convention must be negated by the caller at construction time.
"""

from __future__ import annotations

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
_ACTIVE_TOL = 1e-6  # local_extremum: g is active where |g(x)| is at most this
_POLISH_ITERS = 120  # local_extremum: most projected-gradient steps


@dataclass(frozen=True)
class LojasiewiczHint:
    """Exponent (in (0, 1]) and optional constant of d(x, X) <= c * violation(x)^exponent."""

    exponent: float
    constant: Optional[float] = None

    def __post_init__(self):
        if not 0.0 < self.exponent <= 1.0:
            raise ValueError("Lojasiewicz exponent must lie in (0, 1]")
        if self.constant is not None and self.constant <= 0:
            raise ValueError("Lojasiewicz constant must be positive")


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
    lojasiewicz_hint: Optional[LojasiewiczHint] = None
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
    return builder(**params)


def _make_ball(n: int, R: float = 1.0) -> SemiAlgebraicSet:
    if R <= 0:
        raise ValueError("ball radius must be positive")
    return SemiAlgebraicSet(
        n=n, inequalities=(_ball_polynomial(n, R),), radius=R,
        lojasiewicz_hint=LojasiewiczHint(1.0), name=f"ball(n={n},R={R:g})",
        box=(-R * np.ones(n), R * np.ones(n)))


def _make_sphere(n: int, R: float = 1.0) -> SemiAlgebraicSet:
    # one equality plus the redundant ball inequality, so T/Q and R certificates
    # all apply to the same description
    if R <= 0:
        raise ValueError("sphere radius must be positive")
    ball = _ball_polynomial(n, R)
    return SemiAlgebraicSet(
        n=n, inequalities=(ball,), equalities=(ball,), radius=R,
        lojasiewicz_hint=LojasiewiczHint(1.0), name=f"sphere(n={n},R={R:g})",
        box=(-R * np.ones(n), R * np.ones(n)))


def _make_simplex(n: int, K: float = 1.0) -> SemiAlgebraicSet:
    if K <= 0:
        raise ValueError("simplex scale must be positive")
    gs = [Polynomial.variable(n, i) for i in range(n)]
    cap = Polynomial.constant(n, K) - sum(gs, Polynomial.zero(n))
    return SemiAlgebraicSet(
        n=n, inequalities=tuple(gs) + (cap,),
        lojasiewicz_hint=LojasiewiczHint(1.0), name=f"simplex(n={n},K={K:g})",
        box=(np.zeros(n), K * np.ones(n)))


def _make_hypercube(n: int, R: float = 1.0) -> SemiAlgebraicSet:
    if R <= 0:
        raise ValueError("hypercube scale must be positive")
    gs = []
    for i in range(n):
        xi = Polynomial.variable(n, i)
        gs.append(Polynomial.constant(n, R * R) - xi * xi)
    return SemiAlgebraicSet(
        n=n, inequalities=tuple(gs),
        lojasiewicz_hint=LojasiewiczHint(1.0), name=f"hypercube(n={n},R={R:g})",
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
        n=n, inequalities=tuple(gs),
        lojasiewicz_hint=LojasiewiczHint(1.0), name=f"polytope(m={A.shape[0]},n={n})",
        box=box)


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
                                lojasiewicz_hint=LojasiewiczHint(1.0),
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
                 lojasiewicz=None, box=None, name: str = "custom") -> SemiAlgebraicSet:
    hint = None
    if lojasiewicz is not None:
        hint = lojasiewicz if isinstance(lojasiewicz, LojasiewiczHint) else LojasiewiczHint(**lojasiewicz)
    X = SemiAlgebraicSet(n=n, inequalities=tuple(inequalities),
                         equalities=tuple(equalities),
                         lojasiewicz_hint=hint, name=name, box=box)
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
    """Sample `count` points of X by rejection in the bounding box.

    Plain rejection almost never hits a variety, so on sets with equalities
    each batch of box points is first projected onto the zero set (see
    _project_batch). A point is kept when its violation is at most
    FEASIBILITY_TOL, so a projection that fails, or that lands outside an
    inequality, costs a draw and nothing else; after 200000 box draws without
    `count` kept points, RuntimeError reports starvation. The result is a
    function of `seed`.
    """
    rng = np.random.default_rng(seed)
    lo, hi = X.bounding_box()
    kept = []
    tries = 0
    batch = max(4 * count, 256)
    while len(kept) < count and tries < _MAX_DRAWS:
        pts = rng.uniform(lo, hi, size=(batch, X.n))
        tries += batch
        if X.equalities:
            pts = _project_batch(X, pts)
        ok = violation_many(X, pts) <= FEASIBILITY_TOL
        kept.extend(pts[ok])
    if len(kept) < count:
        raise RuntimeError(f"sampler starvation: kept {len(kept)}/{count} after {tries} draws")
    return np.array(kept[:count])


def _project_batch(X: SemiAlgebraicSet, pts: np.ndarray) -> np.ndarray:
    """Project a batch of points onto the equalities of X.

    Gauss-Newton steps z <- z - pinv(J_h(z)) h(z) run on the whole batch, on
    restore_feasibility's schedule; a point stops moving once |h| <= _GN_STOP
    or when h or J_h is no longer finite. The inequalities play no part: a
    point left off X (where the constraint gradients vanish, or on the zero
    set but outside an inequality) is returned where it stopped, and callers
    reject it by its violation.
    """
    neq = len(X.equalities)
    z = np.array(pts, dtype=float)
    for _ in range(_GN_STEPS):
        vals, jac = X.compiled.jet(z)
        h, J = vals[:, :neq], jac[:, :neq]
        moving = ((np.abs(h).max(axis=1, initial=0.0) > _GN_STOP)
                  & np.isfinite(h).all(axis=1) & np.isfinite(J).all(axis=(1, 2)))
        if not moving.any():
            break
        z[moving] -= (np.linalg.pinv(J[moving]) @ h[moving, :, None])[:, :, 0]
    return z


def restore_feasibility(X: SemiAlgebraicSet, x: np.ndarray) -> Optional[np.ndarray]:
    """Gauss-Newton steps onto the violated constraints; None on failure."""
    z = np.asarray(x, dtype=float).copy()
    neq = len(X.equalities)
    for _ in range(_GN_STEPS):
        vals, jac = X.compiled.jet(z)
        rows = vals < 0.0
        rows[:neq] = True
        if not rows.any():
            return z
        F = vals[rows]
        if np.abs(F).max() <= _GN_STOP:
            return z
        step, *_ = np.linalg.lstsq(jac[rows], -F, rcond=None)
        if not np.all(np.isfinite(step)):
            return None
        z = z + step
    return z if violation(X, z) <= FEASIBILITY_TOL else None


def sampled_extremum(f: Polynomial, X: SemiAlgebraicSet, pool: np.ndarray,
                     starts: int, maximize: bool):
    """(value, point): the best of f over a feasible pool of X, polished.

    f is evaluated at every pool point, and local_extremum runs from the
    `starts` best of them. The value is f at the best feasible point found:
    never below the true minimum (above the true maximum), and otherwise an
    estimate.
    """
    vals = f.eval_many(pool)
    order = np.argsort(vals)[::-1] if maximize else np.argsort(vals)
    best, best_point = float(vals[order[0]]), pool[order[0]]
    for idx in order[:starts]:
        polished = local_extremum(f, X, pool[idx], maximize=maximize)
        if polished is not None and (polished[1] > best if maximize else polished[1] < best):
            best_point, best = polished
    return best, np.asarray(best_point, dtype=float)


def local_extremum(f: Polynomial, X: SemiAlgebraicSet, x0: np.ndarray,
                   maximize: bool = False):
    """Polish a feasible point to a nearby local extremum of f over X.

    Phase one is projected-gradient ascent with Gauss-Newton restoration onto
    the active constraints; phase two runs Newton on the KKT system of the
    final active set. Returns (point, value) at a feasible point, or None when
    restoration fails. Local solvers routinely stop short on curved constraint
    surfaces; this keeps grid-plus-polish estimates trustworthy to round-off.
    """
    p = CompiledPoly(X.n, (f if maximize else -1.0 * f,))
    x0 = np.asarray(x0, dtype=float)
    x = restore_feasibility(X, x0)
    if x is None:
        return None
    neq = len(X.equalities)
    # rows never released: the equalities, and an inequality that is also an
    # equality (the sphere's redundant ball)
    fixed = np.array([True] * neq + [g in X.equalities for g in X.inequalities], dtype=bool)

    def active(z):
        """Mask of the active constraint rows at z, and their Jacobian."""
        vals, jac = X.compiled.jet(z)
        on = np.abs(vals) <= _ACTIVE_TOL
        on[:neq] = True
        return on, jac[on]

    def value(z):
        return float(p(z)[0])

    def gradient(z):
        return p.jet(z)[1][0]

    best_x, best_v = x, value(x)
    step = 0.1
    # Each point is restored once per call: `outcomes` maps a trial's bytes
    # to its restoration and that point's value (-inf when infeasible), and
    # acceptance is judged against the current best_v. The direction depends
    # on best_x alone, and a failed search rejects every halving down to
    # `rejected`; the next one starts a quarter lower, so its trials at or
    # above `rejected` repeat rejected points bit for bit and are skipped.
    outcomes = {x0.tobytes(): (x, best_v)}
    rejected = np.inf
    for _ in range(_POLISH_ITERS):
        g = gradient(best_x)
        on, J = active(best_x)
        direction = g
        if on.any():
            lam, *_ = np.linalg.lstsq(J.T, g, rcond=None)
            # a positive multiplier means the ascent direction already points
            # into the feasible side of that inequality: release it
            keep = fixed[on] | (lam <= 1e-12)
            if keep.any():
                tang, *_ = np.linalg.lstsq(J[keep], J[keep] @ g, rcond=None)
                direction = g - tang
        nrm = float(np.linalg.norm(direction))
        if nrm <= 1e-14:
            break
        improved = False
        trial_step = step
        for _ in range(30):
            if trial_step < rejected:
                trial = best_x + trial_step * direction / max(nrm, 1e-30)
                key = trial.tobytes()
                if key not in outcomes:
                    cand = restore_feasibility(X, trial)
                    feasible = cand is not None and violation(X, cand) <= FEASIBILITY_TOL
                    outcomes[key] = (cand, value(cand) if feasible else -np.inf)
                cand, v = outcomes[key]
                if v > best_v + 1e-16:
                    best_x, best_v = cand, v
                    improved = True
                    step = trial_step * 1.5
                    rejected = np.inf
                    break
                rejected = trial_step
            trial_step *= 0.5
        if not improved:
            if step <= 1e-12:
                break
            step *= 0.25

    # KKT Newton refinement on the final active set
    on, J0 = active(best_x)
    if on.any():
        m = int(on.sum())
        lam, *_ = np.linalg.lstsq(J0.T, gradient(best_x), rcond=None)
        z = best_x.copy()
        for _ in range(12):
            vals, jac, hess = X.compiled.jet(z, 2)
            _, gp, Hp = p.jet(z, 2)
            J = jac[on]
            F = np.concatenate([gp[0] - J.T @ lam, vals[on]])
            if np.abs(F).max() <= 1e-13:
                break
            H = Hp[0] - np.tensordot(lam, hess[on], axes=1)
            KKT = np.block([[H, -J.T], [J, np.zeros((m, m))]])
            try:
                delta = np.linalg.lstsq(KKT, -F, rcond=None)[0]
            except np.linalg.LinAlgError:
                break
            z = z + delta[:X.n]
            lam = lam + delta[X.n:]
        if violation(X, z) <= FEASIBILITY_TOL and value(z) > best_v:
            best_x, best_v = z, value(z)

    f_val = best_v if maximize else -best_v
    return best_x, f_val

