"""Empirical geometry of truncated moment bodies.

Inner-approximates the moment body by sampled moment vectors, projects
candidate sequences onto that hull, lower-bounds the pseudo-moment Hausdorff
distances through support-function gaps, and fits Lojasiewicz exponents from
exterior samples. True Hausdorff distances are out of reach (max-of-distance is
nonconvex); everything here is either a certified lower bound or a documented
estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from momentlab import sdpcore
from momentlab.hierarchy import build_moment_relaxation, solve_relaxation
from momentlab.momentkit import TruncatedSequence
from momentlab.polycore import Polynomial, count_monomials, monomial_basis
from momentlab.sdpcore import SolveOptions
from momentlab.semialg import (
    FEASIBILITY_TOL,
    POOL_SIZE,
    SemiAlgebraicSet,
    _project_batch,
    rejection_sample,
    restore_feasibility,
    sampled_extremum,
    violation_many,
)

# project_to_moment_set: at most _PROJECTION_ITERS accelerated gradient steps,
# stopping once the KKT residual is at most _PROJECTION_KKT_TOL.
_PROJECTION_ITERS = 20000
_PROJECTION_KKT_TOL = 1e-8
_LOJASIEWICZ_SHELL = (1e-4, 1e-1)  # lojasiewicz_fit: violations of the fitted samples
_LOJASIEWICZ_MIN_POINTS = 50  # lojasiewicz_fit: fewest exterior samples
_CQC_ACTIVE_TOL = 1e-7  # cqc_check: g is active where |g(x)| is at most this


class SamplerStarvationError(RuntimeError):
    pass


class InsufficientExteriorSamples(RuntimeError):
    pass


class NonOptimalSolveError(RuntimeError):
    """A support-function SDP stopped short of `optimal`; its value bounds
    nothing, so it is refused rather than folded into a maximum."""


# ----------------------------------------------------------------------------
# sampling the moment body


@dataclass(frozen=True)
class MomentConeSample:
    """Finite inner approximation of the truncated moment body of X."""

    order: int
    atoms: np.ndarray
    vectors: np.ndarray  # row j is v_k(x_j)
    provenance: str

    @property
    def count(self) -> int:
        return self.atoms.shape[0]


def sample_moment_cone(X: SemiAlgebraicSet, k: int, strategy: str = "sobol",
                       count: int = 256, seed: int = 0) -> MomentConeSample:
    """Sample atoms of X and their moment vectors v_k under the global order.

    Strategies: `grid` (lattice in the bounding box), `sobol` (scrambled
    low-discrepancy points), `boundary-biased` (points projected onto active
    constraint surfaces, required for sets with equalities).
    """
    if count < count_monomials(X.n, k):
        raise ValueError(f"count must be at least s(n,k) = {count_monomials(X.n, k)}")
    lo, hi = X.bounding_box()
    rng = np.random.default_rng(seed)
    if strategy == "grid":
        per_axis = max(2, int(np.ceil((4 * count) ** (1.0 / X.n))))
        axes = [np.linspace(lo[i], hi[i], per_axis) for i in range(X.n)]
        mesh = np.meshgrid(*axes)
        pool = np.stack([m.ravel() for m in mesh], axis=-1)
    elif strategy == "sobol":
        from scipy.stats import qmc

        sampler = qmc.Sobol(d=X.n, scramble=True, seed=seed)
        unit = sampler.random(max(8 * count, 512))
        pool = lo + unit * (hi - lo)
    elif strategy == "boundary-biased":
        raw = rng.uniform(lo, hi, size=(max(2 * count, 128), X.n))
        surfaces = list(X.equalities) + list(X.inequalities)
        parts = []
        for j, surf in enumerate(surfaces):
            chunk = raw[j::len(surfaces)]
            target = SemiAlgebraicSet(n=X.n, inequalities=X.inequalities,
                                      equalities=X.equalities + (surf,)
                                      if surf not in X.equalities else X.equalities,
                                      name="surface", box=X.box or (lo, hi))
            parts.append(_project_batch(target, chunk))
        pool = np.vstack(parts)
    else:
        raise ValueError(f"unknown strategy {strategy!r}")

    if X.equalities and strategy != "boundary-biased":
        if strategy == "sobol":
            pool = _project_batch(X, pool[:4 * count])
        # grids are left untouched: hitting a variety is the caller's business
    ok = violation_many(X, pool) <= FEASIBILITY_TOL
    accepted = pool[ok]
    rate = accepted.shape[0] / pool.shape[0]
    if accepted.shape[0] == 0 or rate < 1e-4:
        raise SamplerStarvationError(
            f"acceptance rate {rate:.2e} sampling {X.name} with {strategy}")
    atoms = accepted[:count]
    basis = monomial_basis(X.n, k)
    return MomentConeSample(order=k, atoms=atoms, vectors=basis.evaluate(atoms),
                            provenance=f"{strategy}(count={count},seed={seed})")


# ----------------------------------------------------------------------------
# projection onto the sampled hull


@dataclass
class ProjectionResult:
    target: np.ndarray
    projected: np.ndarray
    distance: float
    weights: np.ndarray
    kkt_residual: float
    iterations: int


def _simplex_project(v: np.ndarray) -> np.ndarray:
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    rho = np.nonzero(u * np.arange(1, v.size + 1) > css)[0][-1]
    theta = css[rho] / (rho + 1.0)
    return np.maximum(v - theta, 0.0)


def project_to_moment_set(y: TruncatedSequence, sample: MomentConeSample) -> ProjectionResult:
    """min over simplex weights w of |y - V' w|, by accelerated projected
    gradient: at most _PROJECTION_ITERS steps, stopping once the KKT residual,
    checked every 25 steps, is at most _PROJECTION_KKT_TOL. The distance
    upper-bounds the distance to the sampled hull's convex hull exactly and
    estimates the distance to the moment body from above as the sample is
    refined."""
    if sample.order != y.order:
        raise ValueError("sample and sequence orders differ")
    V = sample.vectors.T  # (s, N)
    target = y.values
    N = V.shape[1]
    L = float(np.linalg.norm(V, 2) ** 2)
    w = np.full(N, 1.0 / N)
    wp = w.copy()
    t = 1.0
    res = np.inf
    it = 0
    for it in range(1, _PROJECTION_ITERS + 1):
        beta = w + ((t - 1.0) / (t + 2.0)) * (w - wp)
        grad = V.T @ (V @ beta - target)
        wn = _simplex_project(beta - grad / L)
        wp, w = w, wn
        t += 1.0
        if it % 25 == 0 or it == _PROJECTION_ITERS:
            grad_w = V.T @ (V @ w - target)
            fixed = _simplex_project(w - grad_w / L)
            res = float(np.linalg.norm(fixed - w) * L)
            if res <= _PROJECTION_KKT_TOL:
                break
    proj = V @ w
    return ProjectionResult(target=target, projected=proj,
                            distance=float(np.linalg.norm(proj - target)),
                            weights=w, kkt_residual=res, iterations=it)


# ----------------------------------------------------------------------------
# support gaps and Hausdorff lower bounds


def support_gap(X: SemiAlgebraicSet, certificate: str, r: int, k: int,
                c: np.ndarray, opts: Optional[SolveOptions] = None,
                pool: Optional[np.ndarray] = None, seed: int = 0) -> float:
    """h_pseudo(c) - h_moment(c): the pseudo-moment support function (one SDP)
    minus the sampled moment support function. Dividing by |c| lower-bounds the
    Hausdorff distance d_k. The sampled value polishes the 4 best points of
    `pool`, by default rejection_sample(X, POOL_SIZE, seed).

    The SDP must reach status `optimal`; otherwise NonOptimalSolveError names
    r and the status."""
    c = np.asarray(c, dtype=float).ravel()
    if not np.any(c):
        raise ValueError("direction must be nonzero")
    basis = monomial_basis(X.n, k)
    if c.size != len(basis):
        raise ValueError(f"direction needs length s(n,k) = {len(basis)}")
    p = Polynomial.from_vector(basis, c)
    rel = build_moment_relaxation(-p, X, certificate, r)
    value, sol = solve_relaxation(rel, opts)
    if sol.status != "optimal":
        raise NonOptimalSolveError(f"r={r}: solver status {sol.status!r}")
    h_pseudo = -value
    if pool is None:
        pool = rejection_sample(X, POOL_SIZE, seed)
    h_moment = sampled_extremum([p], X, pool, 4, maximize=True)[0][0]
    return h_pseudo - h_moment


@dataclass(frozen=True)
class SampledSupport:
    """The sampled moment support function of X in unit directions: row d of
    `directions` is a unit vector c over monomial_basis(n, k), and
    `h_moment[d]` the pool-plus-polish estimate of max over X of c . v_k(x)."""

    k: int
    seed: int
    directions: np.ndarray  # (number of directions, s(n, k))
    h_moment: np.ndarray


def sampled_support(X: SemiAlgebraicSet, k: int, directions: int,
                    seed: int) -> SampledSupport:
    """Draw `directions` unit directions (one N(0, I) draw each from
    default_rng(seed), normalized) and estimate X's moment support function
    in each over one pool, rejection_sample(X, POOL_SIZE, seed): one
    sampled_extremum call polishes the 4 best points of every direction
    together. It depends on neither the certificate nor the level, so a
    distance series computes it once."""
    if directions < 1:
        raise ValueError("need at least one direction")
    rng = np.random.default_rng(seed)
    s = count_monomials(X.n, k)
    dirs = np.empty((directions, s))
    for d in range(directions):
        c = rng.normal(size=s)
        dirs[d] = c / np.linalg.norm(c)
    pool = rejection_sample(X, POOL_SIZE, seed)
    basis = monomial_basis(X.n, k)
    h_moment, _ = sampled_extremum([Polynomial.from_vector(basis, c) for c in dirs], X, pool, 4,
                                   maximize=True)
    return SampledSupport(k=k, seed=seed, directions=dirs, h_moment=h_moment)


def hausdorff_lower_bound(X: SemiAlgebraicSet, certificate: str, r: int, k: int,
                          directions: int = 32, seed: int = 0,
                          opts: Optional[SolveOptions] = None,
                          max_psd_size: int = 400,
                          support: Optional[SampledSupport] = None) -> float:
    """max over random unit directions of support_gap / |c|; a lower-bound
    estimate of d_k(certificate(X)_{2r}) that is nondecreasing in the number
    of directions. The relaxation is built with PSD blocks capped at
    `max_psd_size`, as in build_moment_relaxation.

    The directions and the sampled moment support function come from
    `support`, which must be sampled_support(X, k, directions, seed); without
    it they are computed here. A `support` with another k, direction count or
    seed raises ValueError.

    Every direction's SDP must reach status `optimal`; otherwise
    NonOptimalSolveError names r, the direction index and the status."""
    if support is None:
        support = sampled_support(X, k, directions, seed)
    given = (support.k, support.directions.shape[0], support.seed)
    for name, have, want in zip(("k", "directions", "seed"), given, (k, directions, seed)):
        if have != want:
            raise ValueError(f"support was sampled with {name}={have}, not {want}")
    basis = monomial_basis(X.n, k)
    rel = None
    sol = None
    best = -np.inf
    for d, (c, h_moment) in enumerate(zip(support.directions, support.h_moment)):
        p = Polynomial.from_vector(basis, c)
        # the feasible set is direction-independent: build, scale and factor
        # once, then swap objectives and warm start from the previous solution
        rel = (build_moment_relaxation(-p, X, certificate, r, max_psd_size)
               if rel is None else rel.with_objective(-p))
        sol = sdpcore.solve(rel.program, opts, warm=sol)
        if sol.status != "optimal":
            raise NonOptimalSolveError(
                f"r={r}, direction {d}: solver status {sol.status!r}")
        best = max(best, -sol.primal_value - h_moment)
    return float(best)


# ----------------------------------------------------------------------------
# Lojasiewicz exponent fitting


def distance_to_set(X: SemiAlgebraicSet, points: np.ndarray,
                    pool: Optional[np.ndarray] = None) -> np.ndarray:
    """d(x, X) for each row x of `points` (m, n), by sample-and-polish; a
    documented estimate.

    The candidates are the Gauss-Newton restorations of all rows, from one
    restore_feasibility call, and the rows of `pool` (points of X). One
    sampled_extremum call maximizes -|z - x|^2 for every x over them and
    polishes each x's best candidate; a distance is |z - x| at the polished
    point, or inf with no candidate. Where the constraint gradients vanish
    on X, points passing the FEASIBILITY_TOL test can lie outside X: near
    the tip of the cusp {x2^2 <= x1^3, x1 <= 1} distances read up to 0.74%
    below a dense-curve reference, and on {x^2 = 0} up to 3.2e-7 below |x|.
    """
    x = np.array(points, dtype=float).reshape(-1, X.n)
    restored = restore_feasibility(X, x)
    candidates = np.vstack([restored[np.isfinite(restored).all(axis=1)],
                            np.reshape([] if pool is None else pool, (-1, X.n))])
    if not len(candidates):
        return np.full(len(x), np.inf)
    zs = [Polynomial.variable(X.n, i) for i in range(X.n)]
    fs = [-sum(((z - xi) ** 2 for z, xi in zip(zs, row)), Polynomial.zero(X.n)) for row in x]
    _, nearest = sampled_extremum(fs, X, candidates, 1, maximize=True)
    return np.linalg.norm(nearest - x, axis=1)


@dataclass
class LojasiewiczFit:
    exponent: float
    constant: float
    r_squared: float
    points_used: int


def lojasiewicz_fit(X: SemiAlgebraicSet, sample_box, count: int = 300,
                    seed: int = 0) -> LojasiewiczFit:
    """Regress log d(x, X) on log violation(x) over up to `count` (at least
    50) exterior samples in the shell _LOJASIEWICZ_SHELL = [1e-4, 1e-1] of
    violations; the slope estimates the exponent. One distance_to_set call
    measures every exterior sample, over the feasible box draws and the
    samples' own restorations."""
    if count < _LOJASIEWICZ_MIN_POINTS:
        raise ValueError(f"count must be at least {_LOJASIEWICZ_MIN_POINTS}, got {count}")
    lo, hi = np.asarray(sample_box[0], dtype=float), np.asarray(sample_box[1], dtype=float)
    rng = np.random.default_rng(seed)
    exterior, feasible = [], []
    tries = 0
    while len(exterior) < count and tries < 60:
        pts = rng.uniform(lo, hi, size=(4 * count, X.n))
        v = violation_many(X, pts)
        mask = (v >= _LOJASIEWICZ_SHELL[0]) & (v <= _LOJASIEWICZ_SHELL[1])
        exterior.extend(pts[mask])
        feasible.extend(pts[v <= FEASIBILITY_TOL])
        tries += 1
    if len(exterior) < _LOJASIEWICZ_MIN_POINTS:
        raise InsufficientExteriorSamples(
            f"only {len(exterior)} exterior points in the violation shell")
    exterior = np.array(exterior[:count])
    v = violation_many(X, exterior)
    d = distance_to_set(X, exterior, np.array(feasible))
    keep = np.isfinite(d) & (d > 0) & (v > 0)
    logv, logd = np.log(v[keep]), np.log(d[keep])
    slope, intercept = np.polyfit(logv, logd, 1)
    fitted = slope * logv + intercept
    ss_res = float(np.sum((logd - fitted) ** 2))
    ss_tot = float(np.sum((logd - logd.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return LojasiewiczFit(exponent=float(slope), constant=float(np.exp(intercept)),
                          r_squared=r2, points_used=int(keep.sum()))


# ----------------------------------------------------------------------------
# Lipschitz bound and constraint qualification


def pseudo_moment_radius(R: float, n: int, k: int) -> float:
    """Radius of a Euclidean ball around the origin containing every level
    pseudo-moment sequence of the R-ball preordering at truncation k = 2l:
    sqrt(binom(n+l, n)) * sum_{i<=l} R^{2i}."""
    if k % 2 != 0:
        raise ValueError("the radius bound is stated for even truncation orders")
    ell = k // 2
    return float(np.sqrt(math.comb(n + ell, n)) * sum(R ** (2 * i) for i in range(ell + 1)))


def lipschitz_bound(R: float, k: int, n: int) -> float:
    """Upper bound on sup over the R-ball of the spectral norm of the Jacobian
    of v_k, via the entrywise gradient bound |grad x^alpha| <= |alpha| R^(|alpha|-1)
    aggregated in Frobenius norm."""
    if R < 0:
        raise ValueError("R must be nonnegative")
    total = 0.0
    for alpha in monomial_basis(n, k).exponents:
        a = sum(alpha)
        if a >= 1:
            total += a * a * (R ** (2 * (a - 1)) if a > 1 or R > 0 else 1.0)
    return float(np.sqrt(total))


@dataclass
class CQCReport:
    holds_on_sample: bool
    min_singular_value: float
    points_checked: int


def cqc_check(X: SemiAlgebraicSet, count: int = 64, seed: int = 0) -> CQCReport:
    """Sample boundary points and report the smallest singular value of the
    matrix of gradients of the constraints active there (|g_j| at most
    _CQC_ACTIVE_TOL); values below 1e-6 flag near-degeneracy.

    The points of constraint j are one restore_feasibility call on a batch
    of box draws, onto {g_j = 0} with the other inequalities kept, so a
    point may also land where two constraints meet. Restoration stops once
    |g_j| <= 1e-13 (_GN_STOP), not at g_j = 0: at a double root, such as
    {x^2 >= 0, -x^2 >= 0}, the smallest singular value reads up to
    2 sqrt(2) sqrt(1e-13) ~ 8.9e-7 rather than zero, which is still below
    the 1e-6 threshold."""
    if X.equalities:
        raise ValueError("constraint qualification check covers inequality-only sets")
    rng = np.random.default_rng(seed)
    lo, hi = X.bounding_box()
    min_sv = np.inf
    checked = 0
    per_constraint = max(2, count // max(1, len(X.inequalities)))
    for j, g in enumerate(X.inequalities):
        # g_j held at zero, the other inequalities kept
        surface = SemiAlgebraicSet(n=X.n, equalities=(g,), inequalities=tuple(
            q for i, q in enumerate(X.inequalities) if i != j))
        pts = restore_feasibility(surface, rng.uniform(lo, hi, size=(per_constraint, X.n)))
        vals, jac = X.compiled.jet(pts[violation_many(X, pts) <= 1e-7])
        for active, J in zip(np.abs(vals) <= _CQC_ACTIVE_TOL, jac):
            if active.any():
                sv = np.linalg.svd(J[active], compute_uv=False)
                min_sv = min(min_sv, float(sv[-1]))
                checked += 1
    if checked == 0:
        raise RuntimeError("no boundary points found for the CQC check")
    return CQCReport(holds_on_sample=bool(min_sv > 1e-6),
                     min_singular_value=float(min_sv), points_checked=checked)
