"""Empirical geometry of truncated moment bodies.

Inner-approximates the moment body by sampled moment vectors, projects
candidate sequences onto that hull, lower-bounds the pseudo-moment Hausdorff
distances through support-function gaps, and fits Lojasiewicz exponents from
exterior samples. True Hausdorff distances are out of reach (max-of-distance is
nonconvex); everything here is either a certified lower bound or a documented
estimate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from momentlab.hierarchy import build_moment_relaxation, solve_relaxation
from momentlab.momentkit import TruncatedSequence
from momentlab.polycore import Polynomial, count_monomials, monomial_basis
from momentlab.sdpcore import SolveOptions
from momentlab.semialg import (
    SemiAlgebraicSet,
    _project_batch,
    _slsqp_constraints,
    violation,
    violation_many,
)


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
                       count: int = 256, seed: int = 0,
                       tol: float = 1e-9) -> MomentConeSample:
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
            parts.append(_project_batch(target, chunk, tol))
        pool = np.vstack(parts)
    else:
        raise ValueError(f"unknown strategy {strategy!r}")

    if X.equalities and strategy != "boundary-biased":
        if strategy == "sobol":
            pool = _project_batch(X, pool[:4 * count], tol)
        # grids are left untouched: hitting a variety is the caller's business
    ok = violation_many(X, pool) <= tol
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


def project_to_moment_set(y: TruncatedSequence, sample: MomentConeSample,
                          max_iters: int = 20000, kkt_tol: float = 1e-8) -> ProjectionResult:
    """min over simplex weights w of |y - V' w|, by accelerated projected
    gradient. The distance upper-bounds the distance to the sampled hull's
    convex hull exactly and estimates the distance to the moment body from
    above as the sample is refined."""
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
    for it in range(1, max_iters + 1):
        beta = w + ((t - 1.0) / (t + 2.0)) * (w - wp)
        grad = V.T @ (V @ beta - target)
        wn = _simplex_project(beta - grad / L)
        wp, w = w, wn
        t += 1.0
        if it % 25 == 0 or it == max_iters:
            grad_w = V.T @ (V @ w - target)
            fixed = _simplex_project(w - grad_w / L)
            res = float(np.linalg.norm(fixed - w) * L)
            if res <= kkt_tol:
                break
    proj = V @ w
    return ProjectionResult(target=target, projected=proj,
                            distance=float(np.linalg.norm(proj - target)),
                            weights=w, kkt_residual=res, iterations=it)


# ----------------------------------------------------------------------------
# support gaps and Hausdorff lower bounds


def _support_over_set(p: Polynomial, X: SemiAlgebraicSet, pool: np.ndarray,
                      starts: int = 4) -> float:
    """max of p over X: dense evaluation over a feasible pool plus local polish.
    Documented estimate (a lower bound on the true maximum)."""
    from momentlab.semialg import local_extremum

    vals = p.eval_many(pool)
    order = np.argsort(vals)[::-1]
    best = float(vals[order[0]])
    for idx in order[:starts]:
        polished = local_extremum(p, X, pool[idx], maximize=True)
        if polished is not None:
            best = max(best, polished[1])
    return best


def _feasible_pool(X: SemiAlgebraicSet, seed: int, size: int = 4096) -> np.ndarray:
    from momentlab.semialg import rejection_sample

    rng = np.random.default_rng(seed)
    lo, hi = X.bounding_box()
    pts = rng.uniform(lo, hi, size=(size, X.n))
    keep = pts[violation_many(X, pts) <= 1e-9]
    # about `size` feasible points: a set of positive volume keeps its share
    # of the box draw and samples the rest; a variety, which box points miss,
    # samples them all. A sparser pool leaves gaps (over 10 degrees on the
    # circle at 256 points) where the global maximum's basin can get none of
    # the four polish starts of _support_over_set.
    sampled = rejection_sample(X, max(64, size - len(keep)), seed=seed + 1)
    return np.vstack([keep, sampled]) if keep.size else sampled


def support_gap(X: SemiAlgebraicSet, certificate: str, r: int, k: int,
                c: np.ndarray, opts: Optional[SolveOptions] = None,
                pool: Optional[np.ndarray] = None, seed: int = 0) -> float:
    """h_pseudo(c) - h_moment(c): the pseudo-moment support function (one SDP)
    minus the sampled moment support function. Dividing by |c| lower-bounds the
    Hausdorff distance d_k.

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
    value, sol = solve_relaxation(rel, opts or SolveOptions())
    if sol.status != "optimal":
        raise NonOptimalSolveError(f"r={r}: solver status {sol.status!r}")
    h_pseudo = -value
    if pool is None:
        pool = _feasible_pool(X, seed)
    h_moment = _support_over_set(p, X, pool)
    return h_pseudo - h_moment


def hausdorff_lower_bound(X: SemiAlgebraicSet, certificate: str, r: int, k: int,
                          directions: int = 32, seed: int = 0,
                          opts: Optional[SolveOptions] = None,
                          max_psd_size: int = 400) -> float:
    """max over random unit directions of support_gap / |c|; a lower-bound
    estimate of d_k(certificate(X)_{2r}) that is nondecreasing in the number
    of directions. The relaxation is built with PSD blocks capped at
    `max_psd_size`, as in build_moment_relaxation.

    Every direction's SDP must reach status `optimal`; otherwise
    NonOptimalSolveError names r, the direction index and the status."""
    from momentlab import sdpcore
    from momentlab.sdpcore import ConicProgram

    if directions < 1:
        raise ValueError("need at least one direction")
    rng = np.random.default_rng(seed)
    s = count_monomials(X.n, k)
    pool = _feasible_pool(X, seed)
    basis = monomial_basis(X.n, k)
    opts = opts or SolveOptions()
    rel = None
    warm = None
    best = -np.inf
    for d in range(directions):
        c = rng.normal(size=s)
        c /= np.linalg.norm(c)
        p = Polynomial.from_vector(basis, c)
        if rel is None:
            # the feasible set is direction-independent: build once, then swap
            # objectives and warm start from the previous solution
            rel = build_moment_relaxation(-p, X, certificate, r, max_psd_size)
            program = rel.program
        else:
            cv = np.zeros(program.num_vars)
            cv[rel.y_slice] = (-p).coefficient_vector(monomial_basis(X.n, 2 * r))
            program = ConicProgram(program.blocks, cv, program.A, program.b)
        run_opts = SolveOptions(**{**opts.__dict__, "warm": warm})
        sol = sdpcore.solve(program, run_opts)
        if sol.status != "optimal":
            raise NonOptimalSolveError(
                f"r={r}, direction {d}: solver status {sol.status!r}")
        warm = sol
        h_pseudo = -sol.primal_value
        h_moment = _support_over_set(p, X, pool)
        best = max(best, h_pseudo - h_moment)
    return float(best)


# ----------------------------------------------------------------------------
# Lojasiewicz exponent fitting


def distance_to_set(X: SemiAlgebraicSet, x: np.ndarray, starts: int = 8,
                    seed: int = 0) -> float:
    """d(x, X) by multistart projected descent; documented estimate.

    A Gauss-Newton restoration point seeds the search and caps the result, so a
    wandering local solve can never report a wildly pessimistic distance.
    """
    from scipy.optimize import minimize

    from momentlab.semialg import restore_feasibility as _restore_feasibility

    rng = np.random.default_rng(seed)
    x = np.asarray(x, dtype=float)
    cons = _slsqp_constraints(X)
    best = np.inf
    restored = _restore_feasibility(X, x)
    if restored is not None:
        best = float(np.linalg.norm(restored - x))
    scale = max(1.0, float(np.linalg.norm(x)))
    initial = [] if restored is None else [restored]
    initial.append(x)
    for s in range(starts):
        if s < len(initial):
            start = initial[s]
        else:
            start = x + rng.normal(scale=0.1 * scale, size=x.size)
        res = minimize(lambda z: float(np.sum((z - x) ** 2)), start,
                       jac=lambda z: 2.0 * (z - x), constraints=cons,
                       method="SLSQP", options={"maxiter": 200, "ftol": 1e-16})
        if res.x is not None and violation(X, res.x) <= 1e-9:
            best = min(best, float(np.linalg.norm(res.x - x)))
    return best


@dataclass
class LojasiewiczFit:
    exponent: float
    constant: float
    r_squared: float
    points_used: int


def lojasiewicz_fit(X: SemiAlgebraicSet, sample_box, count: int = 300,
                    seed: int = 0, shell=(1e-4, 1e-1),
                    starts: int = 8) -> LojasiewiczFit:
    """Regress log d(x, X) on log violation(x) over exterior samples inside the
    shell violation in [1e-4, 1e-1]; the slope estimates the exponent."""
    lo, hi = np.asarray(sample_box[0], dtype=float), np.asarray(sample_box[1], dtype=float)
    rng = np.random.default_rng(seed)
    exterior = []
    tries = 0
    while len(exterior) < count and tries < 60:
        pts = rng.uniform(lo, hi, size=(4 * count, X.n))
        v = violation_many(X, pts)
        mask = (v >= shell[0]) & (v <= shell[1])
        exterior.extend(pts[mask])
        tries += 1
    if len(exterior) < 50:
        raise InsufficientExteriorSamples(
            f"only {len(exterior)} exterior points in the violation shell")
    exterior = np.array(exterior[:count])
    v = violation_many(X, exterior)
    d = np.array([distance_to_set(X, x, starts=starts, seed=seed + i)
                  for i, x in enumerate(exterior)])
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
    import math

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


def cqc_check(X: SemiAlgebraicSet, count: int = 64, seed: int = 0,
              active_tol: float = 1e-7) -> CQCReport:
    """Sample boundary points and report the smallest singular value of the
    active-gradient matrix; values below 1e-6 flag near-degeneracy."""
    if X.equalities:
        raise ValueError("constraint qualification check covers inequality-only sets")
    from scipy.optimize import minimize

    rng = np.random.default_rng(seed)
    lo, hi = X.bounding_box()
    min_sv = np.inf
    checked = 0
    per_constraint = max(2, count // max(1, len(X.inequalities)))
    for j, g in enumerate(X.inequalities):
        # g_j held at zero, the other inequalities kept
        surface = SemiAlgebraicSet(n=X.n, equalities=(g,), inequalities=tuple(
            q for i, q in enumerate(X.inequalities) if i != j))
        cons = _slsqp_constraints(surface)
        for _ in range(per_constraint):
            x0 = rng.uniform(lo, hi, size=X.n)
            res = minimize(lambda z: float(np.sum((z - x0) ** 2)), x0,
                           jac=lambda z: 2.0 * (z - x0), constraints=cons,
                           method="SLSQP", options={"maxiter": 120, "ftol": 1e-14})
            x = res.x
            if x is None or violation(X, x) > 1e-7:
                continue
            vals, jac = X.compiled.jet(x)
            active = np.abs(vals) <= active_tol
            if not active.any():
                continue
            J = jac[active]
            sv = np.linalg.svd(J, compute_uv=False)
            min_sv = min(min_sv, float(sv[-1]))
            checked += 1
    if checked == 0:
        raise RuntimeError("no boundary points found for the CQC check")
    return CQCReport(holds_on_sample=bool(min_sv > 1e-6),
                     min_singular_value=float(min_sv), points_checked=checked)
