"""Pseudo-moment versus moment bodies: support gaps, Lojasiewicz fits and a
constraint-qualification check. Every value is an estimate, and errs thus:
A support gap h_pseudo(c) - h_X(c) bounds the Hausdorff distance from below
only if both terms are exact: h_pseudo is one SDP, refused unless `optimal`,
but the sampled h_X is the best polished c . v_k over points of X, so it can
only read low, and a gap can read high. distance_to_set (and lojasiewicz_fit on
it) reads high where the polish misses the nearest point, and low by the
FEASIBILITY_TOL slack where constraint gradients vanish on X. cqc_check sees
only its sampled boundary points."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from momentlab import sdpcore
from momentlab.hierarchy import build_moment_relaxation, solve_relaxation
from momentlab.polycore import Polynomial, count_monomials, monomial_basis
from momentlab.sdpcore import SolveOptions
from momentlab.semialg import (
    FEASIBILITY_TOL,
    POOL_SIZE,
    SemiAlgebraicSet,
    rejection_sample,
    restore_feasibility,
    sampled_extremum,
    violation_many,
)

_LOJASIEWICZ_SHELL = (1e-4, 1e-1)  # lojasiewicz_fit: violations of the fitted samples
_LOJASIEWICZ_MIN_POINTS = 50  # lojasiewicz_fit: fewest exterior samples
_CQC_ACTIVE_TOL = 1e-7  # cqc_check: g is active where |g(x)| is at most this


class InsufficientExteriorSamples(RuntimeError):
    pass


class NonOptimalSolveError(RuntimeError):
    """A support-function SDP stopped short of `optimal`; its value bounds
    nothing, so it is refused rather than folded into a maximum."""


# ----------------------------------------------------------------------------
# support gaps and Hausdorff lower bounds


def support_gap(X: SemiAlgebraicSet, certificate: str, r: int, k: int,
                c: np.ndarray, opts: Optional[SolveOptions] = None,
                pool: Optional[np.ndarray] = None, seed: int = 0) -> float:
    """h_pseudo(c) - h_moment(c): the pseudo-moment support function (one SDP)
    minus the sampled moment support function; divided by |c|, an estimate of a
    lower bound on the Hausdorff distance d_k. The sampled value polishes the 4
    best points of `pool`, by default rejection_sample(X, POOL_SIZE, seed).

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
    `h_moment[d]` the pool-plus-polish estimate of max over X of c . v_k(x),
    read from the points of X in `pool`."""

    k: int
    seed: int
    directions: np.ndarray  # (number of directions, s(n, k))
    h_moment: np.ndarray
    pool: np.ndarray  # rejection_sample(X, POOL_SIZE, seed)


def sampled_support(X: SemiAlgebraicSet, k: int, directions: int,
                    seed: int) -> SampledSupport:
    """Draw `directions` unit directions (one N(0, I) draw each from
    default_rng(seed), normalized) and estimate X's moment support function
    in each over one pool, rejection_sample(X, POOL_SIZE, seed): one
    sampled_extremum call polishes the 4 best points of every direction
    together. It depends on neither the certificate nor the level, so a
    distance series computes it once; the result keeps the pool, which
    estimate_minimum(f, X, seed) would draw again. k must be at least 1: at
    k = 0 the one direction is the constant, whose moment is 1 in both
    bodies, so every distance would read 0."""
    if k < 1:
        raise ValueError(f"need a truncation order k >= 1, got {k}")
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
    return SampledSupport(k=k, seed=seed, directions=dirs, h_moment=h_moment, pool=pool)


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
    objectives = []
    for c in support.directions:
        p = Polynomial.from_vector(basis, c)
        # the feasible set is direction-independent: build once, then swap
        # objectives, which keeps the scaling, factor and solver plans
        rel = (build_moment_relaxation(-p, X, certificate, r, max_psd_size)
               if rel is None else rel.with_objective(-p))
        objectives.append(rel.program.c)
    # one lockstep interior-point run over the level's directions; each
    # direction is still its own solve call, certified by its own residuals,
    # and its value depends neither on the other directions nor their order
    best = -np.inf
    for d, (sol, h_moment) in enumerate(zip(sdpcore.solve_many(rel.program, objectives, opts),
                                            support.h_moment)):
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
# constraint qualification


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
