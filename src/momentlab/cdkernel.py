"""Christoffel-Darboux kernels on simple sets and their products.

Reference measures come with closed-form normalized moments (exact dyadic
ratios of Gamma values) and positive cubature rules, the finitely many atoms
of Tchakaloff's theorem. Every orthonormal polynomial is computed from a rule
by graded-lex Arnoldi on its nodes ("Vandermonde with Arnoldi"; Brubeck,
Nakatsukasa & Trefethen, 2021), product bases are products of factor bases,
and the graded operator attached to the (optionally perturbed) kernel acts
diagonally on the per-factor degree decomposition.

The SDP upper bound of a level is a one-row program whose value is the least
eigenvalue of its objective blocks in those bases. The solve starts from that
exact primal-dual pair, so ADMM only certifies it.

The hypercube basis (product Chebyshev) is included as an extension; the
product-set rate machinery is stated for balls and simplexes.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from momentlab import sdpcore
from momentlab.hierarchy import build_sos_relaxation, solve_relaxation
from momentlab.momentkit import TruncatedSequence, preordering_products
from momentlab.polycore import MonomialBasis, Polynomial, monomial_basis
from momentlab.sdpcore import Block, ConicProgram, Residuals, Solution, SolveOptions, svec
from momentlab.semialg import (
    FEASIBILITY_TOL,
    SemiAlgebraicSet,
    SimpleSetProduct,
    make_catalog_set,
    rejection_sample,
    sampled_extremum,
    violation_many,
)


# ----------------------------------------------------------------------------
# reference measures with closed-form moments


def _half_ratio(a: int) -> float:
    """Gamma(a + 1/2) / Gamma(1/2) as an exact product of half-integers."""
    out = 1.0
    for t in range(a):
        out *= t + 0.5
    return out


def _rising(base: float, steps: int) -> float:
    out = 1.0
    for t in range(steps):
        out *= base + t
    return out


def _tensor(rules: Sequence[tuple]) -> tuple:
    """Product rule of (nodes, weights) pairs, coordinates in factor order."""
    nodes, weights = np.zeros((1, 0)), np.ones(1)
    for x, w in rules:
        nodes = np.hstack([np.repeat(nodes, len(w), axis=0), np.tile(x, (len(weights), 1))])
        weights = np.outer(weights, w).ravel()
    return nodes, weights


def _sphere_rule(n: int, degree: int) -> tuple:
    """Rule of the uniform measure on the unit sphere S^n in R^(n+1), exact to
    `degree`: equispaced half-step angles on S^1, then for j = 2..n the point
    (sqrt(1 - z^2) u, z) of S^j, u on S^(j-1) and z Gauss-Gegenbauer for the
    density of z, ∝ (1 - z^2)^a with a = (j-2)/2. Integrating u^alpha leaves
    a polynomial of degree <= `degree` in z."""
    m = degree + 1
    theta = 2 * np.pi * (np.arange(m) + 0.5) / m
    nodes, weights = np.stack([np.cos(theta), np.sin(theta)], axis=1), np.full(m, 1.0 / m)
    k = np.arange(1, degree // 2 + 1)
    for a in np.arange(n - 1) / 2:  # S^j for j = 2..n
        # Golub-Welsch on the monic recurrence z p_k = p_(k+1) + beta_k p_(k-1)
        beta = k * (k + 2 * a) / ((2 * k + 2 * a - 1) * (2 * k + 2 * a + 1))
        z, V = np.linalg.eigh(np.diag(np.sqrt(beta), 1) + np.diag(np.sqrt(beta), -1))
        nodes, weights = _tensor([(nodes, weights), (z[:, None], V[0] ** 2)])
        nodes[:, :-1] *= np.sqrt(1 - nodes[:, -1:] ** 2)
    return nodes, weights


@dataclass(frozen=True)
class ReferenceMeasure:
    """A probability measure on one simple set with a closed-form moment oracle.

    ball:      (1 - |x/R|^2)^(-1/2) dx on the R-ball,
    simplex:   Dirichlet(1/2, ..., 1/2) on the K-simplex,
    hypercube: product Chebyshev on [-R, R]^n (experimental extension).
    """

    kind: str
    n: int
    scale: float = 1.0

    def __post_init__(self):
        if self.kind not in ("ball", "simplex", "hypercube"):
            raise ValueError(f"unsupported measure kind {self.kind!r}")
        if self.n < 1 or self.scale <= 0:
            raise ValueError("measure needs n >= 1 and positive scale")

    def moment(self, alpha: Sequence[int]) -> float:
        alpha = tuple(int(a) for a in alpha)
        if len(alpha) != self.n:
            raise ValueError(f"multi-index length {len(alpha)} != n = {self.n}")
        total = sum(alpha)
        if self.kind == "ball":
            if any(a % 2 for a in alpha):
                return 0.0
            beta = [a // 2 for a in alpha]
            num = 1.0
            for b in beta:
                num *= _half_ratio(b)
            return self.scale ** total * num / _rising((self.n + 1) / 2.0, sum(beta))
        if self.kind == "simplex":
            num = 1.0
            for a in alpha:
                num *= _half_ratio(a)
            return self.scale ** total * num / _rising((self.n + 1) / 2.0, total)
        # hypercube: product of 1-D Chebyshev moments (2j-1)!! / (2j)!!
        out = self.scale ** total
        for a in alpha:
            if a % 2:
                return 0.0
            j = a // 2
            for t in range(j):
                out *= (2 * t + 1) / (2 * t + 2)
        return out

    def cubature(self, degree: int) -> tuple:
        """(nodes, weights): points of the domain and positive weights summing
        to one, exact for every polynomial of degree <= `degree`. The ball
        measure is the uniform measure on S^n projected to its first n
        coordinates; the simplex measure is their squares (so the sphere rule
        must be exact to 2 * degree); the hypercube's rule is a tensor product."""
        if degree < 0:
            raise ValueError(f"cubature degree must be >= 0, got {degree}")
        if self.kind == "hypercube":
            return _tensor([ReferenceMeasure("ball", 1, self.scale).cubature(degree)] * self.n)
        if self.kind == "ball":
            nodes, weights = _sphere_rule(self.n, degree)
            return self.scale * nodes[:, :self.n], weights
        nodes, weights = _sphere_rule(self.n, 2 * degree)
        return self.scale * nodes[:, :self.n] ** 2, weights

    def domain(self) -> SemiAlgebraicSet:
        if self.kind == "simplex":
            return make_catalog_set("simplex", n=self.n, K=self.scale)
        return make_catalog_set(self.kind, n=self.n, R=self.scale)


def reference_moments(kind: str, n: int, scale: float, alpha: Sequence[int]) -> float:
    return ReferenceMeasure(kind, n, scale).moment(alpha)


def measures_for(product: Union[SimpleSetProduct, ReferenceMeasure, Sequence]) -> tuple:
    if isinstance(product, ReferenceMeasure):
        return (product,)
    if isinstance(product, SimpleSetProduct):
        return tuple(ReferenceMeasure(kind, ni, scale) for kind, ni, scale in product.factors)
    return tuple(product)


def joint_moment(measures: Sequence[ReferenceMeasure], alpha: Sequence[int]) -> float:
    out = 1.0
    offset = 0
    for mu in measures:
        out *= mu.moment(tuple(alpha[offset:offset + mu.n]))
        offset += mu.n
    return out


def moment_sequence(measures: Sequence[ReferenceMeasure], k: int) -> TruncatedSequence:
    measures = measures_for(measures)
    n = sum(mu.n for mu in measures)
    basis = monomial_basis(n, k)
    vals = np.array([joint_moment(measures, a) for a in basis.exponents])
    return TruncatedSequence(n, k, vals)


# ----------------------------------------------------------------------------
# orthonormal bases


_DEGREE_CAP_1D = 16
_DEGREE_CAP_ND = 8


def _orthonormal(nodes: np.ndarray, weights: np.ndarray, D: int) -> tuple:
    """Orthonormal polynomials to degree D of sum_k weights[k] delta(nodes[k])
    by graded-lex Arnoldi: q_alpha = x_i q_(alpha - e_i), i the first variable
    of alpha, orthogonalized twice against the earlier q's. Returns (Q, C):
    Q[k, a] = q_a(nodes[k]), so Q' diag(weights) Q = I, and row a of C holds
    q_a's coefficients on monomial_basis(n, D). C is lower triangular with a
    positive diagonal: under a rule exact to 2D, the Cholesky basis."""
    basis = monomial_basis(nodes.shape[1], D)
    expo, unit = basis.exponent_array, np.eye(nodes.shape[1], dtype=np.int64)
    lower = int(np.sum(expo.sum(axis=1) < D))  # x_i maps these rows into the basis
    shift = [basis.positions(expo[:lower] + e) for e in unit]
    Q, C = np.zeros((len(weights), len(expo))), np.zeros((len(expo), len(expo)))
    Q[:, 0] = C[0, 0] = 1.0 / np.sqrt(weights.sum())
    for a in range(1, len(expo)):
        i = np.flatnonzero(expo[a])[0]
        p = basis.positions(expo[a] - unit[i])
        q, c = nodes[:, i] * Q[:, p], np.zeros(len(expo))
        c[shift[i]] = C[p, :lower]
        for _ in range(2):
            h = Q[:, :a].T @ (weights * q)
            q, c = q - Q[:, :a] @ h, c - h @ C[:a]
        norm = np.sqrt(weights @ q ** 2)
        Q[:, a], C[a] = q / norm, c / norm
    return Q, C


@dataclass(frozen=True)
class KernelBasis:
    """Orthonormal polynomials P_alpha for a product measure, graded per factor.

    Row i of coeffs holds the monomial coefficients of P_i; profiles[i] is the
    tuple of per-factor degrees (j_1, ..., j_m) of P_i, with deg P_i = sum.
    """

    measures: tuple
    degree: int
    basis: MonomialBasis
    coeffs: np.ndarray
    profiles: tuple

    @property
    def n(self) -> int:
        return self.basis.n

    @property
    def num_factors(self) -> int:
        return len(self.measures)

    def polynomial(self, i: int) -> Polynomial:
        return Polynomial.from_vector(self.basis, self.coeffs[i])

    def eval_rows(self, points: np.ndarray) -> np.ndarray:
        """P values at points, shape (npoints, len(basis))."""
        return self.basis.evaluate(points) @ self.coeffs.T

    def total_degrees(self) -> np.ndarray:
        return np.array([sum(p) for p in self.profiles])

    def coordinates(self, f: Polynomial) -> np.ndarray:
        """Coefficients of f in the P basis (f = sum c_i P_i)."""
        if f.degree > self.degree:
            raise ValueError(f"deg f = {f.degree} exceeds basis degree {self.degree}")
        fvec = f.coefficient_vector(self.basis)
        return sla.solve_triangular(self.coeffs.T, fvec, lower=False)

    def from_coordinates(self, c: np.ndarray) -> Polynomial:
        return Polynomial.from_vector(self.basis, self.coeffs.T @ c)


def orthonormal_basis(measure, D: int) -> KernelBasis:
    """Graded orthonormal basis to degree D: per factor, the Arnoldi basis of
    a rule exact to 2D, which integrates every product of two basis
    polynomials exactly; across factors, products of factor polynomials."""
    measures = measures_for(measure)
    n = sum(mu.n for mu in measures)
    cap = _DEGREE_CAP_1D if all(mu.n == 1 for mu in measures) else _DEGREE_CAP_ND
    if D > cap:
        warnings.warn(f"basis degree {D} beyond the default conditioning cap {cap}")
    joint = monomial_basis(n, D)
    coeffs = np.ones((len(joint), len(joint)))
    degrees = []
    offset = 0
    for mu in measures:
        # P_alpha is the product of the factors' P_alpha_i, alpha_i the factor's
        # block of alpha, so its coefficient of x^beta is the product of their
        # coefficients of x^beta_i
        part = joint.exponent_array[:, offset:offset + mu.n]
        idx = monomial_basis(mu.n, D).positions(part)
        coeffs = coeffs * _orthonormal(*mu.cubature(2 * D), D)[1][np.ix_(idx, idx)]
        degrees.append(part.sum(axis=1).tolist())
        offset += mu.n
    return KernelBasis(measures=measures, degree=D, basis=joint,
                       coeffs=coeffs, profiles=tuple(zip(*degrees)))


# ----------------------------------------------------------------------------
# kernel weights


def harmonic_bound_coefficient(n: int, k: int) -> float:
    """c(n, k) = 2 (n+1)^2 k^2, the per-factor budget of the lambda schedule."""
    return 2.0 * (n + 1) ** 2 * k ** 2


@dataclass(frozen=True)
class KernelWeights:
    """Per-factor schedules lambda^(i) = (lambda^(i)_j), j = 0..2r."""

    factor_weights: tuple

    def __post_init__(self):
        fw = tuple(np.asarray(w, dtype=float).ravel() for w in self.factor_weights)
        object.__setattr__(self, "factor_weights", fw)
        for w in fw:
            if w.size < 1 or abs(w[0] - 1.0) > 1e-12:
                raise ValueError("each schedule needs lambda_0 = 1")
            if np.any(w < 0.5 - 1e-12) or np.any(w > 1.0 + 1e-12):
                raise ValueError("schedule entries must lie in [1/2, 1]")

    @staticmethod
    def ones(num_factors: int, kernel_degree: int) -> "KernelWeights":
        return KernelWeights(tuple(np.ones(kernel_degree + 1) for _ in range(num_factors)))

    @property
    def kernel_degree(self) -> int:
        return min(w.size for w in self.factor_weights) - 1

    def eigenvalue(self, profile: Sequence[int]) -> float:
        out = 1.0
        for w, j in zip(self.factor_weights, profile):
            out *= w[j]
        return out

    def diagnostics(self, dims: Sequence[int], k: int, r: int) -> list:
        """Per factor: sum_{j<=k} |1 - 1/lambda_j| against c(n_i, k) / r^2."""
        out = []
        for w, ni in zip(self.factor_weights, dims):
            value = float(np.sum(np.abs(1.0 - 1.0 / w[:k + 1])))
            out.append((value, harmonic_bound_coefficient(ni, k) / r ** 2))
        return out


# ----------------------------------------------------------------------------
# kernel evaluation and the graded operator


def _profile_weights(basis: KernelBasis, weights: Optional[KernelWeights]) -> np.ndarray:
    if weights is None:
        return np.ones(len(basis.basis))
    return np.array([weights.eigenvalue(p) for p in basis.profiles])


def kernel_eval(basis: KernelBasis, x, y, degree=None,
                weights: Optional[KernelWeights] = None) -> float:
    """Perturbed kernel value sum lambda_profile P(x) P(y) over the rows whose
    total degree matches `degree` (an int selects one graded component, a pair
    selects a range, None takes everything up to the basis degree)."""
    total = basis.total_degrees()
    if degree is None:
        mask = np.ones(total.size, dtype=bool)
    elif isinstance(degree, (tuple, list)):
        lo, hi = degree
        mask = (total >= lo) & (total <= hi)
    else:
        if degree > basis.degree:
            raise ValueError(f"degree {degree} exceeds basis degree {basis.degree}")
        mask = total == degree
    px = basis.eval_rows(np.atleast_2d(np.asarray(x, dtype=float)))[0]
    py = basis.eval_rows(np.atleast_2d(np.asarray(y, dtype=float)))[0]
    lam = _profile_weights(basis, weights)
    return float(np.sum(lam[mask] * px[mask] * py[mask]))


# graded_decompose drops a profile whose coordinates are all at most this
# times the largest one: Arnoldi's inner products of odd functions over a
# symmetric rule come out near 1e-17, not 0.
_ROUNDOFF_SHARE = 1e-12


def graded_decompose(basis: KernelBasis, f: Polynomial) -> dict:
    """Split f into its eigenspace components, keyed by per-factor degree
    profile in the order the basis first meets them. A profile whose
    coordinates are round-off (see _ROUNDOFF_SHARE) gets no component, so
    the components sum back to f within round-off."""
    coords = basis.coordinates(f)
    profiles = basis.profiles
    floor = _ROUNDOFF_SHARE * np.abs(coords).max(initial=0.0)
    present = dict.fromkeys(p for p, c in zip(profiles, coords) if abs(c) > floor)
    return {p: basis.from_coordinates(np.where([q == p for q in profiles], coords, 0.0))
            for p in present}


def _scale_coordinates(basis: KernelBasis, weights: Optional[KernelWeights],
                       coords: np.ndarray, invert: bool = False) -> np.ndarray:
    """Row i of coords (P coordinates, one column per polynomial) times the
    eigenvalue of profile i, or divided by it when invert is set."""
    lam = _profile_weights(basis, weights)[:, None]
    if weights is not None and np.any(
            coords[basis.total_degrees() > weights.kernel_degree] != 0.0):
        raise ValueError("polynomial degree exceeds the kernel degree of the weights")
    if not invert:
        return coords * lam
    if np.any(lam == 0.0):
        raise ZeroDivisionError("zero eigenvalue in weight schedule")
    return coords / lam


def operator_apply(basis: KernelBasis, weights: Optional[KernelWeights],
                   f: Polynomial, invert: bool = False) -> Polynomial:
    """Apply the kernel operator: scale each eigencomponent of f by the product
    of its per-factor weights (inverse scaling when invert is set). With the
    all-ones schedule the operator is the identity."""
    coords = _scale_coordinates(basis, weights, basis.coordinates(f)[:, None], invert)
    return basis.from_coordinates(coords[:, 0])


def operator_matrix(basis: KernelBasis, weights: Optional[KernelWeights]) -> np.ndarray:
    """Matrix C' Lambda C^{-T} of the operator on the monomial coefficients of
    the basis degree, C = basis.coeffs."""
    C = basis.coeffs
    inv_t = sla.solve_triangular(C.T, np.eye(len(C)), lower=False)
    return C.T @ _scale_coordinates(basis, weights, inv_t)


# ----------------------------------------------------------------------------
# harmonic constant bound (diagonal kernel maximization per factor)


_GRID_DENSITY = 2001  # harmonic_constant_bound's grid points on an interval
_GRID_POINTS = 8192  # and its rejection_sample points on a factor with n >= 2
_GRID_SEED = 0  # with this seed


def _factor_grid(mu: ReferenceMeasure) -> np.ndarray:
    dom = mu.domain()
    if mu.n == 1:
        # the end points, where the diagonal of the kernel peaks, are on the grid
        lo, hi = dom.bounding_box()
        return np.linspace(lo[0], hi[0], _GRID_DENSITY)[:, None]
    return rejection_sample(dom, _GRID_POINTS, _GRID_SEED)


def harmonic_constant_bound(X: Union[SimpleSetProduct, ReferenceMeasure], k: int) -> float:
    """Upper bound on the harmonic constant: sqrt of product over factors of
    tau(X_i, k) = max_{j<=k} max_x C^(j)(x, x). Each max_x is taken by
    sampled_extremum on the diagonal sum_{deg P_i = j} P_i^2, over a dense
    grid of the factor with one polish start."""
    product = 1.0
    for mu in measures_for(X):
        fb = orthonormal_basis(mu, k)
        grid = _factor_grid(mu)
        dom, total = mu.domain(), fb.total_degrees()
        tau = 0.0
        for j in range(k + 1):
            diag = sum((fb.polynomial(i) * fb.polynomial(i) for i in np.flatnonzero(total == j)),
                       Polynomial.zero(mu.n))
            tau = max(tau, sampled_extremum(diag, dom, grid, 1, maximize=True)[0])
        product *= tau
    return float(np.sqrt(product))


# ----------------------------------------------------------------------------
# hierarchies of upper bounds

def upper_bound_sdp(f: Polynomial, X: SemiAlgebraicSet, certificate: str, r: int,
                    measure, opts: Optional[SolveOptions] = None):
    """ub(f, Q(X))_r or ub(f, T(X))_r: the least f-moment of a certificate
    density q = sum_J g_J sigma_J against the reference measure, normalizing
    its mass to one (the measure-based upper hierarchy of Lasserre, 2011).

    Every moment the program reads has degree <= 2r + deg f, so it is the
    same program for the discrete measure nu of a rule exact to that degree.
    When every node lies in X, q nu is a probability measure on X, so the
    value bounds min_X f from above; a node outside X (by more than
    FEASIBILITY_TOL) raises ValueError. In the orthonormal basis of g_J nu
    the normalization block of g_J is the identity (a g_J vanishing at every
    node gets no block), so the value is min_J lambda_min(C_J). The solve
    starts from that exact primal-dual pair, and ADMM only certifies it.
    """
    if certificate not in ("Q", "T"):
        raise ValueError("upper bounds use certificate Q or T")
    if X.equalities:
        raise ValueError("upper-bound densities are built over inequality descriptions")
    measures = measures_for(measure)
    if sum(mu.n for mu in measures) != X.n:
        raise ValueError("measure dimension does not match the set")
    specs = [s for s in preordering_products(X, r, kind=certificate)
             if s.constraint_kind == "psd"]
    nodes, weights = _tensor([mu.cubature(2 * r + f.degree) for mu in measures])
    off = violation_many(X, nodes)
    worst = int(np.argmax(off))
    if off[worst] > FEASIBILITY_TOL:
        raise ValueError(f"the reference measure does not live on the set: its cubature "
                         f"node {nodes[worst]} violates the set by {off[worst]:.3g}")
    fx = f.eval_many(nodes)
    gram = []
    for spec in specs:
        gw = weights * spec.weight.eval_many(nodes)
        if np.any(gw != 0.0):
            Q, _ = _orthonormal(nodes, gw, spec.matrix_order)
            gram.append(Q.T @ ((gw * fx)[:, None] * Q))
    arow = np.concatenate([svec(np.eye(len(C))) for C in gram])
    program = ConicProgram(tuple(Block("psd", len(C)) for C in gram),
                           np.concatenate([svec(C) for C in gram]),
                           sp.csr_matrix(arow[None, :]), np.array([1.0]))
    # dual max t s.t. C_J - t I psd; primal v v' for the least eigenpair
    lam, J, v = min((w[0], J, V[:, 0]) for J, (w, V) in enumerate(map(np.linalg.eigh, gram)))
    x = np.zeros(program.num_vars)
    x[program.block_slices()[J]] = svec(np.outer(v, v))
    start = Solution(status="optimal", primal_value=float(lam), dual_value=float(lam),
                     blocks=program.unpack(x), x=x, y=np.array([lam]),
                     residuals=Residuals(0.0, 0.0, 0.0), iterations=0)
    sol = sdpcore.solve(program, opts, start)
    return sol.primal_value, sol


def upper_bound_kernel(f: Polynomial, X: Union[SimpleSetProduct, ReferenceMeasure],
                       r: int, weights: Optional[KernelWeights], x_star) -> float:
    """Kernel-route upper bound (C_{2r} f)(x*): decompose f, scale each graded
    component by its eigenvalue, and evaluate at x*, the estimated minimum point."""
    if f.degree > 2 * r:
        raise ValueError(f"deg f = {f.degree} exceeds kernel degree {2 * r}")
    basis = orthonormal_basis(X, f.degree)
    image = operator_apply(basis, weights, f)
    return float(image(np.asarray(x_star, dtype=float)))


def kernel_slice_certificate(basis: KernelBasis, weights: Optional[KernelWeights],
                             y_point, X: SemiAlgebraicSet, r: int,
                             opts: Optional[SolveOptions] = None):
    """Optional expensive check: does the kernel slice C(., y) belong to the
    level-r preordering of X? Answered through one SOS feasibility solve;
    returns (membership flag, margin c*), membership meaning c* >= -tol."""
    y_point = np.asarray(y_point, dtype=float)
    rows = basis.eval_rows(y_point[None, :])[0]
    lam = _profile_weights(basis, weights)
    vec = basis.coeffs.T @ (lam * rows)
    slice_poly = Polynomial.from_vector(basis.basis, vec)
    rel = build_sos_relaxation(slice_poly, X, "T", r)
    opts = opts or SolveOptions()
    margin, sol = solve_relaxation(rel, opts)
    return bool(margin >= -10 * opts.tol and sol.status == "optimal"), float(margin)
