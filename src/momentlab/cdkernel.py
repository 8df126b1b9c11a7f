"""Christoffel-Darboux kernels on simple sets and their products.

Reference measures come with closed-form normalized moments (exact dyadic
ratios of Gamma values), orthonormal bases are built by Cholesky factorization
of the moment Gram matrix in graded-lex order, product bases are products of
factor bases, and the graded operator attached to the (optionally perturbed)
kernel acts diagonally on the per-factor degree decomposition.

The SDP upper bound of a level is a one-row program: its value is the least
generalized eigenvalue min_J lambda_min(C_J, A_J) of the localizing pencils
whenever every A_J is positive definite. The solve starts from that exact
primal-dual pair, computed by Cholesky and a symmetric eigensolver, so ADMM
only certifies it.

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
from momentlab.momentkit import (
    TruncatedSequence,
    localizing_operator,
    moment_matrix,
    preordering_products,
)
from momentlab.polycore import (
    MonomialBasis,
    Polynomial,
    count_monomials,
    monomial_basis,
)
from momentlab.sdpcore import (
    Block,
    ConicProgram,
    Residuals,
    Solution,
    SolveOptions,
    smat,
    svec,
)
from momentlab.semialg import (
    FEASIBILITY_TOL,
    SemiAlgebraicSet,
    SimpleSetProduct,
    make_catalog_set,
    sampled_extremum,
    violation_many,
)


class IllConditionedGramError(RuntimeError):
    def __init__(self, degree: int, min_eig: float):
        self.degree = degree
        self.min_eig = min_eig
        super().__init__(f"moment Gram matrix loses positive definiteness at "
                         f"degree {degree} (min eigenvalue {min_eig:.3e})")


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


def _factor_coefficients(mu: ReferenceMeasure, D: int) -> np.ndarray:
    """Lower-triangular coefficient matrix of the orthonormal basis of one
    factor, rows indexed like monomial_basis(mu.n, D)."""
    G = moment_matrix(moment_sequence(mu, 2 * D), D)
    s = len(G)
    d = 1.0 / np.sqrt(np.diag(G))
    Geq = G * np.outer(d, d)
    w = np.linalg.eigvalsh(Geq)
    if w[0] <= 1e-10:
        # report the first degree at which definiteness is lost
        for deg in range(1, D + 1):
            sd = count_monomials(mu.n, deg)
            sub = Geq[:sd, :sd]
            if np.linalg.eigvalsh(sub)[0] <= 1e-10:
                raise IllConditionedGramError(deg, float(w[0]))
        raise IllConditionedGramError(D, float(w[0]))
    L = np.linalg.cholesky(Geq)
    C = sla.solve_triangular(L, np.diag(d), lower=True)
    # one refinement pass keeps orthonormality near machine precision even
    # when the monomial Gram is badly conditioned
    for _ in range(2):
        gram_p = C @ G @ C.T
        err = np.abs(gram_p - np.eye(s)).max()
        if err < 1e-14:
            break
        C = sla.solve_triangular(np.linalg.cholesky(gram_p), C, lower=True)
    return C


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
    """Graded orthonormal basis to degree D, by Cholesky per factor and products
    across factors."""
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
        coeffs = coeffs * _factor_coefficients(mu, D)[np.ix_(idx, idx)]
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


def graded_decompose(basis: KernelBasis, f: Polynomial) -> dict:
    """Split f into its eigenspace components, keyed by per-factor degree
    profile in the order the basis first meets them; components sum back to f."""
    coords = basis.coordinates(f)
    profiles = basis.profiles
    present = dict.fromkeys(p for p, c in zip(profiles, coords) if c != 0.0)
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


def _factor_grid(mu: ReferenceMeasure, density: int, seed: int) -> np.ndarray:
    dom = mu.domain()
    lo, hi = dom.bounding_box()
    if mu.n == 1:
        pts = np.linspace(lo[0], hi[0], density)[:, None]
    else:
        rng = np.random.default_rng(seed)
        pts = rng.uniform(lo, hi, size=(min(density ** 2, 8192), mu.n))
    return pts[violation_many(dom, pts) <= FEASIBILITY_TOL]


def harmonic_constant_bound(X: Union[SimpleSetProduct, ReferenceMeasure], k: int,
                            density: int = 2001, seed: int = 0) -> float:
    """Upper bound on the harmonic constant: sqrt of product over factors of
    tau(X_i, k) = max_{j<=k} max_x C^(j)(x, x). Each max_x is taken by
    sampled_extremum on the diagonal sum_{deg P_i = j} P_i^2, over a dense
    grid of the factor with one polish start."""
    product = 1.0
    for mu in measures_for(X):
        fb = orthonormal_basis(mu, k)
        grid = _factor_grid(mu, density, seed)
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

# A localizing matrix that fails Cholesky is indefinite, not merely singular,
# when its least eigenvalue is below -_PSD_TOL times its norm.
_PSD_TOL = 1e-10


def _pencil_start(program: ConicProgram, weights: Sequence[Polynomial]) -> Optional[Solution]:
    """The exact optimum of a one-row program min sum <C_J, X_J> s.t.
    sum <A_J, X_J> = 1, X_J psd, A_J the localizing matrix of weights[J]. Its
    dual is max t s.t. C_J - t A_J psd for every J, so when every A_J is
    positive definite the value is the least generalized eigenvalue
    lambda = min_J lambda_min(C_J, A_J), attained by X_J = v v' / (v' A_J v)
    for its eigenvector v in the minimizing block and zero elsewhere, with
    y = [lambda]. None when some A_J is singular. An indefinite A_J means the
    measure charges points where its weight is negative, so the program bounds
    nothing (it can be unbounded below): ValueError."""
    a = program.A.toarray().ravel()
    best, singular = None, False
    for blk, sl, weight in zip(program.blocks, program.block_slices(), weights):
        A_J = smat(a[sl], blk.size)
        try:
            L_inv = np.linalg.inv(np.linalg.cholesky(A_J))
        except np.linalg.LinAlgError:
            low = float(np.linalg.eigvalsh(A_J)[0])
            if low < -_PSD_TOL * np.linalg.norm(A_J, 2):
                raise ValueError(f"the reference measure does not live on the set: the "
                                 f"localizing matrix of the weight {weight} has least "
                                 f"eigenvalue {low:.3g}") from None
            singular = True
            continue
        w, W = np.linalg.eigh(L_inv @ smat(program.c[sl], blk.size) @ L_inv.T)
        if best is None or w[0] < best[0]:
            best = (float(w[0]), sl, A_J, L_inv.T @ W[:, 0])
    if singular:
        return None
    lam, sl, A_J, v = best
    x = np.zeros(program.num_vars)
    x[sl] = svec(np.outer(v, v) / float(v @ A_J @ v))
    return Solution(status="optimal", primal_value=lam, dual_value=lam,
                    blocks=program.unpack(x), x=x, y=np.array([lam]),
                    residuals=Residuals(0.0, 0.0, 0.0), iterations=0)


def upper_bound_sdp(f: Polynomial, X: SemiAlgebraicSet, certificate: str, r: int,
                    measure, opts: Optional[SolveOptions] = None):
    """ub(f, Q(X))_r or ub(f, T(X))_r: the least f-moment of a certificate
    density q against the reference measure, normalizing its mass to one.

    Objective and normalization reduce to localizing-type matrices C_J and
    A_J of the reference moment sequence with weights f * g_J and g_J, one
    PSD block per product g_J. With its single row the program is a
    generalized eigenvalue problem: when every A_J is positive definite the
    bound is min_J lambda_min(C_J, A_J) (the measure-based upper hierarchy of
    Lasserre, 2011). The solve starts from that exact primal-dual pair, so
    ADMM only certifies it under its usual stopping rule; when some A_J is
    singular it starts cold. An indefinite A_J, which comes from a measure
    that charges points outside X, raises ValueError.
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
    y_mu = moment_sequence(measures, 2 * r + f.degree)

    def packed(g, t):  # svec M_t(g y_mu)
        return localizing_operator(g, t, y_mu.order) @ y_mu.values

    blocks = [Block("psd", count_monomials(X.n, spec.matrix_order)) for spec in specs]
    cvec = [packed(f * spec.weight, spec.matrix_order) for spec in specs]
    arow = [packed(spec.weight, spec.matrix_order) for spec in specs]
    program = ConicProgram(tuple(blocks), np.concatenate(cvec),
                           sp.csr_matrix(np.concatenate(arow)[None, :]),
                           np.array([1.0]))
    sol = sdpcore.solve(program, opts, _pencil_start(program, [s.weight for s in specs]))
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
    from momentlab.hierarchy import build_sos_relaxation, solve_relaxation

    y_point = np.asarray(y_point, dtype=float)
    rows = basis.eval_rows(y_point[None, :])[0]
    lam = _profile_weights(basis, weights)
    vec = basis.coeffs.T @ (lam * rows)
    slice_poly = Polynomial.from_vector(basis.basis, vec)
    rel = build_sos_relaxation(slice_poly, X, "T", r)
    opts = opts or SolveOptions()
    margin, sol = solve_relaxation(rel, opts)
    return bool(margin >= -10 * opts.tol and sol.status == "optimal"), float(margin)
