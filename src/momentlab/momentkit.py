"""Truncated (pseudo-)moment sequences and the linear algebra built on them.

Covers the Riesz functional, the sparse localizing operator y -> svec M_t(g y)
behind moment matrices, localizing matrices and both sides of the hierarchy
programs, enumeration of preordering products, liftings into the graph space
of the inequality map, order/dimension projections, and the pushforward
transform of sequences under an invertible linear change of variables.
"""

from __future__ import annotations

import csv
import itertools
import json
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np
import scipy.sparse as sp

from momentlab.polycore import (
    MonomialBasis,
    Polynomial,
    SingularMatrixError,
    compose_linear,
    count_monomials,
    half_degree,
    monomial_basis,
    monomial_label,
)
from momentlab.sdpcore import packed_indices, packed_weights
from momentlab.semialg import SemiAlgebraicSet, _ball_polynomial, _embed
from momentlab.polycore import l1_norm


class DegreeOverflowError(ValueError):
    pass


@dataclass(frozen=True)
class TruncatedSequence:
    """Vector y indexed by the graded-lex monomials of degree <= order."""

    n: int
    order: int
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float).ravel()
        expected = count_monomials(self.n, self.order)
        if vals.size != expected:
            raise ValueError(f"sequence needs {expected} entries for (n={self.n}, "
                             f"k={self.order}), got {vals.size}")
        object.__setattr__(self, "values", vals)

    @property
    def basis(self) -> MonomialBasis:
        return monomial_basis(self.n, self.order)

    @property
    def mass(self) -> float:
        return float(self.values[0])

    def entry(self, alpha: Sequence[int]) -> float:
        return float(self.values[self.basis.index(alpha)])

    def to_json(self) -> str:
        return json.dumps({"n": self.n, "k": self.order, "values": self.values.tolist()})

    @staticmethod
    def from_json(text: str) -> "TruncatedSequence":
        doc = json.loads(text)
        return TruncatedSequence(doc["n"], doc["k"], np.asarray(doc["values"]))

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow([monomial_label(a) for a in self.basis.exponents])
            writer.writerow([repr(v) for v in self.values])

    def __eq__(self, other):
        return (isinstance(other, TruncatedSequence) and self.n == other.n
                and self.order == other.order
                and np.array_equal(self.values, other.values))


@dataclass(frozen=True)
class DiscreteMeasure:
    """Finitely many atoms with positive weights summing to one."""

    atoms: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        atoms = np.atleast_2d(np.asarray(self.atoms, dtype=float))
        weights = np.asarray(self.weights, dtype=float).ravel()
        if atoms.shape[0] != weights.size:
            raise ValueError("atom/weight count mismatch")
        if np.any(weights <= 0):
            raise ValueError("weights must be positive")
        if abs(weights.sum() - 1.0) > 1e-12:
            raise ValueError("weights must sum to 1")
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "weights", weights)

    @property
    def n(self) -> int:
        return self.atoms.shape[1]


@dataclass(frozen=True)
class LocalizingSpec:
    """One constraint of a moment relaxation: a weight polynomial, the order of
    its localizing matrix, and how it binds (PSD block, zero block, or scalar).
    A product spec g_J records J, the positions of its factors among the
    set's inequalities, in `factors`."""

    weight: Polynomial
    matrix_order: int
    constraint_kind: str = "psd"  # psd | zero | scalar_zero
    label: str = ""
    factors: tuple = ()

    def __post_init__(self):
        if self.constraint_kind not in ("psd", "zero", "scalar_zero"):
            raise ValueError(f"bad constraint kind {self.constraint_kind!r}")
        if self.constraint_kind != "scalar_zero" and self.matrix_order < 0:
            raise ValueError("matrix order must be nonnegative")


# ----------------------------------------------------------------------------
# Riesz functional and matrices


def riesz_apply(y: TruncatedSequence, f: Polynomial) -> float:
    if f.n != y.n:
        raise ValueError("dimension mismatch")
    if f.degree > y.order:
        raise DegreeOverflowError(f"deg f = {f.degree} exceeds truncation order {y.order}")
    basis = y.basis
    return float(sum(c * y.values[basis.index(a)] for a, c in f.terms.items()))


@lru_cache(maxsize=None)
def _pair_index(n: int, t: int) -> np.ndarray:
    """Read-only table P with P[i, j] the position of alpha_i + alpha_j in the
    graded-lex basis, alpha ranging over monomial_basis(n, t)."""
    expo = monomial_basis(n, t).exponent_array
    P = monomial_basis(n, 2 * t).positions(expo[:, None, :] + expo[None, :, :])
    P.flags.writeable = False
    return P


def _shift_rows(g: Polynomial, deltas: np.ndarray, weights: np.ndarray,
                order: int) -> sp.csr_matrix:
    """Row k holds weights[k] * l_y(g x^deltas[k]) as a linear form in y."""
    gammas = np.array(list(g.terms), dtype=np.int64).reshape(-1, g.n)
    coeffs = np.fromiter(g.terms.values(), dtype=float, count=len(gammas))
    basis = monomial_basis(g.n, order)
    cols = basis.positions(deltas[:, None, :] + gammas[None, :, :]).ravel()
    rows = np.repeat(np.arange(len(deltas)), len(gammas))
    vals = (weights[:, None] * coeffs[None, :]).ravel()
    return sp.csr_matrix((vals, (rows, cols)), shape=(len(deltas), len(basis)))


def shift_operator(g: Polynomial, d: int, order: int) -> sp.csr_matrix:
    """Sparse S with (S y)_delta = l_y(g x^delta) for |delta| <= d, acting on
    sequences y of the given order (rows and columns in graded-lex order)."""
    if d + g.degree > order:
        raise DegreeOverflowError(f"shift of order {d} for deg-{g.degree} weight needs "
                                  f"sequence order {d + g.degree}, got {order}")
    deltas = monomial_basis(g.n, d).exponent_array
    return _shift_rows(g, deltas, np.ones(len(deltas)), order)


def localizing_operator(g: Polynomial, t: int, order: int) -> sp.csr_matrix:
    """Sparse L with L y = svec(M_t(g y)) for sequences y of the given order.

    Row p of L is the row of shift_operator(g, 2t, order) at alpha_i + alpha_j,
    (i, j) the p-th packed pair, times its packing weight (sqrt 2 off the
    diagonal). The SOS side uses the transpose: L' svec(G) is the coefficient
    vector of g * v_t' G v_t.
    """
    if 2 * t + g.degree > order:
        raise DegreeOverflowError(
            f"localizing matrix of order {t} for deg-{g.degree} weight needs "
            f"sequence order {2 * t + g.degree}, got {order}")
    P = _pair_index(g.n, t)
    rows, cols = packed_indices(len(P))
    deltas = monomial_basis(g.n, 2 * t).exponent_array[P[rows, cols]]
    return _shift_rows(g, deltas, packed_weights(len(P)), order)


def moment_matrix(y: TruncatedSequence, r: int) -> np.ndarray:
    """M_r(y) with entries y_{alpha+beta}, rows and columns of degree <= r."""
    if 2 * r > y.order:
        raise DegreeOverflowError(f"moment matrix of order {r} needs sequence order {2 * r}")
    return y.values[_pair_index(y.n, r)]


def localizing_matrix_at_order(y: TruncatedSequence, g: Polynomial, t: int) -> np.ndarray:
    """M_t(g y) with entries sum_gamma g_gamma y_{gamma+alpha+beta}."""
    return (shift_operator(g, 2 * t, y.order) @ y.values)[_pair_index(y.n, t)]


def localizing_matrix(y: TruncatedSequence, g: Polynomial, r: int) -> np.ndarray:
    """M_{r - ceil(g)}(g y); reduces to moment_matrix(y, r) when g = 1."""
    t = r - half_degree(g)
    if t < 0:
        raise DegreeOverflowError(f"level r={r} below half-degree of weight {half_degree(g)}")
    return localizing_matrix_at_order(y, g, t)


# ----------------------------------------------------------------------------
# preordering products

# T and R enumerate all 2^m products of m inequalities; they refuse m above this.
_MAX_GENERATORS = 6


def preordering_products(X: SemiAlgebraicSet, r: int, kind: str = "T") -> list:
    """Localizing specs of the level-r relaxation with certificate kind T, Q or R.

    T and R enumerate all products g_J over subsets J of the inequalities whose
    half degree fits below r (the empty product gives the moment matrix), and
    refuse more than _MAX_GENERATORS inequalities; Q uses only the singletons.
    Equalities bind as zero localizing matrices for T and Q and as the scalar
    conditions l_y(h_i^2) = 0 for R.
    """
    if kind not in ("T", "Q", "R"):
        raise ValueError(f"unknown certificate kind {kind!r}")
    gs = X.inequalities
    if kind in ("T", "R") and len(gs) > _MAX_GENERATORS:
        raise ValueError(f"{len(gs)} inequality generators exceed the product cap "
                         f"{_MAX_GENERATORS} for Schmudgen-type enumeration")
    if r < X.max_half_degree:
        raise ValueError(f"level r={r} below max half-degree {X.max_half_degree}")

    specs = [LocalizingSpec(Polynomial.constant(X.n, 1.0), r, "psd", label="1")]
    if kind == "Q":
        subsets: Iterable = ((j,) for j in range(len(gs)))
    else:
        subsets = itertools.chain.from_iterable(
            itertools.combinations(range(len(gs)), size) for size in range(1, len(gs) + 1))
    for J in subsets:
        gJ = Polynomial.constant(X.n, 1.0)
        for j in J:
            gJ = gJ * gs[j]
        hd = half_degree(gJ)
        if hd > r:
            continue  # products that exceed the degree budget are silently filtered
        label = "*".join(f"g{j + 1}" for j in J)
        specs.append(LocalizingSpec(gJ, r - hd, "psd", label=label, factors=J))

    for i, h in enumerate(X.equalities):
        if kind in ("T", "Q"):
            hd = half_degree(h)
            if hd > r:
                continue
            specs.append(LocalizingSpec(h, r - hd, "zero", label=f"h{i + 1}"))
        else:
            h2 = h * h
            if h2.degree > 2 * r:
                continue
            specs.append(LocalizingSpec(h2, 0, "scalar_zero", label=f"h{i + 1}^2"))
    return specs


def spec_matrix(y: TruncatedSequence, spec: LocalizingSpec) -> np.ndarray:
    if spec.constraint_kind == "scalar_zero":
        return np.array([[riesz_apply(y, spec.weight)]])
    return localizing_matrix_at_order(y, spec.weight, spec.matrix_order)


def spec_violation(y: TruncatedSequence, spec: LocalizingSpec) -> float:
    """How far y is from satisfying one spec: negative eigenvalue magnitude for
    PSD blocks, largest absolute entry for zero blocks and scalars."""
    M = spec_matrix(y, spec)
    if spec.constraint_kind == "psd":
        return float(max(0.0, -np.linalg.eigvalsh(M).min()))
    return float(np.abs(M).max())


def max_spec_violation(y: TruncatedSequence, specs: Sequence[LocalizingSpec]) -> float:
    return max((spec_violation(y, s) for s in specs), default=0.0)


# ----------------------------------------------------------------------------
# sequences from measures, projections


def sequence_from_measure(mu: DiscreteMeasure, k: int) -> TruncatedSequence:
    basis = monomial_basis(mu.n, k)
    vals = mu.weights @ basis.evaluate(mu.atoms)
    return TruncatedSequence(mu.n, k, vals)


def project_order(y: TruncatedSequence, k: int) -> TruncatedSequence:
    """pi_k: the first s(n, k) coordinates."""
    if k > y.order:
        raise DegreeOverflowError(f"cannot project order-{y.order} sequence to order {k}")
    return TruncatedSequence(y.n, k, y.values[:count_monomials(y.n, k)])


def project_dimension(y: TruncatedSequence, n: int) -> TruncatedSequence:
    """psi_k: keep the coordinates whose trailing exponent block vanishes."""
    if not 1 <= n < y.n:
        raise ValueError(f"target dimension {n} must be below source dimension {y.n}")
    padded = np.pad(monomial_basis(n, y.order).exponent_array, ((0, 0), (0, y.n - n)))
    return TruncatedSequence(n, y.order, y.values[y.basis.positions(padded)])


# ----------------------------------------------------------------------------
# lifting into the graph space of the inequality map


@dataclass(frozen=True)
class LiftedDomain:
    """Image of X under x -> (x, g_1(x), ..., g_m(x)) and its simple-set cover."""

    phi_set: SemiAlgebraicSet       # the lifted variety intersected with the cover
    cover: SemiAlgebraicSet         # B_R x Delta^m_K
    simplex_bound: float            # K
    base: SemiAlgebraicSet


def lifted_domain(X: SemiAlgebraicSet) -> LiftedDomain:
    """Build the lifted description in R^{n+m} used by the general error bound.

    The cover is the product of the radius ball (in the x block) and the
    simplex of size K = R^{2d} * sum |g_j|_1 (in the slack block).
    """
    if X.radius is None:
        raise ValueError("lifted domain needs an Archimedean radius on X")
    n, m = X.n, len(X.inequalities)
    R, d = X.radius, X.max_half_degree
    K = R ** (2 * d) * sum(l1_norm(g) for g in X.inequalities)
    N = n + m

    p0 = _embed(_ball_polynomial(n, R), N, list(range(n)))
    slacks = [Polynomial.variable(N, n + j) for j in range(m)]
    cap = Polynomial.constant(N, K) - sum(slacks, Polynomial.zero(N))
    cover_ineqs = (p0,) + tuple(slacks) + (cap,)

    lift_eqs = [_embed(h, N, list(range(n))) for h in X.equalities]
    for j, g in enumerate(X.inequalities):
        lift_eqs.append(slacks[j] - _embed(g, N, list(range(n))))

    lo = np.concatenate([-R * np.ones(n), np.zeros(m)])
    hi = np.concatenate([R * np.ones(n), K * np.ones(m)])
    cover = SemiAlgebraicSet(n=N, inequalities=cover_ineqs, name="cover",
                             box=(lo, hi))
    phi = SemiAlgebraicSet(n=N, inequalities=cover_ineqs, equalities=tuple(lift_eqs),
                           name=f"lift[{X.name}]", box=(lo, hi))
    return LiftedDomain(phi_set=phi, cover=cover, simplex_bound=K, base=X)


def lift_sequence(y: TruncatedSequence, X: SemiAlgebraicSet,
                  strict: bool = True) -> TruncatedSequence:
    """y^phi over R^{n+m} at order 2t, t = floor(r / (2d)), from y at order 2r.

    Entry (alpha, beta) is l_y(x^alpha * g(x)^beta). Feasibility of y for the
    reduced level-r relaxation carries over to the lifted preordering at level
    t, provided t >= 2d; strict=False skips that guard and only computes the
    (always well-defined) lifted values.
    """
    if y.order % 2 != 0:
        raise ValueError("lifting needs an even truncation order 2r")
    r = y.order // 2
    d = X.max_half_degree
    if d == 0:
        raise ValueError("lifting needs at least one nonconstant generator")
    t = r // (2 * d)
    if strict and t < 2 * d:
        raise DegreeOverflowError(f"t = floor(r/(2d)) = {t} is below 2d = {2 * d}")
    if t < 1:
        raise DegreeOverflowError("sequence order too small to lift at all")
    n, m = X.n, len(X.inequalities)
    target = monomial_basis(n + m, 2 * t)
    vals = np.empty(len(target))
    prod_cache: dict = {}

    def slack_product(beta: tuple) -> Polynomial:
        if beta not in prod_cache:
            p = Polynomial.constant(n, 1.0)
            for g, e in zip(X.inequalities, beta):
                for _ in range(e):
                    p = p * g
            prod_cache[beta] = p
        return prod_cache[beta]

    for idx, ab in enumerate(target.exponents):
        alpha, beta = ab[:n], ab[n:]
        poly = Polynomial.monomial(n, alpha) * slack_product(beta)
        vals[idx] = riesz_apply(y, poly)
    return TruncatedSequence(n + m, 2 * t, vals)


# ----------------------------------------------------------------------------
# pushforward transform under an invertible linear map


def transform_matrix(n: int, order: int, A: np.ndarray) -> np.ndarray:
    """Matrix of the sequence transform: row delta holds the coefficients of
    (Ax)^delta, so that (C y)_delta = l_y((Ax)^delta)."""
    A = np.asarray(A, dtype=float)
    if np.linalg.cond(A) > 1e12:
        raise SingularMatrixError("transform needs an invertible matrix")
    basis = monomial_basis(n, order)
    C = np.zeros((len(basis), len(basis)))
    for i, delta in enumerate(basis.exponents):
        p = compose_linear(Polynomial.monomial(n, delta), A)
        for alpha, c in p.terms.items():
            C[i, basis.index(alpha)] = c
    return C


def transform_sequence(y: TruncatedSequence, A: np.ndarray) -> TruncatedSequence:
    """Pushforward of y under x -> Ax: the image of moments of mu is the
    moments of mu o A^{-1}; diagonal A = R*I acts by e_alpha -> R^|alpha| e_alpha."""
    C = transform_matrix(y.n, y.order, A)
    return TruncatedSequence(y.n, y.order, C @ y.values)
