"""Sparse multivariate polynomials over a fixed graded-lexicographic monomial order.

Every matrix-valued object downstream (moment matrices, Gram matrices, kernel
bases) indexes its rows and columns by the order produced here, so the ordering
is fixed once and never varied: lower total degree first, ties broken
lexicographically with x1 > x2 > ... > xn.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

MultiIndex = tuple  # exponent vector, one nonnegative int per variable
_JET_BLOCK = 1024  # CompiledPoly.jet: most points evaluated at once


def count_monomials(n: int, r: int) -> int:
    """s(n, r) = binom(n + r, n), the number of monomials of degree <= r."""
    if n < 1 or r < 0:
        raise ValueError(f"need n >= 1 and r >= 0, got n={n}, r={r}")
    return math.comb(n + r, n)


def _graded_exponents(n: int, degree: int) -> Iterator[tuple]:
    # descending first exponent gives the x1 > x2 > ... tie-break
    if n == 1:
        yield (degree,)
        return
    for head in range(degree, -1, -1):
        for tail in _graded_exponents(n - 1, degree - head):
            yield (head,) + tail


@dataclass(frozen=True)
class MonomialBasis:
    """All monomials of degree <= order in n variables, in graded-lex order."""

    n: int
    order: int
    exponents: tuple = field(repr=False)
    index_of: dict = field(repr=False)

    def __len__(self) -> int:
        return len(self.exponents)

    def monomial(self, i: int) -> tuple:
        return self.exponents[i]

    def index(self, alpha: Sequence[int]) -> int:
        key = tuple(alpha)
        try:
            return self.index_of[key]
        except KeyError:
            raise KeyError(f"monomial {key} outside basis of order {self.order}") from None

    def positions(self, exponents: np.ndarray) -> np.ndarray:
        """Position of each exponent row (last axis of length n) in this basis;
        every row must have degree <= order. Rows are matched by their code in
        base order + 1, which is unique since no exponent exceeds order."""
        radix = (self.order + 1) ** np.arange(self.n, dtype=np.int64)
        codes = self.exponent_array @ radix
        sorter = np.argsort(codes)
        return sorter[np.searchsorted(codes, exponents @ radix, sorter=sorter)]

    @property
    def exponent_array(self) -> np.ndarray:
        return _basis_exponent_array(self.n, self.order)

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        """Monomial values at points, shape (npoints, len(basis))."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.shape[1] != self.n:
            raise ValueError(f"points have dimension {pts.shape[1]}, basis has {self.n}")
        expo = self.exponent_array
        return np.prod(pts[:, None, :] ** expo[None, :, :], axis=2)


@lru_cache(maxsize=None)
def monomial_basis(n: int, r: int) -> MonomialBasis:
    exps = []
    for d in range(r + 1):
        exps.extend(_graded_exponents(n, d))
    exps = tuple(exps)
    return MonomialBasis(n=n, order=r, exponents=exps,
                         index_of={a: i for i, a in enumerate(exps)})


@lru_cache(maxsize=None)
def _basis_exponent_array(n: int, r: int) -> np.ndarray:
    return np.array(monomial_basis(n, r).exponents, dtype=np.int64)


def enumerate_monomials(n: int, r: int) -> MonomialBasis:
    """Graded-lex basis of all alpha with |alpha| <= r; size binom(n+r, n)."""
    count_monomials(n, r)  # validates arguments
    return monomial_basis(n, r)


class Polynomial:
    """Immutable sparse polynomial: map from exponent tuple to float coefficient."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: Mapping | Iterable = ()):
        if n < 1:
            raise ValueError("polynomial needs at least one variable")
        items = terms.items() if isinstance(terms, Mapping) else terms
        clean: dict = {}
        for alpha, coeff in items:
            key = tuple(int(e) for e in alpha)
            if len(key) != n or any(e < 0 for e in key):
                raise ValueError(f"bad exponent vector {key} for n={n}")
            c = float(coeff)
            if c != 0.0:
                clean[key] = clean.get(key, 0.0) + c
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "terms", {a: c for a, c in clean.items() if c != 0.0})

    def __setattr__(self, *_):
        raise AttributeError("Polynomial is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(n: int) -> "Polynomial":
        return Polynomial(n, {})

    @staticmethod
    def constant(n: int, value: float) -> "Polynomial":
        return Polynomial(n, {tuple([0] * n): value})

    @staticmethod
    def variable(n: int, i: int) -> "Polynomial":
        if not 0 <= i < n:
            raise ValueError(f"variable index {i} out of range for n={n}")
        return Polynomial(n, {tuple(1 if j == i else 0 for j in range(n)): 1.0})

    @staticmethod
    def monomial(n: int, alpha: Sequence[int], coeff: float = 1.0) -> "Polynomial":
        return Polynomial(n, {tuple(alpha): coeff})

    @staticmethod
    def from_pairs(n: int, pairs: Iterable) -> "Polynomial":
        """Build from the problem-file format: list of [exponent-vector, coefficient]."""
        return Polynomial(n, ((tuple(a), c) for a, c in pairs))

    def to_pairs(self) -> list:
        return [[list(a), c] for a, c in sorted(self.terms.items(), key=_grlex_key)]

    # -- structure ---------------------------------------------------------

    @property
    def degree(self) -> int:
        # degree of the zero polynomial is 0 by convention, so half_degree is total
        return max((sum(a) for a in self.terms), default=0)

    def coefficient(self, alpha: Sequence[int]) -> float:
        return self.terms.get(tuple(alpha), 0.0)

    def coefficient_vector(self, basis: MonomialBasis) -> np.ndarray:
        vec = np.zeros(len(basis))
        for alpha, c in self.terms.items():
            vec[basis.index(alpha)] = c
        return vec

    @staticmethod
    def from_vector(basis: MonomialBasis, vec: np.ndarray) -> "Polynomial":
        return Polynomial(basis.n, ((basis.monomial(i), v) for i, v in enumerate(vec)))

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        merged = dict(self.terms)
        for a, c in other.terms.items():
            merged[a] = merged.get(a, 0.0) + c
        return Polynomial(self.n, merged)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __neg__(self):
        return Polynomial(self.n, {a: -c for a, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return Polynomial(self.n, {a: c * other for a, c in self.terms.items()})
        other = self._coerce(other)
        out: dict = {}
        for a1, c1 in self.terms.items():
            for a2, c2 in other.terms.items():
                key = tuple(e1 + e2 for e1, e2 in zip(a1, a2))
                out[key] = out.get(key, 0.0) + c1 * c2
        return Polynomial(self.n, out)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power")
        result = Polynomial.constant(self.n, 1.0)
        for _ in range(k):
            result = result * self
        return result

    def _coerce(self, other) -> "Polynomial":
        if isinstance(other, Polynomial):
            if other.n != self.n:
                raise ValueError(f"dimension mismatch: {self.n} vs {other.n}")
            return other
        if isinstance(other, (int, float)):
            return Polynomial.constant(self.n, other)
        raise TypeError(f"cannot combine Polynomial with {type(other)!r}")

    def diff(self, i: int) -> "Polynomial":
        """Partial derivative with respect to x_{i+1}."""
        out = {}
        for a, c in self.terms.items():
            if a[i] > 0:
                key = a[:i] + (a[i] - 1,) + a[i + 1:]
                out[key] = out.get(key, 0.0) + c * a[i]
        return Polynomial(self.n, out)

    def gradient(self) -> list:
        return [self.diff(i) for i in range(self.n)]

    # -- evaluation --------------------------------------------------------

    def __call__(self, x) -> float:
        return eval_poly(self, x)

    def eval_many(self, points: np.ndarray) -> np.ndarray:
        """Values at an array of points of shape (npoints, n)."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.shape[1] != self.n:
            raise ValueError(f"points have dimension {pts.shape[1]}, expected {self.n}")
        out = np.zeros(pts.shape[0])
        for alpha, c in self.terms.items():
            out += c * np.prod(pts ** np.asarray(alpha), axis=1)
        return out

    # -- misc --------------------------------------------------------------

    def __eq__(self, other):
        return isinstance(other, Polynomial) and self.n == other.n and self.terms == other.terms

    def __hash__(self):
        return hash((self.n, frozenset(self.terms.items())))

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for alpha, c in sorted(self.terms.items(), key=_grlex_key):
            mono = monomial_label(alpha)
            parts.append(f"{c:g}" if mono == "1" else f"{c:g}*{mono}")
        return " + ".join(parts).replace("+ -", "- ")


def _grlex_key(item):
    alpha = item[0]
    return (sum(alpha), tuple(-e for e in alpha))


def monomial_label(alpha: Sequence[int]) -> str:
    """Readable monomial name, e.g. (2, 1) -> 'x1^2*x2'. Used for CSV headers."""
    parts = []
    for i, e in enumerate(alpha):
        if e == 1:
            parts.append(f"x{i + 1}")
        elif e > 1:
            parts.append(f"x{i + 1}^{e}")
    return "*".join(parts) if parts else "1"


def l1_norm(f: Polynomial) -> float:
    """Sum of absolute coefficient values."""
    return sum(abs(c) for c in f.terms.values())


def half_degree(f: Polynomial) -> int:
    """ceil(deg(f) / 2); 0 for the zero polynomial."""
    return (f.degree + 1) // 2


def eval_poly(f: Polynomial, x) -> float:
    x = np.asarray(x, dtype=float).ravel()
    if x.size != f.n:
        raise ValueError(f"point has dimension {x.size}, polynomial has {f.n}")
    total = 0.0
    for alpha, c in f.terms.items():
        term = c
        for xi, e in zip(x, alpha):
            if e:
                term *= xi ** e
        total += term
    return total


class CompiledPoly:
    """Polynomials f_1..f_k in n variables compiled for evaluation at points.

    Every value, first partial and second partial of every f_i is a linear
    combination of monomials x^u, u a row of the exponent matrix `exponents`.
    The value, gradient and Hessian coefficient tables are built once, so a
    call evaluates the monomials once and multiplies by one table per order.
    A point has shape (n,) and a batch (npoints, n); outputs take the
    leading shape of the input and then (k,), (k, n) or (k, n, n).
    """

    __slots__ = ("n", "count", "exponents", "_tables")

    def __init__(self, n: int, polys: Sequence[Polynomial]):
        index: dict = {}
        entries = ([], [], [])  # per derivative order: (monomial row, column, coefficient)

        def add(order, alpha, col, coeff):
            row = index.setdefault(alpha, len(index))
            entries[order].append((row, col, coeff))

        for k, p in enumerate(polys):
            if p.n != n:
                raise ValueError(f"dimension mismatch: {p.n} vs {n}")
            for alpha, c in p.terms.items():
                add(0, alpha, k, c)
                for i in range(n):
                    if alpha[i] == 0:
                        continue
                    da = alpha[:i] + (alpha[i] - 1,) + alpha[i + 1:]
                    dc = c * alpha[i]
                    add(1, da, k * n + i, dc)
                    for j in range(n):
                        if da[j]:
                            dda = da[:j] + (da[j] - 1,) + da[j + 1:]
                            add(2, dda, (k * n + i) * n + j, dc * da[j])
        self.n = n
        self.count = len(polys)
        self.exponents = np.array(list(index), dtype=np.int64).reshape(len(index), n)
        self._tables = []
        for order, rows in enumerate(entries):
            table = np.zeros((len(index), self.count * n ** order))
            for row, col, coeff in rows:
                table[row, col] += coeff
            self._tables.append(table)

    def monomials(self, x) -> np.ndarray:
        """x^u for every row u of `exponents`, at a point or a batch: the
        product over coordinates i of x_i^(u_i), each power x_i^e taken once
        per point and gathered for every monomial that uses it."""
        x = np.asarray(x, dtype=float)
        if x.shape[-1:] != (self.n,):
            raise ValueError(f"points have dimension {x.shape[-1:]}, expected {self.n}")
        mono = np.ones(x.shape[:-1] + (len(self.exponents),))
        for i, e in enumerate(self.exponents.T):
            mono *= (x[..., i, None] ** np.arange(e.max(initial=0) + 1))[..., e]
        return mono

    def __call__(self, x) -> np.ndarray:
        """Values f_1..f_k."""
        return self.jet(x, 0)[0]

    def jet(self, x, order: int = 1) -> tuple:
        """(values, Jacobian) or, with order 2, (values, Jacobian, Hessians),
        all from one monomial evaluation.

        Each point's row of monomials multiplies the tables on its own (a
        stacked matmul), so a point's outputs do not depend on its
        batch-mates, bit for bit, and a large batch is taken in blocks of
        _JET_BLOCK points to keep the monomial arrays small."""
        x = np.asarray(x, dtype=float)
        if x.ndim == 2 and len(x) > _JET_BLOCK:
            out = tuple(np.empty((len(x), self.count) + (self.n,) * d) for d in range(order + 1))
            for i in range(0, len(x), _JET_BLOCK):
                for whole, part in zip(out, self.jet(x[i:i + _JET_BLOCK], order)):
                    whole[i:i + _JET_BLOCK] = part
            return out
        mono = self.monomials(x)[..., None, :]
        shape = mono.shape[:-2] + (self.count,)
        out = []
        for d in range(order + 1):
            out.append(np.matmul(mono, self._tables[d])[..., 0, :].reshape(shape))
            shape += (self.n,)
        return tuple(out)

    def jet_each(self, x, which, order: int = 1) -> tuple:
        """jet of one polynomial per point: f_{which[i]} at x[i] for a batch x
        of shape (npoints, n). Each point gathers its own polynomial's
        coefficient columns, so the cost does not grow with the count of
        compiled polynomials. Outputs have shapes (npoints,), (npoints, n)
        and, with order 2, (npoints, n, n); as in jet, a point's outputs do
        not depend on its batch-mates."""
        mono = self.monomials(x)[:, None, :]
        which = np.asarray(which, dtype=np.int64)
        out = []
        for d in range(order + 1):
            table = self._tables[d].reshape(-1, self.count, self.n ** d)[:, which]
            out.append(np.matmul(mono, table.transpose(1, 0, 2))[:, 0].reshape(
                (len(which),) + (self.n,) * d))
        return tuple(out)


class SingularMatrixError(ValueError):
    pass


def compose_linear(f: Polynomial, A: np.ndarray, inverse: bool = False) -> Polynomial:
    """Exact expansion of f(Ax), or f(A^{-1}x) when inverse is set.

    The inverse direction requires A invertible; near-singularity is detected
    through the conditioning of the LU solve.
    """
    A = np.asarray(A, dtype=float)
    if A.shape != (f.n, f.n):
        raise ValueError(f"matrix shape {A.shape} does not match n={f.n}")
    if inverse:
        if np.linalg.cond(A) > 1e12:
            raise SingularMatrixError("matrix is singular or too ill-conditioned to invert")
        A = np.linalg.inv(A)

    linear_forms = [Polynomial(f.n, {tuple(1 if j == k else 0 for k in range(f.n)): A[i, j]
                                     for j in range(f.n) if A[i, j] != 0.0})
                    for i in range(f.n)]
    power_cache: dict = {}

    def form_power(i: int, e: int) -> Polynomial:
        key = (i, e)
        if key not in power_cache:
            if e == 0:
                power_cache[key] = Polynomial.constant(f.n, 1.0)
            else:
                power_cache[key] = form_power(i, e - 1) * linear_forms[i]
        return power_cache[key]

    result = Polynomial.zero(f.n)
    for alpha, c in f.terms.items():
        term = Polynomial.constant(f.n, c)
        for i, e in enumerate(alpha):
            if e:
                term = term * form_power(i, e)
        result = result + term
    return result
