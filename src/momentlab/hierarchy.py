"""Assembly and solution of the lower-bound hierarchies.

Six programs are covered: the moment and SOS sides of the preordering (T),
quadratic-module (Q), and reduced (R) certificates. Moment programs carry the
pseudo-moment vector as a free block linked to PSD localizing blocks; SOS
programs carry one Gram block per certificate term plus free polynomial
multipliers on equalities (T, Q) or nonnegative scalars on squared equalities
(R).

Both sides are built from the same blocks: for each spec, momentkit's sparse
operator (localizing_operator for a PSD spec, shift_operator for an equality)
is a row block of the moment program and, transposed, a column block of the
SOS program.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np
import scipy.sparse as sp

from momentlab import sdpcore
from momentlab.momentkit import (
    TruncatedSequence,
    localizing_operator,
    preordering_products,
    shift_operator,
)
from momentlab.polycore import Polynomial, count_monomials, half_degree, monomial_basis
from momentlab.sdpcore import Block, ConicProgram, Solution, SolveOptions
from momentlab.semialg import POOL_SIZE, SemiAlgebraicSet, rejection_sample, sampled_extremum


class LevelTooLowError(ValueError):
    pass


@dataclass(frozen=True)
class HierarchyKind:
    certificate: str  # T | Q | R
    side: str         # moment | sos

    def __post_init__(self):
        if self.certificate not in ("T", "Q", "R"):
            raise ValueError(f"unknown certificate {self.certificate!r}")
        if self.side not in ("moment", "sos"):
            raise ValueError(f"unknown side {self.side!r}")


@dataclass
class Relaxation:
    """A flattened hierarchy program plus the structure needed to read it back."""

    program: ConicProgram
    kind: HierarchyKind
    level: int
    objective: Polynomial
    domain: SemiAlgebraicSet
    psd_specs: list
    # moment side: slice of the pseudo-moment vector inside x
    y_slice: Optional[slice] = None
    # sos side: index of the bound variable c and the multiplier layout
    c_index: Optional[int] = None
    tau_layout: list = field(default_factory=list)

    def value(self, sol: Solution) -> float:
        """Bound carried by a solution: mlb on the moment side, lb on the SOS side."""
        return sol.primal_value if self.kind.side == "moment" else -sol.primal_value

    def with_objective(self, f: Polynomial) -> "Relaxation":
        """This moment-side relaxation with objective l_y(f). The copy shares
        the program's scaling and A A' factor (ConicProgram.with_objective),
        so a sweep over objectives builds and factors once."""
        if self.y_slice is None:
            raise ValueError("objective swaps need a moment-side relaxation")
        _check_level(f, self.domain, self.level)
        c = np.zeros(self.program.num_vars)
        c[self.y_slice] = f.coefficient_vector(monomial_basis(self.domain.n, 2 * self.level))
        return replace(self, program=self.program.with_objective(c), objective=f)

    def pseudo_moments(self, sol: Solution):
        if self.y_slice is None:
            raise ValueError("not a moment-side relaxation")
        return TruncatedSequence(self.domain.n, 2 * self.level, sol.x[self.y_slice])


def _check_level(f: Polynomial, X: SemiAlgebraicSet, r: int) -> None:
    need = max([half_degree(f)] + [half_degree(g) for g in X.inequalities]
               + [half_degree(h) for h in X.equalities])
    if r < need:
        raise LevelTooLowError(f"level r={r} below required {need}")


def _level_specs(f: Polynomial, X: SemiAlgebraicSet, certificate: str, r: int,
                 max_psd_size: int):
    """PSD specs, their matrix sizes, and the equality specs of level r."""
    _check_level(f, X, r)
    specs = preordering_products(X, r, kind=certificate)
    psd_specs = [s for s in specs if s.constraint_kind == "psd"]
    sizes = [count_monomials(X.n, spec.matrix_order) for spec in psd_specs]
    for size in sizes:
        if size > max_psd_size:
            raise ValueError(f"PSD block of size {size} exceeds cap {max_psd_size}")
    return psd_specs, sizes, [s for s in specs if s.constraint_kind != "psd"]


def _spec_operator(spec, order: int) -> sp.csr_matrix:
    """The linear map in y that one spec constrains: packed localizing rows
    L for a PSD block, shift rows S for an equality (all of M_t(h y), or the
    scalar l_y(h^2) for R)."""
    if spec.constraint_kind == "psd":
        return localizing_operator(spec.weight, spec.matrix_order, order)
    d = 2 * spec.matrix_order if spec.constraint_kind == "zero" else 0
    return shift_operator(spec.weight, d, order)


def build_moment_relaxation(f: Polynomial, X: SemiAlgebraicSet, certificate: str,
                            r: int, max_psd_size: int = 400) -> Relaxation:
    """Level-r moment program: minimize l_y(f) over y0 = 1 and the localizing
    constraints of the chosen certificate.

    x = (y, one svec slack per PSD spec). The rows are y0 = 1, then
    L_J y - slack_J = 0 per PSD spec, then S_h y = 0 per equality."""
    psd_specs, sizes, eq_specs = _level_specs(f, X, certificate, r, max_psd_size)
    big = monomial_basis(X.n, 2 * r)
    blocks = [Block("free", len(big))] + [Block("psd", size) for size in sizes]

    k = len(psd_specs)
    grid = [[sp.csr_matrix(([1.0], ([0], [0])), shape=(1, len(big)))] + [None] * k]
    for j, spec in enumerate(psd_specs):
        row = [-_spec_operator(spec, 2 * r)] + [None] * k
        row[1 + j] = sp.identity(blocks[1 + j].scalar_len)
        grid.append(row)
    grid += [[_spec_operator(spec, 2 * r)] + [None] * k for spec in eq_specs]
    A = sp.bmat(grid, format="csr")

    c = np.zeros(A.shape[1])
    c[:len(big)] = f.coefficient_vector(big)
    rhs = np.zeros(A.shape[0])
    rhs[0] = 1.0
    program = ConicProgram(tuple(blocks), c, A, rhs)
    return Relaxation(program=program, kind=HierarchyKind(certificate, "moment"),
                      level=r, objective=f, domain=X, psd_specs=psd_specs,
                      y_slice=slice(0, len(big)))


def build_sos_relaxation(f: Polynomial, X: SemiAlgebraicSet, certificate: str,
                         r: int, max_psd_size: int = 400) -> Relaxation:
    """Level-r SOS program: maximize c with f - c in the chosen certificate cone,
    written as coefficient matching over the monomials of degree <= 2r.

    Its column blocks are the transposes of the moment program's row blocks:
    c on the constant monomial, S_h' per equality multiplier, L_J' per Gram
    block."""
    psd_specs, sizes, eq_specs = _level_specs(f, X, certificate, r, max_psd_size)
    big = monomial_basis(X.n, 2 * r)
    zero_specs = [s for s in eq_specs if s.constraint_kind == "zero"]
    scalar_specs = [s for s in eq_specs if s.constraint_kind == "scalar_zero"]

    # free block: [c, tau coefficient vectors...] for T/Q; nonneg taus for R
    tau_layout = []
    free_len = 1
    for spec in zero_specs:
        size = count_monomials(X.n, 2 * spec.matrix_order)
        tau_layout.append((spec, slice(free_len, free_len + size)))
        free_len += size
    tau_layout += [(spec, i) for i, spec in enumerate(scalar_specs)]
    blocks = [Block("free", free_len)]
    if scalar_specs:
        blocks.append(Block("nonneg", len(scalar_specs)))
    blocks += [Block("psd", size) for size in sizes]

    columns = [sp.csr_matrix(([1.0], ([0], [0])), shape=(len(big), 1))]
    columns += [_spec_operator(spec, 2 * r).T for spec in zero_specs + scalar_specs + psd_specs]
    A = sp.bmat([columns], format="csr")
    c_vec = np.zeros(A.shape[1])
    c_vec[0] = -1.0  # maximize c
    program = ConicProgram(tuple(blocks), c_vec, A, f.coefficient_vector(big))
    return Relaxation(program=program, kind=HierarchyKind(certificate, "sos"),
                      level=r, objective=f, domain=X, psd_specs=psd_specs,
                      c_index=0, tau_layout=tau_layout)


def solve_relaxation(rel: Relaxation, opts: Optional[SolveOptions] = None):
    sol = sdpcore.solve(rel.program, opts)
    return rel.value(sol), sol


# ----------------------------------------------------------------------------
# certificates


@dataclass
class CertificateTerm:
    weight: Polynomial
    gram: np.ndarray
    contribution: Polynomial


@dataclass
class CertificateExtract:
    bound: float
    terms: list
    residual: float


def certificate_extract(sol: Solution, rel: Relaxation) -> CertificateExtract:
    """Gram matrices per certificate term and the l1 reconstruction residual
    of f - c* against the recovered representation."""
    if rel.kind.side != "sos":
        raise ValueError("certificates live on the SOS side")
    if sol.status != "optimal":
        raise ValueError(f"cannot extract a certificate from status {sol.status!r}")
    A, x = rel.program.A, sol.x
    big = monomial_basis(rel.domain.n, 2 * rel.level)
    blocks = list(zip(rel.program.blocks, rel.program.block_slices(), sol.blocks))
    grams = [(sl, G) for blk, sl, G in blocks if blk.kind == "psd"]
    nonneg_start = next((sl.start for blk, sl, _ in blocks if blk.kind == "nonneg"), None)

    def term(spec, cols: slice, gram: np.ndarray) -> CertificateTerm:
        # a block's columns of A are its transposed operator, so A x on them
        # is the coefficient vector of that term of the certificate
        return CertificateTerm(spec.weight, gram,
                               Polynomial.from_vector(big, A[:, cols] @ x[cols]))

    terms = [term(spec, sl, G) for spec, (sl, G) in zip(rel.psd_specs, grams)]
    for spec, loc in rel.tau_layout:
        if spec.constraint_kind == "scalar_zero":
            loc = slice(nonneg_start + loc, nonneg_start + loc + 1)
        terms.append(term(spec, loc, np.empty((0, 0))))
    residual = float(np.abs(rel.program.b - A @ x).sum())
    return CertificateExtract(bound=float(x[rel.c_index]), terms=terms, residual=residual)


# ----------------------------------------------------------------------------
# ladders and reference minima


@dataclass
class RelaxationResult:
    level: int
    certificate: str
    side: str
    value: float
    status: str
    gap: float
    seconds: float
    iterations: int


@dataclass
class LadderReport:
    results: list
    monotonicity_violations: list
    # one line per row whose solve did not reach `optimal`: its value is no bound
    status_notes: list = field(default_factory=list)


def _monotonicity_check(results: Sequence[RelaxationResult], tol: float) -> tuple:
    """(violations, status notes) of ladder rows solved to tolerance `tol`.

    Each side's optimal rows are compared in level order. A row whose status
    is not `optimal` bounds nothing, so it gets a note and no comparison.
    """
    violations, notes, last = [], [], {}
    for res in sorted(results, key=lambda res: res.level):
        label = f"{res.certificate}/{res.side}: level {res.level}"
        if res.status != "optimal":
            notes.append(f"{label} stopped at status {res.status!r}; "
                         f"its value {res.value:.9g} is not a bound")
            continue
        prev = last.get(res.side)
        # sdpcore.solve stops once |pv - dv| <= tol (1 + |pv| + |dv|). The
        # level's true value lies between pv and dv, so the reported value v
        # is off by at most that gap; |dv| <= |v| + gap turns the rule into
        # gap <= tol (1 + 2|v|) / (1 - tol). Two levels may err in opposite
        # directions, so the drop solver error allows is the sum of both.
        if prev is not None:
            slack = tol * (2.0 + 2.0 * abs(prev) + 2.0 * abs(res.value)) / (1.0 - tol)
            if res.value < prev - slack:
                violations.append(f"{label} value {res.value:.9g} below previous {prev:.9g}")
        last[res.side] = res.value
    return violations, notes


def run_ladder(f: Polynomial, X: SemiAlgebraicSet, certificate: str,
               levels: Sequence[int], opts: Optional[SolveOptions] = None,
               sides: Sequence[str] = ("moment", "sos"),
               max_psd_size: int = 400) -> LadderReport:
    """Solve the chosen hierarchy at each level, both sides by default, one
    level and side after another in level order.

    The monotonicity check derives its slack from the solve tolerance
    `opts.tol`. Only rows with status `optimal` are compared; every other row
    gets a line in `status_notes` instead.
    """
    def run_one(r, side):
        build = build_moment_relaxation if side == "moment" else build_sos_relaxation
        start = time.perf_counter()
        rel = build(f, X, certificate, r, max_psd_size=max_psd_size)
        value, sol = solve_relaxation(rel, opts)
        elapsed = time.perf_counter() - start
        return RelaxationResult(level=r, certificate=certificate, side=side,
                                value=value, status=sol.status, gap=np.nan,
                                seconds=elapsed, iterations=sol.iterations)

    results = [run_one(r, side) for r in sorted(levels) for side in sides]

    by_key = {(res.level, res.side): res for res in results}
    if len(sides) == 2:
        for r in levels:
            gap = abs(by_key[(r, "moment")].value - by_key[(r, "sos")].value)
            by_key[(r, "moment")].gap = gap
            by_key[(r, "sos")].gap = gap
    violations, notes = _monotonicity_check(results, (opts or SolveOptions()).tol)
    return LadderReport(results=results, monotonicity_violations=violations,
                        status_notes=notes)


def estimate_minimum(f: Polynomial, X: SemiAlgebraicSet, seed: int = 0,
                     return_point: bool = False):
    """Sample-and-polish upper estimate of min f over X; with `return_point`,
    (value, point).

    The pool is rejection_sample(X, POOL_SIZE, seed), the pool the support
    values of X read with the same seed; sampled_extremum polishes its 8
    best. The value is f at the best feasible point found, so it
    upper-bounds the true minimum; it is documented as an estimate.
    RuntimeError reports a set the sampler finds no point of.
    """
    pool = rejection_sample(X, POOL_SIZE, seed)
    best, point = sampled_extremum(f, X, pool, 8, maximize=False)
    return (best, point) if return_point else best


def estimate_maximum(f: Polynomial, X: SemiAlgebraicSet, seed: int = 0,
                     return_point: bool = False):
    """estimate_minimum of -f, negated: a lower estimate of max f over X;
    with `return_point`, (value, point)."""
    value, point = estimate_minimum(-f, X, seed=seed, return_point=True)
    return (-value, point) if return_point else -value
