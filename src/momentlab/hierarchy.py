"""Assembly and solution of the lower-bound hierarchies.

Six programs are covered: the moment and SOS sides of the preordering (T),
quadratic-module (Q), and reduced (R) certificates. Moment programs carry the
pseudo-moment vector as a free block linked to PSD localizing blocks; SOS
programs carry one Gram block per certificate term plus free polynomial
multipliers on equalities (T, Q) or nonnegative scalars on squared equalities
(R).

For T and Q the builder leaves out a PSD spec g_J that the equality rows
force to zero: a factor of g_J is a constant multiple of an equality h, and
h's shift rows reach the block's top degree, so L_J y = 0 on every feasible
y and h's multiplier absorbs the SOS term sigma_J g_J. Such a block has no
interior, and leaving it out keeps both sides' values (the simplest case of
facial reduction).

On a set whose only equality is a nonzero multiple of a centred sphere's
h = R^2 - |x|^2, T and Q are built over the standard monomials of R[x]/(h)
instead (momentkit.SphereQuotient; build_moment_relaxation). Over monomials
M_r(y) holds the multiples of h in its kernel on every feasible y, so
neither side has a strictly feasible point; over the quotient the equality
rows, h's multiplier and the sphere's ball block vanish. This is facial
reduction (Borwein & Wolkowicz 1981; Permenter & Parrilo 2018). R keeps
monomials and the ball block: its equality binds only as l_y(h^2) = 0,
which does not put y in the quotient.

A level is one conic primal-dual pair, built once: build_moment_relaxation
stacks, per spec, momentkit's sparse operator (localizing_operator for a PSD
spec, shift_operator for an equality) as a row block, and the SOS program is
its signed transpose. One map, _dual_rows, pairs each SOS column with a
moment row: c with y0 = 1, tau_h with S_h's rows, Gram block J with the
rows -L_J y + slack_J, negated. Read backwards it turns an SOS solution into
a primal-dual point of the moment program (_moment_start). So run_ladder
solves a level as one interior-point solve of the SOS side, a cold
sdpcore.solve, and reads the moment side from it: that side's
sdpcore.solve call is given the mapped point, which returns at iteration 0
when it passes the moment program's own stopping rule; a point it turns
down is dropped, and the moment program is solved cold by the
interior-point method. Each side is still its own call, certified by its
own residuals.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np
import scipy.sparse as sp

from momentlab import sdpcore
from momentlab.momentkit import (
    SphereQuotient,
    TruncatedSequence,
    localizing_operator,
    preordering_products,
    shift_operator,
    sphere_quotient,
    sphere_radius_sq,
)
from momentlab.polycore import Polynomial, count_monomials, half_degree, l1_norm, monomial_basis
from momentlab.sdpcore import Block, ConicProgram, Solution, SolveOptions, Start
from momentlab.semialg import POOL_SIZE, SemiAlgebraicSet, rejection_sample, sampled_extremum


SIDES = ("moment", "sos")

log = logging.getLogger("momentlab")


class LevelTooLowError(ValueError):
    pass


def check_sides(sides: Sequence[str]) -> None:
    """Raise ValueError naming a side outside SIDES or given twice."""
    for i, side in enumerate(sides):
        if side not in SIDES:
            raise ValueError(f"unknown side {side!r}; expected one of {SIDES}")
        if side in sides[:i]:
            raise ValueError(f"side {side!r} given twice")


@dataclass(frozen=True)
class HierarchyKind:
    certificate: str  # T | Q | R
    side: str         # moment | sos

    def __post_init__(self):
        if self.certificate not in ("T", "Q", "R"):
            raise ValueError(f"unknown certificate {self.certificate!r}")
        if self.side not in SIDES:
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
    # the equality specs, in the moment program's row order
    eq_specs: list = field(default_factory=list)
    # moment side: slice of the pseudo-moment vector inside x
    y_slice: Optional[slice] = None
    # sos side: per equality spec, the slice of x that holds its multiplier;
    # the bound variable c is x[0]
    tau_layout: list = field(default_factory=list)
    # on a sphere's quotient (_quotient), the moment coordinates are the
    # standard monomials of degree <= 2r; None on monomials
    quotient: Optional[SphereQuotient] = None

    def value(self, sol: Solution) -> float:
        """Bound carried by a solution: mlb on the moment side, lb on the SOS side."""
        return sol.primal_value if self.kind.side == "moment" else -sol.primal_value

    def objective_vector(self, f: Polynomial) -> np.ndarray:
        """The c of this moment-side program with objective l_y(f), as the
        builder writes it (_coefficients)."""
        if self.y_slice is None:
            raise ValueError("objective swaps need a moment-side relaxation")
        _check_level(f, self.domain, self.level)
        c = np.zeros(self.program.num_vars)
        c[self.y_slice] = _coefficients(f, self.domain.n, self.level, self.quotient)
        return c

    def with_objective(self, f: Polynomial) -> "Relaxation":
        """This moment-side relaxation with objective l_y(f). The copy shares
        the program's interior-point plan, its scaling and A A' factor among
        it (ConicProgram.with_objective), so a sweep over objectives builds
        and factors once."""
        return replace(self, program=self.program.with_objective(self.objective_vector(f)),
                       objective=f)

    def pseudo_moments(self, sol: Solution):
        """The order-2r sequence of a moment-side solution, over the
        monomials; on a sphere's quotient, y = phi' z, so a monomial's moment
        is the moment of its normal form."""
        if self.y_slice is None:
            raise ValueError("not a moment-side relaxation")
        y = sol.x[self.y_slice]
        if self.quotient is not None:
            y = self.quotient.phi.T @ y
        return TruncatedSequence(self.domain.n, 2 * self.level, y)


def _check_level(f: Polynomial, X: SemiAlgebraicSet, r: int) -> None:
    need = max([half_degree(f)] + [half_degree(g) for g in X.inequalities]
               + [half_degree(h) for h in X.equalities])
    if r < need:
        raise LevelTooLowError(f"level r={r} below required {need}")


def _quotient(X: SemiAlgebraicSet, certificate: str, r: int) -> Optional[SphereQuotient]:
    """The quotient a level of T or Q is built over when X's only equality
    is a nonzero multiple of a centred sphere's R^2 - |x|^2, else None.

    There S_h y = 0 says l_y(h q) = 0 for every q of degree <= 2r - 2, so y
    is phi' z, z over the standard monomials of degree <= 2r, and M_r(y)'s
    rows at the other monomials are combinations of the standard ones. R
    keeps monomials: its equality binds only as l_y(h^2) = 0, a weaker
    program whose y need not lie in the quotient."""
    if certificate == "R" or len(X.equalities) != 1:
        return None
    radius_sq = sphere_radius_sq(X.equalities[0])
    return None if radius_sq is None else sphere_quotient(X.n, 2 * r, radius_sq)


def _coefficients(f: Polynomial, n: int, r: int,
                  quotient: Optional[SphereQuotient]) -> np.ndarray:
    """f's coefficients over the moment coordinates of level r: the
    monomials of degree <= 2r, or the standard monomials of its normal form."""
    if quotient is None:
        return f.coefficient_vector(monomial_basis(n, 2 * r))
    return quotient.normal_form(f)


def _spec_operator(spec, order: int, quotient: Optional[SphereQuotient]) -> sp.csr_matrix:
    """The linear map in y that one spec constrains: packed localizing rows
    L for a PSD block, shift rows S for an equality (all of M_t(h y), or the
    scalar l_y(h^2) of R's order-0 specs). On a sphere's quotient, the
    packed localizing rows at the standard monomials, acting on z."""
    if quotient is not None:
        return quotient.localizing_operator(spec.weight, spec.matrix_order)
    if spec.constraint_kind == "psd":
        return localizing_operator(spec.weight, spec.matrix_order, order)
    return shift_operator(spec.weight, 2 * spec.matrix_order, order)


def _is_multiple(g: Polynomial, h: Polynomial) -> bool:
    """Whether g = c h for a constant c != 0, exactly in floating point."""
    if not g.terms or g.terms.keys() != h.terms.keys():
        return False
    gc = np.array([g.terms[a] for a in h.terms])
    hc = np.fromiter(h.terms.values(), dtype=float, count=len(gc))
    return np.array_equal(gc * hc[0], hc * gc[0])


def _forcing_equality(spec, X: SemiAlgebraicSet, eq_specs: Sequence):
    """The zero spec of an equality h whose shift rows force the localizing
    matrix of the PSD spec g_J to zero, or None.

    When a factor of g_J is c h (c != 0), g_J = c h q, and each entry
    l_y(g_J x^(a+b)) is c sum_k q_k l_y(h x^(k+a+b)), where |k+a+b| <= deg q +
    2 t_J. The rows S_h y = 0 hold l_y(h x^d) = 0 for |d| <= 2 t_h, so they
    force L_J y = 0 once deg g_J - deg h + 2 t_J <= 2 t_h; on the SOS side,
    h's multiplier (of degree <= 2 t_h) absorbs sigma_J g_J = h (c q sigma_J).
    """
    for j in spec.factors:
        for eq in eq_specs:
            if (eq.constraint_kind == "zero" and _is_multiple(X.inequalities[j], eq.weight)
                    and spec.weight.degree - eq.weight.degree + 2 * spec.matrix_order
                    <= 2 * eq.matrix_order):
                return eq
    return None


def _left_out(spec, X: SemiAlgebraicSet, eq_specs: Sequence,
              quotient: Optional[SphereQuotient]) -> Optional[str]:
    """Why the PSD spec g_J is left out, or None to assemble it. On a
    sphere's quotient, when NF(g_J) = 0 up to rounding (|NF(g_J)|_1 <=
    1e-12 |g_J|_1): g_J is a multiple of h, so its localizing operator is
    zero. On monomials, when the equality rows force it to zero
    (_forcing_equality)."""
    if quotient is not None:
        zero = np.abs(quotient.normal_form(spec.weight)).sum() <= 1e-12 * l1_norm(spec.weight)
        return "zero modulo h1" if zero else None
    eq = _forcing_equality(spec, X, eq_specs)
    return None if eq is None else f"forced zero by {eq.label}"


def build_moment_relaxation(f: Polynomial, X: SemiAlgebraicSet, certificate: str,
                            r: int, max_psd_size: int = 400) -> Relaxation:
    """Level-r moment program: minimize l_y(f) over y0 = 1 and the localizing
    constraints of the chosen certificate.

    x = (y, one svec slack per assembled PSD spec). The rows are y0 = 1, then
    L_J y - slack_J = 0 per assembled PSD spec, then S_h y = 0 per equality.
    A PSD spec g_J of T or Q is left out when the equality rows force L_J y
    to zero (_forcing_equality): a factor of g_J is a constant multiple of an
    equality h, and h's shift rows reach the block's top degree. Both sides
    keep their values, the block having no interior; `psd_specs` lists the
    assembled specs, and one debug event on the "momentlab" logger names
    those left out.

    For T and Q on a set whose only equality is a nonzero multiple of
    R^2 - |x|^2 (_quotient), y is z, the moments of the standard monomials of
    degree <= 2r, and `quotient` holds the basis: L_J is the localizing
    operator at the standard rows read through y = phi' z, there are no
    S_h rows, and a spec whose weight is zero modulo h (the sphere's ball
    inequality among them) is left out. Objectives enter as normal forms,
    and pseudo_moments reads back monomials. R keeps monomials (_quotient)."""
    _check_level(f, X, r)
    specs = preordering_products(X, r, kind=certificate)
    quotient = _quotient(X, certificate, r)
    # on a sphere's quotient the equality is the basis, and has no rows
    eq_specs = [] if quotient else [s for s in specs if s.constraint_kind != "psd"]
    psd_specs, left_out = [], []
    for spec in specs:
        if spec.constraint_kind == "psd":
            why = _left_out(spec, X, eq_specs, quotient)
            if why is None:
                psd_specs.append(spec)
            else:
                left_out.append(f"{spec.label} ({why})")
    log.debug("build %s r=%d on %s: %d PSD blocks, left out %s", certificate, r, X.name,
              len(psd_specs), ", ".join(left_out) or "none")
    sizes = [count_monomials(X.n, spec.matrix_order) if quotient is None
             else quotient.size(spec.matrix_order) for spec in psd_specs]
    if max(sizes) > max_psd_size:
        raise ValueError(f"PSD block of size {max(sizes)} exceeds cap {max_psd_size}")
    n_y = count_monomials(X.n, 2 * r) if quotient is None else len(quotient.std)
    blocks = [Block("free", n_y)] + [Block("psd", size) for size in sizes]

    k = len(psd_specs)
    grid = [[sp.csr_matrix(([1.0], ([0], [0])), shape=(1, n_y))] + [None] * k]
    for j, spec in enumerate(psd_specs):
        row = [-_spec_operator(spec, 2 * r, quotient)] + [None] * k
        row[1 + j] = sp.identity(blocks[1 + j].scalar_len)
        grid.append(row)
    grid += [[_spec_operator(spec, 2 * r, quotient)] + [None] * k for spec in eq_specs]
    A = sp.bmat(grid, format="csr")

    c = np.zeros(A.shape[1])
    c[:n_y] = _coefficients(f, X.n, r, quotient)
    rhs = np.zeros(A.shape[0])
    rhs[0] = 1.0
    program = ConicProgram(tuple(blocks), c, A, rhs)
    return Relaxation(program=program, kind=HierarchyKind(certificate, "moment"),
                      level=r, objective=f, domain=X, psd_specs=psd_specs,
                      eq_specs=eq_specs, y_slice=slice(0, n_y), quotient=quotient)


def build_sos_relaxation(f: Polynomial, X: SemiAlgebraicSet, certificate: str,
                         r: int, max_psd_size: int = 400) -> Relaxation:
    """Level-r SOS program: maximize c with f - c in the chosen certificate cone,
    written as coefficient matching over the monomials of degree <= 2r. It is
    the level's moment program read as its conic dual (_sos_side)."""
    return _sos_side(build_moment_relaxation(f, X, certificate, r, max_psd_size))


def _dual_rows(mom: Relaxation) -> tuple:
    """(rows, signs): per SOS column, the moment row it transposes and its
    sign. The SOS columns are c (row y0 = 1, +), then each tau_h (rows S_h y,
    +), then each Gram block G_J (rows -L_J y + slack_J, -); the equalities of
    a level are all free (T, Q) or all nonnegative (R) multipliers."""
    m = mom.program.num_rows
    eq = 1 + mom.program.num_vars - mom.y_slice.stop  # the first S_h row
    return np.r_[0, eq:m, 1:eq], np.r_[1.0, np.ones(m - eq), -np.ones(eq - 1)]


def _sos_side(mom: Relaxation) -> Relaxation:
    """The SOS program of mom's level: A is mom's y columns transposed, in
    _dual_rows order and times its signs, and b is mom's objective on y."""
    rows, signs = _dual_rows(mom)
    At = mom.program.A[:, mom.y_slice].T.tocsc()[:, rows]
    At.data *= np.repeat(signs, np.diff(At.indptr))
    A = At.tocsr()  # a counting transpose: each row's indices come out sorted
    tau_layout, end = [], 1  # tau_h has one entry per row of S_h: one for R
    for spec in mom.eq_specs:
        size = count_monomials(mom.domain.n, 2 * spec.matrix_order)
        tau_layout.append((spec, slice(end, end + size)))
        end += size
    blocks = ((Block("free", 1), Block("nonneg", end - 1))
              if mom.kind.certificate == "R" and end > 1 else (Block("free", end),))
    c = np.zeros(A.shape[1])
    c[0] = -1.0  # maximize c
    program = ConicProgram(blocks + mom.program.blocks[1:], c, A,
                           mom.program.c[mom.y_slice].copy())
    return replace(mom, program=program, kind=HierarchyKind(mom.kind.certificate, "sos"),
                   y_slice=None, tau_layout=tau_layout)


def solve_relaxation(rel: Relaxation, opts: Optional[SolveOptions] = None,
                     start: Optional[Start] = None):
    """(bound, Solution) of one sdpcore.solve call on rel's program, begun at
    `start` when given; the stopping rule is the same either way."""
    sol = sdpcore.solve(rel.program, opts, start)
    return rel.value(sol), sol


def _moment_start(mom: Relaxation, sol: Solution) -> Start:
    """The point of the moment program that a solution of _sos_side(mom)
    holds: moments -(its row duals), slacks L_J y, and as row duals its x
    read through _dual_rows backwards (c, -G_J and tau_h)."""
    rows, signs = _dual_rows(mom)
    n_y = mom.y_slice.stop
    x = np.zeros(mom.program.num_vars)
    x[:n_y] = -sol.y
    # the rows after y0 = 1 start with -L_J y + slack_J, one block per PSD spec
    x[n_y:] = -(mom.program.A @ x)[1:1 + mom.program.num_vars - n_y]
    y = np.empty(mom.program.num_rows)
    y[rows] = signs * sol.x
    return Start(x, y)


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
    of f - c* against the recovered representation. Contributions are
    polynomials over the monomials. On a sphere's quotient the multiplier
    tau of h comes from dividing f - c* - (the Gram terms) by h exactly, and
    the residual is the remainder's l1 norm, so f - c* = (the terms) +
    remainder in R[x]."""
    if rel.kind.side != "sos":
        raise ValueError("certificates live on the SOS side")
    if sol.status != "optimal":
        raise ValueError(f"cannot extract a certificate from status {sol.status!r}")
    A, x, quotient = rel.program.A, sol.x, rel.quotient
    big = monomial_basis(rel.domain.n, 2 * rel.level)
    grams = [(sl, G) for blk, sl, G in zip(rel.program.blocks, rel.program.block_slices(),
                                           sol.blocks) if blk.kind == "psd"]

    def term(spec, cols: slice, gram: np.ndarray) -> CertificateTerm:
        # a block's columns of A are its transposed operator, so A x on them
        # is the coefficient vector of that term of the certificate; on a
        # sphere's quotient the operator before the normal form gives it
        # over the monomials
        op = (A[:, cols] if quotient is None
              else quotient.localizing_rows(spec.weight, spec.matrix_order).T)
        return CertificateTerm(spec.weight, gram, Polynomial.from_vector(big, op @ x[cols]))

    terms = [term(spec, sl, G) for spec, (sl, G) in zip(rel.psd_specs, grams)]
    if quotient is None:
        terms += [term(spec, loc, np.empty((0, 0))) for spec, loc in rel.tau_layout]
        residual = float(np.abs(rel.program.b - A @ x).sum())
    else:
        # f - c - (the Gram terms) lies in (h) up to the solve's residuals:
        # dividing it by h gives the multiplier tau and the residual's remainder
        h = rel.domain.equalities[0]
        rest = rel.objective - float(x[0]) - sum((t.contribution for t in terms),
                                                 Polynomial.zero(rel.domain.n))
        tau, remainder = quotient.divide(rest, h)
        terms.append(CertificateTerm(h, np.empty((0, 0)), tau * h))
        residual = float(l1_norm(remainder))
    return CertificateExtract(bound=float(x[0]), terms=terms, residual=residual)


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
               sides: Sequence[str] = SIDES,
               max_psd_size: int = 400) -> LadderReport:
    """Solve the chosen hierarchy at each level, both sides by default, in
    level order; each level's rows follow the order of `sides`, which takes
    each of "moment" and "sos" at most once (ValueError otherwise).

    Each level is assembled once, its SOS program read off the moment
    program (_sos_side). A level that asks for both sides is one primal-dual
    pair: the SOS side is solved first, cold, by sdpcore's interior-point
    method, and when that solve ends `optimal` the moment side's solve is
    given the point it holds (_moment_start). When that point passes the
    moment side's residual test, as it does on every level measured so far,
    the row is certified at iteration 0; a point turned down is dropped, and
    the moment side is solved cold by the interior-point method. Each side
    is its own sdpcore.solve call and stops only on its own residual test at
    `opts.tol`. A moment side whose SOS side is not `optimal`, or that is
    asked for alone, is solved cold. A row's `seconds` is its solve; the
    level's assembly is charged to the side solved first. Logs one debug
    event per level on the `momentlab` logger: the certificate, r and the
    set's name, each side's status, iterations and seconds, and whether the
    moment side's start was accepted at iteration 0, turned down, or none
    was given.

    The monotonicity check derives its slack from the solve tolerance
    `opts.tol`. Only rows with status `optimal` are compared; every other row
    gets a line in `status_notes` instead.
    """
    check_sides(sides)
    results = []
    for r in sorted(levels):
        start = time.perf_counter()
        mom = build_moment_relaxation(f, X, certificate, r, max_psd_size=max_psd_size)
        rels = {side: mom if side == "moment" else _sos_side(mom) for side in sides}
        rows, sos_sol, started = {}, None, "none"
        for side in sorted(sides, key=lambda side: side != "sos"):  # the SOS side first
            warm = None if sos_sol is None else _moment_start(mom, sos_sol)
            value, sol = solve_relaxation(rels[side], opts, warm)
            if side == "sos" and sol.status == "optimal":
                sos_sol = sol
            if side == "moment" and warm is not None:
                started = "accepted at iteration 0" if sol.iterations == 0 else "turned down"
            stop = time.perf_counter()
            rows[side] = RelaxationResult(level=r, certificate=certificate, side=side,
                                          value=value, status=sol.status, gap=np.nan,
                                          seconds=stop - start, iterations=sol.iterations)
            start = stop
        results += [rows[side] for side in sides]
        log.debug("ladder %s r=%d on %s: %s; moment start %s", certificate, r, X.name,
                  "; ".join(f"{side} {rows[side].status} after {rows[side].iterations} "
                            f"iterations in {rows[side].seconds:.3g} s" for side in sides), started)

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
                     return_point: bool = False, pool: Optional[np.ndarray] = None):
    """Sample-and-polish upper estimate of min f over X; with `return_point`,
    (value, point).

    The pool is `pool`, by default rejection_sample(X, POOL_SIZE, seed), the
    pool the support values of X read with the same seed; sampled_extremum
    polishes its 8 best. The value is f at the best feasible point found, so
    it upper-bounds the true minimum; it is documented as an estimate.
    RuntimeError reports a set the sampler finds no point of.
    """
    if pool is None:
        pool = rejection_sample(X, POOL_SIZE, seed)
    (best,), (point,) = sampled_extremum([f], X, pool, 8, maximize=False)
    return (float(best), point) if return_point else float(best)


def estimate_maximum(f: Polynomial, X: SemiAlgebraicSet, seed: int = 0,
                     return_point: bool = False):
    """estimate_minimum of -f, negated: a lower estimate of max f over X;
    with `return_point`, (value, point)."""
    value, point = estimate_minimum(-f, X, seed=seed, return_point=True)
    return (-value, point) if return_point else -value
