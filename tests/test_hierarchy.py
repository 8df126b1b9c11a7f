import numpy as np
import pytest

from momentlab import hierarchy, sdpcore
from momentlab.hierarchy import (
    HierarchyKind,
    LevelTooLowError,
    RelaxationResult,
    _moment_start,
    _monotonicity_check,
    build_moment_relaxation,
    build_sos_relaxation,
    certificate_extract,
    estimate_maximum,
    estimate_minimum,
    run_ladder,
    solve_relaxation,
)
from momentlab.momentkit import (
    localizing_operator,
    moment_matrix,
    preordering_products,
    riesz_apply,
)
from momentlab.polycore import Polynomial, l1_norm
from momentlab.sdpcore import SolveOptions
from momentlab.semialg import make_catalog_set

TIGHT = SolveOptions(tol=1e-9)

X_VAR = Polynomial.variable(1, 0)
BALL1 = make_catalog_set("ball", n=1, R=1.0)
SPHERE = make_catalog_set("sphere", n=2, R=1.0)


def test_moment_q_ball_linear():
    rel = build_moment_relaxation(X_VAR, BALL1, "Q", 1)
    value, sol = solve_relaxation(rel, TIGHT)
    assert sol.status == "optimal"
    assert value == pytest.approx(-1.0, abs=1e-6)


def test_sos_q_ball_linear_and_certificate():
    rel = build_sos_relaxation(X_VAR, BALL1, "Q", 1)
    value, sol = solve_relaxation(rel, TIGHT)
    assert value == pytest.approx(-1.0, abs=1e-6)
    cert = certificate_extract(sol, rel)
    assert cert.residual <= 1e-6
    # sigma0 should be close to (1+x)^2 / 2 and the multiplier close to 1/2
    sigma0 = cert.terms[0].contribution
    ref = Polynomial(1, {(0,): 0.5, (1,): 1.0, (2,): 0.5})
    assert l1_norm(sigma0 - ref) < 1e-4


def test_sphere_q_level1():
    f = Polynomial.variable(2, 0)
    mrel = build_moment_relaxation(f, SPHERE, "Q", 1)
    mval, _ = solve_relaxation(mrel, TIGHT)
    srel = build_sos_relaxation(f, SPHERE, "Q", 1)
    sval, ssol = solve_relaxation(srel, TIGHT)
    assert mval == pytest.approx(-1.0, abs=1e-6)
    assert sval == pytest.approx(-1.0, abs=1e-6)
    cert = certificate_extract(ssol, srel)
    assert cert.residual <= 1e-6


def test_moment_t_ball_square():
    f = Polynomial(1, {(2,): 1.0})
    rel = build_moment_relaxation(f, BALL1, "T", 1)
    value, _ = solve_relaxation(rel, TIGHT)
    assert value == pytest.approx(0.0, abs=1e-6)


def test_sos_constant_objective():
    f = Polynomial.constant(1, 5.0)
    rel = build_sos_relaxation(f, BALL1, "Q", 1)
    value, sol = solve_relaxation(rel, TIGHT)
    assert value == pytest.approx(5.0, abs=1e-6)
    cert = certificate_extract(sol, rel)
    assert cert.residual <= 1e-6


def test_sos_t_equals_q_on_single_generator():
    rel_t = build_sos_relaxation(X_VAR, BALL1, "T", 1)
    val_t, _ = solve_relaxation(rel_t, TIGHT)
    assert val_t == pytest.approx(-1.0, abs=1e-6)


def test_level_too_low():
    f = Polynomial(1, {(4,): 1.0})
    with pytest.raises(LevelTooLowError):
        build_moment_relaxation(f, BALL1, "Q", 1)
    quartic = make_catalog_set("custom", n=1,
                               inequalities=[Polynomial(1, {(0,): 1.0, (4,): -1.0})])
    with pytest.raises(LevelTooLowError):
        build_sos_relaxation(X_VAR, quartic, "Q", 1)


def test_ladder_quartic_converges():
    # levels start at ceil(deg f / 2) = 2; the analytic minimum is -1/4 at
    # x = +-1/sqrt(2) and the certificate (x^2 - 1/2)^2 makes level 2 exact
    f = Polynomial(1, {(4,): 1.0, (2,): -1.0})
    report = run_ladder(f, BALL1, "Q", [2, 3, 4], TIGHT)
    assert not report.monotonicity_violations
    by_level = {(res.level, res.side): res.value for res in report.results}
    assert by_level[(2, "sos")] == pytest.approx(-0.25, abs=1e-6)
    assert by_level[(3, "moment")] == pytest.approx(-0.25, abs=1e-6)
    assert by_level[(4, "moment")] == pytest.approx(-0.25, abs=1e-6)
    for res in report.results:
        assert res.status == "optimal"
        assert res.gap <= 1e-6


def test_ladder_constant_flat():
    f = Polynomial.constant(1, 2.5)
    report = run_ladder(f, BALL1, "Q", [1, 2], TIGHT)
    for res in report.results:
        assert res.value == pytest.approx(2.5, abs=1e-6)


def test_ladder_sphere_all_levels_exact():
    f = Polynomial.variable(2, 0)
    report = run_ladder(f, SPHERE, "Q", [1, 2, 3], TIGHT)
    for res in report.results:
        assert res.value == pytest.approx(-1.0, abs=1e-5)
    assert not report.monotonicity_violations


def test_reduced_below_preordering_on_sphere():
    f = Polynomial(2, {(1, 0): 1.0, (1, 1): 0.5})
    vals = {}
    sos_vals = {}
    for cert in ("R", "T"):
        rel = build_moment_relaxation(f, SPHERE, cert, 2)
        vals[cert], _ = solve_relaxation(rel, TIGHT)
        srel = build_sos_relaxation(f, SPHERE, cert, 2)
        sos_vals[cert], _ = solve_relaxation(srel, TIGHT)
    # chain of displayed inequalities: lb(R) <= mlb(R) <= mlb(T), lb(R) <= lb(T)
    assert vals["R"] <= vals["T"] + 2e-9
    assert sos_vals["R"] <= vals["R"] + 2e-9
    assert sos_vals["R"] <= sos_vals["T"] + 2e-9


@pytest.mark.parametrize("X, certificate, r", [
    (SPHERE, "T", 2),
    (SPHERE, "R", 2),
    (make_catalog_set("simplex", n=2, K=1.0), "T", 3),
])
def test_sos_program_is_transpose_of_moment_program(X, certificate, r):
    f = Polynomial.from_pairs(X.n, [[[0] * X.n, 0.5], [[1] + [0] * (X.n - 1), -1.0],
                                    [[0] * (X.n - 1) + [2], 2.0]])
    mom = build_moment_relaxation(f, X, certificate, r)
    sos = build_sos_relaxation(f, X, certificate, r)
    My = mom.program.A[:, mom.y_slice].toarray()
    S = sos.program.A.toarray()
    assert np.array_equal(sos.program.b, mom.program.c[mom.y_slice])
    assert np.array_equal(S[:, [0]], My[[0]].T)  # c pairs with y_0 = 1

    gram_cols = [sl for blk, sl in zip(sos.program.blocks, sos.program.block_slices())
                 if blk.kind == "psd"]
    eq_cols = [loc for _, loc in sos.tau_layout]
    row = 1
    for sign, cols in [(-1.0, c) for c in gram_cols] + [(1.0, c) for c in eq_cols]:
        rows = slice(row, row + cols.stop - cols.start)
        assert np.array_equal(S[:, cols], sign * My[rows].T)
        row = rows.stop
    assert row == My.shape[0]
    assert len(eq_cols) == len(X.equalities)


def test_certificate_requires_sos_side():
    rel = build_moment_relaxation(X_VAR, BALL1, "Q", 1)
    _, sol = solve_relaxation(rel, TIGHT)
    with pytest.raises(ValueError, match="SOS side"):
        certificate_extract(sol, rel)


def test_pseudo_moments_read_the_moment_side_solution():
    # the order-2r sequence a solved moment side holds: unit mass, l_y(f) is
    # the bound, and M_r(y) is PSD to the solver's tolerance
    X = make_catalog_set("ball", n=2, R=1.0)
    x1, x2 = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    f = x1 * x2 + 0.5 * x1
    rel = build_moment_relaxation(f, X, "Q", 2)
    value, sol = solve_relaxation(rel, TIGHT)
    assert sol.status == "optimal"
    y = rel.pseudo_moments(sol)
    assert (y.n, y.order) == (2, 4)
    assert y.mass == pytest.approx(1.0, abs=1e-12)
    assert riesz_apply(y, f) == pytest.approx(value, abs=1e-12)
    assert np.linalg.eigvalsh(moment_matrix(y, 2)).min() >= -TIGHT.tol
    sos = build_sos_relaxation(f, X, "Q", 2)
    _, sos_sol = solve_relaxation(sos, TIGHT)
    with pytest.raises(ValueError, match="not a moment-side relaxation"):
        sos.pseudo_moments(sos_sol)


def test_estimate_minimum_ball():
    assert estimate_minimum(X_VAR, BALL1, seed=1) == pytest.approx(-1.0, abs=1e-7)
    f = Polynomial(1, {(4,): 1.0, (2,): -1.0})
    assert estimate_minimum(f, BALL1, seed=1) == pytest.approx(-0.25, abs=1e-7)
    assert estimate_maximum(X_VAR, BALL1, seed=1) == pytest.approx(1.0, abs=1e-7)


def test_estimate_maximum_returns_its_point():
    value, point = estimate_maximum(X_VAR, BALL1, seed=1, return_point=True)
    assert value == pytest.approx(1.0, abs=1e-7)
    np.testing.assert_allclose(point, [1.0], atol=1e-7)
    assert value == estimate_maximum(X_VAR, BALL1, seed=1)


def test_estimate_minimum_sphere():
    f = Polynomial.variable(2, 1)
    assert estimate_minimum(f, SPHERE, seed=2) == pytest.approx(-1.0, abs=1e-6)


def test_sandwich_against_grid_minimum():
    f = Polynomial(2, {(1, 1): 1.0, (1, 0): 0.5})
    X = make_catalog_set("box_product", factors=[("ball", 1, 1.0), ("ball", 1, 1.0)])
    fmin = estimate_minimum(f, X, seed=3)
    for cert in ("Q", "T"):
        rel = build_moment_relaxation(f, X, cert, 2)
        value, _ = solve_relaxation(rel, TIGHT)
        assert value <= fmin + 1e-6


def test_kind_validation():
    with pytest.raises(ValueError):
        HierarchyKind("Z", "moment")
    with pytest.raises(ValueError):
        HierarchyKind("T", "primal")


def test_ladder_strictly_increasing_on_motzkin_ball():
    # dehomogenized Motzkin form on the 3-ball: nonnegative with minimum 0,
    # not a sum of squares, so low levels are strictly inexact and the ladder
    # genuinely moves (r=3 about -4.6e-3, r=4 about -2.0e-4)
    ball3 = make_catalog_set("ball", n=3, R=1.0)
    motzkin = Polynomial(3, {(4, 2, 0): 1.0, (2, 4, 0): 1.0, (2, 2, 2): -3.0,
                             (0, 0, 6): 1.0})
    opts = SolveOptions(tol=1e-7)
    rel_m = build_moment_relaxation(motzkin, ball3, "T", 3)
    mlb3, _ = solve_relaxation(rel_m, opts)
    rel_s3 = build_sos_relaxation(motzkin, ball3, "T", 3)
    lb3, _ = solve_relaxation(rel_s3, opts)
    rel_s4 = build_sos_relaxation(motzkin, ball3, "T", 4)
    lb4, _ = solve_relaxation(rel_s4, opts)
    fmin = estimate_minimum(motzkin, ball3, seed=2)
    assert fmin == pytest.approx(0.0, abs=1e-9)
    assert lb3 < -1e-3          # strictly inexact at level 3
    assert lb4 > lb3 + 1e-3     # the ladder strictly moves
    assert lb3 <= mlb3 + 1e-6   # weak duality
    assert lb4 <= fmin + 1e-6


def test_motzkin_ball_level_5_is_optimal_on_both_sides():
    # T, r=5: the SOS side (286 rows, Gram blocks of 56 and 35) ended at
    # max_iters after 30k ADMM iterations; one interior-point solve now
    # certifies it, and the moment side is read off that solution
    ball3 = make_catalog_set("ball", n=3, R=1.0)
    motzkin = Polynomial(3, {(4, 2, 0): 1.0, (2, 4, 0): 1.0, (2, 2, 2): -3.0,
                             (0, 0, 6): 1.0})
    report = run_ladder(motzkin, ball3, "T", (5,), SolveOptions(tol=1e-7))
    assert [res.status for res in report.results] == ["optimal", "optimal"]
    assert report.results[0].iterations == 0
    assert report.status_notes == []
    assert all(-1e-4 < res.value <= 1e-6 for res in report.results)


def _row(level, value, status="optimal", side="moment"):
    return RelaxationResult(level=level, certificate="Q", side=side, value=value,
                            status=status, gap=np.nan, seconds=0.0, iterations=0)


def test_monotonicity_slack_follows_the_stopping_rule():
    # a drop of 5.4e-7 near -2.5 at tol 1e-7 is within what |pv - dv| <=
    # tol (1 + |pv| + |dv|) allows on each level; 1e-3 is not
    noise = [_row(2, -2.50011423), _row(3, -2.50011477)]
    assert _monotonicity_check(noise, 1e-7) == ([], [])
    drop = [_row(2, -2.50011423), _row(3, -2.50111423)]
    violations, notes = _monotonicity_check(drop, 1e-7)
    assert violations == ["Q/moment: level 3 value -2.50111423 below previous -2.50011423"]
    assert notes == []


def test_monotonicity_skips_non_optimal_rows():
    rows = [_row(2, -1.0), _row(3, -7.0, status="max_iters"), _row(4, -1.0),
            _row(2, -1.0, side="sos"), _row(3, -1.5, side="sos")]
    violations, notes = _monotonicity_check(rows, 1e-7)
    # the capped row is neither compared nor used as the next level's reference
    assert violations == ["Q/sos: level 3 value -1.5 below previous -1"]
    assert notes == ["Q/moment: level 3 stopped at status 'max_iters'; "
                     "its value -7 is not a bound"]


def test_ladder_reports_capped_rows_as_notes():
    f = Polynomial(1, {(4,): 1.0, (2,): -1.0})
    report = run_ladder(f, BALL1, "Q", [2, 3], SolveOptions(max_iters=5))
    assert all(res.status == "max_iters" for res in report.results)
    assert report.monotonicity_violations == []
    assert len(report.status_notes) == 4


def test_run_ladder_rejects_unknown_and_repeated_sides():
    with pytest.raises(ValueError, match="unknown side 'foo'"):
        run_ladder(X_VAR, BALL1, "Q", (1,), sides=("foo",))
    with pytest.raises(ValueError, match="side 'sos' given twice"):
        run_ladder(X_VAR, BALL1, "Q", (1,), sides=("sos", "sos"))


def _item4_case():
    x1, x2 = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    return (x1 ** 3 - x1 * x2 + x2 ** 4 + 0.3 * x2,
            make_catalog_set("simplex", n=2, K=1.0), "Q", 3)


@pytest.mark.parametrize("case", [
    lambda: (Polynomial(2, {(1, 0): 1.0, (1, 1): 0.5, (0, 3): -0.7}), SPHERE, "T", 2),
    _item4_case,
    lambda: (Polynomial(2, {(1, 0): 1.0, (1, 1): 0.5}), SPHERE, "R", 2),
], ids=["circle-T", "simplex-Q", "circle-R"])
def test_moment_side_starts_from_the_sos_solution(case):
    # T's equality multipliers are free coefficient vectors; R's are
    # nonnegative scalars that land on the l_y(h^2) = 0 rows
    f, X, certificate, r = case()
    opts = SolveOptions(tol=1e-7, max_iters=5000)
    report = run_ladder(f, X, certificate, (r,), opts)
    assert [res.side for res in report.results] == ["moment", "sos"]
    moment, sos = report.results
    assert sos.status == "optimal"
    assert moment.status == "optimal"
    assert moment.iterations <= 2 * sdpcore.CHECK_EVERY
    cold, cold_sol = solve_relaxation(build_moment_relaxation(f, X, certificate, r), opts)
    assert cold_sol.status == "optimal"
    assert moment.value == pytest.approx(cold, abs=1e-6)
    assert moment.iterations < cold_sol.iterations


def test_moment_start_is_the_sos_solution_read_as_a_moment_point():
    # the mapped point is as feasible for the moment program as the SOS
    # solution is for its own: moment rows against SOS dual slack, and back
    f, X, certificate, r = (Polynomial(2, {(1, 0): 1.0, (1, 1): 0.5}), SPHERE, "R", 2)
    mom = build_moment_relaxation(f, X, certificate, r)
    sos = build_sos_relaxation(f, X, certificate, r)
    _, sol = solve_relaxation(sos, TIGHT)
    start = _moment_start(mom, sol)
    A, b, c = mom.program.A, mom.program.b, mom.program.c
    assert start.x.shape == (mom.program.num_vars,)
    assert start.y.shape == (mom.program.num_rows,)
    np.testing.assert_allclose(c @ start.x, -sol.dual_value, atol=1e-12)
    np.testing.assert_allclose(b @ start.y, -sol.primal_value, atol=1e-12)
    assert np.abs(A @ start.x - b).max() <= 1e-6
    slack = c - A.T @ start.y
    assert np.abs(slack[mom.y_slice]).max() <= 1e-6
    # the slack on the moment side's PSD blocks is the SOS side's Gram blocks
    grams = [sl for blk, sl in zip(sos.program.blocks, sos.program.block_slices())
             if blk.kind == "psd"]
    assert np.array_equal(slack[mom.y_slice.stop:], np.concatenate([sol.x[sl] for sl in grams]))


def test_ladder_assembles_each_level_once(monkeypatch):
    # both sides of a level read one moment build: the SOS program is its
    # signed transpose, not a second enumeration of the specs
    calls = []
    real = hierarchy.preordering_products

    def counting(X, r, kind="T"):
        calls.append(r)
        return real(X, r, kind=kind)

    monkeypatch.setattr(hierarchy, "preordering_products", counting)
    report = run_ladder(Polynomial(1, {(4,): 1.0, (2,): -1.0}), BALL1, "Q", (2, 3))
    assert [(res.level, res.side) for res in report.results] == [
        (2, "moment"), (2, "sos"), (3, "moment"), (3, "sos")]
    assert calls == [2, 3]


def test_moment_only_ladder_is_a_cold_solve():
    f, X, certificate, r = _item4_case()
    opts = SolveOptions(tol=1e-7, max_iters=5000)
    (res,) = run_ladder(f, X, certificate, (r,), opts, sides=("moment",)).results
    value, sol = solve_relaxation(build_moment_relaxation(f, X, certificate, r), opts)
    assert (res.value, res.status, res.iterations) == (value, sol.status, sol.iterations)


def test_stengle_ladder_is_optimal_on_both_sides_through_r6():
    # Stengle: f = 1 - x^2 on {(1 - x^2)^3 >= 0} = [-1, 1]; the Q bound at
    # level r is -1/(r(r-2)). Solved cold, the r=6 moment side ends optimal
    # in 14 interior-point steps; the ladder starts it from its SOS solution
    x = Polynomial.variable(1, 0)
    X = make_catalog_set("custom", n=1, inequalities=[(1 - x ** 2) ** 3])
    report = run_ladder(1 - x ** 2, X, "Q", (3, 4, 5, 6), SolveOptions(tol=1e-7))
    assert len(report.results) == 8
    for res in report.results:
        assert res.status == "optimal", (res.level, res.side, res.iterations)
        assert res.value == pytest.approx(-1.0 / (res.level * (res.level - 2)), abs=1e-6)


def _same_program(a, b):
    return (a.blocks == b.blocks and np.array_equal(a.c, b.c) and np.array_equal(a.b, b.b)
            and all(np.array_equal(getattr(a.A, name), getattr(b.A, name))
                    for name in ("data", "indices", "indptr")))


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("certificate", ["T", "Q"])
@pytest.mark.parametrize("r", [2, 3, 4])
def test_sphere_programs_leave_out_the_ball_block(n, certificate, r):
    # the equality's shift rows force the redundant ball's localizing matrix
    # to zero, so the level is the program of the equality alone
    S = make_catalog_set("sphere", n=n, R=1.0)
    alone = make_catalog_set("custom", n=n, equalities=S.equalities)
    f = Polynomial.from_pairs(n, [[[1] + [0] * (n - 1), 1.0], [[0] * (n - 1) + [3], -0.5]])
    mom = build_moment_relaxation(f, S, certificate, r)
    assert [spec.label for spec in mom.psd_specs] == ["1"]
    assert _same_program(mom.program, build_moment_relaxation(f, alone, certificate, r).program)
    assert _same_program(build_sos_relaxation(f, S, certificate, r).program,
                         build_sos_relaxation(f, alone, certificate, r).program)


def test_reduced_sphere_program_keeps_the_ball_block():
    mom = build_moment_relaxation(Polynomial.variable(2, 0), SPHERE, "R", 3)
    assert [spec.label for spec in mom.psd_specs] == ["1", "g1"]
    assert [blk.size for blk in mom.program.blocks if blk.kind == "psd"] == [10, 6]


CUBIC = Polynomial(2, {(0, 0): 1.0, (3, 0): -1.0, (0, 2): -1.0})
CUBIC_SET = make_catalog_set("custom", n=2, equalities=[CUBIC], inequalities=[
    CUBIC, Polynomial(2, {(0, 0): 1.0, (1, 0): 1.0})])


def test_forced_zero_rule_reads_the_degree_of_the_equality_rows(caplog):
    # h = 1 - x1^3 - x2^2 has half degree 2, so at r=2 its rows are the one
    # scalar l_y(h) = 0: they force the order-0 block l_y(h) to zero, but
    # not l_y(h g'), which reaches degree 4
    with caplog.at_level("DEBUG", logger="momentlab"):
        mom = build_moment_relaxation(Polynomial.variable(2, 1), CUBIC_SET, "T", 2)
    assert [spec.label for spec in mom.psd_specs] == ["1", "g2", "g1*g2"]
    assert [blk.size for blk in mom.program.blocks] == [15, 6, 3, 1]
    (record,) = [rec for rec in caplog.records if rec.name == "momentlab"]
    assert "left out g1 (forced zero by h1)" in record.getMessage()
    quiet = build_moment_relaxation(Polynomial.variable(2, 1), CUBIC_SET, "T", 2)
    assert _same_program(mom.program, quiet.program)


@pytest.mark.parametrize("X, certificate, r", [
    (make_catalog_set("sphere", n=2, R=1.0), "T", 3),
    (make_catalog_set("sphere", n=2, R=2.0), "Q", 4),
    (make_catalog_set("sphere", n=3, R=1.0), "T", 3),
    (CUBIC_SET, "T", 2),
    (CUBIC_SET, "Q", 3),
])
def test_no_assembled_block_lies_in_the_span_of_the_equality_rows(X, certificate, r):
    # a block whose rows the equality rows span is zero on every feasible y;
    # dense ranks tell the blocks the builder keeps from those it leaves out
    mom = build_moment_relaxation(Polynomial.variable(X.n, 0), X, certificate, r)
    n_y = mom.y_slice.stop
    A = mom.program.A.toarray()
    ends = 1 + np.cumsum([0] + [blk.scalar_len for blk in mom.program.blocks[1:]])
    E = A[ends[-1]:, :n_y]  # the rows S_h y = 0
    rank = np.linalg.matrix_rank(E)
    for spec, lo, hi in zip(mom.psd_specs, ends[:-1], ends[1:]):
        assert np.linalg.matrix_rank(np.vstack([E, A[lo:hi, :n_y]])) > rank, spec.label
    kept = {spec.label for spec in mom.psd_specs}
    for spec in preordering_products(X, r, kind=certificate):
        if spec.constraint_kind == "psd" and spec.label not in kept:
            L = localizing_operator(spec.weight, spec.matrix_order, 2 * r).toarray()
            assert np.linalg.matrix_rank(np.vstack([E, L])) == rank, spec.label


def test_run_ladder_logs_one_event_per_level(caplog):
    x1, x2 = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    f = x1 ** 3 - x1 * x2 + x2 ** 4 + 0.3 * x2
    X = make_catalog_set("sphere", n=2, R=1.0)
    quiet = run_ladder(f, X, "R", (2, 3))
    with caplog.at_level("DEBUG", logger="momentlab"):
        logged = run_ladder(f, X, "R", (2, 3))
        alone = run_ladder(f, X, "R", (2,), sides=("moment",))
    events = [rec.getMessage() for rec in caplog.records
              if rec.name == "momentlab" and rec.getMessage().startswith("ladder")]
    assert len(events) == 3
    for event, r, (moment, sos) in zip(events, (2, 3), zip(logged.results[::2],
                                                           logged.results[1::2])):
        assert event.startswith(f"ladder R r={r} on sphere(n=2,R=1): moment optimal after 0 "
                                f"iterations in ")
        assert f"; sos optimal after {sos.iterations} iterations in " in event
        assert event.endswith("; moment start accepted at iteration 0")
    (row,) = alone.results
    assert events[2].startswith(f"ladder R r=2 on sphere(n=2,R=1): moment optimal after "
                                f"{row.iterations} iterations in ")
    assert events[2].endswith("; moment start none")
    for before, after in zip(quiet.results, logged.results):
        assert (before.value, before.status, before.iterations) == (
            after.value, after.status, after.iterations)
