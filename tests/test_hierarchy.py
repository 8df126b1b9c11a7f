import numpy as np
import pytest

from momentlab.hierarchy import (
    HierarchyKind,
    LevelTooLowError,
    RelaxationResult,
    _monotonicity_check,
    build_moment_relaxation,
    build_sos_relaxation,
    certificate_extract,
    estimate_maximum,
    estimate_minimum,
    run_ladder,
    solve_relaxation,
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

    slices = sos.program.block_slices()
    kinds = [blk.kind for blk in sos.program.blocks]
    gram_cols = [sl for sl, kind in zip(slices, kinds) if kind == "psd"]
    nonneg = next((sl.start for sl, kind in zip(slices, kinds) if kind == "nonneg"), None)
    eq_cols = [loc if isinstance(loc, slice) else slice(nonneg + loc, nonneg + loc + 1)
               for _, loc in sos.tau_layout]
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


def test_estimate_minimum_ball():
    assert estimate_minimum(X_VAR, BALL1, seed=1) == pytest.approx(-1.0, abs=1e-7)
    f = Polynomial(1, {(4,): 1.0, (2,): -1.0})
    assert estimate_minimum(f, BALL1, seed=1) == pytest.approx(-0.25, abs=1e-7)
    assert estimate_maximum(X_VAR, BALL1, seed=1) == pytest.approx(1.0, abs=1e-7)


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
