import numpy as np
import pytest
import scipy.sparse as sp

from momentlab import sdpcore
from momentlab.hierarchy import (
    LevelTooLowError,
    build_moment_relaxation,
    build_sos_relaxation,
    solve_relaxation,
)
from momentlab.polycore import Polynomial, monomial_basis
from momentlab.sdpcore import (
    Block,
    ConicProgram,
    SolveOptions,
    Start,
    packed_indices,
    packed_weights,
    psd_project,
    smat,
    solve,
    svec,
)
from momentlab.semialg import make_catalog_set


def test_svec_isometry():
    rng = np.random.default_rng(0)
    for size in (1, 2, 5, 9):
        A = rng.normal(size=(size, size))
        A = A + A.T
        B = rng.normal(size=(size, size))
        B = B + B.T
        assert np.allclose(svec(A) @ svec(B), np.tensordot(A, B))
        assert np.allclose(smat(svec(A), size), A)


def test_psd_project_examples():
    assert np.allclose(psd_project(np.diag([2.0, -3.0])), np.diag([2.0, 0.0]))
    M = np.array([[2.0, 0.5], [0.5, 1.0]])
    assert np.allclose(psd_project(M), M)
    out = psd_project(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(out, 0.5 * np.ones((2, 2)))


def test_psd_project_requires_symmetry():
    with pytest.raises(ValueError, match="symmetric"):
        psd_project(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_psd_project_idempotent_and_lipschitz():
    rng = np.random.default_rng(1)
    for _ in range(100):
        size = int(rng.integers(2, 7))
        A = rng.normal(size=(size, size))
        A = A + A.T
        B = rng.normal(size=(size, size))
        B = B + B.T
        PA, PB = psd_project(A), psd_project(B)
        assert np.abs(psd_project(PA) - PA).max() <= 1e-9
        assert np.linalg.norm(PA - PB) <= np.linalg.norm(A - B) + 1e-9


def scalar_bound_program():
    # maximize c s.t. [1 - c] >= 0  <=>  min -c s.t. z = 1 - c, z psd(1)
    blocks = (Block("free", 1), Block("psd", 1))
    c = np.array([-1.0, 0.0])
    A = sp.csr_matrix(np.array([[1.0, 1.0]]))
    b = np.array([1.0])
    return ConicProgram(blocks, c, A, b)


def test_scalar_bound():
    sol = solve(scalar_bound_program())
    assert sol.status == "optimal"
    assert sol.primal_value == pytest.approx(-1.0, abs=1e-6)  # c* = 1
    assert sol.dual_value == pytest.approx(-1.0, abs=1e-6)


def sos_interval_program():
    """SOS level-1 lower bound for x on [-1, 1] with g = 1 - x^2.

    Variables: c free, G psd(2) over basis (1, x), sigma1 nonneg scalar.
    Coefficient matching of x - c = G00 + 2 G01 x + G11 x^2 + sigma1 (1 - x^2):
        deg 0:  G00 + sigma1 + c = 0
        deg 1:  2 G01 = 1
        deg 2:  G11 - sigma1 = 0
    """
    blocks = (Block("free", 1), Block("nonneg", 1), Block("psd", 2))
    # variable order: [c, sigma1, svec(G) = (G00, sqrt2 G01, G11)]
    c_vec = np.array([-1.0, 0.0, 0.0, 0.0, 0.0])
    s2 = np.sqrt(2.0)
    A = sp.csr_matrix(np.array([
        [1.0, 1.0, 1.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 2.0 / s2, 0.0],
        [0.0, -1.0, 0.0, 0.0, 1.0],
    ]))
    b = np.array([0.0, 1.0, 0.0])
    return ConicProgram(blocks, c_vec, A, b)


def test_sos_interval_bound_and_certificate():
    sol = solve(sos_interval_program(), SolveOptions(tol=1e-9))
    assert sol.status == "optimal"
    cval = sol.blocks[0][0]
    assert cval == pytest.approx(-1.0, abs=1e-6)
    # verify the SOS identity by coefficient expansion:
    # x - c* = G00 + 2 G01 x + G11 x^2 + s1 (1 - x^2)
    s1 = sol.blocks[1][0]
    G = sol.blocks[2]
    coeff0 = G[0, 0] + s1 + cval
    coeff1 = 2 * G[0, 1] - 1.0
    coeff2 = G[1, 1] - s1
    assert max(abs(coeff0), abs(coeff1), abs(coeff2)) < 1e-6
    assert np.linalg.eigvalsh(G).min() >= -1e-9


def moment_ball_program():
    """min y2 (i.e. x^2) over the level-1 moment relaxation on [-1, 1]:
    variables y = (y0, y1, y2) free, M = [[y0, y1], [y1, y2]] psd,
    localizing scalar L = y0 - y2 >= 0 as a psd(1) block, y0 = 1."""
    blocks = (Block("free", 3), Block("psd", 2), Block("nonneg", 1))
    s2 = np.sqrt(2.0)
    # variable order: [y0, y1, y2, svec(M)=(M00, s2*M01, M11), L]
    c_vec = np.array([0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0])
    rows = [
        # y0 = 1
        ([1.0, 0, 0, 0, 0, 0, 0], 1.0),
        # M00 - y0 = 0 ; M01 - y1 = 0 ; M11 - y2 = 0
        ([-1.0, 0, 0, 1.0, 0, 0, 0], 0.0),
        ([0, -1.0, 0, 0, 1.0 / s2, 0, 0], 0.0),
        ([0, 0, -1.0, 0, 0, 1.0, 0], 0.0),
        # L - (y0 - y2) = 0
        ([-1.0, 0, 1.0, 0, 0, 0, 1.0], 0.0),
    ]
    A = sp.csr_matrix(np.array([r for r, _ in rows]))
    b = np.array([v for _, v in rows])
    return ConicProgram(blocks, c_vec, A, b)


def test_moment_ball_min_x2():
    sol = solve(moment_ball_program(), SolveOptions(tol=1e-9))
    assert sol.status == "optimal"
    assert sol.primal_value == pytest.approx(0.0, abs=1e-6)


def test_weak_duality_and_residuals():
    sol = solve(sos_interval_program(), SolveOptions(tol=1e-9))
    # minimization form: primal >= dual - 10 tol
    assert sol.primal_value >= sol.dual_value - 1e-8
    assert sol.residuals.worst() <= 1e-9


def test_infeasible_certificate():
    # z psd(1) with z = -1 is infeasible
    blocks = (Block("psd", 1),)
    prog = ConicProgram(blocks, np.zeros(1), sp.csr_matrix(np.array([[1.0]])),
                        np.array([-1.0]))
    sol = solve(prog, SolveOptions(tol=1e-9, max_iters=20000))
    assert sol.status == "infeasible_certificate"
    y = sol.certificate_ray
    assert prog.b @ y < 0
    assert (prog.A.T @ y)[0] >= -1e-7


def test_warm_start_reuses_solution():
    prog = sos_interval_program()
    first = solve(prog, SolveOptions(tol=1e-9))
    second = solve(prog, SolveOptions(tol=1e-9), warm=first)
    assert second.status == "optimal"
    assert second.iterations <= first.iterations


def test_an_optimal_start_returns_at_iteration_zero():
    prog = sos_interval_program()
    opts = SolveOptions(tol=1e-9)
    first = solve(prog, opts)
    again = solve(prog, opts, first)
    assert first.status == again.status == "optimal"
    assert again.iterations == 0
    assert again.primal_value == first.primal_value
    assert np.array_equal(again.y, first.y)


def test_a_start_turned_down_gives_the_cold_solve():
    # a start that fails the stopping rule is dropped, so the solve is the
    # interior-point method's, bit for bit, whatever the start was
    circle = make_catalog_set("sphere", n=2, R=1.0)
    f = Polynomial.from_vector(monomial_basis(2, 2), np.arange(1.0, 7.0))
    prog = build_moment_relaxation(f, circle, "T", 2).program
    opts = SolveOptions(tol=1e-8)
    cold = solve(prog, opts)
    started = solve(prog, opts, Start(np.zeros(prog.num_vars), np.zeros(prog.num_rows)))
    assert started.status == cold.status
    assert started.iterations == cold.iterations
    assert np.array_equal(started.x, cold.x)
    assert np.array_equal(started.y, cold.y)


def small_lp():
    """minimize x0 + 2 x1 subject to x0 + x1 = 1, x >= 0: x = (1, 0), y = 1."""
    return ConicProgram((Block("nonneg", 2),), np.array([1.0, 2.0]),
                        sp.csr_matrix(np.ones((1, 2))), np.ones(1))


def free_and_psd3_program():
    """minimize <diag(1, 2, 3), X> subject to trace X = 1 and t = X00, with
    t free and X PSD of side 3."""
    A = np.array([[0.0, 1.0, 0.0, 0.0, 1.0, 0.0, 1.0], [1.0, -1.0, 0.0, 0.0, 0.0, 0.0, 0.0]])
    return ConicProgram((Block("free", 1), Block("psd", 3)),
                        np.array([0.0, 1.0, 0.0, 0.0, 2.0, 0.0, 3.0]), sp.csr_matrix(A),
                        np.array([1.0, 0.0]))


def assert_the_cold_solve(prog, start):
    opts = SolveOptions()
    cold = solve(prog, opts)
    started = solve(prog, opts, start)
    assert started.status == cold.status == "optimal"
    assert started.iterations == cold.iterations > 0
    assert np.array_equal(started.x, cold.x)
    assert np.array_equal(started.y, cold.y)
    assert started.primal_value == cold.primal_value
    assert started.dual_value == cold.dual_value
    return cold


def test_a_start_with_a_nan_dual_is_turned_down():
    # the dual-cone distance and Residuals.worst once dropped the NaN, and
    # this start came back optimal at iteration 0 with a NaN dual value
    assert_the_cold_solve(small_lp(), Start(np.array([1.0, 0.0]), np.array([np.nan])))


def test_a_start_with_a_nan_psd_entry_is_turned_down():
    # y passes the dual test; with the NaN at packed entry 2 (X02) the
    # projection raised LinAlgError, and at entry 1 (X01), which no row reads
    # and whose cost is 0, the start came back optimal with a NaN primal value
    prog = free_and_psd3_program()
    cold = solve(prog, SolveOptions())
    for entry in (1, 2):
        x = cold.x.copy()
        x[1 + entry] = np.nan
        assert_the_cold_solve(prog, Start(x, cold.y))


def test_a_start_that_fails_only_the_gap_is_turned_down():
    # y = 1 is dual feasible and x = (0.5, 0.5) primal feasible, but
    # c'x = 1.5 against b'y = 1: the start is turned down after its projection
    cold = assert_the_cold_solve(small_lp(), Start(np.array([0.5, 0.5]), np.array([1.0])))
    assert cold.iterations == 8


def test_solve_logs_its_route(caplog):
    lp = small_lp()
    repeated = ConicProgram((Block("nonneg", 3),), np.array([1.0, 2.0, 3.0]),
                            sp.csr_matrix(np.array([[1.0, 1.0, 1.0], [1.0, 1.0, 1.0],
                                                    [2.0, 2.0, 2.0]])),
                            np.array([1.0, 1.0, 2.0]))
    quiet = [solve(lp), solve(repeated)]
    with caplog.at_level("DEBUG", logger="momentlab"):
        logged = [solve(lp), solve(lp, warm=Start(np.array([1.0, 0.0]), np.array([1.0]))),
                  solve(repeated)]
    messages = [rec.getMessage() for rec in caplog.records if rec.name == "momentlab"]
    assert messages[0].startswith("solve 1 rows: interior point; optimal after 8 iterations")
    assert messages[1].startswith("solve 1 rows: start accepted at iteration 0; optimal after 0")
    # repeated rows make the Newton system singular at step 0
    assert messages[2].startswith("solve 3 rows: ADMM hand-off, interior point stopped by "
                                  "LinAlgError 'singular Newton system' at step 0; optimal")
    assert len(messages) == 3
    for before, after in zip(quiet, logged[::2]):
        assert np.array_equal(before.x, after.x) and np.array_equal(before.y, after.y)
        assert before.iterations == after.iterations


def test_options_are_validated():
    for bad in (dict(tol=0.0), dict(tol=-1.0), dict(tol=float("nan")),
                dict(tol=float("inf")), dict(max_iters=0)):
        with pytest.raises(ValueError):
            SolveOptions(**bad)


def test_dimension_validation():
    with pytest.raises(ValueError):
        ConicProgram((Block("free", 2),), np.zeros(3),
                     sp.csr_matrix(np.zeros((1, 2))), np.zeros(1))


def test_deterministic():
    a = solve(sos_interval_program(), SolveOptions(tol=1e-9))
    b = solve(sos_interval_program(), SolveOptions(tol=1e-9))
    assert a.primal_value == b.primal_value
    assert a.iterations == b.iterations


def test_random_programs_with_known_optimum():
    # primal-dual pairs built by construction: z* in K, s* in K* complementary,
    # b = A z*, c = A'y* + s*; then c'z* = b'y* and both are optimal
    rng = np.random.default_rng(7)
    for trial in range(5):
        sizes = [int(rng.integers(2, 5)) for _ in range(2)]
        blocks = tuple(Block("psd", s) for s in sizes) + (Block("nonneg", 3),)
        n = sum(b.scalar_len for b in blocks)
        m = int(rng.integers(3, 7))
        A = sp.csr_matrix(rng.normal(size=(m, n)))
        zs, ss = [], []
        for s in sizes:
            V = np.linalg.qr(rng.normal(size=(s, s)))[0]
            split = int(rng.integers(1, s))
            pos = np.abs(rng.normal(size=s)) + 0.5
            z_eig = np.where(np.arange(s) < split, pos, 0.0)
            s_eig = np.where(np.arange(s) < split, 0.0, pos)
            zs.append(svec((V * z_eig) @ V.T))
            ss.append(svec((V * s_eig) @ V.T))
        mask = rng.random(3) < 0.5
        w = np.abs(rng.normal(size=3)) + 0.5
        zs.append(np.where(mask, w, 0.0))
        ss.append(np.where(mask, 0.0, w))
        z_star = np.concatenate(zs)
        s_star = np.concatenate(ss)
        y_star = rng.normal(size=m)
        prog = ConicProgram(blocks, A.T @ y_star + s_star, A, A @ z_star)
        sol = solve(prog, SolveOptions(tol=1e-9))
        target = float(prog.c @ z_star)
        assert sol.status == "optimal"
        assert sol.primal_value <= target + 1e-6 * (1 + abs(target))
        assert sol.dual_value >= target - 1e-6 * (1 + abs(target))
        assert abs(sol.primal_value - target) <= 1e-5 * (1 + abs(target))


def test_with_objective_matches_a_fresh_program():
    p = moment_ball_program()
    c2 = np.array([0.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0])  # min x + x^2 on [-1, 1]
    cases = [(p, p.with_objective(c2), ConicProgram(p.blocks, c2, p.A, p.b))]
    # the same through a relaxation: x^4 - x^2, then x^3 + x, on [-1, 1] at Q, r=2
    X = make_catalog_set("ball", n=1, R=1.0)
    x = Polynomial.variable(1, 0)
    rel = build_moment_relaxation(x ** 4 - x ** 2, X, "Q", 2)
    swapped = rel.with_objective(x ** 3 + x)
    fresh = build_moment_relaxation(x ** 3 + x, X, "Q", 2)
    assert np.array_equal(swapped.program.c, fresh.program.c)
    cases.append((rel.program, swapped.program, fresh.program))
    opts = SolveOptions(tol=1e-9)
    for base, shared, fresh in cases:
        first = solve(base, opts)
        for a, b in ((solve(shared, opts), solve(fresh, opts)),
                     (solve(shared, opts, first), solve(fresh, opts, first))):
            assert np.array_equal(a.x, b.x)
            assert np.array_equal(a.y, b.y)
            assert (a.iterations, a.status) == (b.iterations, b.status)
            assert a.status == "optimal"
    with pytest.raises(ValueError, match="moment-side"):
        build_sos_relaxation(x ** 4 - x ** 2, X, "Q", 2).with_objective(x)
    with pytest.raises(LevelTooLowError):
        rel.with_objective(x ** 5)


def test_with_objective_equilibrates_once(monkeypatch):
    calls = []
    original = sdpcore._equilibrate

    def counting(program, *args, **kwargs):
        calls.append(program)
        return original(program, *args, **kwargs)

    monkeypatch.setattr(sdpcore, "_equilibrate", counting)
    p = moment_ball_program()
    rng = np.random.default_rng(2)
    for _ in range(3):
        c = np.zeros(p.num_vars)
        c[:3] = rng.normal(size=3)
        assert solve(p.with_objective(c), SolveOptions(tol=1e-8)).status == "optimal"
    assert len(calls) == 1


def unpacked(seg, size):
    """The symmetric matrix of a packed block: seg times the inverse
    weights, filled into both triangles."""
    rows, cols = packed_indices(size)
    vals = seg * (1.0 / packed_weights(size))
    M = np.zeros((size, size))
    M[rows, cols] = vals
    M[cols, rows] = vals
    return M


def reference_project(program, v):
    """Projection onto the blocks one at a time through np.linalg.eigh."""
    out = v.copy()
    for blk, sl in zip(program.blocks, program.block_slices()):
        if blk.kind == "psd":
            rows, cols = packed_indices(blk.size)
            w, V = np.linalg.eigh(unpacked(out[sl], blk.size))
            if w[0] < 0.0:
                P = (V * np.maximum(w, 0.0)) @ V.T
                out[sl] = P[rows, cols] / (1.0 / packed_weights(blk.size))
        elif blk.kind == "nonneg":
            out[sl] = np.maximum(out[sl], 0.0)
    return out


def reference_dist_dual_cone(program, v):
    worst = 0.0
    for blk, sl in zip(program.blocks, program.block_slices()):
        seg = v[sl]
        if blk.kind == "psd":
            w = np.linalg.eigvalsh(unpacked(seg, blk.size))
            worst = max(worst, float(np.linalg.norm(np.minimum(w, 0.0))))
        elif blk.kind == "nonneg":
            worst = max(worst, float(np.linalg.norm(np.minimum(seg, 0.0))))
        else:
            worst = max(worst, float(np.linalg.norm(seg)))
    return worst


def mixed_blocks_program():
    blocks = (Block("free", 2), Block("psd", 1), Block("nonneg", 3), Block("psd", 3),
              Block("psd", 6), Block("psd", 6), Block("psd", 10))
    n = sum(blk.scalar_len for blk in blocks)
    return ConicProgram(blocks, np.zeros(n), sp.csr_matrix(np.ones((1, n))), np.ones(1))


def test_cone_plan_projects_as_per_block_eigh():
    p = mixed_blocks_program()
    rng = np.random.default_rng(5)
    for _ in range(20):
        v = rng.normal(size=p.num_vars)
        assert np.array_equal(sdpcore._project(p, v), reference_project(p, v))
        assert sdpcore._dist_dual_cone(p, v) == reference_dist_dual_cone(p, v)
    # PSD blocks already in the cone come back bitwise unchanged, beside
    # projected ones
    for trial in range(4):
        v = rng.normal(size=p.num_vars)
        inside = []
        for j, (blk, sl) in enumerate(zip(p.blocks, p.block_slices())):
            if blk.kind == "psd" and (trial == 0 or j % 2 == 0):
                B = rng.normal(size=(blk.size, blk.size))
                v[sl] = svec(B @ B.T + np.eye(blk.size))
                inside.append(sl)
        out = sdpcore._project(p, v)
        assert np.array_equal(out, reference_project(p, v))
        for sl in inside:
            assert np.array_equal(out[sl], v[sl])
        assert sdpcore._dist_dual_cone(p, v) == reference_dist_dual_cone(p, v)


def test_cone_plan_raises_on_a_nan_block():
    blocks = (Block("free", 1), Block("psd", 3))
    p = ConicProgram(blocks, np.zeros(7), sp.csr_matrix(np.ones((1, 7))), np.ones(1))
    v = np.arange(7.0)
    v[3] = np.nan
    with pytest.raises(np.linalg.LinAlgError, match="Eigenvalues did not converge"):
        sdpcore._project(p, v)
    with pytest.raises(np.linalg.LinAlgError, match="Eigenvalues did not converge"):
        sdpcore._dist_dual_cone(p, v)


def reference_equilibrate(program, iters=8):
    """Ruiz equilibration by sparse diagonal products."""
    A = program.A.tocsc().astype(float)
    m, n = A.shape
    d_row = np.ones(m)
    d_col = np.ones(n)
    for _ in range(iters):
        rn = np.sqrt(abs(A).max(axis=1).toarray().ravel())
        rn[rn == 0] = 1.0
        A = sp.diags(1.0 / rn) @ A
        d_row /= rn
        cn = np.sqrt(abs(A).max(axis=0).toarray().ravel())
        cn[cn == 0] = 1.0
        for blk, sl in zip(program.blocks, program.block_slices()):
            if blk.kind == "psd":
                g = cn[sl]
                pos = g[g > 0]
                cn[sl] = np.exp(np.mean(np.log(pos))) if pos.size else 1.0
        A = A @ sp.diags(1.0 / cn)
        d_col /= cn
    return A.tocsr(), d_row, d_col


def test_equilibrate_on_the_csr_arrays_matches_the_diagonal_products():
    X = make_catalog_set("ball", n=2, R=1.0)
    x1, x2 = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    f = x1 ** 4 - x1 * x2 + 0.5 * x2 ** 3
    programs = [sos_interval_program(), moment_ball_program(), mixed_blocks_program()]
    programs += [build(f, X, cert, 3).program for build in
                 (build_moment_relaxation, build_sos_relaxation) for cert in ("T", "Q")]
    for program in programs:
        A, d_row, d_col = sdpcore._equilibrate(program)
        ref_A, ref_row, ref_col = reference_equilibrate(program)
        assert A.has_sorted_indices
        assert A.nnz == ref_A.nnz
        assert np.array_equal(A.toarray(), ref_A.toarray())
        assert np.array_equal(d_row, ref_row)
        assert np.array_equal(d_col, ref_col)


def test_repeated_rows_go_through_the_ridge(monkeypatch):
    # repeated rows make A A' singular. For x0 + x1 + x2 = 1 given three
    # times (once doubled) the unridged factorization raises; for the rows
    # v = 0.1 (1, 1, 1) and 3 v it returns a pivot of -7e-18. The ridge must
    # carry both.
    attempts = []
    original = sdpcore.spla.splu

    def counting(*args, **kwargs):
        attempts.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(sdpcore.spla, "splu", counting)
    A = sp.csr_matrix(np.array([[1.0, 1.0, 1.0], [1.0, 1.0, 1.0], [2.0, 2.0, 2.0]]))
    prog = ConicProgram((Block("nonneg", 3),), np.array([1.0, 2.0, 3.0]), A,
                        np.array([1.0, 1.0, 2.0]))
    opts = SolveOptions()
    sol = solve(prog, opts)
    assert len(attempts) > 1
    assert sol.status == "optimal"
    assert sol.primal_value == pytest.approx(1.0, abs=10 * opts.tol)

    attempts.clear()
    v = np.full(3, 0.1)
    _, lu = sdpcore._factor_gram(sp.csr_matrix(np.vstack([v, 3.0 * v])))
    assert len(attempts) > 1
    assert np.all(lu.U.diagonal() > 0.0)


def test_sparse_factor_solves_the_ball3_moment_gram():
    # Q, 3-ball, r=4: 841 rows and a 2%-dense A A'
    ball3 = make_catalog_set("ball", n=3, R=1.0)
    motzkin = Polynomial(3, {(4, 2, 0): 1.0, (2, 4, 0): 1.0, (2, 2, 2): -3.0,
                             (0, 0, 6): 1.0})
    program = build_moment_relaxation(motzkin, ball3, "Q", 4).program
    plan = program._interior
    A, AT, lu = plan.A, plan.AT, plan.gram_lu
    m = program.num_rows
    assert lu.L.nnz + lu.U.nnz < m * m / 10
    r = np.random.default_rng(3).normal(size=m)
    reference = np.linalg.solve((A @ AT).toarray(), r)
    assert np.linalg.norm(lu.solve(r) - reference) <= 1e-10 * np.linalg.norm(reference)


@pytest.fixture(scope="module")
def simplex_cubic_solves():
    # a degenerate level: the plain ADMM stalls on both sides for 100k
    # iterations; the interior-point method solves it
    x1, x2 = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    f = x1 ** 3 - x1 * x2 + x2 ** 4 + 0.3 * x2
    X = make_catalog_set("simplex", n=2, K=1.0)
    opts = SolveOptions(tol=1e-7, max_iters=5000)
    return opts, [solve_relaxation(build(f, X, "Q", 3), opts)
                  for build in (build_moment_relaxation, build_sos_relaxation)]


def test_simplex_cubic_case_is_optimal_within_5000_iterations(simplex_cubic_solves):
    _, ((moment_value, moment), (sos_value, sos)) = simplex_cubic_solves
    assert moment.status == "optimal"
    assert sos.status == "optimal"
    assert moment_value == pytest.approx(sos_value, abs=1e-5)


def test_iterations_count_map_evaluations_within_the_cap(simplex_cubic_solves):
    opts, solves = simplex_cubic_solves
    for _, sol in solves:
        assert 0 <= sol.iterations <= opts.max_iters


@pytest.mark.parametrize("r", [3, 4, 5])
def test_stengle_ladder_is_optimal_at_the_exact_value(r):
    # Stengle: f = 1 - x^2 on {(1 - x^2)^3 >= 0} = [-1, 1]; the Q bound at
    # level r is -1/(r(r-2)), reached only in the limit by the minimum 0
    x = Polynomial.variable(1, 0)
    X = make_catalog_set("custom", n=1, inequalities=[(1 - x ** 2) ** 3])
    opts = SolveOptions(tol=1e-7, max_iters=30000)
    for build in (build_moment_relaxation, build_sos_relaxation):
        value, sol = solve_relaxation(build(1 - x ** 2, X, "Q", r), opts)
        assert sol.status == "optimal"
        assert value == pytest.approx(-1.0 / (r * (r - 2)), abs=1e-5)


def test_stengle_r6_is_optimal_from_a_cold_start_on_both_sides():
    # the moment side alone ended at max_iters after 100k ADMM iterations;
    # the interior-point method reaches the level's value on both sides
    x = Polynomial.variable(1, 0)
    X = make_catalog_set("custom", n=1, inequalities=[(1 - x ** 2) ** 3])
    opts = SolveOptions(tol=1e-7)
    for build in (build_moment_relaxation, build_sos_relaxation):
        value, sol = solve_relaxation(build(1 - x ** 2, X, "Q", 6), opts)
        assert sol.status == "optimal"
        assert value == pytest.approx(-1.0 / 24.0, abs=1e-6)


def as_psd_of_side_one(program):
    """`program` with each nonnegative entry written as a PSD block of side 1."""
    blocks = []
    for blk in program.blocks:
        blocks += [Block("psd", 1)] * blk.size if blk.kind == "nonneg" else [blk]
    return ConicProgram(tuple(blocks), program.c, program.A, program.b)


def circle_r_sos_program():
    """The R certificate's SOS program on the circle at r = 3: one
    nonnegative multiplier of the squared equality."""
    x1, x2 = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    f = x1 ** 3 - x1 * x2 + x2 ** 4 + 0.3 * x2
    return build_sos_relaxation(f, make_catalog_set("sphere", n=2), "R", 3).program


@pytest.mark.parametrize("make, tol", [(small_lp, 1e-7), (circle_r_sos_program, 1e-9)],
                         ids=["small_lp", "circle-R3-sos"])
def test_a_nonneg_block_is_solved_as_psd_blocks_of_side_one(make, tol):
    program = make()
    assert any(blk.kind == "nonneg" for blk in program.blocks)
    opts = SolveOptions(tol=tol)
    sol, twin = solve(program, opts), solve(as_psd_of_side_one(program), opts)
    assert sol.status == twin.status == "optimal"
    assert sol.iterations == twin.iterations > 0
    assert np.array_equal(sol.x, twin.x)
    assert np.array_equal(sol.y, twin.y)


def test_the_interior_point_plan_holds_nonneg_entries_as_side_one_blocks():
    plan = small_lp()._interior
    assert [(grp.size, grp.count) for grp in plan.kept.groups] == [(1, 2)]
    assert plan.slack.groups == []
    assert plan.degree == 2


@pytest.mark.parametrize("part", ["c", "b", "A"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_program_data_that_is_not_finite_is_turned_down(part, value):
    lp = small_lp()
    data = {"c": lp.c.copy(), "b": lp.b.copy(), "A": lp.A.toarray()}
    data[part].flat[0] = value
    name = {"c": "objective c", "b": "right-hand side b", "A": "constraint matrix A"}[part]
    with pytest.raises(ValueError, match=f"^{name} has an entry that is not finite$"):
        ConicProgram(lp.blocks, data["c"], sp.csr_matrix(data["A"]), data["b"])
    with pytest.raises(ValueError, match="^objective c has an entry"):
        lp.with_objective(np.array([value, 1.0]))
