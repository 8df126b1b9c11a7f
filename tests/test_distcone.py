import numpy as np
import pytest

from momentlab.distcone import (
    CQCReport,
    InsufficientExteriorSamples,
    MomentConeSample,
    NonOptimalSolveError,
    cqc_check,
    distance_to_set,
    hausdorff_lower_bound,
    lipschitz_bound,
    lojasiewicz_fit,
    project_to_moment_set,
    sample_moment_cone,
    support_gap,
)
from momentlab.momentkit import TruncatedSequence
from momentlab.polycore import Polynomial
from momentlab.sdpcore import SolveOptions
from momentlab.semialg import make_catalog_set, violation_many

BALL1 = make_catalog_set("ball", n=1, R=1.0)
SPHERE = make_catalog_set("sphere", n=2, R=1.0)
ORIGIN = make_catalog_set("custom", n=1, equalities=[Polynomial.variable(1, 0)],
                          box=(np.array([-1.0]), np.array([1.0])), name="origin")
TIGHT = SolveOptions(tol=1e-9)


def test_sample_point_set():
    sample = sample_moment_cone(ORIGIN, 2, strategy="boundary-biased", count=8, seed=0)
    assert np.allclose(sample.atoms, 0.0, atol=1e-8)
    assert np.allclose(sample.vectors, np.array([1.0, 0.0, 0.0]), atol=1e-8)


def test_sample_grid_ball():
    sample = sample_moment_cone(BALL1, 2, strategy="grid", count=101, seed=0)
    assert sample.count == 101
    x = sample.atoms[:, 0]
    assert np.allclose(sample.vectors, np.stack([np.ones_like(x), x, x * x], axis=1))
    assert np.all(np.abs(x) <= 1.0)


def test_sample_sphere_boundary():
    sample = sample_moment_cone(SPHERE, 2, strategy="boundary-biased", count=32, seed=1)
    assert np.all(violation_many(SPHERE, sample.atoms) <= 1e-8)


def test_sample_sobol_members():
    X = make_catalog_set("simplex", n=2, K=1.0)
    sample = sample_moment_cone(X, 2, strategy="sobol", count=64, seed=2)
    assert np.all(violation_many(X, sample.atoms) <= 1e-9)


def test_projection_membership_and_outlier():
    sample = sample_moment_cone(BALL1, 2, strategy="grid", count=201, seed=0)
    # a genuine moment vector lies in the hull
    w = np.full(sample.count, 1.0 / sample.count)
    inside = TruncatedSequence(1, 2, sample.vectors.T @ w)
    res = project_to_moment_set(inside, sample)
    assert res.distance <= 1e-7
    assert res.kkt_residual <= 1e-8
    # y2 above the maximum of x^2 on the ball keeps distance >= 0.2
    outlier = TruncatedSequence(1, 2, [1.0, 0.0, 1.2])
    res2 = project_to_moment_set(outlier, sample)
    assert res2.distance >= 0.2 - 1e-9
    assert np.all(res2.weights >= 0)
    assert res2.weights.sum() == pytest.approx(1.0, abs=1e-12)


def test_projection_refinement_monotone():
    coarse = sample_moment_cone(BALL1, 2, strategy="grid", count=11, seed=0)
    fine = sample_moment_cone(BALL1, 2, strategy="grid", count=201, seed=0)
    y = TruncatedSequence(1, 2, [1.0, 0.3, 0.5])
    d_coarse = project_to_moment_set(y, coarse).distance
    d_fine = project_to_moment_set(y, fine).distance
    assert d_fine <= d_coarse + 1e-10


def test_origin_reduced_cone_projection():
    # the reduced encoding forces y = (1, 0, 0) which is the single moment vector
    sample = sample_moment_cone(ORIGIN, 2, strategy="boundary-biased", count=8, seed=0)
    y = TruncatedSequence(1, 2, [1.0, 0.0, 0.0])
    assert project_to_moment_set(y, sample).distance <= 1e-8


def test_support_gap_normalization_direction():
    c = np.zeros(3)
    c[0] = 1.0
    gap = support_gap(BALL1, "T", 1, 2, c, TIGHT, seed=0)
    assert abs(gap) <= 1e-6


def test_support_gap_e2_ball():
    c = np.zeros(3)
    c[2] = 1.0  # the x^2 coordinate
    gap = support_gap(BALL1, "T", 1, 2, c, TIGHT, seed=0)
    assert abs(gap) <= 1e-6


def test_support_gap_origin_reduced():
    c = np.zeros(3)
    c[2] = 1.0
    gap = support_gap(ORIGIN, "R", 1, 2, c, TIGHT, seed=0)
    assert abs(gap) <= 1e-7


def test_support_gap_nonnegative_invariant():
    rng = np.random.default_rng(3)
    for seed in range(3):
        c = rng.normal(size=3)
        gap = support_gap(BALL1, "T", 2, 2, c, TIGHT, seed=seed)
        assert gap >= -2e-7 * np.linalg.norm(c)


def test_hausdorff_single_direction_matches_support_gap():
    seed = 7
    rng = np.random.default_rng(seed)
    c = rng.normal(size=3)
    c /= np.linalg.norm(c)
    from momentlab.distcone import _feasible_pool

    pool = _feasible_pool(BALL1, seed)
    expected = support_gap(BALL1, "T", 2, 2, c, TIGHT, pool=pool)
    got = hausdorff_lower_bound(BALL1, "T", 2, 2, directions=1, seed=seed, opts=TIGHT)
    assert got == pytest.approx(expected, abs=1e-9)


def test_hausdorff_refuses_non_optimal_solve():
    capped = SolveOptions(tol=1e-9, max_iters=5)
    with pytest.raises(NonOptimalSolveError, match=r"r=2, direction 0: .*'max_iters'"):
        hausdorff_lower_bound(BALL1, "T", 2, 2, directions=3, seed=0, opts=capped)
    # a capped solve in direction -x^2 read -0.162, against 4.3e-12 when optimal
    with pytest.raises(NonOptimalSolveError, match=r"r=2: .*'max_iters'"):
        support_gap(BALL1, "T", 2, 2, np.array([0.0, 0.0, -1.0]), capped)


def test_lojasiewicz_interval():
    X = make_catalog_set("polytope", A=[[-1.0], [1.0]], b=[0.0, 1.0])
    fit = lojasiewicz_fit(X, (np.array([-0.5]), np.array([1.5])), count=120,
                          seed=0, starts=4)
    assert fit.exponent == pytest.approx(1.0, abs=0.05)
    assert fit.r_squared > 0.99


def test_lojasiewicz_double_root():
    Xsq = make_catalog_set("custom", n=1,
                           equalities=[Polynomial(1, {(2,): 1.0})],
                           box=(np.array([-1.0]), np.array([1.0])), name="x2=0")
    fit = lojasiewicz_fit(Xsq, (np.array([-1.0]), np.array([1.0])), count=120,
                          seed=1, starts=4)
    assert fit.exponent == pytest.approx(0.5, abs=0.05)


def test_lojasiewicz_sphere():
    fit = lojasiewicz_fit(SPHERE, (np.array([-1.5, -1.5]), np.array([1.5, 1.5])),
                          count=150, seed=2, starts=4)
    assert fit.exponent == pytest.approx(1.0, abs=0.05)


def test_lojasiewicz_needs_exterior_points():
    whole_line = make_catalog_set("custom", n=1, inequalities=[],
                                  box=(np.array([-1.0]), np.array([1.0])),
                                  name="R")
    with pytest.raises(InsufficientExteriorSamples):
        lojasiewicz_fit(whole_line, (np.array([-1.0]), np.array([1.0])), count=60)


def test_distance_to_set_interval():
    X = make_catalog_set("polytope", A=[[-1.0], [1.0]], b=[0.0, 1.0])
    assert distance_to_set(X, np.array([-0.3]), starts=4) == pytest.approx(0.3, abs=1e-6)
    assert distance_to_set(X, np.array([1.4]), starts=4) == pytest.approx(0.4, abs=1e-6)


def test_lipschitz_bound_examples():
    assert lipschitz_bound(1.0, 1, 1) == pytest.approx(1.0)
    assert lipschitz_bound(0.0, 3, 1) == pytest.approx(1.0)
    assert lipschitz_bound(2.0, 2, 1) == pytest.approx(np.sqrt(1.0 + 4.0 * 4.0))


def test_lipschitz_bound_dominates_grid():
    rng = np.random.default_rng(4)
    for n, k, R in [(1, 2, 2.0), (2, 2, 1.0), (2, 3, 1.5)]:
        bound = lipschitz_bound(R, k, n)
        from momentlab.polycore import monomial_basis

        basis = monomial_basis(n, k)
        worst = 0.0
        for _ in range(200):
            x = rng.uniform(-1, 1, size=n)
            x *= R / max(1.0, np.linalg.norm(x) / 1.0)
            if np.linalg.norm(x) > R:
                x *= R / np.linalg.norm(x)
            J = np.zeros((len(basis), n))
            for i, alpha in enumerate(basis.exponents):
                p = Polynomial.monomial(n, alpha)
                for j in range(n):
                    J[i, j] = p.diff(j)(x)
            worst = max(worst, np.linalg.norm(J, 2))
        assert bound >= worst - 1e-9


def test_cqc_ball_and_simplex():
    rep = cqc_check(BALL1, count=16, seed=0)
    assert rep.holds_on_sample
    assert rep.min_singular_value > 1.0  # gradient -2x has norm 2 on the boundary
    simplex = make_catalog_set("simplex", n=2, K=1.0)
    rep2 = cqc_check(simplex, count=24, seed=1)
    assert rep2.holds_on_sample


def test_cqc_degenerate():
    x2 = Polynomial(1, {(2,): 1.0})
    degenerate = make_catalog_set("custom", n=1, inequalities=[x2, -1.0 * x2],
                                  box=(np.array([-1.0]), np.array([1.0])),
                                  name="degenerate")
    rep = cqc_check(degenerate, count=8, seed=2)
    assert not rep.holds_on_sample
    assert rep.min_singular_value <= 1e-6


def test_cqc_rejects_equalities():
    with pytest.raises(ValueError):
        cqc_check(SPHERE)


def test_pseudo_moment_radius():
    # k = 2l = 2, n = 1, R = 1: sqrt(binom(2,1)) * (1 + 1) = 2 sqrt(2)
    from momentlab.distcone import pseudo_moment_radius

    assert pseudo_moment_radius(1.0, 1, 2) == pytest.approx(2.0 * np.sqrt(2.0))
    with pytest.raises(ValueError):
        pseudo_moment_radius(1.0, 1, 3)
    # true moment vectors of the R-ball stay inside the bound
    X = make_catalog_set("ball", n=2, R=1.5)
    sample = sample_moment_cone(X, 4, strategy="sobol", count=64, seed=5)
    norms = np.linalg.norm(sample.vectors, axis=1)
    assert norms.max() <= pseudo_moment_radius(1.5, 2, 4) + 1e-9


def test_support_pool_covers_the_circle():
    from momentlab.distcone import _feasible_pool, _support_over_set
    from momentlab.polycore import monomial_basis

    # box points miss the circle, so the whole pool is sampled on it; seed
    # 353062898 once gave a 256-point pool whose gap held the maximizer of
    # direction 11, and the support estimate fell 1.7e-3 short
    seed = 353062898
    pool = _feasible_pool(SPHERE, seed)
    assert pool.shape == (4096, 2)
    assert np.all(violation_many(SPHERE, pool) <= 1e-9)
    angles = np.sort(np.arctan2(pool[:, 1], pool[:, 0]))
    assert np.diff(np.r_[angles, angles[0] + 2 * np.pi]).max() < np.radians(2.0)
    t = np.linspace(0.0, 2.0 * np.pi, 200001)
    circle = np.stack([np.cos(t), np.sin(t)], axis=1)
    rng = np.random.default_rng(seed)
    for _ in range(12):
        c = rng.normal(size=6)
        p = Polynomial.from_vector(monomial_basis(2, 2), c / np.linalg.norm(c))
        assert _support_over_set(p, SPHERE, pool) == pytest.approx(
            p.eval_many(circle).max(), abs=1e-8)
