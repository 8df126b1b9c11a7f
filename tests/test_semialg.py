import numpy as np
import pytest

from momentlab import semialg
from momentlab.polycore import Polynomial, eval_poly, monomial_basis
from momentlab.semialg import (
    FEASIBILITY_TOL,
    SemiAlgebraicSet,
    SimpleSetProduct,
    archimedean_augment,
    make_catalog_set,
    rejection_sample,
    sampled_extremum,
    violation,
    violation_many,
)


def test_ball_catalog():
    X = make_catalog_set("ball", n=1, R=1.0)
    (g,) = X.inequalities
    assert g == Polynomial(1, {(0,): 1.0, (2,): -1.0})
    assert X.radius == 1.0


def test_sphere_catalog():
    X = make_catalog_set("sphere", n=2, R=1.0)
    (h,) = X.equalities
    assert h == Polynomial(2, {(0, 0): 1.0, (2, 0): -1.0, (0, 2): -1.0})
    assert len(X.inequalities) == 1  # redundant ball kept for uniform certificates


def test_simplex_catalog():
    # canonical description straight from the scaled-simplex definition
    X = make_catalog_set("simplex", n=2, K=1.0)
    assert len(X.inequalities) == 3
    assert violation(X, [0.2, 0.3]) == 0.0
    assert violation(X, [0.8, 0.8]) > 0.0


def test_polytope_catalog_and_hint():
    X = make_catalog_set("polytope", A=[[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]],
                         b=[1.0, 1.0, 0.0, 0.0])
    assert X.lojasiewicz_hint.exponent == 1.0
    assert violation(X, [0.5, 0.5]) == 0.0
    assert violation(X, [1.5, 0.5]) == pytest.approx(0.5)
    lo, hi = X.bounding_box()
    assert np.allclose(lo, [0, 0]) and np.allclose(hi, [1, 1])


def test_empty_polytope_warns_not_rejects():
    with pytest.warns(UserWarning, match="empty"):
        make_catalog_set("polytope", A=[[1.0], [-1.0]], b=[-1.0, -1.0])


def test_violation_examples():
    ball = make_catalog_set("ball", n=1, R=1.0)
    assert violation(ball, [0.0]) == 0.0
    assert violation(ball, [2.0]) == pytest.approx(3.0)
    sphere = make_catalog_set("sphere", n=2, R=1.0)
    assert violation(sphere, [0.6, 0.0]) == pytest.approx(0.64)


def test_archimedean_augment():
    X = make_catalog_set("polytope", A=[[-1.0], [1.0]], b=[0.0, 1.0])  # [0, 1]
    Y = archimedean_augment(X, 2.0)
    assert Y.radius == 2.0
    added = Y.inequalities[-1]
    assert added == Polynomial(1, {(0,): 4.0, (2,): -1.0})
    # idempotent on a ball that already carries its own radius constraint
    B = make_catalog_set("ball", n=1, R=1.0)
    B2 = archimedean_augment(B, 1.0)
    assert B2.inequalities == B.inequalities


def test_augment_preserves_violation_inside_ball():
    X = make_catalog_set("simplex", n=2, K=1.0)
    Y = archimedean_augment(X, 1.0)
    rng = np.random.default_rng(0)
    pts = rng.uniform(-1, 1, size=(200, 2))
    pts = pts[np.sum(pts**2, axis=1) <= 1.0]
    assert np.allclose(violation_many(X, pts), violation_many(Y, pts))


def test_augment_sphere_membership_sampled():
    # derived oracle: membership of the augmented sphere equals the original
    # on a large sample
    S = make_catalog_set("sphere", n=2, R=1.0)
    S2 = archimedean_augment(S, 1.0)
    rng = np.random.default_rng(1)
    pts = rng.uniform(-1.5, 1.5, size=(10000, 2))
    before = violation_many(S, pts) <= 1e-12
    after = violation_many(S2, pts) <= 1e-12
    assert np.array_equal(before, after)


def test_max_half_degree():
    X = make_catalog_set("simplex", n=2, K=1.0)
    assert X.max_half_degree == 1
    Y = archimedean_augment(X, 1.0)
    assert Y.max_half_degree == 1
    Z = make_catalog_set("custom", n=1,
                         inequalities=[Polynomial(1, {(0,): 1.0, (4,): -1.0})])
    assert Z.max_half_degree == 2


def test_radius_invariant_enforced():
    with pytest.raises(ValueError, match="radius"):
        SemiAlgebraicSet(n=1, inequalities=(), radius=1.0)


def test_box_product():
    X = make_catalog_set("box_product", factors=[("ball", 1, 1.0), ("ball", 1, 1.0)])
    assert X.n == 2
    assert len(X.inequalities) == 2
    assert violation(X, [0.9, -0.9]) == 0.0
    assert violation(X, [1.1, 0.0]) > 0


def test_simple_set_product_scaling_warning():
    P = SimpleSetProduct((("ball", 1, 0.5),))
    with pytest.warns(UserWarning, match="scale"):
        P.check_scaling_convention()


def test_rejection_sampler_points_are_members():
    X = make_catalog_set("simplex", n=2, K=1.0)
    pts = rejection_sample(X, 1000, seed=3)
    assert pts.shape == (1000, 2)
    assert np.all(violation_many(X, pts) <= 1e-12)


def test_rejection_sampler_on_sphere():
    S = make_catalog_set("sphere", n=2, R=1.0)
    pts = rejection_sample(S, 50, seed=4)
    assert np.all(np.abs(np.sum(pts**2, axis=1) - 1.0) < 1e-7)


@pytest.mark.parametrize("n", [2, 3])
def test_batched_projection_onto_sphere(n):
    S = make_catalog_set("sphere", n=n, R=1.0)
    rng = np.random.default_rng(n)
    pts = np.vstack([np.zeros(n), rng.uniform(-1.0, 1.0, size=(40, n)), np.zeros(n)])
    z = semialg._project_batch(S, pts)
    viol = violation_many(S, z)
    inner = slice(1, -1)
    assert np.all(viol[inner] <= 1e-9)
    # on the sphere the Gauss-Newton step is radial: it lands on the nearest point
    radial = pts[inner] / np.linalg.norm(pts[inner], axis=1, keepdims=True)
    np.testing.assert_allclose(z[inner], radial, atol=1e-12)
    # the gradient of 1 - |x|^2 vanishes at the origin: Gauss-Newton cannot
    # move those rows, and the sampler rejects them
    assert viol[0] > 1e-9 and viol[-1] > 1e-9


def test_rejection_sampler_half_circle_has_no_endpoint_pile_up():
    # upper half circle: projection onto the circle ignores x2 >= 0, so the
    # points it lands on the lower half are rejected, not moved to (+-1, 0)
    circle = make_catalog_set("sphere", n=2, R=1.0)
    half = SemiAlgebraicSet(n=2, equalities=circle.equalities,
                            inequalities=(Polynomial.variable(2, 1),),
                            box=(-np.ones(2), np.ones(2)), name="half circle")
    pts = rejection_sample(half, 1000, seed=0)
    assert np.all(violation_many(half, pts) <= 1e-9)
    assert not np.any(pts[:, 1] < 1e-6)


@pytest.mark.parametrize("n", [2, 3])
def test_rejection_sampler_sphere_count_and_seed(n):
    S = make_catalog_set("sphere", n=n, R=1.0)
    pts = rejection_sample(S, 300, seed=11)
    assert pts.shape == (300, n)
    assert np.all(violation_many(S, pts) <= 1e-9)
    np.testing.assert_array_equal(pts, rejection_sample(S, 300, seed=11))
    assert not np.array_equal(pts, rejection_sample(S, 300, seed=12))


@pytest.mark.parametrize("X", [make_catalog_set("sphere", n=2), make_catalog_set("simplex", n=2)],
                         ids=["circle", "simplex2"])
def test_rejection_sampler_count_only_truncates(X):
    # batches continue one stream of draws and each point is projected on
    # its own, so the batch size cannot change which points come first
    for seed in (0, 5):
        short = rejection_sample(X, 32, seed)
        assert short.tobytes() == rejection_sample(X, 300, seed)[:32].tobytes()


def test_rejection_sampler_returns_a_shortfall():
    # the box [0, 1]^6 holds the 6-simplex with odds 1/720: the draw budget
    # keeps a few hundred points, which are returned rather than refused
    X = make_catalog_set("simplex", n=6)
    pts = rejection_sample(X, 4096, seed=0)
    assert 1 <= len(pts) < 4096
    assert np.all(violation_many(X, pts) <= FEASIBILITY_TOL)
    outside = SemiAlgebraicSet(n=1, inequalities=(Polynomial(1, {(1,): 1.0, (0,): -2.0}),),
                               box=(-np.ones(1), np.ones(1)), name="x >= 2")
    with pytest.raises(RuntimeError, match="starvation"):
        rejection_sample(outside, 8, seed=0)


@pytest.mark.parametrize("kind, params", [("sphere", {"n": 2}), ("sphere", {"n": 3}),
                                          ("ball", {"n": 3}), ("simplex", {"n": 2})])
def test_local_extremum_restores_each_point_once(kind, params, monkeypatch):
    # a failed line search used to restart a quarter lower and restore 28 of
    # its 30 trial points again, and steps below an ulp gave best_x again
    X = make_catalog_set(kind, **params)
    restored = []

    def recorder(X, x, *args, **kwargs):
        restored.append(np.asarray(x, dtype=float).tobytes())
        return original(X, x, *args, **kwargs)

    original = semialg.restore_feasibility
    monkeypatch.setattr(semialg, "restore_feasibility", recorder)
    rng = np.random.default_rng(4)
    starts = rejection_sample(X, 3, seed=2)
    for degree in (2, 3, 4):
        basis = monomial_basis(X.n, degree)
        f = Polynomial.from_vector(basis, rng.normal(size=len(basis)))
        for x0 in starts:
            for maximize in (True, False):
                restored.clear()
                assert semialg.local_extremum(f, X, x0, maximize=maximize) is not None
                assert len(restored) > 1
                assert len(set(restored)) == len(restored)


@pytest.mark.parametrize("maximize", [True, False])
def test_sampled_extremum_of_a_linear_form_on_the_circle(maximize):
    S = make_catalog_set("sphere", n=2, R=1.0)
    c = np.array([0.6, -1.7])
    f = Polynomial(2, {(1, 0): c[0], (0, 1): c[1]})
    value, point = sampled_extremum(f, S, rejection_sample(S, 64, seed=5), 4, maximize)
    sign = 1.0 if maximize else -1.0
    assert value == pytest.approx(sign * np.linalg.norm(c), abs=1e-9)
    assert violation(S, point) <= FEASIBILITY_TOL
    assert f(point) == pytest.approx(value, abs=1e-12)


def test_sampled_extremum_without_starts_is_the_pool_best():
    S = make_catalog_set("sphere", n=2, R=1.0)
    f = Polynomial(2, {(1, 0): 1.0, (1, 1): 2.0})
    pool = rejection_sample(S, 64, seed=6)
    vals = f.eval_many(pool)
    for maximize, best in ((True, vals.max()), (False, vals.min())):
        value, point = sampled_extremum(f, S, pool, 0, maximize)
        assert value == best
        assert any(np.array_equal(point, row) for row in pool)
