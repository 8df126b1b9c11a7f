import numpy as np
import pytest

from momentlab import semialg
from momentlab.polycore import Polynomial, eval_poly
from momentlab.semialg import (
    SemiAlgebraicSet,
    SimpleSetProduct,
    archimedean_augment,
    make_catalog_set,
    rejection_sample,
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


def _count_fallbacks(monkeypatch):
    """Record the start point of every SLSQP fallback projection."""
    starts = []
    slsqp = semialg._project_to_equalities

    def counted(X, x0):
        starts.append(np.array(x0))
        return slsqp(X, x0)

    monkeypatch.setattr(semialg, "_project_to_equalities", counted)
    return starts


@pytest.mark.parametrize("n", [2, 3])
def test_batched_projection_onto_sphere(n, monkeypatch):
    S = make_catalog_set("sphere", n=n, R=1.0)
    rng = np.random.default_rng(n)
    pts = np.vstack([np.zeros(n), rng.uniform(-1.0, 1.0, size=(40, n)), np.zeros(n)])
    starts = _count_fallbacks(monkeypatch)
    z = semialg._project_batch(S, pts, 1e-9)
    # the gradient of 1 - |x|^2 vanishes only at the origin: Gauss-Newton
    # cannot move those rows, so they alone go to SLSQP
    assert len(starts) == 2
    assert not np.any(starts)
    viol = violation_many(S, z)
    inner = slice(1, -1)
    assert np.all(viol[inner] <= 1e-9)
    # on the sphere the Gauss-Newton step is radial: it lands on the nearest point
    radial = pts[inner] / np.linalg.norm(pts[inner], axis=1, keepdims=True)
    np.testing.assert_allclose(z[inner], radial, atol=1e-12)
    # SLSQP cannot move the origin either; the sampler rejects such rows
    assert viol[0] > 1e-9 and viol[-1] > 1e-9


def test_batched_projection_falls_back_for_violated_inequalities(monkeypatch):
    # upper half circle: Gauss-Newton lands points of the lower half on the
    # circle but outside x2 >= 0, and SLSQP projects them with the inequality
    circle = make_catalog_set("sphere", n=2, R=1.0)
    half = SemiAlgebraicSet(n=2, equalities=circle.equalities,
                            inequalities=(Polynomial.variable(2, 1),),
                            box=(-np.ones(2), np.ones(2)), name="half circle")
    pts = np.array([[0.3, -0.5], [0.2, 0.6], [-0.8, -0.1], [0.5, 0.5]])
    starts = _count_fallbacks(monkeypatch)
    z = semialg._project_batch(half, pts, 1e-9)
    np.testing.assert_array_equal(np.array(starts), pts[[0, 2]])
    assert np.all(violation_many(half, z) <= 1e-9)
    np.testing.assert_allclose(z[[0, 2]], [[1.0, 0.0], [-1.0, 0.0]], atol=1e-7)


@pytest.mark.parametrize("n", [2, 3])
def test_rejection_sampler_sphere_count_and_seed(n):
    S = make_catalog_set("sphere", n=n, R=1.0)
    pts = rejection_sample(S, 300, seed=11)
    assert pts.shape == (300, n)
    assert np.all(violation_many(S, pts) <= 1e-9)
    np.testing.assert_array_equal(pts, rejection_sample(S, 300, seed=11))
    assert not np.array_equal(pts, rejection_sample(S, 300, seed=12))
