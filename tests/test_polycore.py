import itertools

import numpy as np
import pytest

from momentlab.polycore import (
    CompiledPoly,
    MonomialBasis,
    Polynomial,
    SingularMatrixError,
    compose_linear,
    count_monomials,
    enumerate_monomials,
    eval_poly,
    half_degree,
    l1_norm,
    monomial_label,
)


def brute_force_monomials(n, r):
    out = [a for a in itertools.product(range(r + 1), repeat=n) if sum(a) <= r]
    return len(out)


def test_enumerate_small_cases():
    b = enumerate_monomials(2, 2)
    assert b.exponents == ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))
    assert len(b) == 6 == count_monomials(2, 2)

    b1 = enumerate_monomials(1, 0)
    assert b1.exponents == ((0,),)


def test_enumerate_size_derived():
    # oracle: brute-force enumeration of all alpha with |alpha| <= 4
    assert brute_force_monomials(3, 4) == 35
    assert len(enumerate_monomials(3, 4)) == 35


@pytest.mark.parametrize("n,r", [(1, 5), (2, 4), (3, 3), (4, 2)])
def test_index_round_trip(n, r):
    b = enumerate_monomials(n, r)
    for i in range(len(b)):
        assert b.index(b.monomial(i)) == i
    assert np.array_equal(b.positions(b.exponent_array), np.arange(len(b)))


def test_graded_order_is_total():
    b = enumerate_monomials(3, 4)
    degrees = [sum(a) for a in b.exponents]
    assert degrees == sorted(degrees)
    # within a degree, exponent tuples strictly decrease lexicographically
    for d in range(5):
        block = [a for a in b.exponents if sum(a) == d]
        assert block == sorted(block, reverse=True)


def test_l1_norm():
    f = Polynomial(1, {(2,): 1.0, (1,): -3.0})
    assert l1_norm(f) == 4.0
    assert l1_norm(Polynomial.zero(1)) == 0.0
    g = Polynomial(2, {(1, 1): 2.0, (1, 0): -1.0, (0, 0): 0.5})
    assert l1_norm(g) == 3.5


def test_half_degree():
    assert half_degree(Polynomial(1, {(3,): 1.0})) == 2
    assert half_degree(Polynomial(1, {(4,): 1.0})) == 2
    assert half_degree(Polynomial.constant(1, 7.0)) == 0
    assert half_degree(Polynomial.zero(2)) == 0


def test_eval():
    f = Polynomial(1, {(2,): 1.0, (1,): -3.0})
    assert eval_poly(f, [2.0]) == -2.0
    assert eval_poly(Polynomial.constant(3, 1.0), [9, 9, 9]) == 1.0
    g = Polynomial(2, {(1, 2): 1.0})
    assert eval_poly(g, [2.0, 3.0]) == 18.0
    with pytest.raises(ValueError):
        eval_poly(g, [1.0])


def test_eval_product_identity():
    rng = np.random.default_rng(0)
    b = enumerate_monomials(2, 3)
    for _ in range(20):
        f = Polynomial.from_vector(b, rng.normal(size=len(b)))
        g = Polynomial.from_vector(b, rng.normal(size=len(b)))
        x = rng.uniform(-1, 1, size=2)
        lhs = eval_poly(f * g, x)
        rhs = eval_poly(f, x) * eval_poly(g, x)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


def test_degree_additive():
    rng = np.random.default_rng(1)
    for _ in range(20):
        d1, d2 = rng.integers(0, 4, size=2)
        b1 = enumerate_monomials(2, int(d1))
        b2 = enumerate_monomials(2, int(d2))
        f = Polynomial.from_vector(b1, rng.normal(size=len(b1)))
        g = Polynomial.from_vector(b2, rng.normal(size=len(b2)))
        # force exact target degrees
        f = f + Polynomial.monomial(2, (int(d1), 0), 1.0)
        g = g + Polynomial.monomial(2, (0, int(d2)), 1.0)
        if f.terms and g.terms:
            assert (f * g).degree == f.degree + g.degree


def test_compose_linear_scaling_and_identity():
    f = Polynomial.variable(1, 0)
    assert compose_linear(f, np.array([[2.0]])) == Polynomial(1, {(1,): 2.0})
    g = Polynomial(1, {(2,): 1.0})
    assert compose_linear(g, np.eye(1)) == g


def test_compose_linear_permutation():
    f = Polynomial(2, {(1, 0): 1.0, (0, 1): 1.0})
    A = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert compose_linear(f, A) == f


def test_compose_linear_round_trip():
    rng = np.random.default_rng(2)
    b = enumerate_monomials(2, 3)
    A = np.array([[1.0, 0.5], [-0.25, 2.0]])
    for _ in range(5):
        f = Polynomial.from_vector(b, rng.normal(size=len(b)))
        back = compose_linear(compose_linear(f, A), A, inverse=True)
        for alpha in set(f.terms) | set(back.terms):
            assert abs(back.coefficient(alpha) - f.coefficient(alpha)) < 1e-10


def test_compose_linear_singular_raises():
    f = Polynomial.variable(2, 0)
    with pytest.raises(SingularMatrixError):
        compose_linear(f, np.array([[1.0, 1.0], [1.0, 1.0]]), inverse=True)


def test_no_zero_coefficients_stored():
    f = Polynomial(1, {(1,): 1.0}) - Polynomial(1, {(1,): 1.0})
    assert f.terms == {}
    assert f.degree == 0


def test_gradient():
    f = Polynomial(2, {(2, 1): 3.0})  # 3 x^2 y
    fx = f.diff(0)
    fy = f.diff(1)
    assert fx == Polynomial(2, {(1, 1): 6.0})
    assert fy == Polynomial(2, {(2, 0): 3.0})


def test_monomial_label():
    assert monomial_label((0, 0)) == "1"
    assert monomial_label((2, 1)) == "x1^2*x2"


def test_pairs_round_trip():
    f = Polynomial(2, {(2, 0): 1.0, (0, 1): -0.5})
    assert Polynomial.from_pairs(2, f.to_pairs()) == f


def test_eval_many_matches_pointwise():
    rng = np.random.default_rng(3)
    b = enumerate_monomials(3, 3)
    f = Polynomial.from_vector(b, rng.normal(size=len(b)))
    pts = rng.uniform(-1, 1, size=(17, 3))
    vals = f.eval_many(pts)
    for x, v in zip(pts, vals):
        assert abs(v - eval_poly(f, x)) < 1e-12


def _random_polynomial(rng, n, degree):
    basis = enumerate_monomials(n, degree)
    coeffs = rng.normal(size=len(basis)) * (rng.random(len(basis)) < 0.5)
    return Polynomial.from_vector(basis, coeffs)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_compiled_poly_matches_symbolic_derivatives(n):
    rng = np.random.default_rng(n)
    polys = [_random_polynomial(rng, n, d) for d in range(7)]
    polys += [Polynomial.zero(n), Polynomial.constant(n, -1.5)]
    compiled = CompiledPoly(n, polys)
    points = rng.uniform(-1.3, 1.3, size=(9, n))
    values, jac, hess = compiled.jet(points, 2)
    assert values.shape == (9, len(polys))
    assert jac.shape == (9, len(polys), n)
    assert hess.shape == (9, len(polys), n, n)
    np.testing.assert_array_equal(compiled(points), values)
    for k, p in enumerate(polys):
        np.testing.assert_allclose(values[:, k], p.eval_many(points), rtol=1e-12, atol=1e-12)
        for x, v, g, H in zip(points, values[:, k], jac[:, k], hess[:, k]):
            assert v == pytest.approx(eval_poly(p, x), rel=1e-12, abs=1e-12)
            np.testing.assert_allclose(g, [eval_poly(p.diff(i), x) for i in range(n)],
                                       rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(
                H, [[eval_poly(p.diff(i).diff(j), x) for j in range(n)] for i in range(n)],
                rtol=1e-12, atol=1e-11)
    # one point in, one point's shapes out; the sums may round differently
    single = compiled.jet(points[4], 2)
    for got, batch in zip(single, (values, jac, hess)):
        np.testing.assert_allclose(got, batch[4], rtol=1e-14, atol=1e-14)


def test_compiled_poly_points_do_not_depend_on_batch_mates():
    # a batch longer than one evaluation block: every point's outputs equal
    # those of the point alone, bit for bit, and jet_each gathers the
    # polynomial each point asks for
    rng = np.random.default_rng(5)
    polys = [_random_polynomial(rng, 2, d) for d in range(5)]
    compiled = CompiledPoly(2, polys)
    points = rng.uniform(-1.3, 1.3, size=(2500, 2))
    whole = compiled.jet(points, 2)
    which = rng.integers(len(polys), size=len(points))
    each = compiled.jet_each(points, which, 2)
    for i in rng.choice(len(points), 40, replace=False):
        for alone, batch in zip(compiled.jet(points[i], 2), whole):
            np.testing.assert_array_equal(alone, batch[i])
        for alone, batch in zip(compiled.jet_each(points[i:i + 1], which[i:i + 1], 2), each):
            np.testing.assert_array_equal(alone[0], batch[i])
        for got, full in zip(each, whole):
            np.testing.assert_allclose(got[i], full[i, which[i]], rtol=1e-14, atol=1e-14)


def test_compiled_poly_zero_constant_and_empty():
    zero = CompiledPoly(2, (Polynomial.zero(2), Polynomial.constant(2, 3.0)))
    v, g, H = zero.jet(np.array([0.7, -2.0]), 2)
    np.testing.assert_array_equal(v, [0.0, 3.0])
    np.testing.assert_array_equal(g, np.zeros((2, 2)))
    np.testing.assert_array_equal(H, np.zeros((2, 2, 2)))
    empty = CompiledPoly(3, ())
    assert empty(np.ones(3)).shape == (0,)
    assert empty.jet(np.ones((4, 3)))[1].shape == (4, 0, 3)


def test_compiled_poly_rejects_mismatched_dimensions():
    with pytest.raises(ValueError, match="dimension"):
        CompiledPoly(2, (Polynomial.variable(3, 0),))
    with pytest.raises(ValueError, match="dimension"):
        CompiledPoly(2, (Polynomial.variable(2, 0),))(np.ones(3))
