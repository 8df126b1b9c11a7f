import numpy as np
import pytest

from momentlab.momentkit import (
    DegreeOverflowError,
    DiscreteMeasure,
    TruncatedSequence,
    lift_sequence,
    lifted_domain,
    localizing_matrix,
    localizing_matrix_at_order,
    localizing_operator,
    max_spec_violation,
    moment_matrix,
    preordering_products,
    project_dimension,
    project_order,
    riesz_apply,
    sequence_from_measure,
    shift_operator,
    spec_matrix,
    sphere_quotient,
    sphere_radius_sq,
    transform_matrix,
    transform_sequence,
)
from momentlab.polycore import Polynomial, l1_norm, monomial_basis
from momentlab.sdpcore import packed_indices, svec
from momentlab.semialg import make_catalog_set


def dirac(point, k):
    mu = DiscreteMeasure(np.atleast_2d(point), [1.0])
    return sequence_from_measure(mu, k)


def test_riesz_examples():
    y = TruncatedSequence(1, 2, [1.0, 2.0, 4.0])
    f = Polynomial(1, {(2,): 1.0, (1,): -3.0})
    assert riesz_apply(y, f) == pytest.approx(-2.0)
    assert riesz_apply(y, Polynomial.constant(1, 1.0)) == 1.0
    y2 = TruncatedSequence(1, 2, [1.0, 0.0, 1.0])
    assert riesz_apply(y2, Polynomial.variable(1, 0)) == 0.0
    with pytest.raises(DegreeOverflowError):
        riesz_apply(y, Polynomial(1, {(3,): 1.0}))


def test_moment_matrix_examples():
    y = TruncatedSequence(1, 2, [1.0, 0.0, 1.0])
    assert np.allclose(moment_matrix(y, 1), np.eye(2))

    y0 = dirac([0.0, 0.0], 4)
    M = moment_matrix(y0, 2)
    E = np.zeros_like(M)
    E[0, 0] = 1.0
    assert np.allclose(M, E)

    yh = dirac([0.5], 4)
    M2 = moment_matrix(yh, 2)
    v = np.array([1.0, 0.5, 0.25])
    assert np.allclose(M2, np.outer(v, v))  # rank-1 outer product oracle
    s = np.linalg.svd(M2, compute_uv=False)
    assert s[1] <= 1e-9 * s[0]


def test_localizing_matrix_examples():
    y = TruncatedSequence(1, 2, [1.0, 0.0, 1.0])
    g = Polynomial(1, {(0,): 1.0, (2,): -1.0})
    L = localizing_matrix(y, g, 1)
    assert L.shape == (1, 1)
    assert L[0, 0] == pytest.approx(0.0)

    # mass-weighted outer product: M_t(g y) = sum_j w_j g(x_j) v_t v_t^T
    yh = dirac([0.5], 4)
    x = Polynomial.variable(1, 0)
    v1 = np.array([1.0, 0.5])
    assert np.allclose(localizing_matrix_at_order(yh, x, 1), 0.5 * np.outer(v1, v1))
    assert np.allclose(localizing_matrix(yh, x, 2), 0.5 * np.outer(v1, v1))

    one = Polynomial.constant(1, 1.0)
    assert np.allclose(localizing_matrix(yh, one, 2), moment_matrix(yh, 2))


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("t", [0, 1, 2])
def test_localizing_operator_matches_naive_loops(n, t):
    rng = np.random.default_rng(10 * n + t)
    order = 2 * t + 2
    full = monomial_basis(n, order)
    rows = monomial_basis(n, t)
    g = Polynomial.from_vector(monomial_basis(n, 2), rng.normal(size=len(monomial_basis(n, 2))))
    y = rng.normal(size=len(full))
    L = localizing_operator(g, t, order)

    M = np.zeros((len(rows), len(rows)))
    for i, ai in enumerate(rows.exponents):
        for j, aj in enumerate(rows.exponents):
            M[i, j] = sum(c * y[full.index(tuple(a + b + e for a, b, e in zip(ai, aj, gamma)))]
                          for gamma, c in g.terms.items())
    assert np.allclose(L @ y, svec(M), rtol=1e-12, atol=1e-12)

    # the SOS side reads the transpose: L' svec(G) = coefficients of g * v' G v
    G = rng.normal(size=M.shape)
    G = G + G.T
    vGv = sum((Polynomial.monomial(n, tuple(a + b for a, b in zip(ai, aj)), G[i, j])
               for i, ai in enumerate(rows.exponents) for j, aj in enumerate(rows.exponents)),
              Polynomial.zero(n))
    assert np.allclose(L.T @ svec(G), (g * vGv).coefficient_vector(full), rtol=1e-12, atol=1e-12)

    seq = TruncatedSequence(n, order, y)
    shifted = [riesz_apply(seq, g * Polynomial.monomial(n, d))
               for d in monomial_basis(n, 2 * t).exponents]
    assert np.allclose(shift_operator(g, 2 * t, order) @ y, shifted, rtol=1e-12, atol=1e-12)


def test_preordering_product_counts():
    two = make_catalog_set("custom", n=2, inequalities=[
        Polynomial(2, {(0, 0): 1.0, (2, 0): -1.0}),
        Polynomial(2, {(0, 0): 1.0, (0, 2): -1.0}),
    ])
    specs = preordering_products(two, 2, kind="T")
    assert len([s for s in specs if s.constraint_kind == "psd"]) == 4

    one = make_catalog_set("ball", n=1, R=1.0)
    assert len(preordering_products(one, 1, kind="T")) == 2

    three = make_catalog_set("custom", n=2, inequalities=[
        Polynomial(2, {(0, 0): 1.0, (2, 0): -1.0}),
        Polynomial(2, {(0, 0): 1.0, (0, 2): -1.0}),
        Polynomial(2, {(0, 0): 1.0, (1, 1): -1.0}),
    ])
    specs = preordering_products(three, 2, kind="T")
    # subsets J with ceil(g_J) <= 2 are the empty set, 3 singletons and
    # 3 pairs; the triple product has half-degree 3 and is silently filtered
    assert len(specs) == 7


def test_preordering_kinds_for_equalities():
    S = make_catalog_set("sphere", n=2, R=1.0)
    t_specs = preordering_products(S, 2, kind="T")
    assert any(s.constraint_kind == "zero" for s in t_specs)
    r_specs = preordering_products(S, 2, kind="R")
    assert any(s.constraint_kind == "scalar_zero" for s in r_specs)
    q_specs = preordering_products(S, 2, kind="Q")
    assert len([s for s in q_specs if s.constraint_kind == "psd"]) == 2


def test_products_cap():
    big = make_catalog_set("custom", n=1,
                           inequalities=[Polynomial.variable(1, 0)] * 7)
    with pytest.raises(ValueError, match="cap"):
        preordering_products(big, 3, kind="T")


def test_sequence_from_measure_examples():
    assert np.allclose(dirac([0.0], 4).values, [1, 0, 0, 0, 0])
    mu = DiscreteMeasure([[-1.0], [1.0]], [0.5, 0.5])
    assert np.allclose(sequence_from_measure(mu, 2).values, [1, 0, 1])
    mu3 = DiscreteMeasure([[0.0], [0.5], [1.0]], [1 / 3] * 3)
    assert np.allclose(sequence_from_measure(mu3, 2).values, [1.0, 0.5, 5.0 / 12.0])


def test_measure_localizing_psd():
    X = make_catalog_set("simplex", n=2, K=1.0)
    rng = np.random.default_rng(0)
    pts = rng.dirichlet([1.0, 1.0, 1.0], size=8)[:, :2]
    mu = DiscreteMeasure(pts, np.full(8, 1 / 8))
    y = sequence_from_measure(mu, 6)
    for spec in preordering_products(X, 3, kind="T"):
        M = spec_matrix(y, spec)
        assert np.linalg.eigvalsh(M).min() >= -1e-9


def test_project_order():
    y = TruncatedSequence(1, 2, [1.0, 2.0, 4.0])
    assert np.allclose(project_order(y, 0).values, [1.0])
    assert project_order(y, 2) == y
    yh = dirac([0.5], 4)
    assert np.allclose(project_order(yh, 2).values, [1.0, 0.5, 0.25])
    with pytest.raises(DegreeOverflowError):
        project_order(y, 3)


def test_project_dimension_dirac_marginal():
    y = dirac([0.3, -0.7], 4)
    marg = project_dimension(y, 1)
    assert np.allclose(marg.values, dirac([0.3], 4).values)


def test_project_dimension_product_measure():
    rng = np.random.default_rng(1)
    a = DiscreteMeasure(rng.uniform(-1, 1, (3, 1)), [0.2, 0.3, 0.5])
    b = DiscreteMeasure(rng.uniform(-1, 1, (2, 1)), [0.4, 0.6])
    atoms = np.array([[x[0], u[0]] for x in a.atoms for u in b.atoms])
    w = np.array([wa * wb for wa in a.weights for wb in b.weights])
    joint = sequence_from_measure(DiscreteMeasure(atoms, w), 4)
    marg = project_dimension(joint, 1)
    assert np.allclose(marg.values, sequence_from_measure(a, 4).values)


def test_lift_formula_values():
    # formula-level checks at t = 1 (below the PSD-guarantee threshold)
    X = make_catalog_set("custom", n=1,
                         inequalities=[Polynomial.variable(1, 0)], radius=1.0)
    y = dirac([0.5], 4)
    lifted = lift_sequence(y, X, strict=False)
    assert lifted.n == 3 and lifted.order == 2
    assert lifted.entry((1, 1, 0)) == pytest.approx(0.25)  # l_y(x * g1) with g1 = x

    B = make_catalog_set("ball", n=1, R=1.0)
    y2 = TruncatedSequence(1, 4, [1.0, 0.0, 1.0, 0.0, 1.0])
    lifted2 = lift_sequence(y2, B, strict=False)
    assert lifted2.entry((0, 1)) == pytest.approx(0.0)  # boundary measure kills 1 - x^2


def test_lift_alpha_zero_recovers_y():
    X = make_catalog_set("custom", n=1,
                         inequalities=[Polynomial.variable(1, 0)], radius=1.0)
    y = dirac([0.5], 8)
    lifted = lift_sequence(y, X)  # r = 4, d = 1, t = 2
    assert lifted.order == 4
    back = project_dimension(lifted, 1)
    assert np.allclose(back.values, project_order(y, 4).values)


def test_lift_degree_guard():
    X = make_catalog_set("ball", n=1, R=1.0)
    y = dirac([0.5], 4)
    with pytest.raises(DegreeOverflowError):
        lift_sequence(y, X)  # t = 1 < 2d = 2


def test_lifted_domain_shapes():
    X = make_catalog_set("custom", n=1,
                         inequalities=[Polynomial.variable(1, 0)], radius=1.0)
    dom = lifted_domain(X)
    # p0, two slacks, one cap; equalities u_j - g_j for both inequalities
    assert dom.phi_set.n == 3
    assert len(dom.cover.inequalities) == 4
    assert len(dom.phi_set.equalities) == 2
    assert dom.simplex_bound == pytest.approx(3.0)  # R^2d * (|x|_1 + |1 - x^2|_1)


def test_lift_lands_in_lifted_preordering():
    # a true measure sequence on X lifts to a feasible point of the lifted
    # relaxation: every product block stays PSD and equalities vanish
    X = make_catalog_set("custom", n=1,
                         inequalities=[Polynomial.variable(1, 0)], radius=1.0)
    rng = np.random.default_rng(2)
    atoms = rng.uniform(0, 1, size=(6, 1))
    mu = DiscreteMeasure(atoms, np.full(6, 1 / 6))
    y = sequence_from_measure(mu, 8)
    lifted = lift_sequence(y, X)
    dom = lifted_domain(X)
    specs = preordering_products(dom.phi_set, lifted.order // 2, kind="R")
    assert max_spec_violation(lifted, specs) <= 1e-9


def test_transform_pushforward():
    y = TruncatedSequence(1, 2, [1.0, 1.0, 1.0])
    out = transform_sequence(y, np.array([[2.0]]))
    assert np.allclose(out.values, [1.0, 2.0, 4.0])
    assert transform_sequence(y, np.eye(1)) == y


def test_transform_diagonal_action_on_basis_vectors():
    # scaling remark: the transform sends e_alpha to R^|alpha| e_alpha
    R = 2.0
    C = transform_matrix(2, 4, R * np.eye(2))
    basis = monomial_basis(2, 4)
    degrees = np.array([sum(a) for a in basis.exponents], dtype=float)
    assert np.allclose(C, np.diag(R ** degrees))


def test_transform_composition():
    rng = np.random.default_rng(3)
    A = np.array([[1.0, 0.3], [-0.2, 0.8]])
    B = np.array([[0.5, 0.0], [0.7, 1.1]])
    y = TruncatedSequence(2, 4, rng.normal(size=15))
    lhs = transform_sequence(y, A @ B)
    rhs = transform_sequence(transform_sequence(y, B), A)
    assert np.allclose(lhs.values, rhs.values, atol=1e-10)


def test_transform_is_pushforward_of_measures():
    rng = np.random.default_rng(4)
    atoms = rng.uniform(-1, 1, size=(5, 2))
    w = np.full(5, 0.2)
    A = np.array([[1.0, 0.5], [0.0, 2.0]])
    y = sequence_from_measure(DiscreteMeasure(atoms, w), 4)
    pushed = sequence_from_measure(DiscreteMeasure(atoms @ A.T, w), 4)
    assert np.allclose(transform_sequence(y, A).values, pushed.values, atol=1e-12)


def test_sequence_serialization_round_trip(tmp_path):
    y = dirac([0.5, -0.25], 2)
    assert TruncatedSequence.from_json(y.to_json()) == y
    path = tmp_path / "seq.csv"
    y.to_csv(path)
    header = path.read_text().splitlines()[0]
    assert header.split(",")[:4] == ["1", "x1", "x2", "x1^2"]


# ----------------------------------------------------------------------------
# the quotient by a centred sphere


def test_sphere_radius_sq_reads_multiples_of_a_centred_sphere():
    h = make_catalog_set("sphere", n=3, R=2.0).equalities[0]
    assert sphere_radius_sq(h) == 4.0
    assert sphere_radius_sq(-3.0 * h) == 4.0
    x1 = Polynomial.variable(3, 0)
    for other in (h + x1, h - 4.0, Polynomial(3, {(0, 0, 0): 1.0, (2, 0, 0): -1.0,
                                                   (0, 2, 0): -2.0, (0, 0, 2): -1.0}),
                  Polynomial(3, {(0, 0, 0): -1.0, (2, 0, 0): -1.0, (0, 2, 0): -1.0,
                                 (0, 0, 2): -1.0})):
        assert sphere_radius_sq(other) is None


@pytest.mark.parametrize("n, R", [(1, 2.0), (2, 1.0), (3, 2.0)])
def test_sphere_normal_form_agrees_with_the_polynomial_on_the_sphere(n, R):
    # NF(p) is p modulo R^2 - |x|^2: over the standard monomials (last
    # exponent at most 1), no higher in degree, and equal to p on the sphere
    Q = sphere_quotient(n, 6, R * R)
    basis = monomial_basis(n, 6)
    std = [basis.monomial(i) for i in Q.std]
    assert all(a[-1] <= 1 for a in std)
    assert len(std) == sum(a[-1] <= 1 for a in basis.exponents)
    assert [Q.size(t) for t in range(7)] == [sum(sum(a) <= t for a in std) for t in range(7)]
    rng = np.random.default_rng(n)
    p = Polynomial.from_vector(basis, rng.normal(size=len(basis)))
    nf = Polynomial(n, zip(std, Q.normal_form(p)))
    assert nf.degree <= p.degree
    pts = rng.normal(size=(20, n))
    pts *= R / np.linalg.norm(pts, axis=1, keepdims=True)
    np.testing.assert_allclose(nf.eval_many(pts), p.eval_many(pts), rtol=1e-12, atol=1e-10)
    # exact division by a multiple of the sphere's polynomial
    h = -2.0 * make_catalog_set("sphere", n=n, R=R).equalities[0]
    q, rem = Q.divide(p, h)
    assert all(a[-1] <= 1 for a in rem.terms)
    assert l1_norm(rem - nf) <= 1e-10
    assert l1_norm(q * h + rem - p) <= 1e-10


def test_sphere_localizing_rows_are_the_standard_rows_of_the_localizing_matrix():
    # M_t(g y) at the standard monomials' rows and columns, and the operator
    # on z is the same rows read through y = phi' z
    Q = sphere_quotient(2, 6, 1.0)
    g = Polynomial(2, {(0, 0): 0.5, (1, 0): 1.0, (0, 1): -2.0})
    t = 2
    y = TruncatedSequence(2, 6, np.random.default_rng(0).normal(size=28))
    M = localizing_matrix_at_order(y, g, t)[np.ix_(Q.std[:Q.size(t)], Q.std[:Q.size(t)])]
    np.testing.assert_allclose(Q.localizing_rows(g, t) @ y.values, svec(M), atol=1e-12)
    z = np.random.default_rng(1).normal(size=len(Q.std))
    np.testing.assert_allclose(Q.localizing_operator(g, t) @ z,
                               Q.localizing_rows(g, t) @ (Q.phi.T @ z), atol=1e-12)
    rows, _ = packed_indices(Q.size(t))
    assert Q.localizing_rows(g, t).shape == (len(rows), 28)
    with pytest.raises(DegreeOverflowError):
        Q.localizing_rows(g, 3)
