import numpy as np
import pytest
import scipy.linalg
from scipy import integrate

from momentlab import cdkernel, sdpcore
from momentlab.cdkernel import (
    KernelWeights,
    ReferenceMeasure,
    graded_decompose,
    harmonic_bound_coefficient,
    harmonic_constant_bound,
    joint_moment,
    kernel_eval,
    moment_sequence,
    operator_apply,
    operator_matrix,
    orthonormal_basis,
    reference_moments,
    upper_bound_kernel,
    upper_bound_sdp,
)
from momentlab.momentkit import riesz_apply
from momentlab.polycore import Polynomial, monomial_basis
from momentlab.sdpcore import SolveOptions
from momentlab.semialg import (
    FEASIBILITY_TOL,
    SemiAlgebraicSet,
    SimpleSetProduct,
    make_catalog_set,
    violation_many,
)

def coeff_dist(p, q):
    diff = p - q
    return max((abs(c) for c in diff.terms.values()), default=0.0)


BALL1 = ReferenceMeasure("ball", 1, 1.0)
PROD2 = SimpleSetProduct((("ball", 1, 1.0), ("ball", 1, 1.0)))
PROD3 = SimpleSetProduct((("ball", 1, 1.0), ("simplex", 2, 1.0), ("hypercube", 1, 1.0)))


# ----------------------------------------------------------------------------
# reference moments against adaptive quadrature


def test_ball_1d_moments_quadrature():
    norm, _ = integrate.quad(lambda x: (1 - x * x) ** -0.5, -1, 1)
    for a in range(9):
        want, _ = integrate.quad(lambda x: x ** a * (1 - x * x) ** -0.5, -1, 1)
        assert reference_moments("ball", 1, 1.0, (a,)) == pytest.approx(want / norm, abs=1e-10)
    assert reference_moments("ball", 1, 1.0, (2,)) == pytest.approx(0.5)
    assert reference_moments("ball", 1, 1.0, (0,)) == 1.0
    assert reference_moments("ball", 1, 1.0, (3,)) == 0.0


def test_ball_2d_moments_quadrature():
    def w(y, x):
        return (1 - x * x - y * y) ** -0.5

    def moment(ax, ay):
        val, _ = integrate.dblquad(
            lambda y, x: x ** ax * y ** ay * w(y, x), -1, 1,
            lambda x: -np.sqrt(max(0.0, 1 - x * x)) + 1e-12,
            lambda x: np.sqrt(max(0.0, 1 - x * x)) - 1e-12)
        return val

    norm = moment(0, 0)
    for ax, ay in [(2, 0), (0, 2), (2, 2), (4, 0)]:
        assert reference_moments("ball", 2, 1.0, (ax, ay)) == pytest.approx(
            moment(ax, ay) / norm, abs=1e-6)


def test_simplex_moments_quadrature():
    # n = 1 simplex with the Dirichlet(1/2,1/2) measure is arcsine on [0, 1]
    norm, _ = integrate.quad(lambda x: (x * (1 - x)) ** -0.5, 0, 1)
    for a in range(6):
        want, _ = integrate.quad(lambda x: x ** a * (x * (1 - x)) ** -0.5, 0, 1)
        assert reference_moments("simplex", 1, 1.0, (a,)) == pytest.approx(want / norm, abs=1e-9)

    def w2(y, x):
        return (x * y * (1 - x - y)) ** -0.5

    def moment2(ax, ay):
        val, _ = integrate.dblquad(lambda y, x: x ** ax * y ** ay * w2(y, x),
                                   1e-12, 1 - 1e-12, lambda x: 1e-12,
                                   lambda x: max(1e-12, 1 - x - 1e-12))
        return val

    norm2 = moment2(0, 0)
    for ax, ay in [(1, 0), (1, 1), (2, 0)]:
        assert reference_moments("simplex", 2, 1.0, (ax, ay)) == pytest.approx(
            moment2(ax, ay) / norm2, abs=1e-5)


def test_hypercube_moments_quadrature():
    norm, _ = integrate.quad(lambda x: (1 - x * x) ** -0.5, -1, 1)
    for a in range(8):
        want, _ = integrate.quad(lambda x: x ** a * (1 - x * x) ** -0.5, -1, 1)
        assert reference_moments("hypercube", 1, 1.0, (a,)) == pytest.approx(want / norm, abs=1e-10)
    assert reference_moments("hypercube", 2, 1.0, (2, 4)) == pytest.approx(0.5 * 3 / 8)


def test_scaled_moments():
    assert reference_moments("ball", 1, 2.0, (2,)) == pytest.approx(2.0)  # R^2 * 1/2
    assert reference_moments("simplex", 1, 3.0, (1,)) == pytest.approx(1.5)


def _check_cubature(measures, d, nodes, weights, domain):
    assert np.all(weights > 0.0)
    assert weights.sum() == pytest.approx(1.0, abs=1e-14)
    assert np.all(violation_many(domain, nodes) <= FEASIBILITY_TOL)
    mb = monomial_basis(nodes.shape[1], d)
    got = weights @ mb.evaluate(nodes)
    want = np.array([joint_moment(measures, a) for a in mb.exponents])
    # relative error; a zero moment is measured against the largest monomial
    # value on the domain, the scale to the power |alpha|
    scale = max(mu.scale for mu in measures) ** mb.exponent_array.sum(axis=1)
    assert np.all(np.abs(got - want) <= 1e-13 * np.where(want != 0.0, np.abs(want), scale))


@pytest.mark.parametrize("kind", ["ball", "simplex", "hypercube"])
@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("scale", [1.0, 2.0])
def test_cubature_reproduces_the_moments(kind, n, scale):
    mu = ReferenceMeasure(kind, n, scale)
    for d in (0, 1, 4, 9):
        _check_cubature((mu,), d, *mu.cubature(d), mu.domain())
    with pytest.raises(ValueError):
        mu.cubature(-1)


def test_product_cubature_reproduces_the_joint_moments():
    product = SimpleSetProduct((("ball", 1, 1.0), ("simplex", 2, 1.0)))
    measures = cdkernel.measures_for(product)
    for d in (0, 1, 4, 9):
        nodes, weights = cdkernel._tensor([mu.cubature(d) for mu in measures])
        _check_cubature(measures, d, nodes, weights, product.as_semialgebraic())


def test_unsupported_kind():
    with pytest.raises(ValueError):
        ReferenceMeasure("sphere", 2, 1.0)


# ----------------------------------------------------------------------------
# orthonormal bases


def test_chebyshev_basis_coefficients():
    kb = orthonormal_basis(BALL1, 2)
    s2 = np.sqrt(2.0)
    assert kb.polynomial(0) == Polynomial.constant(1, 1.0)
    p1 = kb.polynomial(1)
    assert p1.coefficient((1,)) == pytest.approx(s2)
    p2 = kb.polynomial(2)
    assert p2.coefficient((2,)) == pytest.approx(2 * s2)
    assert p2.coefficient((0,)) == pytest.approx(-s2)


def test_orthonormality_independent_route():
    # Gram recomputed through polynomial products and the exact moment oracle
    for measure, D in [(BALL1, 8), (PROD2, 4), (PROD3, 3)]:
        kb = orthonormal_basis(measure, D)
        y = moment_sequence(kb.measures, 2 * D)
        s = len(kb.basis)
        G = np.empty((s, s))
        polys = [kb.polynomial(i) for i in range(s)]
        for i in range(s):
            for j in range(i, s):
                G[i, j] = G[j, i] = riesz_apply(y, polys[i] * polys[j])
        assert np.abs(G - np.eye(s)).max() < 1e-8


def test_degree_of_basis_elements():
    kb = orthonormal_basis(BALL1, 6)
    for i, alpha in enumerate(kb.basis.exponents):
        assert kb.polynomial(i).degree == sum(alpha)


def test_product_basis_element():
    kb = orthonormal_basis(PROD2, 2)
    idx = kb.basis.index((1, 1))
    assert coeff_dist(kb.polynomial(idx), Polynomial(2, {(1, 1): 2.0})) < 1e-12
    assert kb.profiles[idx] == (1, 1)


@pytest.mark.parametrize("measure, D", [(BALL1, 16), (ReferenceMeasure("simplex", 1, 1.0), 10),
                                        (ReferenceMeasure("simplex", 2, 1.0), 8)])
def test_orthonormal_basis_past_the_gram_failure_degrees(measure, D):
    # a Cholesky factor of the monomial moment Gram matrix fails at these
    # degrees; the Arnoldi basis stays orthonormal under an exact rule
    kb = orthonormal_basis(measure, D)
    nodes, weights = measure.cubature(2 * D)
    P = kb.eval_rows(nodes)
    assert np.abs(P.T @ (weights[:, None] * P) - np.eye(len(kb.basis))).max() < 1e-8


# ----------------------------------------------------------------------------
# kernels and the graded operator


def test_kernel_eval_examples():
    kb = orthonormal_basis(BALL1, 2)
    assert kernel_eval(kb, [1.0], [1.0], degree=(0, 2)) == pytest.approx(5.0)
    assert kernel_eval(kb, [0.3], [0.8], degree=0) == pytest.approx(1.0)
    # reproducing at sample points via explicit sum
    vals = kb.eval_rows(np.array([[0.2], [0.7]]))
    manual = float(vals[0] @ vals[1])
    assert kernel_eval(kb, [0.2], [0.7]) == pytest.approx(manual)


def test_reproducing_property():
    rng = np.random.default_rng(0)
    kb = orthonormal_basis(BALL1, 8)
    y = moment_sequence(kb.measures, 16)
    polys = [kb.polynomial(i) for i in range(len(kb.basis))]
    mb = monomial_basis(1, 8)
    for _ in range(20):
        p = Polynomial.from_vector(mb, rng.normal(size=len(mb)))
        x = rng.uniform(-1, 1, size=1)
        # quadrature of C(x, y) p(y) dmu(y) through exact basis integrals
        val = sum(float(kb.eval_rows(x[None, :])[0][i]) * riesz_apply(y, polys[i] * p)
                  for i in range(len(polys)))
        assert val == pytest.approx(p(x), abs=1e-8)


def test_operator_identity_with_unit_weights():
    kb = orthonormal_basis(PROD2, 4)
    rng = np.random.default_rng(1)
    mb = monomial_basis(2, 4)
    f = Polynomial.from_vector(mb, rng.normal(size=len(mb)))
    out = operator_apply(kb, None, f)
    assert coeff_dist(out, f) < 1e-10


def test_operator_single_eigenspace_scaling():
    kb = orthonormal_basis(BALL1, 2)
    w = KernelWeights((np.array([1.0, 0.5, 1.0]),))
    x = Polynomial.variable(1, 0)
    half = operator_apply(kb, w, x)
    assert coeff_dist(half, Polynomial(1, {(1,): 0.5})) < 1e-12
    back = operator_apply(kb, w, half, invert=True)
    assert coeff_dist(back, x) < 1e-9


def test_operator_round_trip():
    kb = orthonormal_basis(PROD2, 4)
    w = KernelWeights((np.array([1.0, 0.9, 0.8, 0.7, 0.6]),
                       np.array([1.0, 0.95, 0.85, 0.75, 0.65])))
    rng = np.random.default_rng(2)
    mb = monomial_basis(2, 4)
    f = Polynomial.from_vector(mb, rng.normal(size=len(mb)))
    round_trip = operator_apply(kb, w, operator_apply(kb, w, f), invert=True)
    assert coeff_dist(round_trip, f) < 1e-9


def test_graded_decompose_examples():
    kb1 = orthonormal_basis(BALL1, 2)
    parts = graded_decompose(kb1, Polynomial(1, {(0,): 1.0, (1,): 1.0}))
    assert coeff_dist(parts[(0,)], Polynomial.constant(1, 1.0)) < 1e-12
    assert coeff_dist(parts[(1,)], Polynomial.variable(1, 0)) < 1e-12

    sq = graded_decompose(kb1, Polynomial(1, {(2,): 1.0}))
    assert coeff_dist(sq[(0,)], Polynomial.constant(1, 0.5)) < 1e-12
    assert coeff_dist(sq[(2,)], Polynomial(1, {(2,): 1.0, (0,): -0.5})) < 1e-12

    kb2 = orthonormal_basis(PROD2, 2)
    cross = graded_decompose(kb2, Polynomial(2, {(1, 1): 1.0}))
    assert list(cross) == [(1, 1)]


@pytest.mark.parametrize("measure, D, f, profiles", [
    (BALL1, 2, Polynomial(1, {(2,): 1.0}), {(0,), (2,)}),
    (ReferenceMeasure("ball", 2, 1.0), 4, Polynomial(2, {(2, 2): 1.0, (1, 0): 1.0}),
     {(0,), (1,), (2,), (4,)}),
])
def test_graded_decompose_has_no_round_off_parts(measure, D, f, profiles):
    # odd coordinates of an even f come out near 1e-17, not 0; against real
    # parts of 3.7e-2 or more they are round-off, not components
    parts = graded_decompose(orthonormal_basis(measure, D), f)
    assert set(parts) == profiles
    assert coeff_dist(sum(parts.values(), Polynomial.zero(f.n)), f) < 1e-14


def test_graded_components_sum_back():
    rng = np.random.default_rng(3)
    for product, D in [(PROD2, 4), (PROD3, 3)]:
        kb = orthonormal_basis(product, D)
        f = Polynomial.from_vector(kb.basis, rng.normal(size=len(kb.basis)))
        total = sum(graded_decompose(kb, f).values(), Polynomial.zero(kb.n))
        assert coeff_dist(total, f) < 1e-10


def test_weights_validation_and_diagnostics():
    with pytest.raises(ValueError):
        KernelWeights((np.array([0.9, 1.0]),))  # lambda_0 != 1
    with pytest.raises(ValueError):
        KernelWeights((np.array([1.0, 0.4]),))  # below 1/2
    w = KernelWeights.ones(2, 6)
    assert w.kernel_degree == 6
    diag = w.diagnostics([1, 1], k=2, r=3)
    assert diag[0][0] == 0.0
    assert diag[0][1] == pytest.approx(harmonic_bound_coefficient(1, 2) / 9)
    assert harmonic_bound_coefficient(1, 2) == pytest.approx(32.0)


def test_eigenstructure_matrix():
    # the operator matrix on monomials is similar to a diagonal matrix with
    # the per-profile eigenvalues; verify through the P-basis coordinates
    kb = orthonormal_basis(PROD2, 3)
    w = KernelWeights((np.array([1.0, 0.8, 0.7, 0.6]),
                       np.array([1.0, 0.9, 0.85, 0.55])))
    M = operator_matrix(kb, w)
    # the operator is C^T Lambda C^{-T} on monomial coefficients, so
    # conjugating the other way recovers the diagonal
    C = kb.coeffs
    D = np.linalg.solve(C.T, M @ C.T)
    lam = np.array([w.eigenvalue(p) for p in kb.profiles])
    assert np.allclose(D, np.diag(lam), atol=1e-9)
    # multiplicity of each eigenvalue equals the number of matching profiles
    for profile in {(1, 0), (1, 1), (2, 1)}:
        count = sum(1 for p in kb.profiles if w.eigenvalue(p) == w.eigenvalue(profile))
        assert count == int(np.sum(np.isclose(lam, w.eigenvalue(profile))))


def test_harmonic_constant_bound_examples():
    one = SimpleSetProduct((("ball", 1, 1.0),))
    assert harmonic_constant_bound(one, 2) == pytest.approx(np.sqrt(2.0), abs=1e-6)
    assert harmonic_constant_bound(one, 0) == pytest.approx(1.0)
    assert harmonic_constant_bound(PROD2, 2) == pytest.approx(2.0, abs=1e-6)


def test_harmonic_constant_bound_needs_no_slsqp(monkeypatch):
    import scipy.optimize

    def refuse(*args, **kwargs):
        raise AssertionError("scipy.optimize.minimize called")

    monkeypatch.setattr(scipy.optimize, "minimize", refuse)
    assert harmonic_constant_bound(PROD2, 2) == pytest.approx(2.0, abs=1e-6)


def test_component_bound_by_harmonic_constant():
    kb = orthonormal_basis(PROD2, 2)
    bound = harmonic_constant_bound(PROD2, 2)
    rng = np.random.default_rng(4)
    mb = monomial_basis(2, 2)
    grid = np.stack(np.meshgrid(np.linspace(-1, 1, 41), np.linspace(-1, 1, 41)),
                    axis=-1).reshape(-1, 2)
    for _ in range(10):
        f = Polynomial.from_vector(mb, rng.normal(size=len(mb)))
        fmax = np.abs(f.eval_many(grid)).max()
        for part in graded_decompose(kb, f).values():
            assert np.abs(part.eval_many(grid)).max() <= bound * fmax + 1e-6


# ----------------------------------------------------------------------------
# upper bounds


def test_upper_bound_sdp_ball_linear():
    f = Polynomial.variable(1, 0)
    X = make_catalog_set("ball", n=1, R=1.0)
    value, sol = upper_bound_sdp(f, X, "Q", 1, BALL1, SolveOptions(tol=1e-9))
    assert sol.status == "optimal"
    assert value == pytest.approx(-1.0 / np.sqrt(2.0), abs=1e-5)


def test_upper_bound_sdp_constant():
    f = Polynomial.constant(1, 5.0)
    X = make_catalog_set("ball", n=1, R=1.0)
    value, _ = upper_bound_sdp(f, X, "Q", 1, BALL1, SolveOptions(tol=1e-9))
    assert value == pytest.approx(5.0, abs=1e-6)


def test_upper_bound_sdp_monotone():
    f = Polynomial.variable(1, 0)
    X = make_catalog_set("ball", n=1, R=1.0)
    v1, _ = upper_bound_sdp(f, X, "Q", 1, BALL1, SolveOptions(tol=1e-9))
    v4, _ = upper_bound_sdp(f, X, "Q", 4, BALL1, SolveOptions(tol=1e-9))
    assert v4 < v1 - 1e-4
    assert v4 >= -1.0 - 1e-8


def test_upper_bound_kernel_examples():
    one = SimpleSetProduct((("ball", 1, 1.0),))
    f = Polynomial.variable(1, 0)
    assert upper_bound_kernel(f, one, 2, None, [-1.0]) == pytest.approx(-1.0)
    w = KernelWeights((np.array([1.0, 0.5, 1.0, 1.0, 1.0]),))
    assert upper_bound_kernel(f, one, 2, w, [-1.0]) == pytest.approx(-0.5)
    sq = Polynomial(1, {(2,): 1.0})
    w2 = KernelWeights((np.array([1.0, 1.0, 0.5, 1.0, 1.0]),))
    assert upper_bound_kernel(sq, one, 2, w2, [0.0]) == pytest.approx(0.25)


def test_joint_moment_products():
    m = (ReferenceMeasure("ball", 1, 1.0), ReferenceMeasure("simplex", 1, 1.0))
    assert joint_moment(m, (2, 1)) == pytest.approx(0.5 * 0.5)


def test_harmonic_constant_bound_multid_factor():
    disk = SimpleSetProduct((("ball", 2, 1.0),))
    assert harmonic_constant_bound(disk, 0) == pytest.approx(1.0)
    val = harmonic_constant_bound(disk, 2)
    # degree-1 component alone reaches 3 on the boundary, so the bound
    # is at least sqrt(3)
    assert val >= np.sqrt(3.0) - 1e-6
    assert np.isfinite(val)


def test_upper_bound_series_sandwich():
    # f_min <= ub_r, nonincreasing in r within solver tolerance
    f = Polynomial.variable(1, 0)
    X = make_catalog_set("ball", n=1, R=1.0)
    values = []
    for r in (1, 2, 3, 4):
        v, sol = upper_bound_sdp(f, X, "Q", r, BALL1, SolveOptions(tol=1e-9))
        assert sol.status == "optimal"
        values.append(v)
    for prev, cur in zip(values, values[1:]):
        assert cur <= prev + 2e-9
    assert all(v >= -1.0 - 1e-8 for v in values)


# ----------------------------------------------------------------------------
# the eigenpair start of upper_bound_sdp


def _localizing_gram(y, weight, t):
    """[L_y(weight * m_i * m_j)] over the monomials m of degree <= t."""
    monos = [Polynomial.monomial(y.n, a) for a in monomial_basis(y.n, t).exponents]
    return np.array([[riesz_apply(y, weight * p * q) for q in monos] for p in monos])


def test_upper_bound_sdp_certifies_the_pencil_value():
    # one-row program: the bound is min_J lambda_min(C_J, A_J), and started
    # there the solver stops at its first residual check
    mb = monomial_basis(2, 4)
    f = Polynomial.from_vector(mb, np.random.default_rng(3).normal(size=len(mb)))
    X = make_catalog_set("ball", n=2, R=1.0)
    mu = ReferenceMeasure("ball", 2, 1.0)
    r = 4
    value, sol = upper_bound_sdp(f, X, "Q", r, mu, SolveOptions())
    assert sol.status == "optimal"
    assert sol.iterations <= sdpcore.CHECK_EVERY

    y = moment_sequence(mu, 2 * r + f.degree)
    g = X.inequalities[0]
    lam = min(scipy.linalg.eigh(_localizing_gram(y, f * w, t), _localizing_gram(y, w, t),
                                eigvals_only=True)[0]
              for w, t in ((Polynomial.constant(2, 1.0), r), (g, r - 1)))
    assert abs(value - lam) <= 1e-9 * (1.0 + abs(lam))


def test_upper_bound_sdp_simplex_case_reaches_optimal():
    # the objective the ladder caps at max_iters; its upper bounds converge
    x1, x2 = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    f = x1 ** 3 - x1 * x2 + x2 ** 4 + 0.3 * x2
    X = make_catalog_set("simplex", n=2, K=1.0)
    mu = ReferenceMeasure("simplex", 2, 1.0)
    v2, sol2 = upper_bound_sdp(f, X, "T", 2, mu, SolveOptions())
    v3, sol3 = upper_bound_sdp(f, X, "T", 3, mu, SolveOptions())
    assert sol2.status == sol3.status == "optimal"
    assert v3 <= v2 + 1e-9
    g = np.linspace(0.0, 1.0, 201)
    grid = np.array([(a, b) for a in g for b in g if a + b <= 1.0])
    assert v3 >= f.eval_many(grid).min() - 1e-9


def test_upper_bound_sdp_drops_a_vanishing_weight():
    # the zero weight has a zero localizing matrix and gets no block; the
    # bound is the one on {1 - x^2 >= 0}, certified at the first check
    x = Polynomial.variable(1, 0)
    X = SemiAlgebraicSet(1, inequalities=(Polynomial.zero(1), 1 - x * x))
    opts = SolveOptions(tol=1e-9)
    value, sol = upper_bound_sdp(x, X, "Q", 2, BALL1, opts)
    assert sol.status == "optimal"
    assert sol.iterations <= sdpcore.CHECK_EVERY
    plain, _ = upper_bound_sdp(x, make_catalog_set("ball", n=1, R=1.0), "Q", 2, BALL1, opts)
    assert abs(value - plain) <= 1e-12


x1 = Polynomial.variable(1, 0)


ON_SET = r"node \[-?[0-9.]+\] violates the set by [0-9.]+"


@pytest.mark.parametrize("f, gs, levels, message", [
    # on [0, 1] the weight x is negative where the ball measure of [-1, 1]
    # charges: f = x would read -0.866 < min f = 0 as an "optimal" bound,
    # and f = -x is unbounded below
    pytest.param(x1, (x1, 1 - x1 * x1), (2,),
                 r"node \[-0\.8660254\] violates the set by 0\.866", id="1.0"),
    pytest.param(-x1, (x1, 1 - x1 * x1), (2,),
                 r"node \[-0\.8660254\] violates the set by 0\.866", id="-1.0"),
    # every localizing matrix stays positive definite at low levels here, and
    # the moment route read -0.75 < min f = -0.64, -0.530 < -0.512 and
    # -0.854 < -0.81 as optimal bounds
    pytest.param(-x1 * x1, (0.64 - x1 * x1,), range(1, 6), ON_SET, id="neg-square-on-0.8"),
    pytest.param(x1 ** 3, (0.64 - x1 * x1,), range(1, 6), ON_SET, id="cube-on-0.8"),
    pytest.param(-x1 * x1, (0.81 - x1 * x1,), range(1, 6), ON_SET, id="neg-square-on-0.9"),
])
def test_upper_bound_sdp_refuses_a_measure_off_the_set(f, gs, levels, message):
    X = SemiAlgebraicSet(1, inequalities=gs)
    for r in levels:
        with pytest.raises(ValueError, match=message):
            upper_bound_sdp(f, X, "Q", r, BALL1, SolveOptions(tol=1e-9))


# ----------------------------------------------------------------------------
# upper-bound series with known values


def test_upper_bound_series_chebyshev_interval():
    # f = x on [-1, 1] with the Chebyshev measure: ub_r is the least root of
    # T_(r+1), -cos(pi / (2r + 2))
    X = make_catalog_set("ball", n=1, R=1.0)
    for r in range(1, 31):
        value, sol = upper_bound_sdp(x1, X, "Q", r, BALL1, SolveOptions())
        assert sol.status == "optimal"
        assert abs(value + np.cos(np.pi / (2 * r + 2))) <= 1e-10


def test_upper_bound_series_disk():
    # f = x1 on the unit disk: the ball measure's marginal is uniform on
    # [-1, 1], so ub_r is the least root of the Legendre polynomial P_(r+1)
    f = Polynomial.variable(2, 0)
    X = make_catalog_set("ball", n=2, R=1.0)
    mu = ReferenceMeasure("ball", 2, 1.0)
    for r in range(1, 13):
        value, sol = upper_bound_sdp(f, X, "Q", r, mu, SolveOptions())
        assert sol.status == "optimal"
        assert abs(value + np.polynomial.legendre.leggauss(r + 1)[0].max()) <= 1e-10


def test_upper_bound_series_simplex():
    # f = x1 on the 2-simplex (min 0) with Q: no closed form; the levels
    # r <= 6 are the values the monomial pencil computed before it lost digits
    f = Polynomial.variable(2, 0)
    X = make_catalog_set("simplex", n=2, K=1.0)
    mu = ReferenceMeasure("simplex", 2, 1.0)
    known = [0.115587109997, 0.056939115967, 0.033648268068, 0.022163568807,
             0.015683406604, 0.011675871909]
    values = []
    for r in range(1, 17):
        value, sol = upper_bound_sdp(f, X, "Q", r, mu, SolveOptions())
        assert sol.status == "optimal"
        assert sol.iterations <= sdpcore.CHECK_EVERY
        values.append(value)
    assert np.all(np.diff(values) <= 0.0)
    assert min(values) >= 0.0
    assert np.abs(np.array(values[:6]) - known).max() <= 1e-9
