"""Acceptance suite: every criterion at its stated tolerance, one line each.

Criterion 6's sphere check asserts that the circle's order-2 distance series
is zero to solver accuracy, at every level: a quadratic over the unit circle is
a trust-region problem, whose level-1 relaxation is exact by the S-lemma, so
the paper's O(1/r^2) sphere rate holds there with constant 0. The comment in
the test derives the tolerance.
"""

import time

import numpy as np

from momentlab import distcone, hierarchy, sdpcore
from momentlab.cdkernel import (
    KernelWeights,
    ReferenceMeasure,
    moment_sequence,
    operator_matrix,
    orthonormal_basis,
    upper_bound_sdp,
)
from momentlab.momentkit import (
    DiscreteMeasure,
    TruncatedSequence,
    lift_sequence,
    lifted_domain,
    max_spec_violation,
    preordering_products,
    project_dimension,
    project_order,
    riesz_apply,
    sequence_from_measure,
    spec_matrix,
    transform_matrix,
    transform_sequence,
)
from momentlab.polycore import Polynomial, l1_norm, monomial_basis
from momentlab.sdpcore import SolveOptions
from momentlab.semialg import SemiAlgebraicSet, archimedean_augment, make_catalog_set

TIGHT = SolveOptions(tol=1e-9)


def coeff_dist(p, q):
    return max((abs(c) for c in (p - q).terms.values()), default=0.0)


def sample_spectrahedron(X, certificate, r, count, seed, center, opts=TIGHT):
    """Extreme-ish points of the level-r pseudo-moment set: minimize random
    linear functionals, then blend toward a strictly feasible center so every
    localizing constraint holds exactly (the sets are convex)."""
    rng = np.random.default_rng(seed)
    basis = monomial_basis(X.n, 2 * r)
    specs = preordering_products(X, r, kind=certificate)
    margins = []
    for spec in specs:
        M = spec_matrix(center, spec)
        if spec.constraint_kind == "psd":
            margins.append(float(np.linalg.eigvalsh(M).min()))
    delta = min(margins)
    assert delta > 0
    rel = None
    sol = None
    points = []
    for _ in range(count):
        c = rng.normal(size=len(basis))
        f = Polynomial.from_vector(basis, c)
        rel = (hierarchy.build_moment_relaxation(f, X, certificate, r)
               if rel is None else rel.with_objective(f))
        sol = sdpcore.solve(rel.program, opts, warm=sol)
        y = TruncatedSequence(X.n, 2 * r, sol.x[rel.y_slice])
        viol = max_spec_violation(y, specs)
        theta = min(0.5, viol / (viol + delta) + 1e-12)
        blended = TruncatedSequence(X.n, 2 * r,
                                    (1 - theta) * y.values + theta * center.values)
        assert max_spec_violation(blended, specs) <= 1e-12
        points.append(blended)
    return points


# ----------------------------------------------------------------------------
# criterion 1: exactness oracles


def test_criterion_1_exactness_oracles():
    ball = make_catalog_set("ball", n=1, R=1.0)
    x = Polynomial.variable(1, 0)
    # closed-form identity x + 1 = (1+x)^2/2 + (1-x^2)/2, verified symbolically
    g = Polynomial(1, {(0,): 1.0, (2,): -1.0})
    lhs = x + 1.0
    rhs = 0.5 * (Polynomial(1, {(0,): 1.0, (1,): 1.0}) ** 2) + 0.5 * g
    assert coeff_dist(lhs, rhs) == 0.0

    start = time.perf_counter()
    rel = hierarchy.build_sos_relaxation(x, ball, "Q", 1)
    value, sol = hierarchy.solve_relaxation(rel, TIGHT)
    cert = hierarchy.certificate_extract(sol, rel)
    elapsed = time.perf_counter() - start
    assert abs(value - (-1.0)) <= 1e-6
    assert cert.residual <= 1e-6
    assert elapsed < 1.0

    # sphere identity x1 + 1 = (x1+1)^2/2 + x2^2/2 + (1-x1^2-x2^2)/2
    sphere = make_catalog_set("sphere", n=2, R=1.0)
    x1 = Polynomial.variable(2, 0)
    x2 = Polynomial.variable(2, 1)
    h = Polynomial(2, {(0, 0): 1.0, (2, 0): -1.0, (0, 2): -1.0})
    lhs2 = x1 + 1.0
    rhs2 = 0.5 * ((x1 + 1.0) ** 2) + 0.5 * (x2 * x2) + 0.5 * h
    assert coeff_dist(lhs2, rhs2) == 0.0

    start = time.perf_counter()
    rel2 = hierarchy.build_sos_relaxation(x1, sphere, "Q", 1)
    value2, sol2 = hierarchy.solve_relaxation(rel2, TIGHT)
    cert2 = hierarchy.certificate_extract(sol2, rel2)
    elapsed2 = time.perf_counter() - start
    assert abs(value2 - (-1.0)) <= 1e-6
    assert cert2.residual <= 1e-6
    assert elapsed2 < 1.0


# ----------------------------------------------------------------------------
# criterion 2: upper-bound oracle


def test_criterion_2_upper_bound_oracle():
    ball = make_catalog_set("ball", n=1, R=1.0)
    x = Polynomial.variable(1, 0)
    start = time.perf_counter()
    value, sol = upper_bound_sdp(x, ball, "Q", 1, ReferenceMeasure("ball", 1, 1.0),
                                 TIGHT)
    elapsed = time.perf_counter() - start
    assert sol.status == "optimal"
    assert abs(value - (-1.0 / np.sqrt(2.0))) <= 1e-5
    assert elapsed < 1.0


# ----------------------------------------------------------------------------
# criterion 3: kernel suite


def test_criterion_3_kernel_suite():
    start = time.perf_counter()
    from momentlab.semialg import SimpleSetProduct

    prod = SimpleSetProduct((("ball", 1, 1.0), ("ball", 1, 1.0)))

    # orthonormality through the independent moment-oracle route
    for measure, D in ((ReferenceMeasure("ball", 1, 1.0), 8), (prod, 4)):
        kb = orthonormal_basis(measure, D)
        y = moment_sequence(kb.measures, 2 * D)
        polys = [kb.polynomial(i) for i in range(len(kb.basis))]
        s = len(polys)
        G = np.empty((s, s))
        for i in range(s):
            for j in range(i, s):
                G[i, j] = G[j, i] = riesz_apply(y, polys[i] * polys[j])
        assert np.abs(G - np.eye(s)).max() <= 1e-8

    # reproducing property on 20 random polynomial/point pairs
    kb = orthonormal_basis(prod, 4)
    y = moment_sequence(kb.measures, 8)
    polys = [kb.polynomial(i) for i in range(len(kb.basis))]
    rng = np.random.default_rng(0)
    mb = monomial_basis(2, 4)
    for _ in range(20):
        p = Polynomial.from_vector(mb, rng.normal(size=len(mb)))
        pt = rng.uniform(-0.7, 0.7, size=2)
        row = kb.eval_rows(pt[None, :])[0]
        val = sum(float(row[i]) * riesz_apply(y, polys[i] * p)
                  for i in range(len(polys)))
        assert abs(val - p(pt)) <= 1e-8

    # product-kernel operator identity, m = 2, r = 3, k = 4: the eigen route
    # against the explicit kernel-sum quadrature route
    r, k = 3, 4
    lam = tuple(np.array([1.0] + [1.0 - j / 20.0 for j in range(1, 2 * r + 1)])
                for _ in range(2))
    weights = KernelWeights(lam)
    kb4 = orthonormal_basis(prod, k)
    route_a = operator_matrix(kb4, weights)

    factor = ReferenceMeasure("ball", 1, 1.0)
    fb = orthonormal_basis(factor, 2 * r)
    fy = moment_sequence((factor,), 2 * r + k)
    fpolys = [fb.polynomial(i) for i in range(len(fb.basis))]
    fdeg = fb.total_degrees()

    def factor_action(weights_1d, b_exp):
        """sum_j lambda_j sum_{|a|=j} P_a(x) * l_mu(P_a y^b), as a Polynomial.

        Components with |a| > b are orthogonal to y^b; their quadrature residue
        is pure round-off (~1e-16) and is dropped below the comparison scale.
        """
        mono = Polynomial.monomial(1, (b_exp,))
        out = Polynomial.zero(1)
        for i, p in enumerate(fpolys):
            coeff = riesz_apply(fy, p * mono)
            if abs(coeff) > 1e-13:
                out = out + weights_1d[fdeg[i]] * coeff * p
        return out

    joint = monomial_basis(2, k)
    route_b = np.zeros((len(joint), len(joint)))
    for col, beta in enumerate(joint.exponents):
        q1 = factor_action(lam[0], beta[0])
        q2 = factor_action(lam[1], beta[1])
        image = Polynomial(2, {(a1[0], a2[0]): c1 * c2
                               for a1, c1 in q1.terms.items()
                               for a2, c2 in q2.terms.items()})
        route_b[:, col] = image.coefficient_vector(joint)
    assert np.abs(route_a - route_b).max() <= 1e-8
    assert time.perf_counter() - start < 30.0


# ----------------------------------------------------------------------------
# criterion 4: hierarchy ladders on the six catalog problems


def _catalog_problems():
    ball = make_catalog_set("ball", n=2, R=1.0)
    simplex = archimedean_augment(make_catalog_set("simplex", n=2, K=1.0), 1.0)
    box_product = archimedean_augment(
        make_catalog_set("box_product", factors=[("ball", 1, 1.0), ("ball", 1, 1.0)]),
        np.sqrt(2.0))
    sphere = make_catalog_set("sphere", n=2, R=1.0)
    polytope = archimedean_augment(
        make_catalog_set("polytope", A=[[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]],
                         b=[1.0, 1.0, 0.0, 0.0]), np.sqrt(2.0))
    quartic = archimedean_augment(
        make_catalog_set("custom", n=2,
                         inequalities=[Polynomial(2, {(0, 0): 1.0, (4, 0): -1.0,
                                                      (0, 4): -1.0})],
                         box=(np.array([-1.1, -1.1]), np.array([1.1, 1.1])),
                         name="quartic-cqc"), 1.21)
    x1 = Polynomial.variable(2, 0)
    x2 = Polynomial.variable(2, 1)
    return [
        ("ball", ball, x1 * x2, (1, 2, 3, 4)),
        ("simplex", simplex, -1.0 * x1 * x2 + 0.25 * x1, (1, 2, 3, 4)),
        ("box_product", box_product, x1 * x2 + 0.5 * x1, (1, 2, 3, 4)),
        ("sphere", sphere, x1 + 0.3 * x2 * x2, (1, 2, 3, 4)),
        ("polytope", polytope, -1.0 * (x1 - x2) ** 2, (1, 2, 3)),
        ("quartic", quartic, x1 + x2, (2, 3, 4)),
    ]


def test_criterion_4_hierarchy_ladders():
    start = time.perf_counter()
    # assertions run at the stated tolerance; the solver itself runs an order
    # tighter so that its value error stays well inside the 2*tol slack
    tol = 1e-8
    opts = SolveOptions(tol=1e-9)
    for name, X, f, levels in _catalog_problems():
        fmin = hierarchy.estimate_minimum(f, X, seed=1)
        report_t = hierarchy.run_ladder(f, X, "T", levels, opts)
        report_r = hierarchy.run_ladder(f, X, "R", levels, opts,
                                        sides=("moment",))
        assert not report_t.monotonicity_violations, name
        assert not report_r.monotonicity_violations, name
        mlb_t = {res.level: res.value for res in report_t.results if res.side == "moment"}
        lb_t = {res.level: res.value for res in report_t.results if res.side == "sos"}
        mlb_r = {res.level: res.value for res in report_r.results}
        for res in report_t.results + report_r.results:
            assert res.status == "optimal", f"{name} r={res.level} {res.side}"
        for r in levels:
            assert lb_t[r] <= mlb_t[r] + 2 * tol, name
            assert mlb_r[r] <= mlb_t[r] + 2 * tol, name
            assert mlb_t[r] <= fmin + 1e-5, name
            assert lb_t[r] <= fmin + 1e-5, name
            assert mlb_r[r] <= fmin + 1e-5, name
            assert abs(mlb_t[r] - lb_t[r]) <= 1e-5, name  # duality gap
    assert time.perf_counter() - start < 600.0


# ----------------------------------------------------------------------------
# criterion 5: Lojasiewicz exponent fits


def test_criterion_5_lojasiewicz_fits():
    start = time.perf_counter()
    polytope = make_catalog_set("polytope",
                                A=[[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]],
                                b=[1.0, 1.0, 0.0, 0.0])
    fit_p = distcone.lojasiewicz_fit(
        polytope, (np.array([-0.6, -0.6]), np.array([1.6, 1.6])),
        count=150, seed=0)
    assert 0.85 <= fit_p.exponent <= 1.15

    double_root = make_catalog_set("custom", n=1,
                                   equalities=[Polynomial(1, {(2,): 1.0})],
                                   box=(np.array([-1.0]), np.array([1.0])),
                                   name="x^2=0")
    fit_d = distcone.lojasiewicz_fit(
        double_root, (np.array([-1.0]), np.array([1.0])), count=150, seed=1)
    assert 0.4 <= fit_d.exponent <= 0.6

    sphere = make_catalog_set("sphere", n=2, R=1.0)
    fit_s = distcone.lojasiewicz_fit(
        sphere, (np.array([-1.5, -1.5]), np.array([1.5, 1.5])), count=150,
        seed=2)
    assert 0.85 <= fit_s.exponent <= 1.15
    assert time.perf_counter() - start < 60.0


# ----------------------------------------------------------------------------
# criterion 6: distance-series rate shape


_SPHERE_SERIES = {}


def _sphere_gap_series():
    if "series" not in _SPHERE_SERIES:
        sphere = make_catalog_set("sphere", n=2, R=1.0)
        support = distcone.sampled_support(sphere, 2, 24, 7)
        series = []
        for r in (2, 3, 4, 5, 6):
            val = distcone.hausdorff_lower_bound(sphere, "T", r, 2,
                                                 directions=24, seed=7,
                                                 opts=TIGHT, support=support)
            series.append((r, val))
        _SPHERE_SERIES["series"] = series
    return _SPHERE_SERIES["series"]


def test_criterion_6_distance_series_monotone():
    start = time.perf_counter()
    series = _sphere_gap_series()
    values = [v for _, v in series]
    tol = TIGHT.tol
    for prev, cur in zip(values, values[1:]):
        assert cur <= prev + 2 * tol, f"series not nonincreasing: {series}"

    triangle = archimedean_augment(
        make_catalog_set("polytope", A=[[-1.0, 0.0], [0.0, -1.0], [1.0, 1.0]],
                         b=[0.0, 0.0, 1.0]), 1.0)
    tri_series = []
    for r in (2, 3, 4, 5):
        val = distcone.hausdorff_lower_bound(triangle, "T", r, 2, directions=8,
                                             seed=11, opts=SolveOptions(tol=1e-8))
        tri_series.append(val)
    for prev, cur in zip(tri_series, tri_series[1:]):
        assert cur <= prev + 2e-8, f"polytope series not nonincreasing: {tri_series}"
    assert time.perf_counter() - start < 900.0


def test_criterion_6_sphere_slope():
    # The paper's sphere rate d_k = O(1/r^2) is an upper bound. On the circle
    # at k = 2 it holds with constant 0: for a unit direction c, maximizing
    # p = c . v_2 over x^2 + y^2 = 1 is a trust-region problem, whose level-1
    # (Shor) relaxation is exact by the S-lemma, and every level r >= 1 sits
    # between that relaxation and the true value. So each support gap, and
    # the series, is exactly 0; fitting a slope to it would fit solver noise.
    #
    # Tolerance. The solver stops once the primal and dual residuals and the
    # relative gap |pv - dv| / (1 + |pv| + |dv|) are all <= tol. On the circle
    # |v_2(x)|^2 = 1 + 1 + (x^2 + y^2)^2 - x^2 y^2 <= 3, so |p| <= sqrt(3) and
    # the gap term alone lets the reported value move by up to
    # (1 + 2 sqrt(3)) tol ~= 4.5 tol; the residual terms act at the same
    # order. The sampled maximum is polished by Newton steps on the circle to
    # round-off, so it adds nothing at this scale. 10 tol is twice the gap
    # allowance, while a relaxation that lost the circle's equality would
    # relax to the disk and leave gaps of order 1 (direction -(x^2 + y^2):
    # 0 over the disk against -1 on the circle).
    series = _sphere_gap_series()
    bound = 10 * TIGHT.tol
    for r, v in series:
        assert abs(v) <= bound, (
            f"sphere gap at r={r} is {v:.3g}, beyond {bound:.1g}: the circle's "
            f"order-2 relaxation is exact, so every gap is zero; series {series}")


# ----------------------------------------------------------------------------
# criterion 7: lifting suite


def test_criterion_7_lifting_suite():
    start = time.perf_counter()
    X = make_catalog_set("custom", n=1,
                         inequalities=[Polynomial.variable(1, 0)], radius=1.0,
                         name="halfball")
    r = 4
    atoms = np.linspace(0.05, 0.95, 24)[:, None]
    center = sequence_from_measure(
        DiscreteMeasure(atoms, np.full(24, 1.0 / 24)), 2 * r)
    points = sample_spectrahedron(X, "R", r, count=50, seed=3, center=center)

    dom = lifted_domain(X)
    t = (r // (2 * X.max_half_degree))
    lifted_specs = preordering_products(dom.phi_set, t, kind="R")
    for y in points:
        lifted = lift_sequence(y, X)
        assert lifted.order == 2 * t
        assert max_spec_violation(lifted, lifted_specs) <= 1e-7
        back = project_dimension(lifted, X.n)
        assert np.array_equal(back.values, project_order(y, 2 * t).values)
    assert time.perf_counter() - start < 300.0


# ----------------------------------------------------------------------------
# criterion 8: transform transport


def test_criterion_8_transform_transport():
    start = time.perf_counter()
    B1 = make_catalog_set("ball", n=2, R=1.0)
    B2 = make_catalog_set("ball", n=2, R=2.0)
    r = 2
    rng = np.random.default_rng(5)
    disk = rng.uniform(-0.5, 0.5, size=(64, 2))
    disk = disk[np.sum(disk ** 2, axis=1) <= 0.25]
    center = sequence_from_measure(
        DiscreteMeasure(disk, np.full(len(disk), 1.0 / len(disk))), 2 * r)
    points = sample_spectrahedron(B1, "T", r, count=20, seed=6, center=center)

    A = 2.0 * np.eye(2)
    target_specs = preordering_products(B2, r, kind="T")
    for y in points:
        mapped = transform_sequence(y, A)
        assert max_spec_violation(mapped, target_specs) <= 1e-7

    # diagonal action is exactly R^{|alpha|} on basis vectors
    C = transform_matrix(2, 2 * r, A)
    degrees = np.array([sum(a) for a in monomial_basis(2, 2 * r).exponents])
    assert np.array_equal(C, np.diag(2.0 ** degrees))
    assert time.perf_counter() - start < 120.0


# ----------------------------------------------------------------------------
# criterion 9: solver unit oracle


def test_criterion_9_solver_oracle():
    start = time.perf_counter()
    from test_sdpcore import moment_ball_program, scalar_bound_program, sos_interval_program

    sol1 = sdpcore.solve(scalar_bound_program(), TIGHT)
    assert abs(sol1.primal_value - (-1.0)) <= 1e-6  # c* = 1, minimized as -c

    sol2 = sdpcore.solve(sos_interval_program(), TIGHT)
    assert abs(-sol2.primal_value - (-1.0)) <= 1e-6

    sol3 = sdpcore.solve(moment_ball_program(), TIGHT)
    assert abs(sol3.primal_value) <= 1e-6

    rng = np.random.default_rng(9)
    for _ in range(100):
        size = int(rng.integers(2, 8))
        M = rng.normal(size=(size, size))
        M = M + M.T
        N = rng.normal(size=(size, size))
        N = N + N.T
        PM, PN = sdpcore.psd_project(M), sdpcore.psd_project(N)
        assert np.abs(sdpcore.psd_project(PM) - PM).max() <= 1e-9
        assert (np.linalg.norm(PM - PN) <= np.linalg.norm(M - N) + 1e-9)
    assert time.perf_counter() - start < 30.0
