import re

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
    assert violation(X, [0.5, 0.5]) == 0.0
    assert violation(X, [1.5, 0.5]) == pytest.approx(0.5)
    lo, hi = X.bounding_box()
    assert np.allclose(lo, [0, 0]) and np.allclose(hi, [1, 1])


def test_empty_polytope_warns_not_rejects():
    with pytest.warns(UserWarning, match="empty"):
        make_catalog_set("polytope", A=[[1.0], [-1.0]], b=[-1.0, -1.0])


@pytest.mark.parametrize("kind, params, message", [
    ("ball", {"n": 2, "K": 1.0}, "catalog set 'ball' does not take key 'K'; it takes n, R"),
    ("polytope", {"n": 1, "A": [[1.0]], "b": [1.0]},
     "catalog set 'polytope' does not take key 'n'; it takes A, b"),
    ("ball", {}, "catalog set 'ball' needs key 'n'; it takes n, R"),
], ids=["unknown-key", "polytope-n", "missing-key"])
def test_catalog_rejects_keys_its_builder_does_not_take(kind, params, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        make_catalog_set(kind, **params)


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


_X1, _X2 = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
CUSP = SemiAlgebraicSet(n=2, inequalities=(_X1 ** 3 - _X2 * _X2, 1.0 - _X1),
                        box=(np.array([0.0, -1.0]), np.array([1.0, 1.0])), name="cusp")


def test_restore_feasibility_fails_on_non_finite_rows():
    # a NaN start, and one whose constraint values overflow, fail as rows;
    # the row beside them is restored as usual
    S = make_catalog_set("sphere", n=2, R=1.0)
    z = semialg.restore_feasibility(S, [[np.nan, 0.0], [1e200, 0.0], [2.0, 0.0]])
    assert np.isnan(z[:2]).all()
    np.testing.assert_allclose(z[2], [1.0, 0.0], atol=1e-12)
    assert np.isnan(semialg.restore_feasibility(S, [np.nan, 0.0])).all()


@pytest.mark.parametrize("kind, params", [("sphere", {"n": 2}), ("sphere", {"n": 3}),
                                          ("ball", {"n": 3}), ("simplex", {"n": 2})])
def test_local_extremum_restores_each_point_once(kind, params, monkeypatch):
    # a failed line search used to restart a quarter lower and restore 28 of
    # its 30 trial points again; the one point that may come back is one
    # restore_feasibility already returned, the row's best point, which a
    # step below an ulp reaches again
    X = make_catalog_set(kind, **params)
    restored, returned = [], set()

    def recorder(X, points, *args, **kwargs):
        # one entry per row of each batch restore_feasibility gets
        points = np.atleast_2d(np.asarray(points, dtype=float))
        restored.extend(row.tobytes() for row in points)
        out = original(X, points, *args, **kwargs)
        returned.update(row.tobytes() for row in out)
        return out

    original = semialg.restore_feasibility
    monkeypatch.setattr(semialg, "restore_feasibility", recorder)
    rng = np.random.default_rng(4)
    starts = rejection_sample(X, 3, seed=2)
    for degree in (2, 3, 4):
        basis = monomial_basis(X.n, degree)
        f = Polynomial.from_vector(basis, rng.normal(size=len(basis)))
        for maximize in (True, False):
            each = []
            for x0 in starts:
                # a batch of one row: everything restored is that row's
                restored.clear()
                returned.clear()
                _, values = semialg.local_extremum([f], X, x0[None, :], maximize=maximize)
                assert np.isfinite(values).all()
                assert len(restored) > 1
                again = [key for i, key in enumerate(restored) if key in restored[:i]]
                assert set(again) <= returned
                each += restored
            # the rows polished together restore exactly what they restore alone
            restored.clear()
            semialg.local_extremum([f] * len(starts), X, starts, maximize=maximize)
            assert sorted(restored) == sorted(each)


def _restore_one(X, x):
    """One point's Gauss-Newton restoration, with one lstsq per step: the
    reference for restore_feasibility."""
    z = np.array(x, dtype=float)
    neq = len(X.equalities)
    for _ in range(semialg._GN_STEPS):
        vals, jac = X.compiled.jet(z)
        rows = vals < 0.0
        rows[:neq] = True
        if not rows.any() or np.abs(vals[rows]).max() <= semialg._GN_STOP:
            return z
        step = np.linalg.lstsq(jac[rows], -vals[rows], rcond=None)[0]
        if not np.isfinite(step).all():
            return None
        z = z + step
    return z if violation(X, z) <= FEASIBILITY_TOL else None


def _polish_one(f, X, x0, maximize):
    """One start's polish by the rules local_extremum followed before it
    took Newton steps: projected-gradient ascent, then Newton on the KKT
    system of the final active set. An independent reference for the values
    the lockstep batch reaches row by row."""
    p = semialg.CompiledPoly(X.n, (f if maximize else -1.0 * f,))
    x = _restore_one(X, x0)
    neq = len(X.equalities)
    fixed = np.array([True] * neq + [g in X.equalities for g in X.inequalities])

    def active(z):
        vals, jac = X.compiled.jet(z)
        on = np.abs(vals) <= semialg._ACTIVE_TOL
        on[:neq] = True
        return on, jac[on]

    best_x, best_v, step = x, p(x)[0], 0.1
    seen = {}
    for _ in range(semialg._POLISH_ITERS):
        g = p.jet(best_x)[1][0]
        on, J = active(best_x)
        direction = g
        if on.any():
            lam = np.linalg.lstsq(J.T, g, rcond=None)[0]
            keep = fixed[on] | (lam <= 1e-12)
            if keep.any():
                direction = g - np.linalg.lstsq(J[keep], J[keep] @ g, rcond=None)[0]
        nrm = np.linalg.norm(direction)
        if nrm <= 1e-14:
            break
        trial_step = step
        for _ in range(30):
            trial = best_x + trial_step * direction / max(nrm, 1e-30)
            if trial.tobytes() not in seen:
                cand = _restore_one(X, trial)
                seen[trial.tobytes()] = (cand, -np.inf if cand is None else p(cand)[0])
            cand, v = seen[trial.tobytes()]
            if v > best_v + 1e-16:
                best_x, best_v, step = cand, v, trial_step * 1.5
                break
            trial_step *= 0.5
        else:
            break
    on, J0 = active(best_x)
    if on.any():
        lam = np.linalg.lstsq(J0.T, p.jet(best_x)[1][0], rcond=None)[0]
        z = best_x.copy()
        for _ in range(12):
            vals, jac, hess = X.compiled.jet(z, 2)
            _, gp, Hp = p.jet(z, 2)
            J = jac[on]
            F = np.concatenate([gp[0] - J.T @ lam, vals[on]])
            if np.abs(F).max() <= 1e-13:
                break
            KKT = np.block([[Hp[0] - np.tensordot(lam, hess[on], axes=1), -J.T],
                            [J, np.zeros((len(lam), len(lam)))]])
            try:
                delta = np.linalg.lstsq(KKT, -F, rcond=None)[0]
            except np.linalg.LinAlgError:
                break
            z, lam = z + delta[:X.n], lam + delta[X.n:]
        if violation(X, z) <= FEASIBILITY_TOL and p(z)[0] > best_v:
            best_v = p(z)[0]
    return best_v if maximize else -best_v


@pytest.mark.parametrize("X", [make_catalog_set("sphere", n=2), make_catalog_set("simplex", n=2),
                               make_catalog_set("ball", n=3)], ids=["circle", "simplex2", "ball3"])
def test_local_extremum_matches_the_one_point_polish(X):
    # the batch takes other steps than the reference (Newton steps on the
    # active constraints' tangent space, no KKT phase), so the two reach the
    # same local extrema and agree to round-off, not bit for bit; on the cusp
    # round-off moves the end point along the slack outside the tip, so it
    # is left out here
    rng = np.random.default_rng(3)
    starts = rejection_sample(X, 4, seed=9)
    for degree in (2, 3, 4):
        basis = monomial_basis(X.n, degree)
        f = Polynomial.from_vector(basis, rng.normal(size=len(basis)))
        for maximize in (True, False):
            _, values = semialg.local_extremum([f] * len(starts), X, starts, maximize=maximize)
            expected = [_polish_one(f, X, x0, maximize) for x0 in starts]
            np.testing.assert_allclose(values, expected, rtol=0, atol=1e-12)


@pytest.mark.parametrize("X", [make_catalog_set("sphere", n=2), make_catalog_set("simplex", n=2),
                               make_catalog_set("ball", n=3), CUSP],
                         ids=["circle", "simplex2", "ball3", "cusp"])
@pytest.mark.parametrize("maximize", [True, False])
def test_local_extremum_rows_do_not_depend_on_batch_mates(X, maximize):
    rng = np.random.default_rng(7)
    starts = rejection_sample(X, 3, seed=1)
    fs, rows = [], []
    for degree in (2, 3, 4):
        basis = monomial_basis(X.n, degree)
        f = Polynomial.from_vector(basis, rng.normal(size=len(basis)))
        fs += [f] * len(starts)
        rows.append(starts)
    rows = np.vstack(rows)
    _, together = semialg.local_extremum(fs, X, rows, maximize=maximize)
    assert np.isfinite(together).all()
    for f, x0, value in zip(fs, rows, together):
        _, (alone,) = semialg.local_extremum([f], X, x0[None, :], maximize=maximize)
        assert alone == pytest.approx(value, abs=1e-12)


X1, X2 = Polynomial.variable(2, 0), Polynomial.variable(2, 1)


@pytest.mark.parametrize("X, f, starts, top", [
    # an interior maximum: no constraint is active there
    (make_catalog_set("ball", n=2), -1.0 * ((X1 - 0.3) ** 2 + (X2 + 0.2) ** 2),
     rejection_sample(make_catalog_set("ball", n=2), 4, seed=11), 0.0),
    # a maximum on an equality
    (make_catalog_set("sphere", n=2), 0.6 * X1 - 1.7 * X2,
     rejection_sample(make_catalog_set("sphere", n=2), 4, seed=12), float(np.hypot(0.6, 1.7))),
    # starts 2e-3 from a saddle along its four diagonals, where the Hessian
    # is indefinite and the direction is the gradient; the maximum 1 sits at
    # (+-1, 0) on the boundary. The gradient takes longer from near the
    # saddle's stable axis x1 = 0: one start 60 degrees off the x1 axis
    # makes 17 calls, one 85 degrees off makes 52.
    (make_catalog_set("ball", n=2), X1 * X1 - X2 * X2,
     np.array([[1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0], [1.0, -1.0]]) * 2e-3 / np.sqrt(2), 1.0),
], ids=["interior", "equality", "saddle"])
def test_local_extremum_reaches_the_maximum_in_few_rounds(X, f, starts, top, monkeypatch):
    # a round restores every live row's trial point in one batch call; the
    # projected gradient followed by a KKT Newton phase made 70 to 98 calls
    # on these rows
    calls = []
    original = semialg.restore_feasibility

    def recorder(X, points):
        calls.append(points)
        return original(X, points)

    monkeypatch.setattr(semialg, "restore_feasibility", recorder)
    points, values = semialg.local_extremum([f] * len(starts), X, starts, maximize=True)
    np.testing.assert_allclose(values, top, rtol=0, atol=1e-12)
    assert (violation_many(X, points) <= FEASIBILITY_TOL).all()
    assert len(calls) <= 20


@pytest.mark.parametrize("terms, start", [
    ({(0, 0): 0.8734574476351836, (1, 0): 0.0544425296429527, (0, 1): 0.015911034108368,
      (2, 0): -0.2674795961499163, (1, 1): -0.17217348070154842, (0, 2): -0.3642332979244214},
     [0.9069070186996478, -0.42133081946771167]),
    ({(0, 0): -0.6557613762718918, (1, 0): -0.137770277443375, (0, 1): -0.22117793705079114,
      (2, 0): 0.638147177941352, (1, 1): 0.062066956537869006, (0, 2): -0.3016497313056001},
     [-0.9901242730898611, -0.14019245285779453]),
])
def test_local_extremum_on_the_circle_stops_at_the_slack_floor(terms, start, monkeypatch):
    # two support-polish rows of a distance run (circle, k=2) that crept 34
    # and 40 calls through gains below what the slack of two restored points
    # is worth (|lam| * 1e-13); every other row of that batch made at most 8
    S = make_catalog_set("sphere", n=2, R=1.0)
    f = Polynomial(2, terms)
    calls = []
    original = semialg.restore_feasibility

    def recorder(X, points):
        calls.append(points)
        return original(X, points)

    monkeypatch.setattr(semialg, "restore_feasibility", recorder)
    (point,), (value,) = semialg.local_extremum([f], S, np.array([start]), maximize=True)
    assert len(calls) <= 8
    # reference: Newton on F(t) = f(cos t, sin t) from the start's angle
    c0, b = terms[(0, 0)], np.array([terms[(1, 0)], terms[(0, 1)]])
    Q = np.array([[terms[(2, 0)], terms[(1, 1)] / 2], [terms[(1, 1)] / 2, terms[(0, 2)]]])
    t = np.arctan2(start[1], start[0])
    for _ in range(30):
        x, dx = np.array([np.cos(t), np.sin(t)]), np.array([-np.sin(t), np.cos(t)])
        t -= (b @ dx + 2 * x @ Q @ dx) / (-b @ x + 2 * dx @ Q @ dx - 2 * x @ Q @ x)
    x = np.array([np.cos(t), np.sin(t)])
    assert value == pytest.approx(c0 + b @ x + x @ Q @ x, abs=1e-12)
    assert violation(S, point) <= FEASIBILITY_TOL


@pytest.mark.parametrize("maximize", [True, False])
def test_sampled_extremum_of_a_linear_form_on_the_circle(maximize):
    S = make_catalog_set("sphere", n=2, R=1.0)
    c = np.array([0.6, -1.7])
    f = Polynomial(2, {(1, 0): c[0], (0, 1): c[1]})
    (value,), (point,) = sampled_extremum([f], S, rejection_sample(S, 64, seed=5), 4, maximize)
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
        (value,), (point,) = sampled_extremum([f], S, pool, 0, maximize)
        assert value == best
        assert any(np.array_equal(point, row) for row in pool)
