import dataclasses

import numpy as np
import pytest

from momentlab.distcone import (
    CQCReport,
    InsufficientExteriorSamples,
    NonOptimalSolveError,
    cqc_check,
    distance_to_set,
    hausdorff_lower_bound,
    lojasiewicz_fit,
    sampled_support,
    support_gap,
)
from momentlab.polycore import Polynomial, monomial_basis
from momentlab.sdpcore import SolveOptions
from momentlab.semialg import (
    POOL_SIZE,
    SemiAlgebraicSet,
    make_catalog_set,
    rejection_sample,
    violation_many,
)

BALL1 = make_catalog_set("ball", n=1, R=1.0)
SPHERE = make_catalog_set("sphere", n=2, R=1.0)
ORIGIN = make_catalog_set("custom", n=1, equalities=[Polynomial.variable(1, 0)],
                          box=(np.array([-1.0]), np.array([1.0])), name="origin")
SIMPLEX2 = make_catalog_set("simplex", n=2, K=1.0)
DEGENERATE = make_catalog_set("custom", n=1, inequalities=[Polynomial(1, {(2,): 1.0}),
                                                           Polynomial(1, {(2,): -1.0})],
                              box=(np.array([-1.0]), np.array([1.0])), name="degenerate")
TIGHT = SolveOptions(tol=1e-9)


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
    pool = rejection_sample(BALL1, POOL_SIZE, seed)
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
                          seed=0)
    assert fit.exponent == pytest.approx(1.0, abs=0.05)
    assert fit.r_squared > 0.99


def test_lojasiewicz_double_root():
    Xsq = make_catalog_set("custom", n=1,
                           equalities=[Polynomial(1, {(2,): 1.0})],
                           box=(np.array([-1.0]), np.array([1.0])), name="x2=0")
    fit = lojasiewicz_fit(Xsq, (np.array([-1.0]), np.array([1.0])), count=120,
                          seed=1)
    assert fit.exponent == pytest.approx(0.5, abs=0.05)


def test_lojasiewicz_sphere():
    fit = lojasiewicz_fit(SPHERE, (np.array([-1.5, -1.5]), np.array([1.5, 1.5])),
                          count=150, seed=2)
    assert fit.exponent == pytest.approx(1.0, abs=0.05)


def test_lojasiewicz_fit_on_the_cusp():
    # {x2^2 <= x1^3, x1 <= 1} on the lojfit command's box (bounding box plus
    # a quarter of its width plus one on each side). The polish ends near the
    # tip, where points up to ~1e-3 outside X pass the FEASIBILITY_TOL test,
    # so the distances there follow round-off: the one-point-at-a-time polish
    # read 0.4772964153, and moved by up to 1.4e-4 when its exterior points
    # were scaled by (1 + k eps), k = 1..5. The band is that spread, doubled.
    x1, x2 = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    cusp = SemiAlgebraicSet(n=2, inequalities=(x1 ** 3 - x2 * x2, 1.0 - x1),
                            box=(np.array([0.0, -1.0]), np.array([1.0, 1.0])), name="cusp")
    lo, hi = cusp.bounding_box()
    margin = 0.25 * (hi - lo + 1.0)
    fit = lojasiewicz_fit(cusp, (lo - margin, hi + margin), count=64, seed=3)
    assert fit.points_used == 64
    assert fit.exponent == pytest.approx(0.47729641534093226, abs=3e-4)


def test_lojasiewicz_needs_exterior_points():
    whole_line = make_catalog_set("custom", n=1, inequalities=[],
                                  box=(np.array([-1.0]), np.array([1.0])),
                                  name="R")
    with pytest.raises(InsufficientExteriorSamples):
        lojasiewicz_fit(whole_line, (np.array([-1.0]), np.array([1.0])), count=60)


ANNULUS = make_catalog_set(
    "custom", n=2, name="annulus",
    inequalities=[Polynomial(2, {(2, 0): 1.0, (0, 2): 1.0, (0, 0): -1.0}),
                  Polynomial(2, {(2, 0): -1.0, (0, 2): -1.0, (0, 0): 4.0})],
    box=(np.array([-2.0, -2.0]), np.array([2.0, 2.0])))
INTERVAL = make_catalog_set("polytope", A=[[-1.0], [1.0]], b=[0.0, 1.0])
UNIT_SQUARE = make_catalog_set("polytope",
                               A=[[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]],
                               b=[1.0, 1.0, 0.0, 0.0])


@pytest.mark.parametrize("X, x, expected", [
    (INTERVAL, [-0.3], 0.3),
    (INTERVAL, [1.4], 0.4),
    (SPHERE, [0.3, -0.4], 0.5),
    (SPHERE, [1.2, 0.9], 0.5),
    (make_catalog_set("ball", n=3, R=1.0), [1.0, -2.0, 2.0], 2.0),
    (make_catalog_set("ball", n=3, R=1.0), [0.6006, 0.0, 0.8008], 1e-3),
    (ANNULUS, [0.3, 0.4], 0.5),
    (ANNULUS, [-1.8, 2.4], 1.0),
    (UNIT_SQUARE, [1.3, -0.4], 0.5),
    (UNIT_SQUARE, [0.5, 1.02], 0.02),
], ids=["interval-left", "interval-right", "circle-inside", "circle-outside",
        "ball3-far", "ball3-near", "annulus-hole", "annulus-outside",
        "square-corner", "square-edge"])
def test_distance_to_set_closed_form(X, x, expected):
    # |x| - 1 off the unit ball, ||x| - 1| off the circle, the distance to the
    # nearer circle off the annulus 1 <= |x| <= 2, and the box distance
    assert distance_to_set(X, np.array([x]))[0] == pytest.approx(expected, abs=1e-7)


@pytest.mark.parametrize("X, box", [
    (SPHERE, ([-1.5, -1.5], [1.5, 1.5])),
    (UNIT_SQUARE, ([-0.6, -0.6], [1.6, 1.6])),
], ids=["circle", "unit-square"])
def test_lojasiewicz_fit_needs_no_slsqp(monkeypatch, X, box):
    import scipy.optimize

    def refuse(*args, **kwargs):
        raise AssertionError("scipy.optimize.minimize called")

    monkeypatch.setattr(scipy.optimize, "minimize", refuse)
    fit = lojasiewicz_fit(X, (np.array(box[0]), np.array(box[1])), count=80, seed=0)
    assert fit.points_used == 80


def test_cqc_ball_and_simplex():
    rep = cqc_check(BALL1, count=16, seed=0)
    assert rep.holds_on_sample
    assert rep.min_singular_value > 1.0  # gradient -2x has norm 2 on the boundary
    rep2 = cqc_check(SIMPLEX2, count=24, seed=1)
    assert rep2.holds_on_sample


def test_cqc_degenerate():
    rep = cqc_check(DEGENERATE, count=8, seed=2)
    assert not rep.holds_on_sample
    assert rep.min_singular_value <= 1e-6


_X, _Y = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
_DISK = 1.0 - _X * _X - _Y * _Y


@pytest.mark.parametrize("inequalities, holds", [
    ([_DISK, _Y - 1.0], False),
    ([2.0 * _X - _X * _X - _Y * _Y, -2.0 * _X - _X * _X - _Y * _Y], False),
    ([_DISK, _Y - 0.5], True),
], ids=["disk-tangent-line", "tangent-disks", "cut-disk"])
def test_cqc_where_two_constraints_meet(inequalities, holds):
    # the only points of the first two sets are tangency points, where the
    # active gradients are parallel; the cut disk meets its chord at corners
    # (+-sqrt(3)/2, 1/2), where the gradients (-sqrt(3), -1) and (0, 1) have
    # smallest singular value 0.835
    X = make_catalog_set("custom", n=2, inequalities=inequalities,
                         box=(-np.ones(2), np.ones(2)))
    rep = cqc_check(X, count=16, seed=0)
    assert rep.holds_on_sample == holds
    if holds:
        assert rep.min_singular_value == pytest.approx(0.835, abs=1e-3)
    else:
        assert rep.min_singular_value <= 1e-6


def test_cqc_check_needs_no_slsqp(monkeypatch):
    import scipy.optimize

    def refuse(*args, **kwargs):
        raise AssertionError("scipy.optimize.minimize called")

    monkeypatch.setattr(scipy.optimize, "minimize", refuse)
    assert cqc_check(BALL1, count=16, seed=0).holds_on_sample
    assert cqc_check(SIMPLEX2, count=24, seed=1).holds_on_sample
    assert not cqc_check(DEGENERATE, count=8, seed=2).holds_on_sample
    half = SemiAlgebraicSet(n=2, equalities=SPHERE.equalities, inequalities=(_Y,),
                            box=(-np.ones(2), np.ones(2)), name="half circle")
    assert rejection_sample(half, 1000, seed=0).shape == (1000, 2)


def test_cqc_rejects_equalities():
    with pytest.raises(ValueError):
        cqc_check(SPHERE)


def test_support_pool_covers_the_circle():
    from momentlab.semialg import sampled_extremum

    # seed 353062898 once gave a 256-point pool whose gap held the maximizer
    # of direction 11, and the support estimate fell 1.7e-3 short
    seed = 353062898
    pool = rejection_sample(SPHERE, POOL_SIZE, seed)
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
        assert sampled_extremum([p], SPHERE, pool, 4, maximize=True)[0][0] == pytest.approx(
            p.eval_many(circle).max(), abs=1e-8)


@pytest.mark.parametrize("kind, n", [("simplex", 5), ("ball", 8)])
def test_linear_support_on_the_papers_sets(kind, n):
    # the box hits these sets with odds 1/120 and about 1/62; the support of
    # c0 + c'x is max(c0, c0 + max c_i) on the simplex and c0 + |c'| on the ball
    X = make_catalog_set(kind, n=n)
    support = sampled_support(X, 1, 4, 0)
    index = monomial_basis(n, 1).index_of
    for c, value in zip(support.directions, support.h_moment):
        c0 = c[index[(0,) * n]]
        lin = np.array([c[index[tuple(np.eye(n, dtype=int)[i])]] for i in range(n)])
        exact = c0 + (max(0.0, lin.max()) if kind == "simplex" else np.linalg.norm(lin))
        assert value == pytest.approx(exact, abs=1e-12)


def test_hausdorff_with_shared_support_is_bit_identical():
    support = sampled_support(SPHERE, 2, 4, 5)
    assert support.directions.shape == (4, 6)
    assert np.allclose(np.linalg.norm(support.directions, axis=1), 1.0)
    for r in (2, 3):
        alone = hausdorff_lower_bound(SPHERE, "T", r, 2, directions=4, seed=5, opts=TIGHT)
        shared = hausdorff_lower_bound(SPHERE, "T", r, 2, directions=4, seed=5,
                                       opts=TIGHT, support=support)
        assert shared == alone


@pytest.mark.parametrize("X, certificate, r", [
    (BALL1, "T", 1),
    (make_catalog_set("hypercube", n=2), "Q", 1),
    (SPHERE, "T", 2),
], ids=["ball1", "square", "circle"])
def test_hausdorff_lower_bound_is_nondecreasing_in_directions(X, certificate, r):
    # fewer directions draw a prefix of the same directions and support values,
    # and each direction's solve is its own cold solve, so a larger count
    # maximizes over a superset
    wide = sampled_support(X, 2, 12, 0)
    narrow = sampled_support(X, 2, 4, 0)
    assert np.array_equal(narrow.directions, wide.directions[:4])
    assert np.array_equal(narrow.h_moment, wide.h_moment[:4])
    bounds = [hausdorff_lower_bound(X, certificate, r, 2, directions=d, seed=0, opts=TIGHT)
              for d in (1, 4, 12)]
    assert bounds[0] <= bounds[1] <= bounds[2]


@pytest.mark.parametrize("X, certificate, r", [
    (make_catalog_set("hypercube", n=2), "Q", 1),
    (SPHERE, "T", 2),
], ids=["square", "circle"])
def test_hausdorff_lower_bound_does_not_depend_on_the_order_of_directions(X, certificate, r):
    # no direction's solve starts from another's, so the same directions in
    # reverse order give the same maximum, bit for bit
    support = sampled_support(X, 2, 6, 0)
    reverse = dataclasses.replace(support, directions=support.directions[::-1],
                                  h_moment=support.h_moment[::-1])
    forward, backward = (hausdorff_lower_bound(X, certificate, r, 2, directions=6, seed=0,
                                               opts=TIGHT, support=given)
                         for given in (support, reverse))
    assert backward == forward


@pytest.mark.parametrize("k, directions, seed, name",[(3, 4, 5, "k"), (2, 3, 5, "directions"),
                                                        (2, 4, 6, "seed")])
def test_hausdorff_refuses_a_mismatched_support(k, directions, seed, name):
    support = sampled_support(BALL1, 2, 4, 5)
    with pytest.raises(ValueError, match=f"support was sampled with {name}="):
        hausdorff_lower_bound(BALL1, "T", 2, k, directions=directions, seed=seed,
                              support=support)


def test_distance_series_samples_one_pool(tmp_path, monkeypatch):
    import json

    from momentlab import distcone
    from momentlab.benchcli import ExperimentConfig, run_experiment

    pools = []
    original = distcone.rejection_sample

    def counting(X, count, seed, *args, **kwargs):
        pools.append(seed)
        return original(X, count, seed, *args, **kwargs)

    monkeypatch.setattr(distcone, "rejection_sample", counting)
    path = tmp_path / "ball.json"
    path.write_text(json.dumps({"objective": [[[1], 1.0]],
                                "set": {"catalog": "ball", "n": 1, "R": 1.0}}))
    config = ExperimentConfig(problem=str(path), certificates=("T",), levels=(1, 2),
                              sides=("moment",), k=2, directions=3, seed=4,
                              out_dir=str(tmp_path / "out"), with_distance=True)
    bundle = run_experiment(config)
    assert len(bundle.distance_csv.read_text().splitlines()) == 3
    assert pools == [4]


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_support_gap_turns_down_a_direction_that_is_not_finite(value):
    # it used to run 100 000 ADMM evaluations and end at max_iters
    X = make_catalog_set("ball", n=1)
    with pytest.raises(ValueError, match="^objective c has an entry that is not finite$"):
        support_gap(X, "T", 1, 2, np.array([value, 0.0, 1.0]))


def test_a_distance_needs_a_truncation_order_of_at_least_one():
    # at k = 0 the one direction is the constant, whose moment is 1 in both
    # bodies: the bound read 0.0
    X = make_catalog_set("ball", n=1)
    with pytest.raises(ValueError, match=r"^need a truncation order k >= 1, got 0$"):
        hausdorff_lower_bound(X, "T", 1, 0, directions=2, seed=0)
    with pytest.raises(ValueError, match=r"k >= 1"):
        sampled_support(X, 0, 2, 0)
