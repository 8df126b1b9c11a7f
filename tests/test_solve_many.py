"""sdpcore.solve_many: one lockstep interior-point run over many objectives on
one program, each objective certified by its own sdpcore.solve call."""

import numpy as np
import pytest

from momentlab import sdpcore
from momentlab.hierarchy import build_moment_relaxation
from momentlab.polycore import Polynomial, monomial_basis
from momentlab.sdpcore import SolveOptions, solve, solve_many
from momentlab.semialg import make_catalog_set

CASES = {
    "circle-T2": (make_catalog_set("sphere", n=2, R=1.0), "T", 2),
    "circle-T4": (make_catalog_set("sphere", n=2, R=1.0), "T", 4),
    "square-Q1": (make_catalog_set("hypercube", n=2), "Q", 1),
    "interval-T2": (make_catalog_set("ball", n=1), "T", 2),
}


def directions(case: str, count: int = 8, seed: int = 0):
    """(program, objectives): the support-function SDP of a set at one level
    in `count` random directions over the monomials of degree at most 2, as
    distcone.hausdorff_lower_bound builds them."""
    X, certificate, r = CASES[case]
    basis = monomial_basis(X.n, 2)
    rel, objectives = None, []
    for c in np.random.default_rng(seed).normal(size=(count, len(basis))):
        p = Polynomial.from_vector(basis, c / np.linalg.norm(c))
        rel = (build_moment_relaxation(-p, X, certificate, r) if rel is None
               else rel.with_objective(-p))
        objectives.append(rel.program.c)
    return rel.program, objectives


def agrees(a, b):
    # batched and lone LAPACK calls may round differently, so not bit for bit
    return abs(a - b) <= 1e-9 * (1.0 + abs(b))


@pytest.mark.parametrize("case", sorted(CASES))
def test_solve_many_matches_lone_solves(case):
    program, objectives = directions(case)
    many = solve_many(program, objectives)
    for sol, c in zip(many, objectives):
        lone = solve(program.with_objective(c))
        assert sol.status == lone.status == "optimal"
        assert agrees(sol.primal_value, lone.primal_value)
        assert agrees(sol.dual_value, lone.dual_value)
        assert sol.iterations == 0


def test_solve_many_of_one_objective_is_solve():
    program, objectives = directions("circle-T4", count=1)
    (sol,) = solve_many(program, objectives)
    lone = solve(program.with_objective(objectives[0]))
    assert sol.status == lone.status
    assert agrees(sol.primal_value, lone.primal_value)
    assert solve_many(program, []) == []


def test_solve_many_sends_an_objective_the_lockstep_left_short_on_alone():
    # at 10 steps some circle directions have passed the stopping rule and
    # some have not; those go on alone and get the lone solve's status
    program, objectives = directions("circle-T2")
    capped = SolveOptions(max_iters=10)
    lone = [solve(program.with_objective(c), capped) for c in objectives]
    assert {sol.status for sol in lone} == {"optimal", "max_iters"}
    for sol, alone in zip(solve_many(program, objectives, capped), lone):
        assert sol.status == alone.status
        assert agrees(sol.primal_value, alone.primal_value)
        assert sol.iterations == (0 if alone.status == "optimal" else alone.iterations)


def test_solve_many_makes_one_solve_call_per_objective(monkeypatch):
    calls = []
    original = sdpcore.solve

    def counting(program, *args, **kwargs):
        calls.append(program)
        return original(program, *args, **kwargs)

    monkeypatch.setattr(sdpcore, "solve", counting)
    program, objectives = directions("square-Q1")
    solve_many(program, objectives)
    assert len(calls) == len(objectives)
    for called, c in zip(calls, objectives):
        assert np.array_equal(called.c, c)


def test_solve_many_logs_one_event(caplog):
    program, objectives = directions("circle-T2")
    with caplog.at_level("DEBUG", logger="momentlab"):
        solve_many(program, objectives, SolveOptions(max_iters=10))
    events = [rec.getMessage() for rec in caplog.records
              if rec.name == "momentlab" and rec.getMessage().startswith("solve_many")]
    assert len(events) == 1
    assert events[0].startswith("solve_many 8 objectives, 16 rows: 10 lockstep steps; ")
    accepted = int(events[0].split("; ")[1].split(" accepted")[0])
    alone = events[0].split("went on alone: ")[1].split(", ")
    assert accepted + len(alone) == 8
    assert all(entry.endswith("(stopped by the cap of 10 steps)") for entry in alone)


def test_solve_many_counts_only_the_steps_some_direction_took(caplog, monkeypatch):
    # from the lockstep's fourth step on, every step length is NaN: both
    # directions stop at step 3 by a non-finite step, and the lone solves,
    # which step one direction at a time, are left alone
    original = sdpcore._Newton.steps_to_boundary
    lockstep_calls = []

    def failing(self, dx, ds):
        t = original(self, dx, ds)
        if dx.shape[0] > 1:
            lockstep_calls.append(dx.shape[0])
            if len(lockstep_calls) > 6:
                t[:] = np.nan
        return t

    monkeypatch.setattr(sdpcore._Newton, "steps_to_boundary", failing)
    program, objectives = directions("circle-T2", count=2)
    with caplog.at_level("DEBUG", logger="momentlab"):
        many = solve_many(program, objectives)
    events = [rec.getMessage() for rec in caplog.records
              if rec.name == "momentlab" and rec.getMessage().startswith("solve_many")]
    assert events == ["solve_many 2 objectives, 16 rows: 3 lockstep steps; 0 accepted at "
                      "iteration 0; went on alone: 0 (stopped by a non-finite step), "
                      "1 (stopped by a non-finite step)"]
    for sol, c in zip(many, objectives):
        lone = solve(program.with_objective(c))
        assert sol.status == lone.status == "optimal"
        assert sol.iterations == lone.iterations


def test_solve_many_turns_down_an_objective_with_a_nan():
    program, objectives = directions("circle-T2", count=3)
    objectives[1] = objectives[1].copy()
    objectives[1][2] = np.nan
    with pytest.raises(ValueError, match="^objective c has an entry that is not finite$"):
        solve_many(program, objectives)
