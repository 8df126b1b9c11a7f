"""The three workloads: seeded inputs, one timed pass each, output checks.

A workload has four steps, and only `run` is timed:

* `inputs(seed, index)` returns plain data (objective coefficients and
  seeds) and is a pure function of its arguments;
* `prepare(inputs, workdir)` turns it into what the program receives:
  problem files and momentlab objects;
* `run(prepared, outdir)` makes the calls a user's command makes;
* `check(prepared, raw)` compares the outputs with independent references
  and returns one `Op` per operation the workload asked for, plus the
  failure lines the program printed itself.

Every random objective has Gaussian coefficients over the monomial basis of
its degree: a fixed draw (`BASE_SEED`) plus a seeded jitter (`JITTER`).
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Timed calls go through module attributes (`cdkernel.upper_bound_sdp`), never
# through names bound here, so that the tracer's wrappers see every call.
from momentlab import benchcli, cdkernel, distcone, hierarchy
from momentlab.polycore import Polynomial, monomial_basis
from momentlab.sdpcore import SolveOptions
from momentlab.semialg import SimpleSetProduct, make_catalog_set

# Slack for "agrees with" and "does not cross": solver residuals are 1e-7
# relative, so values of order one differ by up to about 1e-6 between sides.
CHECK_TOL = 1e-5

# Iteration cap for the simplex case that ends at max_iters (ROADMAP item 4).
# At the default 100 000 it would take 30 s of every pass.
ITEM4_MAX_ITERS = 5000


# Plain N(0, 1) objectives differ too much in difficulty for the figures of
# two seeds to be comparable: over twelve draws the r=4 upper-bound solve on
# the 2-ball took 7k to 51k ADMM iterations, and over six draws a ladder pass
# took 4.6 s to 10.2 s. So the seed moves each coefficient by N(0, JITTER^2)
# around one fixed N(0, 1) draw per objective slot.
BASE_SEED = 0
JITTER = 0.01


@dataclass
class Op:
    """One solve, bound, distance value or fit that the workload asked for."""

    label: str
    value: float = math.nan
    status: str = "optimal"
    error: str = ""    # set when the call raised or the output is missing
    reason: str = ""   # set when the value failed a check

    @property
    def failed(self) -> bool:
        return self.status != "optimal" or bool(self.error) or bool(self.reason)

    @property
    def wrong(self) -> bool:
        """A raised call or a value that failed its check. An honest
        non-optimal status counts as failed but not as wrong."""
        return bool(self.error) or bool(self.reason)


@dataclass
class Checked:
    ops: list
    notes: list        # failure lines momentlab reported itself
    solves: int        # sdpcore.solve calls the workload's outputs account for


def _gaussian_pairs(rng, slot: int, n: int, degree: int) -> list:
    """Objective coefficients as [exponent, coefficient] pairs for slot `slot`."""
    basis = monomial_basis(n, degree)
    base = np.random.default_rng([BASE_SEED, slot]).normal(size=len(basis))
    coeffs = base + JITTER * rng.normal(size=len(basis))
    return [[list(alpha), float(c)] for alpha, c in zip(basis.exponents, coeffs)]


def _write_problem(path: Path, name: str, pairs: list, set_doc: dict) -> str:
    path.write_text(json.dumps({"name": name, "objective": pairs, "set": set_doc}))
    return str(path)


def _read_csv(path) -> list:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _fail_if(op: Op, condition: bool, reason: str) -> None:
    if condition and not op.failed:
        op.reason = reason


def _experiment(config):
    """benchcli.run_experiment, or the error text when it raised."""
    try:
        return benchcli.run_experiment(config)
    except Exception as err:  # every expected output of the run then fails
        return f"run_experiment raised {type(err).__name__}: {err}"


def _guarded(ops: list, label: str, call):
    """Run one operation the workload asks for; a raise becomes a failed op."""
    try:
        return call()
    except Exception as err:  # any raise is a failed operation, the pass goes on
        ops.append(Op(label, error=f"{type(err).__name__}: {err}"))
        return None


# ----------------------------------------------------------------------------
# ladder: `momentlab ladder`, i.e. run_experiment -> run_ladder, both sides


class Ladder:
    name = "ladder"
    levels = (2, 3, 4)
    sides = ("moment", "sos")
    # (case, certificate, set descriptor, number of variables)
    cases = (("ball3", "Q", {"catalog": "ball", "n": 3, "R": 1.0}, 3),
             ("simplex2", "T", {"catalog": "simplex", "n": 2, "K": 1.0}, 2))

    def inputs(self, seed: int, index: int) -> dict:
        rng = np.random.default_rng([seed, index, 1])
        return {"seed": int(rng.integers(2 ** 31)),
                "objectives": {case: _gaussian_pairs(rng, slot, n, 4)
                               for slot, (case, _, _, n) in enumerate(self.cases)}}

    def prepare(self, inputs: dict, workdir: Path) -> dict:
        problems = {}
        for case, cert, set_doc, _ in self.cases:
            problems[case] = _write_problem(workdir / f"{case}.json", case,
                                            inputs["objectives"][case], set_doc)
        x1, x2 = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
        item4 = (x1 ** 3 - x1 * x2 + x2 ** 4 + 0.3 * x2,
                 make_catalog_set("simplex", n=2, K=1.0))
        return {"inputs": inputs, "problems": problems, "item4": item4}

    def run(self, prep: dict, outdir: Path) -> dict:
        bundles, errors = {}, []
        for case, cert, _, _ in self.cases:
            config = benchcli.ExperimentConfig(
                problem=prep["problems"][case], certificates=(cert,),
                levels=self.levels, sides=self.sides,
                seed=prep["inputs"]["seed"], out_dir=str(outdir / case))
            bundles[case] = _experiment(config)
        f, X = prep["item4"]
        item4 = _guarded(errors, "item4", lambda: hierarchy.run_ladder(
            f, X, "Q", (3,), SolveOptions(max_iters=ITEM4_MAX_ITERS), sides=self.sides))
        return {"bundles": bundles, "item4": item4, "errors": errors}

    def check(self, prep: dict, raw: dict) -> Checked:
        ops, notes, solves = [], [], 0
        seed = prep["inputs"]["seed"]
        for case, cert, _, _ in self.cases:
            bundle = raw["bundles"][case]
            rows, missing = {}, bundle
            if not isinstance(bundle, str):
                notes += bundle.failures
                rows = {(int(r["level"]), r["side"]): r for r in _read_csv(bundle.ladder_csv)}
                solves += len(rows)
                missing = "no ladder row"
            f, X, _ = benchcli.parse_problem(prep["problems"][case])
            fmin = hierarchy.estimate_minimum(f, X, seed=seed)
            ladder = {}
            for r in self.levels:
                for side in self.sides:
                    label = f"{case}/{cert}/r={r}/{side}"
                    row = rows.get((r, side))
                    if row is None:
                        op = Op(label, error=missing)
                    else:
                        op = Op(label, value=float(row["bound"]), status=row["status"])
                    ops.append(op)
                    ladder[(r, side)] = op
            check_ladder(ladder, self.levels, self.sides, fmin)
        ops += raw["errors"]
        if raw["item4"] is not None:
            f, X = prep["item4"]
            fmin = hierarchy.estimate_minimum(f, X, seed=seed)
            ladder = {}
            for res in raw["item4"].results:
                op = Op(f"item4/Q/r={res.level}/{res.side}", value=res.value,
                        status=res.status)
                ops.append(op)
                ladder[(res.level, res.side)] = op
                solves += 1
            notes += raw["item4"].monotonicity_violations
            check_ladder(ladder, (3,), self.sides, fmin)
        return Checked(ops, notes, solves)


def check_ladder(ladder: dict, levels, sides, fmin: float) -> None:
    """Mark ops whose values break the ladder's invariants.

    Lower bounds stay at or below the estimated minimum (an upper estimate of
    the true minimum), the two sides of a level agree, and values do not fall
    as the level rises.
    """
    for r in levels:
        for side in sides:
            op = ladder[(r, side)]
            _fail_if(op, op.value > fmin + CHECK_TOL,
                     f"bound {op.value:.9g} above estimated minimum {fmin:.9g}")
        if len(sides) == 2:
            a, b = (ladder[(r, s)] for s in sides)
            if a.status == b.status == "optimal" and abs(a.value - b.value) > CHECK_TOL:
                for op in (a, b):
                    _fail_if(op, True, f"sides disagree by {abs(a.value - b.value):.3g}")
    for side in sides:
        for lo, hi in zip(levels, levels[1:]):
            prev, cur = ladder[(lo, side)], ladder[(hi, side)]
            if prev.status == "optimal":
                _fail_if(cur, cur.value < prev.value - CHECK_TOL,
                         f"value fell from {prev.value:.9g} at r={lo}")


# ----------------------------------------------------------------------------
# distance: `momentlab distance` then `momentlab lojfit` on the circle


class Distance:
    name = "distance"
    levels = (2, 4)
    k = 2
    directions = 24
    fit_count = 64
    set_doc = {"catalog": "sphere", "n": 2, "R": 1.0}
    exponent_band = (0.85, 1.15)

    def inputs(self, seed: int, index: int) -> dict:
        rng = np.random.default_rng([seed, index, 2])
        return {"seed": int(rng.integers(2 ** 31)),
                "fit_seed": int(rng.integers(2 ** 31)),
                "objective": _gaussian_pairs(rng, 2, 2, 4)}

    def prepare(self, inputs: dict, workdir: Path) -> dict:
        problem = _write_problem(workdir / "circle.json", "circle",
                                 inputs["objective"], self.set_doc)
        return {"inputs": inputs, "problem": problem,
                "circle": make_catalog_set("sphere", n=2, R=1.0)}

    def run(self, prep: dict, outdir: Path) -> dict:
        config = benchcli.ExperimentConfig(
            problem=prep["problem"], certificates=("T",), levels=self.levels,
            sides=("moment",), k=self.k, directions=self.directions,
            seed=prep["inputs"]["seed"], out_dir=str(outdir), with_distance=True)
        errors = []
        bundle = _experiment(config)
        # the box `momentlab lojfit` samples from: the bounding box plus a margin
        X = prep["circle"]
        lo, hi = X.bounding_box()
        margin = 0.25 * (hi - lo + 1.0)
        fit = _guarded(errors, "lojfit", lambda: distcone.lojasiewicz_fit(
            X, (lo - margin, hi + margin), count=self.fit_count,
            seed=prep["inputs"]["fit_seed"]))
        return {"bundle": bundle, "fit": fit, "errors": errors}

    def check(self, prep: dict, raw: dict) -> Checked:
        ops, notes, solves = list(raw["errors"]), [], 0
        bundle = raw["bundle"]
        rows, dists, missing = {}, {}, bundle
        if not isinstance(bundle, str):
            notes += bundle.failures
            rows = {int(r["level"]): r for r in _read_csv(bundle.ladder_csv)}
            dists = {int(r["r"]): float(r["lower_bound"]) for r in _read_csv(bundle.distance_csv)}
            missing = "no row"
        f, X, _ = benchcli.parse_problem(prep["problem"])
        fmin = hierarchy.estimate_minimum(f, X, seed=prep["inputs"]["seed"])
        ladder = {}
        for r in self.levels:
            label, row = f"circle/T/r={r}/moment", rows.get(r)
            op = (Op(label, error=missing) if row is None
                  else Op(label, value=float(row["bound"]), status=row["status"]))
            ops.append(op)
            ladder[(r, "moment")] = op
        check_ladder(ladder, self.levels, ("moment",), fmin)
        # one solve per ladder row, and one per direction for each distance
        solves += len(rows) + self.directions * len(dists)
        for r in self.levels:
            label = f"circle/T/k={self.k}/r={r}/distance"
            ops.append(Op(label, error=missing) if r not in dists
                       else check_distance(label, dists[r]))
        if raw["fit"] is not None:
            ops.append(check_exponent("circle/lojfit", raw["fit"].exponent, self.exponent_band))
        return Checked(ops, notes, solves)


def check_distance(label: str, value: float) -> Op:
    """On the circle the order-2 relaxation is exact: the distance is zero up
    to solver error. The series is never fitted; it is noise."""
    op = Op(label, value=value)
    _fail_if(op, abs(value) > CHECK_TOL, f"distance {value:.3g} is not zero")
    return op


def check_exponent(label: str, exponent: float, band) -> Op:
    op = Op(label, value=exponent)
    _fail_if(op, not band[0] <= exponent <= band[1],
             f"exponent {exponent:.4f} outside [{band[0]}, {band[1]}]")
    return op


# ----------------------------------------------------------------------------
# upper: `momentlab upper --levels 2..4` on the 2-ball, plus a harmonic bound


class Upper:
    name = "upper"
    levels = (2, 3, 4)
    harmonic_k = 4
    # With the Chebyshev measure on [-1, 1] the diagonal kernel of every
    # degree j >= 1 peaks at 2 (at the end points), so on a product of two
    # intervals the bound is sqrt(2 * 2) for every k >= 1.
    harmonic_exact = 2.0

    def inputs(self, seed: int, index: int) -> dict:
        rng = np.random.default_rng([seed, index, 3])
        return {"seed": int(rng.integers(2 ** 31)),
                "objective": _gaussian_pairs(rng, 3, 2, 4)}

    def prepare(self, inputs: dict, workdir: Path) -> dict:
        return {"inputs": inputs,
                "f": Polynomial.from_pairs(2, inputs["objective"]),
                "ball": make_catalog_set("ball", n=2, R=1.0),
                "measure": cdkernel.ReferenceMeasure("ball", 2, 1.0),
                "intervals": SimpleSetProduct((("ball", 1, 1.0), ("ball", 1, 1.0)))}

    def run(self, prep: dict, outdir: Path) -> dict:
        f, X, mu = prep["f"], prep["ball"], prep["measure"]
        opts = SolveOptions()
        errors = []
        found = _guarded(errors, "estimate_minimum", lambda: hierarchy.estimate_minimum(
            f, X, seed=prep["inputs"]["seed"], return_point=True))
        levels = {}
        if found is not None:
            x_star = found[1]
            for r in self.levels:
                sdp = _guarded(errors, f"ub_sdp/r={r}",
                               lambda: cdkernel.upper_bound_sdp(f, X, "Q", r, mu, opts))
                kern = _guarded(errors, f"ub_kernel/r={r}",
                                lambda: cdkernel.upper_bound_kernel(f, mu, r, None, x_star))
                levels[r] = (sdp, kern)
        harmonic = _guarded(errors, "harmonic", lambda: cdkernel.harmonic_constant_bound(
            prep["intervals"], self.harmonic_k))
        return {"found": found, "levels": levels, "harmonic": harmonic, "errors": errors}

    def check(self, prep: dict, raw: dict) -> Checked:
        ops, solves = list(raw["errors"]), 0
        lower, sol = hierarchy.solve_relaxation(
            hierarchy.build_sos_relaxation(prep["f"], prep["ball"], "Q", max(self.levels)))
        if sol.status != "optimal":
            lower = math.inf  # no valid reference: every bound below fails
        if raw["found"] is not None:
            ops.append(Op("estimate_minimum", value=raw["found"][0]))
        prev = None
        for r in self.levels:
            sdp, kern = raw["levels"].get(r, (None, None))
            if sdp is not None:
                solves += 1
                op = Op(f"ub_sdp/Q/r={r}", value=sdp[0], status=sdp[1].status)
                _fail_if(op, op.value < lower - CHECK_TOL,
                         f"upper bound {op.value:.9g} below SOS bound {lower:.9g}")
                if prev is not None and prev.status == "optimal":
                    _fail_if(op, op.value > prev.value + CHECK_TOL,
                             f"upper bound rose from {prev.value:.9g}")
                ops.append(op)
                prev = op
            if kern is not None:
                op = Op(f"ub_kernel/r={r}", value=kern)
                _fail_if(op, kern < lower - CHECK_TOL,
                         f"kernel bound {kern:.9g} below SOS bound {lower:.9g}")
                ops.append(op)
        if raw["harmonic"] is not None:
            op = Op(f"harmonic/k={self.harmonic_k}", value=raw["harmonic"])
            _fail_if(op, abs(op.value - self.harmonic_exact) > CHECK_TOL,
                     f"harmonic bound {op.value:.9g} is not {self.harmonic_exact}")
            ops.append(op)
        return Checked(ops, [], solves)


WORKLOADS = {w.name: w for w in (Ladder(), Distance(), Upper())}
