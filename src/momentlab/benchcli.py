"""Problem-file ingestion, experiment orchestration, rate fitting, and CSV
emission, plus the command-line front end.

Problem files are JSON: an objective polynomial as [exponent-vector,
coefficient] pairs and a set descriptor (full form or catalog shorthand).
Outputs are plot-tool-agnostic CSVs with the seed recorded in every row.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from momentlab import distcone, hierarchy
from momentlab.cdkernel import (
    ReferenceMeasure,
    kernel_eval,
    orthonormal_basis,
    upper_bound_kernel,
    upper_bound_sdp,
)
from momentlab.polycore import Polynomial, l1_norm
from momentlab.sdpcore import SolveOptions
from momentlab.semialg import (
    SemiAlgebraicSet,
    SimpleSetProduct,
    archimedean_augment,
    make_catalog_set,
)


class ProblemFormatError(ValueError):
    pass


class SolverFailure(RuntimeError):
    pass


# ----------------------------------------------------------------------------
# problem files

_POLY_SCHEMA = {
    "type": "array",
    "items": {
        "type": "array",
        "minItems": 2,
        "maxItems": 2,
        "prefixItems": [
            {"type": "array", "items": {"type": "integer", "minimum": 0}},
            {"type": "number"},
        ],
    },
}

PROBLEM_SCHEMA = {
    "type": "object",
    "required": ["objective", "set"],
    "properties": {
        "name": {"type": "string"},
        "objective": _POLY_SCHEMA,
        "set": {
            "type": "object",
            "properties": {
                "catalog": {"type": "string"},
                "n": {"type": "integer", "minimum": 1},
                "R": {"type": "number"},
                "K": {"type": "number"},
                "A": {"type": "array"},
                "b": {"type": "array"},
                "factors": {"type": "array"},
                "inequalities": {"type": "array"},
                "equalities": {"type": "array"},
                "radius": {"type": "number"},
                "lojasiewicz": {
                    "type": "object",
                    "properties": {"exponent": {"type": "number"},
                                   "constant": {"type": "number"}},
                },
                "box": {"type": "array"},
            },
        },
    },
}


def _build_set(doc: dict) -> SemiAlgebraicSet:
    doc = dict(doc)
    if "catalog" in doc:
        kind = doc.pop("catalog")
        radius = doc.pop("radius", None)
        if kind == "box_product":
            doc["factors"] = [tuple(f) for f in doc["factors"]]
        X = make_catalog_set(kind, **doc)
        if radius is not None:
            X = archimedean_augment(X, radius)
        return X
    n = doc.get("n")
    if n is None:
        raise ProblemFormatError("set descriptor needs 'n' (or a catalog shorthand)")

    def polys(key):
        out = []
        for idx, pairs in enumerate(doc.get(key, [])):
            for pair_idx, (alpha, _) in enumerate(pairs):
                if len(alpha) != n:
                    raise ProblemFormatError(
                        f"set.{key}[{idx}][{pair_idx}]: exponent vector of length "
                        f"{len(alpha)} does not match n = {n}")
            out.append(Polynomial.from_pairs(n, pairs))
        return out

    box = None
    if "box" in doc:
        lo, hi = doc["box"]
        box = (np.asarray(lo, dtype=float), np.asarray(hi, dtype=float))
    return make_catalog_set(
        "custom", n=n, inequalities=polys("inequalities"),
        equalities=polys("equalities"), radius=doc.get("radius"),
        lojasiewicz=doc.get("lojasiewicz"), box=box,
        name=doc.get("name", "custom"))


def parse_problem(path):
    """Read a JSON problem file into (objective, set, metadata)."""
    import jsonschema

    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as err:
        raise ProblemFormatError(f"{path}: invalid JSON at line {err.lineno}: {err.msg}")
    try:
        jsonschema.validate(doc, PROBLEM_SCHEMA)
    except jsonschema.ValidationError as err:
        raise ProblemFormatError(f"{path}: {err.json_path}: {err.message}")
    X = _build_set(doc["set"])
    for idx, (alpha, _) in enumerate(doc["objective"]):
        if len(alpha) != X.n:
            raise ProblemFormatError(
                f"{path}: objective[{idx}]: exponent vector of length "
                f"{len(alpha)} does not match n = {X.n}")
    f = Polynomial.from_pairs(X.n, doc["objective"])
    metadata = {"name": doc.get("name", Path(path).stem),
                "set": doc["set"], "path": str(path)}
    return f, X, metadata


# ----------------------------------------------------------------------------
# rate fitting


@dataclass
class RateFit:
    slope: float
    intercept: float
    r_squared: float
    empirical_exponent: float
    predicted_exponent: Optional[float]
    window: tuple
    points_used: int


def fit_rate(series: Sequence, predicted_exponent: Optional[float] = None) -> RateFit:
    """Least-squares slope of log(value) against log(r) over the strictly
    positive entries of the series; the negated slope is the empirical rate."""
    pts = [(float(r), float(v)) for r, v in series if v > 0.0]
    if len(pts) < 3:
        raise ValueError(f"need at least 3 positive points to fit, have {len(pts)}")
    rs = np.log([p[0] for p in pts])
    vs = np.log([p[1] for p in pts])
    slope, intercept = np.polyfit(rs, vs, 1)
    fitted = slope * rs + intercept
    ss_res = float(np.sum((vs - fitted) ** 2))
    ss_tot = float(np.sum((vs - vs.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return RateFit(slope=float(slope), intercept=float(intercept), r_squared=r2,
                   empirical_exponent=float(-slope),
                   predicted_exponent=predicted_exponent,
                   window=(pts[0][0], pts[-1][0]), points_used=len(pts))


# ----------------------------------------------------------------------------
# experiment orchestration


@dataclass
class ExperimentConfig:
    problem: str
    certificates: tuple = ("T",)
    levels: tuple = ()
    sides: tuple = ("moment", "sos")
    k: Optional[int] = None
    directions: int = 16
    seed: int = 0
    tol: float = 1e-7
    max_psd_size: int = 400
    out_dir: str = "."
    with_distance: bool = False
    record_timings: bool = True

    def __post_init__(self):
        if not self.levels:
            raise ProblemFormatError("level range must be nonempty")
        if self.with_distance:
            if self.k is None or self.k < 1:
                raise ProblemFormatError(
                    f"distance runs need a truncation order k >= 1, got {self.k}")
            if self.directions < 1:
                raise ProblemFormatError(
                    f"distance runs need at least one direction, got {self.directions}")


@dataclass
class ExperimentBundle:
    ladder_csv: Path
    distance_csv: Optional[Path]
    lemma_csv: Optional[Path]
    rate_fits: dict
    failures: list
    exact: list = field(default_factory=list)  # certificates whose series is zero
    # a ladder or distance solve raised or stopped short of `optimal`; the
    # monotonicity and rate-fit lines in `failures` do not set it
    solver_failed: bool = False


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def run_experiment(config: ExperimentConfig) -> ExperimentBundle:
    """Ladders for each certificate, optional distance series with rate fits,
    and the error-vs-distance cross-check rows (reported, never asserted,
    since the distance column is an estimate)."""
    f, X, metadata = parse_problem(config.problem)
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    opts = SolveOptions(tol=config.tol)
    failures = []
    solver_failed = False

    ladder_rows = []
    bounds = {}
    for cert in config.certificates:
        try:
            report = hierarchy.run_ladder(f, X, cert, config.levels, opts,
                                          sides=config.sides,
                                          max_psd_size=config.max_psd_size)
        except Exception as err:  # per-task failures recorded, run continues
            failures.append(f"ladder {cert}: {err}")
            solver_failed = True
            continue
        for res in report.results:
            seconds = res.seconds if config.record_timings else 0.0
            ladder_rows.append([res.level, res.certificate, res.side,
                                f"{res.value:.12g}", f"{res.gap:.6g}",
                                res.status, f"{seconds:.3f}", config.seed])
            if res.side == "moment" and res.status == "optimal":
                bounds[(cert, res.level)] = res.value
        failures.extend(report.monotonicity_violations + report.status_notes)
        solver_failed = solver_failed or bool(report.status_notes)
    ladder_csv = out / "ladder.csv"
    _write_csv(ladder_csv, ["level", "certificate", "side", "bound", "gap",
                            "status", "seconds", "seed"], ladder_rows)

    distance_csv = None
    lemma_csv = None
    rate_fits = {}
    exact = []
    if config.with_distance:
        hint = X.lojasiewicz_hint.exponent if X.lojasiewicz_hint else None
        # the directions and the sampled moment support function depend on
        # neither the certificate nor the level: sample them once per run
        support, support_error = None, None
        try:
            support = distcone.sampled_support(X, config.k, config.directions,
                                               config.seed)
        except Exception as err:  # then every level of every series fails
            support_error = err
        distance_rows = []
        series = {}
        for cert in config.certificates:
            values = []
            for r in config.levels:
                try:
                    if support_error is not None:
                        raise support_error
                    val = distcone.hausdorff_lower_bound(
                        X, cert, r, config.k, directions=config.directions,
                        seed=config.seed, opts=opts, max_psd_size=config.max_psd_size,
                        support=support)
                except Exception as err:
                    failures.append(f"distance {cert} r={r}: {err}")
                    solver_failed = True
                    continue
                distance_rows.append([r, cert, f"{val:.12g}", config.directions,
                                      config.seed])
                values.append((r, val))
            series[cert] = values
            if values and all(abs(v) <= 10 * config.tol for _, v in values):
                # an exact relaxation (the circle at k = 2, by the S-lemma):
                # the series is zero up to solver error and has no rate
                exact.append(cert)
                continue
            try:
                rate_fits[cert] = fit_rate(values, predicted_exponent=hint)
            except ValueError as err:
                failures.append(f"rate fit {cert}: {err}")
        distance_csv = out / "distance.csv"
        _write_csv(distance_csv, ["r", "certificate", "lower_bound", "directions",
                                  "seed"], distance_rows)

        fmin = hierarchy.estimate_minimum(f, X, seed=config.seed)
        norm1 = l1_norm(f)
        lemma_rows = []
        for cert in config.certificates:
            for r, dist in series.get(cert, []):
                mlb = bounds.get((cert, r))
                if mlb is None:
                    continue
                lhs = fmin - mlb
                rhs = norm1 * dist
                flagged = lhs > rhs + 10 * config.tol
                lemma_rows.append([r, cert, f"{fmin:.12g}", f"{mlb:.12g}",
                                   f"{norm1:.12g}", f"{dist:.12g}",
                                   int(flagged), config.seed])
        lemma_csv = out / "lemma_check.csv"
        _write_csv(lemma_csv, ["r", "certificate", "fmin_est", "mlb", "l1f",
                               "distance_est", "flagged", "seed"], lemma_rows)

    return ExperimentBundle(ladder_csv=ladder_csv, distance_csv=distance_csv,
                            lemma_csv=lemma_csv, rate_fits=rate_fits,
                            failures=failures, exact=exact,
                            solver_failed=solver_failed)


# ----------------------------------------------------------------------------
# CLI


def _parse_levels(text: str) -> tuple:
    if ".." in text:
        lo, hi = text.split("..")
        return tuple(range(int(lo), int(hi) + 1))
    return tuple(int(t) for t in text.split(","))


def _auto_measure(X: SemiAlgebraicSet, metadata: dict, choice: str):
    doc = metadata.get("set", {})
    kind = doc.get("catalog") if choice == "auto" else choice
    if kind in ("ball", "simplex", "hypercube"):
        scale = doc.get("R", doc.get("K", 1.0)) if choice == "auto" else 1.0
        return ReferenceMeasure(kind, X.n, scale)
    if kind == "box_product":
        if "factors" not in doc:
            raise ProblemFormatError("measure 'box_product' needs a box_product set "
                                     "with 'factors'")
        return SimpleSetProduct(tuple(tuple(f) for f in doc["factors"]))
    raise ProblemFormatError(f"no reference measure for set kind {kind!r}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="momentlab",
                                     description="moment-SOS hierarchy laboratory")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--tol", type=float, default=1e-7)
    parser.add_argument("--max-psd-size", type=int, default=400)
    parser.add_argument("--out-dir", default=".")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve one relaxation level")
    p_solve.add_argument("--problem", required=True)
    p_solve.add_argument("--certificate", choices=["T", "Q", "R"], default="T")
    p_solve.add_argument("--side", choices=["moment", "sos"], default="moment")
    p_solve.add_argument("--level", type=int, required=True)

    p_ladder = sub.add_parser("ladder", help="run a ladder of levels")
    p_ladder.add_argument("--problem", required=True)
    p_ladder.add_argument("--certificate", choices=["T", "Q", "R"], default="T")
    p_ladder.add_argument("--levels", required=True)

    p_upper = sub.add_parser("upper", help="hierarchy of upper bounds")
    p_upper.add_argument("--problem", required=True)
    group = p_upper.add_mutually_exclusive_group(required=True)
    group.add_argument("--level", type=int)
    group.add_argument("--levels", help="range a..b; writes upper.csv with both routes")
    p_upper.add_argument("--certificate", choices=["Q", "T"], default="Q")
    p_upper.add_argument("--measure", default="auto")

    p_dist = sub.add_parser("distance", help="Hausdorff lower-bound series")
    p_dist.add_argument("--problem", required=True)
    p_dist.add_argument("--certificate", choices=["T", "Q", "R"], default="R")
    p_dist.add_argument("--levels", required=True)
    p_dist.add_argument("--k", type=int, required=True)
    p_dist.add_argument("--directions", type=int, default=16)

    p_loj = sub.add_parser("lojfit", help="fit the Lojasiewicz exponent")
    p_loj.add_argument("--problem", required=True)
    p_loj.add_argument("--count", type=int, default=300)

    p_rates = sub.add_parser("rates", help="fit a rate to a series CSV")
    p_rates.add_argument("--input", required=True)
    p_rates.add_argument("--x-column", default="r")
    p_rates.add_argument("--y-column", default="lower_bound")

    p_kernel = sub.add_parser("kernel", help="evaluate a CD kernel")
    p_kernel.add_argument("--set", dest="set_kind",
                          choices=["ball", "simplex", "hypercube"], required=True)
    p_kernel.add_argument("--n", type=int, default=1)
    p_kernel.add_argument("--scale", type=float, default=1.0)
    p_kernel.add_argument("--degree", type=int, required=True)
    p_kernel.add_argument("--eval", dest="eval_points", required=True,
                          help="two points, e.g. '0.3;0.5' or '0.1,0.2;0.3,0.4'")

    args = parser.parse_args(argv)
    try:
        opts = SolveOptions(tol=args.tol)
        if args.command == "solve":
            f, X, _ = parse_problem(args.problem)
            build = (hierarchy.build_moment_relaxation if args.side == "moment"
                     else hierarchy.build_sos_relaxation)
            rel = build(f, X, args.certificate, args.level,
                        max_psd_size=args.max_psd_size)
            value, sol = hierarchy.solve_relaxation(rel, opts)
            print(f"{args.side} bound at level {args.level} "
                  f"({args.certificate}): {value:.9g}  [{sol.status}]")
            if sol.status != "optimal":
                raise SolverFailure(f"solver returned {sol.status}")
        elif args.command == "ladder":
            config = ExperimentConfig(problem=args.problem,
                                      certificates=(args.certificate,),
                                      levels=_parse_levels(args.levels),
                                      seed=args.seed, tol=args.tol,
                                      max_psd_size=args.max_psd_size,
                                      out_dir=args.out_dir)
            bundle = run_experiment(config)
            print(f"wrote {bundle.ladder_csv}")
            for line in bundle.failures:
                print(f"note: {line}", file=sys.stderr)
            if bundle.solver_failed:
                raise SolverFailure("ladder failures recorded")
        elif args.command == "upper":
            f, X, metadata = parse_problem(args.problem)
            measure = _auto_measure(X, metadata, args.measure)
            if args.level is not None:
                value, sol = upper_bound_sdp(f, X, args.certificate, args.level,
                                             measure, opts)
                print(f"upper bound at level {args.level}: {value:.9g}  [{sol.status}]")
                if sol.status != "optimal":
                    raise SolverFailure(f"solver returned {sol.status}")
            else:
                _, x_star = hierarchy.estimate_minimum(f, X, seed=args.seed,
                                                       return_point=True)
                rows, notes = [], []
                for r in _parse_levels(args.levels):
                    t0 = time.perf_counter()
                    ub1, sol = upper_bound_sdp(f, X, args.certificate, r,
                                               measure, opts)
                    if sol.status != "optimal":
                        notes.append(f"upper level {r}: solver status '{sol.status}'; "
                                     f"ub_sdp {ub1:.9g} is not a bound")
                    try:
                        ub2 = upper_bound_kernel(f, measure, r, None, x_star)
                    except ValueError:
                        ub2 = float("nan")
                    rows.append([r, f"{ub1:.12g}", f"{ub2:.12g}", args.measure,
                                 f"{time.perf_counter() - t0:.3f}", sol.status])
                out = Path(args.out_dir)
                out.mkdir(parents=True, exist_ok=True)
                _write_csv(out / "upper.csv",
                           ["level", "ub_sdp", "ub_kernel", "measure", "seconds",
                            "status"],
                           rows)
                print(f"wrote {out / 'upper.csv'}")
                for line in notes:
                    print(f"note: {line}", file=sys.stderr)
                if notes:
                    raise SolverFailure("upper failures recorded")
        elif args.command == "distance":
            config = ExperimentConfig(problem=args.problem,
                                      certificates=(args.certificate,),
                                      levels=_parse_levels(args.levels),
                                      sides=("moment",), k=args.k,
                                      directions=args.directions,
                                      seed=args.seed, tol=args.tol,
                                      max_psd_size=args.max_psd_size,
                                      out_dir=args.out_dir, with_distance=True)
            bundle = run_experiment(config)
            print(f"wrote {bundle.distance_csv}")
            for line in bundle.failures:
                print(f"note: {line}", file=sys.stderr)
            for cert in bundle.exact:
                print(f"{cert}: series is zero within {10 * args.tol:g}; no rate fitted")
            for cert, fit in bundle.rate_fits.items():
                print(f"{cert}: slope {fit.slope:.4f} "
                      f"(empirical exponent {fit.empirical_exponent:.4f}, "
                      f"R^2 {fit.r_squared:.4f})")
            if bundle.solver_failed:
                raise SolverFailure("distance failures recorded")
        elif args.command == "lojfit":
            _, X, _ = parse_problem(args.problem)
            lo, hi = X.bounding_box()
            margin = 0.25 * (hi - lo + 1.0)
            fit = distcone.lojasiewicz_fit(X, (lo - margin, hi + margin),
                                           count=args.count, seed=args.seed)
            print(f"exponent {fit.exponent:.4f}  constant {fit.constant:.4g}  "
                  f"R^2 {fit.r_squared:.4f}  points {fit.points_used}")
        elif args.command == "rates":
            with open(args.input) as fh:
                reader = csv.DictReader(fh)
                series = [(float(row[args.x_column]), float(row[args.y_column]))
                          for row in reader]
            fit = fit_rate(series)
            print(f"slope {fit.slope:.6f}  empirical exponent "
                  f"{fit.empirical_exponent:.6f}  R^2 {fit.r_squared:.4f}")
        elif args.command == "kernel":
            measure = ReferenceMeasure(args.set_kind, args.n, args.scale)
            basis = orthonormal_basis(measure, args.degree)
            text = args.eval_points
            if ";" in text:
                xs, ys = text.split(";")
            else:
                vals = text.split(",")
                xs, ys = ",".join(vals[:args.n]), ",".join(vals[args.n:])
            x = [float(t) for t in xs.split(",")]
            y = [float(t) for t in ys.split(",")]
            value = kernel_eval(basis, x, y)
            print(f"C_{args.degree}({x}, {y}) = {value:.9g}")
    except (ProblemFormatError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (SolverFailure, RuntimeError, np.linalg.LinAlgError) as err:
        print(f"solver failure: {err}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
