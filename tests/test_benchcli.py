import dataclasses
import json
import sys

import numpy as np
import pytest

from momentlab import benchcli, hierarchy, semialg
from momentlab.benchcli import (
    ExperimentConfig,
    ProblemFormatError,
    fit_rate,
    main,
    parse_problem,
    run_experiment,
)
from momentlab.polycore import Polynomial


def write_problem(tmp_path, doc, name="problem.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


BALL_PROBLEM = {
    "name": "ball-linear",
    "objective": [[[1], 1.0]],
    "set": {"catalog": "ball", "n": 1, "R": 1.0},
}

SPHERE_PROBLEM = {
    "name": "circle-linear",
    "objective": [[[1, 0], 1.0]],
    "set": {"catalog": "sphere", "n": 2, "R": 1.0},
}


def test_parse_minimal_ball(tmp_path):
    path = write_problem(tmp_path, BALL_PROBLEM)
    f, X, metadata = parse_problem(path)
    assert f == Polynomial.variable(1, 0)
    assert X.radius == 1.0
    assert metadata["name"] == "ball-linear"


def test_parse_sphere_shorthand(tmp_path):
    path = write_problem(tmp_path, SPHERE_PROBLEM)
    _, X, _ = parse_problem(path)
    assert len(X.equalities) == 1
    assert len(X.inequalities) == 1


def test_parse_full_descriptor(tmp_path):
    doc = {
        "objective": [[[2], 1.0], [[1], -3.0]],
        "set": {"n": 1,
                "inequalities": [[[[1], 1.0]], [[[0], 1.0], [[1], -1.0]]],
                "radius": 2.0},
    }
    path = write_problem(tmp_path, doc)
    f, X, _ = parse_problem(path)
    assert f.degree == 2
    assert X.radius == 2.0
    assert len(X.inequalities) == 3  # two rows plus the appended ball


def test_parse_rejects_bad_exponent_length(tmp_path):
    doc = {"objective": [[[1, 0], 1.0]], "set": {"catalog": "ball", "n": 1, "R": 1.0}}
    path = write_problem(tmp_path, doc)
    with pytest.raises(ProblemFormatError, match="length"):
        parse_problem(path)


def test_parse_rejects_schema_violation(tmp_path):
    doc = {"objective": "x+1", "set": {"catalog": "ball", "n": 1, "R": 1.0}}
    path = write_problem(tmp_path, doc)
    with pytest.raises(ProblemFormatError, match="objective"):
        parse_problem(path)


def test_two_parses_check_the_schema_once(tmp_path, monkeypatch):
    import jsonschema

    cls = jsonschema.validators.validator_for(benchcli.PROBLEM_SCHEMA)
    checked = []
    original = cls.check_schema

    def counting(schema, *args, **kwargs):
        checked.append(schema)
        return original(schema, *args, **kwargs)

    monkeypatch.setattr(cls, "check_schema", staticmethod(counting))
    benchcli._problem_validator.cache_clear()
    doc = {"objective": [[[1], 1.0]], "set": {"catalog": "ball", "n": 1, "R": 1.0}}
    path = write_problem(tmp_path, doc)
    parse_problem(path)
    parse_problem(path)
    assert checked == [benchcli.PROBLEM_SCHEMA]


def test_fit_rate_synthetic():
    series = [(r, 3.0 / r**2) for r in range(2, 8)]
    fit = fit_rate(series)
    assert fit.slope == pytest.approx(-2.0, abs=1e-9)
    assert fit.empirical_exponent == pytest.approx(2.0, abs=1e-9)
    linear = [(r, 0.7 / r) for r in range(2, 8)]
    assert fit_rate(linear).slope == pytest.approx(-1.0, abs=1e-9)
    flat = [(r, 1.0) for r in range(2, 8)]
    assert fit_rate(flat).slope == pytest.approx(0.0, abs=1e-12)


def test_fit_rate_filters_nonpositive():
    with pytest.raises(ValueError, match="3 positive"):
        fit_rate([(1, 0.0), (2, -1.0), (3, 1.0), (4, 0.5)])
    # an inf or nan value is skipped like a nonpositive one
    with pytest.raises(ValueError, match="3 positive"):
        fit_rate([(2, 0.25), (3, np.inf), (4, np.nan), (5, 0.04)])
    with pytest.raises(ValueError, match="levels must be finite and positive, got r = 0"):
        fit_rate([(0, 1.0), (2, 0.25), (3, 0.1), (4, 0.0625)])
    with pytest.raises(ValueError, match="2 distinct levels"):
        fit_rate([(3, 0.25), (3, 0.1), (3, 0.0625)])
    fit = fit_rate([(2, 0.25), (3, np.inf), (4, 0.0625), (8, 1 / 64)])
    assert fit.points_used == 3
    assert fit.slope == pytest.approx(-2.0, abs=1e-12)


def test_config_rejects_empty_levels(tmp_path):
    with pytest.raises(ProblemFormatError, match="nonempty"):
        ExperimentConfig(problem="x.json", levels=())


@pytest.mark.parametrize("sides, message", [
    (("foo",), "unknown side 'foo'"),
    (("sos", "sos"), "side 'sos' given twice"),
], ids=["unknown", "repeated"])
def test_config_rejects_bad_sides(sides, message):
    with pytest.raises(ProblemFormatError, match=message):
        ExperimentConfig(problem="x.json", levels=(1,), sides=sides)


def test_distance_run_draws_its_pool_once(tmp_path, monkeypatch):
    # the support values and the lemma rows' minimum estimate read one pool
    path = write_problem(tmp_path, SPHERE_PROBLEM)
    f, X, _ = parse_problem(path)
    fmin = hierarchy.estimate_minimum(f, X, seed=5)
    real, calls = semialg.rejection_sample, []

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("momentlab") and getattr(module, "rejection_sample", None) is real:
            monkeypatch.setattr(module, "rejection_sample", counted)
    config = ExperimentConfig(problem=str(path), certificates=("T",), levels=(1, 2),
                              sides=("moment",), k=2, directions=4, seed=5,
                              out_dir=str(tmp_path / "out"), with_distance=True)
    bundle = run_experiment(config)
    assert len(calls) == 1
    lines = bundle.lemma_csv.read_text().splitlines()
    assert len(lines) == 3
    assert {line.split(",")[2] for line in lines[1:]} == {f"{fmin:.12g}"}


def test_run_experiment_sphere_ladder(tmp_path):
    path = write_problem(tmp_path, SPHERE_PROBLEM)
    config = ExperimentConfig(problem=str(path), certificates=("Q",),
                              levels=(1, 2, 3), seed=3, tol=1e-8,
                              out_dir=str(tmp_path / "out"))
    bundle = run_experiment(config)
    assert not bundle.failures
    rows = bundle.ladder_csv.read_text().splitlines()
    assert rows[0] == "level,certificate,side,bound,gap,status,iterations,seconds,seed"
    # all six bounds (3 levels x 2 sides) sit at -1
    for line in rows[1:]:
        fields = line.split(",")
        assert float(fields[3]) == pytest.approx(-1.0, abs=1e-5)
        assert fields[5] == "optimal"


def test_run_experiment_reproducible_csv(tmp_path):
    path = write_problem(tmp_path, BALL_PROBLEM)

    def run(sub):
        config = ExperimentConfig(problem=str(path), certificates=("T",),
                                  levels=(1, 2), sides=("moment",), k=2,
                                  directions=4, seed=11, tol=1e-8,
                                  out_dir=str(tmp_path / sub),
                                  with_distance=True, record_timings=False)
        return run_experiment(config)

    first = run("a")
    second = run("b")
    assert first.ladder_csv.read_bytes() == second.ladder_csv.read_bytes()
    assert first.distance_csv.read_bytes() == second.distance_csv.read_bytes()
    assert first.lemma_csv.read_bytes() == second.lemma_csv.read_bytes()


def test_run_experiment_lemma_rows(tmp_path):
    path = write_problem(tmp_path, BALL_PROBLEM)
    config = ExperimentConfig(problem=str(path), certificates=("T",),
                              levels=(1, 2), sides=("moment",), k=2,
                              directions=4, seed=5, tol=1e-8,
                              out_dir=str(tmp_path / "out"), with_distance=True)
    bundle = run_experiment(config)
    lines = bundle.lemma_csv.read_text().splitlines()
    assert lines[0].startswith("r,certificate,fmin_est,mlb")
    assert len(lines) == 3
    # exact level-1 relaxation: nothing should be flagged on the ball
    for line in lines[1:]:
        assert line.split(",")[6] == "0"


def test_run_experiment_lemma_rows_skip_capped_levels(tmp_path, monkeypatch):
    # a max_iters value bounds nothing, so its level gets no lemma row
    real = benchcli.hierarchy.run_ladder

    def capped_at_two(*args, **kwargs):
        report = real(*args, **kwargs)
        report.results = [dataclasses.replace(res, status="max_iters") if res.level == 2
                          else res for res in report.results]
        return report

    monkeypatch.setattr(benchcli.hierarchy, "run_ladder", capped_at_two)
    path = write_problem(tmp_path, BALL_PROBLEM)
    config = ExperimentConfig(problem=str(path), certificates=("T",),
                              levels=(1, 2), sides=("moment",), k=2,
                              directions=4, seed=5, tol=1e-8,
                              out_dir=str(tmp_path / "out"), with_distance=True)
    bundle = run_experiment(config)
    lines = bundle.lemma_csv.read_text().splitlines()
    assert len(lines) == 2
    assert lines[1].split(",")[:2] == ["1", "T"]
    ladder = bundle.ladder_csv.read_text()
    assert "max_iters" in ladder


def test_cli_solve_and_exit_codes(tmp_path, capsys):
    path = write_problem(tmp_path, BALL_PROBLEM)
    code = main(["solve", "--problem", str(path), "--certificate", "Q",
                 "--side", "sos", "--level", "1"])
    assert code == 0
    out = capsys.readouterr().out
    assert "sos bound at level 1" in out
    assert "-1" in out


def test_cli_validation_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["solve", "--problem", str(bad), "--level", "1"]) == 2


@pytest.mark.parametrize("tol", ["0", "nan", "-1"])
def test_cli_rejects_a_bad_tolerance(tmp_path, capsys, tol):
    # before any solve: no tolerance of zero or less, or nan, is ever met
    path = write_problem(tmp_path, BALL_PROBLEM)
    assert main(["--tol", tol, "solve", "--problem", str(path), "--level", "1"]) == 2
    assert "tol must be finite and positive" in capsys.readouterr().err


@pytest.mark.parametrize("k, directions, message", [
    ("2", "0", "at least one direction"),
    ("-1", "3", "truncation order k >= 1"),
    ("0", "3", "truncation order k >= 1"),
])
def test_cli_rejects_bad_distance_options(tmp_path, capsys, k, directions, message):
    # refused before any solve: no direction, or an order below one, measures
    # nothing (at k = 0 every series is a vacuous zero)
    path = write_problem(tmp_path, SPHERE_PROBLEM)
    out_dir = tmp_path / "out"
    code = main(["--out-dir", str(out_dir), "distance", "--problem", str(path),
                 "--certificate", "T", "--levels", "1..2", "--k", k,
                 "--directions", directions])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize("command", [
    ["solve", "--level", "1"], ["ladder", "--levels", "1..2"], ["upper", "--levels", "1..2"],
    ["distance", "--levels", "1..2", "--k", "2"], ["lojfit"],
], ids=["solve", "ladder", "upper", "distance", "lojfit"])
def test_cli_reports_a_missing_problem_file(tmp_path, capsys, command):
    out_dir = tmp_path / "out"
    missing = tmp_path / "nope.json"
    code = main(["--out-dir", str(out_dir), command[0], "--problem", str(missing),
                 *command[1:]])
    assert code == 2
    assert f"error: cannot read {missing}: No such file or directory" in capsys.readouterr().err
    assert not out_dir.exists()


def test_cli_solver_failure_exit_code(tmp_path, capsys):
    # -1 - x^2 >= 0 is empty: the moment relaxation is infeasible at level 1
    doc = {"objective": [[[1], 1.0]],
           "set": {"n": 1, "inequalities": [[[[0], -1.0], [[2], -1.0]]],
                   "box": [[-1.0], [1.0]]}}
    path = write_problem(tmp_path, doc, "empty.json")
    code = main(["solve", "--problem", str(path), "--certificate", "Q",
                 "--level", "1"])
    assert code == 3


def test_cli_ladder_and_rates(tmp_path, capsys):
    path = write_problem(tmp_path, BALL_PROBLEM)
    out_dir = tmp_path / "out"
    code = main(["--out-dir", str(out_dir), "ladder", "--problem", str(path),
                 "--certificate", "Q", "--levels", "1..2"])
    assert code == 0
    synthetic = tmp_path / "series.csv"
    synthetic.write_text("r,lower_bound\n2,0.25\n3,0.111111\n4,0.0625\n")
    code = main(["rates", "--input", str(synthetic)])
    assert code == 0
    assert "slope -2" in capsys.readouterr().out


@pytest.mark.parametrize("args, message", [
    (["--input", "missing.csv"], "cannot read"),
    (["--input", "series.csv", "--x-column", "level"], "has no column 'level'"),
    (["--input", "series.csv", "--y-column", "bound"], "has no column 'bound'"),
    (["--input", "short.csv"], "short.csv row 3: missing value in column 'lower_bound'"),
    (["--input", "inf.csv"], "need at least 3 positive points to fit, have 2"),
    (["--input", "same_r.csv"], "need at least 2 distinct levels to fit, have only r = 3"),
    (["--input", "zero_r.csv"], "levels must be finite and positive, got r = 0"),
], ids=["missing-file", "x-column", "y-column", "short-row", "inf-value", "same-r", "zero-r"])
def test_cli_rates_rejects_bad_input(tmp_path, capsys, monkeypatch, args, message):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "series.csv").write_text("r,lower_bound\n2,0.25\n3,0.111111\n4,0.0625\n")
    (tmp_path / "short.csv").write_text("r,lower_bound\n2,0.25\n3\n4,0.0625\n")
    (tmp_path / "inf.csv").write_text("r,lower_bound\n2,0.25\n3,inf\n4,0.0625\n")
    (tmp_path / "same_r.csv").write_text("r,lower_bound\n3,0.25\n3,0.111111\n3,0.0625\n")
    (tmp_path / "zero_r.csv").write_text("r,lower_bound\n0,0.25\n3,0.111111\n4,0.0625\n")
    assert main(["rates", *args]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("command", [["ladder"], ["distance", "--k", "2"], ["upper"]],
                         ids=["ladder", "distance", "upper"])
def test_cli_refuses_an_empty_level_range(tmp_path, capsys, command):
    path = write_problem(tmp_path, BALL_PROBLEM)
    out_dir = tmp_path / "out"
    code = main(["--out-dir", str(out_dir), command[0], "--problem", str(path),
                 "--levels", "3..1", *command[1:]])
    assert code == 2
    assert "error: level range must be nonempty" in capsys.readouterr().err
    assert not out_dir.exists()


def test_cli_kernel(tmp_path, capsys):
    code = main(["kernel", "--set", "ball", "--n", "1", "--degree", "2",
                 "--eval", "1.0;1.0"])
    assert code == 0
    out = capsys.readouterr().out
    assert "= 5" in out


def test_cli_kernel_rejects_a_negative_degree(capsys):
    code = main(["kernel", "--set", "ball", "--n", "1", "--degree", "-1",
                 "--eval", "0.3;0.5"])
    assert code == 2
    assert "error: basis degree must be nonnegative, got -1" in capsys.readouterr().err


@pytest.mark.parametrize("set_doc, message", [
    ({"catalog": "ball", "n": 2, "K": 1.0},
     "catalog set 'ball' does not take key 'K'; it takes n, R"),
    ({"catalog": "polytope", "n": 1, "A": [[1.0], [-1.0]], "b": [1.0, 1.0]},
     "catalog set 'polytope' does not take key 'n'; it takes A, b"),
    ({"catalog": "ball"}, "catalog set 'ball' needs key 'n'; it takes n, R"),
    ({"catalog": "box_product"}, "catalog set 'box_product' needs key 'factors'"),
], ids=["unknown-key", "polytope-n", "missing-n", "missing-factors"])
def test_cli_solve_rejects_bad_catalog_keys(tmp_path, capsys, set_doc, message):
    path = write_problem(tmp_path, {"objective": [[[1], 1.0]], "set": set_doc})
    code = main(["solve", "--problem", str(path), "--level", "1"])
    assert code == 2
    assert f"error: {message}" in capsys.readouterr().err


def test_cli_solve_rejects_an_unknown_key_of_a_set_descriptor(tmp_path, capsys):
    # a misspelt key used to be dropped: the set below became R^1 and the
    # unbounded solve exited 3
    doc = {"objective": [[[1], 1.0]],
           "set": {"n": 1, "inequalites": [[[[0], 1.0], [[2], -1.0]]]}}
    path = write_problem(tmp_path, doc)
    code = main(["solve", "--problem", str(path), "--level", "1"])
    assert code == 2
    assert ("error: set descriptor does not take key 'inequalites'; it takes n, "
            "inequalities, equalities, radius, box, name") in capsys.readouterr().err


def test_cli_solve_reads_the_custom_catalog_shorthand(tmp_path, capsys):
    # {1 - x^2 >= 0} written as a catalog descriptor: its pair lists become
    # polynomials, as in the full descriptor
    doc = {"objective": [[[1], 1.0]],
           "set": {"catalog": "custom", "n": 1, "inequalities": [[[[0], 1.0], [[2], -1.0]]]}}
    path = write_problem(tmp_path, doc)
    code = main(["solve", "--problem", str(path), "--certificate", "Q", "--side", "sos",
                 "--level", "1"])
    assert code == 0
    out = capsys.readouterr().out
    assert "sos bound at level 1" in out
    assert "-1" in out


def test_cli_solve_rejects_a_short_exponent_in_the_custom_shorthand(tmp_path, capsys):
    doc = {"objective": [[[1], 1.0]],
           "set": {"catalog": "custom", "n": 1, "inequalities": [[[[0, 0], 1.0]]]}}
    path = write_problem(tmp_path, doc)
    code = main(["solve", "--problem", str(path), "--level", "1"])
    assert code == 2
    assert ("error: set.inequalities[0][0]: exponent vector of length 2 does not match n = 1"
            in capsys.readouterr().err)


def test_cli_lojfit(tmp_path, capsys):
    doc = {"objective": [[[1, 0], 1.0]],
           "set": {"catalog": "polytope",
                   "A": [[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]],
                   "b": [1.0, 1.0, 0.0, 0.0]}}
    path = write_problem(tmp_path, doc)
    code = main(["lojfit", "--problem", str(path), "--count", "80"])
    assert code == 0
    line = capsys.readouterr().out
    exponent = float(line.split()[1])
    assert 0.8 < exponent < 1.2


@pytest.mark.parametrize("count", ["30", "-5"])
def test_cli_rejects_a_small_lojfit_count(tmp_path, capsys, count):
    # refused before any draw: the fit needs at least 50 exterior points, so
    # a smaller count is an input error, not a sampling failure
    path = write_problem(tmp_path, SPHERE_PROBLEM)
    code = main(["lojfit", "--problem", str(path), "--count", count])
    assert code == 2
    assert f"count must be at least 50, got {count}" in capsys.readouterr().err


def test_cli_upper_single_and_series(tmp_path, capsys):
    path = write_problem(tmp_path, BALL_PROBLEM)
    code = main(["upper", "--problem", str(path), "--level", "1"])
    assert code == 0
    assert "-0.70710" in capsys.readouterr().out

    out_dir = tmp_path / "out"
    code = main(["--out-dir", str(out_dir), "upper", "--problem", str(path),
                 "--levels", "1..3"])
    assert code == 0
    lines = (out_dir / "upper.csv").read_text().splitlines()
    assert lines[0] == "level,ub_sdp,ub_kernel,measure,seconds,status"
    assert len(lines) == 4
    assert [line.split(",")[-1] for line in lines[1:]] == ["optimal"] * 3
    # with the all-ones default schedule the kernel route returns f(x*) = -1
    first = lines[1].split(",")
    assert float(first[1]) == pytest.approx(-1.0 / np.sqrt(2.0), abs=1e-5)
    assert float(first[2]) == pytest.approx(-1.0, abs=1e-7)


def test_cli_upper_refuses_a_measure_off_the_set(tmp_path, capsys):
    # X = [0, 1] with the ball measure of [-1, 1]: no upper bound, exit 2
    doc = {"objective": [[[1], 1.0]],
           "set": {"n": 1, "inequalities": [[[[1], 1.0]], [[[0], 1.0], [[2], -1.0]]]}}
    path = write_problem(tmp_path, doc)
    code = main(["upper", "--problem", str(path), "--level", "2", "--measure", "ball"])
    assert code == 2
    assert "does not live on the set" in capsys.readouterr().err


@pytest.mark.parametrize("measure", ["box_product", "sphere"])
def test_cli_upper_refuses_a_measure_the_set_does_not_describe(tmp_path, capsys, measure):
    # a ball problem names no product factors, and no sphere measure exists
    path = write_problem(tmp_path, BALL_PROBLEM)
    code = main(["upper", "--problem", str(path), "--level", "1", "--measure", measure])
    assert code == 2
    assert f"'{measure}'" in capsys.readouterr().err


def test_cli_upper_series_flags_a_capped_level(tmp_path, capsys, monkeypatch):
    # a capped solve's value is no upper bound: the row keeps its status, the
    # level gets a note and the command exits 3 after writing the file
    real = benchcli.upper_bound_sdp

    def capped_at_level_2(f, X, certificate, r, measure, opts):
        value, sol = real(f, X, certificate, r, measure, opts)
        return value, (dataclasses.replace(sol, status="max_iters") if r == 2 else sol)

    monkeypatch.setattr(benchcli, "upper_bound_sdp", capped_at_level_2)
    path = write_problem(tmp_path, BALL_PROBLEM)
    out_dir = tmp_path / "out"
    code = main(["--out-dir", str(out_dir), "upper", "--problem", str(path),
                 "--levels", "1..3"])
    assert code == 3
    lines = (out_dir / "upper.csv").read_text().splitlines()
    assert [line.split(",")[-1] for line in lines[1:]] == ["optimal", "max_iters", "optimal"]
    err = capsys.readouterr().err
    notes = [line for line in err.splitlines() if line.startswith("note: ")]
    assert len(notes) == 1
    assert "upper level 2: solver status 'max_iters'" in notes[0]


@pytest.mark.parametrize("command, csv, sides", [
    (["ladder"], "ladder.csv", ["moment", "sos"]),
    (["distance", "--k", "2", "--directions", "2"], "distance.csv", ["moment"]),
], ids=["ladder", "distance"])
def test_cli_ladder_and_distance_flag_a_capped_level(tmp_path, capsys, monkeypatch,
                                                     command, csv, sides):
    # a capped ladder row bounds nothing: it keeps its status, gets a note,
    # and the command exits 3 after writing its files
    real = hierarchy.solve_relaxation

    def capped_at_level_2(rel, opts=None, start=None):
        value, sol = real(rel, opts, start)
        return value, (dataclasses.replace(sol, status="max_iters") if rel.level == 2 else sol)

    monkeypatch.setattr(hierarchy, "solve_relaxation", capped_at_level_2)
    path = write_problem(tmp_path, BALL_PROBLEM)
    out_dir = tmp_path / "out"
    code = main(["--out-dir", str(out_dir), command[0], "--problem", str(path),
                 "--certificate", "T", "--levels", "1..3"] + command[1:])
    assert code == 3
    assert (out_dir / csv).exists()
    lines = (out_dir / "ladder.csv").read_text().splitlines()
    statuses = [line.split(",")[5] for line in lines[1:]]
    assert statuses == [s for r in (1, 2, 3) for s in
                        ["max_iters" if r == 2 else "optimal"] * len(sides)]
    notes = [line for line in capsys.readouterr().err.splitlines()
             if line.startswith("note: ")]
    assert [note.split(" stopped")[0] for note in notes] == [
        f"note: T/{side}: level 2" for side in sides]


@pytest.mark.parametrize("command", [["ladder"], ["distance", "--k", "2", "--directions", "2"]])
def test_cli_max_psd_size_reaches_the_builders(tmp_path, capsys, command):
    # level 1 on the circle has a 3x3 moment block: a cap of 2 refuses it
    path = write_problem(tmp_path, SPHERE_PROBLEM)

    def run(cap):
        return main(["--out-dir", str(tmp_path / "out"), "--max-psd-size", str(cap),
                     command[0], "--problem", str(path), "--certificate", "Q",
                     "--levels", "1"] + command[1:])

    assert run(2) == 3
    assert "PSD block of size 3 exceeds cap 2" in capsys.readouterr().err
    assert run(3) == 0


def test_cli_distance_zero_series_fits_no_rate(tmp_path, capsys):
    # on the circle the order-2 relaxation is exact (S-lemma): the series is
    # zero up to solver error, so it has no rate and no fit failure
    path = write_problem(tmp_path, SPHERE_PROBLEM)
    code = main(["--out-dir", str(tmp_path / "out"), "distance", "--problem", str(path),
                 "--certificate", "T", "--levels", "1..2", "--k", "2",
                 "--directions", "3"])
    captured = capsys.readouterr()
    assert code == 0
    assert "T: series is zero within 1e-06; no rate fitted" in captured.out
    assert "rate fit" not in captured.err
    assert "slope" not in captured.out


def test_run_experiment_short_nonzero_series_records_fit_failure(tmp_path, monkeypatch):
    from momentlab import distcone

    monkeypatch.setattr(distcone, "hausdorff_lower_bound",
                        lambda X, cert, r, k, **kwargs: 0.5 / r)
    path = write_problem(tmp_path, BALL_PROBLEM)
    config = ExperimentConfig(problem=str(path), certificates=("T",), levels=(1, 2),
                              sides=("moment",), k=2, directions=2, seed=1,
                              out_dir=str(tmp_path / "out"), with_distance=True)
    bundle = run_experiment(config)
    assert bundle.exact == []
    assert bundle.rate_fits == {}
    assert bundle.failures == ["rate fit T: need at least 3 positive points to fit, have 2"]


def test_cli_solve_names_an_objective_coefficient_that_is_not_finite(tmp_path, capsys):
    # json reads NaN and the schema's number takes it; the solve used to
    # fail inside the ADMM's projection with "Eigenvalues did not converge"
    path = write_problem(tmp_path, {**BALL_PROBLEM, "objective": [[[1], float("nan")]]})
    code = main(["solve", "--problem", str(path), "--level", "1"])
    assert code == 2
    assert "error: objective c has an entry that is not finite" in capsys.readouterr().err
