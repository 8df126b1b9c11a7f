import json

import numpy as np
import pytest

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
                "radius": 2.0,
                "lojasiewicz": {"exponent": 1.0}},
    }
    path = write_problem(tmp_path, doc)
    f, X, _ = parse_problem(path)
    assert f.degree == 2
    assert X.radius == 2.0
    assert len(X.inequalities) == 3  # two rows plus the appended ball
    assert X.lojasiewicz_hint.exponent == 1.0


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


def test_config_rejects_empty_levels(tmp_path):
    with pytest.raises(ProblemFormatError, match="nonempty"):
        ExperimentConfig(problem="x.json", levels=())


def test_run_experiment_sphere_ladder(tmp_path):
    path = write_problem(tmp_path, SPHERE_PROBLEM)
    config = ExperimentConfig(problem=str(path), certificates=("Q",),
                              levels=(1, 2, 3), seed=3, tol=1e-8,
                              out_dir=str(tmp_path / "out"))
    bundle = run_experiment(config)
    assert not bundle.failures
    rows = bundle.ladder_csv.read_text().splitlines()
    assert rows[0] == "level,certificate,side,bound,gap,status,seconds,seed"
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


def test_cli_kernel(tmp_path, capsys):
    code = main(["kernel", "--set", "ball", "--n", "1", "--degree", "2",
                 "--eval", "1.0;1.0"])
    assert code == 0
    out = capsys.readouterr().out
    assert "= 5" in out


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
    assert lines[0] == "level,ub_sdp,ub_kernel,measure,seconds"
    assert len(lines) == 4
    # with the all-ones default schedule the kernel route returns f(x*) = -1
    first = lines[1].split(",")
    assert float(first[1]) == pytest.approx(-1.0 / np.sqrt(2.0), abs=1e-5)
    assert float(first[2]) == pytest.approx(-1.0, abs=1e-7)


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
