"""Self-tests of the benchmark: python3 -m pytest perfbench/test_perfbench.py"""

import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from momentlab import hierarchy, make_catalog_set, Polynomial  # noqa: E402

import tracer  # noqa: E402
from workloads import WORKLOADS, Op, check_distance, check_exponent, check_ladder  # noqa: E402


def _sites():
    """Every binding site of every traced callable, with its current value."""
    out = []
    for _, owner, attr, original in tracer.traced_functions():
        for ns, name in tracer.binding_sites(owner, attr, original):
            out.append((ns, name, original))
    return out


def _small_ladder():
    x = Polynomial.variable(1, 0)
    return hierarchy.run_ladder(x, make_catalog_set("ball", n=1, R=1.0), "Q", (1, 2))


def test_untraced_run_leaves_wrapped_attributes_identical():
    sites = _sites()
    assert len(sites) > 60
    _small_ladder()
    assert all(vars(ns)[name] is original for ns, name, original in sites)

    t = tracer.Tracer()
    t.install()
    try:
        assert all(vars(ns)[name] is not original for ns, name, original in sites)
    finally:
        t.uninstall()
    assert all(vars(ns)[name] is original for ns, name, original in sites)


def test_from_imported_names_are_wrapped():
    import momentlab
    from momentlab import distcone, polycore, semialg

    t = tracer.Tracer()
    t.install()
    try:
        for fn in (distcone.build_moment_relaxation, semialg.eval_poly,
                   momentlab.eval_poly, polycore.Polynomial.gradient,
                   hierarchy.rejection_sample):
            assert hasattr(fn, "__wrapped__"), fn
    finally:
        t.uninstall()
    assert not hasattr(distcone.build_moment_relaxation, "__wrapped__")


def test_traced_counts_and_self_times_reconcile():
    t = tracer.Tracer()
    t.install()
    try:
        with t.root("bench.test") as rec:
            report = _small_ladder()
    finally:
        t.uninstall()
    assert t.counts["sdpcore.solve"] == len(report.results) == len(t.solves)
    assert t.counts["hierarchy.build_moment_relaxation"] == 2
    wall = rec[3] - rec[2]
    assert sum(t.self_times().values()) == pytest.approx(wall, rel=1e-9)
    names = [s[0] for s in t.spans]
    solve = names.index("sdpcore.solve")
    assert names[t.spans[solve][1]] == "hierarchy.solve_relaxation"


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_are_a_pure_function_of_the_seed(name, tmp_path):
    wl = WORKLOADS[name]
    assert wl.inputs(3, 1) == wl.inputs(3, 1)
    assert wl.inputs(3, 1) != wl.inputs(4, 1)
    assert wl.inputs(3, 1) != wl.inputs(3, 2)
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    b.mkdir()
    wl.prepare(wl.inputs(3, 1), a)
    wl.prepare(wl.inputs(3, 1), b)
    files = sorted(p.name for p in a.iterdir())
    assert files == sorted(p.name for p in b.iterdir())
    for f in files:
        assert (a / f).read_bytes() == (b / f).read_bytes()


def _ladder(values, status="optimal"):
    return {(r, side): Op(f"r={r}/{side}", value=v, status=status)
            for (r, side), v in values.items()}


def test_check_ladder_accepts_consistent_values():
    ops = _ladder({(2, "moment"): -1.0, (2, "sos"): -1.0 - 1e-7,
                   (3, "moment"): -0.9, (3, "sos"): -0.9})
    check_ladder(ops, (2, 3), ("moment", "sos"), fmin=-0.8)
    assert not any(op.failed for op in ops.values())


@pytest.mark.parametrize("key,value,reason", [
    ((3, "sos"), -0.7, "above estimated minimum"),
    ((3, "sos"), -0.9 + 1e-3, "sides disagree"),
    ((3, "moment"), -1.1, "fell"),
])
def test_perturbed_ladder_bound_is_a_failed_operation(key, value, reason):
    values = {(2, "moment"): -1.0, (2, "sos"): -1.0, (3, "moment"): -0.9, (3, "sos"): -0.9}
    values[key] = value
    if reason == "fell":
        values[(3, "sos")] = value
    ops = _ladder(values)
    check_ladder(ops, (2, 3), ("moment", "sos"), fmin=-0.8)
    assert ops[key].failed and ops[key].wrong and reason in ops[key].reason


def test_non_optimal_status_fails_without_being_wrong():
    ops = _ladder({(3, "moment"): -1e-5, (3, "sos"): 3e-7}, status="max_iters")
    check_ladder(ops, (3,), ("moment", "sos"), fmin=0.0)
    assert all(op.failed and not op.wrong for op in ops.values())


def test_distance_and_exponent_checks():
    assert not check_distance("d", 1.2e-7).failed
    assert check_distance("d", 3e-3).wrong
    assert not check_exponent("e", 1.0, (0.85, 1.15)).failed
    assert check_exponent("e", 0.5, (0.85, 1.15)).wrong


def test_perturbed_upper_bound_is_a_failed_operation(tmp_path):
    wl = WORKLOADS["upper"]
    prep = wl.prepare(wl.inputs(0, 0), tmp_path)
    lower, _ = hierarchy.solve_relaxation(
        hierarchy.build_sos_relaxation(prep["f"], prep["ball"], "Q", 4))
    ok = SimpleNamespace(status="optimal")
    raw = {"found": (lower + 0.1, np.zeros(2)), "errors": [], "harmonic": 2.0,
           "levels": {2: ((lower + 0.3, ok), lower + 0.1),
                      3: ((lower + 0.2, ok), lower + 0.1),
                      4: ((lower - 0.5, ok), lower + 0.1)}}
    ops = {op.label: op for op in wl.check(prep, raw).ops}
    assert [label for label, op in ops.items() if op.failed] == ["ub_sdp/Q/r=4"]
    assert "below SOS bound" in ops["ub_sdp/Q/r=4"].reason

    raw["harmonic"] = 2.5
    raw["levels"][4] = ((lower + 0.25, ok), lower + 0.1)
    failed = sorted(op.label for op in wl.check(prep, raw).ops if op.failed)
    assert failed == ["harmonic/k=4", "ub_sdp/Q/r=4"]
