"""momentlab benchmark: one workload, one seed, a closed loop for a set time.

    python3 perfbench/run.py --workload ladder --seed 1 --seconds 30 --trace 0

Run from anywhere; the program is imported from the `src` directory next to
this one, never from an installed copy. One client runs passes of the
workload back to back in this process (each call starts after the previous
one returns), and starts no worker pools. Each pass gets fresh inputs from
(seed, pass index). Passes continue until `--seconds` have gone by; the pass
in flight then finishes.

With `--trace 0` the last line reports the end-to-end metrics, measured
untraced. With `--trace 1` every pass runs twice on the same inputs, untraced
and traced in alternating order, and the last line reports the per-layer
split; the spans are written to perfbench/out/. The last line is one JSON object with the keys
correct, attempted, failed and metrics; the lines before it are for people.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Set-up is measured in fresh processes, as a user's CLI run pays it.
SETUP_PROBES = 5

# The traced self times must add up to the traced pass time within this
# share; they differ only by floating-point rounding unless spans nest wrongly.
SELF_SUM_BOUND = 1e-3


def _import_program():
    """Import momentlab from ROOT/src; exit non-zero when it is not there."""
    sys.path.insert(0, str(SRC))
    try:
        import momentlab
    except ImportError as err:
        sys.exit(f"error: cannot import momentlab from {SRC}: {err}")
    origin = Path(momentlab.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        sys.exit(f"error: momentlab was imported from {origin}, not from {SRC}")


def blas_threads() -> dict:
    """OpenBLAS thread counts of numpy's and scipy's bundled libraries, read
    through ctypes; None where the library or symbol is absent."""
    import numpy
    import scipy

    out = {}
    for mod, symbol in ((numpy, "scipy_openblas_get_num_threads64_"),
                        (scipy, "scipy_openblas_get_num_threads")):
        libdir = Path(mod.__file__).resolve().parent.parent / f"{mod.__name__}.libs"
        value = None
        for path in sorted(glob.glob(str(libdir / "*openblas*"))):
            fn = getattr(ctypes.CDLL(path), symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                value = int(fn())
        out[f"{mod.__name__}_openblas_threads"] = value
    return out


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def run_metadata(workload: str, seed: int, seconds: int, trace: int) -> dict:
    import numpy
    import scipy

    return {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
            **blas_threads(), "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "python": platform.python_version(), "git_commit": git_commit()}


def measure_setup(workload: str, seed: int) -> list:
    """Wall time of fresh processes that import momentlab, make the first
    pass's inputs and exit: the cost before the first timed call."""
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        done = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                               "--workload", workload, "--seed", str(seed),
                               "--setup-probe"], cwd=str(ROOT),
                              capture_output=True, text=True, timeout=120)
        times.append(time.perf_counter() - start)
        if done.returncode != 0:
            sys.exit(f"error: set-up probe failed: {done.stderr.strip()}")
    return times


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def _tally(checked_passes):
    ops = [op for c in checked_passes for op in c.ops]
    failed = [op for op in ops if op.failed]
    notes = [note for c in checked_passes for note in c.notes]
    return ops, failed, notes


def _print_ops(failed, notes):
    for op in failed:
        why = op.error or op.reason or f"status {op.status}"
        print(f"failed: {op.label}: {why}")
    for note in notes:
        print(f"program note: {note}")


def run_untraced(wl, seed, seconds, workdir):
    walls, checked = [], []
    start = time.perf_counter()
    index = 0
    while True:
        prep = wl.prepare(wl.inputs(seed, index), _fresh(workdir, f"in{index}"))
        outdir = _fresh(workdir, f"out{index}")
        t0 = time.perf_counter()
        raw = wl.run(prep, outdir)
        walls.append(time.perf_counter() - t0)
        checked.append(wl.check(prep, raw))
        print(f"pass {index}: {walls[-1]:.3f} s, {len(checked[-1].ops)} ops, "
              f"{sum(op.failed for op in checked[-1].ops)} failed", flush=True)
        index += 1
        if time.perf_counter() - start >= seconds:
            return walls, checked


def run_traced(wl, seed, seconds, workdir):
    from tracer import Tracer

    tracer = Tracer()
    untraced, traced, checked = [], [], []
    start = time.perf_counter()
    index = 0
    while True:
        prep = wl.prepare(wl.inputs(seed, index), _fresh(workdir, f"in{index}"))
        # alternate which run goes first, so first-call costs (lazy imports,
        # caches) do not all land on one side of the overhead
        for traced_turn in ((False, True) if index % 2 == 0 else (True, False)):
            outdir = _fresh(workdir, f"{'traced' if traced_turn else 'plain'}{index}")
            if traced_turn:
                tracer.install()
                try:
                    with tracer.root(f"bench.{wl.name}") as rec:
                        raw = wl.run(prep, outdir)
                finally:
                    tracer.uninstall()
                traced.append(rec[3] - rec[2])
            else:
                t0 = time.perf_counter()
                wl.run(prep, outdir)
                untraced.append(time.perf_counter() - t0)
        checked.append(wl.check(prep, raw))
        print(f"pass {index}: untraced {untraced[-1]:.3f} s, traced {traced[-1]:.3f} s, "
              f"{len(tracer.spans)} spans so far", flush=True)
        index += 1
        if time.perf_counter() - start >= seconds:
            return tracer, untraced, traced, checked


def _fresh(workdir: Path, name: str) -> Path:
    path = workdir / name
    path.mkdir()
    return path


def layer_metrics(tracer, passes: int, untraced, traced, notes: int) -> dict:
    """Per-layer metrics, per traced pass; `*_s` are self times."""
    from tracer import MODULES

    st = tracer.self_times()
    calls = tracer.counts
    solves = tracer.solves
    iters = sum(s[1] for s in solves)

    def per(value):
        return value / passes

    def self_of(*names):
        return per(sum(st[n] for n in names))

    haus_total, haus_sdp = tracer.inclusive_under("distcone.hausdorff_lower_bound", "sdpcore")
    m = {
        "sdpcore.solve_calls": (per(calls["sdpcore.solve"]), "count"),
        "sdpcore.solve_s": (self_of("sdpcore.solve"), "s"),
        "sdpcore.iterations": (per(iters), "count"),
        "sdpcore.ms_per_iter": (1e3 * st["sdpcore.solve"] / iters if iters else 0.0, "ms"),
        "sdpcore.optimal_ratio": (sum(s[2] == "optimal" for s in solves) / len(solves)
                                  if solves else 0.0, "ratio"),
        "sdpcore.max_rows": (max((s[0] for s in solves), default=0), "count"),
        "sdpcore.factor_mb_computed": (per(sum(8.0 * s[0] ** 2 for s in solves)) / 1e6, "MB"),
        "hierarchy.build_calls": (per(calls["hierarchy.build_moment_relaxation"]
                                      + calls["hierarchy.build_sos_relaxation"]), "count"),
        "hierarchy.build_s": (self_of("hierarchy.build_moment_relaxation",
                                      "hierarchy.build_sos_relaxation"), "s"),
        "hierarchy.estimate_minimum_s": (self_of("hierarchy.estimate_minimum"), "s"),
        "momentkit.preordering_s": (self_of("momentkit.preordering_products"), "s"),
        "momentkit.localizing_s": (self_of("momentkit.localizing_matrix_at_order",
                                           "momentkit.localizing_matrix",
                                           "momentkit.moment_matrix"), "s"),
        "polycore.gradient_calls": (per(calls["polycore.Polynomial.gradient"]), "count"),
        "polycore.eval_poly_calls": (per(calls["polycore.eval_poly"]), "count"),
        "polycore.eval_many_s": (self_of("polycore.Polynomial.eval_many"), "s"),
        "semialg.rejection_sample_s": (self_of("semialg.rejection_sample"), "s"),
        "semialg.local_extremum_calls": (per(calls["semialg.local_extremum"]), "count"),
        "semialg.local_extremum_s": (self_of("semialg.local_extremum"), "s"),
        "semialg.restore_feasibility_calls": (per(calls["semialg.restore_feasibility"]), "count"),
        "semialg.slsqp_calls": (per(calls["semialg.slsqp"]), "count"),
        "semialg.slsqp_s": (self_of("semialg.slsqp"), "s"),
        "distcone.hausdorff_s": (self_of("distcone.hausdorff_lower_bound"), "s"),
        "distcone.nonsdp_share": ((haus_total - haus_sdp) / haus_total if haus_total else 0.0,
                                  "ratio"),
        "distcone.distance_to_set_s": (self_of("distcone.distance_to_set"), "s"),
        "cdkernel.orthonormal_basis_s": (self_of("cdkernel.orthonormal_basis"), "s"),
        "cdkernel.upper_bound_sdp_s": (self_of("cdkernel.upper_bound_sdp"), "s"),
        "cdkernel.upper_bound_kernel_s": (self_of("cdkernel.upper_bound_kernel"), "s"),
        "cdkernel.harmonic_bound_s": (self_of("cdkernel.harmonic_constant_bound"), "s"),
        "benchcli.run_experiment_s": (self_of("benchcli.run_experiment"), "s"),
        "benchcli.parse_problem_s": (self_of("benchcli.parse_problem"), "s"),
        "benchcli.failure_notes": (per(notes), "count"),
    }
    by_layer = {layer: 0.0 for layer in MODULES + ("bench",)}
    for name, value in st.items():
        by_layer[name.split(".", 1)[0]] += value
    for layer, value in by_layer.items():
        m[f"{layer}.self_s"] = (per(value), "s")
    m["trace.wall_s"] = (statistics.median(traced), "s")
    m["trace.overhead_s"] = (statistics.median(t - u for t, u in zip(traced, untraced)), "s")
    return m


def trace_problems(tracer, traced, expected_solves: int) -> list:
    """Reasons the trace cannot be trusted; empty when it reconciles."""
    problems = []
    if tracer.counts["sdpcore.solve"] != expected_solves:
        problems.append(f"traced {tracer.counts['sdpcore.solve']} sdpcore.solve calls, "
                        f"the workload's outputs account for {expected_solves}")
    total_self = sum(tracer.self_times().values())
    total_wall = sum(traced)
    if abs(total_self - total_wall) > SELF_SUM_BOUND * total_wall:
        problems.append(f"self times sum to {total_self:.6f} s, traced wall is "
                        f"{total_wall:.6f} s")
    if any(end == 0.0 for _, _, _, end in tracer.spans):
        problems.append("a span was never closed")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    _import_program()
    from workloads import WORKLOADS

    wl = WORKLOADS.get(args.workload)
    if wl is None:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")

    if args.setup_probe:
        with tempfile.TemporaryDirectory(dir=HERE, prefix=".work-") as tmp:
            wl.prepare(wl.inputs(args.seed, 0), Path(tmp))
        return 0

    meta = run_metadata(args.workload, args.seed, args.seconds, args.trace)
    print("meta " + json.dumps(meta), flush=True)
    with tempfile.TemporaryDirectory(dir=HERE, prefix=".work-") as tmp:
        if args.trace:
            tracer, untraced, traced, checked = run_traced(wl, args.seed, args.seconds, Path(tmp))
        else:
            setup = measure_setup(args.workload, args.seed)
            walls, checked = run_untraced(wl, args.seed, args.seconds, Path(tmp))

    ops, failed, notes = _tally(checked)
    wrong = [op for op in ops if op.wrong]
    _print_ops(failed, notes)
    print(f"failed_share = {len(failed) / len(ops):.6f} ratio ({len(failed)} of {len(ops)} "
          f"operations; {len(wrong)} wrong or raised)")
    print(f"benchcli.failure_notes = {len(notes)} (program's own failure lines)")
    correct = not wrong
    if args.trace:
        problems = trace_problems(tracer, traced, sum(c.solves for c in checked))
        for problem in problems:
            print(f"trace does not reconcile: {problem}")
        correct = correct and not problems
        metrics = layer_metrics(tracer, len(traced), untraced, traced, len(notes))
        out = HERE / "out"
        out.mkdir(exist_ok=True)
        tracer.write(out / f"spans-{args.workload}-seed{args.seed}.jsonl", meta)
    else:
        metrics = {"wall_s": (statistics.median(walls), "s"),
                   "setup_s": (statistics.median(setup), "s"),
                   "ok_share": (1.0 - len(failed) / len(ops), "ratio"),
                   "peak_rss_mb": (_peak_rss_mb(), "MB")}
        print(f"passes {len(walls)}: " + " ".join(f"{w:.3f}" for w in walls) + " s; "
              f"set-up probes: " + " ".join(f"{s:.3f}" for s in setup) + " s")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({"correct": correct, "attempted": len(ops), "failed": len(failed),
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
