"""gpalign benchmark: one workload, one seed, a fixed measuring time.

    python3 perfbench/run.py --workload register --seed 1 --seconds 20 --trace 0

Run from the repository root; the package is imported from ``src/``.  The
run is a closed loop, one job at a time, in a single process.  Job k of a run
uses inputs drawn from (seed, k), so one seed always gives the same inputs.

With ``--trace 0`` the run reports the end-to-end metrics: the median job
time, the set-up time (median of several fresh processes, each timed from
its start to the moment its inputs and penalty set are ready) and the peak
resident memory.  With ``--trace 1`` each job runs twice, untraced and then
traced with the layer functions wrapped (see tracing.py); the run reports
per-layer calls, shares of the traced time, and the tracing overhead.

The last line of standard output is the result object; the line before it
holds the details: environment, host-speed probe, per-job times and notes,
and in the traced run the aggregated span table.  The exit code is 0 when
the run completed, even if an output check failed (``correct`` is then
false), and 2 when the package cannot be imported from this checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS  # before numpy loads, in this and every child

ROOT = Path(__file__).resolve().parents[1]
HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 5


def import_package():
    """Import gpalign from this checkout's src/, or exit 2 without a result."""
    src = ROOT / "src"
    if not (src / "gpalign" / "__init__.py").is_file():
        print(f"benchmark: no gpalign package under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import gpalign
    if Path(gpalign.__file__).resolve().parent != src / "gpalign":
        print(f"benchmark: gpalign imported from {gpalign.__file__}", file=sys.stderr)
        sys.exit(2)
    return gpalign


def host_probe_ms(reps: int = 5) -> float:
    """Median time of a fixed interpreter-bound loop, a gauge of host speed."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        acc = 0.0
        for i in range(200_000):
            acc += i * 0.5
        times.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(times)


def environment() -> dict:
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    git_hash = None
    if (ROOT / ".git").exists():
        try:
            git_hash = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            git_hash = None
    return {
        "git": git_hash, "python": platform.python_version(),
        "numpy": np.__version__, "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS, "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
    }


def setup_seconds(workload: str, seed: int, size: str) -> list[float]:
    """Start-to-ready times of fresh processes that only do the set-up."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        child = subprocess.Popen(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed), size],
            stdout=subprocess.PIPE, text=True)
        try:
            line = child.stdout.readline()
            samples.append(time.perf_counter() - t0)
            child.stdout.read()
            code = child.wait(timeout=60)
        finally:
            child.stdout.close()
            if child.poll() is None:
                child.kill()
                child.wait()
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe failed (exit {code})")
    return samples


def run_job(wl, ctx, inputs):
    """Time one job; check its outputs outside the timed region."""
    from workloads import Outcome
    t0 = time.perf_counter()
    elapsed = None
    try:
        result = wl.run(ctx, inputs)
        elapsed = time.perf_counter() - t0
        return elapsed, wl.check(ctx, inputs, result)
    except Exception:  # a failed job is counted and the loop goes on
        traceback.print_exc()
        out = Outcome(attempted=wl.ops_per_job)
        out.fail(traceback.format_exc(limit=1).strip().splitlines()[-1],
                 ops=wl.ops_per_job)
        return (time.perf_counter() - t0 if elapsed is None else elapsed), out


def layer_metrics(tracer, job_notes: list[dict]) -> dict:
    """Per-layer metrics from the traced roots.

    Counts come from the set-up root and the first job, so they repeat
    exactly for a seed; shares are of the whole traced time of the run.
    """
    from tracing import totals
    traced_s = sum(r["end"] - r["start"] for r in tracer.roots)
    counted = [r for r in tracer.roots if r["name"] == "setup" or r["index"] == 0]
    calls = {k: v[0] for k, v in totals(counted).items()}
    spent = totals(tracer.roots)

    def n(*names):
        return sum(calls.get(x, 0) for x in names)

    def share(*names, self_time=False):
        col = 2 if self_time else 1
        return sum(spent[x][col] for x in names if x in spent) / traced_s

    first = job_notes[0] if job_notes else {}
    warping = ("warp_from_base", "project_endpoint", "interp_with_slope")
    gradients = n("base_gradient")
    return {
        "penalties.build_calls": (n("build_penalty_set"), "count"),
        "penalties.build_share": (share("build_penalty_set"), "1"),
        "warping.calls": (n(*warping), "count"),
        "warping.self_share": (share(*warping, self_time=True), "1"),
        "model.ascent_calls": (n("maximize_base_function"), "count"),
        "model.ascent_share": (share("maximize_base_function"), "1"),
        "model.objective_evals": (n("base_objective"), "count"),
        "model.objective_self_share": (share("base_objective", self_time=True), "1"),
        "model.gradient_evals": (gradients, "count"),
        "model.gradient_self_share": (share("base_gradient", self_time=True), "1"),
        "model.evals_per_step": (n("base_objective") / gradients if gradients else 0.0,
                                 "1"),
        "avb.iterations": (first.get("iterations", 0), "count"),
        "avb.sweep_share": (share("sweep"), "1"),
        "avb.qupdate_share": (share("update_q_f", "update_q_z0", "update_q_z1"), "1"),
        "avb.elbo_share": (share("elbo"), "1"),
        "smoothing.update_q_X_share": (share("update_q_X"), "1"),
        "smoothing.rates_share": (share("update_q_sigmaY", "update_q_etaX",
                                        "update_q_lambdaX"), "1"),
        "mcmc.gibbs_share": (share("gibbs_sweep"), "1"),
        "mcmc.draw_X_share": (share("draw_X"), "1"),
        "mcmc.draw_f_share": (share("draw_f"), "1"),
        "mcmc.metropolis_share": (share("metropolis_base"), "1"),
        "mcmc.proposals": (n("metropolis_base"), "count"),
        "mcmc.accept_share": (first.get("accept_share", 0.0), "1"),
        "prediction.select_calls": (n("select_final_time"), "count"),
        "prediction.select_share": (share("select_final_time"), "1"),
        "prediction.register_partial_calls": (n("register_partial"), "count"),
        "prediction.register_partial_share": (share("register_partial"), "1"),
        "prediction.condition_share": (share("conditional_mvn", "fit_empirical_laws"),
                                       "1"),
        "prediction.self_share": (share("bootstrap_bands", self_time=True), "1"),
        "prediction.skip_share": (first.get("skipped", 0) / first["M"]
                                  if first.get("M") else 0.0, "1"),
    }


def run(workload: str, seed: int, seconds: float, trace: bool,
        size: str = "full") -> tuple[dict, dict]:
    """Run one workload; return (result object, details)."""
    from workloads import WORKLOADS
    wl = WORKLOADS[workload](getattr(WORKLOADS[workload], size))
    details = {"workload": workload, "seed": seed, "seconds": seconds,
               "trace": int(trace), "size": size, "params": wl.params,
               "env": environment(), "host_probe_ms": [host_probe_ms()]}
    metrics: dict[str, tuple[float, str]] = {}

    if not trace:
        samples = setup_seconds(workload, seed, size)
        details["setup_samples_s"] = samples
        metrics["setup_s"] = (statistics.median(samples), "s")

    tracer = None
    if trace:
        from tracing import Tracer
        tracer = Tracer()
        details["absent"] = tracer.absent
        with tracer.root("setup", 0), tracer.active():
            ctx = wl.setup()
    else:
        ctx = wl.setup()

    times, traced_times, notes = [], [], []
    attempted = failed = 0
    problems = []
    start = time.perf_counter()
    k = 0
    while k == 0 or time.perf_counter() - start < seconds:
        inputs = wl.inputs(ctx, seed, k)
        # alternate which copy runs first, so warm-up does not bias the overhead
        order = ((False, True) if k % 2 == 0 else (True, False)) if trace else (False,)
        for traced in order:
            if traced:
                with tracer.root("job", k), tracer.active():
                    elapsed, out = run_job(wl, ctx, inputs)
                traced_times.append(elapsed)
            else:
                elapsed, out = run_job(wl, ctx, inputs)
                times.append(elapsed)
                notes.append(out.notes)
            attempted += out.attempted
            failed += out.failed
            tag = " (traced)" if traced else ""
            problems += [f"job {k}{tag}: {p}" for p in out.problems]
        k += 1

    run_failed, run_problems = wl.check_run(notes)
    failed += run_failed
    problems += run_problems
    details.update(jobs=k, job_s=times, problems=problems, notes=notes)
    details["host_probe_ms"].append(host_probe_ms())
    if trace:
        from tracing import span_table
        metrics.update(layer_metrics(tracer, notes))
        metrics["trace.overhead_share"] = (sum(traced_times) / sum(times) - 1.0, "1")
        metrics["trace.traced_s"] = (sum(r["end"] - r["start"] for r in tracer.roots),
                                     "s")
        details.update(traced_job_s=traced_times, spans=span_table(tracer.roots))
    else:
        metrics["job_s"] = (statistics.median(times), "s")
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics["peak_rss_mb"] = (peak_kb / 1024.0, "MB")

    result = {
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    return result, details


def main(argv=None) -> int:
    import_package()
    from workloads import WORKLOADS
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    result, details = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"details": details}, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
