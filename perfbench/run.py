"""phasedr benchmark: time to solution on three Douglas-Rachford workloads.

    python3 perfbench/run.py --workload global-16 --seed 1 --seconds 25 --trace 0

With ``--trace 0`` the run prints the end-to-end metrics; with ``--trace 1``
it prints the per-layer metrics of a traced pass over the same work (see
perfbench/README.md).  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit
code is 0 when every correctness check passed, 1 when one failed and 2 when
the run could not start (for instance when ``src/phasedr`` is missing).

Outputs (run record, spans, the local-rate CSV's temporary directory) go to
``.bench_out/`` at the root of the checkout.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:  # before numpy loads its BLAS
    os.environ.setdefault(_var, str(len(os.sched_getaffinity(0))))
sys.path[:0] = [str(SRC), str(ROOT)]

import numpy as np  # noqa: E402

from perfbench import spans, workloads  # noqa: E402

# Never used while the benchmark or a change is tuned; a claimed gain must
# also hold when re-run with this seed.
HELD_OUT_SEED = 7919
# Set-up repeats until both minimums are met; its median is setup_s.
SETUP_MIN_REPS = 5
SETUP_MIN_S = 1.0
KNOWN_FFT_SIZES = (127, 128)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def fresh_import():
    """Import phasedr from this checkout, dropping any copy already loaded."""
    for key in [k for k in sys.modules if k == "phasedr" or k.startswith("phasedr.")]:
        del sys.modules[key]
    pd = importlib.import_module("phasedr")
    if Path(pd.__file__).resolve().parent != SRC / "phasedr":
        raise ImportError(f"phasedr imported from {pd.__file__}, not from {SRC}")
    return pd


def setup(wl, seed, units):
    """Import plus instance building, repeated; returns every time and the last result."""
    times = []
    while len(times) < SETUP_MIN_REPS or sum(times) < SETUP_MIN_S:
        t0 = time.perf_counter()
        pd = fresh_import()
        cfg = wl.config(pd, seed, units)
        instances = workloads.build_instances(pd, cfg)
        times.append(time.perf_counter() - t0)
    return times, pd, cfg, instances


def timed_pass(pd, wl, cfg, instances, layers, trace_setup=False):
    """Run every unit under a tracer wrapping `layers`; optionally trace a fresh set-up first."""
    tracer = spans.Tracer()
    undo = spans.install(tracer, layers)
    try:
        if trace_setup:
            idx = tracer.open(spans.BENCH_SETUP)
            instances = workloads.build_instances(pd, cfg)
            tracer.close(idx)
        idx = tracer.open(spans.BENCH_ROOT)
        OUT.mkdir(exist_ok=True)
        outcome = workloads.run_units(pd, wl, cfg, instances, tracer, OUT)
        tracer.close(idx)
    finally:
        spans.uninstall(undo)
    return tracer, outcome


def solve_metrics(tracer) -> dict:
    """Per-solve durations and DR steps from the run_solver spans."""
    frame = tracer.frame()
    obs = tracer.observed.get("solvers.run_solver", [])
    durs = [float(frame.dur[idx]) for idx, _ in obs]
    steps = [s for _, (s, _conv) in obs]
    per_iter = [d / s * 1e3 for d, s in zip(durs, steps) if s > 0]
    return {
        "wall_s": frame.total(spans.BENCH_ROOT),
        "solves": len(durs),
        "solve_s.p50": statistics.median(durs) if durs else math.nan,
        "ms_per_iter.p50": statistics.median(per_iter) if per_iter else math.nan,
        "iters_per_s": sum(steps) / sum(durs) if durs and sum(durs) > 0 else math.nan,
        "steps": sum(steps),
        "per_solve": [[round(d, 6), s] for d, s in zip(durs, steps)],
        "converged": sum(1 for _, (_s, conv) in obs if conv),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def fft_ms(size: int, reps: int = 20, batches: int = 7) -> float:
    """Median per-call time of numpy's 2-D FFT on a size x size complex array."""
    rng = np.random.default_rng(size)
    a = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
    np.fft.fftn(a)
    per_call = []
    for _ in range(batches):
        t0 = time.perf_counter()
        for _ in range(reps):
            np.fft.fftn(a)
        per_call.append((time.perf_counter() - t0) / reps * 1e3)
    return statistics.median(per_call)


def machine_record() -> dict:
    cpu = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu or platform.processor(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numpy_config": np.show_config(mode="dicts"),
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "platform": platform.platform(),
    }


def same_outcomes(a, b) -> bool:
    """Bitwise-equal outcomes: repr round-trips a float exactly and makes nan equal nan."""
    def key(outcome):
        return [(o.label, o.ok, repr(o.value)) for o in outcome["ops"]]

    return key(a) == key(b)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "phasedr" / "__init__.py").is_file():
        print(f"perfbench: no phasedr sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0 or args.seed < 0:
        print("perfbench: --seconds must be > 0 and --seed >= 0", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    units = wl.units(args.seconds)
    if args.trace:  # the same work runs twice, untraced then traced
        units = max(1, units // 2)

    try:
        setup_times, pd, cfg, instances = setup(wl, args.seed, units)
    except ImportError as exc:
        print(f"perfbench: cannot import phasedr: {exc}", file=sys.stderr)
        return 2

    checks: dict[str, bool] = {}
    iso = [workloads.isometry_error(pd, inst.op) for inst in instances]
    checks["isometry"] = max(iso) <= workloads.ISOMETRY_TOL

    tracer, outcome = timed_pass(pd, wl, cfg, instances, spans.UNTRACED)
    e2e = solve_metrics(tracer)
    rss = peak_rss_mb()

    layer = {}
    if args.trace:
        traced, traced_outcome = timed_pass(pd, wl, cfg, instances, spans.TRACED, trace_setup=True)
        frame = traced.frame()
        layer = spans.layer_metrics(frame, traced.observed)
        for size in KNOWN_FFT_SIZES:
            layer[f"grids.fft_ms.{size}x{size}"] = fft_ms(size)
        layer["trace_overhead_frac"] = frame.total(spans.BENCH_ROOT) / e2e["wall_s"] - 1.0
        step_calls = frame.calls(*spans.STEP_NAMES)
        checks["traced_outcomes_match"] = same_outcomes(outcome, traced_outcome)
        checks["steps_match_step_calls"] = layer["solvers.steps"] == step_calls
        power_iters = sum(i for _, i in traced.observed.get("spectral.lambda2_power", []))
        checks["gram_matvecs_match_power_iters"] = layer["spectral.gram_matvecs"] == power_iters
        traced.save(OUT / f"spans-{wl.name}-seed{args.seed}.npz")

    oracle = []
    if not wl.inits:
        t0 = time.perf_counter()
        oracle = workloads.oracle_errors(pd, instances, outcome["lambda2"])
        checks["lambda2_oracle"] = len(oracle) == cfg.trials and max(oracle) < workloads.ORACLE_TOL
        oracle_s = time.perf_counter() - t0
    ops = outcome["ops"]
    attempted, failed = len(ops), sum(1 for o in ops if not o.ok)
    for o in ops:
        if o.error:
            print(f"operation {o.label} raised:\n{o.error}", file=sys.stderr)

    if args.trace:
        metrics = {k: (v, spans.LAYER_UNITS[k]) for k, v in layer.items()}
    else:
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "wall_s": (e2e["wall_s"], "s"),
            "solve_s.p50": (e2e["solve_s.p50"], "s"),
            "ms_per_iter.p50": (e2e["ms_per_iter.p50"], "ms"),
            "iters_per_s": (e2e["iters_per_s"], "1/s"),
            "peak_rss_mb": (rss, "MB"),
        }
    checks["metrics_finite"] = all(math.isfinite(v) for v, _ in metrics.values())
    correct = all(checks.values())

    record = {
        "workload": wl.name,
        "why": wl.why,
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "units": units,
        "setup_reps": len(setup_times),
        "config": workloads.config_record(cfg),
        "machine": machine_record(),
        "checks": checks,
        "isometry_error_max": max(iso),
        "oracle_error_max": max(oracle) if oracle else None,
        "attempted": attempted,
        "failed": failed,
        "fail_frac": failed / attempted,
        "failed_ops": [o.label for o in ops if not o.ok],
        "solves": e2e["solves"],
        "steps": e2e["steps"],
        "per_solve_s_steps": e2e["per_solve"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    rec_path = OUT / f"record-{wl.name}-seed{args.seed}-trace{args.trace}.json"
    rec_path.write_text(json.dumps(record, indent=1, default=str))

    m = record["machine"]
    print(f"workload {wl.name}: {wl.why}")
    print(f"seed {args.seed} (held-out seed {HELD_OUT_SEED}), units {units}, "
          f"{m['nproc']} cpus ({m['cpu_model']}), python {m['python']}, numpy {m['numpy']}, "
          f"threads {m['thread_env']}")
    print(f"solves {e2e['solves']} (solve_s.p50 sample count), DR steps {e2e['steps']}, "
          f"converged {e2e['converged']}/{e2e['solves']}")
    print(f"fail_frac {failed / attempted:.4g} ({failed} failed / {attempted} attempted)"
          + (f": {', '.join(record['failed_ops'])}" if failed else ""))
    if oracle:
        print(f"lambda2 vs svd_oracle: max |diff| {max(oracle):.2e} over {len(oracle)} trials "
              f"({oracle_s:.2f} s, untimed)")
    for name, ok in checks.items():
        print(f"check {name}: {'pass' if ok else 'FAIL'}")
    for name, (value, unit) in metrics.items():
        print(f"{name:34s} {value:14.6g} {unit}")
    print(f"run record: {rec_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v if math.isfinite(v) else None, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
