"""Benchmark for hystctl: one workload per process, run from the repo root.

    python3 hystbench/run.py --workload paper_suite --seed 1 --seconds 30 --trace 0
    python3 hystbench/run.py --workload all --seed 1 --seconds 30

--trace 0 reports the end-to-end metrics (wall_s, setup_s, peak_rss_mb);
--trace 1 wraps the program's public functions in spans and reports the
per-layer metrics instead.  `all` runs every workload in its own process,
one after another, and prints a table.  The last line of standard output is
always one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

# numpy, hystctl and the benchmark modules that use them are imported inside
# the functions below, so that a set-up probe times their import.
# One thread per process: numpy must not start a BLAS pool on a 2-vCPU host.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("paper_suite", "long_signals", "relay_events")
SETUP_PROBES = 7
MIN_MEASURED_PASSES = 3
TICK_S = 0.025  # reference slice period inside long operations
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def _import_program():
    """Put the checkout's src/ first on the path; fail if it holds no hystctl."""
    if not (SRC / "hystctl" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'hystctl'} not found; run from a checkout of the repo")
    sys.path.insert(0, str(SRC))
    import hystctl

    return hystctl


def setup_probe(workload: str, seed: int) -> None:
    """Child process: time importing hystctl and generating the inputs."""
    t0 = time.perf_counter()
    _import_program()
    import workloads

    workloads.WORKLOADS[workload](seed, workloads.program_api(), str(OUT))
    elapsed = time.perf_counter() - t0
    import refclock

    print(json.dumps({"setup_s": elapsed, "factor": refclock.speed_factor()}))


def _probe_setup(workload: str, seed: int) -> list:
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, check=False,
        )
        if proc.returncode != 0:
            sys.exit(f"error: setup probe failed:\n{proc.stderr}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return samples


def _peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    hystctl = _import_program()
    OUT.mkdir(exist_ok=True)
    probes = [] if trace else _probe_setup(workload, seed)
    import refclock
    import workloads

    api = workloads.program_api()
    wl = workloads.WORKLOADS[workload](seed, api, str(OUT), count_fields=trace)
    tracer = None
    if trace:
        import layer_metrics
        import spans

        tracer = spans.Tracer()
        tracer.install(hystctl, [api], layer_metrics.LABELS, layer_metrics.HOOKS)

    attempted = failed = 0
    clocks, messages = [], []
    start = time.perf_counter()
    while True:
        if tracer is not None:
            tracer.begin_pass()
        evals0 = wl.field_evals[0] if wl.field_evals else 0
        clock = refclock.PassClock(None if trace else TICK_S)
        ops = wl.ops()
        results = []
        for _, thunk in ops:
            try:
                results.append(clock.run(thunk))
            except Exception as exc:  # counted as a failed operation
                results.append(exc)
        if tracer is not None and wl.field_evals:
            tracer.count("dynamics.field_evals", wl.field_evals[0] - evals0)
        fails = [(label, msg) for (label, _), msg in zip(ops, wl.check(results)) if msg]
        attempted += len(results)
        failed += len(fails)
        if fails and not messages:
            messages = fails
        clocks.append(clock)  # clocks[0] is the warm-up pass
        elapsed = time.perf_counter() - start
        n = len(clocks)
        if n > MIN_MEASURED_PASSES and elapsed + elapsed / n > seconds:
            break

    for label, msg in messages[:5]:
        print(f"FAILED {workload} {label}: {msg}", file=sys.stderr)
    measured = clocks[1:]
    walls = [c.scaled for c in measured]
    raw = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "passes": [{"work_s": c.work, "scaled_s": c.scaled, "factor": c.factor,
                    "segments": c.segments, "refs": c.refs} for c in clocks],
        "setup_probes": probes,
    }
    if trace:
        metrics = layer_metrics.per_layer(
            tracer, list(range(1, len(clocks))), [c.factor for c in measured], walls
        )
        units = layer_metrics.METRICS
        tracer.write(str(OUT / f"trace_{workload}_seed{seed}.json"))
    else:
        metrics = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(p["setup_s"] * p["factor"] for p in probes),
            "peak_rss_mb": _peak_rss_mb(),
        }
        units = END_TO_END_UNITS
    raw["metrics"] = metrics
    with open(OUT / f"run_{workload}_seed{seed}_trace{int(trace)}.json", "w") as fh:
        json.dump(raw, fh, indent=1)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }


def _print_table(name: str, result: dict) -> None:
    print(f"{name}: attempted {result['attempted']}, failed {result['failed']}")
    for metric, m in result["metrics"].items():
        print(f"  {metric:40s} {m['value']:14.6g} {m['unit']}")


def run_all(seed: int, seconds: float, trace: bool) -> dict:
    """Each workload in its own process, one at a time; prints a table."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        if proc.returncode != 0:
            sys.exit(f"error: workload {name} exited with {proc.returncode}")
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        _print_table(name, res)
        for metric, m in res["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = m
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
    return combined


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    if args.workload == "all":
        result = run_all(args.seed, args.seconds, bool(args.trace))
    else:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
        _print_table(args.workload, result)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
