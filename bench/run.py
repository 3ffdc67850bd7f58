"""Benchmark of tripletlab's experiment runners, end to end and layer by layer.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Runs one workload (see workloads.py) in this process, repeating its round
until the next round would end past --seconds, then checks the first
round's outputs and that every later round reproduced them exactly. The
last line of standard output is one JSON object: correct, attempted (trials
run), failed, and the metrics BENCHMARK.json lists, the end-to-end ones with
--trace 0 and the per-layer ones with --trace 1. The line before it, and
bench/out/<workload>-seed<n>-trace<t>.json, hold the run record: machine and
software, every round's wall and CPU time, set-up samples and check results.

With --trace 1 the run alternates plain and traced rounds: per-layer
numbers come from the spans of the traced rounds (written to
bench/out/<workload>-seed<n>-spans.json), and the tracing overhead is the
traced rounds' median wall time over the plain rounds'.

The program is imported from src/ of the checkout this file sits in; the
run exits with code 2 when it is not there.
"""
from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_SAMPLES = 3
WORKLOAD_NAMES = ("optimistic-mc", "rrm-stability", "sgd-sweep", "sgd-stability")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument(
        "--setup-probe",
        action="store_true",
        help="import and build the inputs, print the time, exit (used to measure setup_s)",
    )
    return p.parse_args(argv)


def import_library():
    """Import tripletlab from this checkout's src/, and nowhere else."""
    if not (SRC / "tripletlab" / "__init__.py").is_file():
        raise ImportError(f"no tripletlab package under {SRC}")
    sys.path.insert(0, str(SRC))
    import tripletlab

    if Path(tripletlab.__file__).resolve().parent != SRC / "tripletlab":
        raise ImportError(f"tripletlab was imported from {tripletlab.__file__}, not {SRC}")


def blas_threads() -> dict:
    """Thread count of every OpenBLAS library loaded in this process."""
    with open("/proc/self/maps") as fh:
        libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower()})
    found = {}
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[Path(path).name] = fn()
                break
    return found


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu_model = ""
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
    }


def setup_sample(args) -> float:
    """Seconds from launching a fresh interpreter to the point this run's first
    timed call would start: imports plus building the workload's inputs."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-probe"]
    launched = time.time()
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.split()[-1]) - launched


def metric_specs(kind: str) -> list:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)[kind]


def run(args) -> int:
    import tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    inputs = workload.inputs(args.seed)
    if args.setup_probe:
        print(repr(time.time()))
        return 0
    setup = [] if args.trace else [setup_sample(args) for _ in range(SETUP_SAMPLES)]

    modes = ("plain", "traced") if args.trace else ("plain",)
    rounds, layers, spans, calls = [], [], [], []
    first = None
    reproduced = True
    started = time.perf_counter()
    while True:
        batch_started = time.perf_counter()
        for mode in modes:
            if mode == "traced":
                tracer = tracing.Tracer()
                context = tracer.installed()
            elif not rounds:
                context = tracing.recorded(workload.recorded, calls)
            else:
                context = nullcontext()
            # patching happens on entering the block, outside the timed part
            with context:
                cpu0 = time.process_time()
                t0 = time.perf_counter()
                outputs = workload.run(inputs)
                wall = time.perf_counter() - t0
                cpu = time.process_time() - cpu0
            rounds.append({"mode": mode, "wall_s": wall, "cpu_s": cpu})
            if first is None:
                first = outputs
            else:
                reproduced = reproduced and repr(outputs) == repr(first)
            if mode == "traced":
                layers.append(tracing.layer_metrics(tracer.spans))
                spans.append([[s.name, s.parent, s.start, s.end, s.count] for s in tracer.spans])
        now = time.perf_counter()
        if now - started + (now - batch_started) > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failures = workload.check(inputs, first, calls)
    if not reproduced:
        failures.append("a later round did not reproduce the first round's outputs")

    plain = [r for r in rounds if r["mode"] == "plain"]
    traced = [r for r in rounds if r["mode"] == "traced"]
    if args.trace:
        values = {k: statistics.median(layer[k] for layer in layers) for k in layers[0]}
        values["round_s"] = statistics.median(r["wall_s"] for r in plain)
        values["cpu_s"] = statistics.median(r["cpu_s"] for r in plain)
        values["trace.round_s"] = statistics.median(r["wall_s"] for r in traced)
        values["trace.overhead_pct"] = 100.0 * (values["trace.round_s"] / values["round_s"] - 1.0)
        specs = metric_specs("per_layer")
    else:
        values = {
            "trials_per_s": statistics.median(workload.trials_per_round / r["wall_s"] for r in plain),
            "peak_rss_mb": peak_rss_mb,
            "setup_s": statistics.median(setup),
        }
        specs = metric_specs("end_to_end")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in specs}
    result = {
        "correct": not failures,
        "attempted": workload.trials_per_round * len(rounds),
        "failed": 0,
        "metrics": metrics,
    }

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "trials_per_round": workload.trials_per_round,
        "environment": environment(),
        "setup_samples_s": setup,
        "peak_rss_mb": peak_rss_mb,
        "rounds": rounds,
        "failures": failures,
        **result,
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    with open(OUT / f"{stem}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    if spans:
        with open(OUT / f"{stem}-spans.json", "w") as fh:
            json.dump(spans, fh)
    for failure in failures:
        print(f"check failed: {failure}", file=sys.stderr)
    print(json.dumps({"record": {k: record[k] for k in ("environment", "rounds", "failures")}}))
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        import_library()
    except ImportError as exc:
        print(f"bench: cannot import the program: {exc}", file=sys.stderr)
        return 2
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
