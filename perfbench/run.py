#!/usr/bin/env python3
"""Benchmark runner for gtiframes.

    python3 perfbench/run.py --workload {sweep216,gabor_wide,codec_stream}
                             --seed N --seconds S --trace {0,1}

Runs one workload in this one process with one closed-loop client: the next
op starts only when the previous one has returned.  BLAS/OpenMP pools are
pinned to one thread.  Every op's answer is checked; a wrong answer or an
exception is a failed op and is not timed as a success.

--trace 0 measures the end-to-end metrics for S seconds.  `setup_s` runs
from this process's start to the end of the warm-up op; the benchmark's own
input fingerprinting comes after it.

--trace 1 traces set-up, then alternates an untraced and a traced pass over
the same ops while another pair fits in S seconds.  Per-layer metrics are the
traced set-up plus the mean traced pass; spans are written to perfbench/out/
at the end.  `trace.overhead_ratio` is the median traced / untraced pass time.

The last line of stdout is the JSON result; the lines before it give every
metric by name and unit, the environment and the input fingerprint.  The exit
code is 0 when every op passed, 1 when any failed, 2 when the benchmark
cannot give a result (the gtiframes sources are missing, the codec pair fails
certification, or the input generator no longer gives the reference inputs).
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import traceback  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
WORKLOAD_NAMES = ("sweep216", "gabor_wide", "codec_stream")

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "peak_rss_mb": "MB",
}


class SetupError(RuntimeError):
    """The benchmark cannot produce a result: missing program or bad inputs."""


def pin_threads() -> None:
    for var in THREAD_VARS:
        os.environ[var] = "1"


def load_program() -> None:
    """Put the checkout's sources on the path; there is nothing to compile."""
    if not (SRC / "gtiframes" / "__init__.py").is_file():
        raise SetupError(f"gtiframes sources not found under {SRC}")
    for path in (str(SRC), str(HERE)):
        if path not in sys.path:
            sys.path.insert(0, path)


def environment() -> dict:
    import numpy as np

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "thread_pins": {var: os.environ.get(var) for var in THREAD_VARS},
        "python_threads": threading.active_count(),
        "pid": os.getpid(),
    }


def run_op(workload, i: int, tracer=None):
    try:
        if tracer is None:
            return workload.op(i)
        tracer.request = i
        with tracer.span("op"):
            outcome = workload.op(i)
        for metric, amount in outcome.counts.items():
            tracer.add(metric, amount)
        return outcome
    except Exception:  # a crashing op is a failed op; the loop goes on
        from workloads import Outcome

        traceback.print_exc(file=sys.stderr)
        return Outcome(False)


def set_up(name: str, seed: int, sizes: dict | None = None, tracer=None):
    """Build the workload's inputs and run one untimed warm-up op.  Returns
    the workload and the warm-up outcome."""
    from workloads import WORKLOADS

    workload = WORKLOADS[name](seed, **(sizes or {}))
    try:
        if tracer is None:
            workload.setup()
        else:
            with tracer.span("setup"):
                workload.setup()
    except Exception as exc:  # e.g. the codec pair fails certification
        traceback.print_exc(file=sys.stderr)
        raise SetupError(f"{name}: {exc}") from exc
    return workload, run_op(workload, 0, tracer)


def check_reference(workload) -> None:
    """The inputs built at REFERENCE_SEED must match the committed fingerprint."""
    from workloads import REFERENCE_FINGERPRINTS

    reference = workload.reference_fingerprint()
    if reference != REFERENCE_FINGERPRINTS[workload.name]:
        raise SetupError(
            f"{workload.name}: reference inputs have fingerprint {reference}, expected "
            f"{REFERENCE_FINGERPRINTS[workload.name]}; the input generator changed"
        )


def measure(workload, seconds: float) -> dict:
    """Closed loop for `seconds`: latencies of the ops that passed."""
    latencies: list[float] = []
    phases: dict[str, list[float]] = defaultdict(list)
    attempted = failed = 0
    begin = time.perf_counter()
    i = 0
    while time.perf_counter() - begin < seconds or attempted == 0:
        start = time.perf_counter()
        outcome = run_op(workload, i)
        elapsed = time.perf_counter() - start
        attempted += 1
        if outcome.ok:
            latencies.append(elapsed)
            for phase, value in outcome.phases.items():
                phases[phase].append(value)
        else:
            failed += 1
        i += 1
    return {
        "seconds": time.perf_counter() - begin,
        "latencies": latencies,
        "phases": phases,
        "attempted": attempted,
        "failed": failed,
    }


def run_pass(workload, tracer=None) -> tuple[float, int]:
    """Ops 0 .. pass_size-1; returns the elapsed time and the failure count."""
    failed = 0
    begin = time.perf_counter()
    for i in range(workload.pass_size):
        failed += not run_op(workload, i, tracer).ok
    return time.perf_counter() - begin, failed


def measure_traced(workload, seconds: float, tracer) -> dict:
    """Alternate untraced and traced passes over the same ops while another
    pair fits in `seconds`; the tracer is installed only for the traced ones."""
    tracer.uninstall()
    untraced, traced = [], []
    failed = 0
    begin = time.perf_counter()
    while not traced or time.perf_counter() - begin + untraced[-1] + traced[-1] < seconds:
        elapsed, misses = run_pass(workload)
        untraced.append(elapsed)
        failed += misses
        tracer.phase = len(traced)
        tracer.install()
        try:
            elapsed, misses = run_pass(workload, tracer)
        finally:
            tracer.uninstall()
        traced.append(elapsed)
        failed += misses
    return {
        "untraced": untraced,
        "traced": traced,
        "attempted": 2 * len(traced) * workload.pass_size,
        "failed": failed,
    }


def percentile_ms(values: list[float], q: float) -> float:
    import numpy as np

    return float(np.percentile(values, q)) * 1e3 if values else float("nan")


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_workload(name: str, seed: int, seconds: float, trace: bool, sizes: dict | None = None,
                 started: float | None = None,
                 spans_path: Path | None = None) -> tuple[dict, list[str]]:
    """Set up and measure one workload; returns the result object and the
    human-readable report lines."""
    import workloads  # noqa: F401  (loads every layer module before the tracer wraps them)
    from tracing import PER_LAYER_UNITS, Tracer

    started = time.perf_counter() if started is None else started
    tracer = Tracer() if trace else None
    if tracer is not None:
        tracer.install()
    workload, warm = set_up(name, seed, sizes, tracer)
    setup_s = time.perf_counter() - started
    fingerprint = workload.input_fingerprint()
    lines = [
        f"workload {name} seed {seed} seconds {seconds} trace {int(trace)}",
        "environment " + json.dumps(environment(), sort_keys=True),
        f"input fingerprint {fingerprint}",
    ]

    if trace:
        run = measure_traced(workload, seconds, tracer)
        passes = len(run["traced"])
        setup_part = tracer.layer_metrics(["setup"])
        pass_part = tracer.layer_metrics(range(passes))
        values = {m: setup_part[m] + pass_part[m] / passes for m in PER_LAYER_UNITS}
        ratios = [t / u for t, u in zip(run["traced"], run["untraced"])]
        values["trace.overhead_ratio"] = statistics.median(ratios)
        units = dict(PER_LAYER_UNITS, **{"trace.overhead_ratio": "ratio"})
        overhead = statistics.median(t - u for t, u in zip(run["traced"], run["untraced"]))
        lines.append(
            f"{passes} untraced + {passes} traced passes of {workload.pass_size} ops; "
            f"traced - untraced = {overhead:.6f} s per pass (median); "
            "per-layer values are traced set-up + mean traced pass"
        )
        for metric in PER_LAYER_UNITS:
            lines.append(
                f"{metric} {values[metric]} {units[metric]} "
                f"(set-up {setup_part[metric]}, pass {pass_part[metric] / passes})"
            )
        lines.append(f"trace.overhead_ratio {values['trace.overhead_ratio']} ratio")
        path = spans_path or OUT / f"spans-{name}-seed{seed}.jsonl"
        tracer.write(path, {
            "workload": name, "seed": seed, "passes": passes, "pass_size": workload.pass_size,
            "fields": ["phase", "request", "parent", "layer", "name", "start", "end"],
        })
        lines.append(f"{len(tracer.spans)} spans written to {path}")
    else:
        run = measure(workload, seconds)
        samples = run["latencies"]
        values = {
            "setup_s": setup_s,
            "ops_per_s": len(samples) / run["seconds"],
            "op_p50_ms": percentile_ms(samples, 50),
            "peak_rss_mb": peak_rss_mb(),
        }
        units = END_TO_END_UNITS
        lines += [
            f"setup_s {values['setup_s']} s",
            f"ops_per_s {values['ops_per_s']} 1/s ({len(samples)} ops passed in "
            f"{run['seconds']:.3f} s)",
            f"op_p50_ms {values['op_p50_ms']} ms ({len(samples)} samples)",
            f"op_p90_ms {percentile_ms(samples, 90)} ms ({len(samples)} samples, "
            f"{len(samples) - int(0.9 * len(samples))} beyond p90; reported, not in "
            "BENCHMARK.json)",
            f"peak_rss_mb {values['peak_rss_mb']} MB",
        ]
        for phase, series in sorted(run["phases"].items()):
            lines.append(f"{phase}_p50_ms {percentile_ms(series, 50)} ms ({len(series)} samples)")

    attempted = run["attempted"] + 1
    failed = run["failed"] + (not warm.ok)
    lines.append(f"error_rate {failed / attempted} ({failed} failed of {attempted} attempted, "
                 "warm-up op included)")
    lines += workload.notes()
    if sizes is None:
        check_reference(workload)
        lines.append("reference inputs match the committed fingerprint")
    mutated = workload.input_fingerprint() != fingerprint
    if mutated:
        lines.append("inputs changed during the run (fingerprint differs); result is not correct")
    result = {
        "correct": failed == 0 and not mutated,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in values.items()},
    }
    return result, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    pin_threads()
    try:
        load_program()
        result, lines = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                                     started=STARTED)
    except SetupError as exc:
        print(f"benchmark set-up failed: {exc}", file=sys.stderr)
        return 2
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
