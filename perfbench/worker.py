"""One process of a benchmark run: input generation, a set-up probe, or the measurement.

``run.py`` starts this script with PYTHONPATH pointing at the checkout's
``src`` and the thread caps already in the environment, and reads the JSON
it writes to ``--result``.

- ``gen`` writes the workload's input files.
- ``setup`` times importing pisier_lab plus one warm-up op in a fresh process.
- ``measure`` does the same, then runs closed-loop passes over the workload's
  ops for ``--seconds``, checking every output.  With ``--trace 1`` untraced
  and traced passes alternate, and the traced ones record per-layer spans.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import time
from pathlib import Path


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=["gen", "setup", "measure"])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    return parser.parse_args(argv)


class Runner:
    """Runs ops one at a time, checks each output, and requires identical bytes on every rerun."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self.digests: dict[str, str] = {}

    def run(self, op, latencies: list[float] | None = None) -> float:
        from workloads import CheckFailed

        self.attempted += 1
        start = time.perf_counter()
        try:
            output = op.call()
        except Exception as exc:  # noqa: BLE001 - a failed op is counted and the loop goes on
            self.failures.append(f"{op.label}: raised {exc!r}")
            return time.perf_counter() - start
        elapsed = time.perf_counter() - start
        if latencies is not None:
            latencies.append(elapsed)
        try:
            op.check(output)
        except (CheckFailed, KeyError, TypeError, ValueError) as exc:
            self.failures.append(f"{op.label}: {exc}")
            return elapsed
        digest = op.digest(output)
        if self.digests.setdefault(op.label, digest) != digest:
            self.failures.append(f"{op.label}: output bytes differ from the first run")
        return elapsed

    @property
    def verified(self) -> int:
        """Ops whose output passed its check; each failed op records exactly one failure."""
        return self.attempted - len(self.failures)

    def run_pass(self, ops, latencies: list[float]) -> float:
        start = time.perf_counter()
        for op in ops:
            self.run(op, latencies)
        return time.perf_counter() - start


def manifest() -> dict:
    import numpy as np

    import pisier_lab

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "pisier_lab": pisier_lab.__version__,
        "PISIER_LAB_THREADS": os.environ.get("PISIER_LAB_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


def measure(args, workload, runner: Runner, setup_s: float) -> dict:
    result: dict = {"setup_s": [setup_s]}
    latencies: list[list[float]] = []  # per pass
    untraced: list[float] = []
    verified_before = runner.verified
    deadline = time.perf_counter() + args.seconds
    if not args.trace:
        while not untraced or time.perf_counter() < deadline:
            latencies.append([])
            untraced.append(runner.run_pass(workload.ops, latencies[-1]))
        result.update(pass_s=untraced, latencies_s=latencies)
    else:
        from spans import Tracer

        tracer = Tracer()
        traced: list[float] = []
        layer_runs: list[dict] = []
        while not traced or time.perf_counter() < deadline:
            untraced.append(runner.run_pass(workload.ops, []))
            tracer.reset()
            with tracer:
                traced.append(runner.run_pass(workload.ops, []))
            layer_runs.append(tracer.metrics(traced[-1]))
        result.update(pass_s=untraced, traced_pass_s=traced, layer_runs=layer_runs)
    result["verified_ops"] = runner.verified - verified_before
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return result


def main(argv=None) -> None:
    args = parse_args(argv)
    start = time.perf_counter()  # set-up time starts before pisier_lab is imported
    import pisier_lab  # noqa: F401 - first, so its thread cap precedes numpy

    import workloads

    import_s = time.perf_counter() - start
    if args.mode == "gen":
        workloads.generate_inputs(args.workload, args.seed, args.workdir)
        args.result.write_text("{}")
        return

    workload = workloads.build(args.workload, args.seed, args.workdir)
    runner = Runner()
    setup_s = import_s + runner.run(workload.warmup)  # the harness's own input building is excluded
    if args.mode == "setup":
        result = {"setup_s": [setup_s]}
    else:
        result = measure(args, workload, runner, setup_s)
        result.update(manifest=manifest(), sizes=workload.sizes)
    result.update(attempted=runner.attempted, failures=runner.failures)
    args.result.write_text(json.dumps(result))


if __name__ == "__main__":
    main()
