"""pisier-lab benchmark: run a workload and print every metric by name with its unit.

    python3 perfbench/run.py                      # all four workloads, one after another
    python3 perfbench/run.py --workload audit-sweep --seed 3 --seconds 10 --trace 0

Run from the root of a checkout; the library is imported from its ``src``.
Each workload runs closed loop (one op at a time) in a fresh process, after
input generation in a process of its own.  With ``--trace 0`` the last line of
stdout is the JSON result with the end-to-end metrics; with ``--trace 1`` it
holds the per-layer metrics of a traced run (see ``spans.py``).  The run
manifest is printed on the line before the table.  Exit code 0 means a result
was printed; a failed op is reported in the result, not by the exit code.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_PROBES = 2  # fresh processes besides the measuring one: three set-up samples per run
RUN_BUDGET_S = 170.0  # every run must end within 180 s
TAIL_MIN_SAMPLES = 200  # p95 is reported only with at least ten samples beyond it
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")

SPEC = ROOT / "BENCHMARK.json"  # declares the workloads, run length, metrics and units


class HarnessError(RuntimeError):
    """The benchmark could not produce a result."""


def load_spec() -> dict:
    return json.loads(SPEC.read_text())


def declared_units(trace: int) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in load_spec()["per_layer" if trace else "end_to_end"]}


def child_env() -> dict[str, str]:
    """Thread caps and PYTHONPATH for every child, set before any of them loads numpy."""
    env = dict(os.environ)
    threads = env.get("PISIER_LAB_THREADS") or str(len(os.sched_getaffinity(0)))
    env["PISIER_LAB_THREADS"] = threads
    for var in THREAD_VARS:
        env[var] = threads
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def source_manifest() -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "pisier_lab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    return {"nproc": len(os.sched_getaffinity(0)), "git_commit": commit,
            "src_sha256": digest.hexdigest()}


class WorkloadRun:
    def __init__(self, name: str, seed: int, seconds: float, trace: int, workdir: Path):
        self.name, self.seed, self.seconds, self.trace = name, seed, seconds, trace
        self.workdir = workdir
        self.env = child_env()
        self.deadline = time.monotonic() + RUN_BUDGET_S

    def child(self, mode: str) -> dict:
        result = self.workdir / f"{mode}.json"
        result.unlink(missing_ok=True)
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise HarnessError(f"{self.name}: out of time before the {mode} step")
        cmd = [sys.executable, str(BENCH / "worker.py"), mode, "--workload", self.name,
               "--seed", str(self.seed), "--seconds", str(self.seconds), "--trace", str(self.trace),
               "--workdir", str(self.workdir), "--result", str(result)]
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env, stdout=sys.stderr, timeout=timeout)
        except subprocess.TimeoutExpired as exc:
            raise HarnessError(f"{self.name}: {mode} step ran past the time budget") from exc
        if proc.returncode != 0 or not result.exists():
            raise HarnessError(f"{self.name}: {mode} step exited {proc.returncode}")
        return json.loads(result.read_text())

    def execute(self) -> dict:
        self.child("gen")
        measured = self.child("measure")
        probes = [] if self.trace else [self.child("setup") for _ in range(SETUP_PROBES)]
        attempted = measured["attempted"] + sum(p["attempted"] for p in probes)
        failures = measured["failures"] + [f for p in probes for f in p["failures"]]
        setup = measured["setup_s"] + [s for p in probes for s in p["setup_s"]]
        extra: list[tuple] = []
        if self.trace:
            metrics, notes, consistent = traced_metrics(measured, declared_units(1))
        else:
            metrics, extra, notes = end_to_end_metrics(measured, setup)
            consistent = True
        manifest = {**source_manifest(), **measured["manifest"], "workload": self.name,
                    "seed": self.seed, "seconds": self.seconds, "trace": self.trace,
                    "sizes": measured["sizes"]}
        return {"manifest": manifest, "metrics": metrics, "extra": extra, "notes": notes,
                "attempted": attempted, "failures": failures,
                "correct": not failures and consistent}


def end_to_end_metrics(measured: dict, setup: list[float]) -> tuple[dict, list[tuple], list[str]]:
    """Declared metrics, plus latency rows that are printed but not declared.

    The op latency percentiles are left out of BENCHMARK.json: on audit-sweep the
    median op is Python-bound and its run-to-run spread exceeded the largest
    bound the benchmark may set, and p95 exists on audit-sweep only.
    """
    passes, per_pass = measured["pass_s"], measured["latencies_s"]
    latencies = [lat for lats in per_pass for lat in lats]
    metrics = {
        "wall_s": statistics.median(passes),
        "ops_per_s": measured["verified_ops"] / sum(passes),
        "peak_rss_mb": measured["peak_rss_mb"],
        "setup_s": statistics.median(setup),
    }
    # A median of pass medians: the op mix is fixed per pass, so this p50 does not
    # jump between the latency clusters of different op kinds from run to run.
    pass_medians = [statistics.median(lats) for lats in per_pass if lats]  # ops that raised have none
    extra = []
    if pass_medians:
        extra.append(("op_p50_ms", 1e3 * statistics.median(pass_medians), "ms",
                      f"median over {len(pass_medians)} passes of the pass median, "
                      f"{len(latencies)} op latencies"))
    if len(latencies) >= TAIL_MIN_SAMPLES:
        extra.append(("op_p95_ms", 1e3 * statistics.quantiles(latencies, n=20)[18], "ms",
                      f"{len(latencies)} op latencies"))
    notes = [f"wall_s: median of {len(passes)} passes: "
             + " ".join(f"{wall:.3f}" for wall in passes),
             f"setup_s: median of {len(setup)} fresh processes"]
    return metrics, extra, notes


def traced_metrics(measured: dict, units: dict[str, str]) -> tuple[dict, list[str], bool]:
    """Median over traced passes for times; counts must repeat exactly from pass to pass."""
    runs = measured["layer_runs"]
    metrics = {}
    consistent = True
    for name in runs[0]:
        values = [run[name] for run in runs]
        if units[name] in ("count", "B"):
            consistent &= len(set(values)) == 1
            metrics[name] = values[0]
        else:
            metrics[name] = statistics.median(values)
    untraced = statistics.median(measured["pass_s"])
    traced = statistics.median(measured["traced_pass_s"])
    metrics["trace.overhead_s"] = traced - untraced
    notes = [f"untraced wall_s {untraced:.4f} s, traced {traced:.4f} s, "
             f"over {len(measured['pass_s'])} pass pairs",
             "counts repeat across traced passes" if consistent
             else "COUNTS DIFFER between traced passes"]
    return metrics, notes, consistent


def report(outcome: dict) -> None:
    manifest = outcome["manifest"]
    units = declared_units(manifest["trace"])
    if set(outcome["metrics"]) != set(units):
        raise HarnessError(f"metrics differ from {SPEC.name}: "
                           f"{sorted(set(outcome['metrics']) ^ set(units))}")
    print("manifest " + json.dumps(manifest, sort_keys=True))
    print(f"workload {manifest['workload']}  seed {manifest['seed']}  trace {manifest['trace']}")
    for name, value in outcome["metrics"].items():
        print(f"  {name:<36} {value:>16.6g} {units[name]}")
    attempted, failed = outcome["attempted"], len(outcome["failures"])
    extra = outcome["extra"] + [("fail_ratio", failed / attempted, "ratio",
                                 f"{failed}/{attempted} ops; the result's failed/attempted")]
    for name, value, unit, comment in extra:
        print(f"  {name:<36} {value:>16.6g} {unit}  (not in {SPEC.name}: {comment})")
    for note in outcome["notes"]:
        print(f"  # {note}")
    for failure in outcome["failures"][:20]:
        print(f"  FAILED {failure}")
    metrics = {name: {"value": value, "unit": units[name]} for name, value in outcome["metrics"].items()}
    print(json.dumps({"correct": outcome["correct"], "attempted": attempted, "failed": failed,
                      "metrics": metrics}), flush=True)


def main(argv=None) -> int:
    # On SIGTERM unwind normally: subprocess.run kills and reaps the running child,
    # and the work directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    spec = load_spec()
    workloads = tuple(w["name"] for w in spec["workloads"])
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", default="all", choices=("all",) + workloads)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "pisier_lab" / "__init__.py").is_file():
        print(f"no pisier_lab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    names = workloads if args.workload == "all" else (args.workload,)
    for name in names:
        workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
        try:
            report(WorkloadRun(name, args.seed, args.seconds, args.trace, workdir).execute())
        except HarnessError as exc:
            print(f"benchmark error: {exc}", file=sys.stderr)
            return 1
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
