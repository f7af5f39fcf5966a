#!/usr/bin/env python3
"""Benchmark of the kickedqubit package: one command runs a workload, checks
every output against a reference and prints each metric by name and unit.

    python3 perfbench/run.py --workload sweep_sparse --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py                  # every workload in turn

Run it from the root of a checkout; the package is imported from ``src``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: end-to-end metrics
with ``--trace 0``, per-layer metrics with ``--trace 1``.  The full report
(provenance, input properties, layer shares, failures) is written to
``.perfbench/results/``.

Set-up is measured ``SETUPS`` times per run, each in a fresh process that
imports the package, builds the inputs and runs one warm-up operation;
``setup_s`` is the median of the CPU time each has used by then.  The last
of those processes goes on to measure.  Times are CPU times scaled to a
reference host speed throughout; see ``worker.py`` and ``speed.py``.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("cli_catalog", "sweep_sparse", "sweep_dense", "dataset_io")
SETUPS = 5
#: wall seconds a run may take beyond --seconds, for its set-ups and checks
RUN_SLACK_S = 150.0


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    return env


def pin_to_one_cpu() -> str:
    """Keep this process and every process it starts on one CPU.

    The reference loop (``speed.py``) then samples the speed of the CPU the
    operations run on: on a shared virtual machine, two vCPUs can run at
    different speeds at the same moment.
    """
    try:
        cpus = sorted(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpus[-1]})
    except (AttributeError, OSError) as exc:
        return f"not pinned: {exc}"
    return f"pinned to CPU {cpus[-1]} of {len(cpus)}"


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown: not a git checkout"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, timeout=30)
    return proc.stdout.strip() or "unknown"


def spawn(args, workdir: Path, probe: bool, timeout: float) -> dict:
    """Start one worker and return its JSON report."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", str(workdir)]
    if probe:
        cmd.append("--probe")
    launch = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(),
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          timeout=max(timeout, 1.0))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    report = json.loads(lines[-1])
    report["setup_wall_s"] = report["ready"] - launch
    return report


def run_workload(args, pinning: str) -> dict:
    start = time.perf_counter()
    base = ROOT / ".perfbench"
    workdir = base / "work" / f"{args.workload}-{os.getpid()}"
    try:
        setups = []
        for k in range(SETUPS):
            left = args.seconds + RUN_SLACK_S - (time.perf_counter() - start)
            report = spawn(args, workdir, probe=k < SETUPS - 1, timeout=left)
            setups.append(report)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    report["provenance"].update(commit=git_commit(), cpu=pinning)
    report["setup_runs_s"] = [s["setup_s"] for s in setups]
    report["setup_runs_cpu_s"] = [s["ready_cpu"] for s in setups]
    report["setup_runs_wall_s"] = [s["setup_wall_s"] for s in setups]
    if not args.trace:
        report["metrics"]["setup_s"] = {"value": statistics.median(report["setup_runs_s"]),
                                        "unit": "s"}
    report.update(workload=args.workload, seconds=args.seconds, trace=args.trace)
    results = base / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(report, indent=2) + "\n")
    return report


def show(report: dict) -> None:
    prov = report["provenance"]
    print(f"== {report['workload']}  seed {prov['seed']}  trace {report['trace']}  "
          f"{report['seconds']:g} s")
    print(f"provenance: backend {prov['backend']} ({prov['compiled_speedup']}); "
          f"python {prov['python']}, numpy {prov['numpy']}, scipy {prov['scipy']}; "
          f"nproc {prov['nproc']}; commit {prov['commit']}")
    print(f"threads: {prov['threads']}")
    print(f"inputs: {json.dumps(report['inputs'])}")
    print(f"checks: {report['attempted']} attempted, {report['failed']} failed, "
          f"correct={report['correct']}, {report['warnings']} warnings raised")
    for message, count in report["failures"].items():
        print(f"  {count} x {message}")
    if "layer_share" in report:
        print(f"self-time share by layer: {json.dumps(report['layer_share'])}")
    for name, m in sorted(report["metrics"].items()):
        print(f"{name} = {m['value']:.6g} {m['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "kickedqubit" / "__init__.py").is_file():
        print(f"no package source at {SRC / 'kickedqubit'}; run from a full checkout",
              file=sys.stderr)
        return 2
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC), str(HERE)],
                   cwd=ROOT, stdout=subprocess.DEVNULL, timeout=120, check=True)
    pinning = pin_to_one_cpu()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    reports = []
    for name in names:
        try:
            report = run_workload(argparse.Namespace(**{**vars(args), "workload": name}),
                                  pinning)
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            print(f"{name}: benchmark failed: {exc}", file=sys.stderr)
            return 3
        show(report)
        reports.append(report)
    if len(reports) == 1:
        r = reports[0]
        line = {k: r[k] for k in ("correct", "attempted", "failed", "metrics")}
    else:
        line = {"correct": all(r["correct"] for r in reports),
                "attempted": sum(r["attempted"] for r in reports),
                "failed": sum(r["failed"] for r in reports),
                "metrics": {f"{r['workload']}.{k}": v for r in reports
                            for k, v in r["metrics"].items()}}
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
