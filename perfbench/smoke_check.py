#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

    python3 perfbench/smoke_check.py

* runs every workload for one second, untraced and traced, and checks that
  the last line holds exactly the four result keys and every metric that
  ``BENCHMARK.json`` names, with its unit;
* shows that the checks flag deliberately perturbed results: a sweep's
  final populations, a gaussian run's norm, a dataset read back and a value
  of each closed-form table kind;
* shows that a full cycle of ``dataset_io`` tables, single-row ones
  included, succeeds, and that any operation that raises makes the result
  incorrect;
* shows that the benchmark refuses to run, printing no result, in a
  directory that holds only ``BENCHMARK.json`` and the benchmark.

Exits 0 when every check passes.  Scratch files go under ``.perfbench/``.
"""
from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import worker  # noqa: E402
import workloads as W  # noqa: E402
from spans import NullTracer  # noqa: E402

PROBLEMS: list[str] = []


def expect(condition: bool, what: str) -> None:
    print(f"{'ok  ' if condition else 'FAIL'} {what}")
    if not condition:
        PROBLEMS.append(what)


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=180)


def check_outputs() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            proc = run_bench(ROOT, workload, trace)
            label = f"{workload} --trace {trace}"
            expect(proc.returncode == 0, f"{label} exits 0 ({proc.stderr.strip()[-300:]})")
            if proc.returncode:
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"{label} prints the four result keys")
            expect(result["attempted"] >= 1 and result["correct"] is True,
                   f"{label} attempted {result['attempted']}, correct {result['correct']}")
            wanted = {m["name"]: m["unit"] for m in spec[group]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(got == wanted, f"{label} reports every {group} metric with its unit")
            expect(all(isinstance(v["value"], (int, float))
                       for v in result["metrics"].values()), f"{label} values are numbers")


def check_perturbations(scratch: Path) -> None:
    warnings.simplefilter("ignore")
    for dense, shift in ((True, 0.01), (False, 0.2)):
        sweep = W.SweepWorkload("sweep", 7, dense=dense)
        rect = next(op for op in iter(sweep.next_op, None)
                    if op["shape"] == "rectangular" and op["system"] == W.H_J)
        with contextlib.redirect_stdout(io.StringIO()):
            datasets = sweep.run(rect, NullTracer())
        label = "dense" if dense else "sparse"
        expect(sweep.check(rect, datasets).ok, f"an unperturbed {label} rectangular run passes")
        bumped = datasets[0].data.copy()
        bumped[-1, 1:3] += (-shift, shift)
        perturbed = [dataclasses.replace(datasets[0], data=bumped), datasets[1]]
        expect(not sweep.check(rect, perturbed).ok,
               f"a {label} final population moved by {shift} fails the exact-reference check")

    sweep = W.SweepWorkload("sweep_sparse", 7, dense=False)
    gauss = next(op for op in iter(sweep.next_op, None)
                 if op["shape"] == "gaussian" and op["system"] == W.QUBIT)
    with contextlib.redirect_stdout(io.StringIO()):
        datasets = sweep.run(gauss, NullTracer())
    expect(sweep.check(gauss, datasets).ok, "an unperturbed gaussian sweep passes")
    drifted = datasets[1].data.copy()
    drifted[-1, -1] += 1e-4
    expect(not sweep.check(gauss, [datasets[0], dataclasses.replace(
        datasets[1], data=drifted)]).ok, "a norm drift of 1e-4 fails the norm check")

    io_wl = W.DatasetIOWorkload(7, scratch)
    op = io_wl.next_op()
    ds, back, path = io_wl.run(op, NullTracer())
    changed = back.data.copy()
    changed.flat[0] = np.nextafter(changed.flat[0], np.inf)
    expect(not io_wl.check(op, (ds, dataclasses.replace(back, data=changed), path)).ok,
           "a read-back value one ulp off fails the round-trip check")

    for kind in ("surface", "multi_kick", "two_kick_xy", "ordering"):
        op = next(o for o in iter(io_wl.next_op, None) if o["kind"] == kind and o["n"] > 1)
        ds, back, path = io_wl.run(op, NullTracer())
        off = back.data.copy()
        off[len(off) // 2, 2] += 1e-9
        ds, back = (dataclasses.replace(d, data=off) for d in (ds, back))
        expect(not io_wl.check(op, (ds, back, path)).ok,
               f"{kind}: a p2 moved by 1e-9 fails the closed-form check")


def check_raises(scratch: Path) -> None:
    warnings.simplefilter("ignore")
    speed = worker.SpeedProbe()
    io_wl = W.DatasetIOWorkload(7, scratch)
    ops = [io_wl.next_op() for _ in range(W.IO_PERIOD)]
    records = [worker.run_one(io_wl, op, worker.NULL, speed) for op in ops]
    expect(worker.is_correct(records) and any(op["n"] == 1 for op in ops),
           "a full cycle of dataset_io tables, a single-row one included, succeeds")

    def raising(op, tracer):
        raise RuntimeError("integration diverged")

    sweep = W.SweepWorkload("sweep_sparse", 7, dense=False)
    sweep.run = raising
    record = worker.run_one(sweep, sweep.next_op(), worker.NULL, speed)
    expect(not worker.is_correct(records + [record]),
           "a sweep operation that raises makes the result incorrect")

    def unreadable(op, tracer):
        raise W.RoundTripError("cannot read back")

    io_wl.run = unreadable
    record = worker.run_one(io_wl, ops[0], worker.NULL, speed)
    expect(not worker.is_correct([record]), "a dataset_io read failure makes the result incorrect")


def check_bare_directory(scratch: Path) -> None:
    bare = scratch / "bare"
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = run_bench(bare, "sweep_dense", 0)
    expect(proc.returncode != 0 and not proc.stdout.strip(),
           "without the package source the benchmark exits non-zero and prints no result")


def main() -> int:
    scratch = ROOT / ".perfbench" / "smoke"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    try:
        check_perturbations(scratch)
        check_raises(scratch)
        check_bare_directory(scratch)
        check_outputs()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(f"{len(PROBLEMS)} problem(s)")
    return 1 if PROBLEMS else 0


if __name__ == "__main__":
    raise SystemExit(main())
