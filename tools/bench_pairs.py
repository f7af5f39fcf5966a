#!/usr/bin/env python3
"""Benchmark a base commit against the working tree in alternating pairs.

    python3 tools/bench_pairs.py --base <rev> --out BENCH_<n>.json

For every workload and seed this runs ``perfbench/run.py --trace 0`` once in
a ``git archive`` copy of ``--base`` and once in a fresh copy of the working
tree (the files git tracks or would track, so no ``__pycache__`` or other
ignored output comes along), the base first for even pair indices and
second for odd ones, and writes every run's
end-to-end metrics plus, per metric, each side's median and quartiles and
the number of pairs the working tree wins (by the metric's ``better``
direction in ``BENCHMARK.json``).  ``--seeds`` defaults to ten seeds,
301 to 310: fewer pairs cannot show a 9-in-10 win, nor tell a sweep's
median from its spread.  Run it from the root of a checkout.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} in {checkout}: {proc.stderr[-2000:]}")
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    return {"correct": line["correct"], "attempted": line["attempted"],
            "failed": line["failed"],
            "metrics": {k: m["value"] for k, m in line["metrics"].items()}}


def copy_worktree(dest: Path) -> None:
    """Copy the working tree's tracked and untracked, not ignored, files."""
    listed = subprocess.run(
        ["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
        cwd=ROOT, check=True, stdout=subprocess.PIPE).stdout
    for name in filter(None, listed.decode().split("\0")):
        src = ROOT / name
        if src.is_file():  # a tracked file deleted in the tree is skipped
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dest / name)


def summarise(pairs: list[dict], better: dict) -> dict:
    out = {}
    for name in pairs[0]["base"]["metrics"]:
        base = [p["base"]["metrics"][name] for p in pairs]
        change = [p["change"]["metrics"][name] for p in pairs]
        sign = 1.0 if better[name] == "higher" else -1.0
        row = {"better": better[name],
               "change_wins": sum(sign * (c - b) > 0 for b, c in zip(base, change)),
               "pairs": len(pairs)}
        for side, values in (("base", base), ("change", change)):
            q = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            row[side] = {"median": statistics.median(values), "q1": q[0], "q3": q[2]}
        row["median_ratio"] = (row["change"]["median"] / row["base"]["median"]
                               if row["base"]["median"] else None)
        out[name] = row
    return out


def recorded_command(argv: list[str]) -> str:
    """The command line of a run, as run from the root of a checkout, with
    ``--out`` by its file name only: a record carries no path of the
    machine it was written on."""
    out = []
    for arg in argv:
        if out and out[-1] == "--out":
            arg = Path(arg).name
        elif arg.startswith("--out="):
            arg = "--out=" + Path(arg[len("--out="):]).name
        out.append(arg)
    return " ".join(["tools/bench_pairs.py", *out])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="git revision to compare against")
    parser.add_argument("--seeds", type=int, nargs="+", default=list(range(301, 311)))
    parser.add_argument("--workloads", nargs="+",
                        default=["cli_catalog", "sweep_sparse", "sweep_dense", "dataset_io"])
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--out", type=Path, required=True)
    argv = sys.argv[1:] if argv is None else argv
    args = parser.parse_args(argv)
    # SIGTERM ends the run as SystemExit, so the temporary checkouts are removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    rev = subprocess.run(["git", "rev-parse", args.base], cwd=ROOT, check=True,
                         stdout=subprocess.PIPE, text=True).stdout.strip()
    tmp = Path(tempfile.mkdtemp(prefix="bench-pairs-"))
    base, change = tmp / "base", tmp / "change"
    try:
        base.mkdir()
        archive = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True,
                                 stdout=subprocess.PIPE).stdout
        subprocess.run(["tar", "-x", "-C", str(base)], input=archive, check=True)
        copy_worktree(change)
        report = {
            "command": recorded_command(argv),
            "base": rev, "change": "working tree",
            "host": {"python": platform.python_version(), "machine": platform.machine(),
                     "nproc": os.cpu_count()},
            "seconds": args.seconds, "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "workloads": {},
        }
        for workload in args.workloads:
            pairs = []
            for i, seed in enumerate(args.seeds):
                order = [("base", base), ("change", change)]
                if i % 2:
                    order.reverse()
                pair = {"seed": seed, "first": order[0][0]}
                for side, checkout in order:
                    pair[side] = run_once(checkout, workload, seed, args.seconds)
                pairs.append(pair)
                print(f"{workload} seed {seed}: " + ", ".join(
                    f"{side} ops_per_s {pair[side]['metrics']['ops_per_s']:.4g}"
                    for side in ("base", "change")), flush=True)
            report["workloads"][workload] = {"pairs": pairs, "summary": summarise(pairs, better)}
        report["finished"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
