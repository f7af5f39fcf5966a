#!/usr/bin/env python3
"""Compare the CPU time of a base commit and the working tree in one process.

    python3 tools/cpu_pairs.py --base <rev> [--workload sweep_sparse] [--seed 301]
                               [--configs 60] [--rounds 21] [--tolerance 0]

The package of ``--base`` is taken from a ``git archive`` of that revision
and imported under another name (``kickedqubit_base``) beside the working
tree's ``kickedqubit``, so both run in the same interpreter, on the same
CPU and under the same drift of the machine's speed.  The configs are the
first ``--configs`` operations of a sweep workload (from the working
tree's ``perfbench/``) at ``--seed``, or with ``--workload catalog`` the
default config of every catalog id but ``custom`` (the working tree's, as
JSON; ``--seed`` and ``--configs`` are then unused), the convergence scan
among them.  They are run once in each tree, and the largest
move of a value between the trees, in the data or among the numbers of the
meta, is reported.  With the default ``--tolerance 0`` every dataset's
name, data bytes and meta must be the same in both; a tolerance above 0
accepts values that moved by at most that much.  Anything else (another
name, shape or non-number in the meta, or a larger move) stops the script
with exit code 1: a timing of two trees that compute different things
compares nothing.  Then, for ``--rounds`` rounds, each tree runs all the
configs once, the base first in even rounds and second in odd ones, timed
with ``time.process_time``.  It prints each round and, at the end, the
median and quartiles of the change/base CPU ratio over the rounds.  Run it
from the root of a checkout.
"""
from __future__ import annotations

import argparse
import contextlib
import importlib.util
import io
import json
import math
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402

import kickedqubit  # noqa: E402
from workloads import SweepWorkload  # noqa: E402


def import_base(rev: str, dest: Path):
    """The package of ``rev``, extracted to ``dest`` and imported as
    ``kickedqubit_base`` (its modules import each other relatively)."""
    archive = subprocess.run(["git", "archive", rev, "src/kickedqubit"], cwd=ROOT,
                             check=True, stdout=subprocess.PIPE).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    package = dest / "src" / "kickedqubit"
    spec = importlib.util.spec_from_file_location(
        "kickedqubit_base", package / "__init__.py", submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def run_all(package, raws: list[dict]) -> list:
    """The datasets of every config, run quietly: no print, no warning."""
    out = []
    with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()):
        warnings.simplefilter("ignore")
        for raw in raws:
            datasets, _ = package.run_experiment(package.ExperimentConfig.from_dict(raw))
            out.extend(datasets)
    return out


def fingerprint(ds) -> tuple:
    return (ds.name, np.ascontiguousarray(ds.data).tobytes(),
            json.dumps(ds.meta, sort_keys=True))


def split(ds) -> tuple:
    """``(name, shape and meta without its numbers, values)``: the values
    are the data and the float numbers of the meta, in one flat array."""
    numbers = []

    def strip(value):
        if isinstance(value, float):
            numbers.append(value)
            return 0.0
        if isinstance(value, dict):
            return {k: strip(v) for k, v in value.items()}
        if isinstance(value, list):
            return [strip(v) for v in value]
        return value

    rest = (ds.data.shape, json.dumps(strip(ds.meta), sort_keys=True))
    return ds.name, rest, np.concatenate((np.ravel(ds.data), numbers))


def largest_move(base: list, change: list) -> float:
    """The largest move of a value between two lists of datasets: 0.0 when
    every dataset is the same bytes in both, inf when they differ in
    anything but their values.  A move of a sign of zero alone counts as
    the smallest float above 0, so that only the same bytes read 0.0."""
    if len(base) != len(change):
        return math.inf
    move = 0.0
    for b, c in zip(base, change):
        if fingerprint(b) == fingerprint(c):
            continue
        (name_b, rest_b, values_b), (name_c, rest_c, values_c) = split(b), split(c)
        if name_b != name_c or rest_b != rest_c:
            return math.inf
        moved = np.abs(values_b - values_c)
        if not np.isfinite(moved).all():
            return math.inf
        move = max(move, float(moved.max()), math.ulp(0.0))
    return move


def cpu_seconds(package, raws: list[dict]) -> float:
    start = time.process_time()
    run_all(package, raws)
    return time.process_time() - start


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="git revision to compare against")
    parser.add_argument("--workload", choices=["sweep_sparse", "sweep_dense", "catalog"],
                        default="sweep_sparse")
    parser.add_argument("--seed", type=int, default=301)
    parser.add_argument("--configs", type=int, default=60)
    parser.add_argument("--rounds", type=int, default=21)
    parser.add_argument("--tolerance", type=float, default=0.0,
                        help="largest move of a value accepted between the trees")
    args = parser.parse_args(argv)
    # SIGTERM ends the run as SystemExit, so the temporary checkouts are removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if args.workload == "catalog":
        label = "catalog"
        raws = [kickedqubit.default_config(experiment).to_dict()
                for experiment in kickedqubit.EXPERIMENT_IDS if experiment != "custom"]
    else:
        label = f"{args.workload} seed {args.seed}"
        workload = SweepWorkload(args.workload, args.seed, args.workload == "sweep_dense")
        raws = [workload.next_op()["raw"] for _ in range(args.configs)]
    with tempfile.TemporaryDirectory(prefix="cpu-pairs-") as tmp:
        base = import_base(args.base, Path(tmp))
        trees = {"base": base, "change": kickedqubit}
        # also the warm-up of both trees
        outs = {side: run_all(package, raws) for side, package in trees.items()}
        move = largest_move(outs["base"], outs["change"])
        differ = [b.name for b, c in zip(outs["base"], outs["change"])
                  if fingerprint(b) != fingerprint(c)]
        same = ("the same bytes in both trees" if move == 0.0 else
                f"{len(differ)} differ, largest move {move:.3g} (first {differ[:3]})")
        if move > args.tolerance:
            print(f"the trees' datasets differ beyond --tolerance {args.tolerance:g}: "
                  f"{len(outs['base'])} datasets, {same}; no timing", file=sys.stderr)
            return 1
        print(f"{label}: {len(raws)} configs, "
              f"{len(outs['base'])} datasets, {same}", flush=True)
        seconds = {"base": [], "change": []}
        ratios = []
        for r in range(args.rounds):
            order = ["base", "change"] if r % 2 == 0 else ["change", "base"]
            for side in order:
                seconds[side].append(cpu_seconds(trees[side], raws))
            ratios.append(seconds["change"][-1] / seconds["base"][-1])
            print(f"round {r + 1}: base {seconds['base'][-1]:.4f} s, "
                  f"change {seconds['change'][-1]:.4f} s, change/base {ratios[-1]:.4f}",
                  flush=True)
    q = statistics.quantiles(ratios, n=4) if len(ratios) > 1 else ratios * 3
    print(f"change/base CPU over {len(ratios)} rounds: median {statistics.median(ratios):.4f} "
          f"[q1 {q[0]:.4f}, q3 {q[2]:.4f}]; median CPU per pass base "
          f"{statistics.median(seconds['base']):.4f} s, change "
          f"{statistics.median(seconds['change']):.4f} s")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
