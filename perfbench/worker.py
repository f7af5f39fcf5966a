"""One benchmark process: set up, warm up, measure one workload, report JSON.

Started by ``run.py``, never by hand.  The process imports the package from
the checkout's ``src``, builds its inputs from the seed, runs one untimed
warm-up operation and notes the CPU time it has used by then: the set-up
time.  With ``--probe`` it stops there.  Otherwise it measures for
``--seconds`` of wall time and prints one JSON object as the last line of
its standard output.

Operations are timed in CPU time (user + system, of this process and of the
CLI processes it waits for).  The program is single-threaded and CPU-bound,
so on an idle machine that equals wall time; unlike wall time, it does not
count the time the process sits descheduled while something else on the
machine runs.  Every reported time is then scaled to a reference host speed
(see ``speed.py``).  Raw CPU and wall times are kept in the report.  BLAS
threads are pinned to 1 by ``run.py``, so no layer ever waits on another,
and the trace reports busy time only.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
import warnings
from dataclasses import dataclass
from pathlib import Path

from speed import SETUP_SAMPLES, SpeedProbe

#: reference-loop samples from before the package import, so that the samples
#: taken for the set-up bracket it (see main)
SPEED = SpeedProbe()
for _ in range(SETUP_SAMPLES):
    SPEED.sample()

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import kickedqubit as kq  # noqa: E402
import kickedqubit.experiments as kq_experiments  # noqa: E402
import kickedqubit.hydrogen as kq_hydrogen  # noqa: E402
import kickedqubit.propagators as kq_propagators  # noqa: E402
import reference as ref  # noqa: E402
from spans import NullTracer, Tracer  # noqa: E402
from workloads import (CATALOG_IDS, Outcome, RoundTripError,  # noqa: E402
                       check_catalog_outputs, make_workload)

NULL = NullTracer()


@dataclass
class Record:
    op: dict
    latency: float  # CPU seconds, scaled to the reference speed by rescale()
    outcome: Outcome
    warnings: int
    raw: float      # CPU seconds as measured
    wall: float
    at: float       # wall time of the middle of the operation


def cpu_time() -> float:
    """CPU seconds used so far by this process and the children it waited for."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def run_one(wl, op: dict, tracer, speed: SpeedProbe) -> Record:
    """Time ``wl.run(op)``, then check its output outside the timed region."""
    caught: list = []
    speed.tick()
    start, start_cpu = time.perf_counter(), cpu_time() - speed.cpu_s

    def elapsed():  # the reference loop run while waiting on a CLI is not the operation
        return cpu_time() - speed.cpu_s - start_cpu, time.perf_counter() - start

    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = wl.run(op, tracer)
    except Exception as exc:  # a raise is a failed operation, not a crash
        cpu, wall = elapsed()
        wl.discard(op)
        extra = {"raised": True, "roundtrip": isinstance(exc, RoundTripError)}
        return Record(op, cpu, Outcome(False, message=f"{type(exc).__name__}: {exc}",
                                       extra=extra), len(caught), cpu, wall, start + wall / 2)
    cpu, wall = elapsed()
    try:
        outcome = wl.check(op, result)
    except Exception as exc:
        wl.discard(op)
        outcome = Outcome(False, message=f"check raised {type(exc).__name__}: {exc}")
    return Record(op, cpu, outcome, len(caught), cpu, wall, start + wall / 2)


def rescale(records: list[Record], speed: SpeedProbe) -> list[Record]:
    """Scale each operation's CPU time to the reference speed (see speed.py)."""
    speed.sample()  # so that the last operations have a sample after them too
    for r in records:
        r.latency = r.raw * speed.scale_over(r.at - 0.5 * r.wall, r.at + 0.5 * r.wall)
    return records


def run_for(wl, seconds: float, tracer, speed: SpeedProbe) -> list[Record]:
    """Run fresh operations until ``seconds`` have passed.

    The CLI catalog runs whole passes over the 8 ids, so every id runs equally
    often; it starts another pass if at least half of one would fit.
    """
    records: list[Record] = []
    start = time.perf_counter()
    whole_passes = hasattr(wl, "at_pass_start")
    pass_start, last_pass = start, 0.0
    while True:
        now = time.perf_counter()
        if whole_passes:
            if wl.at_pass_start() and records:
                last_pass, pass_start = now - pass_start, now
                if now - start + 0.5 * last_pass > seconds:
                    break
        elif now - start >= seconds:
            break
        records.append(run_one(wl, wl.next_op(), tracer, speed))
    return rescale(records, speed)


def summarise(records: list[Record], group=None) -> dict:
    """Counts and timings of a list of operations.

    With ``group``, each group's latency is its median over the group's
    operations and the timed total charges every operation that median, so
    one call slowed by something outside the program moves neither.
    """
    ok = [r for r in records if r.outcome.ok]
    timed = sum(r.latency for r in records)
    lat_ms = [1e3 * r.latency for r in ok]
    if group is not None and ok:
        by_group: dict = {}
        for r in ok:
            by_group.setdefault(group(r.op), []).append(r.latency)
        lat_ms = [1e3 * statistics.median(v) for v in by_group.values()]
        timed = sum(statistics.median(v) * len(v) for v in by_group.values()) + sum(
            r.latency for r in records if not r.outcome.ok)
    errs = [r.outcome.ref_err for r in records if r.outcome.ref_err is not None]
    return {
        "attempted": len(records),
        "failed": len(records) - len(ok),
        "timed_s": timed,
        "ok": len(ok),
        "rows": sum(r.outcome.rows for r in ok),
        "lat_ms": lat_ms,
        "raw_p50_ms": 1e3 * statistics.median([r.raw for r in ok]) if ok else 0.0,
        "wall_p50_ms": 1e3 * statistics.median([r.wall for r in ok]) if ok else 0.0,
        "max_ref_err": max(errs) if errs else 0.0,
        "warnings": sum(r.warnings for r in records),
        "messages": _count_kinds(r.outcome.message for r in records if not r.outcome.ok),
    }


def _count_kinds(messages) -> dict:
    """Failure messages with their numbers blanked, counted."""
    counts: dict[str, int] = {}
    for m in messages:
        key = re.sub(r"\d+(\.\d+)?(e-?\d+)?", "#", m)
        counts[key] = counts.get(key, 0) + 1
    return counts


def is_correct(records: list[Record]) -> bool:
    """True if no operation failed: a wrong output and a raise both count."""
    return all(r.outcome.ok for r in records)


def end_to_end(summary: dict, rss_mb: float) -> dict:
    timed = summary["timed_s"] or math.inf
    lat = summary["lat_ms"] or [0.0]
    p50, p95 = np.percentile(lat, [50, 95])
    return {
        "ops_per_s": (summary["ok"] / timed, "1/s"),
        "op_p50_ms": (float(p50), "ms"),
        "op_p95_ms": (float(p95), "ms"),
        "rows_per_s": (summary["rows"] / timed, "1/s"),
        "max_ref_err": (summary["max_ref_err"], "prob"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


# --- tracing -------------------------------------------------------------------

def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _describe_integrate(attrs, args, kwargs, result) -> None:
    model = args[0]
    t0, t1, dt = (_arg(args, kwargs, i, n) for i, n in ((2, "t0"), (3, "t1"), (4, "dt")))
    attrs["kind"] = f"h_{model.basis}" if hasattr(model, "basis") else "qubit"
    attrs["steps"] = max(1, round((t1 - t0) / dt))
    attrs["samples"] = len(result.times)
    pulses = [{"shape": p.shape, "t_k": p.t_k, "tau": p.tau} for p in model.seq.pulses]
    attrs["covered"] = ref.covered_length(pulses, t0, t1)
    attrs["span"] = t1 - t0


def _describe_multi_kick(attrs, args, kwargs, result) -> None:
    attrs.update(fn="multi_kick", calls=1, points=1)


def _describe_write(attrs, args, kwargs, result) -> None:
    sidecar = result.with_suffix(".json")
    attrs["bytes"] = result.stat().st_size + (sidecar.stat().st_size if sidecar.exists() else 0)


def install_spans(tracer: Tracer) -> None:
    """Span the layer calls the package makes internally, for the traced phase."""
    tracer.wrap(kq_experiments, "integrate", "integrator", _describe_integrate)
    tracer.wrap(kq_hydrogen, "integrate", "integrator", _describe_integrate)
    tracer.wrap(kq_experiments, "run_pulse_sequence", "hydrogen")
    tracer.wrap(kq_experiments, "validate_sequence", "pulses")
    tracer.wrap(kq_propagators, "validate_sequence", "pulses")
    tracer.wrap(kq_experiments, "multi_kick", "propagators", _describe_multi_kick)
    tracer.wrap(kq_experiments.ResultDataset, "write", "experiments.write", _describe_write)


def import_times(repeats: int = 3) -> tuple[float, float]:
    """Median cumulative import time of the package and of scipy.integrate."""
    totals, scipys = [], []
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import kickedqubit"],
                              cwd=ROOT, env=os.environ.copy(), stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=60, check=True)
        cumulative = {}
        for line in proc.stderr.splitlines():
            m = re.match(r"import time:\s+\d+ \|\s+(\d+) \|\s+(\S.*)$", line)
            if m:
                cumulative.setdefault(m.group(2).strip(), int(m.group(1)))
        totals.append(1e-6 * cumulative["kickedqubit"])
        scipys.append(1e-6 * cumulative.get("scipy.integrate", 0))
    return statistics.median(totals), statistics.median(scipys)


def per_layer(tracer: Tracer, records: list[Record], overhead_pct: float,
              cli_records: list[Record], scale: float) -> dict:
    """Per-layer metrics; span and import times are scaled by ``scale``."""
    layers = tracer.by_layer()

    def self_s(layer):
        return layers.get(layer, {}).get("self_s", 0.0)

    def mean_us(layer):
        entry = layers.get(layer)
        return 1e6 * entry["total_s"] / entry["count"] if entry else 0.0

    integ = tracer.of("integrator")
    steps_by_kind: dict[str, list] = {}
    for _, start, end, _, a in integ:
        steps_by_kind.setdefault(a["kind"], []).append((a["steps"], end - start))
    spans = sum(a["span"] for *_, a in integ)
    prop = [(end - start, a) for _, start, end, _, a in tracer.of("propagators")]
    kick = [(d, a["calls"]) for d, a in prop if a.get("fn") == "multi_kick"]
    total, scipy_s = import_times()
    metrics = {"import.total_s": (total, "s"), "import.scipy_s": (scipy_s, "s")}
    metrics.update({
        "experiments.config_us": (mean_us("experiments.config"), "us"),
        "pulses.validate_us": (mean_us("pulses"), "us"),
        "integrator.calls": (len(integ), "count"),
        "integrator.steps": (sum(a["steps"] for *_, a in integ), "count"),
        "integrator.samples": (sum(a["samples"] for *_, a in integ), "count"),
        "integrator.self_s": (self_s("integrator"), "s"),
    })
    for kind in ("qubit", "h_j", "h_coupled"):
        pairs = steps_by_kind.get(kind, [])
        n = sum(s for s, _ in pairs)
        metrics[f"integrator.ns_per_step.{kind}"] = (
            1e9 * sum(d for _, d in pairs) / n if n else 0.0, "ns")
    metrics.update({
        "integrator.pulse_coverage": (
            sum(a["covered"] for *_, a in integ) / spans if spans else 0.0, "share"),
        "hydrogen.self_s": (self_s("hydrogen"), "s"),
        "experiments.dataset_build_s": (self_s("experiments.run"), "s"),
        "experiments.write_s": (layers.get("experiments.write", {}).get("total_s", 0.0), "s"),
        "experiments.write_bytes": (
            sum(a.get("bytes", 0) for *_, a in tracer.of("experiments.write")), "bytes"),
        "experiments.read_s": (layers.get("experiments.read", {}).get("total_s", 0.0), "s"),
        "experiments.roundtrip_fail": (
            sum(1 for r in records if r.outcome.extra.get("roundtrip")
                or r.outcome.message.endswith("round trip differs")), "count"),
        "propagators.points_per_s": (
            sum(a.get("points", 0) for _, a in prop) / sum(d for d, _ in prop)
            if prop else 0.0, "1/s"),
        "propagators.multi_kick_us": (
            1e6 * sum(d for d, _ in kick) / sum(c for _, c in kick) if kick else 0.0, "us"),
    })
    for name, (value, unit) in metrics.items():
        if unit in ("s", "us", "ns"):
            metrics[name] = (value * scale, unit)
        elif unit == "1/s":
            metrics[name] = (value / scale, unit)
    for exp_id in CATALOG_IDS:
        times = [r.latency for r in cli_records if r.op["id"] == exp_id]
        metrics[f"cli.{exp_id}_s"] = (statistics.median(times) if times else 0.0, "s")
    metrics.update({
        "trace.overhead_pct": (overhead_pct, "%"),
        "trace.span_coverage": (tracer.covered_s() / sum(r.raw for r in records), "share"),
    })
    return metrics


def layer_shares(tracer: Tracer, records: list[Record]) -> dict:
    """Self time of each layer as a share of the traced operations' time."""
    traced_s = sum(r.raw for r in records) or math.inf
    return {layer: round(v["self_s"] / traced_s, 4)
            for layer, v in sorted(tracer.by_layer().items(),
                                   key=lambda kv: -kv[1]["self_s"])}


class InProcessCatalog:
    """A catalog id run in-process: the CLI's work without the import."""

    def run(self, op, tracer):
        with tracer.span("experiments.config"):
            config = kq.default_config(op["id"])
        with tracer.span("experiments.run"):
            _, paths = kq.run_experiment(config, out_dir=op["out"])
        with tracer.span("experiments.read"):
            for path in paths:
                kq.read_dataset(path)
        return paths

    def check(self, op, paths):
        try:
            return check_catalog_outputs(op["id"], Path(op["out"]))
        finally:
            shutil.rmtree(op["out"], ignore_errors=True)

    def discard(self, op):
        shutil.rmtree(op["out"], ignore_errors=True)


# --- main ----------------------------------------------------------------------

def provenance(seed: int) -> dict:
    import scipy

    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "backend": kq.BACKEND,
        "compiled_speedup": ("measured" if kq.BACKEND == "numba"
                             else "unmeasured: numba is not installed, numpy path only"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "kickedqubit": kq.__version__,
        "nproc": nproc,
        "machine": platform.machine(),
        "seed": seed,
        "threads": "single-threaded; BLAS threads pinned to 1, so no layer waits on another",
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args(argv)

    out = sys.stdout
    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    wl = make_workload(args.workload, args.seed, workdir, ROOT, os.environ.copy())
    speed = SPEED
    if hasattr(wl, "while_waiting"):
        wl.while_waiting = speed.tick
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        warm = run_one(wl, wl.warmup_op(), NULL, speed)
        ready_at = time.perf_counter()
        setup_cpu = cpu_time() - speed.cpu_s  # the reference loop is not set-up
        for _ in range(SETUP_SAMPLES):
            speed.sample()
        ready = {"ready": ready_at, "ready_cpu": setup_cpu,
                 "setup_s": setup_cpu * speed.scale(),
                 "warmup_ok": warm.outcome.ok, "warmup_message": warm.outcome.message}
        if args.probe:
            print(json.dumps(ready), file=out)
            return 0
        report: dict = dict(ready)
        if not args.trace:
            records = run_for(wl, args.seconds, NULL, speed)
            ops = [r.op for r in records]
            summary = summarise(records, getattr(wl, "group", None))
            if hasattr(wl, "accuracy_panel"):
                panel = [run_one(wl, op, NULL, speed) for op in wl.accuracy_panel()]
                summary["max_ref_err"] = summarise(panel)["max_ref_err"]
                records += panel
            metrics = end_to_end(summary, _peak_rss_mb(args.workload))
        else:
            records, ops, metrics, report["layer_share"] = traced(wl, args, workdir, speed)
    summary = summarise(records)
    report.update(
        attempted=summary["attempted"], failed=summary["failed"],
        correct=is_correct(records + [warm]),
        metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        inputs=wl.properties(ops), samples=len(summary["lat_ms"]),
        raw_p50_ms=summary["raw_p50_ms"], wall_p50_ms=summary["wall_p50_ms"],
        # wall time and CPU milliseconds of every loop sample and operation,
        # so that the scaling can be examined after the fact
        speed_samples_ms=[(at, 1e3 * cpu) for at, cpu in speed.samples],
        op_raw_ms=[(r.at, 1e3 * r.raw, r.outcome.ok, 1e3 * r.wall) for r in records],
        warnings=summary["warnings"], failures=summary["messages"],
        provenance=provenance(args.seed))
    print(json.dumps(report), file=out)
    return 0


def traced(wl, args, workdir: Path, speed: SpeedProbe):
    """Per-layer run: each operation untraced, then at once traced.

    The overhead is the median over those pairs of traced over untraced CPU
    time, so the host's speed, which drifts over seconds, cancels out.
    """
    tracer = Tracer()

    def pair(runner, op):
        plain = run_one(runner, op, NULL, speed)
        install_spans(tracer)
        try:
            return plain, run_one(runner, op, tracer, speed)
        finally:
            tracer.restore()

    if args.workload == "cli_catalog":
        # cli.<id>_s time the subprocesses; the layers inside the CLI come
        # from the same catalog run in-process
        cli_records = run_for(wl, 0.6 * args.seconds, NULL, speed)
        runner = InProcessCatalog()
        pairs = [pair(runner, {"id": i, "out": str(workdir / f"inproc_{i}")})
                 for i in CATALOG_IDS]
        ops = [r.op for r in cli_records]
    else:
        cli_records, pairs = [], []
        start = time.perf_counter()
        while time.perf_counter() - start < args.seconds:
            pairs.append(pair(wl, wl.next_op()))
        ops = [plain.op for plain, _ in pairs]
    rescale([r for p in pairs for r in p], speed)
    traced_records = [t for _, t in pairs]
    overhead = 100.0 * (statistics.median(t.raw / p.raw for p, t in pairs) - 1.0)
    metrics = per_layer(tracer, traced_records, overhead, cli_records, _scale(traced_records))
    return (cli_records + [r for p in pairs for r in p], ops, metrics,
            layer_shares(tracer, traced_records))


def _scale(records: list[Record]) -> float:
    """The speed scale that applied to a list of operations, as a whole."""
    return sum(r.latency for r in records) / sum(r.raw for r in records)


def _peak_rss_mb(workload: str) -> float:
    who = resource.RUSAGE_CHILDREN if workload == "cli_catalog" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


if __name__ == "__main__":
    raise SystemExit(main())
