"""The comparison tools under ``tools/``."""
from __future__ import annotations

import importlib.util
import os
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np

from kickedqubit import EXPERIMENT_IDS, ResultDataset

ROOT = Path(__file__).resolve().parent.parent


def _tool(name):
    """The module of ``tools/<name>.py``."""
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_cpu_pairs_removes_its_checkout_when_terminated(tmp_path):
    # SIGTERM after the first timed round: the handler turns it into
    # SystemExit, so the temporary directory of the base tree is removed
    env = {**os.environ, "TMPDIR": str(tmp_path)}
    proc = subprocess.Popen(
        [sys.executable, str(ROOT / "tools" / "cpu_pairs.py"), "--base", "HEAD",
         "--configs", "1", "--rounds", "1000"],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        for line in proc.stdout:
            if line.startswith("round "):
                break
        else:
            raise AssertionError(f"no round line; stderr: {proc.stderr.read()}")
        assert list(tmp_path.iterdir())  # the base tree is extracted there
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=60) == 128 + signal.SIGTERM
    finally:
        proc.kill()
        proc.wait()
        proc.stdout.close()
        proc.stderr.close()
    assert not list(tmp_path.iterdir())


def test_cpu_pairs_times_the_catalog(tmp_path):
    # every catalog default config, the convergence scan among them, in both
    # trees: here the committed tree against itself, the same bytes
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "cpu_pairs.py"), "--base", "HEAD",
         "--workload", "catalog", "--rounds", "1"],
        cwd=ROOT, env={**os.environ, "TMPDIR": str(tmp_path)}, capture_output=True,
        text=True, timeout=600, check=False)
    assert proc.returncode == 0, proc.stderr
    ids = [i for i in EXPERIMENT_IDS if i != "custom"]
    assert proc.stdout.splitlines()[0].startswith(f"catalog: {len(ids)} configs, ")
    assert "the same bytes in both trees" in proc.stdout
    assert "change/base CPU over 1 rounds" in proc.stdout
    assert not list(tmp_path.iterdir())  # the base tree is removed


def _dataset(name="custom_forward", p2=0.25, **meta):
    data = np.array([[0.0, 1.0, 0.0], [1.0, 1.0 - p2, p2]])
    return ResultDataset(name=name, columns=("t", "p1", "p2"), data=data, config={},
                         meta={"final_p2": p2, "ordering": "forward", **meta})


def test_cpu_pairs_reports_the_largest_move_between_the_trees():
    # the same bytes read 0.0; moved values, in the data and in the meta's
    # numbers, read the largest move; any other difference reads inf
    largest_move = _tool("cpu_pairs").largest_move
    base = [_dataset(), _dataset("custom_reversed", 0.5)]
    assert largest_move(base, [_dataset(), _dataset("custom_reversed", 0.5)]) == 0.0
    moved = [_dataset(p2=0.25 + 2.0 ** -54), _dataset("custom_reversed", 0.5 - 2.0 ** -50)]
    assert largest_move(base, moved) == 2.0 ** -50
    assert largest_move(base, [_dataset(), _dataset("custom_reversed", -0.0)]) == 0.5
    # a sign of zero is a move, however small
    assert 0.0 < largest_move([_dataset(p2=0.0)], [_dataset(p2=-0.0)]) < 1e-300
    for other in ([_dataset()], [_dataset(), _dataset("other", 0.5)],
                  [_dataset(), _dataset("custom_reversed", 0.5, ordering="reversed")],
                  [_dataset(), _dataset("custom_reversed", 0.5, extra=1)]):
        assert largest_move(base, other) == float("inf")


def test_bench_pairs_records_the_output_by_its_file_name():
    recorded_command = _tool("bench_pairs").recorded_command
    for out in ("/some/where/BENCH_9.json", "BENCH_9.json", "../BENCH_9.json"):
        assert (recorded_command(["--base", "abc123", "--out", out, "--seconds", "8"])
                == "tools/bench_pairs.py --base abc123 --out BENCH_9.json --seconds 8")
        assert (recorded_command([f"--out={out}", "--base", "abc123"])
                == "tools/bench_pairs.py --out=BENCH_9.json --base abc123")
