"""The comparison tools under ``tools/``."""
from __future__ import annotations

import importlib.util
import itertools
import os
import signal
import subprocess
import sys
import types
import warnings
from pathlib import Path

import numpy as np

import kickedqubit
from kickedqubit import EXPERIMENT_IDS, ResultDataset, experiments

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


def test_cpu_pairs_times_blocks_of_configs(tmp_path):
    # --blocks: 30 configs are a block of 25 and one of 5, each timed three
    # times in both trees; here the committed tree against itself
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "cpu_pairs.py"), "--base", "HEAD",
         "--configs", "30", "--rounds", "1", "--blocks"],
        cwd=ROOT, env={**os.environ, "TMPDIR": str(tmp_path)}, capture_output=True,
        text=True, timeout=600, check=False)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0].startswith("sweep_sparse seed 301: 30 configs, ")
    assert "the same bytes in both trees" in proc.stdout
    assert "change/base CPU over 1 rounds of blocks" in proc.stdout
    assert not list(tmp_path.iterdir())  # the base tree is removed


def test_cpu_pairs_times_the_dataset_io_operations(tmp_path):
    # build, write and read back in both trees, every file compared first;
    # here the committed tree against itself, the same bytes
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "cpu_pairs.py"), "--base", "HEAD",
         "--workload", "io", "--configs", "5", "--rounds", "1"],
        cwd=ROOT, env={**os.environ, "TMPDIR": str(tmp_path)}, capture_output=True,
        text=True, timeout=600, check=False)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == ("dataset_io seed 301: 5 operations, 5 datasets, "
                                           "the same bytes in both trees")
    assert "change/base CPU over 1 rounds" in proc.stdout
    assert not list(tmp_path.iterdir())  # the base tree is removed


def test_cpu_pairs_io_stops_on_files_of_other_bytes(monkeypatch, capsys):
    # a base whose files carry one more comment line reads back the same
    # values, but its CSV bytes differ: no timing, exit code 1.  Of the
    # first three operations (surface, convergence, multi_kick) only the
    # last builds its ResultDataset through the base's name
    cpu_pairs = _tool("cpu_pairs")

    class Noted(ResultDataset):
        def write(self, out_dir):
            path = super().write(out_dir)
            with open(path, "a") as handle:
                handle.write("# a note\n")
            return path

    base = types.ModuleType("kickedqubit_noted")
    base.__dict__.update(vars(kickedqubit), ResultDataset=Noted)
    monkeypatch.setattr(cpu_pairs, "import_base", lambda rev, dest: base)
    monkeypatch.setattr(signal, "signal", lambda *args: None)
    assert cpu_pairs.main(["--base", "HEAD", "--workload", "io", "--configs", "3",
                           "--rounds", "1"]) == 1
    err = capsys.readouterr().err
    assert ("differ beyond --tolerance 0: 3 datasets, 1 differ, largest move 4.94e-324 "
            "(first ['multi_kick_2'])") in err


def test_dataset_hashes_csv_line_hashes_the_written_files(monkeypatch, capsys):
    # one more line in every written body moves the csv line (and the
    # catalog's), not the values read back
    hashes = _tool("dataset_hashes")
    lines = []
    for note in ([], ["# a note\n"]):
        blocks = experiments._csv_blocks
        monkeypatch.setattr(experiments, "_csv_blocks",
                            lambda data, blocks=blocks, note=note: itertools.chain(
                                blocks(data), note))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            hashes.print_dataset_hashes(101, 2)
        lines.append(dict(line.split(" ", 1) for line in capsys.readouterr().out.splitlines()))
    plain, noted = lines
    # 14 catalog files, 2 + 8 operations of each sweep in two orderings,
    # 2 + 8 convergence tables and 2 tables of dataset_io: CSV and JSON each
    assert plain["csv"].split()[:2] == [str(28 + 2 * 2 * 10 * 2 + 10 * 2 + 2 * 2), "files"]
    assert noted["csv"] != plain["csv"] and noted["catalog"] != plain["catalog"]
    for name in ("sweep_sparse", "sweep_dense", "dataset_io", "configs", "data"):
        assert noted[name] == plain[name]


def test_block_seconds_sums_the_least_time_of_each_block(monkeypatch):
    # each block is timed three times per tree, in the order given, and
    # each tree's least time per block is summed
    cpu_pairs = _tool("cpu_pairs")
    calls = []
    times = iter([5.0, 1.0, 4.0, 2.0, 3.0, 3.0, 1.0, 7.0, 2.0, 6.0, 3.0, 5.0])

    def timed(package, raws):
        calls.append((package, len(raws)))
        return next(times)

    monkeypatch.setattr(cpu_pairs, "cpu_seconds", timed)
    total = cpu_pairs.block_seconds({"base": "B", "change": "C"}, ["change", "base"],
                                    [{}] * 30)
    assert calls == [("C", 25), ("B", 25)] * 3 + [("C", 5), ("B", 5)] * 3
    assert total == {"change": 3.0 + 1.0, "base": 1.0 + 5.0}


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
