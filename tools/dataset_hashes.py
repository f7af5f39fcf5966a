#!/usr/bin/env python3
"""Hash the catalog files and the datasets the sweep workloads produce, to
show a change leaves them bit for bit as they were.

    python3 tools/dataset_hashes.py --seed 101 --ops 120

The ``catalog`` line is one SHA-256 over the name and bytes of every CSV
and JSON file that ``run_experiment`` writes for the default config of each
catalog id (all of ``EXPERIMENT_IDS`` but ``custom``), id by id in catalog
order and file by file in name order.  For sweep_sparse and sweep_dense it
runs the first ``--ops`` operations of the seed plus the workload's fixed
accuracy panel through ``run_experiment`` and prints one SHA-256 per
workload over every dataset's ``data`` bytes and its ``meta`` (as sorted
JSON).  The ``dataset_io`` line does the same for the first ``--ops``
convergence tables of that workload plus its accuracy panel: many short,
one-sample ``integrate`` calls on a single rectangular pulse.  The
``configs`` line is one SHA-256 over the config echo (as sorted JSON) of
every dataset above, in the order they were built, so it shows a change to
config normalisation: float conversion, defaults, the hydrogen merge.  The
``data`` line is one SHA-256 over the ``data`` bytes alone of every dataset
above, the catalog's as ``read_dataset`` reads them back from its CSVs, so
a change that moves only ``meta`` (an ideal-kick probability, say) leaves
it as it was.  The ``warnings`` line is one SHA-256 over the category and
message of every warning raised while the datasets above are built, each
repeat included, in the order raised.  The ``csv`` line is one SHA-256 over
the name and bytes of the CSV and JSON files that ``ResultDataset.write``
writes for every dataset above, the catalog's as written, plus the first
``--ops`` dataset_io tables of every kind, so it shows a change to the file
writer.  Run it in two checkouts and compare
the lines.  It imports the package from ``src/`` and the workloads from
``perfbench/`` of the checkout it sits in.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402

import kickedqubit as kq  # noqa: E402
from spans import NullTracer  # noqa: E402
from workloads import DatasetIOWorkload, SweepWorkload  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=101)
    parser.add_argument("--ops", type=int, default=120)
    args = parser.parse_args(argv)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        print_dataset_hashes(args.seed, args.ops)
    digest = hashlib.sha256()
    for w in caught:
        digest.update(f"{w.category.__name__}: {w.message}\n".encode())
    print(f"warnings {len(caught)} raised {digest.hexdigest()}")
    return 0


def hash_files(out: Path, *digests) -> int:
    """Hash the name and bytes of every file in ``out``, in name order, into
    each of ``digests``; return the number of files."""
    paths = sorted(out.iterdir())
    for path in paths:
        for digest in digests:
            digest.update(path.name.encode())
            digest.update(path.read_bytes())
    return len(paths)


def hash_written(ds, texts) -> int:
    """Write ``ds`` to a temporary directory and hash its files into ``texts``."""
    with tempfile.TemporaryDirectory() as tmp:
        ds.write(tmp)
        return hash_files(Path(tmp), texts)


def print_dataset_hashes(seed: int, n_ops: int) -> None:
    echoes = []  # every dataset's config, in the order they are built
    tables = hashlib.sha256()  # every dataset's data, in the same order
    texts = hashlib.sha256()  # every dataset's written files, in the same order
    n_files = 0
    digest = hashlib.sha256()
    ids = [i for i in kq.EXPERIMENT_IDS if i != "custom"]
    for experiment in ids:
        with tempfile.TemporaryDirectory() as tmp:
            with contextlib.redirect_stdout(io.StringIO()):
                datasets, _ = kq.run_experiment(kq.default_config(experiment), out_dir=tmp)
            echoes.extend(ds.config for ds in datasets)
            n_files += hash_files(Path(tmp), digest, texts)
            for path in sorted(Path(tmp).glob("*.csv")):
                tables.update(np.ascontiguousarray(kq.read_dataset(path).data).tobytes())
    print(f"catalog {len(ids)} ids {digest.hexdigest()}")
    for name, dense in (("sweep_sparse", False), ("sweep_dense", True)):
        workload = SweepWorkload(name, seed, dense)
        ops = [workload.next_op() for _ in range(n_ops)] + workload.accuracy_panel()
        digest = hashlib.sha256()
        for op in ops:
            with contextlib.redirect_stdout(io.StringIO()):
                datasets, _ = kq.run_experiment(kq.ExperimentConfig.from_dict(op["raw"]))
            for ds in datasets:
                echoes.append(ds.config)
                n_files += hash_written(ds, texts)
                data = np.ascontiguousarray(ds.data).tobytes()
                tables.update(data)
                digest.update(data)
                digest.update(json.dumps(ds.meta, sort_keys=True).encode())
        print(f"{name} {len(ops)} operations {digest.hexdigest()}")
    with tempfile.TemporaryDirectory() as tmp:
        workload = DatasetIOWorkload(seed, Path(tmp))
        ops = []
        while len(ops) < n_ops:
            op = workload.next_op()
            if op["kind"] == "convergence":
                ops.append(op)
        digest = hashlib.sha256()
        for op in ops + workload.accuracy_panel():
            ds = workload._build(op, NullTracer())
            echoes.append(ds.config)
            n_files += hash_written(ds, texts)
            data = np.ascontiguousarray(ds.data).tobytes()
            tables.update(data)
            digest.update(data)
            digest.update(json.dumps(ds.meta, sort_keys=True).encode())
        workload = DatasetIOWorkload(seed, Path(tmp))
        for _ in range(n_ops):
            n_files += hash_written(workload._build(workload.next_op(), NullTracer()), texts)
    print(f"dataset_io {len(ops)} convergence tables + panel {digest.hexdigest()}")
    digest = hashlib.sha256()
    for config in echoes:
        digest.update(json.dumps(config, sort_keys=True).encode())
    print(f"configs {len(echoes)} datasets {digest.hexdigest()}")
    print(f"data {len(echoes)} datasets {tables.hexdigest()}")
    print(f"csv {n_files} files {texts.hexdigest()}")


if __name__ == "__main__":
    raise SystemExit(main())
