"""Experiment catalog, dataset files, and the drivers behind the CLI.

Experiments come in three kinds:

* trajectory runs (figure1..figure6, custom): integrate a pulse sequence on
  the model qubit or on hydrogen, once per pulse ordering, and emit one
  time-series dataset per ordering;
* the ordering surface (figure7): tabulate the ordered and order-free
  transfer probabilities of the opposite kick pair on an (epsilon, phi) grid;
* convergence (kick-limit) scans: shrink the pulse width and record the
  final-state distance to the ideal-kick closed form.

Datasets are CSV files with a commented header block that echoes the full
config (so a run can be reproduced from the file alone) plus a JSON sidecar
carrying the same provenance.  Writes are atomic (temp file + rename).
"""
from __future__ import annotations

import itertools
import json
import math
import os
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from ._version import __version__
# integrate and run_pulse_sequence are no longer called here, but the
# benchmark's traced phase wraps them by these names (perfbench/worker.py)
from .hydrogen import (  # noqa: F401
    DEFAULT_MHZ,
    HydrogenModel,
    HydrogenParams,
    UNIT_SCALES,
    _warn_off_picture,
    default_params,
    default_run_end,
    p_target,
    revival_time,
    run_pulse_sequence,
)
from .integrator import TwoStatePulseModel, _integrate, _Run, integrate, norm_drift  # noqa: F401
from .propagators import _width_coefficient, free_phase, multi_kick
from .pulses import (AXES, GAUSSIAN_RUN_TAIL, SHAPES, KickSequence, PulseSpec,
                     validate_sequence)

#: the system each experiment runs on; None where either will do
_SYSTEM_OF = {
    "figure1": "model-qubit", "figure2": "model-qubit", "figure3": "model-qubit",
    "figure4": "model-qubit", "figure5": "hydrogen", "figure6": "hydrogen",
    "figure7": "model-qubit", "convergence": "model-qubit", "custom": None,
}
EXPERIMENT_IDS = tuple(_SYSTEM_OF)
SYSTEMS = ("model-qubit", "hydrogen")
ORDERINGS = ("forward", "reversed")
#: the fields a run never reads, keyed by system and by experiment id, and
#: why: each must keep its default, so that the config a dataset echoes is
#: the one that ran.  The ids without an entry of their own integrate
#: trajectories, the only runs with a reversed ordering.
_UNREAD = {
    "model-qubit": (("hydrogen", "basis"),
                    "only hydrogen reads hydrogen parameters and has a coupled basis"),
    "hydrogen": (("delta_e",), "hydrogen takes its splitting from hydrogen.delta_e_mhz"),
    "figure7": (("pulses", "delta_e", "dt", "t_end", "sample_every", "taus"),
                "figure7 tabulates a closed form and reads only its grid"),
    "convergence": (("t_end", "sample_every", "grid"),
                    "convergence integrates a window around its pulses and "
                    "keeps one sample per width"),
    "trajectories": (("grid", "taus"),
                     "only figure7 reads grid and only convergence reads taus"),
}

#: dimensionless model-qubit defaults: unit splitting, first kick after one
#: time unit, second kick a quarter free period later (dE * gap = pi/2, where
#: the xy ordering effect is largest), third kick after a clearly different gap.
MODEL_DELTA_E = 1.0
MODEL_T1 = 1.0
MODEL_T2 = MODEL_T1 + math.pi / 2.0
MODEL_T3 = MODEL_T2 + 1.3
MODEL_T_DELTA = 2.0 * math.pi / MODEL_DELTA_E

HYDROGEN_T1_PS = 20.0

#: most samples, (t_end / dt) / sample_every, that a config lets one
#: trajectory run keep: a table of this many rows takes some 100 MB to build,
#: hundreds of times the largest catalog or benchmark run (a few thousand)
MAX_SAMPLES = 1_000_000

#: most RK4 links, (merged support length) / dt, that a config lets one
#: trajectory run take: ``integrate`` lays every link out in arrays of some
#: 100 bytes per link in all, so this many take some 100 MB, hundreds of
#: times the largest catalog or benchmark run (a few thousand).  Free flight
#: takes no links, so a long run between pulses costs nothing here.
MAX_LINKS = 1_000_000


class ConfigError(ValueError):
    """Invalid experiment config; ``path`` points at the offending field."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}" if path else message)


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to reproduce one experiment, JSON-serializable.

    Construction validates every field and fills the defaults that depend on
    others (``orderings``: ``("forward",)`` for ``custom``, ``figure7`` and
    ``convergence``, else both), or raises a ``ConfigError`` naming the
    first bad field.  A config is unhashable, since its dict fields are:
    ``hash()`` raises ``TypeError: unhashable type: 'ExperimentConfig'``.
    """

    __hash__ = None  # the dict fields are unhashable
    experiment: str
    system: str = "model-qubit"
    delta_e: float = MODEL_DELTA_E
    hydrogen: dict | None = None
    pulses: tuple[dict, ...] = ()
    orderings: tuple[str, ...] | None = None
    dt: float | None = None
    t_end: float | None = None
    sample_every: int = 1
    basis: str = "j"
    grid: dict | None = None
    taus: tuple[float, ...] | None = None
    out: str | None = None

    def __post_init__(self) -> None:
        def put(name: str, value) -> None:
            object.__setattr__(self, name, value)

        experiment = _need_choice(self.experiment, "experiment", EXPERIMENT_IDS, "id")
        system = _need_choice(self.system, "system", SYSTEMS)

        put("delta_e", _need_number(self.delta_e, "delta_e", positive=True))
        for name in ("dt", "t_end"):
            if getattr(self, name) is not None:
                put(name, _need_number(getattr(self, name), name, positive=True))
        _need_int(self.sample_every, "sample_every", 1)
        put("pulses", _need_list(self.pulses, "pulses"))
        if experiment != "figure7" and not self.pulses:
            raise ConfigError("pulses", f"experiment {experiment!r} needs at least one pulse")

        if system == "hydrogen":
            numbers = _HYDROGEN_KEYS[:3]
            merged = {"convention": "plain", **_need_object(
                self.hydrogen, "hydrogen", _HYDROGEN_KEYS, numbers, "a parameter object")}
            for key in numbers:
                merged[key] = _need_number(merged[key], f"hydrogen.{key}",
                                           positive=key != "gamma_mhz", nonnegative=True)
            _need_choice(merged["convention"], "hydrogen.convention", tuple(UNIT_SCALES))
            put("hydrogen", merged)

        run = experiment if experiment in _UNREAD else "trajectories"
        for key in (system, run):
            unread, why = _UNREAD[key]
            for name in unread:
                if getattr(self, name) != _FIELD_DEFAULTS[name]:
                    raise ConfigError(name, f"{why}; leave {name} out")

        pulses = []
        for i, raw in enumerate(self.pulses):
            where = f"pulses[{i}]"
            raw = _need_object(raw, where, _PULSE_KEYS, ("alpha", "t_k"), "a pulse object")
            p = {**_PULSE_DEFAULTS, **raw}
            shape = _need_choice(p["shape"], f"{where}.shape", SHAPES)
            _need_choice(p["axis"], f"{where}.axis", AXES)
            for key in ("alpha", "t_k", "tau"):
                p[key] = _need_number(p[key], f"{where}.{key}", nonnegative=key == "tau")
            if shape == "ideal" and p["tau"] != 0.0:
                raise ConfigError(f"{where}.tau", "an ideal kick must have tau = 0")
            if shape != "ideal" and p["tau"] <= 0.0:
                raise ConfigError(f"{where}.tau", f"a {shape} pulse needs tau > 0")
            if shape == "ideal":
                raise ConfigError(
                    f"{where}.shape", f"{experiment} integrates its pulses, and an "
                    f"ideal kick has no width to integrate; use gaussian or rectangular")
            pulses.append(p)
        for i, (a, b) in enumerate(zip(pulses, pulses[1:])):
            if b["t_k"] <= a["t_k"]:
                raise ConfigError(
                    f"pulses[{i + 1}].t_k", "pulse centers must be strictly increasing")
        put("pulses", tuple(pulses))

        orderings = self.orderings
        if orderings is None:
            orderings = (ORDERINGS if run == "trajectories" and experiment != "custom"
                         else ("forward",))
        orderings = _need_list(orderings, "orderings", nonempty=True)
        for i, o in enumerate(orderings):
            _need_choice(o, f"orderings[{i}]", ORDERINGS, "ordering")
            if o != "forward" and run != "trajectories":
                raise ConfigError(f"orderings[{i}]",
                                  f"{experiment} runs the forward ordering only")
            if o in orderings[:i]:
                raise ConfigError(f"orderings[{i}]", f"ordering {o!r} is listed twice")
        put("orderings", orderings)

        _need_choice(self.basis, "basis", ("j", "coupled"))

        if experiment == "figure7":
            grid = dict(_need_object({} if self.grid is None else self.grid, "grid",
                                     ("n_epsilon", "n_phi", "phi_max"), (), "a grid object"))
            for key in ("n_epsilon", "n_phi"):
                grid[key] = _need_int(grid.get(key, 200), f"grid.{key}", 2)
            grid["phi_max"] = _need_number(
                grid.get("phi_max", 2.0 * math.pi), "grid.phi_max", positive=True)
            put("grid", grid)

        if experiment == "convergence":
            taus = tuple(_need_number(tau, f"taus[{i}]", nonnegative=True)
                         for i, tau in enumerate(_need_list(self.taus, "taus", nonempty=True)))
            for a, b in zip(taus, taus[1:]):
                if b >= a:
                    raise ConfigError("taus", "widths must be strictly decreasing")
            put("taus", taus)

        if self.out is not None and not isinstance(self.out, str):
            raise ConfigError("out", f"expected a string path, got {self.out!r}")

        runs_on = _SYSTEM_OF[experiment]
        if runs_on not in (None, system):
            raise ConfigError("system", f"{experiment} runs on " + (
                "hydrogen" if runs_on == "hydrogen" else "the model qubit"))

        if run == "trajectories":
            dt = self.dt if self.dt is not None else min(p["tau"] for p in pulses) / 20.0
            params = None
            if system == "hydrogen":
                try:
                    params = HydrogenParams.from_mhz(**self.hydrogen)
                except ValueError as exc:  # a quoted value that underflows
                    raise ConfigError("hydrogen", str(exc)) from None
            runs = {}
            for o in self.orderings:
                seq = config_sequence(self, o, None if params is None else params.delta_e)
                end = _run_end(self, seq)
                # every run ends after its last pulse center, so only a
                # default end can come before t = 0, where the run starts
                if end <= 0.0:
                    raise ConfigError(
                        "t_end", f"the {o} run would end at t = {end:g}, before it "
                        f"starts at t = 0; set t_end or move the pulses past t = 0")
                samples = end / dt / self.sample_every
                if samples > MAX_SAMPLES:
                    raise ConfigError(
                        "sample_every", f"the {o} run would keep {samples:.3g} samples "
                        f"(t_end = {end:g}, dt = {dt:g}), above the limit of "
                        f"{MAX_SAMPLES:,}; set a shorter t_end, a larger dt or a "
                        f"larger sample_every")
                links = _support_length(seq, end) / dt
                if links > MAX_LINKS:
                    raise ConfigError(
                        "dt", f"the {o} run would take {links:.3g} RK4 steps inside "
                        f"its pulse supports (dt = {dt:g}), above the limit of "
                        f"{MAX_LINKS:,}; set a larger dt")
                runs[o] = seq, end
            put("_runs", runs)  # not fields: no part of ==, repr or to_dict
            put("_params", params)

    def to_dict(self) -> dict:
        """Every field as JSON values: tuples become lists, dicts are copied."""
        return {name: _plain(getattr(self, name)) for name in _CONFIG_KEYS}

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        """Build a config from parsed JSON; construction checks the fields."""
        return cls(**_need_object(raw, "", _CONFIG_KEYS, ("experiment",), "a JSON object"))


_FIELD_DEFAULTS = {f.name: f.default for f in fields(ExperimentConfig)}
_CONFIG_KEYS = tuple(_FIELD_DEFAULTS)
#: a config pulse's defaults, keyed in PulseSpec's field order; alpha and
#: t_k have none and must be given
_PULSE_DEFAULTS = {"shape": "gaussian", "axis": "x", "alpha": None, "t_k": None, "tau": 0.0}
_PULSE_KEYS = tuple(_PULSE_DEFAULTS)
_HYDROGEN_KEYS = ("delta_e_mhz", "e_fs_mhz", "gamma_mhz", "convention")


def _plain(value):
    # construction leaves every dict of a field holding JSON scalars
    if isinstance(value, tuple):
        return [_plain(v) for v in value]
    return dict(value) if isinstance(value, dict) else value


def _need_object(value, path: str, keys, required, what: str) -> dict:
    """``value``, a dict with no key outside ``keys`` and every key of ``required``."""
    if not isinstance(value, dict):
        raise ConfigError(path, f"expected {what}, got {value!r}")
    for key in value:
        if key not in keys:
            raise ConfigError(f"{path}.{key}" if path else key, "unknown field")
    for key in required:
        if key not in value:
            raise ConfigError(f"{path}.{key}" if path else key, "missing required field")
    return value


def _need_choice(value, path: str, choices: tuple, what: str = "value"):
    if value not in choices:
        raise ConfigError(path, f"unknown {what} {value!r}; expected one of {choices}")
    return value


def _need_int(value, path: str, minimum: int) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(path, f"expected an integer, got {value!r}")
    if value < minimum:
        raise ConfigError(path, f"must be >= {minimum}, got {value}")
    return value


def _need_list(value, path: str, *, nonempty=False) -> tuple:
    if not isinstance(value, (list, tuple)) or (nonempty and not value):
        raise ConfigError(
            path, f"expected a {'non-empty ' * nonempty}list, got {value!r}")
    return tuple(value)


def _need_number(value, path: str, *, positive=False, nonnegative=False) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(path, f"expected a number, got {value!r}")
    x = float(value)
    if not math.isfinite(x):
        raise ConfigError(path, f"must be finite, got {value!r}")
    if positive and x <= 0:
        raise ConfigError(path, f"must be > 0, got {value!r}")
    if nonnegative and x < 0:
        raise ConfigError(path, f"must be >= 0, got {value!r}")
    return x


def _gauss(alpha: float, t_k: float, tau: float, axis: str = "x") -> dict:
    return {"shape": "gaussian", "axis": axis, "alpha": alpha, "t_k": t_k, "tau": tau}


def default_config(experiment: str, convention: str = "plain") -> ExperimentConfig:
    """The catalog entry behind each experiment id, with the quoted parameters."""
    if experiment == "custom":
        raise ConfigError("experiment", "custom runs need an explicit --config file")
    _need_choice(convention, "hydrogen.convention", tuple(UNIT_SCALES))

    a1, a2, a3 = 0.1 * math.pi, 0.15 * math.pi, 0.25 * math.pi
    narrow = 0.001 * MODEL_T_DELTA
    raw: dict = {"experiment": experiment}
    if experiment == "figure1":
        raw["pulses"] = [_gauss(a1, MODEL_T1, narrow), _gauss(a2, MODEL_T2, narrow)]
        raw["sample_every"] = 5
    elif experiment == "figure2":
        wide = 0.005 * MODEL_T_DELTA
        raw["pulses"] = [_gauss(a1, MODEL_T1, wide), _gauss(a2, MODEL_T2, wide)]
        raw["sample_every"] = 5
    elif experiment == "figure3":
        raw["pulses"] = [_gauss(a1, MODEL_T1, narrow),
                         _gauss(a2, MODEL_T2, narrow, axis="y")]
        raw["sample_every"] = 5
    elif experiment == "figure4":
        raw["pulses"] = [_gauss(a1, MODEL_T1, narrow), _gauss(a2, MODEL_T2, narrow),
                         _gauss(a3, MODEL_T3, narrow)]
        raw["sample_every"] = 5
    elif experiment in ("figure5", "figure6"):
        t2 = HYDROGEN_T1_PS + revival_time(default_params(convention))
        second_axis = "y" if experiment == "figure6" else "x"
        raw["system"] = "hydrogen"
        raw["hydrogen"] = dict(zip(_HYDROGEN_KEYS, (*DEFAULT_MHZ, convention)))
        raw["pulses"] = [_gauss(a1, HYDROGEN_T1_PS, 1.0),
                         _gauss(a2, t2, 1.0, axis=second_axis)]
        raw["sample_every"] = 10
    elif experiment == "convergence":
        raw["pulses"] = [{"shape": "rectangular", "axis": "x", "alpha": a3,
                          "t_k": MODEL_T1, "tau": 0.01 * MODEL_T_DELTA}]
        raw["taus"] = [w * MODEL_T_DELTA
                       for w in (1e-2, 10 ** -2.5, 1e-3, 10 ** -3.5, 1e-4,
                                 10 ** -4.5, 1e-5)]
    return ExperimentConfig(**raw)


@dataclass(frozen=True)
class ResultDataset:
    """One table of results plus the provenance needed to regenerate it."""

    name: str
    columns: tuple[str, ...]
    data: np.ndarray
    config: dict
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        data = np.asarray(self.data, dtype=float)
        object.__setattr__(self, "data", data)
        # the name is a file name in the output directory and a header line
        if not self.name or any(c in self.name for c in "/\\\r\n"):
            raise ValueError(f"dataset name {self.name!r} is not a plain file name")
        if not self.columns:
            raise ValueError(f"dataset {self.name!r} has no columns")
        # the column row must read back as the same names
        row = ",".join(self.columns)
        if (not row or row.startswith("#") or "\r" in row or "\n" in row
                or tuple(row.split(",")) != tuple(self.columns)):
            raise ValueError(f"dataset {self.name!r} columns {self.columns!r} do not "
                             f"round-trip through the column row")
        if data.ndim != 2 or data.shape[1] != len(self.columns):
            raise ValueError(
                f"data shape {data.shape} does not match {len(self.columns)} columns")
        if not np.isfinite(data).all():
            raise ValueError(f"dataset {self.name!r} contains non-finite values")
        if self.columns[0] == "t" and not (data[1:, 0] > data[:-1, 0]).all():
            raise ValueError(f"dataset {self.name!r} times are not increasing")

    def write(self, out_dir) -> Path:
        """Write <name>.csv and its JSON sidecar atomically; return the CSV path."""
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        config_json = json.dumps(self.config, sort_keys=True)
        meta_json = json.dumps(self.meta, sort_keys=True)
        header = "\n".join([
            f"# kickedqubit {__version__}",
            f"# dataset: {self.name}",
            f"# config: {config_json}",
            f"# meta: {meta_json}",
            ",".join(self.columns),
        ]) + "\n"
        csv_path = out / f"{self.name}.csv"
        _atomic_write(csv_path, itertools.chain([header], _csv_blocks(self.data)))
        payload = {
            "version": __version__,
            "dataset": self.name,
            "columns": list(self.columns),
            "rows": int(self.data.shape[0]),
            "config": self.config,
            "meta": self.meta,
            "csv": csv_path.name,
        }
        _atomic_write(out / f"{self.name}.json",
                      [json.dumps(payload, sort_keys=True, indent=2) + "\n"])
        return csv_path


_BLOCK_ROWS = 1024


def _csv_blocks(data: np.ndarray):
    """Yield the table body as one string per block of rows, ``%.17g`` per
    value, so the whole body is never held as one string.

    A column with at most a quarter as many distinct values as rows (the
    grid axes of a surface) is shared: each distinct value is formatted
    once and its text enters the row template as ``%s``.  Values are told
    apart by their bits, so -0.0 keeps its own text.
    """
    n_rows, n_cols = data.shape
    shared = {}  # column -> (text of each distinct value, index of each row's)
    for j in range(n_cols):
        bits, index = np.unique(data[:, j].view(np.int64), return_inverse=True)
        if 4 * len(bits) <= n_rows:
            texts = ["%.17g" % v for v in bits.view(np.float64).tolist()]
            shared[j] = (np.array(texts, dtype=object), index)
    row = ",".join(["%s" if j in shared else "%.17g" for j in range(n_cols)]) + "\n"
    for start in range(0, n_rows, _BLOCK_ROWS):
        block = data[start:start + _BLOCK_ROWS]
        cells = np.empty(block.shape, dtype=object)
        for j in range(n_cols):
            if j in shared:
                texts, index = shared[j]
                cells[:, j] = texts[index[start:start + len(block)]]
            else:
                cells[:, j] = block[:, j]
        yield (row * len(block)) % tuple(cells.ravel().tolist())
    if not n_rows:
        yield "\n"  # the file format: a zero-row table ends in one blank line


def _atomic_write(path: Path, chunks) -> None:
    """Write the strings of ``chunks`` to a temp file beside ``path``, then
    rename it over ``path``; on any failure the temp file is removed."""
    tmp = path.with_name(f".{path.name}.{os.urandom(6).hex()}")
    # mode 0666 through open(2): the kernel applies the umask, as open() does
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        try:
            handle = os.fdopen(fd, "w", newline="\n")
        except BaseException:
            os.close(fd)
            raise
        with handle:
            handle.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def read_dataset(csv_path) -> ResultDataset:
    """Parse a dataset CSV (header block + table) back into a ResultDataset.

    The header block is read line by line up to the column row; the body is
    parsed by ``np.loadtxt``, which skips blank and ``#`` lines. Lines may
    end in LF or CRLF. A file without a column row, a malformed ``# config:``
    or ``# meta:`` line or a malformed body raises a ``ValueError`` that
    names the file.
    """
    path = Path(csv_path)
    name = path.stem
    provenance: dict = {"config": {}, "meta": {}}
    header: list[str] = []
    with open(path, newline="\n") as handle:
        for line in handle:
            line = line.rstrip("\r\n")
            if line.startswith("# dataset: "):
                name = line[len("# dataset: "):]
            elif line.startswith(("# config: ", "# meta: ")):
                key, text = line[2:].split(": ", 1)
                try:
                    provenance[key] = json.loads(text)
                except json.JSONDecodeError as exc:
                    raise ValueError(f"{path}: malformed '# {key}:' line: {exc}") from exc
            elif line and not line.startswith("#"):
                header = line.split(",")
                break
        else:
            raise ValueError(f"{path}: no column row")
        # np.loadtxt warns on a body without rows, so find the first row here
        first = next((line for line in handle
                      if line.rstrip("\r\n") and not line.startswith("#")), None)
        if first is None:
            data = np.empty((0, len(header)))
        else:
            try:
                data = np.loadtxt(itertools.chain([first], handle), delimiter=",",
                                  comments="#", ndmin=2)
            except ValueError as exc:
                raise ValueError(f"{path}: malformed table body: {exc}") from exc
    if data.shape[1] != len(header):
        raise ValueError(f"{path}: rows have {data.shape[1]} values but the "
                         f"column row names {len(header)} columns")
    return ResultDataset(name=name, columns=tuple(header), data=data, **provenance)


def config_sequence(config: ExperimentConfig, ordering: str = "forward",
                    delta_e: float | None = None) -> KickSequence:
    """Build the KickSequence for one named ordering of the config's pulses.

    Orderings permute the pulse payloads (shape, axis, area, width) over the
    *fixed* time slots: "reversed" applies the last payload first.  This is
    the solid/dashed pair of every figure.
    """
    _need_choice(ordering, "orderings", ORDERINGS, "ordering")
    payloads = config.pulses[::-1] if ordering == "reversed" else config.pulses
    pulses = tuple(PulseSpec(p["shape"], p["axis"], p["alpha"], slot["t_k"], p["tau"])
                   for p, slot in zip(payloads, config.pulses))
    return KickSequence(pulses=pulses, delta_e=config.delta_e
                        if delta_e is None else delta_e)


def default_end_time(seq: KickSequence) -> float:
    """Last pulse center + 8 tau + one free interval (half a free period if
    the sequence has a single pulse, so ``delta_e = 0`` needs ``t_end``).

    The 8 tau lie past a gaussian's ``6 tau`` support (``GAUSSIAN_SUPPORT``),
    so the run ends in free flight after the last pulse."""
    centers = sorted(p.t_k for p in seq.pulses)
    last = max(seq.pulses, key=lambda p: p.t_k)
    if len(centers) > 1:
        gap = centers[-1] - centers[-2]
    elif seq.delta_e == 0.0:
        raise ValueError("a single pulse with delta_e = 0 has no free period "
                         "to end on; pass t_end")
    else:
        gap = math.pi / abs(seq.delta_e)
    return last.t_k + GAUSSIAN_RUN_TAIL * last.tau + gap


def _support_length(seq: KickSequence, end: float) -> float:
    """Length of the union of the pulse supports of ``seq`` inside a run
    from t = 0 to ``end``: the span RK4 steps."""
    total, reach = 0.0, 0.0
    for lo, hi in sorted(p.support() for p in seq.pulses):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def _run_end(config: ExperimentConfig, seq: KickSequence) -> float:
    """Where a trajectory run of ``seq``, which starts at t = 0, stops."""
    if config.t_end is not None:
        return config.t_end
    if config.system == "hydrogen":
        return default_run_end(seq)
    return default_end_time(seq)


def _ideal_twin(seq: KickSequence) -> KickSequence:
    """``seq`` with every pulse replaced by an ideal kick of the same axis,
    area and center."""
    return KickSequence(tuple(PulseSpec("ideal", p.axis, p.alpha, p.t_k) for p in seq.pulses),
                        seq.delta_e)


def _trajectory_datasets(config: ExperimentConfig) -> list[ResultDataset]:
    """One time-series dataset per ordering of ``config``, every ordering
    checked in turn, then integrated in one pass."""
    runs = []
    for ordering in config.orderings:
        seq, t_end = config._runs[ordering]  # on hydrogen, at its delta_e
        validate_sequence(seq)
        if config.system == "hydrogen":
            _warn_off_picture(config._params, seq, t_end)
            model = HydrogenModel(config._params, seq, basis=config.basis)
        else:
            model = TwoStatePulseModel(seq)
        dt = config.dt if config.dt is not None else model.default_dt(t_end)
        state0 = np.zeros(model.dimension, dtype=complex)
        state0[0] = 1.0
        runs.append(_Run(model, state0, 0.0, t_end, dt, config.sample_every))
    datasets = []
    for ordering, traj in zip(config.orderings, _integrate(runs)):
        if config.system == "hydrogen":
            system_meta = {"unit_convention": config.hydrogen["convention"],
                           "final_p_target": float(p_target(traj)[-1])}
        else:
            u_ideal = multi_kick(_ideal_twin(config._runs[ordering][0]))
            system_meta = {"unit_convention": "dimensionless",
                           "final_p2": float(traj.probabilities[-1, 1]),
                           "ideal_final_p2": float(abs(u_ideal[1, 0]) ** 2)}
        levels = traj.probabilities.shape[1]
        meta = {"ordering": ordering, **system_meta, "final_norm": float(traj.norms[-1]),
                "dt": traj.dt, "rk4_steps": traj.rk4_steps, "norm_drift": norm_drift(traj)}
        data = np.empty((len(traj.times), levels + 2))
        data[:, 0] = traj.times
        data[:, 1:-1] = traj.probabilities
        data[:, -1] = traj.norms
        datasets.append(ResultDataset(
            name=f"{config.experiment}_{ordering}",
            columns=("t", *(f"p{i}" for i in range(1, levels + 1)), "norm"),
            data=data, config=config.to_dict(), meta=meta))
    return datasets


def run_ordering_surface(n_epsilon: int = 200, n_phi: int = 200,
                         phi_max: float = 2.0 * math.pi,
                         config: ExperimentConfig | None = None) -> ResultDataset:
    """Tabulate ordered vs order-free transfer on an (epsilon, phi) grid.

    epsilon = sin(dE t-/2) carries the kick spacing, phi = 2 alpha the kick
    strength; p2 = (epsilon sin phi)^2 is the ordered transfer probability of
    the opposite kick pair and p2_no_ordering = sin^2(epsilon phi) its
    order-free counterpart.  The dataset echoes ``config``, so a given
    config must hold this grid (``ConfigError`` otherwise); without one, the
    figure7 config of this grid is built, and it checks the grid.
    """
    grid = {"n_epsilon": n_epsilon, "n_phi": n_phi, "phi_max": phi_max}
    if config is None:
        config = ExperimentConfig(experiment="figure7", grid=grid)
    elif config.grid != grid:
        raise ConfigError("grid", f"the config's grid {config.grid} differs from {grid}")
    eps = np.linspace(0.0, 1.0, n_epsilon)
    phi = np.linspace(0.0, phi_max, n_phi)
    eg, pg = np.meshgrid(eps, phi, indexing="ij")
    p2 = (eg * np.sin(pg)) ** 2
    p2_free = np.sin(eg * pg) ** 2
    table = np.column_stack([eg.ravel(), pg.ravel(), p2.ravel(), p2_free.ravel(),
                             (p2 - p2_free).ravel()])
    diff = table[:, 4]
    meta = {
        "unit_convention": "dimensionless",
        "min_diff": float(diff.min()),
        "max_diff": float(diff.max()),
    }
    return ResultDataset(
        name=config.experiment, columns=("epsilon", "phi", "p2",
                                         "p2_no_ordering", "diff"),
        data=table, config=config.to_dict(), meta=meta)


def _width_scan_run(base: KickSequence, tau: float, dt: float | None, y0: np.ndarray):
    """``(run, t_a, t_b)``: the run of the pulses of ``base`` at width
    ``tau``, from ``y0``, over a window ``[t_a, t_b]`` that covers every
    pulse's support, keeping only its ends.

    The distance to the ideal-kick form is unchanged by extending the window
    because both evolutions are free (and identical) outside it.
    """
    seq = replace(base, pulses=tuple(replace(p, tau=tau) for p in base.pulses))
    supports = [p.support() for p in seq.pulses]
    t_a = min(lo for lo, _ in supports) - tau
    t_b = max(hi for _, hi in supports) + tau
    dt = dt if dt is not None else tau / 20.0
    n_steps = max(1, round((t_b - t_a) / dt))
    return _Run(TwoStatePulseModel(seq), y0, t_a, t_b, dt, n_steps), t_a, t_b


def run_convergence(config: ExperimentConfig) -> ResultDataset:
    """Sweep pulse widths toward the kick limit and fit the error scaling.

    Produces rows (tau, beta, distance) and reports in the metadata the
    log-log slope, the fitted distance/beta coefficient, and — for a single
    x pulse — the first-order prediction |sin(alpha)/alpha - cos(alpha)|.
    Every width but 0 (the kick itself, at distance 0) is integrated, all in
    one pass, and its final state compared with the ideal-kick form.
    """
    base = config_sequence(config, "forward")
    ideal = multi_kick(_ideal_twin(base))  # every width has the same ideal kicks
    y0 = np.array([1.0, 0.0], dtype=complex)
    scans = {tau: _width_scan_run(base, tau, config.dt, y0) for tau in config.taus if tau != 0.0}
    trajectories = dict(zip(scans, _integrate([run for run, _, _ in scans.values()])))
    rows = []
    for tau in config.taus:
        if tau == 0.0:
            rows.append((tau, 0.0, 0.0))
            continue
        run, t_a, t_b = scans[tau]
        reference = free_phase(base.delta_e, -t_b) @ ideal @ free_phase(base.delta_e, t_a) @ y0
        beta = 0.5 * tau * abs(base.delta_e)
        rows.append((tau, beta, float(np.linalg.norm(trajectories[tau].states[-1] - reference))))
    table = np.array(rows, dtype=float)
    meta: dict = {"unit_convention": "dimensionless"}
    mask = table[:, 2] > 0
    if mask.sum() >= 2:
        slope, _ = np.polyfit(np.log(table[mask, 0]), np.log(table[mask, 2]), 1)
        meta["slope"] = float(slope)
        ratio = table[mask, 2] / table[mask, 1]
        meta["coefficient_per_beta"] = float(np.exp(np.mean(np.log(ratio))))
    if len(config.pulses) == 1 and config.pulses[0]["axis"] == "x":
        alpha = config.pulses[0]["alpha"]
        meta["predicted_coefficient"] = abs(_width_coefficient(alpha))
    return ResultDataset(
        name=config.experiment, columns=("tau", "beta", "distance"),
        data=table, config=config.to_dict(), meta=meta)


def run_experiment(config: ExperimentConfig,
                   out_dir=None) -> tuple[list[ResultDataset], list[Path]]:
    """Run one catalog experiment; optionally write its datasets.

    Returns (datasets, written paths) and prints the headline numbers (final
    probabilities, surface extrema, or fitted slope) to standard output.
    """
    if config.experiment == "figure7":
        datasets = [run_ordering_surface(**config.grid, config=config)]
        d = datasets[0]
        print(f"{d.name}: min diff = {d.meta['min_diff']:.6f}, "
              f"max diff = {d.meta['max_diff']:.6f}")
    elif config.experiment == "convergence":
        datasets = [run_convergence(config)]
        d = datasets[0]
        slope = d.meta.get("slope")
        slope_text = f"{slope:.3f}" if slope is not None else "n/a"
        print(f"{d.name}: error slope vs tau = {slope_text}")
    else:
        datasets = _trajectory_datasets(config)
        for d in datasets:
            if config.system == "hydrogen":
                print(f"{d.name}: final P_target = {d.meta['final_p_target']:.8f}, "
                      f"norm = {d.meta['final_norm']:.8f}")
            else:
                print(f"{d.name}: final P2 = {d.meta['final_p2']:.8f} "
                      f"(ideal kicks: {d.meta['ideal_final_p2']:.8f})")
    paths = []
    if out_dir is not None:
        for d in datasets:
            paths.append(d.write(out_dir))
    return datasets, paths
