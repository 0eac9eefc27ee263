"""Experiment orchestration: configs, run enumeration, execution and
artifact emission.

A config describes a dataset, camera orders, variants, seeds, and optional
sweep grids. ExperimentConfig is that document as one frozen record that
checks itself when built, its grid of runs included; the manifest stores it
whole, so it reads back as the same grid. The harness runs every
combination, writes per-run artifacts (metrics.json, training log, the
final camera's snapshot; RunSpec.files names where) plus an aggregate
summary.csv and manifest.json, and stays bitwise deterministic per (config,
seed). Each call to run checks every file the grid writes, then reads its
dataset afresh, once for the whole grid.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .datasets import DatasetBundle, SyntheticSpec, generate, load_dataset
from .encoder import save_encoder
from .errors import ConfigError, LabError, check_kind, temporary_path, unique_keys, write_atomic
from .evaluation import GALLERY_RULES, MetricsReport, has_scorable_query
from .losses import TERMS
from .memory import save_memory
from .trainer import Hyperparams, RunRecorder, Variant, VARIANT_NAMES, run_sequence

ORDER_PRESETS: dict[str, list[int]] = {
    "T1": [0, 1, 2, 3, 4, 5],
    "T2": [0, 5, 4, 1, 3, 2],
    "T3": [5, 2, 3, 4, 0, 1],
    "T4": [3, 1, 5, 4, 2, 0],
    "T5": [2, 0, 3, 4, 1, 5],
}

# sweep axis name -> Hyperparams field
SWEEP_AXES = {"lambda": "lam", "tau": "tau", "omega": "omega"}


def _default_encoder() -> dict:
    return {"hidden": [32, 32, 32], "embed_dim": 64}


@dataclass(frozen=True)
class ExperimentConfig:
    """An experiment grid, checked when built, its runs included: its fields
    are the config document's keys, so asdict of a config is a complete
    document and from_dict of that document builds an equal config."""

    dataset: dict
    orders: list = field(default_factory=lambda: ["T1"])
    variants: list[str] = field(default_factory=lambda: ["IKE"])
    seeds: list[int] = field(default_factory=lambda: [0])
    hyperparams: Hyperparams = field(default_factory=Hyperparams)
    encoder: dict = field(default_factory=_default_encoder)
    sweep: dict[str, list[float]] | None = None
    gallery_rule: str = "camera"

    def __post_init__(self) -> None:
        dataset = self.dataset
        if not isinstance(dataset, dict) or len(dataset) != 1 or next(iter(dataset)) not in ("synthetic", "features"):
            raise ConfigError('dataset must be {"synthetic": {...}} or {"features": "path"}')
        if "synthetic" in dataset:
            try:
                SyntheticSpec(**dataset["synthetic"]).validate()
            except TypeError as exc:
                raise ConfigError(f"bad synthetic spec: {exc}") from exc
        if "features" in dataset:
            check_kind("dataset.features", dataset["features"], "str")
        if not isinstance(self.variants, list) or not self.variants:
            raise ConfigError("variants must be a nonempty list")
        for v in self.variants:
            if v not in VARIANT_NAMES:
                raise ConfigError(f"unknown variant {v!r}; choose from {VARIANT_NAMES}")
        _int_list("seeds", self.seeds)
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigError("seeds must be distinct")
        if not isinstance(self.orders, list) or not self.orders:
            raise ConfigError("orders must be a nonempty list")
        for entry in self.orders:
            if not isinstance(entry, str):
                _int_list("orders", entry)
        if not isinstance(self.hyperparams, Hyperparams):
            raise ConfigError(f"bad hyperparams: {self.hyperparams!r} is not a Hyperparams")
        enc = self.encoder
        if not isinstance(enc, dict) or set(enc) != {"hidden", "embed_dim"}:
            raise ConfigError(f'encoder must be an object of "hidden" and "embed_dim", got {enc!r}')
        _int_list("encoder.hidden", enc["hidden"])
        check_kind("encoder.embed_dim", enc["embed_dim"], "int")
        if len(enc["hidden"]) < 2 or min(enc["hidden"]) < 1 or enc["embed_dim"] < 1:
            raise ConfigError("encoder needs >= 2 hidden widths and a positive embed_dim")
        if self.sweep is not None:
            if not isinstance(self.sweep, dict) or not self.sweep:
                raise ConfigError("sweep must be a nonempty mapping of axis -> values")
            for axis, values in self.sweep.items():
                if axis not in SWEEP_AXES:
                    raise ConfigError(f"unknown sweep axis {axis!r}; choose from {sorted(SWEEP_AXES)}")
                if not isinstance(values, list) or not values:
                    raise ConfigError(f"sweep axis {axis!r} needs a nonempty value list")
        if self.gallery_rule not in GALLERY_RULES:
            raise ConfigError(f"gallery_rule must be one of {GALLERY_RULES}")
        enumerate_runs(self)

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        """The config a JSON document describes: its objects become the
        fields' types, and encoder keys it leaves out take their defaults."""
        if not isinstance(doc, dict):
            raise ConfigError(f"a config must be a JSON object, got {doc!r}")
        unknown = set(doc) - {f.name for f in fields(cls)}
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        doc = {"dataset": None, **doc}  # a missing dataset is rejected by name
        if "hyperparams" in doc:
            try:
                doc["hyperparams"] = Hyperparams(**doc["hyperparams"])
            except TypeError as exc:
                raise ConfigError(f"bad hyperparams: {exc}") from exc
        if isinstance(doc.get("encoder"), dict):
            doc["encoder"] = _default_encoder() | doc["encoder"]
        return cls(**doc)

    @classmethod
    def from_file(cls, path: str | Path) -> "ExperimentConfig":
        """The JSON file's config, the one description of a grid. A key
        given twice in any object is refused, not resolved to its last value."""
        try:
            doc = json.loads(Path(path).read_text(), object_pairs_hook=unique_keys)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        return cls.from_dict(doc)


def _int_list(key: str, value) -> list[int]:
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{key} must be a nonempty list of integers, got {value!r}")
    for v in value:
        check_kind(key, v, "int")
    return value


def resolve_order(entry) -> tuple[str, list[int]]:
    """An order entry is either a preset name or a permutation of 0..len-1."""
    if isinstance(entry, str):
        if entry not in ORDER_PRESETS:
            raise ConfigError(f"unknown order preset {entry!r}; presets: {sorted(ORDER_PRESETS)}")
        return entry, list(ORDER_PRESETS[entry])
    order = list(entry)
    if sorted(order) != list(range(len(order))):
        raise ConfigError(f"order {entry} is not a permutation of 0..{len(order) - 1}")
    return "o" + "".join(str(i) for i in order), order


@dataclass(frozen=True)
class RunSpec:
    variant: str
    order_name: str
    order: tuple[int, ...]
    seed: int
    sweep: tuple[tuple[str, float], ...] = ()

    @property
    def run_id(self) -> str:
        parts = [self.variant, self.order_name, f"s{self.seed}"]
        parts += [f"{axis}{value:g}" for axis, value in self.sweep]
        return "__".join(parts)

    def files(self, out: Path) -> dict[str, Path]:
        """Each file the run writes under out, by name: the run tree's one
        layout. The snapshot names the final step and its dataset index."""
        run_dir = out / "runs" / self.run_id
        snapshot = run_dir / "checkpoints" / f"step{len(self.order) - 1:02d}_cam{self.order[-1]}"
        parents = {"metrics.json": run_dir, "train_log.csv": run_dir,
                   "encoder.json": snapshot, "memory.json": snapshot}
        return {name: parent / name for name, parent in parents.items()}


def enumerate_runs(config: ExperimentConfig) -> list[RunSpec]:
    """Every run of the grid, enumerated when the config is built. Each
    sweep value must be a number that Hyperparams accepts on its axis;
    otherwise ConfigError names the axis and the value. ConfigError also
    names a run id given to two runs (ids name the run directories) and two
    order entries that are one permutation (runs are seeded by order)."""
    points: list[tuple[tuple[str, float], ...]] = [()]
    for axis in sorted(config.sweep or {}):
        for v in config.sweep[axis]:
            try:
                replace(config.hyperparams, **{SWEEP_AXES[axis]: v})
            except ConfigError as exc:
                raise ConfigError(f"sweep axis {axis!r}: value {v!r} rejected: {exc}") from exc
        points = [pt + ((axis, float(v)),) for pt in points for v in config.sweep[axis]]
    specs = []
    named: dict[tuple[int, ...], tuple[str, object]] = {}
    for entry in config.orders:
        order_name, order = resolve_order(entry)
        first_name, first = named.setdefault(tuple(order), (order_name, entry))
        if first_name != order_name:
            raise ConfigError(f"orders {first!r} and {entry!r} are the same camera order; "
                              "its runs would repeat under two names")
        for variant in config.variants:
            for point in points:
                for seed in config.seeds:
                    specs.append(RunSpec(variant, order_name, tuple(order), seed, point))
    seen: set[str] = set()
    for spec in specs:
        if spec.run_id in seen:
            raise ConfigError(f"two runs share the run id {spec.run_id!r}; repeated variants, "
                              "orders or sweep values that format alike collide")
        seen.add(spec.run_id)
    return specs


def derive_run_seed(spec: RunSpec) -> np.random.SeedSequence:
    """Stable per-run stream: hashing the run key means adding variants,
    orders, or sweep points never perturbs existing runs."""
    key = json.dumps(
        {"seed": spec.seed, "variant": spec.variant, "order": list(spec.order),
         "sweep": list(spec.sweep)},
        sort_keys=True,
    )
    digest = hashlib.sha256(key.encode()).digest()
    return np.random.SeedSequence(int.from_bytes(digest[:16], "big"))


class DiskRecorder(RunRecorder):
    """Writes the per-epoch training log and the final camera's snapshot:
    the encoder and memory left once the camera at final_step is merged.
    No program path reads an earlier camera's, so none is written."""

    def __init__(self, run_id: str, files: dict[str, Path], final_step: int) -> None:
        self.run_id = run_id
        self.files = files
        self.final_step = final_step
        self.epoch_rows: list[str] = []

    def on_epoch(self, camera_step, camera_id, epoch, mean_breakdown, lr) -> None:
        vals = mean_breakdown.as_row()
        self.epoch_rows.append(
            ",".join([self.run_id, str(camera_id), str(epoch)]
                     + [repr(v) for v in vals] + [repr(lr)])
        )

    def on_camera(self, camera_step, camera_id, state, result) -> None:
        if camera_step != self.final_step:
            return
        save_encoder(state.encoder, self.files["encoder.json"])
        save_memory(state.memory, self.files["memory.json"])

    def flush(self) -> None:
        header = ",".join(["run_id", "camera", "epoch", *TERMS, "total", "lr"])
        write_atomic(self.files["train_log.csv"], "\n".join([header] + self.epoch_rows) + "\n")


def execute_run(
    config: ExperimentConfig, spec: RunSpec, bundle: DatasetBundle, files: dict[str, Path] | None
) -> MetricsReport:
    hyper = replace(config.hyperparams, **{SWEEP_AXES[a]: v for a, v in spec.sweep})
    recorder = RunRecorder()
    if files is not None:
        recorder = DiskRecorder(spec.run_id, files, len(spec.order) - 1)
    report = run_sequence(
        bundle,
        list(spec.order),
        Variant(spec.variant),
        hyper,
        config.encoder["hidden"],
        config.encoder["embed_dim"],
        derive_run_seed(spec),
        recorder=recorder,
        gallery_rule=config.gallery_rule,
    )
    if files is not None:
        recorder.flush()
        # seed is the grid seed, from which the run's stream derives.
        doc = {"variant": spec.variant, "seed": spec.seed, "order": list(spec.order),
               **report.to_dict(),
               "meta": {"run_id": spec.run_id, "order_name": spec.order_name,
                        "sweep": {a: v for a, v in spec.sweep}}}
        write_atomic(files["metrics.json"], json.dumps(doc, indent=2) + "\n")
    return report


def _run_one(payload: tuple) -> MetricsReport | str:
    """One run of execute_run's arguments; the unit of work of the serial
    loop and of a --jobs worker. A run that raises LabError returns its
    message, so the others go on."""
    try:
        return execute_run(*payload)
    except LabError as exc:
        return f"{type(exc).__name__}: {exc}"


def _check_writable(path: Path) -> None:
    """ConfigError naming what would stop write_atomic writing path: path or
    its temporary file as a directory, or the nearest existing entry above
    them as anything else."""
    for target in (path, temporary_path(path)):
        if target.is_dir():
            raise ConfigError(f"output path {target} exists and is a directory")
    nearest = next(p for p in path.parents if p.exists())
    if not nearest.is_dir():
        raise ConfigError(f"output path {nearest} exists and is not a directory")


@dataclass
class RunOutcome:
    out_dir: Path | None
    reports: dict[str, MetricsReport]                        # the runs that finished
    summary_rows: list[dict]
    failures: dict[str, str] = field(default_factory=dict)   # run id -> error message


def run(config: ExperimentConfig, out_dir: str | Path | None = None, jobs: int = 1) -> RunOutcome:
    """Execute every (seed, variant, order, sweep point) combination on the
    config's dataset, read once by this call and with as many cameras as
    every order. Every file the grid writes is checked by _check_writable
    before the dataset is built or read. A failed run does not stop the
    others; the manifest gives each run's status."""
    if jobs < 1:
        raise ConfigError(f"--jobs must be at least 1, got {jobs}")
    specs = enumerate_runs(config)
    out_path = Path(out_dir) if out_dir is not None else None
    if out_path is not None:
        summary_path, manifest_path = out_path / "summary.csv", out_path / "manifest.json"
        for path in [summary_path, manifest_path, *(p for s in specs for p in s.files(out_path).values())]:
            _check_writable(path)
    if "synthetic" in config.dataset:
        bundle = generate(SyntheticSpec(**config.dataset["synthetic"]))
    else:
        bundle = load_dataset(config.dataset["features"])
    if len(bundle.test) == 0:
        raise ConfigError("the dataset's test split is empty, so no run could be scored")
    if not has_scorable_query(bundle.test, config.gallery_rule):
        where = "twice" if config.gallery_rule == "none" else "in two cameras"
        raise ConfigError(f"no test identity appears {where}, so under gallery_rule "
                          f"{config.gallery_rule!r} no run could be scored")
    for spec in specs:
        if len(spec.order) != bundle.n_cameras:
            raise ConfigError(f"order {spec.order_name} is for {len(spec.order)} cameras, "
                              f"dataset has {bundle.n_cameras}")
    payloads = [(config, s, bundle, None if out_path is None else s.files(out_path)) for s in specs]
    if jobs > 1 and len(specs) > 1:
        import multiprocessing as mp

        with mp.Pool(processes=min(jobs, len(specs))) as pool:
            results = pool.map(_run_one, payloads)
    else:
        results = [_run_one(p) for p in payloads]
    reports = {s.run_id: r for s, r in zip(specs, results) if not isinstance(r, str)}
    failures = {s.run_id: r for s, r in zip(specs, results) if isinstance(r, str)}
    summary_rows = summarize([s for s in specs if s.run_id in reports], reports)
    if out_path is not None:
        write_atomic(summary_path, _summary_csv(config, summary_rows))
        manifest = {
            "config": asdict(config),
            "runs": [
                {"run_id": s.run_id, "variant": s.variant, "order": s.order_name,
                 "seed": s.seed, "sweep": {a: v for a, v in s.sweep},
                 "path": f"runs/{s.run_id}", "status": "failed" if s.run_id in failures else "ok",
                 "error": failures.get(s.run_id)}
                for s in specs
            ],
            "summary": "summary.csv",
        }
        write_atomic(manifest_path, json.dumps(manifest, indent=2) + "\n")
    return RunOutcome(out_path, reports, summary_rows, failures)


def summarize(specs: list[RunSpec], reports: dict[str, MetricsReport]) -> list[dict]:
    """Mean and spread over seeds for each (variant, order, sweep point),
    in the order of specs: enumerate_runs gives the config's own order."""
    groups: dict[tuple, list[RunSpec]] = {}
    for spec in specs:
        groups.setdefault((spec.variant, spec.order_name, spec.sweep), []).append(spec)
    rows = []
    for (variant, order_name, sweep), members in groups.items():
        fmaps = [reports[m.run_id].fmap for m in members]
        means = [reports[m.run_id].mean_map for m in members]
        nhs = [reports[m.run_id].nh_trajectory[-1] for m in members]
        rows.append({
            "variant": variant,
            "order": order_name,
            "sweep": dict(sweep),
            "seeds": len(members),
            "fmap_mean": float(np.mean(fmaps)),
            "fmap_std": float(np.std(fmaps)),
            "mean_map_mean": float(np.mean(means)),
            "mean_map_std": float(np.std(means)),
            "final_nh_mean": float(np.mean(nhs)),
        })
    return rows


def _summary_csv(config: ExperimentConfig, rows: list[dict]) -> str:
    axes = sorted(config.sweep) if config.sweep else []
    header = ["variant", "order"] + axes + [
        "seeds", "fmap_mean", "fmap_std", "mean_map_mean", "mean_map_std", "final_nh_mean",
    ]
    lines = [",".join(header)]
    for row in rows:
        cells = [row["variant"], row["order"]]
        cells += [repr(row["sweep"].get(a)) if a in row["sweep"] else "" for a in axes]
        cells += [str(row["seeds"])] + [
            repr(row[k]) for k in ("fmap_mean", "fmap_std", "mean_map_mean", "mean_map_std", "final_nh_mean")
        ]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"

