"""Experiment orchestration: configs, run enumeration, artifact emission,
and the oracle checks.

A config describes a dataset, camera orders, variants, seeds, and optional
sweep grids. ExperimentConfig is that document as one frozen record that
checks itself when built, its grid of runs included; the manifest stores it
whole, so it reads back as the same grid. The harness runs every
combination, writes per-run artifacts (metrics.json/csv, training log, the
final camera's snapshot; RunSpec.files names where) plus an aggregate
summary.csv and manifest.json, and stays bitwise deterministic per (config,
seed). Each call to run checks every file the grid writes, then reads its
dataset afresh, once for the whole grid.

The four oracle checks (check_cycle_match, check_memory_algebra, check_map,
check_gradients) compare the fast paths with the reference implementations
in oracles; selftest runs them at small sizes, acceptance criteria 1-4 at
full size.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .association import cycle_match
from .datasets import DatasetBundle, SyntheticSpec, TestSplit, generate, load_dataset
from .encoder import EncoderParams, forward_batch, grad_check, init_encoder, save_encoder
from .errors import ConfigError, EmptyGallery, LabError, check_kind, write_atomic
from .evaluation import GALLERY_RULES, MetricsReport, evaluate_map, has_scorable_query
from .losses import TERMS
from .memory import IdentityMemory, empty_memory, iku_merge, momentum_update, save_memory, unit_rows
from . import oracles
from .trainer import (
    POLICIES,
    Hyperparams,
    RunRecorder,
    Variant,
    VARIANT_NAMES,
    batch_loss_and_grads,
    run_sequence,
)

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
    out: str | None = None

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
        if self.out is not None:
            check_kind("out", self.out, "str")
        enumerate_runs(self)

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        """The config a JSON document describes: its objects become the
        fields' types, a lone variant name a list of one, and encoder keys
        it leaves out take their defaults."""
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
        if isinstance(doc.get("variants"), str):
            doc["variants"] = [doc["variants"]]
        if isinstance(doc.get("encoder"), dict):
            doc["encoder"] = _default_encoder() | doc["encoder"]
        return cls(**doc)

    @classmethod
    def from_file(cls, path: str | Path, **overrides) -> "ExperimentConfig":
        """The JSON file's config; overrides replace its keys before any check."""
        try:
            doc = json.loads(Path(path).read_text())
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        return cls.from_dict(doc | overrides if isinstance(doc, dict) else doc)


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


def expand_presets(text: str) -> list[str]:
    """Preset selections: 'T2', 'T1,T3', or the range form 'T1..T5'."""
    text = text.strip()
    if ".." in text:
        lo, hi = text.split("..", 1)
        names = sorted(ORDER_PRESETS)
        if lo not in ORDER_PRESETS or hi not in ORDER_PRESETS:
            raise ConfigError(f"bad preset range {text!r}")
        if names.index(hi) < names.index(lo):
            raise ConfigError(f"preset range {text!r} runs backwards; write {hi}..{lo}")
        return names[names.index(lo) : names.index(hi) + 1]
    return [t.strip() for t in text.split(",") if t.strip()]


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
        parents = {"metrics.json": run_dir, "metrics.csv": run_dir, "train_log.csv": run_dir,
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
        write_atomic(files["metrics.csv"], _metrics_csv(spec, report))
    return report


def _metrics_csv(spec: RunSpec, report: MetricsReport) -> str:
    lines = ["run_id,variant,order,camera_step,map,nh,assoc_precision"]
    for k in range(len(report.per_camera_map)):
        prec = report.assoc_precision[k]
        lines.append(",".join([
            spec.run_id, spec.variant, spec.order_name, str(k + 1),
            repr(report.per_camera_map[k]), str(report.nh_trajectory[k]),
            "" if prec is None else repr(prec),
        ]))
    return "\n".join(lines) + "\n"


def _run_one(payload: tuple) -> MetricsReport | str:
    """One run of execute_run's arguments; the unit of work of the serial
    loop and of a --jobs worker. A run that raises LabError returns its
    message, so the others go on."""
    try:
        return execute_run(*payload)
    except LabError as exc:
        return f"{type(exc).__name__}: {exc}"


def _check_writable(path: Path) -> None:
    """ConfigError naming what would stop a write to path: path as a
    directory, or the nearest existing entry above it as anything else."""
    if path.is_dir():
        raise ConfigError(f"output path {path} exists and is a directory")
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
    out = out_dir if out_dir is not None else config.out
    out_path = Path(out) if out is not None else None
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
    """Mean and spread over seeds for each (variant, order, sweep point)."""
    groups: dict[tuple, list[RunSpec]] = {}
    for spec in specs:
        groups.setdefault((spec.variant, spec.order_name, spec.sweep), []).append(spec)
    rows = []
    for (variant, order_name, sweep), members in sorted(groups.items(), key=lambda kv: repr(kv[0])):
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


# ---------------------------------------------------------------------------
# Selftest: run the oracle suites and report max errors.
# ---------------------------------------------------------------------------


GRAD_TERMS = (*TERMS, "ikd")


def make_loss_closure(
    term: str,
    hist_params: EncoderParams,
    X: np.ndarray,
    y: np.ndarray,
    y_hist: np.ndarray,
    cur_memory: IdentityMemory,
    hist_memory: IdentityMemory,
    hyper: Hyperparams,
):
    """Closure (params) -> (total loss, ParamGrads) of IKE's training step
    with its row cut to one term, or whole for "ikd"; history features and
    memories are constants."""
    if term not in GRAD_TERMS:
        raise ConfigError(f"unknown loss term {term!r}")
    policy = POLICIES[Variant.IKE]
    if term in TERMS:
        policy = replace(policy, terms=(term,))
    out_h = forward_batch(hist_params, X)
    hist_feats = (out_h.embeddings, *out_h.middles)

    def closure(params: EncoderParams):
        breakdown, grads, _ = batch_loss_and_grads(
            policy, params, hist_feats, X, y, y_hist, cur_memory, hist_memory, hyper
        )
        return breakdown.total, grads

    return closure


def grad_fixture(rng: np.random.Generator, widths: list[int]):
    """A random batch of 3-8 inputs for the gradient checks: the current
    encoder, then make_loss_closure's arguments after term."""
    params = init_encoder(widths, rng)
    hist_params = init_encoder(widths, rng)
    batch = int(rng.integers(3, 9))
    n_cur = int(rng.integers(2, 9))
    n_hist = int(rng.integers(2, 7))
    X = rng.normal(size=(batch, widths[0]))
    y = rng.integers(n_cur, size=batch)
    y_hist = np.where(rng.random(batch) < 0.6, rng.integers(n_hist, size=batch), -1)
    cur_memory = IdentityMemory(unit_rows(rng, n_cur, widths[-1]))
    hist_memory = IdentityMemory(unit_rows(rng, n_hist, widths[-1]))
    return params, hist_params, X, y, y_hist, cur_memory, hist_memory


def check_gradients(rng: np.random.Generator, widths: list[int], batches: int, fault: str | None):
    """Worst relative error per term between analytic gradients and central
    differences; fault names a term whose gradient is perturbed first."""
    worst = dict.fromkeys(GRAD_TERMS, 0.0)
    for _ in range(batches):
        params, *rest = grad_fixture(rng, widths)
        for term in GRAD_TERMS:
            closure = make_loss_closure(term, *rest, Hyperparams(tau=0.05))
            if term == fault:
                def closure(p, exact=closure):
                    value, grads = exact(p)
                    grads.weights[0][...] += 1e-3
                    return value, grads
            worst[term] = max(worst[term], grad_check(params, closure, step=1e-5))
    return worst


def check_cycle_match(rng: np.random.Generator, trials: int, max_n: int, dims: list[int]):
    """Mismatches of cycle_match against the exhaustive scan on random memory
    pairs of up to max_n rows, and the seconds spent in cycle_match. A
    result that is not an int64 array of len(cur) entries is a mismatch."""
    mismatches, seconds = 0, 0.0
    for trial in range(trials):
        n_c = int(rng.integers(1, max_n + 1))
        n_h = int(rng.integers(0, max_n + 1))
        d = dims[trial % len(dims)]
        cur = IdentityMemory(unit_rows(rng, n_c, d))
        hist = IdentityMemory(unit_rows(rng, n_h, d)) if n_h else empty_memory(d)
        t0 = time.perf_counter()
        got = cycle_match(cur, hist)
        seconds += time.perf_counter() - t0
        mismatches += (got.dtype != np.int64 or got.shape != (n_c,)
                       or got.tolist() != oracles.mutual_argmax_oracle(cur.rows, hist.rows))
    return mismatches, seconds


def check_memory_algebra(rng: np.random.Generator, trials: int, max_d: int, max_n: int):
    """Max abs error of momentum_update and iku_merge against the hand rules
    (degenerate omega and lambda included), and the merges of wrong length."""
    worst, wrong_length = 0.0, 0
    for _ in range(trials):
        d = int(rng.integers(2, max_d + 1))
        omega = float(rng.choice([0.0, 0.1, 0.5, 1.0]))
        mem = IdentityMemory(unit_rows(rng, int(rng.integers(1, max_n + 1)), d))
        idx = int(rng.integers(len(mem)))
        f = unit_rows(rng, 1, d)[0]
        want = oracles.momentum_oracle(mem.rows[idx].copy(), f, omega)
        momentum_update(mem, np.array([idx]), f[None], omega)
        worst = max(worst, float(np.max(np.abs(mem.rows[idx] - want))))
        lam = float(rng.choice([0.0, 0.25, 0.75, 1.0]))
        n_h = int(rng.integers(1, max_n + 1))
        n_c = int(rng.integers(1, max_n + 1))
        hist = IdentityMemory(unit_rows(rng, n_h, d))
        cur = IdentityMemory(unit_rows(rng, n_c, d))
        matches = np.array([int(rng.integers(n_h)) if rng.random() < 0.5 else -1 for _ in range(n_c)])
        merged = iku_merge(hist, cur, matches, lam)
        if len(merged) != n_h + int((matches == -1).sum()):
            wrong_length += 1
            continue
        want_rows = oracles.iku_oracle(hist.rows, cur.rows, matches.tolist(), lam)
        worst = max(worst, float(np.max(np.abs(merged.rows - want_rows))))
    return worst, wrong_length


def check_map(rng: np.random.Generator, scored: int, max_trials: int):
    """Max abs error of evaluate_map against map_oracle, the random splits
    scored (up to `scored`), and the splits only one of them can score."""
    worst, n_scored, disagreements, trials = 0.0, 0, 0, 0
    while n_scored < scored and trials < max_trials:
        trials += 1
        params = init_encoder([5, 8, 8, 6], np.random.default_rng(trials))
        n = int(rng.integers(4, 31)) + int(rng.integers(8, 61))
        X = rng.normal(size=(n, 5))
        gids = rng.integers(8, size=n)
        cams = rng.integers(3, size=n)
        try:
            want = oracles.map_oracle(forward_batch(params, X).embeddings, gids.tolist(), cams.tolist())
        except ValueError:
            want = None
        try:
            got = evaluate_map(params, TestSplit(X, gids, cams))
        except EmptyGallery:
            got = None
        if (got is None) != (want is None):
            disagreements += 1
        elif got is not None:
            worst = max(worst, abs(got - want))
            n_scored += 1
    return worst, n_scored, disagreements


@dataclass
class SelftestReport:
    rows: list[tuple[str, str, float, float, bool]] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(ok for *_, ok in self.rows)

    def add(self, suite: str, detail: str, value: float, threshold: float) -> None:
        self.rows.append((suite, detail, value, threshold, value <= threshold))

    def format_table(self) -> str:
        lines = [f"{'suite':<22} {'detail':<12} {'max error':>12} {'threshold':>10}  status"]
        for suite, detail, value, threshold, ok in self.rows:
            lines.append(
                f"{suite:<22} {detail:<12} {value:>12.3e} {threshold:>10.0e}  {'ok' if ok else 'FAIL'}"
            )
        lines.append("selftest: " + ("PASS" if self.passed else "FAIL"))
        return "\n".join(lines)


SELFTEST_SEED = 2024


def selftest(fault: str | None = None) -> SelftestReport:
    """The four oracle checks at small sizes (acceptance criteria 1-4 run
    them at full size). fault names a loss term whose analytic gradient is
    perturbed before checking; used as a negative control in tests."""
    report = SelftestReport()
    rng = np.random.default_rng(SELFTEST_SEED)
    report.add("cycle-match", "mismatches", check_cycle_match(rng, 200, 39, [8, 16])[0], 0)
    err, wrong_length = check_memory_algebra(rng, 100, 11, 9)
    report.add("memory-algebra", "max-abs-err", err, 1e-12)
    report.add("memory-algebra", "wrong-length", wrong_length, 0)
    err, n_scored, disagreements = check_map(rng, 40, 80)
    report.add("retrieval-map", "max-abs-err", err, 1e-12)
    report.add("retrieval-map", "disagree", disagreements, 0)
    report.add("retrieval-map", "unscored", 40 - n_scored, 0)
    # Four blocks make tap 3 a tanh output; criterion 2's three, the pre-normalization one.
    for term, err in check_gradients(rng, [6, 8, 8, 8, 6], 1, fault).items():
        report.add("gradients", term, err, 1e-6)
    return report
