"""Synthetic camera-stream benchmark and a loader for pre-extracted features.

Each global identity is a unit prototype in latent space. A camera sees a
subset of identities through its own linear distortion A_c = I + s * R_c
plus isotropic noise, and labels them locally in order of first appearance:
the same object carries unrelated labels in different cameras, which is the
whole point of the task.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    DEGENERATE_NORM, ConfigError, DimensionMismatch, LabelOutOfRange, MissingProvenance,
    ParseError, check_field_types, check_range, read_json_object, write_atomic,
)
from .memory import _unit

CSV_HEADER_PREFIX = ["camera", "local_id", "global_id"]

# Distortion rows are unit-displacement normalized and then scaled by this
# gain, calibrated so the default shift strength (0.3) lands in the regime
# where sequential fine-tuning visibly forgets while per-identity means
# still match across cameras.
DISTORTION_GAIN = 1.25
# No two identity prototypes are placed closer than this cosine.
MAX_PAIR_COS = 0.8


@dataclass
class SyntheticSpec:
    """Knobs for the generator; defaults give the standard desk-scale bench."""

    n_global: int = 300
    latent_dim: int = 8
    obs_dim: int = 8
    n_cameras: int = 6
    ids_per_camera: int = 150
    images_per_id: int = 8
    test_images_per_id: int = 2
    camera_shift: float = 0.3
    noise: float = 0.05
    overlap_bias: float = 0.6
    seed: int = 0

    def validate(self) -> None:
        check_field_types(self)
        if self.n_global < 1 or self.n_cameras < 1:
            raise ConfigError("need at least one identity and one camera")
        if self.ids_per_camera < 1 or self.ids_per_camera > self.n_global:
            raise ConfigError(
                f"ids_per_camera={self.ids_per_camera} must lie in [1, n_global={self.n_global}]"
            )
        if self.images_per_id < 1 or self.test_images_per_id < 0:
            raise ConfigError("images_per_id >= 1 and test_images_per_id >= 0 required")
        if self.latent_dim < 1 or self.obs_dim < self.latent_dim:
            raise ConfigError("need obs_dim >= latent_dim >= 1")
        if self.camera_shift < 0 or self.noise < 0:
            raise ConfigError("camera_shift and noise must be nonnegative")
        if not 0.0 <= self.overlap_bias <= 1.0:
            raise ConfigError("overlap_bias must lie in [0, 1]")


@dataclass
class CameraDataset:
    """Samples of one camera with contiguous local labels.

    label_to_global, one global identity per local label, is the camera's
    only identity table: hidden ground truth used only for diagnostics and
    the joint upper bound, which no incremental algorithm reads. None means
    the camera has no tags. global_ids, each sample's global identity, is
    read from it.
    """

    camera_id: int
    X: np.ndarray                      # (N, obs_dim)
    labels: np.ndarray                 # (N,) int64 in [0, n_ids)
    n_ids: int
    label_to_global: np.ndarray | None = None   # (n_ids,) int64

    def __post_init__(self) -> None:
        self.X = np.asarray(self.X, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.X.shape[0] != self.labels.shape[0]:
            raise DimensionMismatch("sample count and label count differ")
        check_range("label", self.labels, self.n_ids, LabelOutOfRange)
        if self.label_to_global is not None:
            self.label_to_global = np.asarray(self.label_to_global, dtype=np.int64)
            if self.label_to_global.shape != (self.n_ids,):
                raise LabelOutOfRange(f"label_to_global needs one entry per label ({self.n_ids})")

    @property
    def global_ids(self) -> np.ndarray | None:
        """Each sample's global identity, or None without tags."""
        return None if self.label_to_global is None else self.label_to_global[self.labels]

    def __len__(self) -> int:
        return self.X.shape[0]


@dataclass
class TestSplit:
    X: np.ndarray
    global_ids: np.ndarray
    camera_ids: np.ndarray
    local_ids: np.ndarray | None = None

    def __post_init__(self) -> None:
        self.X = np.asarray(self.X, dtype=np.float64)
        self.global_ids = np.asarray(self.global_ids, dtype=np.int64)
        self.camera_ids = np.asarray(self.camera_ids, dtype=np.int64)

    def __len__(self) -> int:
        return self.X.shape[0]


@dataclass
class DatasetBundle:
    cameras: list[CameraDataset]
    test: TestSplit
    spec: SyntheticSpec | None = None
    prototypes: np.ndarray | None = None

    @property
    def n_cameras(self) -> int:
        return len(self.cameras)

    @property
    def input_dim(self) -> int:
        return self.cameras[0].X.shape[1]

    def identity_tables(self) -> list[np.ndarray]:
        """Every camera's label_to_global; MissingProvenance if one lacks it."""
        for cam in self.cameras:
            if cam.label_to_global is None:
                raise MissingProvenance(f"camera {cam.camera_id} lacks identity tags")
        return [cam.label_to_global for cam in self.cameras]

    def distinct_global_count(self) -> int:
        return np.unique(np.concatenate(self.identity_tables())).size


def _sample_prototypes(spec: SyntheticSpec, rng: np.random.Generator) -> np.ndarray:
    protos = np.zeros((spec.n_global, spec.latent_dim))
    for g in range(spec.n_global):
        for attempt in range(10_000):
            cand = rng.normal(size=spec.latent_dim)
            norm = np.linalg.norm(cand)
            if norm < DEGENERATE_NORM:
                continue
            cand /= norm
            if g == 0 or float(np.max(protos[:g] @ cand)) <= MAX_PAIR_COS:
                protos[g] = cand
                break
        else:
            raise ConfigError(
                f"could not place {spec.n_global} prototypes with pairwise cosine <= {MAX_PAIR_COS}"
            )
    return protos


def _camera_matrix(spec: SyntheticSpec, rng: np.random.Generator) -> np.ndarray:
    # Rectangular identity embeds latent space into observation space. The
    # random part is row-rescaled so one unit of input is displaced by about
    # camera_shift * DISTORTION_GAIN, independent of the dimensions.
    A = np.zeros((spec.obs_dim, spec.latent_dim))
    np.fill_diagonal(A, 1.0)
    R = rng.normal(size=(spec.obs_dim, spec.latent_dim))
    R /= np.linalg.norm(R, axis=1, keepdims=True)
    R *= DISTORTION_GAIN * np.sqrt(spec.latent_dim / spec.obs_dim)
    return A + spec.camera_shift * R


def _choose_identities(
    spec: SyntheticSpec, seen_counts: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    # Reuse draws favor identities already covered by many cameras
    # (count-squared weighting), mirroring how most real identities cross
    # most cameras; the rest of the picks introduce fresh identities.
    chosen: list[int] = []
    taken = np.zeros(spec.n_global, dtype=bool)
    for _ in range(spec.ids_per_camera):
        pool_seen = np.nonzero((seen_counts > 0) & ~taken)[0]
        pool_new = np.nonzero((seen_counts == 0) & ~taken)[0]
        if pool_seen.size and pool_new.size:
            use_seen = rng.random() < spec.overlap_bias
        else:
            use_seen = pool_seen.size > 0
        if use_seen:
            w = seen_counts[pool_seen].astype(np.float64) ** 2
            g = int(pool_seen[rng.choice(pool_seen.size, p=w / w.sum())])
        else:
            g = int(pool_new[rng.integers(pool_new.size)])
        taken[g] = True
        chosen.append(g)
    return np.array(chosen, dtype=np.int64)


def _draw_images(
    protos: np.ndarray, A: np.ndarray, ids: np.ndarray, per_id: int,
    noise: float, rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """per_id unit images of each identity, in identity order, and their
    local labels. One noise draw covers the camera, the same stream as one
    draw per image. An image the noise cancelled raises ConfigError."""
    base = np.repeat([A @ protos[g] for g in ids], per_id, axis=0)
    labels = np.repeat(np.arange(len(ids)), per_id)
    X = base + noise * rng.normal(size=base.shape)
    return _unit(X, ids[labels], "noisy image", ConfigError), labels


def generate(spec: SyntheticSpec) -> DatasetBundle:
    """Deterministic synthetic benchmark from a seeded RNG stream."""
    spec.validate()
    rng = np.random.default_rng(np.random.SeedSequence(spec.seed))
    protos = _sample_prototypes(spec, rng)
    seen_counts = np.zeros(spec.n_global, dtype=np.int64)
    cameras: list[CameraDataset] = []
    test_parts: list[tuple] = []
    for c in range(spec.n_cameras):
        A = _camera_matrix(spec, rng)
        ids = _choose_identities(spec, seen_counts, rng)
        seen_counts[ids] += 1
        X, labels = _draw_images(protos, A, ids, spec.images_per_id, spec.noise, rng)
        cameras.append(CameraDataset(c, X, labels, ids.size, ids))
        Xt, lt = _draw_images(protos, A, ids, spec.test_images_per_id, spec.noise, rng)
        test_parts.append((Xt, ids[lt], np.full(lt.shape, c), lt))
    test = TestSplit(*(np.concatenate(cols) for cols in zip(*test_parts)))
    return DatasetBundle(cameras, test, spec=spec, prototypes=protos)


# ---------------------------------------------------------------------------
# Feature CSV format: header camera,local_id,global_id,f0,...,f{D-1}; one
# sample per row. A local id has one global id within its camera, and -1 on
# any train row means the camera has no tags; every test row needs a global
# id. A sidecar JSON manifest records camera count, dimension, the
# normalize-on-load flag, and the train/test file names.
# ---------------------------------------------------------------------------


def _csv_text(tags: np.ndarray, X: np.ndarray) -> str:
    header = ",".join(CSV_HEADER_PREFIX + [f"f{k}" for k in range(X.shape[1])])
    rows = (",".join([*map(str, t), *map(repr, x)]) for t, x in zip(tags.tolist(), X.tolist()))
    return "\n".join([header, *rows]) + "\n"


def save_dataset(bundle: DatasetBundle, out_dir: str | Path) -> Path:
    """Write train.csv, test.csv and manifest.json atomically; returns the manifest path."""
    out = Path(out_dir)
    train_tags = [
        np.column_stack([np.full(len(cam), cam.camera_id), cam.labels,
                         np.full(len(cam), -1) if cam.global_ids is None else cam.global_ids])
        for cam in bundle.cameras
    ]
    train_X = np.concatenate([cam.X for cam in bundle.cameras])
    write_atomic(out / "train.csv", _csv_text(np.concatenate(train_tags), train_X))
    t = bundle.test
    local = np.full(len(t), -1) if t.local_ids is None else t.local_ids
    test_tags = np.column_stack([t.camera_ids, local, t.global_ids])
    write_atomic(out / "test.csv", _csv_text(test_tags, t.X))
    manifest = {
        "format": "ike-lab-features-v1",
        "cameras": bundle.n_cameras,
        "dim": bundle.input_dim,
        "normalize": False,
        "train": "train.csv",
        "test": "test.csv",
    }
    mpath = out / "manifest.json"
    write_atomic(mpath, json.dumps(manifest, indent=2))
    return mpath


def _parse_feature_csv(
    path: Path, dim_hint: int | None, normalize: bool
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (camera, local_id, global_id) tags, the features and the line
    number of each sample of one feature CSV. Every feature must be finite,
    and with normalize every row must have a norm that can be divided out;
    the features come back normalized."""
    try:
        header, *rows = path.read_text().split("\n")
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read feature file {path}: {exc}") from exc
    cols = header.split(",")
    if cols[:3] != CSV_HEADER_PREFIX or len(cols) < 4:
        raise ParseError(f"{path.name}:1: header must be {','.join(CSV_HEADER_PREFIX)},f0,...")
    dim = len(cols) - 3
    if dim_hint is not None and dim_hint != dim:
        raise DimensionMismatch(f"{path.name} has {dim} feature columns, expected {dim_hint}")
    tags, feats, lines = [], [], []
    for lineno, line in enumerate(rows, start=2):
        parts = line.strip().split(",")
        if parts == [""]:
            continue
        if len(parts) != 3 + dim:
            raise ParseError(f"{path.name}:{lineno}: expected {3 + dim} columns, got {len(parts)}")
        try:
            tags.append([int(v) for v in parts[:3]])
            feats.append([float(v) for v in parts[3:]])
        except ValueError as exc:
            raise ParseError(f"{path.name}:{lineno}: {exc}") from exc
        lines.append(lineno)
    try:
        tags = np.array(tags, dtype=np.int64).reshape(len(tags), 3)
    except OverflowError:
        big = next(i for i, t in enumerate(tags) if not all(-(2**63) <= v < 2**63 for v in t))
        raise ParseError(f"{path.name}:{lines[big]}: ids must be 64-bit integers") from None
    X = np.array(feats, dtype=np.float64).reshape(len(feats), dim)

    def reject(bad: np.ndarray, what: str) -> None:
        if bad.any():
            raise ParseError(f"{path.name}:{lines[int(np.argmax(bad))]}: {what}")

    reject(~np.isfinite(X).all(axis=1), "feature values must be finite")
    if normalize:
        with np.errstate(over="ignore"):
            norms = np.linalg.norm(X, axis=1, keepdims=True)
        reject(~((norms > 0) & (norms < np.inf))[:, 0], "feature row cannot be normalized")
        X /= norms
    return tags, X, np.array(lines)


def _build_cameras(
    path: Path, tags: np.ndarray, X: np.ndarray, lines: np.ndarray
) -> list[CameraDataset]:
    """One dataset per camera id, in increasing order, with local ids
    relabelled 0, 1, ... in order of first appearance. A camera whose rows
    all carry a global id (>= 0) gets an identity table, and then each of
    its local ids must carry one global id."""
    cameras = []
    for camera in np.unique(tags[:, 0]):
        rows = np.flatnonzero(tags[:, 0] == camera)
        local, gids = tags[rows, 1], tags[rows, 2]
        _, first, inverse = np.unique(local, return_index=True, return_inverse=True)
        labels = np.argsort(np.argsort(first))[inverse]
        table = None
        if (gids >= 0).all():
            table = gids[np.sort(first)]
            clash = np.flatnonzero(table[labels] != gids)
            if clash.size:
                k = clash[0]
                raise ParseError(
                    f"{path.name}:{lines[rows[k]]}: local id {local[k]} of camera {camera} has "
                    f"global id {gids[k]}, but {table[labels[k]]} on an earlier line"
                )
        cameras.append(CameraDataset(int(camera), X[rows], labels, first.size, table))
    return cameras


# Manifest entries and their kinds; a null entry counts as absent.
MANIFEST_KINDS = {"train": "str", "test": "str", "dim": "int", "cameras": "int", "normalize": "bool"}


def load_dataset(path: str | Path) -> DatasetBundle:
    """Load a feature dataset.

    Accepts a manifest.json, a directory containing one, or a bare train
    CSV (in which case a sidecar <stem>.manifest.json is honored when
    present and the test split is empty otherwise). A manifest that is not
    a JSON object of the entries in MANIFEST_KINDS, or a test row without a
    global id (below 0), raises ParseError.
    """
    path = Path(path)
    if path.is_dir():
        path = path / "manifest.json"
    if path.suffix == ".json":
        manifest = read_json_object(path, "manifest", MANIFEST_KINDS, required=("train",))
        train_path = path.parent / manifest["train"]
    else:
        train_path = path
        sidecar = path.with_name(path.stem + ".manifest.json")
        manifest = read_json_object(sidecar, "manifest", MANIFEST_KINDS) if sidecar.exists() else {}
    normalize = bool(manifest.get("normalize"))
    tags, X, lines = _parse_feature_csv(train_path, manifest.get("dim"), normalize)
    if not len(X):
        raise ParseError(f"{train_path.name}: no samples")
    cameras = _build_cameras(train_path, tags, X, lines)
    if manifest.get("cameras") not in (None, len(cameras)):
        raise DimensionMismatch(f"manifest lists {manifest['cameras']} cameras, file has {len(cameras)}")
    if manifest.get("test"):
        test_path = path.parent / manifest["test"]
        t, Xt, test_lines = _parse_feature_csv(test_path, X.shape[1], normalize)
        # Relevance is equal global ids, so untagged rows would all be one identity.
        untagged = np.flatnonzero(t[:, 2] < 0)
        if untagged.size:
            k = untagged[0]
            raise ParseError(f"{test_path.name}:{test_lines[k]}: a test row needs a global id "
                             f">= 0, got {t[k, 2]}")
        test = TestSplit(Xt, t[:, 2], t[:, 0], t[:, 1])
    else:
        test = TestSplit(np.zeros((0, X.shape[1])), np.zeros(0, np.int64), np.zeros(0, np.int64))
    return DatasetBundle(cameras, test)
