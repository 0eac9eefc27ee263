"""Synthetic camera-stream benchmark and a loader for pre-extracted features.

Each global identity is a unit prototype in latent space. A camera sees a
subset of identities through its own linear distortion A_c = I + s * R_c
plus isotropic noise, and labels them locally in order of first appearance:
the same object carries unrelated labels in different cameras, which is the
whole point of the task.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, DimensionMismatch, LabelOutOfRange, ParseError

CSV_HEADER_PREFIX = ["camera", "local_id", "global_id"]

# Distortion rows are unit-displacement normalized and then scaled by this
# gain, calibrated so the default shift strength (0.3) lands in the regime
# where sequential fine-tuning visibly forgets while per-identity means
# still match across cameras.
DISTORTION_GAIN = 1.25


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
    max_pair_cos: float = 0.8

    def validate(self) -> None:
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
        if not 0.0 < self.max_pair_cos <= 1.0:
            raise ConfigError("max_pair_cos must lie in (0, 1]")


@dataclass
class CameraDataset:
    """Samples of one camera with contiguous local labels.

    global_ids / label_to_global are hidden ground truth used only for
    diagnostics and the joint upper bound; no incremental algorithm reads
    them.
    """

    camera_id: int
    X: np.ndarray                      # (N, obs_dim)
    labels: np.ndarray                 # (N,) int64 in [0, n_ids)
    n_ids: int
    global_ids: np.ndarray | None = None
    label_to_global: np.ndarray | None = None

    def __post_init__(self) -> None:
        self.X = np.asarray(self.X, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.X.shape[0] != self.labels.shape[0]:
            raise DimensionMismatch("sample count and label count differ")
        if self.labels.size and (self.labels.min() < 0 or self.labels.max() >= self.n_ids):
            raise LabelOutOfRange(f"labels must lie in [0, {self.n_ids})")

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

    def distinct_global_count(self) -> int:
        seen: set[int] = set()
        for cam in self.cameras:
            if cam.label_to_global is None:
                raise LabelOutOfRange("camera lacks identity tags")
            seen.update(int(g) for g in cam.label_to_global)
        return len(seen)


def _sample_prototypes(spec: SyntheticSpec, rng: np.random.Generator) -> np.ndarray:
    protos = np.zeros((spec.n_global, spec.latent_dim))
    for g in range(spec.n_global):
        for attempt in range(10_000):
            cand = rng.normal(size=spec.latent_dim)
            norm = np.linalg.norm(cand)
            if norm < 1e-9:
                continue
            cand /= norm
            if g == 0 or float(np.max(protos[:g] @ cand)) <= spec.max_pair_cos:
                protos[g] = cand
                break
        else:
            raise ConfigError(
                f"could not place {spec.n_global} prototypes with pairwise cosine <= {spec.max_pair_cos}"
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
) -> list[int]:
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
    return chosen


def _draw_images(
    protos: np.ndarray, A: np.ndarray, ids: list[int], per_id: int,
    noise: float, rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    obs_dim = A.shape[0]
    X = np.zeros((len(ids) * per_id, obs_dim))
    labels = np.zeros(len(ids) * per_id, dtype=np.int64)
    k = 0
    for local, g in enumerate(ids):
        base = A @ protos[g]
        for _ in range(per_id):
            x = base + noise * rng.normal(size=obs_dim)
            norm = np.linalg.norm(x)
            if norm < 1e-9:
                raise ConfigError("degenerate sample: noise cancelled the prototype")
            X[k] = x / norm
            labels[k] = local
            k += 1
    return X, labels


def generate(spec: SyntheticSpec) -> DatasetBundle:
    """Deterministic synthetic benchmark from a seeded RNG stream."""
    spec.validate()
    rng = np.random.default_rng(np.random.SeedSequence(spec.seed))
    protos = _sample_prototypes(spec, rng)
    seen_counts = np.zeros(spec.n_global, dtype=np.int64)
    cameras: list[CameraDataset] = []
    test_X: list[np.ndarray] = []
    test_g: list[int] = []
    test_c: list[int] = []
    test_l: list[int] = []
    for c in range(spec.n_cameras):
        A = _camera_matrix(spec, rng)
        ids = _choose_identities(spec, seen_counts, rng)
        seen_counts[ids] += 1
        X, labels = _draw_images(protos, A, ids, spec.images_per_id, spec.noise, rng)
        table = np.array(ids, dtype=np.int64)
        cameras.append(
            CameraDataset(
                camera_id=c,
                X=X,
                labels=labels,
                n_ids=len(ids),
                global_ids=table[labels],
                label_to_global=table,
            )
        )
        if spec.test_images_per_id > 0:
            Xt, lt = _draw_images(protos, A, ids, spec.test_images_per_id, spec.noise, rng)
            test_X.append(Xt)
            test_g.extend(int(table[y]) for y in lt)
            test_c.extend([c] * Xt.shape[0])
            test_l.extend(int(y) for y in lt)
    if test_X:
        test = TestSplit(
            np.concatenate(test_X, axis=0),
            np.array(test_g, dtype=np.int64),
            np.array(test_c, dtype=np.int64),
            np.array(test_l, dtype=np.int64),
        )
    else:
        test = TestSplit(np.zeros((0, spec.obs_dim)), np.zeros(0, np.int64), np.zeros(0, np.int64))
    return DatasetBundle(cameras, test, spec=spec, prototypes=protos)


# ---------------------------------------------------------------------------
# Feature CSV format: header camera,local_id,global_id,f0,...,f{D-1}; one
# sample per row; global_id may be -1 when unknown. A sidecar JSON manifest
# records camera count, dimension, the normalize-on-load flag, and the
# train/test file names.
# ---------------------------------------------------------------------------


def _format_row(camera: int, local: int, gid: int, x: np.ndarray) -> str:
    return ",".join([str(camera), str(local), str(gid)] + [repr(float(v)) for v in x])


def save_dataset(bundle: DatasetBundle, out_dir: str | Path) -> Path:
    """Write train.csv, test.csv, and manifest.json; returns the manifest path."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    dim = bundle.input_dim
    header = ",".join(CSV_HEADER_PREFIX + [f"f{k}" for k in range(dim)])
    lines = [header]
    for cam in bundle.cameras:
        for i in range(len(cam)):
            gid = -1 if cam.global_ids is None else int(cam.global_ids[i])
            lines.append(_format_row(cam.camera_id, int(cam.labels[i]), gid, cam.X[i]))
    (out / "train.csv").write_text("\n".join(lines) + "\n")
    lines = [header]
    t = bundle.test
    for i in range(len(t)):
        local = -1 if t.local_ids is None else int(t.local_ids[i])
        lines.append(_format_row(int(t.camera_ids[i]), local, int(t.global_ids[i]), t.X[i]))
    (out / "test.csv").write_text("\n".join(lines) + "\n")
    manifest = {
        "format": "ike-lab-features-v1",
        "cameras": bundle.n_cameras,
        "dim": dim,
        "normalize": False,
        "train": "train.csv",
        "test": "test.csv",
    }
    mpath = out / "manifest.json"
    mpath.write_text(json.dumps(manifest, indent=2))
    return mpath


def _parse_feature_csv(path: Path, dim_hint: int | None, normalize: bool) -> tuple[list, int]:
    """Rows (camera, local_id, global_id, features) of one feature CSV, and
    its dimension. Every feature must be finite, and with normalize every
    row must have a norm that can be divided out."""
    rows = []
    dim = dim_hint
    with path.open() as fh:
        header = fh.readline().rstrip("\n")
        cols = header.split(",")
        if cols[:3] != CSV_HEADER_PREFIX:
            raise ParseError(f"{path.name}:1: header must start with {','.join(CSV_HEADER_PREFIX)}")
        file_dim = len(cols) - 3
        if file_dim < 1:
            raise ParseError(f"{path.name}:1: no feature columns")
        if dim is None:
            dim = file_dim
        elif dim != file_dim:
            raise DimensionMismatch(f"{path.name} has {file_dim} feature columns, expected {dim}")
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 3 + dim:
                raise ParseError(f"{path.name}:{lineno}: expected {3 + dim} columns, got {len(parts)}")
            try:
                camera = int(parts[0])
                local = int(parts[1])
                gid = int(parts[2])
                feats = [float(v) for v in parts[3:]]
            except ValueError as exc:
                raise ParseError(f"{path.name}:{lineno}: {exc}") from exc
            if not all(math.isfinite(v) for v in feats):
                raise ParseError(f"{path.name}:{lineno}: feature values must be finite")
            if normalize and not 0.0 < math.fsum(v * v for v in feats) < math.inf:
                raise ParseError(f"{path.name}:{lineno}: feature row cannot be normalized")
            rows.append((camera, local, gid, feats))
    return rows, dim


def _build_cameras(rows: list, dim: int, normalize: bool) -> list[CameraDataset]:
    by_camera: dict[int, list] = {}
    for camera, local, gid, feats in rows:
        by_camera.setdefault(camera, []).append((local, gid, feats))
    cameras = []
    for camera in sorted(by_camera):
        raw = by_camera[camera]
        remap: dict[int, int] = {}
        table: list[int] = []
        X = np.zeros((len(raw), dim))
        labels = np.zeros(len(raw), dtype=np.int64)
        gids = np.zeros(len(raw), dtype=np.int64)
        for i, (local, gid, feats) in enumerate(raw):
            if local not in remap:
                remap[local] = len(remap)
                table.append(gid)
            labels[i] = remap[local]
            gids[i] = gid
            X[i] = feats
        if normalize:
            X /= np.linalg.norm(X, axis=1, keepdims=True)
        has_globals = bool(len(raw)) and all(g >= 0 for _, g, _ in raw)
        cameras.append(
            CameraDataset(
                camera_id=camera,
                X=X,
                labels=labels,
                n_ids=len(remap),
                global_ids=gids if has_globals else None,
                label_to_global=np.array(table, dtype=np.int64) if has_globals else None,
            )
        )
    return cameras


def _build_test(rows: list, dim: int, normalize: bool) -> TestSplit:
    X = np.zeros((len(rows), dim))
    gids = np.zeros(len(rows), dtype=np.int64)
    cams = np.zeros(len(rows), dtype=np.int64)
    locals_ = np.zeros(len(rows), dtype=np.int64)
    for i, (camera, local, gid, feats) in enumerate(rows):
        X[i] = feats
        gids[i] = gid
        cams[i] = camera
        locals_[i] = local
    if normalize and len(rows):
        X /= np.linalg.norm(X, axis=1, keepdims=True)
    return TestSplit(X, gids, cams, locals_)


def load_dataset(path: str | Path) -> DatasetBundle:
    """Load a feature dataset.

    Accepts a manifest.json, a directory containing one, or a bare train
    CSV (in which case a sidecar <stem>.manifest.json is honored when
    present and the test split is empty otherwise).
    """
    path = Path(path)
    manifest: dict = {}
    train_path: Path
    test_path: Path | None = None
    if path.is_dir():
        path = path / "manifest.json"
    if path.suffix == ".json":
        if not path.exists():
            raise ParseError(f"manifest not found: {path}")
        manifest = json.loads(path.read_text())
        train_path = path.parent / manifest["train"]
        if manifest.get("test"):
            test_path = path.parent / manifest["test"]
    else:
        train_path = path
        sidecar = path.with_name(path.stem + ".manifest.json")
        if sidecar.exists():
            manifest = json.loads(sidecar.read_text())
            if manifest.get("test"):
                test_path = path.parent / manifest["test"]
    if not train_path.exists():
        raise ParseError(f"feature file not found: {train_path}")
    normalize = bool(manifest.get("normalize", False))
    dim_hint = int(manifest["dim"]) if "dim" in manifest else None
    train_rows, dim = _parse_feature_csv(train_path, dim_hint, normalize)
    if not train_rows:
        raise ParseError(f"{train_path.name}: no samples")
    cameras = _build_cameras(train_rows, dim, normalize)
    if "cameras" in manifest and int(manifest["cameras"]) != len(cameras):
        raise DimensionMismatch(
            f"manifest lists {manifest['cameras']} cameras, file has {len(cameras)}"
        )
    if test_path is not None:
        test_rows, _ = _parse_feature_csv(test_path, dim, normalize)
        test = _build_test(test_rows, dim, normalize)
    else:
        test = TestSplit(np.zeros((0, dim)), np.zeros(0, np.int64), np.zeros(0, np.int64))
    return DatasetBundle(cameras, test)
