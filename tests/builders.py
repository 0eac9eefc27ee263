"""Data builders shared by the test modules; imported by name, as a plain
module, so they resolve to this file whichever conftest pytest loaded last."""

import numpy as np

from ike_lab.datasets import CameraDataset, DatasetBundle, SyntheticSpec, generate
from ike_lab.memory import unit_rows


def tiny_bundle(seed: int = 7, **overrides) -> DatasetBundle:
    """A small, fast synthetic stream for trainer-level tests."""
    kw = dict(
        n_global=24,
        latent_dim=6,
        obs_dim=6,
        n_cameras=3,
        ids_per_camera=12,
        images_per_id=4,
        test_images_per_id=2,
        camera_shift=0.2,
        noise=0.03,
        overlap_bias=0.6,
        seed=seed,
    )
    kw.update(overrides)
    return generate(SyntheticSpec(**kw))


def manual_camera(rng: np.random.Generator, n_ids: int, per_id: int, dim: int,
                  camera_id: int = 0, globals_offset: int = 0) -> CameraDataset:
    """Dataset with unit-norm inputs clustered by identity."""
    protos = unit_rows(rng, n_ids, dim)
    X = np.repeat(protos, per_id, axis=0) + 0.05 * rng.normal(size=(n_ids * per_id, dim))
    X /= np.linalg.norm(X, axis=1, keepdims=True)
    labels = np.repeat(np.arange(n_ids), per_id)
    table = np.arange(globals_offset, globals_offset + n_ids)
    return CameraDataset(
        camera_id=camera_id, X=X, labels=labels, n_ids=n_ids, label_to_global=table,
    )
