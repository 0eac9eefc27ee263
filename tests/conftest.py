import numpy as np
import pytest

from ike_lab.datasets import CameraDataset, DatasetBundle, SyntheticSpec, TestSplit, generate
from ike_lab.encoder import EncoderParams, init_encoder
from ike_lab.memory import unit_rows

# Not a test class despite the name.
TestSplit.__test__ = False


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


@pytest.fixture
def small_encoder(rng) -> EncoderParams:
    return init_encoder([4, 8, 8, 6], rng)


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
