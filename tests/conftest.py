import numpy as np
import pytest

from ike_lab.datasets import TestSplit
from ike_lab.encoder import EncoderParams, init_encoder

# Not a test class despite the name.
TestSplit.__test__ = False


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


@pytest.fixture
def small_encoder(rng) -> EncoderParams:
    return init_encoder([4, 8, 8, 6], rng)
