# ike_lab pins BLAS to one thread per Python thread when it loads before
# numpy, as the CLI imports it. This file loads before any test module, so
# importing ike_lab first gives the tests the CLI's bits whatever the core
# count.
from ike_lab.datasets import TestSplit
from ike_lab.encoder import EncoderParams, init_encoder

import numpy as np
import pytest

# Not a test class despite the name.
TestSplit.__test__ = False


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


@pytest.fixture
def small_encoder(rng) -> EncoderParams:
    return init_encoder([4, 8, 8, 6], rng)
