import os

# One BLAS thread per Python thread, as importing ike_lab first gives the CLI.
# BLAS reads these when numpy loads, and this file loads before any test
# module, so the tests see the CLI's bits whatever the core count. A value
# the caller set is kept.
for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_variable, "1")
del _variable

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
