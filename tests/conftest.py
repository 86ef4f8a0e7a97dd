import os
import sys
from pathlib import Path

# Before numpy loads, as ``import ctxpress`` would do had it come first: the
# engine's threads each call BLAS, and a multi-threaded BLAS competes with
# them for the same cores (test_model pins this)
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402
import pytest

sys.path.insert(0, str(Path(__file__).parent))  # make tests/reference.py importable

from ctxpress.model import ModelSpec, build_model


@pytest.fixture(scope="session")
def tiny_weights():
    """Smallest interesting model: 4 layers, 2 heads of 16 dims."""
    return build_model(ModelSpec(dim=32, heads=2, layers=4, seed=11))


@pytest.fixture(scope="session")
def toy_weights():
    """The acceptance-scale model: seed 7, 4 layers, 4 heads of 16 dims."""
    return build_model(ModelSpec(dim=64, heads=4, layers=4, seed=7))


@pytest.fixture()
def rng():
    return np.random.Generator(np.random.Philox(key=np.array([99, 7], dtype=np.uint64)))
