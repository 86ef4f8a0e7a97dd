import struct
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))  # make tests/reference.py importable

from ctxpress.model import _HEADER, WEIGHT_MAGIC, WEIGHT_VERSION, ModelSpec, build_model


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


@pytest.fixture()
def oversized_weight_file(tmp_path):
    """A valid header claiming a 2**31 x 2**20 embedding, then only 64 bytes."""
    path = tmp_path / "oversized.ilrw"
    header = _HEADER.pack(2**31, 2**20, 4, 4, 2**22, 0, 10000.0)
    path.write_bytes(WEIGHT_MAGIC + struct.pack("<H", WEIGHT_VERSION) + header + bytes(64))
    return path
