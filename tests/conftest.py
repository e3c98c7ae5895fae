import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

# CI runs the NIfTI fuzz tests longer: --hypothesis-profile=ci
settings.register_profile("ci", max_examples=1000, deadline=None)

sys.path.insert(0, str(Path(__file__).parent))  # make oracles importable

from nodemetry.volume import Volume, identity_affine


def make_volume(data, spacing=(1.0, 1.0, 1.0), kind=None, **kwargs) -> Volume:
    data = np.asarray(data)
    if kind is None:
        kind = "label" if data.dtype.kind in "uib" else "scalar"
    return Volume(data, spacing, identity_affine(spacing), kind=kind, **kwargs)


def make_mask(shape, spacing=(1.0, 1.0, 1.0)) -> Volume:
    return make_volume(np.zeros(shape, dtype=np.uint8), spacing, kind="label")


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
