import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

# CI runs the NIfTI fuzz tests longer: --hypothesis-profile=ci
settings.register_profile("ci", max_examples=1000, deadline=None)

sys.path.insert(0, str(Path(__file__).parent))  # make oracles importable

import nodemetry
from nodemetry.volume import Volume, identity_affine


def make_volume(data, spacing=(1.0, 1.0, 1.0), kind=None, **kwargs) -> Volume:
    data = np.asarray(data)
    if kind is None:
        kind = "label" if data.dtype.kind in "uib" else "scalar"
    return Volume(data, spacing, identity_affine(spacing), kind=kind, **kwargs)


# measured in a small launcher, so that the child's max RSS does not start
# from this process's (a forked child's peak includes its parent's pages)
_MAX_RSS = """import os, subprocess, sys
child = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(child.pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def child_rss_kb(args, cwd) -> int:
    """Max RSS in KiB of `python *args` run in cwd, which must exit 0."""
    env = dict(os.environ, PYTHONPATH=str(Path(nodemetry.__file__).resolve().parents[1]))
    out = subprocess.run([sys.executable, "-c", _MAX_RSS, sys.executable, *args], cwd=cwd,
                         env=env, capture_output=True, text=True, check=True).stdout.split()
    assert out[0] == "0"
    return int(out[1])


def make_mask(shape, spacing=(1.0, 1.0, 1.0)) -> Volume:
    return make_volume(np.zeros(shape, dtype=np.uint8), spacing, kind="label")


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
