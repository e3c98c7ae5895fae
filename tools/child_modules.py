"""Print the modules that each command loads in a fresh child.

Writes tiny inputs to a temporary directory, runs every command once in a
fresh interpreter, and prints, per command, the nodemetry submodules that
the child loaded, plus concurrent.futures (which loads logging) and gzip if
it loaded them. It checks nothing: the exit code is 0 whatever the children
load, and the list is for reading.

    PYTHONPATH=src python tools/child_modules.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

from nodemetry.nifti_io import write_volume
from nodemetry.volume import Volume, identity_affine

_WATCHED = ("concurrent.futures", "gzip")
# the snippet that runs a command, then prints its exit code and the modules watched
_RUN = ("import json, sys\nfrom nodemetry.cli import main\ncode = main({argv!r})\n"
        "print(json.dumps([code, sorted(m for m in sys.modules "
        f"if m.startswith('nodemetry.') or m in {_WATCHED!r})]))\n")


def _write(path: Path, data: np.ndarray, kind: str) -> None:
    spacing = (1.0, 1.0, 1.0)
    write_volume(Volume(data, spacing, identity_affine(spacing), kind=kind), path)


def _inputs(d: Path) -> dict[str, list[str]]:
    """Tiny inputs in d, and the argv of each command run on them."""
    shape = (6, 5, 4)
    mask = np.zeros(shape, np.uint8)
    mask[1:3, 1:3, 1:3] = mask[4, 4, 3] = 1
    (d / "anatomy").mkdir()
    _write(d / "anatomy" / "spleen.nii", mask, "label")
    for name in ("gt.nii", "pred.nii"):
        _write(d / name, mask, "label")
    (d / "probs").mkdir()
    half = np.full(shape, 0.5, np.float32)
    for c in range(2):
        _write(d / "probs" / f"fold0_class{c}.nii.gz", half, "scalar")
        _write(d / "probs" / f"class{c}.nii.gz", half, "scalar")
    (d / "spec.txt").write_text("dims = 16 16 10\nspacing = 1 1 1\nnode = 8 8 5  3 2 2  0\n")
    return {
        "fuse": ["fuse", "--anatomy-dir", "anatomy", "--ln", "gt.nii", "--out", "fused.nii"],
        "cc": ["cc", "--mask", "gt.nii", "--out-labels", "cc.nii", "--out-summary", "cc.json"],
        "measure": ["measure", "--mask", "gt.nii", "--out", "nodes.csv"],
        "ensemble --labels": ["ensemble", "--labels", "gt.nii", "pred.nii", "--out", "v.nii"],
        "ensemble --prob-dir": ["ensemble", "--prob-dir", "probs", "--out", "e.nii"],
        "eval": ["eval", "--gt", "gt.nii", "--pred", "pred.nii", "--out-json", "e.json"],
        "phantom": ["phantom", "--spec", "spec.txt", "--out", "ph.nii"],
        "loss": ["loss", "--prob-dir", "probs", "--gt", "gt.nii"],
    }


def main() -> int:
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv in _inputs(Path(tmp)).items():
            proc = subprocess.run([sys.executable, "-c", _RUN.format(argv=argv)], cwd=tmp,
                                  env=env, capture_output=True, text=True)
            if proc.returncode:
                print(f"{name}: child failed: {proc.stderr.strip()}")
                continue
            code, loaded = json.loads(proc.stdout.splitlines()[-1])
            print(f"{name}: {' '.join(m.removeprefix('nodemetry.') for m in loaded)}"
                  + (f" (exit {code})" if code else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
