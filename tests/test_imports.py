"""What each command's fresh interpreter loads: no command loads scipy (the
package and its CLI need numpy only), `import nodemetry` loads no submodule,
and a child loads only the modules its command runs.

Each check runs in a fresh interpreter, since the test process itself has
scipy and every nodemetry module loaded already.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import nodemetry as nm
from conftest import make_volume

SRC = str(Path(nm.__file__).resolve().parents[1])

# prints every loaded module after the snippet ran
_REPORT = "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))\n"


def loaded_modules(snippet: str) -> set[str]:
    """The modules in sys.modules after snippet runs in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", snippet + _REPORT],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.strip().splitlines()[-1]))


def scipy_modules(snippet: str) -> set[str]:
    return {m for m in loaded_modules(snippet) if m.split(".")[0] == "scipy"}


def test_import_cli_loads_no_scipy():
    assert scipy_modules("import nodemetry, nodemetry.cli") == set()


def test_import_nodemetry_loads_no_submodule_and_every_name_resolves():
    assert {m for m in loaded_modules("import nodemetry") if m.startswith("nodemetry.")} == set()
    names = loaded_modules("import nodemetry\n"
                           "for name in nodemetry.__all__:\n"
                           "    getattr(nodemetry, name)\n")
    assert {m for m in names if m.startswith("nodemetry.")} == {
        f"nodemetry.{m}" for m in ("components", "ensemble", "errors", "fusion", "metrics",
                                   "morphometry", "nifti_io", "phantom", "volume")}
    assert len(nm.__all__) == len(set(nm.__all__)) == 47
    assert set(nm.__all__) <= set(dir(nm))
    with pytest.raises(AttributeError, match="no attribute 'missing'"):
        nm.missing


def _write(path, data, kind):
    nm.write_volume(make_volume(data, kind=kind), path)


@pytest.fixture
def tiny_inputs(tmp_path):
    shape = (6, 5, 4)
    rng = np.random.default_rng(5)
    anatomy = tmp_path / "anatomy"; anatomy.mkdir()
    spleen = np.zeros(shape, np.uint8); spleen[1:3, 1:3, 1:3] = 1
    _write(anatomy / "spleen.nii.gz", spleen, "label")
    ln = np.zeros(shape, np.uint8); ln[4, 3, 2] = 1
    _write(tmp_path / "ln.nii.gz", ln, "label")
    probs = tmp_path / "probs"; probs.mkdir()
    for fold in range(2):
        raw = rng.random(shape + (2,)).astype(np.float32)
        raw /= raw.sum(axis=3, keepdims=True)
        for c in range(2):
            _write(probs / f"fold{fold}_class{c}.nii.gz", raw[..., c], "scalar")
            if fold == 0:
                _write(probs / f"class{c}.nii.gz", raw[..., c], "scalar")
    for fold in range(3):
        _write(tmp_path / f"labels{fold}.nii.gz",
               rng.integers(0, 2, shape).astype(np.uint8), "label")
    for side in ("gt", "pred"):
        (tmp_path / side).mkdir()
        for patient in ("p0", "p1"):
            _write(tmp_path / side / f"{patient}.nii.gz",
                   rng.integers(0, 2, shape).astype(np.uint8), "label")
    (tmp_path / "spec.txt").write_text("dims = 16 16 10\nspacing = 1 1 1\n"
                                       "node = 8 8 5  3 2 2  0\n")
    return tmp_path


def _argv(cmd, d):
    return {
        "fuse": ["fuse", "--anatomy-dir", f"{d}/anatomy", "--ln", f"{d}/ln.nii.gz",
                 "--out", f"{d}/fused.nii.gz"],
        "ensemble_probs": ["ensemble", "--prob-dir", f"{d}/probs", "--out", f"{d}/e.nii.gz"],
        "ensemble_labels": ["ensemble", "--labels", *(f"{d}/labels{i}.nii.gz" for i in range(3)),
                            "--out", f"{d}/v.nii.gz"],
        "loss": ["loss", "--prob-dir", f"{d}/probs", "--gt", f"{d}/labels0.nii.gz"],
        "phantom": ["phantom", "--spec", f"{d}/spec.txt", "--out", f"{d}/ph.nii.gz"],
        "cc": ["cc", "--mask", f"{d}/labels0.nii.gz", "--out-labels", f"{d}/cc.nii.gz",
               "--out-summary", f"{d}/cc.json"],
        "measure": ["measure", "--mask", f"{d}/labels1.nii.gz", "--out", f"{d}/nodes.csv"],
        "eval": ["eval", "--gt", f"{d}/labels0.nii.gz", "--pred", f"{d}/labels1.nii.gz"],
        "eval_jobs": ["eval", "--gt-dir", f"{d}/gt", "--pred-dir", f"{d}/pred", "--jobs", "2"],
    }[cmd]


@pytest.mark.parametrize("cmd", ["fuse", "ensemble_probs", "ensemble_labels", "loss", "phantom",
                                 "cc", "measure", "eval", "eval_jobs"])
def test_commands_load_no_scipy(tiny_inputs, cmd):
    argv = _argv(cmd, tiny_inputs)
    snippet = ("from nodemetry.cli import main\n"
               f"assert main({argv!r}) == 0\n")
    assert scipy_modules(snippet) == set()



# modules a command that writes no .nii.gz and starts no pool has no use for
_UNUSED = {"nodemetry.phantom", "nodemetry.fusion", "nodemetry.ensemble", "concurrent.futures",
           "gzip"}


@pytest.mark.parametrize("cmd", ["cc", "measure", "eval"])
def test_commands_load_only_what_they_run(tiny_inputs, cmd):
    d = tiny_inputs
    argv = {"cc": ["cc", "--mask", f"{d}/labels0.nii.gz", "--out-labels", f"{d}/cc.nii",
                   "--out-summary", f"{d}/cc.json"],
            "measure": ["measure", "--mask", f"{d}/labels1.nii.gz", "--out", f"{d}/nodes.csv"],
            "eval": ["eval", "--gt", f"{d}/labels0.nii.gz", "--pred", f"{d}/labels1.nii.gz",
                     "--out-json", f"{d}/e.json"]}[cmd]
    snippet = ("from nodemetry.cli import main\n"
               f"assert main({argv!r}) == 0\n")
    assert loaded_modules(snippet) & _UNUSED == set()
