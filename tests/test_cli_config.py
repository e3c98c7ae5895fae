"""The resolved config every command echoes and embeds, pinned byte for byte.

Each command runs from inside tmp_path on relative paths, so the echoed
`config:` line and the JSON `"config"` object are fixed strings. The pins
cover every flag of every command, the key order of the JSON configs, and
the resolved values (fuse's builtin spec, eval's pairs and jobs).
"""

import json

import numpy as np
import pytest

import nodemetry as nm
from nodemetry.cli import build_parser, main
from conftest import make_volume


@pytest.fixture
def scene(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    shape = (8, 8, 4)
    mask = np.zeros(shape, np.uint8)
    mask[1:3, 1:3, 1:3] = 1
    mask[5:7, 5:7, 1:2] = 1
    for name in ("m.nii.gz", "anatomy/spleen.nii.gz", "gt/p1.nii.gz", "pred/p1.nii.gz"):
        (tmp_path / name).parent.mkdir(exist_ok=True)
        nm.write_volume(make_volume(mask, kind="label"), tmp_path / name)
    half = make_volume(np.full(shape, 0.5, np.float32), kind="scalar")
    for name in ("probs/fold0_class0", "probs/fold0_class1", "cls/class0", "cls/class1"):
        (tmp_path / name).parent.mkdir(exist_ok=True)
        nm.write_volume(half, tmp_path / f"{name}.nii.gz")
    (tmp_path / "pairs.csv").write_text("pat7,m.nii.gz,m.nii.gz\n")
    (tmp_path / "ph.txt").write_text("dims = 16 16 8\nspacing = 1 1 1\nnode = 8 8 4  3 2 2  0\n")
    return tmp_path


def echoed(capsys, argv) -> str:
    assert main(argv) == 0
    line = capsys.readouterr().out.splitlines()[0]
    assert line.startswith("config: ")
    return line[len("config: "):]


def json_config(path) -> str:
    return json.dumps(json.loads(path.read_text())["config"])


@pytest.mark.parametrize("argv, config", [
    (["fuse", "--anatomy-dir", "anatomy", "--ln", "m.nii.gz", "--out", "f.nii.gz"],
     '{"anatomy_dir": "anatomy", "command": "fuse", "ln": "m.nii.gz", "out": "f.nii.gz", '
     '"spec": "builtin"}'),
    (["cc", "--mask", "m.nii.gz"],
     '{"command": "cc", "connectivity": 26, "mask": "m.nii.gz", "min_voxels": 1, '
     '"out_labels": "", "out_summary": ""}'),
    (["measure", "--mask", "m.nii.gz", "--connectivity", "6", "--out", "n.csv"],
     '{"command": "measure", "connectivity": 6, "mask": "m.nii.gz", "out": "n.csv"}'),
    (["ensemble", "--prob-dir", "probs", "--out", "e.nii.gz", "--out-probs", "avg"],
     '{"command": "ensemble", "labels": [], "out": "e.nii.gz", "out_probs": "avg", '
     '"prob_dir": "probs"}'),
    (["ensemble", "--labels", "m.nii.gz", "m.nii.gz", "--out", "v.nii.gz"],
     '{"command": "ensemble", "labels": ["m.nii.gz", "m.nii.gz"], "out": "v.nii.gz", '
     '"out_probs": "", "prob_dir": ""}'),
    (["eval", "--gt", "m.nii.gz", "--pred", "m.nii.gz"],
     '{"command": "eval", "connectivity": 26, "jobs": 1, "ln_class": 2, '
     '"match_min_overlap": 0.0, "out_csv": "", "out_json": "", '
     '"pairs": [["m", "m.nii.gz", "m.nii.gz"]], "threshold_mm": 8.0}'),
    (["phantom", "--spec", "ph.txt", "--out", "ph.nii.gz"],
     '{"command": "phantom", "out": "ph.nii.gz", "out_expected": "", "spec": "ph.txt"}'),
    (["loss", "--prob-dir", "cls", "--gt", "m.nii.gz"],
     '{"command": "loss", "gt": "m.nii.gz", "out_json": "", "prob_dir": "cls"}'),
], ids=["fuse", "cc", "measure", "ensemble-probs", "ensemble-labels", "eval", "phantom", "loss"])
def test_echoed_config(scene, capsys, argv, config):
    assert echoed(capsys, argv) == config


def test_cc_summary_config(scene, capsys):
    echoed(capsys, ["cc", "--mask", "m.nii.gz", "--min-voxels", "2",
                    "--out-labels", "cc.nii.gz", "--out-summary", "cc.json"])
    assert json_config(scene / "cc.json") == (
        '{"command": "cc", "mask": "m.nii.gz", "connectivity": 26, "min_voxels": 2, '
        '"out_labels": "cc.nii.gz", "out_summary": "cc.json"}')


def test_loss_json_config(scene, capsys):
    echoed(capsys, ["loss", "--prob-dir", "cls", "--gt", "m.nii.gz", "--out-json", "l.json"])
    assert json_config(scene / "l.json") == (
        '{"command": "loss", "prob_dir": "cls", "gt": "m.nii.gz", "out_json": "l.json"}')


@pytest.mark.parametrize("inputs, threads, pairs, jobs", [
    (["--gt", "m.nii.gz", "--pred", "m.nii.gz"], None, '[["m", "m.nii.gz", "m.nii.gz"]]', 1),
    (["--gt-dir", "gt", "--pred-dir", "pred"], None,
     '[["p1", "gt/p1.nii.gz", "pred/p1.nii.gz"]]', 1),
    (["--manifest", "pairs.csv"], None, '[["pat7", "m.nii.gz", "m.nii.gz"]]', 1),
    (["--manifest", "pairs.csv"], "3", '[["pat7", "m.nii.gz", "m.nii.gz"]]', 1),
    (["--manifest", "pairs.csv", "--jobs", "2"], "3", '[["pat7", "m.nii.gz", "m.nii.gz"]]', 2),
], ids=["pair", "dirs", "manifest", "threads-env", "jobs-over-env"])
def test_eval_json_config(scene, capsys, monkeypatch, inputs, threads, pairs, jobs):
    if threads:
        monkeypatch.setenv("NODEMETRY_THREADS", threads)
    line = echoed(capsys, ["eval", *inputs, "--threshold", "6.5", "--min-overlap", "0.25",
                           "--ln-class", "3", "--out-json", "r.json", "--out-csv", "r.csv"])
    assert line == (
        f'{{"command": "eval", "connectivity": 26, "jobs": {jobs}, "ln_class": 3, '
        f'"match_min_overlap": 0.25, "out_csv": "r.csv", "out_json": "r.json", '
        f'"pairs": {pairs}, "threshold_mm": 6.5}}')
    assert json_config(scene / "r.json") == (
        f'{{"command": "eval", "threshold_mm": 6.5, "connectivity": 26, '
        f'"match_min_overlap": 0.25, "ln_class": 3, "jobs": {jobs}, '
        f'"out_json": "r.json", "out_csv": "r.csv"}}')


def test_eval_help_keeps_flag_metavars(capsys):
    with pytest.raises(SystemExit):
        build_parser().parse_args(["eval", "--help"])
    text = capsys.readouterr().out
    assert "--threshold THRESHOLD" in text
    assert "--min-overlap MIN_OVERLAP" in text
