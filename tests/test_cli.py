import concurrent.futures
import gzip
import json
import os
import subprocess
import sys
import tempfile
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import nodemetry as nm
from nodemetry import cli, metrics, nifti_io
from nodemetry import ensemble as ens
from nodemetry.cli import main
from conftest import child_rss_kb, make_volume


def write_mask(path, arr, spacing=(1.0, 1.0, 1.0)):
    nm.write_volume(make_volume(np.asarray(arr, np.uint8), spacing, kind="label"), path)


def two_node_arr():
    gt = np.zeros((40, 40, 12), np.uint8)
    gt[5:18, 5:18, 4:7] = 1     # SAD 13 -> large
    gt[30:33, 30:33, 4:6] = 1   # SAD 3 -> small
    return gt


def test_eval_identical_files(tmp_path, capsys):
    arr = two_node_arr()
    write_mask(tmp_path / "g.nii.gz", arr)
    write_mask(tmp_path / "p.nii.gz", arr)
    out_json = tmp_path / "report.json"
    rc = main(["eval", "--gt", str(tmp_path / "g.nii.gz"),
               "--pred", str(tmp_path / "p.nii.gz"),
               "--threshold", "8", "--out-json", str(out_json)])
    assert rc == 0
    payload = json.loads(out_json.read_text())
    assert payload["schema"] == 1
    cohort = payload["cohort"]
    assert cohort["all"]["mean"] == 1.0
    assert cohort["large"]["mean"] == 1.0
    assert cohort["small"]["mean"] == 1.0
    assert payload["patients"][0]["detected_count"] == 2
    assert payload["config"]["threshold_mm"] == 8.0
    assert "Dice (All LN): 100.0" in capsys.readouterr().out


def test_eval_two_node_scenario(tmp_path):
    gt = two_node_arr()
    pred = np.zeros_like(gt)
    pred[5:18, 5:18, 4:7] = 1  # only the large node
    write_mask(tmp_path / "g.nii.gz", gt)
    write_mask(tmp_path / "p.nii.gz", pred)
    out_json = tmp_path / "report.json"
    rc = main(["eval", "--gt", str(tmp_path / "g.nii.gz"),
               "--pred", str(tmp_path / "p.nii.gz"), "--out-json", str(out_json)])
    assert rc == 0
    cohort = json.loads(out_json.read_text())["cohort"]
    assert cohort["large"]["mean"] == 1.0
    assert cohort["small"]["mean"] == 0.0
    v1, v2 = 13 * 13 * 3, 3 * 3 * 2
    assert cohort["all"]["mean"] == pytest.approx(2 * v1 / (2 * v1 + v2), abs=5e-5)


def test_eval_byte_identical_reruns(tmp_path):
    rng = np.random.default_rng(0)
    gt = (rng.random((20, 20, 8)) < 0.1).astype(np.uint8)
    pred = (rng.random((20, 20, 8)) < 0.1).astype(np.uint8)
    write_mask(tmp_path / "g.nii.gz", gt)
    write_mask(tmp_path / "p.nii.gz", pred)
    blobs = []
    for run in range(2):
        j = tmp_path / f"r{run}.json"
        c = tmp_path / f"r{run}.csv"
        assert main(["eval", "--gt", str(tmp_path / "g.nii.gz"),
                     "--pred", str(tmp_path / "p.nii.gz"),
                     "--out-json", str(j), "--out-csv", str(c)]) == 0
        blobs.append((j.read_bytes(), c.read_bytes()))
    # config echoes per-run paths; normalize before comparing
    a = blobs[0][0].replace(b"r0", b"rX"), blobs[0][1]
    b = blobs[1][0].replace(b"r1", b"rX"), blobs[1][1]
    assert a == b


def test_eval_cohort_dir_equals_individual(tmp_path):
    rng = np.random.default_rng(1)
    gt_dir = tmp_path / "gt"; gt_dir.mkdir()
    pred_dir = tmp_path / "pred"; pred_dir.mkdir()
    singles = []
    for i in range(3):
        gt = (rng.random((16, 16, 8)) < 0.12).astype(np.uint8)
        pred = (rng.random((16, 16, 8)) < 0.12).astype(np.uint8)
        write_mask(gt_dir / f"case{i}.nii.gz", gt)
        write_mask(pred_dir / f"case{i}.nii.gz", pred)
        out = tmp_path / f"single{i}.json"
        assert main(["eval", "--gt", str(gt_dir / f"case{i}.nii.gz"),
                     "--pred", str(pred_dir / f"case{i}.nii.gz"),
                     "--out-json", str(out)]) == 0
        singles.append(json.loads(out.read_text())["patients"][0])

    out = tmp_path / "cohort.json"
    assert main(["eval", "--gt-dir", str(gt_dir), "--pred-dir", str(pred_dir),
                 "--jobs", "2", "--out-json", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["cohort"]["n_patients"] == 3
    by_id = {p["patient_id"]: p for p in payload["patients"]}
    for single in singles:
        got = by_id[single["patient_id"]]
        for key in ("dice_all", "dice_large", "dice_small", "gt_node_count"):
            assert got[key] == single[key]
    values = [p["dice_all"] for p in payload["patients"]]
    assert payload["cohort"]["all"]["mean"] == pytest.approx(float(np.mean(values)), abs=5e-5)


def test_eval_0_255_mask_is_binary(tmp_path, capsys):
    gt = two_node_arr()
    pred = np.zeros_like(gt)
    pred[5:18, 5:18, 4:7] = 1  # only the large node
    reports = []
    for scale in (1, 255):
        d = tmp_path / "run"
        d.mkdir(exist_ok=True)
        write_mask(d / "g.nii", gt * scale)
        write_mask(d / "p.nii", pred * scale)
        assert main(["eval", "--gt", str(d / "g.nii"), "--pred", str(d / "p.nii"),
                     "--out-json", str(d / "eval.json")]) == 0
        reports.append((d / "eval.json").read_bytes())
    assert reports[0] == reports[1]
    assert json.loads(reports[1])["patients"][0]["gt_node_count"] == 2
    assert "Dice (All LN): 100.0" not in capsys.readouterr().out


def test_eval_ln_class_holds_for_every_integer_label_file(tmp_path):
    # int16 and int32 label files (the writer stores grids of more than 255
    # classes as int32) counted every nonzero voxel as lymph node: the class 1
    # structure was scored as a second GT node
    gt = np.zeros((40, 40, 12), np.uint8)
    gt[5:18, 5:18, 4:7] = 2
    gt[25:35, 25:35, 2:10] = 1
    pred = gt.copy()
    pred[5:18, 5:18, 6] = 0
    entries = []
    for dtype, code in ((np.uint8, 2), (np.int16, 4), (np.int32, 8)):
        d = tmp_path / np.dtype(dtype).name
        d.mkdir()
        for name, arr in (("g.nii", gt), ("p.nii", pred)):
            nm.write_volume(make_volume(arr.astype(dtype), kind="scalar"), d / name)
            assert nm.open_volume(d / name).info.datatype_code == code
        assert main(["eval", "--gt", str(d / "g.nii"), "--pred", str(d / "p.nii"),
                     "--out-json", str(d / "eval.json")]) == 0
        entries.append(json.loads((d / "eval.json").read_text())["patients"][0])
    assert entries[0]["gt_node_count"] == 1
    assert entries[1] == entries[0] and entries[2] == entries[0]


def test_eval_manifest(tmp_path):
    arr = two_node_arr()
    write_mask(tmp_path / "g.nii.gz", arr)
    write_mask(tmp_path / "p.nii.gz", arr)
    manifest = tmp_path / "pairs.csv"
    manifest.write_text(f"pat7,{tmp_path/'g.nii.gz'},{tmp_path/'p.nii.gz'}\n")
    out = tmp_path / "r.json"
    assert main(["eval", "--manifest", str(manifest), "--out-json", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["patients"][0]["patient_id"] == "pat7"


def test_eval_manifest_repeated_patient_id(tmp_path, capsys):
    # both rows would be scored: one patient counted twice in every stratum
    write_mask(tmp_path / "g.nii.gz", two_node_arr())
    row = f"{tmp_path/'g.nii.gz'},{tmp_path/'g.nii.gz'}"
    manifest = tmp_path / "pairs.csv"
    manifest.write_text(f"# patient_id,gt,pred\npat7,{row}\npat8,{row}\npat7,{row}\n")
    out = tmp_path / "r.json"
    assert main(["eval", "--manifest", str(manifest), "--out-json", str(out)]) == 1
    assert f"{manifest}:4: patient_id 'pat7' already on line 2" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("case", ["short-line", "no-pairs", "empty-gt-dir", "missing-pred",
                                  "no-form"])
def test_eval_input_errors_exit_1(tmp_path, capsys, case):
    # each before any file is read: the message, exit 1 and no report
    write_mask(tmp_path / "g.nii.gz", two_node_arr())
    manifest, gt_dir, pred_dir = tmp_path / "pairs.csv", tmp_path / "gt", tmp_path / "pred"
    gt_dir.mkdir(); pred_dir.mkdir()
    if case == "missing-pred":
        for stem in ("a", "b"):
            write_mask(gt_dir / f"{stem}.nii.gz", two_node_arr())
        write_mask(pred_dir / "a.nii.gz", two_node_arr())
    manifest.write_text({"short-line": f"# patient_id,gt,pred\npat7,{tmp_path / 'g.nii.gz'}\n",
                         "no-pairs": "# patient_id,gt,pred\n\n"}.get(case, ""))
    flags, message = {
        "short-line": (["--manifest", str(manifest)],
                       f"{manifest}:2: expected `patient_id,gt_path,pred_path`"),
        "no-pairs": (["--manifest", str(manifest)], f"{manifest}: no pairs listed"),
        "empty-gt-dir": (["--gt-dir", str(gt_dir), "--pred-dir", str(pred_dir)],
                         f"no NIfTI files in {gt_dir}"),
        "missing-pred": (["--gt-dir", str(gt_dir), "--pred-dir", str(pred_dir)],
                         "predictions missing for patients: ['b']"),
        "no-form": ([], "eval needs --gt/--pred, --gt-dir/--pred-dir, or --manifest"),
    }[case]
    out = tmp_path / "r.json"
    assert main(["eval", *flags, "--out-json", str(out)]) == 1
    assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_eval_manifest_not_utf8_exits_1(tmp_path, capsys):
    # a manifest that is no UTF-8 text ended in an uncaught UnicodeDecodeError
    manifest = tmp_path / "pairs.csv"
    manifest.write_bytes(b"\xff\xfepat7,g.nii.gz,p.nii.gz\n")
    out = tmp_path / "r.json"
    assert main(["eval", "--manifest", str(manifest), "--out-json", str(out)]) == 1
    assert f"error: {manifest}: not UTF-8 text" in capsys.readouterr().err
    assert not out.exists()


def test_eval_missing_pred_file(tmp_path):
    write_mask(tmp_path / "g.nii.gz", two_node_arr())
    rc = main(["eval", "--gt", str(tmp_path / "g.nii.gz"),
               "--pred", str(tmp_path / "missing.nii.gz")])
    assert rc == 2  # I/O error


def test_eval_grid_mismatch_exit_code(tmp_path):
    write_mask(tmp_path / "g.nii.gz", np.zeros((4, 4, 4), np.uint8))
    write_mask(tmp_path / "p.nii.gz", np.zeros((4, 4, 5), np.uint8))
    rc = main(["eval", "--gt", str(tmp_path / "g.nii.gz"),
               "--pred", str(tmp_path / "p.nii.gz")])
    assert rc == 1


@pytest.mark.parametrize("option", [["--threshold", "nan"], ["--threshold", "-3"],
                                    ["--min-overlap", "nan"], ["--min-overlap", "2"]],
                         ids=["threshold-nan", "threshold-negative",
                              "min-overlap-nan", "min-overlap-2"])
def test_eval_rejects_out_of_range_option(tmp_path, capsys, option):
    # a NaN or negative threshold misplaces every node, an overlap fraction
    # outside [0, 1] zeroes the stratum Dice of a perfect prediction
    write_mask(tmp_path / "g.nii.gz", two_node_arr())
    out_json = tmp_path / "report.json"
    rc = main(["eval", "--gt", str(tmp_path / "g.nii.gz"), "--pred", str(tmp_path / "g.nii.gz"),
               "--out-json", str(out_json), *option])
    assert rc == 1
    assert not out_json.exists()
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("ln_class", ["-1", "-254", "0"])
@pytest.mark.parametrize("source", ["gt-pred", "manifest"])
def test_eval_rejects_negative_ln_class_before_reading(tmp_path, capsys, source, ln_class):
    # no voxel of a multi-class pair holds a negative class: both masks came
    # out empty and the pair scored "Dice (All LN): 100.0" with exit 0; class
    # 0 is background, whose components are no nodes
    gt = two_node_arr() * 2
    gt[0:3, 0:3, 0:3] = 1
    pred = np.where(gt == 2, 0, gt).astype(np.uint8)
    write_mask(tmp_path / "g.nii.gz", gt)
    write_mask(tmp_path / "p.nii.gz", pred)
    manifest = tmp_path / "pairs.csv"
    # a pair that cannot be read would exit 2 if any file were read
    manifest.write_text(f"pat1,{tmp_path/'g.nii.gz'},{tmp_path/'p.nii.gz'}\n"
                        f"pat2,{tmp_path/'missing.nii.gz'},{tmp_path/'p.nii.gz'}\n")
    inputs = {"gt-pred": ["--gt", str(tmp_path / "g.nii.gz"), "--pred", str(tmp_path / "p.nii.gz")],
              "manifest": ["--manifest", str(manifest)]}[source]
    out_json = tmp_path / "report.json"
    assert main(["eval", *inputs, "--ln-class", ln_class, "--out-json", str(out_json)]) == 1
    captured = capsys.readouterr()
    assert f"--ln-class must be >= 1, got {ln_class}" in captured.err
    assert "Dice" not in captured.out
    assert not out_json.exists()


def test_eval_checks_options_before_reading(tmp_path, monkeypatch):
    # a bad threshold is rejected before any grid is read or labeled
    import nodemetry.cli as cli
    import nodemetry.metrics as metrics
    calls = Counter()

    def counted(module, name):
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    counted(cli, "read_volume")
    counted(cli, "label_components")
    counted(metrics, "label_components")
    write_mask(tmp_path / "g.nii.gz", two_node_arr())
    rc = main(["eval", "--gt", str(tmp_path / "g.nii.gz"), "--pred", str(tmp_path / "g.nii.gz"),
               "--threshold", "nan"])
    assert rc == 1
    assert calls["read_volume"] == 0
    assert calls["label_components"] == 0


def test_cc_checks_min_voxels_before_reading(tmp_path, monkeypatch, capsys):
    # a bad --min-voxels is rejected before the mask is read or labeled,
    # so it exits 1 even where the mask is missing
    labeled = []
    monkeypatch.setattr(cli, "label_components", lambda *args: labeled.append(args))
    write_mask(tmp_path / "m.nii.gz", two_node_arr())
    for mask in ("m.nii.gz", "missing.nii.gz"):
        assert main(["cc", "--mask", str(tmp_path / mask), "--min-voxels", "0"]) == 1
        assert "min_voxels must be >= 1, got 0" in capsys.readouterr().err
    assert labeled == []


def test_fuse_without_anatomy_files_exits_1(tmp_path, capsys):
    # a lymph-node-only map has no anatomical prior: an anatomy directory
    # that holds no NIfTI file is refused before --ln is read
    anatomy = tmp_path / "anatomy"; anatomy.mkdir()
    (anatomy / "README.txt").write_text("masks go here")
    write_mask(tmp_path / "ln.nii.gz", two_node_arr())
    out = tmp_path / "fused.nii.gz"
    for ln in ("ln.nii.gz", "missing.nii.gz"):
        assert main(["fuse", "--anatomy-dir", str(anatomy), "--ln", str(tmp_path / ln),
                     "--out", str(out)]) == 1
        assert f"no NIfTI files in {anatomy}" in capsys.readouterr().err
        assert not out.exists()


def test_unknown_flag_exits_1(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--bogus"])
    assert exc.value.code == 1
    assert "usage" in capsys.readouterr().err


def test_fuse_and_unknown_structure(tmp_path, capsys):
    shape = (10, 10, 6)
    anatomy = tmp_path / "anatomy"; anatomy.mkdir()
    spleen = np.zeros(shape, np.uint8); spleen[2:5, 2:5, 1:3] = 1
    write_mask(anatomy / "spleen.nii.gz", spleen)
    ln = np.zeros(shape, np.uint8); ln[3, 3, 1] = 1; ln[7, 7, 4] = 1
    write_mask(tmp_path / "ln.nii.gz", ln)

    out = tmp_path / "fused.nii.gz"
    rc = main(["fuse", "--anatomy-dir", str(anatomy), "--ln", str(tmp_path / "ln.nii.gz"),
               "--out", str(out)])
    assert rc == 0
    fused = nm.read_volume(out)
    assert fused.data[2, 2, 1] == 3   # spleen
    assert fused.data[3, 3, 1] == 2   # LN wins over spleen
    assert fused.data[7, 7, 4] == 2

    write_mask(anatomy / "flux_capacitor.nii.gz", spleen)
    rc = main(["fuse", "--anatomy-dir", str(anatomy), "--ln", str(tmp_path / "ln.nii.gz"),
               "--out", str(out)])
    assert rc == 1
    assert "flux_capacitor" in capsys.readouterr().err


def test_cc_command(tmp_path):
    arr = two_node_arr()
    write_mask(tmp_path / "m.nii.gz", arr)
    labels_out = tmp_path / "cc.nii.gz"
    summary_out = tmp_path / "cc.json"
    rc = main(["cc", "--mask", str(tmp_path / "m.nii.gz"),
               "--out-labels", str(labels_out), "--out-summary", str(summary_out)])
    assert rc == 0
    summary = json.loads(summary_out.read_text())
    assert summary["count"] == 2
    assert sorted(summary["sizes"]) == [18, 507]
    labeled = nm.read_volume(labels_out)
    assert set(np.unique(labeled.data)) == {0, 1, 2}


def test_measure_command(tmp_path):
    write_mask(tmp_path / "m.nii.gz", two_node_arr())
    out = tmp_path / "nodes.csv"
    rc = main(["measure", "--mask", str(tmp_path / "m.nii.gz"), "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("component_index,")
    assert len(lines) == 3
    sads = sorted(float(line.split(",")[3]) for line in lines[1:])
    assert sads == [3.0, 13.0]


def test_phantom_command(tmp_path):
    spec = tmp_path / "spec.txt"
    spec.write_text("dims = 32 32 20\nspacing = 1 1 1\nnode = 15 15 10  5 3 4  30\n")
    out = tmp_path / "ph.nii.gz"
    expected_csv = tmp_path / "exp.csv"
    rc = main(["phantom", "--spec", str(spec), "--out", str(out),
               "--out-expected", str(expected_csv)])
    assert rc == 0
    vol = nm.read_volume(out)
    assert vol.data.any()
    lines = expected_csv.read_text().strip().splitlines()
    assert len(lines) == 2
    assert float(lines[1].split(",")[3]) == 6.0  # analytic SAD 2*min(5,3)


def test_ensemble_labels_mode(tmp_path):
    shape = (6, 6, 4)
    folds = []
    rng = np.random.default_rng(2)
    for i in range(3):
        arr = rng.integers(0, 3, shape).astype(np.uint8)
        p = tmp_path / f"fold{i}.nii.gz"
        write_mask(p, arr)
        folds.append(str(p))
    out = tmp_path / "merged.nii.gz"
    rc = main(["ensemble", "--labels", *folds, "--out", str(out)])
    assert rc == 0
    merged = nm.read_volume(out)
    assert merged.dims == shape


def test_ensemble_prob_mode(tmp_path):
    shape = (5, 5, 3)
    rng = np.random.default_rng(3)
    prob_dir = tmp_path / "probs"; prob_dir.mkdir()
    means = np.zeros(shape + (2,))
    for fold in range(2):
        raw = rng.random(shape + (2,))
        probs = raw / raw.sum(axis=3, keepdims=True)
        means += probs / 2
        for c in range(2):
            vol = make_volume(probs[..., c].astype(np.float32), kind="scalar")
            nm.write_volume(vol, prob_dir / f"fold{fold}_class{c}.nii.gz")
    out = tmp_path / "merged.nii.gz"
    out_probs = tmp_path / "avg"
    rc = main(["ensemble", "--prob-dir", str(prob_dir), "--out", str(out),
               "--out-probs", str(out_probs)])
    assert rc == 0
    merged = nm.read_volume(out)
    assert np.array_equal(merged.data, np.argmax(means, axis=3).astype(np.uint8))
    avg0 = nm.read_volume(out_probs / "mean_class0.nii.gz")
    assert np.allclose(avg0.data, means[..., 0], atol=1e-6)


def test_ensemble_needs_exactly_one_mode(tmp_path):
    rc = main(["ensemble", "--out", str(tmp_path / "x.nii.gz")])
    assert rc == 1


def test_ensemble_labels_rejects_out_probs(tmp_path, capsys):
    # a vote of label files has no class probabilities to write
    votes = [tmp_path / f"vote{k}.nii.gz" for k in range(2)]
    for vote in votes:
        write_mask(vote, np.zeros((4, 4, 3), np.uint8))
    out, out_probs = tmp_path / "merged.nii.gz", tmp_path / "avg"
    assert main(["ensemble", "--labels", *map(str, votes), "--out", str(out),
                 "--out-probs", str(out_probs)]) == 1
    assert "--out-probs needs --prob-dir" in capsys.readouterr().err
    assert not out.exists() and not out_probs.exists()


class _HalfWriter:
    """A file that writes half of what it is given, then fails as a full disk does."""

    def __init__(self, f):
        self._f = f

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._f.close()

    def write(self, data):
        self._f.write(data[:len(data) // 2])
        raise OSError(28, "No space left on device")


@pytest.mark.parametrize("report", ["eval-json", "eval-csv", "cc-summary", "measure", "loss",
                                    "phantom-expected"])
def test_report_write_error_keeps_old_report(tmp_path, monkeypatch, capsys, report):
    # every JSON and CSV report is written beside its target and renamed over
    # it: a write that fails midway exits 2 and leaves the old report whole
    write_mask(tmp_path / "m.nii.gz", two_node_arr())
    write_fold_probs(tmp_path / "probs", folds=None, classes=2, shape=(40, 40, 12))
    (tmp_path / "spec.txt").write_text("dims = 16 16 8\nspacing = 1 1 1\nnode = 8 8 4  3 2 2  0\n")
    mask = str(tmp_path / "m.nii.gz")
    name, argv = {
        "eval-json": ("r.json", ["eval", "--gt", mask, "--pred", mask, "--out-json"]),
        "eval-csv": ("r.csv", ["eval", "--gt", mask, "--pred", mask, "--out-csv"]),
        "cc-summary": ("cc.json", ["cc", "--mask", mask, "--out-summary"]),
        "measure": ("nodes.csv", ["measure", "--mask", mask, "--out"]),
        "loss": ("loss.json", ["loss", "--prob-dir", str(tmp_path / "probs"), "--gt", mask,
                               "--out-json"]),
        "phantom-expected": ("exp.csv", ["phantom", "--spec", str(tmp_path / "spec.txt"),
                                         "--out", str(tmp_path / "ph.nii.gz"), "--out-expected"]),
    }[report]
    target = tmp_path / name
    target.write_bytes(b"old report\n")
    real_open = open

    def open_failing_report(path, mode="r", *args, **kwargs):
        f = real_open(path, mode, *args, **kwargs)
        return _HalfWriter(f) if Path(path).name.startswith(f".{name}.") else f

    monkeypatch.setattr(nifti_io, "open", open_failing_report, raising=False)
    assert main([*argv, str(target)]) == 2
    assert "No space left on device" in capsys.readouterr().err
    assert target.read_bytes() == b"old report\n"
    assert not [p.name for p in tmp_path.iterdir() if p.name.endswith(".tmp")]


@pytest.mark.parametrize("output", ["cc-summary", "ensemble-out"])
@pytest.mark.parametrize("fault, message", [("missing-dir", "No such file or directory"),
                                            ("target-is-dir", "Is a directory")])
def test_output_that_cannot_be_written_is_named_as_given(tmp_path, capsys, output, fault,
                                                         message):
    # a missing directory fails the temporary file's open, a directory in the
    # target's place its rename: exit 2, naming the output as given rather
    # than the hidden temporary file beside it, and leaving nothing behind
    write_mask(tmp_path / "m.nii.gz", two_node_arr())
    mask = str(tmp_path / "m.nii.gz")
    name, argv = {
        "cc-summary": ("x.json", ["cc", "--mask", mask, "--out-summary"]),
        "ensemble-out": ("x.nii.gz", ["ensemble", "--labels", mask, mask, "--out"]),
    }[output]
    target = tmp_path / "nodir" / name if fault == "missing-dir" else tmp_path / name
    if fault == "target-is-dir":
        target.mkdir()
    before = sorted(p.name for p in tmp_path.iterdir())
    assert main([*argv, str(target)]) == 2
    err = capsys.readouterr().err
    assert f"{message}: '{target}'" in err
    assert ".tmp" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == before


def test_ensemble_labels_grid_mismatch_names_both_files(tmp_path, capsys):
    votes = [tmp_path / "vote0.nii.gz", tmp_path / "vote1.nii.gz"]
    write_mask(votes[0], np.zeros((6, 5, 3), np.uint8))
    write_mask(votes[1], np.zeros((6, 5, 4), np.uint8))
    out = tmp_path / "merged.nii.gz"
    assert main(["ensemble", "--labels", *map(str, votes), "--out", str(out)]) == 1
    assert f"{votes[0]} vs {votes[1]}: dims differ on axis 2" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["fuse", "ensemble"])
def test_grid_fault_in_the_last_mask_is_found_before_any_mask_is_read(tmp_path, monkeypatch,
                                                                      capsys, command):
    # fuse and ensemble --labels check every header, in file order, before
    # they read any mask whole: one on another grid exits 1 naming both files
    shape, other = (6, 5, 4), (6, 5, 3)
    anatomy = tmp_path / "anat"; anatomy.mkdir()
    for name in ("aorta", "liver", "spleen"):
        write_mask(anatomy / f"{name}.nii.gz", np.zeros(shape))
    write_mask(anatomy / "stomach.nii.gz", np.zeros(other))  # last in name order
    ln = tmp_path / "ln.nii.gz"
    write_mask(ln, np.zeros(shape))
    votes = [tmp_path / f"fold{k}.nii.gz" for k in range(3)]
    for k, vote in enumerate(votes):
        write_mask(vote, np.zeros(other if k == 2 else shape))

    def no_read(path, kind=None):
        raise AssertionError(f"{path} read whole")

    monkeypatch.setattr(cli, "read_volume", no_read)
    out = tmp_path / "out.nii.gz"
    argv, first, last = {
        "fuse": (["fuse", "--anatomy-dir", str(anatomy), "--ln", str(ln)],
                 ln, anatomy / "stomach.nii.gz"),
        "ensemble": (["ensemble", "--labels", *map(str, votes)], votes[0], votes[2]),
    }[command]
    assert main([*argv, "--out", str(out)]) == 1
    assert f"{first} vs {last}: dims differ on axis 2: 4 vs 3" in capsys.readouterr().err
    assert not out.exists()


def test_unknown_structure_is_refused_before_any_file_is_opened(tmp_path, monkeypatch, capsys):
    # the stems are known from the directory listing: a name the spec does not
    # map is refused before any header is parsed or any mask read
    anatomy = tmp_path / "anat"; anatomy.mkdir()
    for name in ("aorta", "flux_capacitor", "liver", "spleen"):
        write_mask(anatomy / f"{name}.nii.gz", np.zeros((64, 64, 48), np.uint8))
    ln = tmp_path / "ln.nii.gz"
    write_mask(ln, np.zeros((64, 64, 48), np.uint8))
    opened = []

    def spy(fn):
        def opening(path, *args, **kwargs):
            opened.append(Path(path).name)
            return fn(path, *args, **kwargs)
        return opening

    monkeypatch.setattr(cli, "read_volume", spy(cli.read_volume))
    monkeypatch.setattr(cli, "open_volume", spy(cli.open_volume))
    out = tmp_path / "fused.nii.gz"
    assert main(["fuse", "--anatomy-dir", str(anatomy), "--ln", str(ln), "--out", str(out)]) == 1
    assert "structure 'flux_capacitor' not in fusion spec" in capsys.readouterr().err
    assert opened == []
    assert not out.exists()


@pytest.mark.parametrize("out", ["{tmp}/mean/mean_class1.nii.gz", "probs/../probs/fold1_class0.nii.gz"],
                         ids=["an-out-probs-file", "an-input"])
def test_ensemble_out_that_names_another_file_of_the_run_exits_1(tmp_path, monkeypatch, capsys,
                                                                 out):
    # a mean would replace the merged labels, or the labels an input, and the
    # run exited 0; paths are compared resolved, before any file is read
    write_fold_probs(tmp_path / "probs", folds=2, classes=2)
    before = {p.name: p.read_bytes() for p in (tmp_path / "probs").iterdir()}
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "Payload", None)  # any read would fail
    out = out.format(tmp=tmp_path)
    assert main(["ensemble", "--prob-dir", "probs", "--out", out, "--out-probs", "mean"]) == 1
    assert f"--out {out} is also " in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["probs"]
    assert {p.name: p.read_bytes() for p in (tmp_path / "probs").iterdir()} == before


# each wrote over a file of its run and exited 0
OVERWRITES = {
    "ensemble-fold": ["ensemble", "--labels", "a.nii", "b.nii", "--out", "a.nii"],
    "cc-mask": ["cc", "--mask", "m.nii", "--out-labels", "m.nii"],
    "measure-mask": ["measure", "--mask", "m.nii", "--out", "m.nii"],
    "fuse-structure": ["fuse", "--anatomy-dir", "anat", "--ln", "m.nii",
                       "--out", "anat/lung_upper_lobe_left.nii"],
    "cc-two-outputs": ["cc", "--mask", "m.nii", "--out-labels", "x.nii", "--out-summary", "x.nii"],
    "eval-two-outputs": ["eval", "--gt", "m.nii", "--pred", "a.nii", "--out-json", "r",
                         "--out-csv", "r"],
    "eval-manifest": ["eval", "--manifest", "pairs.csv", "--out-csv", "./pairs.csv"],
    "phantom-spec": ["phantom", "--spec", "spec.txt", "--out", "ph.nii", "--out-expected",
                     "spec.txt"],
    "loss-gt": ["loss", "--prob-dir", "probs", "--gt", "m.nii", "--out-json", "probs/../m.nii"],
}
OVERWRITE_MESSAGES = {
    "ensemble-fold": "--out a.nii is also a.nii",
    "cc-mask": "--out-labels m.nii is also m.nii",
    "measure-mask": "--out m.nii is also m.nii",
    "fuse-structure": "--out anat/lung_upper_lobe_left.nii is also anat/lung_upper_lobe_left.nii",
    "cc-two-outputs": "--out-summary x.nii is also --out-labels x.nii",
    "eval-two-outputs": "--out-csv r is also --out-json r",
    "eval-manifest": "--out-csv ./pairs.csv is also pairs.csv",
    "phantom-spec": "--out-expected spec.txt is also spec.txt",
    "loss-gt": "--out-json probs/../m.nii is also m.nii",
}


@pytest.mark.parametrize("case", sorted(OVERWRITES))
def test_output_that_is_an_input_or_another_output_exits_1(tmp_path, monkeypatch, capsys, case):
    monkeypatch.chdir(tmp_path)
    mask = np.zeros((6, 5, 4), np.uint8)
    mask[1:3, 1:3, 1:3] = 1
    for name in ("m.nii", "a.nii", "b.nii", "anat/lung_upper_lobe_left.nii", "anat/spleen.nii"):
        (tmp_path / name).parent.mkdir(exist_ok=True)
        write_mask(tmp_path / name, mask)
    write_probs(tmp_path / "probs", ["class0.nii", "class1.nii"], shape=mask.shape)
    (tmp_path / "pairs.csv").write_text("p1,m.nii,a.nii\n")
    (tmp_path / "spec.txt").write_text("dims = 24 24 24\nspacing = 1 1 1\nnode = 10 10 10 3 3 3\n")
    before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
    assert main(OVERWRITES[case]) == 1
    assert f"error: {OVERWRITE_MESSAGES[case]}\n" in capsys.readouterr().err
    assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == before


@pytest.mark.parametrize("forms", [("pair", "dirs"), ("pair", "manifest"), ("dirs", "manifest"),
                                   ("pair", "dirs", "manifest")], ids="-".join)
def test_eval_rejects_more_than_one_input_form(tmp_path, capsys, forms):
    # only the first form was scored: a manifest given too was never opened
    for d in ("gt", "pred"):
        (tmp_path / d).mkdir()
        write_mask(tmp_path / d / "p1.nii", two_node_arr())
    flags = {"pair": ["--gt", str(tmp_path / "gt/p1.nii"), "--pred", str(tmp_path / "pred/p1.nii")],
             "dirs": ["--gt-dir", str(tmp_path / "gt"), "--pred-dir", str(tmp_path / "pred")],
             "manifest": ["--manifest", str(tmp_path / "missing.csv")]}
    names = {"pair": "--gt/--pred", "dirs": "--gt-dir/--pred-dir", "manifest": "--manifest"}
    out_json = tmp_path / "r.json"
    assert main(["eval", *(f for form in forms for f in flags[form]),
                 "--out-json", str(out_json)]) == 1
    captured = capsys.readouterr()
    assert f"got {' and '.join(names[form] for form in forms)}" in captured.err
    assert "Dice" not in captured.out
    assert not out_json.exists()


@pytest.mark.parametrize("dtype", ["i2", "i4"])
@pytest.mark.parametrize("which", ["gt", "pred"])
def test_eval_rejects_negative_label(tmp_path, capsys, dtype, which):
    # a gt whose only nonzero voxel is -1 scored "Dice (All LN): 0.0 (n=1)"
    # with exit 0; ensemble --labels and fuse reject the same file
    files = {"gt": tmp_path / "g.nii", "pred": tmp_path / "p.nii"}
    labels = np.zeros((6, 5, 4), dtype)
    labels[2, 2, 2] = 1
    write_mask(files["pred" if which == "gt" else "gt"], labels)
    labels[2, 2, 2] = -1
    nm.write_volume(make_volume(labels, kind="scalar"), files[which])
    out_json = tmp_path / "r.json"
    assert main(["eval", "--gt", str(files["gt"]), "--pred", str(files["pred"]),
                 "--out-json", str(out_json)]) == 1
    captured = capsys.readouterr()
    assert f"{files[which]}: label grid holds negative value -1" in captured.err
    assert "Dice" not in captured.out
    assert not out_json.exists()
    # cc and measure read it as a mask: nonzero is foreground
    assert main(["cc", "--mask", str(files[which])]) == 0
    assert "1 components" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["loss", "fuse"])
def test_grid_mismatch_of_gt_or_ln_names_both_files(tmp_path, capsys, command):
    # eval and ensemble named the two files; loss --gt and fuse did not
    write_fold_probs(tmp_path / "probs", folds=None, classes=2)  # 9x7x5
    anatomy = tmp_path / "anatomy"; anatomy.mkdir()
    write_mask(anatomy / "spleen.nii.gz", np.zeros((9, 7, 5), np.uint8))
    other = tmp_path / "other.nii.gz"
    write_mask(other, np.zeros((9, 7, 4), np.uint8))
    argv, expected = {
        "loss": (["loss", "--prob-dir", str(tmp_path / "probs"), "--gt", str(other)],
                 f"{tmp_path / 'probs' / 'class0.nii.gz'} vs {other}: dims differ on axis 2: "
                 "5 vs 4"),
        "fuse": (["fuse", "--anatomy-dir", str(anatomy), "--ln", str(other),
                  "--out", str(tmp_path / "fused.nii.gz")],
                 f"{other} vs {anatomy / 'spleen.nii.gz'}: dims differ on axis 2: 4 vs 5"),
    }[command]
    assert main(argv) == 1
    assert expected in capsys.readouterr().err
    assert not (tmp_path / "fused.nii.gz").exists()


@pytest.mark.parametrize("command", ["fuse", "ensemble", "loss"])
def test_bad_label_file_is_named(tmp_path, capsys, command):
    # fuse, ensemble --labels and loss --gt printed the fault without the file
    shape = (6, 5, 4)
    negative = np.zeros(shape, np.int16)
    negative[2, 2, 2] = -1
    anatomy = tmp_path / "anat"; anatomy.mkdir()
    for name in ("liver", "spleen"):
        write_mask(anatomy / f"{name}.nii.gz", np.zeros(shape))
    bad = {"fuse": anatomy / "stomach.nii.gz", "ensemble": tmp_path / "fold1.nii.gz",
           "loss": tmp_path / "gt.nii.gz"}[command]
    if command == "ensemble":
        nm.write_volume(make_volume(np.zeros(shape, np.float32), kind="scalar"), bad)
    else:
        nm.write_volume(make_volume(negative, kind="scalar"), bad)
    write_mask(tmp_path / "ln.nii.gz", np.zeros(shape))
    write_mask(tmp_path / "fold0.nii.gz", np.zeros(shape))
    write_probs(tmp_path / "probs", ["class0.nii.gz", "class1.nii.gz"], shape)
    out = tmp_path / "out.nii.gz"
    argv, expected = {
        "fuse": (["fuse", "--anatomy-dir", str(anatomy), "--ln", str(tmp_path / "ln.nii.gz"),
                  "--out", str(out)], "label grid holds negative value -1"),
        "ensemble": (["ensemble", "--labels", str(tmp_path / "fold0.nii.gz"), str(bad),
                      "--out", str(out)], "label grid needs integer dtype, got float32"),
        "loss": (["loss", "--prob-dir", str(tmp_path / "probs"), "--gt", str(bad),
                  "--out-json", str(tmp_path / "loss.json")],
                 "label grid holds negative value -1"),
    }[command]
    assert main(argv) == 1
    assert f"error: {bad}: {expected}" in capsys.readouterr().err
    assert not out.exists() and not (tmp_path / "loss.json").exists()


def test_loss_command(tmp_path, capsys):
    shape = (4, 4, 4)
    labels = np.zeros(shape, np.uint8); labels[:2] = 1
    prob_dir = tmp_path / "probs"; prob_dir.mkdir()
    for c in range(2):
        vol = make_volume(np.full(shape, 0.5, np.float32), kind="scalar")
        nm.write_volume(vol, prob_dir / f"class{c}.nii.gz")
    write_mask(tmp_path / "gt.nii.gz", labels)
    out_json = tmp_path / "loss.json"
    rc = main(["loss", "--prob-dir", str(prob_dir), "--gt", str(tmp_path / "gt.nii.gz"),
               "--out-json", str(out_json)])
    assert rc == 0
    printed = capsys.readouterr().out
    assert "loss:" in printed
    value = json.loads(out_json.read_text())["loss"]
    assert value == pytest.approx(np.log(2.0) + 0.5, abs=1e-3)


def test_loss_rejects_gt_label_outside_the_classes(tmp_path, capsys):
    shape = (4, 4, 4)
    labels = np.zeros(shape, np.uint8)
    labels[1, 2, 3] = 5
    prob_dir = tmp_path / "probs"; prob_dir.mkdir()
    for c in range(3):
        vol = make_volume(np.full(shape, 1 / 3, np.float32), kind="scalar")
        nm.write_volume(vol, prob_dir / f"class{c}.nii.gz")
    write_mask(tmp_path / "gt.nii.gz", labels)
    out_json = tmp_path / "loss.json"
    assert main(["loss", "--prob-dir", str(prob_dir), "--gt", str(tmp_path / "gt.nii.gz"),
                 "--out-json", str(out_json)]) == 1
    assert "gt label 5 outside the 3 probability classes" in capsys.readouterr().err
    assert not out_json.exists()


def test_loss_rejects_nan_probabilities(tmp_path):
    shape = (4, 4, 4)
    prob_dir = tmp_path / "probs"; prob_dir.mkdir()
    for c in range(2):
        p = np.full(shape, 0.5, np.float32)
        p[0, 0, 0] = np.nan
        nm.write_volume(make_volume(p, kind="scalar"), prob_dir / f"class{c}.nii.gz")
    write_mask(tmp_path / "gt.nii.gz", np.zeros(shape, np.uint8))
    rc = main(["loss", "--prob-dir", str(prob_dir), "--gt", str(tmp_path / "gt.nii.gz")])
    assert rc == 1


@pytest.mark.parametrize("flags", [["--jobs", "0"], ["--jobs", "-2"]],
                         ids=["jobs-0", "jobs-negative"])
def test_jobs_below_1_rejected(tmp_path, capsys, flags):
    # values below 1 used to become 1
    arr = two_node_arr()
    write_mask(tmp_path / "g.nii.gz", arr)
    out = tmp_path / "r.json"
    rc = main(["eval", "--gt", str(tmp_path / "g.nii.gz"), "--pred", str(tmp_path / "g.nii.gz"),
               "--out-json", str(out), *flags])
    assert rc == 1
    assert "must be at least 1" in capsys.readouterr().err
    assert not out.exists()


def test_console_script_entrypoint(tmp_path):
    write_mask(tmp_path / "g.nii.gz", two_node_arr())
    proc = subprocess.run(
        [sys.executable, "-m", "nodemetry.cli", "eval",
         "--gt", str(tmp_path / "g.nii.gz"), "--pred", str(tmp_path / "g.nii.gz")],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "Dice (All LN): 100.0" in proc.stdout


def write_probs(prob_dir, names, shape=(5, 5, 3), spacing=(1.0, 1.0, 1.0)):
    prob_dir.mkdir(exist_ok=True)
    for name in names:
        vol = make_volume(np.full(shape, 0.5, np.float32), spacing, kind="scalar")
        nm.write_volume(vol, prob_dir / name)


def test_ensemble_fold_files_cover_0_to_k_minus_1(tmp_path, capsys):
    # without fold1's files, the mean of folds 0 and 2 is not the 3-fold mean
    write_probs(tmp_path / "probs", [f"fold{k}_class{c}.nii.gz" for k in (0, 2) for c in (0, 1)])
    out = tmp_path / "merged.nii.gz"
    rc = main(["ensemble", "--prob-dir", str(tmp_path / "probs"), "--out", str(out)])
    assert rc == 1
    assert "no fold 1 in" in capsys.readouterr().err
    assert not out.exists()


def test_ensemble_class_files_cover_0_to_c_minus_1(tmp_path, capsys):
    # class ids are positions: files class1/class2 would write labels 0/1
    write_probs(tmp_path / "probs", [f"fold{k}_class{c}.nii.gz" for k in (0, 1) for c in (1, 2)])
    out = tmp_path / "merged.nii.gz"
    rc = main(["ensemble", "--prob-dir", str(tmp_path / "probs"), "--out", str(out),
               "--out-probs", str(tmp_path / "avg")])
    assert rc == 1
    assert "0..C-1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["ensemble", "loss"])
@pytest.mark.parametrize("files", ["none", "other-pattern", "no-match"])
def test_prob_dir_without_class_files_exits_1(tmp_path, capsys, command, files):
    # ensemble reads fold{K}_class{C} files and loss class{C} files: a
    # directory that holds none of its pattern is refused, whatever else it holds
    prob_dir = tmp_path / "probs"
    prob_dir.mkdir()
    other = "class0.nii.gz" if command == "ensemble" else "fold0_class0.nii.gz"
    write_probs(prob_dir, {"none": [], "other-pattern": [other],
                           "no-match": ["mean_class0.nii.gz", "fold0_class0_old.nii.gz"]}[files])
    write_mask(tmp_path / "gt.nii.gz", np.zeros((5, 5, 3), np.uint8))
    out = tmp_path / "out.nii.gz"
    argv = {"ensemble": ["ensemble", "--prob-dir", str(prob_dir), "--out", str(out)],
            "loss": ["loss", "--prob-dir", str(prob_dir), "--gt", str(tmp_path / "gt.nii.gz"),
                     "--out-json", str(tmp_path / "loss.json")]}[command]
    assert main(argv) == 1
    pattern = "fold{K}_class{C}" if command == "ensemble" else "class{C}"
    assert f"no {pattern}.nii[.gz] files in {prob_dir}" in capsys.readouterr().err
    assert not out.exists() and not (tmp_path / "loss.json").exists()


@pytest.mark.parametrize("command", ["ensemble", "loss"])
@pytest.mark.parametrize("grid", [{"shape": (5, 5, 4)}, {"spacing": (1.0, 1.0, 2.0)}],
                         ids=["dims", "spacing"])
def test_class_files_share_one_grid(tmp_path, capsys, command, grid):
    prefix = "fold0_" if command == "ensemble" else ""
    write_probs(tmp_path / "probs", [f"{prefix}class0.nii.gz"])
    write_probs(tmp_path / "probs", [f"{prefix}class1.nii.gz"], **grid)
    write_mask(tmp_path / "gt.nii.gz", np.zeros((5, 5, 3), np.uint8))
    out = tmp_path / "out.nii.gz"
    argv = {"ensemble": ["ensemble", "--prob-dir", str(tmp_path / "probs"), "--out", str(out)],
            "loss": ["loss", "--prob-dir", str(tmp_path / "probs"),
                     "--gt", str(tmp_path / "gt.nii.gz")]}[command]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert f"{prefix}class0.nii.gz vs " in err and f"{prefix}class1.nii.gz" in err
    assert not out.exists()


def test_duplicate_stem_in_anatomy_dir(tmp_path, capsys):
    # fuse would OR both masks into one structure
    anatomy = tmp_path / "anatomy"; anatomy.mkdir()
    spleen = np.zeros((6, 6, 4), np.uint8); spleen[1:3, 1:3, 1:3] = 1
    write_mask(anatomy / "spleen.nii", spleen)
    write_mask(anatomy / "spleen.nii.gz", spleen[::-1])
    write_mask(tmp_path / "ln.nii.gz", np.zeros((6, 6, 4), np.uint8))
    rc = main(["fuse", "--anatomy-dir", str(anatomy), "--ln", str(tmp_path / "ln.nii.gz"),
               "--out", str(tmp_path / "fused.nii.gz")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "spleen.nii " in err and "spleen.nii.gz" in err


def test_duplicate_stem_in_eval_dir(tmp_path, capsys):
    # eval would score whichever file the directory listed last
    gt_dir = tmp_path / "gt"; gt_dir.mkdir()
    pred_dir = tmp_path / "pred"; pred_dir.mkdir()
    arr = two_node_arr()
    write_mask(gt_dir / "p1.nii", arr)
    write_mask(gt_dir / "p1.nii.gz", np.zeros_like(arr))
    write_mask(pred_dir / "p1.nii.gz", arr)
    rc = main(["eval", "--gt-dir", str(gt_dir), "--pred-dir", str(pred_dir)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "p1.nii " in err and "p1.nii.gz" in err


@pytest.mark.parametrize("extra", ["fold0_class01.nii.gz", "fold0_class1.nii"],
                         ids=["same-class", "same-stem"])
def test_duplicate_class_file_in_prob_dir(tmp_path, capsys, extra):
    write_probs(tmp_path / "probs", ["fold0_class0.nii.gz", "fold0_class1.nii.gz", extra])
    rc = main(["ensemble", "--prob-dir", str(tmp_path / "probs"),
               "--out", str(tmp_path / "merged.nii.gz")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "fold0_class1.nii.gz" in err and extra in err


def write_fold_probs(prob_dir, folds, classes, shape=(9, 7, 5), seed=0):
    """Random fold{K}_class{C} probabilities (class{C} when folds is None)."""
    rng = np.random.default_rng(seed)
    prob_dir.mkdir(exist_ok=True)
    for k in range(folds or 1):
        raw = rng.random(shape + (classes,))
        probs = (raw / raw.sum(axis=3, keepdims=True)).astype(np.float32)
        for c in range(classes):
            name = f"class{c}.nii.gz" if folds is None else f"fold{k}_class{c}.nii.gz"
            nm.write_volume(make_volume(np.asfortranarray(probs[..., c]), kind="scalar"),
                            prob_dir / name)


CPU_SETUPS = {
    "one-cpu": lambda mp: mp.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False),
    "four-cpus": lambda mp: mp.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3},
                                       raising=False),
    "no-affinity": lambda mp: (mp.delattr(os, "sched_getaffinity", raising=False),
                               mp.setattr(os, "cpu_count", lambda: 3)),
}


@pytest.mark.parametrize("cpus", sorted(CPU_SETUPS))
def test_ensemble_outputs_match_stacked_sequence(tmp_path, monkeypatch, cpus):
    # the files of the slab-streamed means, read and written on the file
    # threads, against the whole-grid class-last np.stack sequence, byte for
    # byte: with the default slab (one here), slabs of one slice, and slabs
    # of two slices, which do not divide the 5 slices
    CPU_SETUPS[cpus](monkeypatch)
    prob_dir = tmp_path / "probs"
    write_fold_probs(prob_dir, folds=3, classes=4)
    outs = []
    for slices in (None, 1, 2):
        if slices is not None:
            monkeypatch.setattr(cli, "_SLAB_BYTES", slices * 9 * 7 * 4)
        out = tmp_path / f"out{slices}"; out.mkdir()
        assert main(["ensemble", "--prob-dir", str(prob_dir),
                     "--out", str(out / "merged.nii.gz"), "--out-probs", str(out)]) == 0
        outs.append(out)

    members = []
    for k in range(3):
        grids = [np.asarray(nm.read_volume(prob_dir / f"fold{k}_class{c}.nii.gz",
                                           kind="scalar").data, dtype=np.float32)
                 for c in range(4)]
        members.append(make_volume(np.stack(grids, axis=3), kind="probability"))
    mean = ens.average_probabilities(ens.FoldSet(tuple(members), kind="probability"))
    ref = tmp_path / "ref"; ref.mkdir()
    nm.write_volume(ens.argmax_labels(mean), ref / "merged.nii.gz")
    for c in range(4):
        nm.write_volume(make_volume(np.ascontiguousarray(mean.data[..., c]), kind="scalar"),
                        ref / f"mean_class{c}.nii.gz")
    names = sorted(p.name for p in ref.iterdir())
    for out in outs:
        assert sorted(p.name for p in out.iterdir()) == names
        for name in names:
            assert (out / name).read_bytes() == (ref / name).read_bytes(), (out, name)


def test_every_file_command_on_one_cpu(tmp_path, monkeypatch):
    # fuse, vote, ensemble and loss give the same files on one file thread as on four
    shape = (9, 7, 5)
    rng = np.random.default_rng(4)
    anatomy = tmp_path / "anatomy"; anatomy.mkdir()
    for name in ("spleen", "liver", "aorta"):
        write_mask(anatomy / f"{name}.nii.gz", (rng.random(shape) < 0.2).astype(np.uint8))
    write_mask(tmp_path / "ln.nii.gz", (rng.random(shape) < 0.1).astype(np.uint8))
    for k in range(3):
        write_mask(tmp_path / f"vote{k}.nii.gz", rng.integers(0, 3, shape).astype(np.uint8))
    write_fold_probs(tmp_path / "probs", folds=2, classes=3, shape=shape)
    write_fold_probs(tmp_path / "loss_probs", folds=None, classes=3, shape=shape)
    write_mask(tmp_path / "gt.nii.gz", rng.integers(0, 3, shape).astype(np.uint8))

    def run(cpus, out):
        CPU_SETUPS[cpus](monkeypatch)
        out.mkdir()
        assert main(["fuse", "--anatomy-dir", str(anatomy), "--ln", str(tmp_path / "ln.nii.gz"),
                     "--out", str(out / "fused.nii.gz")]) == 0
        assert main(["ensemble", "--labels", *(str(tmp_path / f"vote{k}.nii.gz")
                                               for k in range(3)),
                     "--out", str(out / "vote.nii.gz")]) == 0
        assert main(["ensemble", "--prob-dir", str(tmp_path / "probs"),
                     "--out", str(out / "merged.nii.gz"), "--out-probs", str(out)]) == 0
        assert main(["loss", "--prob-dir", str(tmp_path / "loss_probs"),
                     "--gt", str(tmp_path / "gt.nii.gz"),
                     "--out-json", str(out / "loss.json")]) == 0
        monkeypatch.undo()
        files = {p.name: p.read_bytes() for p in out.iterdir()}
        files["loss.json"] = json.loads(files["loss.json"])["loss"]  # its config names out
        return files

    one = run("one-cpu", tmp_path / "one")
    assert len(one) == 7
    assert one == run("four-cpus", tmp_path / "four")


@pytest.mark.parametrize("cpus, classes, workers", [("one-cpu", 6, 1), ("four-cpus", 6, 4),
                                                    ("four-cpus", 3, 3), ("no-affinity", 6, 3)])
def test_file_threads_are_min_of_files_and_usable_cpus(tmp_path, monkeypatch, cpus, classes,
                                                       workers):
    CPU_SETUPS[cpus](monkeypatch)
    write_fold_probs(tmp_path / "probs", folds=None, classes=classes)
    write_mask(tmp_path / "gt.nii.gz", np.zeros((9, 7, 5), np.uint8))
    sizes = []
    # _file_pool imports the executor from concurrent.futures when a pool starts
    pool = concurrent.futures.ThreadPoolExecutor
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor",
                        lambda max_workers: sizes.append(max_workers) or pool(max_workers))
    assert main(["loss", "--prob-dir", str(tmp_path / "probs"),
                 "--gt", str(tmp_path / "gt.nii.gz")]) == 0
    assert sizes == [workers]


def _break_crc(path):
    blob = bytearray(path.read_bytes())
    blob[-8] ^= 0xFF
    path.write_bytes(bytes(blob))


def _break_grid(path):
    nm.write_volume(make_volume(np.full((9, 7, 6), 0.25, np.float32), kind="scalar"), path)


@pytest.mark.parametrize("command", ["ensemble", "loss"])
@pytest.mark.parametrize("faults, code", [({2: _break_crc}, 2), ({2: _break_grid}, 1),
                                          ({1: _break_grid, 3: _break_crc}, 1),
                                          ({1: _break_crc, 3: _break_grid}, 1)],
                         ids=["crc", "grid", "grid-then-crc", "crc-then-grid"])
def test_first_bad_class_file_in_file_order_is_reported(tmp_path, monkeypatch, capsys, command,
                                                         faults, code):
    # class files are read in parallel, but the error is the first one the
    # run meets in its own order: every header first, in file order, then the
    # voxels class by class. A file on another grid exits 1 naming the fold's
    # first file and itself, before a corrupt file (found once it is read to
    # its end) exits 2 naming it; on one CPU as on four
    prob_dir = tmp_path / "probs"
    prefix = "fold1_" if command == "ensemble" else ""
    write_fold_probs(prob_dir, folds=2 if command == "ensemble" else None, classes=5)
    for c, breaker in faults.items():
        breaker(prob_dir / f"{prefix}class{c}.nii.gz")
    write_mask(tmp_path / "gt.nii.gz", np.zeros((9, 7, 5), np.uint8))
    out = tmp_path / "merged.nii.gz"
    argv = {"ensemble": ["ensemble", "--prob-dir", str(prob_dir), "--out", str(out)],
            "loss": ["loss", "--prob-dir", str(prob_dir), "--gt", str(tmp_path / "gt.nii.gz")]}
    first_bad = min((c for c, breaker in faults.items() if breaker is _break_grid),
                    default=min(faults))
    for cpus in ("one-cpu", "four-cpus"):
        CPU_SETUPS[cpus](monkeypatch)
        assert main(argv[command]) == code
        err = capsys.readouterr().err
        named = [n for n in (f"{prefix}class{c}.nii.gz" for c in range(5)) if n in err]
        assert named == ([f"{prefix}class0.nii.gz"] if code == 1 else []) + \
            [f"{prefix}class{first_bad}.nii.gz"], cpus
        assert not out.exists()


def test_streamed_ensemble_under_thread_stress(tmp_path, monkeypatch):
    # 8 file threads on a short switch interval, one-slice slabs: a stream
    # written by two threads at once, or a slab read before the last one
    # finished, would change the bytes
    prob_dir = tmp_path / "probs"
    write_fold_probs(prob_dir, folds=4, classes=6, shape=(6, 5, 12))

    def run(out):
        out.mkdir()
        assert main(["ensemble", "--prob-dir", str(prob_dir), "--out", str(out / "merged.nii.gz"),
                     "--out-probs", str(out)]) == 0
        return {p.name: p.read_bytes() for p in out.iterdir()}

    ref = run(tmp_path / "ref")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
    monkeypatch.setattr(cli, "_SLAB_BYTES", 6 * 5 * 4)
    overlaps = []

    class OneWriter:
        """A stream that records a write entered while another is running."""

        def __init__(self, stream):
            self._stream, self._busy = stream, False

        def write(self, data):
            overlaps.append(self._busy)
            self._busy = True
            time.sleep(0.001)
            self._stream.write(data)
            self._busy = False

    streams = cli.volume_streams

    @contextmanager
    def watched(*args):
        with streams(*args) as opened:
            yield [OneWriter(stream) for stream in opened]

    monkeypatch.setattr(cli, "volume_streams", watched)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for k in range(3):
            assert run(tmp_path / f"run{k}") == ref
    finally:
        sys.setswitchinterval(interval)
    assert len(overlaps) == 3 * 6 * 12 and not any(overlaps)


def _truncate(path):
    blob = path.read_bytes()
    path.write_bytes(blob[:len(blob) // 2])


def _overlong(path):
    # a second gzip member after the payload: found only past the last slab
    path.write_bytes(path.read_bytes() + gzip.compress(b"\x01"))


def _break_sums(path):
    # slice 2 of this class grid gains 0.5: its voxels' class sums are off
    data = np.array(nm.read_volume(path).data)
    data[:, :, 2] += 0.5
    nm.write_volume(make_volume(np.clip(data, 0, 1), kind="scalar"), path)


@pytest.mark.parametrize("faults, code, named", [
    ({"fold2_class3": _truncate}, 2, "fold2_class3"),
    ({"fold2_class3": _break_crc}, 2, "fold2_class3"),
    ({"fold1_class2": _break_sums}, 1, "class sums"),
    ({"fold0_class1": _break_sums, "fold2_class3": _break_crc}, 1, "class sums"),
    ({"fold2_class3": _overlong}, 2, "fold2_class3"),
    ({"fold0_class1": _break_crc, "fold2_class3": _truncate}, 2, "fold2_class3"),
    ({}, 2, "nodir"),
], ids=["truncated-last", "crc-last", "bad-sums", "bad-sums-then-crc", "over-long-last",
        "crc-then-truncated", "missing-out-dir"])
@pytest.mark.parametrize("cpus", ["one-cpu", "four-cpus"])
def test_failed_stream_leaves_outputs_as_they_were(tmp_path, monkeypatch, capsys, cpus, faults,
                                                   code, named):
    # the last file ends mid-stream, or its CRC (checked once it is read to
    # its end) is bad, or slab 2 holds bad sums, or every file is sound and
    # --out names a missing directory: exit 2, 2, 1 or 2, after some mean
    # slabs were written; --out and --out-probs hold what they held,
    # with no temp file. Of two faults, the one met first in read order is
    # reported: slab 2's bad sums before a CRC checked after slab 4, and a
    # stream that ends mid-file before a CRC checked at its end.
    CPU_SETUPS[cpus](monkeypatch)
    monkeypatch.setattr(cli, "_SLAB_BYTES", 9 * 7 * 4)  # one slice per slab
    prob_dir = tmp_path / "probs"
    write_fold_probs(prob_dir, folds=3, classes=4)
    for stem, breaker in faults.items():
        breaker(prob_dir / f"{stem}.nii.gz")
    out = tmp_path / "out"; out.mkdir()
    (out / "merged.nii.gz").write_bytes(b"old labels")
    (out / "mean_class0.nii.gz").write_bytes(b"old mean")
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    new_dir = tmp_path / "new" / "probs"
    for out_probs in (out, new_dir):
        merged = (out if faults else tmp_path / "nodir") / "merged.nii.gz"
        assert main(["ensemble", "--prob-dir", str(prob_dir), "--out", str(merged),
                     "--out-probs", str(out_probs)]) == code
        assert named in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out", "probs"]


def test_every_fold_is_checked_not_only_the_mean(tmp_path, capsys):
    # fold 0's class sums are 1.2 and fold 1's 0.8: their mean sums to 1, so
    # only the check of each fold's class files finds them
    prob_dir = tmp_path / "probs"; prob_dir.mkdir()
    for k, share in enumerate((0.6, 0.4)):
        for c in range(2):
            nm.write_volume(make_volume(np.full((9, 7, 5), share, np.float32), kind="scalar"),
                            prob_dir / f"fold{k}_class{c}.nii.gz")
    out = tmp_path / "merged.nii.gz"
    assert main(["ensemble", "--prob-dir", str(prob_dir), "--out", str(out)]) == 1
    assert "class sums off by 2.00e-01" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("fold, cls", [(0, 0), (0, 3), (1, 0), (2, 2)])
def test_grid_mismatch_in_any_fold_exits_1_before_any_output(tmp_path, monkeypatch, capsys,
                                                              fold, cls):
    prob_dir = tmp_path / "probs"
    write_fold_probs(prob_dir, folds=3, classes=4)
    _break_grid(prob_dir / f"fold{fold}_class{cls}.nii.gz")

    def no_output(*args):
        raise AssertionError("an output was opened")

    monkeypatch.setattr(cli, "volume_streams", no_output)
    monkeypatch.setattr(cli, "write_volume", no_output)
    out = tmp_path / "out"
    assert main(["ensemble", "--prob-dir", str(prob_dir), "--out", str(out / "merged.nii.gz"),
                 "--out-probs", str(out)]) == 1
    # a class file is checked against its fold's first, a fold's first against fold 0's
    first = (fold, 1) if (fold, cls) == (0, 0) else (fold, cls)
    ref = f"fold{fold}_class0.nii.gz" if first[1] else "fold0_class0.nii.gz"
    err = capsys.readouterr().err
    assert f"{ref} vs {prob_dir}/fold{first[0]}_class{first[1]}.nii.gz: dims differ" in err
    assert not out.exists()


def test_ensemble_child_holds_no_fold_stack(tmp_path):
    # 5 folds x 30 classes on 96x96x80: the whole-grid ensemble held five
    # fold stacks (88 MB each) and a float64 mean; streamed, a child holds one
    # slab per file, well below one fold's stack on top of its imports
    shape, classes = (96, 96, 80), 30
    prob_dir = tmp_path / "probs"; prob_dir.mkdir()
    z = np.arange(shape[2])
    for k in range(5):
        # compressible, as softmax outputs are: one class per block of
        # slices, the others sharing what is left, shifted per fold
        top = (z // 8 + k) % classes
        for c in range(classes):
            column = np.where(top == c, np.float32(0.71), np.float32(0.01))
            grid = np.broadcast_to(column, shape).astype(np.float32, order="F")
            nm.write_volume(make_volume(grid, kind="scalar"), prob_dir / f"fold{k}_class{c}.nii.gz")
    base = child_rss_kb(["-c", "import nodemetry.cli"], tmp_path)
    peak = child_rss_kb(["-m", "nodemetry.cli", "ensemble", "--prob-dir", "probs",
                         "--out", "merged.nii.gz", "--out-probs", "mean"], tmp_path)
    merged = nm.read_volume(tmp_path / "merged.nii.gz").data
    # the fold with the lowest top class wins a tie of equal means
    expect = np.min([(z // 8 + k) % classes for k in range(5)], axis=0)
    assert np.array_equal(merged, np.broadcast_to(expect, shape))
    assert len(list((tmp_path / "mean").iterdir())) == classes
    fold_stack_kb = np.prod(shape) * classes * 4 / 1024
    assert peak < base + fold_stack_kb, (peak, base)
    # read class slab by class slab, it holds little more than the zlib state
    # of its 150 inputs and 30 outputs; reading two slabs of every file at
    # once took 38.5 MiB over the imports (2 CPUs)
    assert peak < base + fold_stack_kb / 3, (peak, base)


def test_loss_child_holds_no_class_stack(tmp_path):
    # 30 classes on 96x96x80: the loss of the whole stack held it (84 MB) and
    # its float64 temporaries; class by class it holds a class grid, the one
    # read ahead, the float64 class sums and the loss of one class
    shape, classes = (96, 96, 80), 30
    prob_dir = tmp_path / "probs"; prob_dir.mkdir()
    top = np.arange(shape[2]) // 8 % classes  # one class per block of slices
    for c in range(classes):
        column = np.where(top == c, np.float32(0.71), np.float32(0.01))
        grid = np.broadcast_to(column, shape).astype(np.float32, order="F")
        nm.write_volume(make_volume(grid, kind="scalar"), prob_dir / f"class{c}.nii.gz")
    write_mask(tmp_path / "gt.nii.gz", np.broadcast_to(top.astype(np.uint8), shape))
    base = child_rss_kb(["-c", "import nodemetry.cli"], tmp_path)
    peak = child_rss_kb(["-m", "nodemetry.cli", "loss", "--prob-dir", "probs",
                         "--gt", "gt.nii.gz", "--out-json", "loss.json"], tmp_path)
    assert json.loads((tmp_path / "loss.json").read_text())["loss"] > 0
    stack_kb = np.prod(shape) * classes * 4 / 1024
    assert peak < base + stack_kb / 2, (peak, base)


def test_file_error_cancels_reads_not_started(tmp_path, monkeypatch):
    # loss, and ensemble --prob-dir on one fold, read through the same slab
    # reader; a read that fails and a check that fails cancel alike
    CPU_SETUPS["one-cpu"](monkeypatch)
    write_mask(tmp_path / "gt.nii.gz", np.zeros((9, 7, 5), np.uint8))
    started = []
    decode_into = cli.Payload.decode_into

    def slow_decode(payload, out):
        if "class" not in payload._path.name:  # the gt, read through the same decoder
            return decode_into(payload, out)
        started.append(payload._path.name)
        if hold(payload):
            time.sleep(0.3)  # holds the one file thread while the error is raised
        return decode_into(payload, out)

    monkeypatch.setattr(cli.Payload, "decode_into", slow_decode)
    hold = lambda payload: payload._path.name.split("class")[1] > "1"
    for command, prefix in (("loss", ""), ("ensemble", "fold0_")):
        prob_dir = tmp_path / command
        write_fold_probs(prob_dir, folds=None if command == "loss" else 1, classes=6)
        _break_crc(prob_dir / f"{prefix}class1.nii.gz")
        started.clear()
        argv = {"loss": ["--gt", str(tmp_path / "gt.nii.gz")],
                "ensemble": ["--out", str(tmp_path / "merged.nii.gz")]}[command]
        assert main([command, "--prob-dir", str(prob_dir), *argv]) == 2
        # class0, class1, and at most the read that was running when class1 failed
        assert started[:2] == [f"{prefix}class0.nii.gz", f"{prefix}class1.nii.gz"]
        assert len(started) <= 3, (command, started)

    # one slice per slab: fold0_class1's slice 2 has bad class sums, found
    # after slab 2's last class is read, while slab 3's first read runs
    monkeypatch.setattr(cli, "_SLAB_BYTES", 9 * 7 * 4)
    hold = lambda payload: payload._done >= 3 * 9 * 7 * 4
    prob_dir = tmp_path / "sums"
    write_fold_probs(prob_dir, folds=1, classes=6)
    _break_sums(prob_dir / "fold0_class1.nii.gz")
    started.clear()
    assert main(["ensemble", "--prob-dir", str(prob_dir),
                 "--out", str(tmp_path / "merged.nii.gz")]) == 1
    # slabs 0 to 2, and at most the read that was running when the check failed
    assert len(started) <= 3 * 6 + 1, started


def test_write_fault_cancels_reads_not_started(tmp_path, monkeypatch, capsys):
    # one file thread, one slice per slab, and a mean file that cannot be
    # written: its fault is raised at the next slab of its class, while the
    # thread writes another class's slab; the reads queued behind that write
    # are cancelled, not run before the pool shuts down
    CPU_SETUPS["one-cpu"](monkeypatch)
    monkeypatch.setattr(cli, "_SLAB_BYTES", 9 * 7 * 4)
    prob_dir = tmp_path / "probs"
    write_fold_probs(prob_dir, folds=1, classes=3)
    started = []
    decode_into = cli.Payload.decode_into

    def watched(payload, out):
        started.append(payload._path.name)
        return decode_into(payload, out)

    class SlowStream:
        def __init__(self, stream, full):
            self._stream, self._full = stream, full

        def write(self, data):
            time.sleep(0.1)
            if self._full:
                raise OSError(28, "No space left on device")
            self._stream.write(data)

    streams = cli.volume_streams

    @contextmanager
    def failing(*args):
        with streams(*args) as opened:
            yield [SlowStream(stream, c == 0) for c, stream in enumerate(opened)]

    monkeypatch.setattr(cli.Payload, "decode_into", watched)
    monkeypatch.setattr(cli, "volume_streams", failing)
    out = tmp_path / "out"
    assert main(["ensemble", "--prob-dir", str(prob_dir), "--out", str(out / "merged.nii.gz"),
                 "--out-probs", str(out)]) == 2
    assert "No space left on device" in capsys.readouterr().err
    # slab 0 and slab 1's class 0; running the queued reads would add two
    assert len(started) <= 3 + 1 + 1, started
    assert not out.exists()


@pytest.mark.parametrize("command", ["ensemble", "loss"])
def test_grid_fault_in_the_last_class_file_is_found_before_any_voxel(tmp_path, monkeypatch,
                                                                      capsys, command):
    # every class header is checked before any voxel is read: nothing is
    # decoded, and no file is inflated past its header and extension flag
    prob_dir = tmp_path / "probs"
    prefix = "fold1_" if command == "ensemble" else ""
    write_fold_probs(prob_dir, folds=2 if command == "ensemble" else None, classes=4)
    _break_grid(prob_dir / f"{prefix}class3.nii.gz")
    write_mask(tmp_path / "gt.nii.gz", np.zeros((9, 7, 5), np.uint8))
    inflated = Counter()
    inflate = nifti_io._GzipReader._inflate

    def counted(reader, limit):
        out = inflate(reader, limit)
        inflated[reader._path.name] += len(out or b"")
        return out

    def no_decode(payload, out):
        raise AssertionError(f"{payload._path.name} decoded")

    monkeypatch.setattr(nifti_io._GzipReader, "_inflate", counted)
    monkeypatch.setattr(cli.Payload, "decode_into", no_decode)
    argv = {"ensemble": ["--out", str(tmp_path / "merged.nii.gz")],
            "loss": ["--gt", str(tmp_path / "gt.nii.gz")]}[command]
    assert main([command, "--prob-dir", str(prob_dir), *argv]) == 1
    assert (f"{prefix}class0.nii.gz vs {prob_dir / f'{prefix}class3.nii.gz'}: dims differ"
            in capsys.readouterr().err)
    assert len(inflated) == (8 if command == "ensemble" else 4)
    assert max(inflated.values()) <= nifti_io.MIN_VOX_OFFSET, inflated


def test_loss_gt_fault_is_found_before_any_class_voxel(tmp_path, monkeypatch, capsys):
    prob_dir = tmp_path / "probs"
    write_fold_probs(prob_dir, folds=None, classes=3)
    labels = np.zeros((9, 7, 5), np.uint8)
    labels[1, 2, 3] = 3
    write_mask(tmp_path / "gt.nii.gz", labels)
    decoded = []
    decode_into = cli.Payload.decode_into

    def watched(payload, out):
        decoded.append(payload._path.name)
        return decode_into(payload, out)

    monkeypatch.setattr(cli.Payload, "decode_into", watched)
    assert main(["loss", "--prob-dir", str(prob_dir), "--gt", str(tmp_path / "gt.nii.gz")]) == 1
    assert "gt label 3 outside the 3 probability classes" in capsys.readouterr().err
    assert decoded == ["gt.nii.gz"]


def test_fault_of_a_later_read_in_flight_counts_in_read_order(tmp_path, monkeypatch, capsys):
    # on four CPUs the reads of classes 0 and 1 run at once; fold0_class1's
    # fails first in time, but fold1_class0's comes first in read order (the
    # classes in ascending order, each fold by fold): that fault is raised,
    # on four CPUs as on one
    prob_dir = tmp_path / "probs"
    write_fold_probs(prob_dir, folds=2, classes=2)
    decode_into = cli.Payload.decode_into

    def failing_decode(payload, out):
        if payload._path.name == "fold1_class0.nii.gz":
            time.sleep(0.1)  # fold0_class1's read has failed by now
            raise OSError("fold1_class0 fault")
        if payload._path.name == "fold0_class1.nii.gz":
            raise OSError("fold0_class1 fault")
        return decode_into(payload, out)

    monkeypatch.setattr(cli.Payload, "decode_into", failing_decode)
    for cpus in ("four-cpus", "one-cpu"):
        CPU_SETUPS[cpus](monkeypatch)
        assert main(["ensemble", "--prob-dir", str(prob_dir),
                     "--out", str(tmp_path / "merged.nii.gz")]) == 2
        err = capsys.readouterr().err
        assert "fold1_class0 fault" in err and "fold0_class1" not in err, cpus


@pytest.mark.parametrize("class_fault, gt_fault, code, named", [
    (_break_crc, "truncated", 2, "gt.nii.gz"),
    (_break_sums, "label", 1, "gt label 4 outside the 4 probability classes"),
    (_break_sums, "grid", 1, "gt.nii.gz: dims differ"),
], ids=["crc-and-truncated-gt", "sums-and-gt-label", "sums-and-gt-grid"])
def test_loss_reports_gt_faults_before_class_file_faults(tmp_path, monkeypatch, capsys,
                                                          class_fault, gt_fault, code, named):
    # the gt is read and checked after the class headers and before any class
    # voxel, so its fault comes before one found only once the class files
    # are read; with a sound gt the class file's fault shows. On one CPU as
    # on four
    prob_dir, gt, out = tmp_path / "probs", tmp_path / "gt.nii.gz", tmp_path / "loss.json"
    write_fold_probs(prob_dir, folds=None, classes=4)
    class_fault(prob_dir / "class2.nii.gz")
    labels = np.zeros((9, 7, 6) if gt_fault == "grid" else (9, 7, 5), np.uint8)
    labels[1, 2, 3] = 4 if gt_fault == "label" else 1
    write_mask(gt, labels)
    if gt_fault == "truncated":
        _truncate(gt)
    argv = ["loss", "--prob-dir", str(prob_dir), "--gt", str(gt), "--out-json", str(out)]
    for cpus in ("one-cpu", "four-cpus"):
        CPU_SETUPS[cpus](monkeypatch)
        assert main(argv) == code
        err = capsys.readouterr().err
        assert named in err and "class2.nii.gz" not in err and "class sums" not in err, cpus
    write_mask(gt, np.zeros((9, 7, 5), np.uint8))
    assert main(argv) == (2 if class_fault is _break_crc else 1)
    err = capsys.readouterr().err
    assert ("class2.nii.gz" if class_fault is _break_crc else "class sums") in err
    assert "gt.nii.gz" not in err
    assert not out.exists()


@st.composite
def class_probabilities(draw):
    shape = tuple(draw(st.integers(1, 6)) for _ in range(3))
    classes = draw(st.integers(2, 5))
    raw = draw(hnp.arrays(np.float64, shape + (classes,), elements=st.floats(0.0, 1.0)))
    sums = raw.sum(axis=3, keepdims=True)
    probs = np.where(sums > 0, raw / np.where(sums > 0, sums, 1.0), 1.0 / classes)
    labels = draw(hnp.arrays(np.uint8, shape, elements=st.integers(0, classes - 1)))
    return probs.astype(np.float32), np.asfortranarray(labels)


# at least 100 examples; more under --hypothesis-profile=ci
@settings(max_examples=max(100, settings().max_examples), deadline=None)
@given(case=class_probabilities())
def test_loss_of_class_major_stack_equals_stacked_oracle(case):
    # loss.json is byte-identical only while the loss streamed one class
    # grid at a time is == composite_loss of the class-last np.stack one
    probs, labels = case
    classes = probs.shape[3]
    with tempfile.TemporaryDirectory() as d:
        paths = [Path(d) / f"class{c}.nii.gz" for c in range(classes)]
        for c, path in enumerate(paths):
            nm.write_volume(make_volume(np.asfortranarray(probs[..., c]), kind="scalar"), path)
        write_mask(Path(d) / "gt.nii.gz", labels)
        streamed = cli._stream_loss(paths, Path(d) / "gt.nii.gz")
        oracle = make_volume(np.stack([np.asarray(nm.read_volume(p, kind="scalar").data,
                                                  dtype=np.float32) for p in paths], axis=3),
                             kind="probability")
    gt = make_volume(labels, kind="label", class_count=classes)
    assert streamed == metrics.composite_loss(oracle, gt)
