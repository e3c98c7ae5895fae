import json
import subprocess
import sys
from collections import Counter

import numpy as np
import pytest

import nodemetry as nm
from nodemetry.cli import main
from conftest import make_volume


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


def test_threads_env_parsing(tmp_path, monkeypatch):
    arr = np.zeros((6, 6, 4), np.uint8); arr[1:3, 1:3, 1:3] = 1
    write_mask(tmp_path / "g.nii.gz", arr)
    write_mask(tmp_path / "p.nii.gz", arr)
    out = tmp_path / "r.json"
    monkeypatch.setenv("NODEMETRY_THREADS", "3")
    assert main(["eval", "--gt", str(tmp_path / "g.nii.gz"),
                 "--pred", str(tmp_path / "p.nii.gz"), "--out-json", str(out)]) == 0
    assert json.loads(out.read_text())["config"]["jobs"] == 3
    monkeypatch.setenv("NODEMETRY_THREADS", "banana")
    assert main(["eval", "--gt", str(tmp_path / "g.nii.gz"),
                 "--pred", str(tmp_path / "p.nii.gz"), "--out-json", str(out)]) == 1


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
