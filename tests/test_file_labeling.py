"""cc, measure and eval label their masks straight from the file, one chunk of
z-slices at a time: the same outputs as reading the whole grid, the same exit
codes on bad files, and no whole grid in memory."""

import gzip
import json
import os
import struct
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nodemetry as nm
from nodemetry import cli, metrics, morphometry, nifti_io
from nodemetry.cli import main
from test_nifti import build_nifti_bytes

SHAPE = (11, 9, 13)
SPACING = (0.8, 1.1, 1.5)


def _nodes(shape=SHAPE, value=1):
    """Boxes and a diagonal chain that cross many z-slices, so they straddle
    chunk boundaries when chunks are a slice or two deep."""
    data = np.zeros(shape, np.uint8)
    data[1:5, 1:4, 0:7] = value
    data[6:10, 5:8, 5:12] = value
    for t in range(min(shape) - 1):
        data[t, shape[1] - 1 - t, t] = value
    data[0, 8, 12] = value
    return data


def _pred(data):
    pred = data.copy()
    pred[6:10, 5:8, 5:12] = 0
    pred[7:9, 6:8, 8:11] = data.max()
    pred[9, 0, 0:3] = data.max()  # a false positive
    return pred


def _permuted_flipped_affine(shape=SHAPE):
    """Voxel axis 0 runs along -z, axis 1 along +x, axis 2 along -y."""
    affine = np.zeros((3, 4))
    affine[2, 0] = -1.5
    affine[0, 1] = 0.8
    affine[1, 2] = -1.1
    affine[:, 3] = [-4.0, 12.5, 30.0]
    return affine


def _write(path, data, affine=None, spacing=SPACING):
    affine = nm.identity_affine(spacing) if affine is None else affine
    nm.write_volume(nm.Volume(data, spacing, affine, kind="label"), path)


def _qform_only(path, data):
    """A .nii whose affine comes from its q-form: a quarter turn about z
    (axes 0 and 1 swap, one flipped) and qfac -1 (axis 2 flipped)."""
    _write(path, data)
    blob = bytearray(path.read_bytes())
    struct.pack_into("<f", blob, 76, -1.0)  # pixdim[0] = qfac
    struct.pack_into("<2h", blob, 252, 1, 0)  # qform_code, sform_code
    struct.pack_into("<3f", blob, 256, 0.0, 0.0, np.sqrt(0.5))
    struct.pack_into("<3f", blob, 268, 5.0, -3.0, 7.0)
    path.write_bytes(bytes(blob))


def _big_endian(path, data):
    """A big-endian int16 .nii with a permuted and flipped s-form."""
    srow = _permuted_flipped_affine().ravel().tolist()
    path.write_bytes(build_nifti_bytes(
        order=">", dims=data.shape, datatype=4, bitpix=16, pixdim=SPACING, srow=srow,
        payload=data.astype(">i2").tobytes(order="F")))


def _scaled(path, data):
    """An int16 .nii scaled by 0.5 and -1: stored 2 reads as 0, background."""
    stored = (data.astype(np.int16) * 4) + 2 * (data == 0)
    path.write_bytes(build_nifti_bytes(
        dims=data.shape, datatype=4, bitpix=16, pixdim=SPACING, slope=0.5, inter=-1.0,
        payload=stored.astype("<i2").tobytes(order="F")))


def _multi_class(data):
    """A fused-style map: nodes of class 2 among other classes; its first
    slices hold only class 1, so they look like a binary mask."""
    out = np.where(data != 0, 2, 0).astype(np.uint8)
    out[0:3, 0:3, 0:2] = 1
    out[5:9, 0:3, 4:9] = 3
    out[4, 4:6, 6:13] = 7
    return out


def _writers():
    return {
        "permuted-flipped-sform": lambda p, d: _write(p, d, _permuted_flipped_affine()),
        "qform-only": _qform_only,
        "big-endian": _big_endian,
        "scaled-int16": _scaled,
        "0-255": lambda p, d: _write(p, d * 255),
        "straddling-gz": _write,
    }


def _path(tmp_path, case, name):
    return tmp_path / (f"{name}.nii.gz" if case.endswith("-gz") else f"{name}.nii")


def _old_ln_mask(vol, ln_class):
    """eval's lymph-node mask as it was taken from a whole grid."""
    if vol.kind != "label":
        return vol
    data = vol.data
    hi = int(data.max())
    binary = hi <= 1 or (hi == 255 and np.count_nonzero(data) == np.count_nonzero(data == 255))
    return vol if binary else nm.extract_class(vol, ln_class)


def _expected_cc(path, out):
    vol = nm.read_volume(path)
    cset = nm.label_components(vol)
    nm.write_volume(vol.with_data(cset.component_of, kind="label",
                                  class_count=cset.count + 1), out)
    return {"count": cset.count, "sizes": [int(s) for s in cset.sizes]}


def _expected_measure(path):
    vol = nm.canonicalize(nm.read_volume(path))
    cset = nm.label_components(vol.data)
    return morphometry.measurements_to_csv(morphometry.measure_components(cset, vol))


def _expected_eval(gt_path, pred_path, ln_class=2):
    report = metrics.evaluate_patient(_old_ln_mask(nm.read_volume(gt_path), ln_class),
                                      _old_ln_mask(nm.read_volume(pred_path), ln_class),
                                      patient_id="gt")
    return cli._q4(cli._patient_payload(report))


def _run_all(tmp_path, gt, pred, ln_class=2):
    """Outputs of cc, measure and eval on the files gt and pred."""
    out = {}
    assert main(["cc", "--mask", str(gt), "--out-labels", str(tmp_path / "cc.nii"),
                 "--out-summary", str(tmp_path / "cc.json")]) == 0
    summary = json.loads((tmp_path / "cc.json").read_text())
    out["cc"] = ({"count": summary["count"], "sizes": summary["sizes"]},
                 (tmp_path / "cc.nii").read_bytes())
    assert main(["measure", "--mask", str(gt), "--out", str(tmp_path / "m.csv")]) == 0
    out["measure"] = (tmp_path / "m.csv").read_text()
    assert main(["eval", "--gt", str(gt), "--pred", str(pred), "--ln-class", str(ln_class),
                 "--out-json", str(tmp_path / "e.json")]) == 0
    out["eval"] = json.loads((tmp_path / "e.json").read_text())["patients"][0]
    return out


def _assert_whole_grid_outputs(tmp_path, gt, pred, ln_class=2):
    got = _run_all(tmp_path, gt, pred, ln_class)
    summary = _expected_cc(gt, tmp_path / "cc_expected.nii")
    assert got["cc"] == (summary, (tmp_path / "cc_expected.nii").read_bytes())
    assert got["measure"] == _expected_measure(gt)
    assert got["eval"] == _expected_eval(gt, pred, ln_class)


@pytest.mark.parametrize("chunk", [1, 2, 1 << 21], ids=["one-slice", "two-slices", "default"])
@pytest.mark.parametrize("case", sorted(_writers()))
def test_outputs_equal_the_whole_grid_path(tmp_path, monkeypatch, case, chunk):
    gt, pred = _path(tmp_path, case, "gt"), _path(tmp_path, case, "pred")
    data = _nodes()
    _writers()[case](gt, data)
    _writers()[case](pred, _pred(data))
    if chunk < 1024:  # chunk slices of the grid
        monkeypatch.setattr(nifti_io, "_SCAN_CHUNK", chunk * SHAPE[0] * SHAPE[1])
    _assert_whole_grid_outputs(tmp_path, gt, pred)
    assert nm.read_volume(gt).data.any()


@pytest.mark.parametrize("ln_class", [0, 1, 2, 7, 300])
def test_multi_class_ln_class_equals_the_whole_grid_path(tmp_path, monkeypatch, ln_class):
    monkeypatch.setattr(nifti_io, "_SCAN_CHUNK", 2 * SHAPE[0] * SHAPE[1])
    data = _multi_class(_nodes())
    _write(tmp_path / "gt.nii", data, _permuted_flipped_affine())
    _write(tmp_path / "pred.nii", _multi_class(_pred(_nodes())), _permuted_flipped_affine())
    _assert_whole_grid_outputs(tmp_path, tmp_path / "gt.nii", tmp_path / "pred.nii", ln_class)


def _ones_then_255(separate: bool):
    data = _nodes()
    if separate:  # the slices holding 255 hold nothing else
        data[:, :, 7:] = 0
        data[6:10, 5:8, 9:12] = 255
    else:
        data[6:10, 5:8, 5:12] = 255
    return data


@pytest.mark.parametrize("separate", [False, True], ids=["same-slices", "later-slices"])
def test_binary_looking_prefix_then_other_value(tmp_path, monkeypatch, separate):
    # chunks of one slice: 1s only, then a 255 makes the file multi-class
    monkeypatch.setattr(nifti_io, "_SCAN_CHUNK", SHAPE[0] * SHAPE[1])
    _write(tmp_path / "gt.nii", _ones_then_255(separate))
    _write(tmp_path / "pred.nii", _nodes())
    for ln_class in (0, 1, 255, 2):
        _assert_whole_grid_outputs(tmp_path, tmp_path / "gt.nii", tmp_path / "pred.nii",
                                   ln_class)


def test_file_rewritten_after_open_is_rejected(tmp_path):
    path = tmp_path / "m.nii"
    _write(path, _nodes())
    mask = nifti_io.open_volume(path)
    _write(path, _nodes((11, 9, 14)))
    with pytest.raises(nm.NiftiFormatError, match="header changed"):
        nm.label_components(mask)


@st.composite
def oriented_masks(draw):
    shape = draw(st.tuples(*[st.integers(1, 7)] * 3))
    size = int(np.prod(shape))
    flat = draw(st.sets(st.integers(0, size - 1), max_size=min(size, 40)))
    data = np.zeros(size, np.uint8)
    data[sorted(flat)] = draw(st.sampled_from([1, 255]))
    perm = draw(st.permutations([0, 1, 2]))
    signs = draw(st.tuples(*[st.sampled_from([-1.0, 1.0])] * 3))
    affine = np.zeros((3, 4))
    for axis, (world, sign) in enumerate(zip(perm, signs)):
        affine[world, axis] = sign * (axis + 1) * 0.5
    return data.reshape(shape), affine, draw(st.integers(1, 3))


@settings(max_examples=60, deadline=None)
@given(case=oriented_masks(), connectivity=st.sampled_from((6, 18, 26)))
def test_file_keys_equal_whole_grid_keys(tmp_path_factory, case, connectivity):
    data, affine, depth = case
    path = tmp_path_factory.mktemp("m") / "m.nii.gz"
    nm.write_volume(nm.Volume(data, (0.5, 1.0, 1.5), affine, kind="label"), path)
    with mock.patch.object(nifti_io, "_SCAN_CHUNK", depth * data.shape[0] * data.shape[1]):
        for orient in (lambda v: v, nm.canonicalize):
            got = nm.label_components(orient(nifti_io.open_volume(path)), connectivity)
            want = nm.label_components(orient(nm.read_volume(path)), connectivity)
            assert got.component_of.shape == want.component_of.shape
            assert np.array_equal(got.keys, want.keys)
            assert np.array_equal(got.labels, want.labels)
            assert np.array_equal(got.component_of, want.component_of)


def _gz_pair(tmp_path):
    _write(tmp_path / "gt.nii.gz", _nodes())
    _write(tmp_path / "pred.nii.gz", _pred(_nodes()))
    return tmp_path / "gt.nii.gz", tmp_path / "pred.nii.gz"


BREAKERS = {
    "bad-crc": lambda b: b[:-8] + bytes([b[-8] ^ 0xFF]) + b[-7:],
    "truncated": lambda b: b[:len(b) // 2],
    "over-long": lambda b: b + gzip.compress(b"\x01"),
}


@pytest.mark.parametrize("fault", sorted(BREAKERS))
@pytest.mark.parametrize("command, broken", [("cc", "gt"), ("measure", "gt"), ("eval", "gt"),
                                             ("eval", "pred")])
def test_bad_gzip_exits_2_without_output(tmp_path, capsys, command, broken, fault):
    gt, pred = _gz_pair(tmp_path)
    path = gt if broken == "gt" else pred
    path.write_bytes(BREAKERS[fault](path.read_bytes()))
    outputs = {"cc": ["--out-labels", "o.nii", "--out-summary", "o.json"],
               "measure": ["--out", "o.csv"],
               "eval": ["--out-json", "o.json", "--out-csv", "o.csv"]}[command]
    inputs = ["--gt", str(gt), "--pred", str(pred)] if command == "eval" else ["--mask", str(gt)]
    before = sorted(p.name for p in tmp_path.iterdir())
    assert main([command, *inputs, *[str(tmp_path / o) if "." in o else o
                                     for o in outputs]]) == 2
    assert sorted(p.name for p in tmp_path.iterdir()) == before
    assert str(path) in capsys.readouterr().err


# measured in a small launcher, so that the child's max RSS does not start
# from this process's (a forked child's peak includes its parent's pages)
_MAX_RSS = """import os, subprocess, sys
child = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(child.pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def _child_rss_kb(args, cwd):
    env = dict(os.environ, PYTHONPATH=str(Path(nm.__file__).resolve().parents[1]))
    out = subprocess.run([sys.executable, "-c", _MAX_RSS, sys.executable, *args], cwd=cwd,
                         env=env, capture_output=True, text=True, check=True).stdout.split()
    assert out[0] == "0"
    return int(out[1])


def test_cc_and_eval_hold_no_whole_grid(tmp_path):
    # what a child holds beyond its imports is its foreground's keys (a few
    # tens of bytes per voxel), a chunk buffer and the labeled pages of
    # component_of: far below half a grid for nodes of 6400 voxels each
    shape = (256, 256, 400)
    gt = np.zeros(shape, np.uint8, order="F")
    for z in (40, 150, 260, 370):
        gt[100:120, 90:110, z - 8:z + 8] = 1
    pred = gt.copy(order="F")
    pred[100:120, 90:110, 140:160] = 0
    _write(tmp_path / "gt.nii", gt)
    _write(tmp_path / "pred.nii", pred)
    del gt, pred
    half_grid_kb = np.prod(shape) / 2 / 1024
    base = _child_rss_kb(["-c", "import nodemetry.cli"], tmp_path)
    cc = _child_rss_kb(["-m", "nodemetry.cli", "cc", "--mask", "gt.nii",
                        "--out-labels", "cc.nii", "--out-summary", "cc.json"], tmp_path)
    ev = _child_rss_kb(["-m", "nodemetry.cli", "eval", "--gt", "gt.nii", "--pred", "pred.nii",
                        "--out-json", "e.json"], tmp_path)
    assert json.loads((tmp_path / "cc.json").read_text())["count"] == 4
    assert json.loads((tmp_path / "e.json").read_text())["patients"][0]["gt_node_count"] == 4
    assert cc < base + half_grid_kb, (cc, base)
    assert ev < base + half_grid_kb, (ev, base)
