"""cc, measure and eval label their masks straight from the file, one chunk of
z-slices at a time: the same outputs as reading the whole grid, the same exit
codes on bad files, and no whole grid in memory. Chunks that lie in holes of
a .nii are not read, with the same outputs as a copy without holes."""

import gzip
import json
import os
import struct
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nodemetry as nm
from nodemetry import cli, metrics, morphometry, nifti_io
from nodemetry.cli import main
from conftest import child_rss_kb
from oracles import flood_fill_components
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
    """eval's lymph-node mask as it was taken from a whole grid; an unscaled
    integer file reads as an integer grid, a label grid."""
    if vol.data.dtype.kind not in "iu":
        return vol
    data = vol.data
    hi = int(data.max())
    binary = hi <= 1 or (hi == 255 and np.count_nonzero(data) == np.count_nonzero(data == 255))
    return vol if binary else nm.extract_class(vol, ln_class)


def _expected_cc(path, out, min_voxels=1):
    vol = nm.read_volume(path)
    cset = nm.filter_components(nm.label_components(vol), min_voxels)
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


def _assert_whole_grid_outputs(tmp_path, gt, pred, ln_class=2, got=None):
    got = got or _run_all(tmp_path, gt, pred, ln_class)
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


@pytest.mark.parametrize("ln_class", [1, 2, 7, 300])
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
    for ln_class in (1, 255, 2):
        _assert_whole_grid_outputs(tmp_path, tmp_path / "gt.nii", tmp_path / "pred.nii",
                                   ln_class)


def test_file_rewritten_after_open_is_rejected(tmp_path):
    path = tmp_path / "m.nii"
    _write(path, _nodes())
    mask = nifti_io.open_volume(path)
    _write(path, _nodes((11, 9, 14)))
    with pytest.raises(nm.NiftiFormatError, match="header changed"):
        nm.label_components(mask)


HOLE_SHAPE = (64, 48, 40)  # a uint8 slice is 3072 bytes: holes start and end mid-slice


def _holed(where, small):
    """small (an 11x9x13 grid) in a zero grid of HOLE_SHAPE: in its far
    corner ("first": the payload starts with zero slices), its near corner
    ("last": it ends with them) or both ("middle")."""
    data = np.zeros(HOLE_SHAPE, small.dtype)
    nx, ny, nz = small.shape
    if where in ("last", "middle"):
        data[:nx, :ny, :nz] = small
    if where in ("first", "middle"):
        data[-nx:, -ny:, -nz:] = small
    return data


def _sparse_file(path, blob):
    """blob as a file whose all-zero blocks are holes, as a .nii write leaves them."""
    with open(path, "wb") as raw:
        stream = nifti_io._SparseStream(raw)
        stream.write(blob)
        stream.close()


def _big_endian_holes(path, data):
    _sparse_file(path, build_nifti_bytes(
        order=">", dims=data.shape, datatype=4, bitpix=16, pixdim=SPACING,
        payload=data.astype(">i2").tobytes(order="F")))


def _has_hole(path) -> bool:
    """Whether the file system reports a hole in the file before its end."""
    with open(path, "rb") as f:
        return os.lseek(f.fileno(), 0, os.SEEK_HOLE) < os.fstat(f.fileno()).st_size


def _payload_bytes(path) -> int:
    with open(path, "rb") as raw:
        return nifti_io.Payload(raw, path).nbytes


def _payload_reads(monkeypatch) -> Counter:
    """Bytes that pass through Payload.readinto from now on, per file path."""
    reads = Counter()
    readinto = nifti_io.Payload.readinto

    def counted(self, buf):
        reads[str(self._path)] += len(buf)
        readinto(self, buf)

    monkeypatch.setattr(nifti_io.Payload, "readinto", counted)
    return reads


def _assert_hole_reads(reads, path, passes):
    """Each pass read fewer bytes than the payload holds where the file has
    holes, and every byte where it has none."""
    payload = passes * _payload_bytes(path)
    if _has_hole(path):
        assert 0 < reads[str(path)] < payload, (path, reads[str(path)], payload)
    else:
        assert reads[str(path)] == payload, (path, reads[str(path)], payload)


# the nodes' values, how the grid is written, and eval's --ln-class
HOLE_CASES = {
    "binary": (lambda d: d, _write, 2),
    "0-255": (lambda d: d * 255, _write, 2),
    "multi-class-ln2": (_multi_class, _write, 2),
    "big-endian": (lambda d: d, _big_endian_holes, 2),
}


@pytest.mark.parametrize("depth", [1, 2], ids=["one-slice", "two-slices"])
@pytest.mark.parametrize("where", ["first", "middle", "last"])
@pytest.mark.parametrize("case", sorted(HOLE_CASES))
def test_hole_chunks_are_not_read_and_change_no_output(tmp_path, monkeypatch, case, where,
                                                       depth):
    monkeypatch.setattr(nifti_io, "_HOLE", 4096)
    monkeypatch.setattr(nifti_io, "_SCAN_CHUNK", depth * HOLE_SHAPE[0] * HOLE_SHAPE[1])
    values, writer, ln_class = HOLE_CASES[case]
    dense = tmp_path / "dense"
    dense.mkdir()
    for name, small in (("gt", _nodes()), ("pred", _pred(_nodes()))):
        writer(tmp_path / f"{name}.nii", _holed(where, values(small)))
        # the same bytes, every block written: no holes
        (dense / f"{name}.nii").write_bytes((tmp_path / f"{name}.nii").read_bytes())
    reads = _payload_reads(monkeypatch)
    got = _run_all(tmp_path, tmp_path / "gt.nii", tmp_path / "pred.nii", ln_class)
    assert _run_all(dense, dense / "gt.nii", dense / "pred.nii", ln_class) == got
    # cc and measure read gt once each, eval reads gt and pred once each
    for d in (tmp_path, dense):
        _assert_hole_reads(reads, d / "gt.nii", 3)
        _assert_hole_reads(reads, d / "pred.nii", 1)
    assert not _has_hole(dense / "gt.nii")
    _assert_whole_grid_outputs(tmp_path, tmp_path / "gt.nii", tmp_path / "pred.nii", ln_class,
                               got)


@pytest.mark.parametrize("where", ["first", "middle", "last"])
def test_chunks_after_hole_queries_hold_the_file_voxels(tmp_path, monkeypatch, where):
    # asking the file system for the next data byte moves the descriptor under
    # the buffered reader: every chunk read after a query must still hold the
    # voxels at its offsets, and every voxel of a chunk passed over must be zero
    monkeypatch.setattr(nifti_io, "_HOLE", 4096)
    monkeypatch.setattr(nifti_io, "_SCAN_CHUNK", HOLE_SHAPE[0] * HOLE_SHAPE[1])
    path = tmp_path / "m.nii"
    _write(path, _holed(where, _multi_class(_nodes())))
    flat = nm.read_volume(path).data.ravel(order="F")
    unread = np.ones(flat.size, dtype=bool)
    for start, chunk in nifti_io.open_volume(path).chunks():
        stop = start + chunk.size
        assert np.array_equal(chunk.ravel(order="F"), flat[start:stop])
        unread[start:stop] = False
    assert not flat[unread].any()
    assert unread.any() or not _has_hole(path)


@pytest.mark.parametrize("where", ["first", "middle", "last"])
def test_hole_file_truncated_during_a_pass(tmp_path, monkeypatch, where):
    # past the new end of the file the file system reports no data at all,
    # which must not read as a hole of zeros
    monkeypatch.setattr(nifti_io, "_HOLE", 4096)
    monkeypatch.setattr(nifti_io, "_SCAN_CHUNK", HOLE_SHAPE[0] * HOLE_SHAPE[1])
    path = tmp_path / "m.nii"
    _write(path, _holed(where, _nodes()))
    chunks = nifti_io.open_volume(path).chunks()
    next(chunks)
    os.truncate(path, nifti_io.MIN_VOX_OFFSET + 20 * HOLE_SHAPE[0] * HOLE_SHAPE[1])
    with pytest.raises(nm.TruncatedFileError, match="header promises"):
        list(chunks)


def test_hole_file_rewritten_after_open_is_rejected(tmp_path, monkeypatch):
    monkeypatch.setattr(nifti_io, "_HOLE", 4096)
    path = tmp_path / "m.nii"
    _write(path, _holed("first", _nodes()))
    mask = nifti_io.open_volume(path)
    _write(path, _holed("first", _nodes())[:, :, 1:])
    with pytest.raises(nm.NiftiFormatError, match="header changed"):
        nm.label_components(mask)


def test_scaled_and_gzip_files_read_every_byte(tmp_path, monkeypatch):
    # a scaled zero is scl_inter: here a stored 0 reads as 1, foreground, so
    # a hole of a scaled file is no run of background
    monkeypatch.setattr(nifti_io, "_HOLE", 4096)
    monkeypatch.setattr(nifti_io, "_SCAN_CHUNK", HOLE_SHAPE[0] * HOLE_SHAPE[1])
    stored = _holed("middle", _nodes())
    mask = 1 - stored  # mostly foreground, stored as zero blocks
    _sparse_file(tmp_path / "scaled.nii", build_nifti_bytes(
        dims=HOLE_SHAPE, datatype=4, bitpix=16, pixdim=SPACING, slope=-1.0, inter=1.0,
        payload=stored.astype("<i2").tobytes(order="F")))
    _write(tmp_path / "m.nii", stored)
    assert _has_hole(tmp_path / "scaled.nii") == _has_hole(tmp_path / "m.nii")
    _write(tmp_path / "m.nii.gz", mask)
    for name in ("scaled.nii", "m.nii.gz"):
        path = tmp_path / name
        reads = _payload_reads(monkeypatch)
        got = nm.label_components(nifti_io.open_volume(path))
        assert reads[str(path)] == _payload_bytes(path)
        want = nm.label_components(nm.read_volume(path))
        assert np.array_equal(got.keys, want.keys)
        assert np.array_equal(got.labels, want.labels)
        assert np.array_equal(got.keys, np.sort(np.flatnonzero(mask.ravel())))


def _nan_nodes(path):
    data = _nodes().astype(np.float32)
    data[data != 0] = np.nan
    nm.write_volume(nm.Volume(data, SPACING, nm.identity_affine(SPACING), kind="scalar"), path)


@pytest.mark.parametrize("command", ["cc", "measure", "eval-gt", "eval-pred"])
def test_nan_voxels_exit_1(tmp_path, capsys, command):
    # a scalar mask with NaN nodes gave cc "1 components" and eval a Dice of
    # 100.0 against a 0/1 mask, with exit 0
    nan, mask = tmp_path / "nan.nii", tmp_path / "mask.nii"
    _nan_nodes(nan)
    _write(mask, _nodes())
    args = {"cc": ["cc", "--mask", str(nan), "--out-summary", str(tmp_path / "o.json")],
            "measure": ["measure", "--mask", str(nan), "--out", str(tmp_path / "o.csv")],
            "eval-gt": ["eval", "--gt", str(nan), "--pred", str(mask),
                        "--out-json", str(tmp_path / "o.json")],
            "eval-pred": ["eval", "--gt", str(mask), "--pred", str(nan),
                          "--out-json", str(tmp_path / "o.json")]}[command]
    assert main(args) == 1
    assert f"{nan} holds NaN voxels" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["mask.nii", "nan.nii"]


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


@st.composite
def ln_label_files(draw):
    """A 64x48xN grid of an integer dtype, holding boxes of 1, of 255 or of
    mixed ids, the scl_slope it is stored with (0: unscaled), and the slices
    per chunk of a pass over it."""
    dtype = draw(st.sampled_from([np.uint8, np.int16, np.int32]))
    ids = draw(st.sampled_from([[1], [255], [1, 2, 3, 255, 300]]))
    ids = [i for i in ids if i <= np.iinfo(dtype).max]
    data = np.zeros((64, 48, draw(st.integers(4, 12))), dtype)
    for _ in range(draw(st.integers(0, 4))):
        lo = [draw(st.integers(0, n - 1)) for n in data.shape]
        hi = [draw(st.integers(a + 1, min(n, a + reach)))
              for a, n, reach in zip(lo, data.shape, (32, 24, 4))]
        data[lo[0]:hi[0], lo[1]:hi[1], lo[2]:hi[2]] = draw(st.sampled_from(ids))
    return data, draw(st.sampled_from([0.0, 2.0])), draw(st.integers(1, 3))


@settings(max_examples=400, deadline=None)
@given(case=ln_label_files(), ln_class=st.sampled_from([1, 2, 255, 300]))
def test_ln_mask_keys_follow_the_whole_grid_rule(tmp_path_factory, case, ln_class):
    # eval's lymph-node mask of a .nii with 4096-byte holes, which start
    # mid-slice: every nonzero voxel where the file is scaled or its nonzero
    # values are all 1, all 255 or absent, else the voxels holding ln_class
    data, slope, depth = case
    path = tmp_path_factory.mktemp("ln") / "m.nii"
    with mock.patch.object(nifti_io, "_HOLE", 4096), \
            mock.patch.object(nifti_io, "_SCAN_CHUNK", depth * 64 * 48 * data.itemsize):
        _sparse_file(path, build_nifti_bytes(
            dims=data.shape, datatype=nifti_io.CODE_FOR_DTYPE[data.dtype],
            bitpix=8 * data.itemsize, pixdim=SPACING, slope=slope,
            payload=data.tobytes(order="F")))
        got = nm.label_components(cli._ln_mask(nifti_io.open_volume(path), ln_class)).keys
    path.unlink()
    values = np.unique(data[data != 0])
    binary = slope or values.size == 0 or (values.size == 1 and values[0] in (1, 255))
    assert np.array_equal(got, np.flatnonzero(data != 0 if binary else data == ln_class))


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


def test_cc_and_eval_hold_no_whole_grid(tmp_path):
    # what a child holds beyond its imports is its foreground's keys (a few
    # tens of bytes per voxel), a chunk buffer and, for cc, one chunk of the
    # labels it writes: far below half a grid for nodes of 6400 voxels each
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
    base = child_rss_kb(["-c", "import nodemetry.cli"], tmp_path)
    cc = child_rss_kb(["-m", "nodemetry.cli", "cc", "--mask", "gt.nii",
                        "--out-labels", "cc.nii", "--out-summary", "cc.json"], tmp_path)
    ev = child_rss_kb(["-m", "nodemetry.cli", "eval", "--gt", "gt.nii", "--pred", "pred.nii",
                        "--out-json", "e.json"], tmp_path)
    assert json.loads((tmp_path / "cc.json").read_text())["count"] == 4
    assert json.loads((tmp_path / "e.json").read_text())["patients"][0]["gt_node_count"] == 4
    assert cc < base + half_grid_kb, (cc, base)
    assert ev < base + half_grid_kb, (ev, base)


def _dense_mask(shape, fraction, seed):
    """A seeded mask of about `fraction` foreground in blobs a few voxels
    across: noise box-blurred along each axis, cut at its quantile."""
    field = np.random.default_rng(seed).random(shape, dtype=np.float32)
    for axis in range(3):
        for _ in range(3):
            field = (field + np.roll(field, 1, axis) + np.roll(field, -1, axis)) / 3
    return np.asfortranarray(field > np.quantile(field, 1 - fraction)).astype(np.uint8)


def test_cc_and_eval_of_a_dense_mask_hold_few_bytes_per_foreground_voxel(tmp_path):
    # 20% foreground of 128x128x96 (314,573 voxels in 505 blobs). Labeling
    # holds the keys, put in scan order in place, and its run arrays, joined
    # one neighbour direction at a time; overlap holds the shared keys'
    # indices. With every direction's edges joined at once and a sorted copy
    # of the keys, cc held 91 and eval 112 bytes per foreground voxel above
    # its imports (eval's peak is now its morphometry)
    gt = _dense_mask((128, 128, 96), 0.2, seed=7)
    pred = gt.copy(order="F")
    pred[:, :, ::7] = 0
    _write(tmp_path / "gt.nii", gt)
    _write(tmp_path / "pred.nii", pred)
    fg = int(np.count_nonzero(gt))
    del gt, pred
    base = child_rss_kb(["-c", "import nodemetry.cli"], tmp_path)
    cc = child_rss_kb(["-m", "nodemetry.cli", "cc", "--mask", "gt.nii",
                       "--out-summary", "cc.json"], tmp_path)
    ev = child_rss_kb(["-m", "nodemetry.cli", "eval", "--gt", "gt.nii", "--pred", "pred.nii",
                       "--out-json", "e.json"], tmp_path)
    assert json.loads((tmp_path / "cc.json").read_text())["count"] == 505
    assert (cc - base) * 1024 / fg < 60, (cc, base, fg)
    assert (ev - base) * 1024 / fg < 90, (ev, base, fg)


def test_cc_out_labels_holds_no_whole_grid_copy(tmp_path):
    # 300 components are stored as int32: each z-chunk of the component grid
    # is cast on its own, so neither suffix makes a 105 MB int32 copy of it
    mask = np.zeros((256, 256, 400), np.uint8, order="F")
    for x, y, z in np.ndindex(10, 10, 3):
        mask[20 + 22 * x:23 + 22 * x, 20 + 22 * y:23 + 22 * y, 60 + 130 * z:63 + 130 * z] = 1
    _write(tmp_path / "mask.nii", mask)
    del mask

    def cc(*out):
        return child_rss_kb(["-m", "nodemetry.cli", "cc", "--mask", "mask.nii",
                             "--out-summary", "cc.json", *out], tmp_path)

    base = cc()
    assert json.loads((tmp_path / "cc.json").read_text())["count"] == 300
    for name in ("cc.nii", "cc.nii.gz"):
        peak = cc("--out-labels", name)
        assert nm.open_volume(tmp_path / name).info.datatype_code == 8
        assert peak < base + 8 * 1024, (name, peak, base)


def _lattice(a, b, c):
    """a * b * c components on a (2a, 2b, 4c) grid: a voxel at every
    (2x, 2y, 4z), grown along z into a rod of 3 voxels where x is even."""
    data = np.zeros((2 * a, 2 * b, 4 * c), np.uint8)
    data[::2, ::2, ::4] = 1
    data[::4, ::2, 1::4] = 1
    data[::4, ::2, 2::4] = 1
    return data


# the range of each mask's component count at --min-voxels 1 and 3, and the mask
CC_MASKS = {
    "0": ((0, 0), lambda: np.zeros(SHAPE, np.uint8)),
    "1-255": ((1, 255), _nodes),
    "256-65535": ((256, 65535), lambda: _lattice(20, 20, 2)),
    "over-65535": ((65536, np.inf), lambda: _lattice(64, 64, 33)),
}


@pytest.mark.parametrize("affine", ["identity", "permuted-flipped"])
@pytest.mark.parametrize("min_voxels", [1, 3])
@pytest.mark.parametrize("suffix", [".nii", ".nii.gz"])
@pytest.mark.parametrize("count", list(CC_MASKS))
def test_cc_out_labels_equal_the_component_grid_written_whole(tmp_path, monkeypatch, count,
                                                              suffix, min_voxels, affine):
    # cc writes its labels from the keys, a chunk of z-slices at a time, in
    # the file's own voxel order: the bytes of the whole component grid
    # written by write_volume, uint8 up to 255 components and int32 above
    monkeypatch.setattr(nifti_io, "_SCAN_CHUNK", 300)  # chunks of 1 or 3 slices
    (lo, hi), make = CC_MASKS[count]
    mask, out = tmp_path / f"mask{suffix}", tmp_path / f"cc{suffix}"
    want = tmp_path / "want" / out.name  # a .gz header names its file
    want.parent.mkdir()
    _write(mask, make(), _permuted_flipped_affine() if affine != "identity" else None)
    assert main(["cc", "--mask", str(mask), "--min-voxels", str(min_voxels),
                 "--out-labels", str(out), "--out-summary", str(tmp_path / "cc.json")]) == 0
    summary = _expected_cc(mask, want, min_voxels)
    assert out.read_bytes() == want.read_bytes()
    got = json.loads((tmp_path / "cc.json").read_text())
    assert (got["count"], got["sizes"]) == (summary["count"], summary["sizes"])
    assert lo <= summary["count"] <= hi
    assert nm.open_volume(out).info.datatype_code == (2 if summary["count"] <= 255 else 8)


def test_no_command_builds_the_component_grid(tmp_path, monkeypatch):
    # a ComponentSet is its keys and labels: labeling a file or an array,
    # filtering, measuring and evaluating never build its grid of ids
    gt, pred = tmp_path / "gt.nii", tmp_path / "pred.nii"
    _write(gt, _nodes())
    _write(pred, _pred(_nodes()))
    made = []

    def recorded(fn):
        def wrapper(*args, **kwargs):
            made.append(fn(*args, **kwargs))
            return made[-1]
        return wrapper

    for module in (cli, metrics):
        monkeypatch.setattr(module, "label_components", recorded(nm.label_components))
    monkeypatch.setattr(cli, "filter_components", recorded(nm.filter_components))
    assert main(["cc", "--mask", str(gt), "--min-voxels", "2",
                 "--out-labels", str(tmp_path / "cc.nii")]) == 0
    assert main(["measure", "--mask", str(gt), "--out", str(tmp_path / "m.csv")]) == 0
    assert main(["eval", "--gt", str(gt), "--pred", str(pred)]) == 0
    vol = nm.canonicalize(nm.read_volume(gt))
    made.append(nm.label_components(nifti_io.open_volume(gt)))
    made.append(nm.label_components(vol.data))
    morphometry.measure_components(made[-1], vol)
    metrics.evaluate_patient(vol, nm.read_volume(pred))
    assert len(made) == 9  # cc 2, measure 1, eval 2, then 2 + 2 here
    assert all(cset.count for cset in made)
    assert not [cset for cset in made if "component_of" in cset.__dict__]


@pytest.mark.parametrize("min_voxels", [1, 2])
@pytest.mark.parametrize("connectivity", [6, 18, 26])
def test_component_grid_is_built_once_read_only_from_the_keys(connectivity, min_voxels):
    mask = _nodes() != 0
    cset = nm.filter_components(nm.label_components(mask, connectivity), min_voxels)
    assert "component_of" not in cset.__dict__
    grid = cset.component_of
    assert grid is cset.component_of
    assert grid.flags.f_contiguous and not grid.flags.writeable
    assert grid.shape == cset.shape == SHAPE and grid.dtype == cset.labels.dtype
    with pytest.raises(ValueError, match="read-only"):
        grid[0, 0, 0] = 1
    want = flood_fill_components(mask, connectivity)
    kept = np.flatnonzero(np.bincount(want.ravel())[1:] >= min_voxels) + 1
    want = np.where(np.isin(want, kept), np.searchsorted(kept, want) + 1, 0)
    assert np.array_equal(grid, want)
