import gzip
import os
import struct
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import nodemetry as nm
from nodemetry import nifti_io
from nodemetry.cli import main
from conftest import make_volume
from oracles import ref_read_nifti

DTYPES = [("u1", "label"), ("i2", "scalar"), ("i4", "scalar"), ("f4", "scalar")]


def f32(x):
    return float(np.float32(x))


def random_volume(rng, dtype, kind, shape=None):
    shape = shape or tuple(int(n) for n in rng.integers(2, 14, 3))
    if dtype == "f4":
        data = rng.normal(size=shape).astype("f4")
    elif dtype == "u1":
        data = rng.integers(0, 30, shape).astype(dtype)
    else:
        data = rng.integers(-1000, 2000, shape).astype(dtype)
    spacing = tuple(f32(s) for s in rng.uniform(0.4, 3.0, 3))
    affine = np.zeros((3, 4))
    affine[:, :3] = np.diag(spacing)
    affine[:, 3] = rng.uniform(-100, 100, 3)
    affine = affine.astype(np.float32).astype(np.float64)
    return nm.Volume(data, spacing, affine, kind=kind, description="synthetic")


def build_nifti_bytes(order="<", dims=(3, 2, 2), datatype=2, bitpix=8,
                      pixdim=(1.0, 1.0, 1.0), vox_offset=352,
                      slope=0.0, inter=0.0, qform=0, sform=1,
                      quat=(0.0, 0.0, 0.0), qoffset=(0.0, 0.0, 0.0),
                      srow=None, magic=b"n+1\x00", sizeof=348, payload=b""):
    """Assemble a NIfTI-1 file with struct.pack, independent of the writer."""
    hdr = bytearray(348)
    struct.pack_into(order + "i", hdr, 0, sizeof)
    struct.pack_into(order + "8h", hdr, 40, 3, *dims, 1, 1, 1, 1)
    struct.pack_into(order + "2h", hdr, 70, datatype, bitpix)
    struct.pack_into(order + "8f", hdr, 76, 1.0, *pixdim, 0.0, 0.0, 0.0, 0.0)
    struct.pack_into(order + "f", hdr, 108, float(vox_offset))
    struct.pack_into(order + "2f", hdr, 112, slope, inter)
    struct.pack_into(order + "2h", hdr, 252, qform, sform)
    struct.pack_into(order + "3f", hdr, 256, *quat)
    struct.pack_into(order + "3f", hdr, 268, *qoffset)
    if srow is None and sform:
        srow = [pixdim[0], 0, 0, 0, 0, pixdim[1], 0, 0, 0, 0, pixdim[2], 0]
    if srow is not None:
        struct.pack_into(order + "12f", hdr, 280, *srow)
    hdr[344:348] = magic
    return bytes(hdr) + b"\x00\x00\x00\x00" + payload


@pytest.mark.parametrize("dtype,kind", DTYPES)
@pytest.mark.parametrize("compress", [False, True])
def test_round_trip_identity(tmp_path, rng, dtype, kind, compress):
    v = random_volume(rng, dtype, kind)
    path = tmp_path / ("v.nii.gz" if compress else "v.nii")
    nm.write_volume(v, path, compress=compress)
    r = nm.read_volume(path)
    assert r.data.dtype == v.data.dtype
    assert np.array_equal(r.data, v.data)
    assert r.dims == v.dims
    assert r.spacing == v.spacing
    assert np.array_equal(r.affine, v.affine)
    assert r.kind == v.kind
    assert r.description == v.description


def test_compression_transparency(tmp_path, rng):
    v = random_volume(rng, "i2", "scalar")
    nm.write_volume(v, tmp_path / "a.nii", compress=False)
    nm.write_volume(v, tmp_path / "b.nii.gz", compress=True)
    a = nm.read_volume(tmp_path / "a.nii")
    b = nm.read_volume(tmp_path / "b.nii.gz")
    assert np.array_equal(a.data, b.data)
    assert a.spacing == b.spacing


def test_file_size_8cube(tmp_path):
    v = make_volume(np.zeros((8, 8, 8), np.uint8))
    nm.write_volume(v, tmp_path / "v.nii", compress=False)
    assert (tmp_path / "v.nii").stat().st_size == 352 + 512


def test_full_size_grid_voxel_count(tmp_path):
    # a full-size clinical grid: 512 x 512 x 829 of uint8
    v = make_volume(np.zeros((512, 512, 829), np.uint8))
    nm.write_volume(v, tmp_path / "big.nii", compress=False)
    r = nm.read_volume(tmp_path / "big.nii")
    assert r.data.size == 512 * 512 * 829 == 217_317_376


@pytest.mark.parametrize("name", ["v.nii", "v.nii.gz"])
def test_write_streams_fortran_grid_without_copy(tmp_path, name):
    data = np.zeros((256, 256, 256), np.uint8, order="F")
    data[100:140, 90:120, 30:60] = 1
    v = make_volume(data, kind="label")
    tracemalloc.start()
    try:
        nm.write_volume(v, tmp_path / name)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < data.nbytes / 4
    assert np.array_equal(nm.read_volume(tmp_path / name).data, data)


def _blocks_grid(case):
    """A (70, 64, 33) int16 grid, 70 * 64 * 2 bytes per slice: not a whole
    number of 64 KiB blocks, so runs of zero blocks end mid-slice."""
    data = np.zeros((70, 64, 33), np.int16, order="F")
    if case == "ends-in-zeros":
        data[5, 6, 2] = 3
    elif case == "starts-with-zeros":
        data[:, :, 30:] = -2
    elif case == "zero-runs-between":
        data[:, :, 0] = data[1, 2, 16] = data[69, 63, 32] = 9
    elif case == "dense":
        data[...] = 1
    return data


@pytest.mark.parametrize("case", ["empty", "ends-in-zeros", "starts-with-zeros",
                                  "zero-runs-between", "dense"])
def test_nii_zero_blocks_written_as_holes_read_back_as_zeros(tmp_path, case):
    data = _blocks_grid(case)
    path = tmp_path / "v.nii"
    nm.write_volume(make_volume(data, kind="scalar"), path)
    blob = path.read_bytes()
    assert len(blob) == 352 + data.nbytes
    assert blob[352:] == data.tobytes(order="F")
    assert np.array_equal(nm.read_volume(path).data, data)
    nm.write_volume(make_volume(data, kind="scalar"), tmp_path / "v.nii.gz")
    assert gzip.decompress((tmp_path / "v.nii.gz").read_bytes()) == blob


def test_forged_dims_rejected_before_reading(tmp_path):
    # 32767^3 voxels promised, 12 bytes present: no 35 TB read is attempted
    path = tmp_path / "forged.nii"
    path.write_bytes(build_nifti_bytes(dims=(32767, 32767, 32767), payload=bytes(12)))
    with pytest.raises(nm.TruncatedFileError, match="12 bytes"):
        nm.read_volume(path)
    assert main(["cc", "--mask", str(path), "--out-labels", str(tmp_path / "cc.nii")]) == 2


def test_forged_dims_in_gzip_rejected_without_huge_buffer(tmp_path):
    # the uncompressed length of a .gz is unknown up front: the payload is
    # read in bounded chunks and its end reached long before 35 TB
    path = tmp_path / "forged.nii.gz"
    path.write_bytes(gzip.compress(
        build_nifti_bytes(dims=(32767, 32767, 32767), payload=bytes(12))))
    with pytest.raises(nm.TruncatedFileError, match="12 bytes"):
        nm.read_volume(path)
    assert main(["cc", "--mask", str(path), "--out-labels", str(tmp_path / "cc.nii")]) == 2


def test_bitpix_must_match_datatype(tmp_path):
    path = tmp_path / "v.nii"
    path.write_bytes(build_nifti_bytes(datatype=2, bitpix=16, payload=bytes(12)))
    with pytest.raises(nm.NiftiFormatError, match="bitpix"):
        nm.read_volume(path)


def test_truncated_payload(tmp_path):
    v = make_volume(np.ones((6, 6, 6), np.uint8))
    path = tmp_path / "v.nii"
    nm.write_volume(v, path, compress=False)
    blob = path.read_bytes()
    path.write_bytes(blob[:352 + 100])
    with pytest.raises(nm.TruncatedFileError) as exc:
        nm.read_volume(path)
    assert "100" in str(exc.value) and "216" in str(exc.value)


def test_short_payload_read_is_truncated(tmp_path):
    # a .nii that shrinks after its size was checked: readinto fills fewer bytes
    path = tmp_path / "v.nii"
    nm.write_volume(make_volume(np.arange(64, dtype=np.uint8).reshape((4, 4, 4), order="F")), path,
                    compress=False)
    with open(path, "rb", buffering=0) as raw:
        payload = nifti_io._Payload(raw, path)
        buf = np.empty(24, np.uint8)
        payload.readinto(buf)
        assert buf.tobytes() == bytes(range(24))
        os.truncate(path, 352 + 40)
        with pytest.raises(nm.TruncatedFileError, match="payload is 40 bytes, header promises 64"):
            payload.readinto(np.empty(40, np.uint8))


def test_negative_labels_never_wrap(tmp_path):
    data = np.zeros((3, 3, 3), np.int16)
    data[1, 1, 1] = -1
    # a file holding -1 is read back as a scalar grid, never as label 255
    nm.write_volume(make_volume(data, kind="scalar"), tmp_path / "s.nii")
    assert nm.read_volume(tmp_path / "s.nii").data[1, 1, 1] == -1
    with pytest.raises(nm.ValidationError, match="negative"):
        nm.read_volume(tmp_path / "s.nii", kind="label")
    # a label grid whose buffer turns negative after validation is not written
    base = np.zeros((3, 3, 3), np.int16)
    vol = make_volume(base[:], kind="label")
    base[1, 1, 1] = -1
    with pytest.raises(nm.ValidationError, match="negative"):
        nm.write_volume(vol, tmp_path / "l.nii")
    assert not (tmp_path / "l.nii").exists()


def test_zero_dim_volume_rejected():
    with pytest.raises(nm.ValidationError):
        make_volume(np.zeros((4, 0, 4), np.uint8))


def test_capacity_error(tmp_path):
    v = make_volume(np.zeros((1, 1, 4), np.uint8))
    big = nm.Volume(np.zeros((40000, 1, 1), np.uint8), v.spacing, v.affine, kind="label")
    with pytest.raises(nm.ValidationError, match="int16"):
        nm.write_volume(big, tmp_path / "v.nii")


def test_malformed_magic(tmp_path):
    path = tmp_path / "bad.nii"
    path.write_bytes(build_nifti_bytes(magic=b"XXXX", payload=bytes(12)))
    with pytest.raises(nm.NiftiFormatError, match="magic"):
        nm.read_volume(path)


def test_pair_magic_rejected(tmp_path):
    path = tmp_path / "pair.nii"
    path.write_bytes(build_nifti_bytes(magic=b"ni1\x00", payload=bytes(12)))
    with pytest.raises(nm.NiftiFormatError, match="two-file"):
        nm.read_volume(path)


def test_not_nifti(tmp_path):
    path = tmp_path / "noise.nii"
    path.write_bytes(b"\x00" * 500)
    with pytest.raises(nm.NiftiFormatError, match="348"):
        nm.read_volume(path)


def test_unsupported_datatype_named(tmp_path):
    # float64 (code 64) is outside the supported set
    path = tmp_path / "f8.nii"
    path.write_bytes(build_nifti_bytes(datatype=64, bitpix=64, payload=bytes(96)))
    with pytest.raises(nm.UnsupportedDatatypeError, match="64"):
        nm.read_volume(path)


def test_big_endian_read(tmp_path):
    data = np.arange(24, dtype=">i2").reshape((2, 3, 4), order="F")
    payload = data.tobytes(order="F")
    path = tmp_path / "be.nii"
    path.write_bytes(build_nifti_bytes(order=">", dims=(2, 3, 4), datatype=4,
                                       bitpix=16, slope=0.0, payload=payload))
    r = nm.read_volume(path)
    assert r.data.dtype == np.dtype("i2")  # native order after swap
    assert np.array_equal(r.data, np.arange(24).reshape((2, 3, 4), order="F"))
    # identical values to the little-endian twin
    path_le = tmp_path / "le.nii"
    path_le.write_bytes(build_nifti_bytes(order="<", dims=(2, 3, 4), datatype=4,
                                          bitpix=16, slope=0.0,
                                          payload=data.astype("<i2").tobytes(order="F")))
    assert np.array_equal(nm.read_volume(path_le).data, r.data)


def test_scaling_applied(tmp_path):
    payload = np.arange(8, dtype="<i2").tobytes()
    path = tmp_path / "sc.nii"
    path.write_bytes(build_nifti_bytes(dims=(2, 2, 2), datatype=4, bitpix=16,
                                       slope=2.0, inter=10.0, payload=payload))
    r = nm.read_volume(path)
    assert r.data.dtype == np.float32
    assert np.allclose(r.data.ravel(order="F"), np.arange(8) * 2.0 + 10.0)
    assert r.kind == "scalar"


def test_labels_not_scaled(tmp_path, rng):
    v = random_volume(rng, "u1", "label")
    nm.write_volume(v, tmp_path / "v.nii")
    info = nm.read_header(tmp_path / "v.nii")
    assert info.scl_slope == 0.0  # written unscaled
    r = nm.read_volume(tmp_path / "v.nii")
    assert r.kind == "label" and r.data.dtype == np.uint8


def test_qform_fallback_affine(tmp_path):
    # identity quaternion, offsets (5, 6, 7), spacing (2, 3, 4)
    path = tmp_path / "q.nii"
    path.write_bytes(build_nifti_bytes(dims=(2, 2, 2), pixdim=(2.0, 3.0, 4.0),
                                       sform=0, qform=1, qoffset=(5.0, 6.0, 7.0),
                                       payload=bytes(8)))
    r = nm.read_volume(path)
    expect = np.array([[2.0, 0, 0, 5.0], [0, 3.0, 0, 6.0], [0, 0, 4.0, 7.0]])
    assert np.allclose(r.affine, expect)


def test_no_form_affine_is_diagonal(tmp_path):
    path = tmp_path / "d.nii"
    path.write_bytes(build_nifti_bytes(dims=(2, 2, 2), pixdim=(0.5, 0.5, 2.0),
                                       sform=0, qform=0, payload=bytes(8)))
    r = nm.read_volume(path)
    assert np.allclose(r.affine, [[0.5, 0, 0, 0], [0, 0.5, 0, 0], [0, 0, 2.0, 0]])


def test_header_round_trip_fields(tmp_path, rng):
    v = random_volume(rng, "f4", "scalar")
    nm.write_volume(v, tmp_path / "v.nii")
    info = nm.read_header(tmp_path / "v.nii")
    assert info.dims == v.dims
    assert info.datatype_code == 16
    assert info.spacing == v.spacing
    assert np.array_equal(info.affine, v.affine)
    assert info.description == "synthetic"
    assert info.vox_offset == 352


def test_reference_reader_equivalence(tmp_path, rng):
    # files written by the toolkit parse identically in the independent parser
    cases = [random_volume(rng, dt, kind) for dt, kind in DTYPES]
    for idx, v in enumerate(cases):
        path = tmp_path / f"v{idx}.nii" if idx % 2 else tmp_path / f"v{idx}.nii.gz"
        nm.write_volume(v, path)
        ref = ref_read_nifti(path)
        assert ref["magic"] == b"n+1\x00"
        assert ref["shape"] == v.dims
        assert np.allclose(ref["spacing"], v.spacing)
        assert np.array_equal(ref["affine"], v.affine)
        assert np.array_equal(ref["data"], v.data)
        assert ref["descrip"] == "synthetic"


def test_read_reference_written_file(tmp_path):
    # a conformant file produced by the independent builder reads back exactly
    data = np.arange(60, dtype="<f4") / 7.0
    path = tmp_path / "ref.nii"
    srow = [1.0, 0, 0, -10.0, 0, 1.0, 0, -20.0, 0, 0, 2.5, 30.0]
    path.write_bytes(build_nifti_bytes(dims=(3, 4, 5), datatype=16, bitpix=32,
                                       pixdim=(1.0, 1.0, 2.5), slope=1.0,
                                       srow=srow, payload=data.tobytes()))
    r = nm.read_volume(path)
    assert np.array_equal(r.data.ravel(order="F"), data)
    assert r.spacing == (1.0, 1.0, 2.5)
    assert r.affine[2, 3] == 30.0


def test_gzip_output_is_gzip(tmp_path):
    v = make_volume(np.zeros((4, 4, 4), np.uint8))
    nm.write_volume(v, tmp_path / "v.nii.gz")
    blob = (tmp_path / "v.nii.gz").read_bytes()
    assert blob[:2] == b"\x1f\x8b"
    assert len(gzip.decompress(blob)) == 352 + 64
    # the FNAME field names the target, not the temp file it was written to
    assert blob[3] & 0x08 and blob[10:].startswith(b"v.nii\x00")


class _FailingFile:
    """A file whose second write fails, as on a full disk."""

    def __init__(self, f, error):
        self._f, self._error, self._writes = f, error, 0

    def write(self, data):
        self._writes += 1
        if self._writes == 2:
            raise self._error
        return self._f.write(data)

    def __getattr__(self, name):
        return getattr(self._f, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._f.close()


@pytest.mark.parametrize("error", [OSError(28, "No space left on device"), KeyboardInterrupt()],
                         ids=["disk-full", "interrupt"])
@pytest.mark.parametrize("name", ["v.nii", "v.nii.gz"])
def test_failed_write_keeps_old_file(tmp_path, monkeypatch, name, error):
    path = tmp_path / name
    nm.write_volume(make_volume(np.ones((6, 6, 6), np.uint8)), path)
    old = path.read_bytes()
    monkeypatch.setattr(nifti_io, "open", lambda *a: _FailingFile(open(*a), error),
                        raising=False)
    with pytest.raises(type(error)):
        nm.write_volume(make_volume(np.full((6, 6, 6), 2, np.uint8)), path)
    assert path.read_bytes() == old
    assert [p.name for p in tmp_path.iterdir()] == [name]


GZ_GRID = np.arange(20 ** 3, dtype=np.int16).reshape((20, 20, 20)) % 97


def _gz_volume(tmp_path):
    """A written .nii.gz of GZ_GRID and its compressed bytes."""
    path = tmp_path / "v.nii.gz"
    nm.write_volume(make_volume(GZ_GRID, kind="scalar"), path)
    return path, path.read_bytes()


def _flip(blob, index):
    return blob[:index] + bytes([blob[index] ^ 0xFF]) + blob[index + 1:]


BROKEN_GZ = {
    "flipped_body_byte": (lambda b: _flip(b, len(b) // 2), nm.NiftiFormatError),
    "bad_crc": (lambda b: _flip(b, len(b) - 8), nm.NiftiFormatError),
    "bad_isize": (lambda b: _flip(b, len(b) - 1), nm.NiftiFormatError),
    "missing_trailer": (lambda b: b[:-8], nm.TruncatedFileError),
    "truncated_midway": (lambda b: b[:len(b) // 2], nm.TruncatedFileError),
    "data_past_payload": (lambda b: b + gzip.compress(b"\x01"), nm.NiftiFormatError),
}


@pytest.mark.parametrize("case", sorted(BROKEN_GZ))
def test_broken_gzip_rejected(tmp_path, case):
    # the whole stream is inflated, so its CRC32 and length trailer are checked
    path, blob = _gz_volume(tmp_path)
    breaker, error = BROKEN_GZ[case]
    path.write_bytes(breaker(blob))
    with pytest.raises(error):
        nm.read_volume(path)


@pytest.mark.parametrize("case", sorted(BROKEN_GZ))
def test_cli_broken_gzip_exits_2(tmp_path, case):
    path, blob = _gz_volume(tmp_path)
    path.write_bytes(BROKEN_GZ[case][0](blob))
    assert main(["cc", "--mask", str(path), "--out-labels", str(tmp_path / "cc.nii")]) == 2


def test_gzip_members_concatenated(tmp_path):
    # a payload split over gzip members (with zero padding, as gzip allows)
    path, blob = _gz_volume(tmp_path)
    raw = gzip.decompress(blob)
    cuts = [0, 100, 352, 5000, len(raw)]
    path.write_bytes(b"".join(gzip.compress(raw[a:b]) for a, b in zip(cuts, cuts[1:]))
                     + bytes(16))
    assert np.array_equal(nm.read_volume(path).data, GZ_GRID)
    assert nm.read_header(path).dims == GZ_GRID.shape


def _mask_8cube(fields=(), slope=0.0) -> bytes:
    """An 8^3 uint8 mask holding one 3^3 node, with (offset, float) header
    fields overwritten."""
    data = np.zeros((8, 8, 8), np.uint8)
    data[2:5, 2:5, 2:5] = 1
    blob = bytearray(build_nifti_bytes(dims=(8, 8, 8), slope=slope,
                                       payload=data.tobytes(order="F")))
    for offset, value in fields:
        struct.pack_into("<f", blob, offset, value)
    return bytes(blob)


NAN, INF = float("nan"), float("inf")
NON_FINITE = {
    # a ValueError traceback from int(nan)
    "vox_offset-nan": _mask_8cube([(108, NAN)]),
    # an OverflowError traceback from int(inf)
    "vox_offset-inf": _mask_8cube([(108, INF)]),
    # measure exited 0 with volume_mm3=nan, sad_mm=-1.0000, sad_slice_index=-1
    "pixdim1-nan": _mask_8cube([(80, NAN)]),
    # eval f f reported "affine differs: nan vs nan", exit 1
    "srow_x-nan": _mask_8cube([(280, NAN)]),
    # with the slope applied, every voxel became NaN, hence foreground
    "scl_inter-nan": _mask_8cube([(116, NAN)], slope=2.0),
    "scl_inter-inf": _mask_8cube([(116, -INF)], slope=2.0),
    "quatern_b-inf": _mask_8cube([(256, INF)])[:252] + struct.pack("<2h", 1, 0)
    + _mask_8cube([(256, INF)])[256:],
}


@pytest.mark.parametrize("case", sorted(NON_FINITE))
def test_non_finite_header_reals_rejected(tmp_path, capsys, case):
    path = tmp_path / "m.nii"
    path.write_bytes(NON_FINITE[case])
    with pytest.raises(nm.NiftiFormatError):
        nm.read_volume(path)
    out = tmp_path / "out"
    assert main(["cc", "--mask", str(path), "--out-summary", str(out)]) == 2
    assert main(["measure", "--mask", str(path), "--out", str(out)]) == 2
    assert main(["eval", "--gt", str(path), "--pred", str(path), "--out-json", str(out)]) == 2
    assert not out.exists()
    assert str(path) in capsys.readouterr().err


def test_scl_inter_ignored_without_slope(tmp_path):
    path = tmp_path / "m.nii"
    path.write_bytes(_mask_8cube([(116, NAN)]))
    assert nm.read_volume(path).data.sum() == 27


# ------------------------------------------------------------------ fuzzing

FLOAT_FIELDS = [76, 80, 84, 88, 108, 112, 116, 256, 260, 264, 268, 272, 276] + \
    list(range(280, 328, 4))
INT16_FIELDS = list(range(40, 56, 2)) + [70, 72, 252, 254]
SPECIAL_FLOATS = [NAN, INF, -INF, 0.0, -1.0, 1e-45, 351.0, 353.0, 1e9, 3.4e38]
SPECIAL_INTS = [-32768, -1, 0, 1, 2, 3, 4, 7, 8, 16, 64, 255, 32767]


def _valid_files():
    data = (np.arange(60).reshape((3, 4, 5)) % 3).astype(np.uint8)
    return [
        build_nifti_bytes(dims=(3, 4, 5), payload=data.tobytes(order="F")),
        build_nifti_bytes(order=">", dims=(3, 4, 5), datatype=4, bitpix=16, slope=0.5,
                          inter=-1.0, payload=data.astype(">i2").tobytes(order="F")),
        build_nifti_bytes(dims=(3, 4, 5), datatype=16, bitpix=32, sform=0, qform=1,
                          quat=(0.0, 0.0, 0.7071), payload=data.astype("<f4").tobytes()),
    ]


@st.composite
def mutated_headers(draw):
    blob = bytearray(draw(st.sampled_from(_valid_files())))
    order = ">" if blob[:4] == struct.pack(">i", 348) else "<"
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["float", "float", "int16", "byte"]))
        if kind == "byte":
            blob[draw(st.integers(0, 351))] = draw(st.integers(0, 255))
        elif kind == "float":
            value = draw(st.sampled_from(SPECIAL_FLOATS) if draw(st.booleans())
                         else st.floats(width=32))
            struct.pack_into(order + "f", blob, draw(st.sampled_from(FLOAT_FIELDS)), value)
        else:
            struct.pack_into(order + "h", blob, draw(st.sampled_from(INT16_FIELDS)),
                             draw(st.sampled_from(SPECIAL_INTS) | st.integers(-32768, 32767)))
    drop = draw(st.integers(-8, len(blob)))  # bytes cut from the end; below 0, added
    return bytes(blob[:len(blob) - max(drop, 0)]) + bytes(max(-drop, 0))


def _parses_or_rejects(directory, blob: bytes, gz: bool) -> None:
    """Every reader either reads blob or raises NiftiFormatError (truncation
    included); cc exits 0 or 2."""
    path = directory / ("f.nii.gz" if gz else "f.nii")
    path.write_bytes(gzip.compress(blob, mtime=0) if gz else blob)
    try:
        nifti_io._parse_header(blob, path)
    except nm.NiftiFormatError:
        pass
    try:
        nm.read_volume(path)
    except nm.NiftiFormatError:
        pass
    with mock.patch.object(nifti_io, "_SCAN_CHUNK", 16):  # many chunks
        try:
            nm.label_components(nifti_io.open_volume(path))
        except nm.NiftiFormatError:
            pass
    out = directory / "cc.nii"
    assert main(["cc", "--mask", str(path), "--out-labels", str(out)]) in (0, 2)


@settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(blob=st.binary(max_size=1200), gz=st.booleans())
def test_fuzz_arbitrary_bytes(tmp_path, blob, gz):
    _parses_or_rejects(tmp_path, blob, gz)


@settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(blob=mutated_headers(), gz=st.booleans())
def test_fuzz_mutated_headers(tmp_path, blob, gz):
    _parses_or_rejects(tmp_path, blob, gz)
