"""Bit-exact reader/writer for NIfTI-1 single files (.nii, optionally .nii.gz).

Only the single-file flavour (magic "n+1") is handled, with voxel data at
vox_offset >= 352. Files are written little-endian; big-endian input is
detected through sizeof_hdr and byte-swapped on read. Header reals live in
float32 fields, so spacing/affine values survive a round trip exactly once
they are float32-representable.

Supported datatype codes: 2 (uint8), 4 (int16), 8 (int32), 16 (float32).

A .nii.gz is inflated by zlib in bounded chunks to the end of the stream, so
every gzip trailer is checked and a broken stream never yields voxels.
"""

from __future__ import annotations

import gzip
import os
import zlib
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    NiftiFormatError,
    TruncatedFileError,
    UnsupportedDatatypeError,
    ValidationError,
)
from .volume import Volume, identity_affine

HEADER_SIZE = 348
MIN_VOX_OFFSET = 352  # 348-byte header + 4-byte extension flag
MAGIC_SINGLE = b"n+1\x00"
MAGIC_PAIR = b"ni1\x00"
_READ_CHUNK = 1 << 20  # bytes per read of a gzip payload

# numpy dtype <-> NIfTI-1 datatype code, restricted to what the toolkit stores
DTYPE_FOR_CODE = {2: "u1", 4: "i2", 8: "i4", 16: "f4"}
CODE_FOR_DTYPE = {np.dtype(v): k for k, v in DTYPE_FOR_CODE.items()}

# the standard nifti_1_header struct; first number is the byte offset
_HEADER_FIELDS = [
    ("sizeof_hdr", "i4"),       # 0;   must be 348
    ("data_type", "S10"),       # 4;   unused
    ("db_name", "S18"),         # 14;  unused
    ("extents", "i4"),          # 32;  unused
    ("session_error", "i2"),    # 36;  unused
    ("regular", "S1"),          # 38;  unused
    ("dim_info", "u1"),         # 39;  slice ordering
    ("dim", "i2", (8,)),        # 40;  dim[0] = ndim, dim[1..] = axis lengths
    ("intent_p1", "f4"),        # 56
    ("intent_p2", "f4"),        # 60
    ("intent_p3", "f4"),        # 64
    ("intent_code", "i2"),      # 68
    ("datatype", "i2"),         # 70
    ("bitpix", "i2"),           # 72
    ("slice_start", "i2"),      # 74
    ("pixdim", "f4", (8,)),     # 76;  pixdim[0] = qfac, [1..3] = spacing
    ("vox_offset", "f4"),       # 108
    ("scl_slope", "f4"),        # 112
    ("scl_inter", "f4"),        # 116
    ("slice_end", "i2"),        # 120
    ("slice_code", "u1"),       # 122
    ("xyzt_units", "u1"),       # 123
    ("cal_max", "f4"),          # 124
    ("cal_min", "f4"),          # 128
    ("slice_duration", "f4"),   # 132
    ("toffset", "f4"),          # 136
    ("glmax", "i4"),            # 140
    ("glmin", "i4"),            # 144
    ("descrip", "S80"),         # 148
    ("aux_file", "S24"),        # 228
    ("qform_code", "i2"),       # 252
    ("sform_code", "i2"),       # 254
    ("quatern_b", "f4"),        # 256
    ("quatern_c", "f4"),        # 260
    ("quatern_d", "f4"),        # 264
    ("qoffset_x", "f4"),        # 268
    ("qoffset_y", "f4"),        # 272
    ("qoffset_z", "f4"),        # 276
    ("srow_x", "f4", (4,)),     # 280
    ("srow_y", "f4", (4,)),     # 296
    ("srow_z", "f4", (4,)),     # 312
    ("intent_name", "S16"),     # 328
    ("magic", "S4"),            # 344
]

_HDR_LE = np.dtype(_HEADER_FIELDS).newbyteorder("<")
_HDR_BE = _HDR_LE.newbyteorder(">")
assert _HDR_LE.itemsize == HEADER_SIZE


@dataclass(frozen=True)
class HeaderInfo:
    """Geometry and scaling fields parsed from a NIfTI-1 header."""

    dims: tuple[int, int, int]
    datatype_code: int
    spacing: tuple[float, float, float]
    affine: np.ndarray  # 3x4
    scl_slope: float
    scl_inter: float
    description: str
    vox_offset: int = MIN_VOX_OFFSET
    byte_order: str = "<"


def _quaternion_affine(hdr) -> np.ndarray:
    """Rotation affine from the q-form quaternion fields."""
    b, c, d = (float(hdr["quatern_b"]), float(hdr["quatern_c"]), float(hdr["quatern_d"]))
    a = max(0.0, 1.0 - b * b - c * c - d * d) ** 0.5
    rot = np.array([
        [a * a + b * b - c * c - d * d, 2 * (b * c - a * d), 2 * (b * d + a * c)],
        [2 * (b * c + a * d), a * a + c * c - b * b - d * d, 2 * (c * d - a * b)],
        [2 * (b * d - a * c), 2 * (c * d + a * b), a * a + d * d - b * b - c * c],
    ])
    qfac = -1.0 if float(hdr["pixdim"][0]) < 0 else 1.0
    zooms = np.array([hdr["pixdim"][1], hdr["pixdim"][2], qfac * hdr["pixdim"][3]])
    out = np.zeros((3, 4))
    out[:, :3] = rot * zooms
    out[:, 3] = [hdr["qoffset_x"], hdr["qoffset_y"], hdr["qoffset_z"]]
    return out


def _affine_from_header(hdr, spacing) -> np.ndarray:
    # s-form wins when present, then q-form, then diagonal spacing
    if int(hdr["sform_code"]) > 0:
        return np.stack([hdr["srow_x"], hdr["srow_y"], hdr["srow_z"]]).astype(np.float64)
    if int(hdr["qform_code"]) > 0:
        return _quaternion_affine(hdr)
    return identity_affine(spacing)


def _parse_header(raw: bytes, path) -> tuple[HeaderInfo, np.void]:
    if len(raw) < HEADER_SIZE:
        raise NiftiFormatError(f"{path}: file shorter than the 348-byte NIfTI-1 header")
    size_le = int(np.frombuffer(raw[:4], "<i4")[0])
    size_be = int(np.frombuffer(raw[:4], ">i4")[0])
    if size_le == HEADER_SIZE:
        hdr = np.frombuffer(raw[:HEADER_SIZE], _HDR_LE)[0]
        order = "<"
    elif size_be == HEADER_SIZE:
        hdr = np.frombuffer(raw[:HEADER_SIZE], _HDR_BE)[0]
        order = ">"
    else:
        raise NiftiFormatError(f"{path}: sizeof_hdr is {size_le}, not 348; not NIfTI-1")

    magic = raw[344:348]  # numpy S4 strips trailing nulls, read the raw bytes
    if magic != MAGIC_SINGLE:
        if magic == MAGIC_PAIR:
            raise NiftiFormatError(f"{path}: two-file (.hdr/.img) NIfTI is not supported")
        raise NiftiFormatError(f"{path}: bad magic {magic!r}, expected {MAGIC_SINGLE!r}")

    ndim = int(hdr["dim"][0])
    if not 1 <= ndim <= 7:
        raise NiftiFormatError(f"{path}: dim[0] = {ndim} outside [1, 7]")
    shape = [int(v) for v in hdr["dim"][1:1 + ndim]]
    if any(v < 1 for v in shape):
        raise NiftiFormatError(f"{path}: non-positive axis length in dim {shape}")
    while len(shape) > 3 and shape[-1] == 1:
        shape.pop()
    if len(shape) > 3:
        raise NiftiFormatError(f"{path}: {len(shape)}D volumes are not supported")
    dims = tuple(shape + [1] * (3 - len(shape)))

    code = int(hdr["datatype"])
    if code not in DTYPE_FOR_CODE:
        raise UnsupportedDatatypeError(f"{path}: unsupported NIfTI datatype code {code}")
    bitpix = int(hdr["bitpix"])
    if bitpix != 8 * np.dtype(DTYPE_FOR_CODE[code]).itemsize:
        raise NiftiFormatError(f"{path}: bitpix {bitpix} does not match datatype code {code}")

    spacing = tuple(float(hdr["pixdim"][i]) for i in (1, 2, 3))
    # tolerate missing spacing on collapsed axes only
    spacing = tuple(s if n > 1 or s > 0 else 1.0 for s, n in zip(spacing, dims))
    if any(s <= 0 for s in spacing):
        raise NiftiFormatError(f"{path}: non-positive pixdim {spacing}")

    vox_offset = int(float(hdr["vox_offset"]))
    if vox_offset < MIN_VOX_OFFSET:
        raise NiftiFormatError(f"{path}: vox_offset {vox_offset} < {MIN_VOX_OFFSET}")

    info = HeaderInfo(
        dims=dims,
        datatype_code=code,
        spacing=spacing,
        affine=_affine_from_header(hdr, spacing),
        scl_slope=float(hdr["scl_slope"]),
        scl_inter=float(hdr["scl_inter"]),
        description=bytes(hdr["descrip"]).rstrip(b"\x00").decode("utf-8", "replace"),
        vox_offset=vox_offset,
        byte_order=order,
    )
    return info, hdr


class _GzipReader:
    """The inflated bytes of a gzip file, read like a file.

    Compressed input is fed in _READ_CHUNK pieces and no inflate call returns
    more than one chunk, so output is sized by what is asked for, never by the
    stream. Members follow one another as in the gzip format (zero padding
    between them is skipped), and zlib checks each member's CRC32 and length
    trailer as it ends: a corrupt stream is a NiftiFormatError, one that ends
    early a TruncatedFileError.
    """

    def __init__(self, f, path):
        self._f, self._path = f, path
        self._inflater = zlib.decompressobj(31)
        self._pending = b""  # compressed input not yet inflated

    def read(self, size: int) -> bytearray:
        """Up to size inflated bytes, fewer only where the stream ends.

        The buffer grows in place as data arrives, so its peak is the bytes
        present plus one chunk, whatever size claims.
        """
        buf = bytearray()
        while len(buf) < size:
            piece = self._inflate(min(_READ_CHUNK, size - len(buf)))
            if piece is None:
                break
            buf += piece
        return buf

    def finish(self) -> None:
        """Inflate to the end of the last member, checking every trailer;
        any byte not yet read means more data than the header promises."""
        if self._inflate(1) is not None:
            raise NiftiFormatError(f"{self._path}: more voxel data than the header promises")

    def _inflate(self, limit: int) -> bytes | None:
        """Next 1..limit inflated bytes, or None at the end of the stream."""
        while True:
            if not self._pending:
                self._pending = self._f.read(_READ_CHUNK)
                if not self._pending:
                    if self._inflater.eof:
                        return None
                    raise TruncatedFileError(f"{self._path}: gzip stream ends early")
            if self._inflater.eof:
                self._pending = self._pending.lstrip(b"\x00")
                if not self._pending:
                    continue
                self._inflater = zlib.decompressobj(31)
            try:
                out = self._inflater.decompress(self._pending, limit)
            except zlib.error as exc:
                raise NiftiFormatError(f"{self._path}: corrupt gzip stream: {exc}") from None
            if self._inflater.eof:
                self._pending = self._inflater.unused_data
            else:
                self._pending = self._inflater.unconsumed_tail
            if out:
                return out


def _open_for_read(f, path):
    """f itself, or a _GzipReader over it when it starts with the gzip magic."""
    head = f.read(2)
    f.seek(0)
    return _GzipReader(f, path) if head == b"\x1f\x8b" else f


def read_header(path) -> HeaderInfo:
    """Parse the header of a (possibly gzipped) NIfTI-1 single file."""
    path = Path(path)
    with open(path, "rb") as raw:
        return _parse_header(bytes(_open_for_read(raw, path).read(HEADER_SIZE)), path)[0]


def read_volume(path, kind: str | None = None) -> Volume:
    """Read a NIfTI-1 single file into a Volume.

    Intensity scaling (scl_slope/scl_inter) is applied when slope is set,
    nonzero and not the identity; the result is then float32. Unscaled uint8
    grids are presented as kind="label", everything else as "scalar"; pass
    kind to override.
    """
    path = Path(path)
    with open(path, "rb") as raw:
        f = _open_for_read(raw, path)
        info, _ = _parse_header(bytes(f.read(HEADER_SIZE)), path)
        dtype = np.dtype(DTYPE_FOR_CODE[info.datatype_code]).newbyteorder(info.byte_order)
        expected = int(np.prod(info.dims)) * dtype.itemsize
        if f is raw:
            # checked before reading, so forged dims cannot ask for a huge buffer
            _check_payload(os.fstat(raw.fileno()).st_size - info.vox_offset, expected, path)
            raw.seek(info.vox_offset)
            payload = _read_exact(raw, expected, path)
        else:
            # a .gz payload's length is unknown before reading: it is inflated
            # in chunks, so forged dims cannot size the buffer either, and the
            # rest of the stream is inflated too, so that its trailers are checked
            f.read(info.vox_offset - HEADER_SIZE)
            payload = f.read(expected)
            f.finish()
            _check_payload(len(payload), expected, path)

    data = np.frombuffer(payload, dtype=dtype)
    if info.byte_order == ">":
        data = data.astype(dtype.newbyteorder("="))
    data = data.reshape(info.dims, order="F")

    slope, inter = info.scl_slope, info.scl_inter
    scaled = slope != 0.0 and np.isfinite(slope) and not (slope == 1.0 and inter == 0.0)
    if scaled:
        data = (data.astype(np.float32) * np.float32(slope)) + np.float32(inter)

    if kind is None:
        kind = "label" if (data.dtype == np.uint8 and not scaled) else "scalar"
    return Volume(data, info.spacing, info.affine, kind=kind, description=info.description)


def _read_exact(f, size: int, path) -> np.ndarray:
    """size bytes of f read straight into a new buffer; a file that ends
    sooner (it shrank after its size was checked) is a TruncatedFileError."""
    buf = np.empty(size, dtype=np.uint8)
    _check_payload(f.readinto(buf), size, path)
    return buf


def _check_payload(available: int, expected: int, path) -> None:
    if available < expected:
        raise TruncatedFileError(
            f"{path}: voxel payload is {max(available, 0)} bytes, header promises {expected}"
        )


def _storage_dtype(volume: Volume) -> np.dtype:
    data = volume.data
    if volume.kind == "probability":
        raise ValidationError(
            "probability volumes are stored one class per file; write each class grid"
        )
    if volume.kind == "label":
        if data.dtype.kind == "i" and data.size and int(data.min()) < 0:
            # stored as u1 or i4 it would read back as a different class id
            raise ValidationError(f"label grid holds negative value {int(data.min())}")
        hi = int(data.max()) if data.size else 0
        return np.dtype("u1") if hi <= 255 else np.dtype("i4")
    if data.dtype in CODE_FOR_DTYPE:
        return data.dtype
    if data.dtype.kind == "f":
        return np.dtype("f4")
    if data.dtype.kind in "iu":
        lo = int(data.min()) if data.size else 0
        hi = int(data.max()) if data.size else 0
        if np.iinfo("i4").min <= lo and hi <= np.iinfo("i4").max:
            return np.dtype("i4")
    raise ValidationError(f"cannot store dtype {data.dtype} in a NIfTI-1 file")


def write_volume(volume: Volume, path, compress: bool | None = None) -> None:
    """Write a Volume as a standard-conformant NIfTI-1 single file.

    compress=None picks gzip when the path ends in .gz. Labels are stored as
    uint8 while the class ids fit one byte. read_volume(write_volume(v))
    reproduces voxel data bitwise for all supported datatypes. The file is
    written beside path and renamed over it, so path holds either its old
    file or the whole new one, never a partial write.
    """
    path = Path(path)
    dims = volume.dims
    if any(n > 32767 for n in dims):
        raise ValidationError(f"dims {dims} exceed the int16 dim fields of NIfTI-1")

    dtype = _storage_dtype(volume)
    data = np.asarray(volume.data)
    if data.dtype != dtype:
        data = data.astype(dtype)

    hdr = np.zeros((), dtype=_HDR_LE)
    hdr["sizeof_hdr"] = HEADER_SIZE
    hdr["regular"] = b"r"
    hdr["dim"] = [3, dims[0], dims[1], dims[2], 1, 1, 1, 1]
    hdr["datatype"] = CODE_FOR_DTYPE[dtype]
    hdr["bitpix"] = 8 * dtype.itemsize
    hdr["pixdim"] = [1.0, volume.spacing[0], volume.spacing[1], volume.spacing[2], 0, 0, 0, 0]
    hdr["vox_offset"] = MIN_VOX_OFFSET
    if volume.kind == "label":
        hdr["scl_slope"] = 0.0  # labels are never intensity-scaled
    else:
        hdr["scl_slope"] = 1.0
    hdr["scl_inter"] = 0.0
    hdr["xyzt_units"] = 2  # NIFTI_UNITS_MM
    hdr["descrip"] = volume.description.encode("utf-8", "replace")[:80]
    hdr["sform_code"] = 1
    hdr["qform_code"] = 0
    hdr["srow_x"] = volume.affine[0]
    hdr["srow_y"] = volume.affine[1]
    hdr["srow_z"] = volume.affine[2]
    hdr["magic"] = MAGIC_SINGLE

    if compress is None:
        compress = path.suffix == ".gz"
    # the voxels in Fortran order, without a copy when data already is
    payload = np.asfortranarray(data).T
    tmp = path.with_name(f".{path.name}.{os.urandom(6).hex()}.tmp")
    try:
        with open(tmp, "xb") as raw:
            # the gzip header names the target, not the temp file; a fixed
            # mtime keeps output byte-identical across runs
            with (gzip.GzipFile(filename=str(path), fileobj=raw, mode="wb", compresslevel=1,
                                mtime=0) if compress else nullcontext(raw)) as f:
                f.write(hdr.tobytes())
                f.write(b"\x00\x00\x00\x00")
                f.write(payload)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
