"""Bit-exact reader/writer for NIfTI-1 single files (.nii, optionally .nii.gz).

Only the single-file flavour (magic "n+1") is handled, with voxel data at
vox_offset >= 352. Files are written little-endian; big-endian input is
detected through sizeof_hdr and byte-swapped on read. Header reals live in
float32 fields, so spacing/affine values survive a round trip exactly once
they are float32-representable.

Supported datatype codes: 2 (uint8), 4 (int16), 8 (int32), 16 (float32).

A .nii.gz is inflated by zlib in bounded pieces to the end of the stream, so
every gzip trailer is checked and a broken stream never yields voxels.

read_volume reads a whole grid. open_volume reads only the header and gives
a VolumeFile, whose voxels a pass reads in fixed-size chunks of whole
z-slices into one reused buffer, so labeling a mask never holds its grid.
A chunk of an unscaled .nii that lies wholly in a hole of the file (a run
of zero blocks a .nii write left unwritten) is passed over unread: the
file system is asked where the next data byte is, and one without holes
reports every byte as data. Holes are this module's business alone: a pass
gets only the chunks that were read, and every voxel outside them is zero.
Every read parses its header in Payload and decodes voxels in its one
decoder, decode_into: open_volume, read_volume, VolumeFile.chunks() and a
command that streams many files at once (one Payload per file, read front
to back once).
Every file is written through volume_streams, a piece at a time (deflated,
or with holes for a .nii); write_volume feeds it chunks of whole z-slices of
a grid, write_labels such chunks built from the keys of a label grid.
"""

from __future__ import annotations

import errno
import math
import os
import zlib
from contextlib import ExitStack, closing, contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

from .errors import (
    NiftiFormatError,
    TruncatedFileError,
    UnsupportedDatatypeError,
    ValidationError,
)
from .volume import Volume, identity_affine, reoriented

HEADER_SIZE = 348
MIN_VOX_OFFSET = 352  # 348-byte header + 4-byte extension flag
MAGIC_SINGLE = b"n+1\x00"
MAGIC_PAIR = b"ni1\x00"
MAX_DIM = 32767  # the largest grid axis that NIfTI-1's int16 dim fields hold
_GZIP_PIECE = 1 << 15  # compressed bytes per read, and inflated bytes per call, of a gzip file
_SCAN_CHUNK = 1 << 21  # payload bytes per chunk of whole z-slices in a pass
_MAX_INFLATE_RATIO = 1032  # deflate's largest ratio of output to input bytes
_HOLE = 1 << 16  # bytes per all-zero block that a .nii write leaves as a hole

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

    @property
    def scaled(self) -> bool:
        """Whether scl_slope/scl_inter apply: slope set, nonzero and not the identity."""
        slope, inter = self.scl_slope, self.scl_inter
        return slope != 0.0 and math.isfinite(slope) and not (slope == 1.0 and inter == 0.0)

    @property
    def kind(self) -> str:
        """Unscaled uint8 grids are labels, everything else scalar."""
        return "label" if self.datatype_code == 2 and not self.scaled else "scalar"


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
        # non-finite quaternion fields give non-finite entries, rejected by the caller
        with np.errstate(invalid="ignore", over="ignore"):
            return _quaternion_affine(hdr)
    return identity_affine(spacing)


def _parse_header(raw: bytes, path) -> HeaderInfo:
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
    # negated so that NaN, which fails every comparison, is rejected too
    if not all(0 < s < math.inf for s in spacing):
        raise NiftiFormatError(f"{path}: pixdim {spacing} is not positive and finite")

    vox_offset = float(hdr["vox_offset"])
    if not MIN_VOX_OFFSET <= vox_offset < math.inf:
        raise NiftiFormatError(f"{path}: vox_offset {vox_offset} is not finite and "
                               f">= {MIN_VOX_OFFSET}")

    affine = _affine_from_header(hdr, spacing)
    if not np.isfinite(affine).all():
        raise NiftiFormatError(f"{path}: non-finite affine {affine.tolist()}")

    info = HeaderInfo(
        dims=dims,
        datatype_code=code,
        spacing=spacing,
        affine=affine,
        scl_slope=float(hdr["scl_slope"]),
        scl_inter=float(hdr["scl_inter"]),
        description=bytes(hdr["descrip"]).rstrip(b"\x00").decode("utf-8", "replace"),
        vox_offset=int(vox_offset),
        byte_order=order,
    )
    if info.scaled and not math.isfinite(info.scl_inter):
        # it would turn every voxel into the same non-finite value
        raise NiftiFormatError(f"{path}: scl_inter {info.scl_inter} with scl_slope "
                               f"{info.scl_slope}")
    return info


class _GzipReader:
    """The inflated bytes of a gzip file, read like a file.

    Compressed input is read in _GZIP_PIECE pieces and no inflate call
    returns more than one piece, so what a reader holds is bounded by the
    piece (many readers can be open at once), and output is sized by what is
    asked for, never by the stream. Members follow one another as in the gzip
    format (zero padding between them is skipped), and zlib checks each
    member's CRC32 and length trailer as it ends: a corrupt stream is a
    NiftiFormatError, one that ends early a TruncatedFileError.
    """

    def __init__(self, f, path):
        self._f, self._path = f, path
        self._inflater = zlib.decompressobj(31)
        self._pending = b""  # compressed input not yet inflated

    def readinto(self, buf) -> int:
        """Fill buf with inflated bytes; the count, short only where the stream ends."""
        view = memoryview(buf).cast("B")
        done = 0
        for piece in self._pieces(len(view)):
            view[done:done + len(piece)] = piece
            done += len(piece)
        return done

    def skip(self, size: int) -> int:
        """Inflate and drop up to size bytes; the count, short only where the
        stream ends. Memory stays at one piece, whatever size claims."""
        return sum(len(piece) for piece in self._pieces(size))

    def _pieces(self, size: int):
        done = 0
        while done < size and (piece := self._inflate(min(_GZIP_PIECE, size - done))):
            done += len(piece)
            yield piece

    def finish(self) -> None:
        """Inflate to the end of the last member, checking every trailer;
        any byte not yet read means more data than the header promises."""
        if self._inflate(1) is not None:
            raise NiftiFormatError(f"{self._path}: more voxel data than the header promises")

    def _inflate(self, limit: int) -> bytes | None:
        """Next 1..limit inflated bytes, or None at the end of the stream."""
        while True:
            if not self._pending:
                self._pending = self._f.read(_GZIP_PIECE)
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


class Payload:
    """The voxel payload of an open NIfTI-1 file, read front to back into
    the caller's buffers: a whole grid and a reused chunk buffer are filled
    by the same code, with the same checks.

    Opening parses the header and moves to the payload. A payload that the
    file cannot hold is a TruncatedFileError before any buffer is sized, so
    forged dims never ask for a huge one. A .nii's file size bounds its
    payload. A .gz payload's length is unknown before reading; deflate's
    largest ratio times the compressed size bounds it, and past that bound
    the stream is inflated through, in chunks, to count what it holds.
    readinto fills a whole buffer or raises TruncatedFileError, and decode_into
    fills a Fortran-contiguous grid with decoded voxels. finish, after the
    last read (decode_into calls it), inflates a .nii.gz to the end of its
    stream, so that every trailer is checked.
    """

    def __init__(self, raw, path):
        self._raw, self._path = raw, path
        self._f = _GzipReader(raw, path) if raw.read(2) == b"\x1f\x8b" else raw
        raw.seek(0)
        header = bytearray(HEADER_SIZE)
        self.header = bytes(header[:self._f.readinto(header)])
        self.info = _parse_header(self.header, path)
        self.dtype = np.dtype(DTYPE_FOR_CODE[self.info.datatype_code]).newbyteorder(
            self.info.byte_order)
        # what decoded voxels are: float32 when scaled, else stored, in native order
        self.decoded = np.dtype(np.float32) if self.info.scaled else self.dtype.newbyteorder("=")
        self.nbytes = math.prod(self.info.dims) * self.dtype.itemsize
        self._done = 0
        size = os.fstat(raw.fileno()).st_size
        if self._f is raw:
            self._check(size - self.info.vox_offset)
            raw.seek(self.info.vox_offset)
        else:
            self._f.skip(self.info.vox_offset - HEADER_SIZE)
            if self.nbytes > _MAX_INFLATE_RATIO * size:
                self._check(self._f.skip(self.nbytes))

    def readinto(self, buf: np.ndarray) -> None:
        got = self._f.readinto(buf)
        self._done += got
        if got < len(buf):  # the file ended early, or shrank after its size was checked
            raise self._truncated(self._done)

    def skip_hole(self, size: int) -> bool:
        """Pass over the next size payload bytes, unread, when they lie
        wholly in a hole of the file, where they read as zeros; whether they
        did. Only an unscaled .nii skips: a .nii.gz has no holes, and a scaled
        zero is scl_inter. A file that shrank since it was opened is a
        TruncatedFileError, not a hole."""
        if self._f is not self._raw or self.info.scaled:
            return False
        fd, pos = self._raw.fileno(), self.info.vox_offset + self._done
        # a buffered reader reads on from where it left the descriptor
        here = os.lseek(fd, 0, os.SEEK_CUR)
        try:
            data = os.lseek(fd, pos, os.SEEK_DATA)
        except OSError as exc:
            if exc.errno != errno.ENXIO:
                raise
            # no data from pos to the end of the file, wherever that now is
            self._check(os.fstat(fd).st_size - self.info.vox_offset)
            data = math.inf
        finally:
            os.lseek(fd, here, os.SEEK_SET)
        if data < pos + size:
            return False
        self._done += size
        self._raw.seek(pos + size)
        return True

    def decode_into(self, out: np.ndarray) -> None:
        """Fill out, a Fortran-contiguous grid of whole z-slices, with the
        next out.size voxels, scaled as the header says in float32
        arithmetic and cast to out's dtype. When out has the decoded dtype of
        an unscaled file, the bytes go straight into it (swapped there when
        the file is big-endian); otherwise through one staging piece of at
        most _SCAN_CHUNK stored bytes. After the last voxel it finishes."""
        if not out.flags.f_contiguous:  # its Fortran-order reshape would be a copy
            raise ValueError(f"decode_into needs a Fortran-contiguous grid, got {out.shape}")
        flat = out.reshape(-1, order="F")
        if out.dtype == self.decoded and not self.info.scaled:
            self.readinto(flat.view(np.uint8))
            if not self.dtype.isnative:
                flat.byteswap(inplace=True)
        else:
            step = max(1, _SCAN_CHUNK // self.dtype.itemsize)
            piece = np.empty(min(step, flat.size), self.dtype)
            for start in range(0, flat.size, step):
                part = piece[:flat.size - start]
                self.readinto(part.view(np.uint8))
                if self.info.scaled:
                    # values past the float32 range become inf, as the header asks
                    with np.errstate(over="ignore"):
                        part = (part.astype(np.float32) * np.float32(self.info.scl_slope)
                                + np.float32(self.info.scl_inter))
                flat[start:start + len(part)] = part
        if self._done == self.nbytes:
            self.finish()

    def finish(self) -> None:
        if self._f is not self._raw:
            self._f.finish()

    def _check(self, available: int) -> None:
        if available < self.nbytes:
            raise self._truncated(available)

    def _truncated(self, available: int) -> TruncatedFileError:
        return TruncatedFileError(f"{self._path}: voxel payload is {max(available, 0)} bytes, "
                                  f"header promises {self.nbytes}")


def read_volume(path, kind: str | None = None) -> Volume:
    """Read a NIfTI-1 single file into a Volume.

    Intensity scaling (scl_slope/scl_inter) is applied when slope is set,
    nonzero and not the identity; the result is then float32. Unscaled uint8
    grids are presented as kind="label", everything else as "scalar"; pass
    kind to override. A grid that is no volume of that kind (a negative
    or float label, say) is a ValidationError led by the file's name.
    """
    path = Path(path)
    with open(path, "rb") as raw:
        payload = Payload(raw, path)
        data = np.empty(payload.info.dims, payload.decoded, order="F")
        payload.decode_into(data)
    info = payload.info
    try:
        return Volume(data, info.spacing, info.affine,
                      kind=kind or info.kind, description=info.description)
    except ValidationError as exc:
        raise type(exc)(f"{path}: {exc}") from exc


@dataclass(frozen=True, eq=False)
class VolumeFile:
    """A NIfTI-1 file as a volume whose voxels stay on disk.

    dims, spacing, affine and description are those read_volume would
    give, from the header that open_volume reads. chunks() reads the voxels,
    in file order, in chunks of whole z-slices of the file's grid, and
    passes over the chunks that lie in holes of the file unread; a pass
    over them (components.label_components) holds one chunk at a time.
    canonicalize gives a VolumeFile that keeps the file's voxel order and
    records, in perm and flips, how the axes of the canonical grid map to
    the file's, which labeling applies to the foreground keys. foreground,
    when set, makes the components.Foreground that picks a pass's foreground
    voxels (default: every nonzero voxel).
    """

    path: Path
    header: bytes
    info: HeaderInfo
    perm: tuple[int, int, int] = (0, 1, 2)
    flips: tuple[bool, bool, bool] = (False, False, False)
    foreground: Callable | None = None
    dims: tuple[int, int, int] = field(init=False)
    spacing: tuple[float, float, float] = field(init=False)
    affine: np.ndarray = field(init=False)

    def __post_init__(self):
        info = self.info
        geometry = reoriented(info.dims, info.spacing, info.affine, self.perm, self.flips)
        for name, value in zip(("dims", "spacing", "affine"), geometry):
            object.__setattr__(self, name, value)
        self.affine.setflags(write=False)

    @property
    def description(self) -> str:
        return self.info.description

    def reoriented(self, perm, flips) -> "VolumeFile":
        """This file with the axes of its grid permuted and flipped further:
        axis a becomes axis perm[a], reversed where flips[a]."""
        return replace(self, perm=tuple(self.perm[p] for p in perm),
                       flips=tuple(f != self.flips[p] for p, f in zip(perm, flips)))

    def chunks(self) -> Iterator[tuple[int, np.ndarray]]:
        """The voxels, decoded as read_volume decodes them, in Fortran-ordered
        chunks of whole z-slices of the file's grid, front to back, each as
        (start, chunk): the memory-order offset of its first voxel, and the
        chunk. Every chunk is a view of one buffer that the next chunk
        overwrites. A chunk that lies wholly in a hole of the file is passed
        over unread: every voxel outside the chunks given is zero. The file
        must still have the header it was opened with."""
        with open(self.path, "rb") as raw:
            payload = Payload(raw, self.path)
            if payload.header != self.header:
                raise NiftiFormatError(f"{self.path}: header changed since the file was opened")
            nx, ny, nz = self.info.dims
            step = max(1, _SCAN_CHUNK // (nx * ny * payload.dtype.itemsize))
            buf = np.empty((nx, ny, min(step, nz)), payload.decoded, order="F")
            for z in range(0, nz, step):
                chunk = buf[:, :, :nz - z]
                if not payload.skip_hole(chunk.size * payload.dtype.itemsize):
                    payload.decode_into(chunk)
                    yield z * nx * ny, chunk


def open_volume(path) -> VolumeFile:
    """The header of a (possibly gzipped) NIfTI-1 single file, as a
    VolumeFile whose voxels are read by the passes that need them."""
    path = Path(path)
    with open(path, "rb") as raw:
        payload = Payload(raw, path)
    return VolumeFile(path, payload.header, payload.info)


def _storage_dtype(data: np.ndarray, kind: str) -> np.dtype:
    if kind == "probability":
        raise ValidationError(
            "probability volumes are stored one class per file; write each class grid"
        )
    if kind == "label":
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


class _SparseStream:
    """A .nii payload written a piece at a time, seeking over each piece's
    all-zero _HOLE-byte blocks, so that the empty part of a mask takes neither
    disk nor page cache; close ends the file (holes read back as zeros)."""

    def __init__(self, raw):
        self._raw = raw

    def write(self, piece) -> None:
        data = np.frombuffer(piece, np.uint8)
        start, full = self._raw.tell(), len(data) // _HOLE
        blocks = data[:full * _HOLE].view(np.uint64)  # 8 bytes a step: a third faster
        used = np.append(blocks.reshape(full, _HOLE // 8).any(axis=1), data[full * _HOLE:].any())
        if used.any():  # most pieces of a node mask hold no voxel
            edges = np.flatnonzero(np.diff(used, prepend=False, append=False)).tolist()
            for a, b in zip(edges[::2], edges[1::2]):
                self._raw.seek(start + a * _HOLE)
                self._raw.write(data[a * _HOLE:b * _HOLE])
        self._raw.seek(start + len(data))

    def close(self) -> None:
        self._raw.truncate()


def _header_bytes(dims, spacing, affine, dtype: np.dtype, kind: str,
                  description: str) -> bytes:
    """The header and the empty extension flag that precede a payload of
    dtype on the grid given by dims, spacing and affine."""
    if any(n > MAX_DIM for n in dims):
        raise ValidationError(f"dims {dims} exceed the int16 dim fields of NIfTI-1")
    hdr = np.zeros((), dtype=_HDR_LE)
    hdr["sizeof_hdr"] = HEADER_SIZE
    hdr["regular"] = b"r"
    hdr["dim"] = [3, dims[0], dims[1], dims[2], 1, 1, 1, 1]
    hdr["datatype"] = CODE_FOR_DTYPE[dtype]
    hdr["bitpix"] = 8 * dtype.itemsize
    hdr["pixdim"] = [1.0, spacing[0], spacing[1], spacing[2], 0, 0, 0, 0]
    hdr["vox_offset"] = MIN_VOX_OFFSET
    if kind == "label":
        hdr["scl_slope"] = 0.0  # labels are never intensity-scaled
    else:
        hdr["scl_slope"] = 1.0
    hdr["scl_inter"] = 0.0
    hdr["xyzt_units"] = 2  # NIFTI_UNITS_MM
    hdr["descrip"] = description.encode("utf-8", "replace")[:80]
    hdr["sform_code"] = 1
    hdr["qform_code"] = 0
    hdr["srow_x"] = affine[0]
    hdr["srow_y"] = affine[1]
    hdr["srow_z"] = affine[2]
    hdr["magic"] = MAGIC_SINGLE
    return hdr.tobytes() + b"\x00\x00\x00\x00"


@contextmanager
def _replacing(path: Path):
    """A new file beside path, open for writing; renamed over path when the
    block ends without error, removed when it raises."""
    tmp = path.with_name(f".{path.name}.{os.urandom(6).hex()}.tmp")
    try:
        raw = open(tmp, "xb")
    except OSError as exc:
        raise _for_target(exc, path) from None
    try:
        with raw:
            yield raw
        try:
            os.replace(tmp, path)
        except OSError as exc:
            raise _for_target(exc, path) from None
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _for_target(exc: OSError, path: Path) -> OSError:
    """exc as raised for path: the temporary's name is no file the caller knows."""
    return type(exc)(exc.errno, exc.strerror, str(path))


def write_volume(volume: Volume, path) -> None:
    """Write a Volume as a standard-conformant NIfTI-1 single file through
    volume_streams, one chunk of whole z-slices at a time, each cast to the
    storage dtype on its own. Labels are stored as uint8 while the class ids
    fit one byte. read_volume(write_volume(v)) reproduces voxel data bitwise
    for all supported datatypes."""
    dtype = _storage_dtype(volume.data, volume.kind)
    nx, ny, nz = volume.dims
    step = max(1, _SCAN_CHUNK // (nx * ny * dtype.itemsize))
    with volume_streams([path], volume, dtype, volume.kind, volume.description) as [stream]:
        for z in range(0, nz, step):
            # a Fortran-ordered chunk's transpose is the C-ordered buffer of its bytes
            stream.write(np.asfortranarray(volume.data[:, :, z:z + step], dtype=dtype).T)


def write_labels(keys: np.ndarray, labels: np.ndarray, grid, path) -> None:
    """Write, as write_volume would, the label grid on grid (dims, spacing, affine,
    description) whose nonzero voxels have the C-order linear keys and the
    labels given, building each chunk of whole z-slices from the voxels in it."""
    dtype = _storage_dtype(labels, "label")
    nx, ny, nz = grid.dims
    offsets = np.ravel_multi_index(np.unravel_index(keys, grid.dims), grid.dims, order="F")
    order = np.argsort(offsets)
    offsets, labels = offsets[order], labels[order]
    chunk = np.zeros(min(nz, max(1, _SCAN_CHUNK // (nx * ny * dtype.itemsize))) * nx * ny, dtype)
    with volume_streams([path], grid, dtype, "label", grid.description) as [stream]:
        for start in range(0, nx * ny * nz, len(chunk)):
            a, b = np.searchsorted(offsets, (start, start + len(chunk)))
            chunk[offsets[a:b] - start] = labels[a:b]
            stream.write(chunk[:nx * ny * nz - start])
            chunk[offsets[a:b] - start] = 0  # the next chunk starts from zeros


@contextmanager
def volume_streams(paths, grid, dtype: np.dtype, kind: str,
                   description: str) -> Iterator[list]:
    """One stream per path for a volume of dtype on grid (anything with dims,
    spacing and affine), its header written: deflated for a .gz path, else
    with zero blocks left as holes. The caller writes each payload in Fortran
    order, in C-contiguous pieces of any size; the bytes do not depend on the
    cuts. Every path is replaced, once every stream is closed, only when the
    block ends without error; otherwise every path keeps its old file."""
    header = _header_bytes(grid.dims, grid.spacing, grid.affine, dtype, kind, description)
    paths = [Path(p) for p in paths]
    if any(p.suffix == ".gz" for p in paths):
        import gzip  # only here: a run that writes no .gz never loads it
    with ExitStack() as files:
        raws = [files.enter_context(_replacing(p)) for p in paths]
        # the gzip header names the target, not the temp file; a fixed mtime
        # keeps output byte-identical across runs
        streams = [files.enter_context(closing(
            gzip.GzipFile(filename=str(p), fileobj=raw, mode="wb", compresslevel=1, mtime=0)
            if p.suffix == ".gz" else _SparseStream(raw))) for raw, p in zip(raws, paths)]
        for stream in streams:
            stream.write(header)
        yield streams
