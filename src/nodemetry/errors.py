"""Exception hierarchy shared across the toolkit, and its one text-file reader.

ValidationError and its subclasses map to CLI exit code 1,
NiftiFormatError and plain I/O errors map to exit code 2.
"""

from pathlib import Path


class NodemetryError(Exception):
    """Base class for all toolkit errors."""


class ValidationError(NodemetryError):
    """Input violates a documented precondition or invariant."""


class GridMismatchError(ValidationError):
    """Two volumes do not live on the same voxel grid."""


class EmptyInputError(ValidationError):
    """An operation that needs at least one voxel/point got none."""


class UnknownStructureError(ValidationError):
    """A structure name has no entry in the fusion spec."""


class NiftiFormatError(NodemetryError):
    """File is not a readable NIfTI-1 single file."""


class UnsupportedDatatypeError(NiftiFormatError):
    """NIfTI datatype code outside the supported set."""


class TruncatedFileError(NiftiFormatError):
    """Voxel payload shorter than the header promises."""


def read_utf8(path) -> str:
    """The text of a spec or manifest file, less a leading byte-order mark;
    one that is not UTF-8 is a ValidationError naming the file's byte offset."""
    try:
        return Path(path).read_text(encoding="utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not UTF-8 text ({exc.reason} at byte "
                              f"{exc.start})") from None
