"""Core volumetric data model: grids, spacing, world coordinates, axial convention.

A Volume couples a 3D voxel grid with its physical geometry (mm spacing and a
3x4 voxel-to-world affine). Label grids hold class ids, scalar grids hold
intensities, probability grids hold one value per class in a trailing axis.
Volumes are immutable once constructed and safe to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import GridMismatchError, ValidationError

PROB_SUM_TOL = 1e-5
GRID_RTOL = 1e-4
GRID_ATOL = 1e-6

KINDS = ("scalar", "label", "probability")


@dataclass(frozen=True, eq=False)
class Volume:
    """Immutable 3D grid with voxel spacing (mm) and voxel-to-world affine.

    data    -- (nx, ny, nz) array, or (nx, ny, nz, n_classes) for kind="probability"
    spacing -- mm per voxel step along each grid axis
    affine  -- 3x4 matrix mapping (i, j, k, 1) to world mm
    kind    -- "scalar", "label" or "probability"
    class_count -- number of classes for label/probability grids (optional for labels)
    """

    data: np.ndarray
    spacing: tuple[float, float, float]
    affine: np.ndarray
    kind: str = "scalar"
    class_count: int | None = None
    description: str = ""

    def __post_init__(self):
        data = np.asarray(self.data)
        affine = np.asarray(self.affine, dtype=np.float64)
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "affine", affine)
        object.__setattr__(self, "spacing", tuple(float(s) for s in self.spacing))

        if self.kind not in KINDS:
            raise ValidationError(f"unknown volume kind {self.kind!r}")
        want_ndim = 4 if self.kind == "probability" else 3
        if data.ndim != want_ndim:
            raise ValidationError(
                f"{self.kind} volume needs {want_ndim}D data, got {data.ndim}D"
            )
        if any(n < 1 for n in data.shape[:3]):
            raise ValidationError(f"all dims must be >= 1, got {data.shape[:3]}")
        # negated so that NaN, which fails every comparison, is rejected too
        if len(self.spacing) != 3 or not all(0 < s < math.inf for s in self.spacing):
            raise ValidationError(f"spacing must be 3 positive finite reals, got {self.spacing}")
        if affine.shape != (3, 4):
            raise ValidationError(f"affine must be 3x4, got {affine.shape}")

        if self.kind == "label":
            if data.dtype.kind not in "uib":
                raise ValidationError(f"label grid needs integer dtype, got {data.dtype}")
            if data.dtype.kind == "i" and data.size and int(data.min()) < 0:
                raise ValidationError(f"label grid holds negative value {int(data.min())}")
            if self.class_count is not None and data.size:
                hi = int(data.max())
                if hi >= self.class_count:
                    raise ValidationError(
                        f"label value {hi} outside declared class count {self.class_count}"
                    )
        elif self.kind == "probability":
            if data.dtype.kind != "f":
                raise ValidationError("probability grid needs float dtype")
            n_classes = data.shape[3]
            if self.class_count is None:
                object.__setattr__(self, "class_count", n_classes)
            elif self.class_count != n_classes:
                raise ValidationError(
                    f"class_count {self.class_count} != trailing axis {n_classes}"
                )
            lo, hi = float(data.min()), float(data.max())
            # negated so that NaN, which fails every comparison, is rejected too
            if not (lo >= 0.0 and hi <= 1.0):
                raise ValidationError(f"probabilities outside [0,1]: min {lo}, max {hi}")
            sums = data.sum(axis=3, dtype=np.float64)
            err = float(np.abs(sums - 1.0).max())
            if err > PROB_SUM_TOL:
                raise ValidationError(f"per-voxel class sums off by {err:.2e} (> {PROB_SUM_TOL})")

        data.setflags(write=False)
        affine.setflags(write=False)

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.data.shape[:3]

    @property
    def voxel_volume_mm3(self) -> float:
        sx, sy, sz = self.spacing
        return sx * sy * sz

    def with_data(self, data: np.ndarray, kind: str | None = None,
                  class_count: int | None = None) -> "Volume":
        """New volume on this grid with different voxel data."""
        return replace(self, data=data, kind=kind or self.kind,
                       class_count=class_count if class_count is not None else self.class_count)


def identity_affine(spacing: tuple[float, float, float]) -> np.ndarray:
    """Diagonal voxel-to-world affine with origin at (0,0,0)."""
    out = np.zeros((3, 4))
    out[0, 0], out[1, 1], out[2, 2] = spacing
    return out


def world_coords(volume: Volume, index) -> np.ndarray:
    """World-mm coordinates of a voxel index: affine . (i, j, k, 1)."""
    i, j, k = (int(v) for v in index)
    nx, ny, nz = volume.dims
    if not (0 <= i < nx and 0 <= j < ny and 0 <= k < nz):
        raise IndexError(f"index ({i}, {j}, {k}) outside dims {volume.dims}")
    return volume.affine @ np.array([i, j, k, 1.0])


def assert_same_grid(a: Volume, b: Volume) -> None:
    """Raise GridMismatchError unless a and b share dims, spacing and affine.

    Spacing and affine agree within 1e-4 relative tolerance (absorbs float32
    header round-off); dims must match exactly.
    """
    for axis in range(3):
        if a.dims[axis] != b.dims[axis]:
            raise GridMismatchError(
                f"dims differ on axis {axis}: {a.dims[axis]} vs {b.dims[axis]}"
            )
    sa, sb = np.asarray(a.spacing), np.asarray(b.spacing)
    bad = ~np.isclose(sa, sb, rtol=GRID_RTOL, atol=GRID_ATOL)
    if bad.any():
        axis = int(np.argmax(bad))
        raise GridMismatchError(
            f"spacing differs on axis {axis}: {sa[axis]} vs {sb[axis]}"
        )
    bad = ~np.isclose(a.affine, b.affine, rtol=GRID_RTOL, atol=GRID_ATOL)
    if bad.any():
        r, c = np.argwhere(bad)[0]
        raise GridMismatchError(
            f"affine differs at [{r},{c}]: {a.affine[r, c]} vs {b.affine[r, c]}"
        )


def canonical_axes(affine) -> tuple[tuple[int, int, int], tuple[bool, bool, bool]]:
    """(perm, flips) of the canonical grid: its axis a is grid axis perm[a],
    reversed where flips[a], so that it runs along +world axis a."""
    direc = np.asarray(affine)[:, :3]
    dom = np.argmax(np.abs(direc), axis=0)  # dom[j] = world axis voxel axis j mostly moves
    if sorted(dom.tolist()) != [0, 1, 2]:
        raise ValidationError("affine has no dominant axis permutation; cannot canonicalize")
    perm = tuple(int(np.flatnonzero(dom == w)[0]) for w in range(3))
    return perm, tuple(bool(direc[a, perm[a]] < 0) for a in range(3))


def reoriented(dims, spacing, affine: np.ndarray, perm, flips):
    """dims, spacing and affine of a grid with its axes permuted and flipped
    as canonical_axes gives them. Pure permutation and sign flips: a flipped
    axis gets its origin at the old far end."""
    affine = affine.copy()
    affine[:, :3] = affine[:, list(perm)]
    dims = tuple(dims[p] for p in perm)
    for i in range(3):
        if flips[i]:
            affine[:, 3] += affine[:, i] * (dims[i] - 1)
            affine[:, i] = -affine[:, i]
    return dims, tuple(spacing[p] for p in perm), affine


def is_canonical(volume) -> bool:
    """True if each voxel axis already runs along its own positive world axis."""
    perm, _ = canonical_axes(volume.affine)
    return perm == (0, 1, 2) and all(volume.affine[i, i] > 0 for i in range(3))


def canonicalize(volume):
    """Reorder/flip grid axes so voxel axes follow +x, +y, +z world axes.

    Pure permutation and sign flips, no interpolation. The third grid axis of
    the result runs along world z, so slice k of the result is axial slice k.
    A grid whose voxels are still on disk (nifti_io.VolumeFile) is reoriented
    without reading them: it records the permutation and flips, which
    labeling applies to the foreground keys.
    """
    if is_canonical(volume):
        return volume
    perm, flips = canonical_axes(volume.affine)
    if not isinstance(volume, Volume):
        return volume.reoriented(perm, flips)
    _, spacing, affine = reoriented(volume.dims, volume.spacing, volume.affine, perm, flips)
    data = np.transpose(volume.data, list(perm) + [3] if volume.data.ndim == 4 else list(perm))
    flip_axes = [i for i in range(3) if flips[i]]
    if flip_axes:
        data = np.flip(data, axis=flip_axes)
    return Volume(np.ascontiguousarray(data), spacing, affine, kind=volume.kind,
                  class_count=volume.class_count, description=volume.description)
