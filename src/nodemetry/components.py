"""3D connected components of binary masks, the unit of per-node analysis.

Every labeling makes one pass over the mask, in chunks of whole slabs along
its slowest memory axis (axial slices for the Fortran-ordered grids read
from disk): an in-memory grid is one chunk, a file (nifti_io.VolumeFile) is
read chunk by chunk into one reused buffer, so labeling a file never holds
its grid. Per chunk, an occupancy scan finds the slabs holding any
foreground, and indexing runs only inside the runs of occupied slabs. The
foreground keys are then put in the labeled grid's scan order (for a
canonicalized file, by permuting and flipping their coordinates) and
labeled as runs along rows joined by a union-find (run-based labeling, He,
Chao & Suzuki, IEEE TIP 2008), in NumPy only, at a cost that scales with the
foreground, for sparse node annotations and dense fused label maps alike.

Component ids follow first-voxel scan order (lexicographic over i, j, k),
which makes the partition deterministic and directly comparable with a
flood-fill reference. A ComponentSet carries its foreground voxels as sorted
C-order linear keys (which is scan order) with their component ids, so
overlaps between two sets are a key intersection, not a grid pass; voxel
coordinates are derived from the keys when asked for.
"""

from __future__ import annotations

import mmap
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ValidationError
from .volume import Volume

CONNECTIVITIES = (6, 18, 26)


def _as_mask(mask) -> np.ndarray:
    # nonzero == foreground everywhere downstream, so no bool copy is needed
    data = mask.data if isinstance(mask, Volume) else np.asarray(mask)
    if data.ndim != 3:
        raise ValidationError(f"mask must be 3D, got {data.ndim}D")
    return data


def _index_dtype(count: int) -> np.dtype:
    if count <= np.iinfo("u1").max:
        return np.dtype("u1")
    if count <= np.iinfo("u2").max:
        return np.dtype("u2")
    return np.dtype("i4")


@dataclass(eq=False)
class ComponentSet:
    """Partition of a binary mask into connected components.

    component_of holds the component index per voxel (0 = background);
    indices 1..count are assigned in first-voxel scan order. keys and labels
    list the foreground voxels in scan order: their C-order linear indices
    on the grid (ascending) and their component indices.
    """

    count: int
    component_of: np.ndarray
    sizes: np.ndarray  # voxel count per component, sizes[i-1] for component i
    connectivity: int
    keys: np.ndarray  # (n,) int64, strictly ascending
    labels: np.ndarray  # (n,) component index per voxel, dtype of component_of

    def __post_init__(self):
        for arr in (self.component_of, self.sizes, self.keys, self.labels):
            arr.setflags(write=False)

    @property
    def coords(self) -> np.ndarray:
        """(n, 3) int32 voxel indices of the foreground, in scan order."""
        return _unravel(self.keys, self.component_of.shape)

    @cached_property
    def _grouped(self) -> tuple[np.ndarray, np.ndarray]:
        # voxels grouped by component, each group in scan order (stable sort);
        # built on first use, since only morphometry walks components
        order = np.argsort(self.labels, kind="stable")
        starts = np.zeros(self.count + 1, dtype=np.int64)
        np.cumsum(self.sizes, out=starts[1:])
        return _unravel(self.keys[order], self.component_of.shape), starts

    def voxels(self, index: int) -> np.ndarray:
        """(n, 3) voxel indices of component `index` (1-based), in scan order."""
        if not 1 <= index <= self.count:
            raise ValidationError(f"component index {index} outside [1, {self.count}]")
        coords, starts = self._grouped
        return coords[starts[index - 1]:starts[index]]

    @property
    def voxel_lists(self) -> list[np.ndarray]:
        return [self.voxels(i) for i in range(1, self.count + 1)]


def _component_set(shape, keys: np.ndarray, labels: np.ndarray, count: int,
                   connectivity: int) -> ComponentSet:
    """ComponentSet from the scan-ordered foreground keys and their labels."""
    coords = _unravel(keys, shape)
    sizes = np.bincount(labels, minlength=count + 1)[1:].astype(np.int64)
    out = _zeros(shape, _index_dtype(count))
    out[coords[:, 0], coords[:, 1], coords[:, 2]] = labels
    return ComponentSet(count, out, sizes, connectivity, keys, labels.astype(out.dtype))


def _zeros(shape, dtype: np.dtype) -> np.ndarray:
    """A zero grid in Fortran order (it keeps later NIfTI writes a straight
    memcpy) that holds memory only where it is written: private anonymous
    pages, which read as the shared zero page until written, without the
    huge-page advice NumPy gives large arrays, so labels on a few slices of a
    CT grid commit a few 4 KiB pages, not 2 MiB ones."""
    count = int(np.prod(shape))
    buf = mmap.mmap(-1, max(count, 1) * dtype.itemsize, flags=mmap.MAP_PRIVATE)
    return np.frombuffer(buf, dtype, count=count).reshape(shape, order="F")


def _unravel(keys: np.ndarray, shape) -> np.ndarray:
    """(n, 3) int32 grid indices of C-order linear keys."""
    coords = np.empty((len(keys), 3), dtype=np.int32)
    rest = keys
    for axis in (2, 1):
        rest, coords[:, axis] = np.divmod(rest, shape[axis])
    coords[:, 0] = rest
    return coords


def _slab_view(data: np.ndarray) -> tuple[np.ndarray, bool]:
    """data as a Fortran-contiguous array whose last axis is its slowest in
    memory, and whether that took a transpose (C-ordered input); other
    strided input is copied."""
    if data.flags.c_contiguous and not data.flags.f_contiguous:
        return data.T, True
    return np.asfortranarray(data), False


def _chunk_keys(chunk: np.ndarray) -> np.ndarray:
    """Ascending offsets, in memory order, of the nonzero voxels of a
    Fortran-contiguous chunk of whole slabs (along its last axis).

    An occupancy reduction over contiguous memory finds the runs of slabs
    holding foreground, and flatnonzero walks those runs only, while the
    chunk is still in cache.
    """
    nx, ny, nz = chunk.shape
    occupied = chunk.reshape((nx * ny, nz), order="F").any(axis=0)
    edges = np.flatnonzero(np.diff(occupied, prepend=False, append=False)).tolist()
    return np.concatenate([np.flatnonzero(chunk[:, :, a:b].ravel(order="F")) + a * (nx * ny)
                           for a, b in zip(edges[::2], edges[1::2])]
                          or [np.zeros(0, dtype=np.int64)])


class Foreground:
    """The foreground of a labeling pass, gathered chunk by chunk: every
    nonzero voxel. A subclass can pick other voxels from the chunks."""

    def __init__(self):
        self._parts: list[np.ndarray] = []

    def add(self, keys: np.ndarray, chunk: np.ndarray, start: int) -> None:
        """Take a chunk: keys are the memory-order offsets, on the whole
        grid, of its nonzero voxels; start is the offset of its first."""
        self._parts.append(keys)

    def keys(self) -> np.ndarray:
        """Ascending memory-order offsets of the foreground."""
        return np.concatenate(self._parts or [np.zeros(0, dtype=np.int64)])


def _scan_order(offsets: np.ndarray, shape, perm, flips) -> tuple[np.ndarray, tuple]:
    """Ascending C-order keys, and the shape, of the grid whose axis a is axis
    perm[a] of a Fortran-ordered grid of the given shape, reversed where
    flips[a], for the memory-order offsets of voxels on that grid."""
    out_shape = tuple(shape[p] for p in perm)
    if perm == (2, 1, 0) and not any(flips):
        return offsets, out_shape  # Fortran order on shape is C order on its reverse
    rest, i = np.divmod(offsets, shape[0])
    k, j = np.divmod(rest, shape[1])
    coords = [(i, j, k)[p] for p in perm]
    for a in range(3):
        if flips[a]:
            coords[a] = out_shape[a] - 1 - coords[a]
    return np.sort((coords[0] * out_shape[1] + coords[1]) * out_shape[2] + coords[2]), out_shape


def _foreground_keys(mask) -> tuple[np.ndarray, tuple]:
    """Ascending C-order keys of the foreground of a mask, and the shape of
    the grid they index, from one pass over its chunks.

    A VolumeFile's chunks come from its file, in file order, and its keys are
    put in the order of its (perhaps canonical) grid; a Volume or array is one
    chunk, its Fortran-contiguous view, and keeps its own order.
    """
    if hasattr(mask, "chunks"):
        chunks, perm, flips = mask.chunks(), mask.perm, mask.flips
        foreground = (mask.foreground or Foreground)()
    else:
        f, transposed = _slab_view(_as_mask(mask))
        chunks, perm, flips = (f,), ((2, 1, 0) if transposed else (0, 1, 2)), (False,) * 3
        foreground = Foreground()
    start, depth = 0, 0
    for chunk in chunks:
        foreground.add(_chunk_keys(chunk) + start, chunk, start)
        start += chunk.size
        depth += chunk.shape[2]
        plane = chunk.shape[:2]
    return _scan_order(foreground.keys(), plane + (depth,), perm, flips)


def _run_ids(keys: np.ndarray, shape, connectivity: int) -> tuple[np.ndarray, int]:
    """Component index per foreground voxel, numbered 1..count in scan order,
    and the count, from run-based labeling (He, Chao & Suzuki, IEEE TIP 2008)
    over ascending C-order keys.

    A run is a maximal block of consecutive keys in one (i, j) row. Runs of
    forward neighbour rows are joined where their k-intervals overlap, the
    interval widened by one where the connectivity reaches diagonally along k.
    The run graph is solved by a union-find: each round hooks the larger root
    of every edge onto the smaller, then jumps pointers until every run
    points at its root. Hooks only lower a pointer, so each root is its
    component's first run in scan order, and numbering the roots in run order
    numbers the components in scan order. Cost scales with the foreground,
    not the grid.
    """
    nx, ny, nz = shape
    # a run starts where its key does not follow the previous one, or at k = 0
    first = np.flatnonzero((np.diff(keys, prepend=-1) != 1) | (keys % nz == 0))
    lengths = np.diff(first, append=len(keys))
    start = keys[first]
    end = start + lengths - 1
    i, j = np.divmod(start // nz, ny)
    reach = CONNECTIVITIES.index(connectivity) + 1  # largest |di| + |dj| + |dk|
    src, dst = [], []
    for di, dj in ((0, 1), (1, 0), (1, -1), (1, 1)):
        order = di + abs(dj)
        if order > reach:
            continue
        widen = int(order < reach)
        shift = (di * ny + dj) * nz
        runs = np.flatnonzero((i + di < nx) & (j + dj >= 0) & (j + dj < ny))
        row = ((i[runs] + di) * ny + j[runs] + dj) * nz  # first key of the neighbour row
        lo = np.maximum(start[runs] + shift - widen, row)
        hi = np.minimum(end[runs] + shift + widen, row + nz - 1)
        b0 = np.searchsorted(end, lo)
        hits = np.maximum(np.searchsorted(start, hi, side="right") - b0, 0)
        # each run meets the neighbour-row runs b0 .. b0 + hits - 1
        src.append(np.repeat(runs, hits))
        dst.append(np.arange(hits.sum()) + np.repeat(b0 - np.cumsum(hits) + hits, hits))
    a, b = np.concatenate(src), np.concatenate(dst)
    parent = np.arange(len(first))  # every run its own root; a, b are roots
    while len(a):
        np.minimum.at(parent, np.maximum(a, b), np.minimum(a, b))
        while not np.array_equal(jumped := parent[parent], parent):
            parent = jumped
        a, b = parent[a], parent[b]
        apart = a != b
        a, b = a[apart], b[apart]
    roots = parent == np.arange(len(parent))
    index = np.cumsum(roots)
    return np.repeat(index[parent], lengths), int(np.count_nonzero(roots))


def label_components(mask, connectivity: int = 26) -> ComponentSet:
    """Decompose a binary mask (Volume, 3D array or nifti_io.VolumeFile) into
    connected components.

    One pass over the mask's chunks finds the foreground keys, indexing only
    the slabs that hold foreground. Their runs along rows are joined into
    components by a union-find, and the ids are numbered in scan order.
    """
    if connectivity not in CONNECTIVITIES:
        raise ValidationError(f"connectivity must be one of {CONNECTIVITIES}")
    keys, shape = _foreground_keys(mask)
    labels, count = _run_ids(keys, shape, connectivity)
    return _component_set(shape, keys, labels, count, connectivity)


def filter_components(cset: ComponentSet, min_voxels: int = 1) -> ComponentSet:
    """Drop components below min_voxels and re-densify indices.

    The default min_voxels=1 is a no-op: evaluation applies no post-processing,
    this is an optional analysis utility.
    """
    if min_voxels < 1:
        raise ValidationError(f"min_voxels must be >= 1, got {min_voxels}")
    if min_voxels == 1:
        return cset
    keep = cset.sizes >= min_voxels
    new_count = int(keep.sum())
    remap = np.zeros(cset.count + 1, dtype=np.int64)
    remap[1:][keep] = np.arange(1, new_count + 1)
    labels = remap[cset.labels]
    kept = labels != 0
    return _component_set(cset.component_of.shape, cset.keys[kept], labels[kept],
                          new_count, cset.connectivity)
