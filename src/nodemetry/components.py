"""3D connected components of binary masks, the unit of per-node analysis.

Every labeling starts with one occupancy scan: a cheap pass that finds the
slabs along the slowest memory axis holding any foreground (axial slices for
the Fortran-ordered grids read from disk). Indexing then runs only inside
the runs of occupied slabs, so a node mask on a 500+ slice CT grid never pays
for a second whole-grid pass. The foreground keys are labeled as runs along
rows joined by a union-find (run-based labeling, He, Chao & Suzuki, IEEE TIP
2008), in NumPy only, at a cost that scales with the foreground, for sparse
node annotations and dense fused label maps alike.

Component ids follow first-voxel scan order (lexicographic over i, j, k),
which makes the partition deterministic and directly comparable with a
flood-fill reference. A ComponentSet carries its foreground voxels as sorted
C-order linear keys (which is scan order) with their component ids, so
overlaps between two sets are a key intersection, not a grid pass; voxel
coordinates are derived from the keys when asked for.
"""

from __future__ import annotations

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
    # Fortran order keeps later NIfTI writes a straight memcpy
    out = np.zeros(shape, dtype=_index_dtype(count), order="F")
    out[coords[:, 0], coords[:, 1], coords[:, 2]] = labels
    return ComponentSet(count, out, sizes, connectivity, keys, labels.astype(out.dtype))


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


def _occupied_runs(f: np.ndarray) -> list[tuple[int, np.ndarray]]:
    """(first slab, view) of each run of consecutive slabs along the last axis
    of a Fortran-contiguous grid that hold foreground.

    The one whole-grid pass of a labeling: a reduction over contiguous
    memory, far cheaper than indexing the grid.
    """
    nx, ny, nz = f.shape
    occupied = f.reshape((nx * ny, nz), order="F").any(axis=0)
    edges = np.flatnonzero(np.diff(occupied, prepend=False, append=False)).tolist()
    return [(a, f[:, :, a:b]) for a, b in zip(edges[::2], edges[1::2])]


def _run_keys(f: np.ndarray, transposed: bool,
              runs: list[tuple[int, np.ndarray]]) -> np.ndarray:
    """Ascending C-order linear keys of the foreground inside the runs.

    flatnonzero over a Fortran-contiguous run walks memory linearly. For
    transposed (C-ordered) input its offsets already are the C-order keys;
    otherwise they are Fortran-order indices, converted and re-sorted.
    """
    nx, ny, nz = f.shape
    keys = np.concatenate([np.flatnonzero(run.ravel(order="F")) + a * (nx * ny)
                           for a, run in runs] or [np.zeros(0, dtype=np.int64)])
    if transposed:
        return keys
    i = keys % nx
    j = (keys // nx) % ny
    k = keys // (nx * ny)
    return np.sort((i * ny + j) * nz + k)


def _run_ids(keys: np.ndarray, shape, connectivity: int) -> np.ndarray:
    """Raw component id per foreground voxel, from run-based labeling (He,
    Chao & Suzuki, IEEE TIP 2008) over ascending C-order keys.

    A run is a maximal block of consecutive keys in one (i, j) row. Runs of
    forward neighbour rows are joined where their k-intervals overlap, the
    interval widened by one where the connectivity reaches diagonally along k.
    The run graph is solved by a union-find: each round hooks the larger root
    of every edge onto the smaller, then jumps pointers until every run
    points at its root. Cost scales with the foreground, not the grid.
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
    return np.repeat(parent, lengths)


def _scan_order(raw: np.ndarray) -> tuple[np.ndarray, int]:
    """Component indices 1..count numbered by first appearance in scan order,
    from raw ids in any numbering, and the count."""
    _, first, inverse = np.unique(raw, return_index=True, return_inverse=True)
    rank = np.empty(len(first), dtype=np.int64)
    rank[np.argsort(first)] = np.arange(1, len(first) + 1)
    return rank[inverse], len(first)


def label_components(mask, connectivity: int = 26) -> ComponentSet:
    """Decompose a binary mask (Volume or 3D array) into connected components.

    One occupancy scan finds the slabs holding foreground, and the foreground
    keys are indexed inside those slabs only. Their runs along rows are
    joined into components by a union-find, and the ids are numbered in scan
    order.
    """
    if connectivity not in CONNECTIVITIES:
        raise ValidationError(f"connectivity must be one of {CONNECTIVITIES}")
    data = _as_mask(mask)
    f, transposed = _slab_view(data)
    keys = _run_keys(f, transposed, _occupied_runs(f))
    labels, count = _scan_order(_run_ids(keys, data.shape, connectivity))
    return _component_set(data.shape, keys, labels, count, connectivity)


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
