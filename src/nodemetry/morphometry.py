"""Short-axis diameter (SAD) measurement of nodes on axial slices.

A node's SAD is taken per axial slice as the minimum width of the convex hull
of the slice's voxel footprints (rotating-calipers width), then maximised over
the slices the node crosses: the slice where the node presents its largest
short axis, mirroring how the caliper is placed on the slice where the node
looks biggest. Footprints use voxel corners, not centers, so a single voxel
measures its physical pixel size rather than zero.

measure_components measures every node in one pass over its component set:
one sort groups the voxels by (node, slice, row), and only the first and last
voxel of a row can give hull vertices. Each slice is cut to the lowest and
highest footprint corner on each x line, and one monotone chain runs over
those; the hull, hence every result, equals the hull of all the slice's
footprint corners.

All lengths are world mm; the volume must be canonicalized (axial-last) so
slice k means axial slice k and the in-plane spacing is spacing[0:2].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .components import ComponentSet
from .errors import EmptyInputError, ValidationError
from .volume import Volume, is_canonical

_CORNER_OFFSETS = np.array([[-0.5, -0.5], [0.5, -0.5], [0.5, 0.5], [-0.5, 0.5]])


@dataclass(frozen=True)
class NodeMeasurement:
    """Per-node morphometry record; all lengths in mm."""

    component_index: int
    sad_mm: float
    sad_slice_index: int
    long_axis_mm: float
    volume_mm3: float
    voxel_count: int


def slice_footprint(ij: np.ndarray, spacing) -> np.ndarray:
    """Corner points (mm) of the in-plane footprints of voxels on one slice.

    Returns four corners per voxel (center +/- half spacing per axis);
    shared corners of adjacent voxels are repeated.
    """
    ij = np.atleast_2d(np.asarray(ij))
    if ij.size == 0:
        raise EmptyInputError("no voxels on slice")
    sx, sy = float(spacing[0]), float(spacing[1])
    corners = ij[:, None, :] + _CORNER_OFFSETS
    corners = corners.reshape(-1, 2) * np.array([sx, sy])
    return corners


def _cross(o, a, b) -> float:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _chain(pts: list) -> list:
    """Counter-clockwise hull of points sorted by (x, y) and unique, by
    monotone chain (Andrew 1979); collinear points are dropped."""
    if len(pts) == 1:
        return pts
    lower = []
    for p in pts:
        while len(lower) > 1 and _cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper = []
    for p in reversed(pts):
        while len(upper) > 1 and _cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def convex_hull(points: np.ndarray) -> np.ndarray:
    """Counter-clockwise convex hull by monotone chain.

    Collinear interior points are dropped; all-collinear input yields the two
    extreme points, a single point yields itself.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    if pts.size == 0:
        raise EmptyInputError("no points")
    # np.unique sorts lexicographically
    return np.array(_chain(np.unique(pts, axis=0).tolist()))


def min_width(hull: np.ndarray) -> float:
    """Minimum caliper width of a convex polygon.

    For each hull edge, the width is the maximal perpendicular distance from
    the edge's supporting line to any vertex; the SAD direction is the edge
    minimising it. Degenerate hulls (point, segment) have zero width.
    """
    hull = np.atleast_2d(np.asarray(hull, dtype=np.float64))
    if len(hull) == 0:
        raise EmptyInputError("empty hull")
    if len(hull) < 3:
        return 0.0
    edges = np.roll(hull, -1, axis=0) - hull
    lengths = np.hypot(edges[:, 0], edges[:, 1])
    normals = np.stack([-edges[:, 1], edges[:, 0]], axis=1) / lengths[:, None]
    # (h, h) signed distances of every vertex to every edge line
    dists = normals @ hull.T - np.einsum("ij,ij->i", normals, hull)[:, None]
    widths = dists.max(axis=1)
    return float(widths.min())


def max_diameter(hull: np.ndarray) -> float:
    """Maximal caliper diameter (largest vertex-to-vertex distance)."""
    hull = np.atleast_2d(np.asarray(hull, dtype=np.float64))
    if len(hull) == 1:
        return 0.0
    diff = hull[:, None, :] - hull[None, :, :]
    return float(np.sqrt((diff ** 2).sum(axis=2)).max())


def _starts(*keys: np.ndarray) -> np.ndarray:
    """Positions where any of the equally long key columns changes value,
    the first position included."""
    new = np.zeros(len(keys[0]), dtype=bool)
    new[:1] = True
    for key in keys:
        new[1:] |= key[1:] != key[:-1]
    return np.flatnonzero(new)


def _measure(labels: np.ndarray, voxels: np.ndarray, volume: Volume) -> list[NodeMeasurement]:
    """Measure the nodes of labeled voxels (one label per voxel), in
    ascending label order.

    One lexsort by (label, k, i, j) lines up each (node, slice, row) run.
    Only a row's first and last voxel can carry hull vertices, and of the
    corners on one x line (i +/- 1/2) only the lowest and highest, so each
    slice keeps two points per x line, already sorted and unique, for the
    monotone chain. The hull, hence the result, equals the one built from
    every corner of slice_footprint.
    """
    if not is_canonical(volume):
        raise ValidationError("volume must be canonicalized (axial-last) for measurement")
    sx, sy, _ = volume.spacing
    order = np.lexsort((voxels[:, 1], voxels[:, 0], voxels[:, 2], labels))
    lab, i, j, k = labels[order], voxels[order, 0], voxels[order, 1], voxels[order, 2]
    counts = np.diff(np.append(_starts(lab), len(lab))).tolist()

    row = _starts(lab, k, i)
    lo, hi = j[row], j[np.append(row[1:], len(j)) - 1]
    # row i bounds the x lines i - 1/2 and i + 1/2, numbered i and i + 1;
    # interleaved per row they stay sorted within a slice
    line = np.repeat(i[row].astype(np.int64), 2)
    line[1::2] += 1
    lab, k, lo, hi = (np.repeat(a, 2) for a in (lab[row], k[row], lo, hi))
    cut = _starts(lab, k, line)
    # the arithmetic of slice_footprint, so the corners are the same floats
    pts = np.empty((2 * len(cut), 2))
    pts[:, 0] = np.repeat((line[cut] - 0.5) * sx, 2)
    pts[0::2, 1] = (np.minimum.reduceat(lo, cut) - 0.5) * sy
    pts[1::2, 1] = (np.maximum.reduceat(hi, cut) + 0.5) * sy
    lab, k = lab[cut], k[cut]

    slices = _starts(lab, k)
    nodes = np.append(_starts(lab[slices]), len(slices)).tolist()
    bounds = (2 * np.append(slices, len(cut))).tolist()
    lab, k = lab[slices].tolist(), k[slices].tolist()
    out = []
    for n, count in enumerate(counts):
        best_w, best_k, best_hull = -1.0, -1, None
        for s in range(nodes[n], nodes[n + 1]):
            # the chain runs fastest on Python floats; made per slice, few
            # of them are alive at once
            hull = np.array(_chain(pts[bounds[s]:bounds[s + 1]].tolist()))
            w = min_width(hull)
            if w > best_w:  # ties keep the smallest slice index
                best_w, best_k, best_hull = w, k[s], hull
        out.append(NodeMeasurement(
            component_index=lab[nodes[n]],
            sad_mm=best_w,
            sad_slice_index=best_k,
            long_axis_mm=max_diameter(best_hull),
            volume_mm3=count * volume.voxel_volume_mm3,
            voxel_count=count,
        ))
    return out


def measure_node(voxels: np.ndarray, volume: Volume,
                 component_index: int = 0) -> NodeMeasurement:
    """Measure one node (list of voxel indices) on a canonicalized volume.

    SAD = max over axial slices of the slice hull's minimum width; ties pick
    the smallest slice index. The long axis is the maximal caliper diameter
    on the same slice.
    """
    voxels = np.atleast_2d(np.asarray(voxels))
    if voxels.size == 0:
        raise EmptyInputError("empty component")
    return _measure(np.full(len(voxels), component_index), voxels, volume)[0]


def measure_components(cset: ComponentSet, volume: Volume) -> list[NodeMeasurement]:
    """Measure every component of a labeled mask, in component order."""
    if cset.count == 0:
        return []
    return _measure(cset.labels, cset.coords, volume)


MEASUREMENT_COLUMNS = ("component_index", "voxel_count", "volume_mm3",
                       "sad_mm", "sad_slice_index", "long_axis_mm")


def measurements_to_csv(measurements) -> str:
    """Per-node table as CSV text (floats fixed at 4 decimals)."""
    lines = [",".join(MEASUREMENT_COLUMNS)]
    for m in measurements:
        lines.append(
            f"{m.component_index},{m.voxel_count},{m.volume_mm3:.4f},"
            f"{m.sad_mm:.4f},{m.sad_slice_index},{m.long_axis_mm:.4f}"
        )
    return "\n".join(lines) + "\n"
