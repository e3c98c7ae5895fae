"""Short-axis diameter (SAD) measurement of nodes on axial slices.

A node's SAD is taken per axial slice as the minimum width of the convex hull
of the slice's voxel footprints (its smallest caliper width over the hull
edges), then maximised over the slices the node crosses: the slice where the
node presents its largest short axis, mirroring how the caliper is placed on
the slice where the node looks biggest. Footprints use voxel corners, not
centers, so a single voxel measures its physical pixel size rather than zero.

measure_components measures every slice of every node at once, in exact
integer arithmetic on footprint corners in half-voxel units (_measure): a
node shifted by whole voxels measures the same floats, and congruent slices
tie exactly. One slice is measured by measure_node on that slice's voxels.

All lengths are world mm; the volume must be canonicalized (axial-last) so
slice k means axial slice k and the in-plane spacing is spacing[0:2].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .components import ComponentSet
from .errors import EmptyInputError, ValidationError
from .volume import Volume, is_canonical


@dataclass(frozen=True)
class NodeMeasurement:
    """Per-node morphometry record; all lengths in mm."""

    component_index: int
    sad_mm: float
    sad_slice_index: int
    long_axis_mm: float
    volume_mm3: float
    voxel_count: int


def _starts(*keys: np.ndarray) -> np.ndarray:
    """Positions where any of the equally long key columns changes value,
    the first position included."""
    new = np.zeros(len(keys[0]), dtype=bool)
    new[:1] = True
    for key in keys:
        new[1:] |= key[1:] != key[:-1]
    return np.flatnonzero(new)


# ordered vertex pairs per batch of whole slices: bounds the temporaries of
# a pass over every slice of a mask
_PAIR_BATCH = 1 << 13


def _ranges(first: np.ndarray, size: np.ndarray) -> np.ndarray:
    """The ranges [first, first + size), concatenated."""
    return np.repeat(first - np.cumsum(size) + size, size) + np.arange(size.sum())


def _vertex_pairs(first: np.ndarray, size: np.ndarray):
    """Every ordered pair (a, b) of vertices within each group of vertices
    [first, first + size), a-major in group order.

    Yields, per batch of whole groups holding at most _PAIR_BATCH pairs (or
    of one larger group alone), the batch's group range and its a and b.
    """
    sq = size * size
    end = np.cumsum(sq)
    start = 0
    while start < len(size):
        stop = max(int(np.searchsorted(end, end[start] - sq[start] + _PAIR_BATCH, "right")),
                   start + 1)
        n = size[start:stop]
        per_vertex = np.repeat(n, n)
        a = np.repeat(_ranges(first[start:stop], n), per_vertex)
        b = _ranges(np.repeat(first[start:stop], n), per_vertex)
        yield start, stop, a, b
        start = stop


def _peel(x: np.ndarray, y: np.ndarray, chain: np.ndarray) -> np.ndarray:
    """Which points of counter-clockwise chains are strict hull vertices.

    chain numbers the chains from 0 in order, and the first and last point
    of every chain are hull vertices. Each pass drops, in every chain at
    once, every inner point that makes no strict left turn with its current
    neighbours: such a point lies on or outside the segment joining them, so
    it is no vertex. Passes repeat, on the chains that lost a point, until
    none is dropped; what is left turns strictly left everywhere, which
    makes it the hull. The arithmetic is exact in int64.
    """
    keep = np.ones(len(x), dtype=bool)
    at = np.arange(len(x))
    while len(at) > 2:
        g, px, py = chain[at], x[at], y[at]
        turn = ((px[1:-1] - px[:-2]) * (py[2:] - py[:-2])
                - (py[1:-1] - py[:-2]) * (px[2:] - px[:-2]))
        drop = np.zeros(len(at), dtype=bool)
        drop[1:-1] = (g[:-2] == g[1:-1]) & (g[1:-1] == g[2:]) & (turn <= 0)
        if not drop.any():
            break
        keep[at[drop]] = False
        dirty = np.zeros(chain[-1] + 1, dtype=bool)
        dirty[g[drop]] = True
        at = at[dirty[g] & ~drop]
    return keep


def _row_ends(labels: np.ndarray, voxels: np.ndarray):
    """Each node's voxel count, in label order, and for both x lines of each
    (node, slice, row) run, in that order: label, k, line, first and last j.

    Row i bounds the x lines i - 1/2 and i + 1/2, numbered i and i + 1;
    interleaved per row they stay sorted within a slice. A function of its
    own, so that the per-voxel arrays are freed before the chains are built.
    """
    order = np.lexsort((voxels[:, 1], voxels[:, 0], voxels[:, 2], labels))
    lab, i, j, k = labels[order], voxels[order, 0], voxels[order, 1], voxels[order, 2]
    counts = np.diff(np.append(_starts(lab), len(lab)))
    row = _starts(lab, k, i)
    # signed, so that the corners 2i - 1 and 2j - 1 of index 0 are -1
    lo = j[row].astype(np.int64)
    hi = j[np.append(row[1:], len(j)) - 1].astype(np.int64)
    line = np.repeat(i[row].astype(np.int64), 2)
    line[1::2] += 1
    lab, k, lo, hi = (np.repeat(a, 2) for a in (lab[row], k[row], lo, hi))
    return counts, lab, k, line, lo, hi


def _slice_chains(labels: np.ndarray, voxels: np.ndarray):
    """Each node's voxel count; each slice's label and k, in (label, k)
    order; and x, y and slice number of the points of every slice's chain.

    Of the footprint corners on one x line only the lowest and highest can
    be hull vertices. In half-voxel integer units, x line i at row end j
    gives (2i - 1, 2j -/+ 1). A slice's chain walks its low points from left
    to right and its high points back, counter-clockwise; its two ends and
    the two points on the last line are hull vertices.
    """
    counts, lab, k, line, lo, hi = _row_ends(labels, voxels)
    cut = _starts(lab, k, line)
    lab, k = lab[cut], k[cut]
    slices = _starts(lab, k)
    # a slice's lines [s, e) sit at [2s, 2e) of the chains: line n's low
    # corner at s + n, its high corner at 2e - 1 - (n - s)
    lines = np.diff(np.append(slices, len(cut)))
    s = np.repeat(slices, lines)
    n = np.arange(len(cut))
    low, high = s + n, 2 * (s + np.repeat(lines, lines)) - 1 - (n - s)
    x, y, chain = (np.empty(2 * len(cut), np.int64) for _ in range(3))
    x[low] = x[high] = 2 * line[cut] - 1
    y[low] = 2 * np.minimum.reduceat(lo, cut) - 1
    y[high] = 2 * np.maximum.reduceat(hi, cut) + 1
    chain[low] = chain[high] = np.repeat(np.arange(len(slices)), lines)
    return counts, lab[slices], k[slices], x, y, chain


def _measure(labels: np.ndarray, voxels: np.ndarray, volume: Volume) -> list[NodeMeasurement]:
    """Measure the nodes of labeled voxels (one label per voxel), in
    ascending label order.

    _peel cuts each slice's chain to its hull, the hull of the corners of
    the slice's voxel footprints. A hull edge in lowest terms (ex, ey) has the width
    sx*sy*C / (2*hypot(ex*sx, ey*sy)), C being the largest integer cross
    product of (ex, ey) with a vertex taken from the edge's start; a slice's
    width is its smallest edge width. Only integer differences enter, so
    congruent slices, and equal widths across parallel edges, give one
    float. The long axis is the largest hypot(dx*sx, dy*sy) / 2 over vertex
    pairs of the SAD slice.
    """
    if not is_canonical(volume):
        raise ValidationError("volume must be canonicalized (axial-last) for measurement")
    sx, sy, _ = volume.spacing
    counts, lab, k, x, y, chain = _slice_chains(labels, voxels)
    keep = _peel(x, y, chain)
    hx, hy = x[keep], y[keep]
    first = _starts(chain[keep])
    size = np.diff(np.append(first, len(hx)))
    # the edge from each vertex to the next of its slice
    after = np.arange(1, len(hx) + 1)
    after[first + size - 1] = first
    ex, ey = hx[after] - hx, hy[after] - hy
    c = np.empty(len(hx), np.int64)
    for _, _, a, b in _vertex_pairs(first, size):
        runs = _starts(a)
        c[a[runs]] = np.maximum.reduceat(ex[a] * (hy[b] - hy[a]) - ey[a] * (hx[b] - hx[a]), runs)
    # in lowest terms, so that parallel edges of equal width give one float
    g = np.gcd(ex, ey)
    c, ex, ey = c // g, ex // g, ey // g
    width = np.minimum.reduceat(sx * sy * c / (2 * np.hypot(ex * sx, ey * sy)), first)

    nodes = _starts(lab)
    sad = np.maximum.reduceat(width, nodes)
    # ties keep the smallest slice index: the node's first slice of its largest width
    tied = np.flatnonzero(width == np.repeat(sad, np.diff(np.append(nodes, len(lab)))))
    best = tied[np.searchsorted(tied, nodes)]
    long_axis = np.empty(len(best))
    for start, stop, a, b in _vertex_pairs(first[best], size[best]):
        pairs = size[best[start:stop]] ** 2
        long_axis[start:stop] = np.maximum.reduceat(
            np.hypot((hx[b] - hx[a]) * sx, (hy[b] - hy[a]) * sy), np.cumsum(pairs) - pairs) / 2
    return [
        NodeMeasurement(component_index=node, sad_mm=w, sad_slice_index=z, long_axis_mm=d,
                        volume_mm3=count * volume.voxel_volume_mm3, voxel_count=count)
        for node, w, z, d, count in zip(lab[nodes].tolist(), sad.tolist(), k[best].tolist(),
                                        long_axis.tolist(), counts.tolist())
    ]


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
