import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import nodemetry as nm
from nodemetry.morphometry import _antipodes
from conftest import make_volume
from oracles import lattice_hull, lattice_node_measure, sweep_diameter, sweep_width


def slice_sad(ij, spacing=(1.0, 1.0)) -> float:
    """The SAD (mm) that measure_node gives the voxels (rows of (i, j)) of one slice."""
    vol = make_volume(np.zeros((*(ij.max(axis=0) + 1), 1), np.uint8), spacing=(*spacing, 1.0))
    return nm.measure_node(np.column_stack([ij, np.zeros(len(ij), int)]), vol).sad_mm


def footprint_corners(ij, spacing) -> np.ndarray:
    """The four corners (mm) of each voxel's footprint on one slice."""
    half = np.array([[-0.5, -0.5], [0.5, -0.5], [0.5, 0.5], [-0.5, 0.5]])
    return (ij[:, None, :] + half).reshape(-1, 2) * np.asarray(spacing)


# -- measure_node ------------------------------------------------------------

def test_measure_single_voxel_anisotropic():
    spacing = (0.8, 0.8, 1.5)
    vol = make_volume(np.zeros((4, 4, 4), np.uint8), spacing=spacing)
    m = nm.measure_node(np.array([[1, 1, 1]]), vol)
    assert m.sad_mm == pytest.approx(0.8)
    assert m.long_axis_mm == pytest.approx(math.hypot(0.8, 0.8))
    assert m.voxel_count == 1
    assert m.volume_mm3 == pytest.approx(0.8 * 0.8 * 1.5)
    assert m.sad_slice_index == 1


def digital_ellipsoid(semiaxes, spacing=(1.0, 1.0, 1.0), pad=2):
    a, b, c = semiaxes
    dims = [int(2 * (s / sp + pad)) + 1 for s, sp in zip(semiaxes, spacing)]
    center = [(n // 2) * sp for n, sp in zip(dims, spacing)]
    grid = np.indices(dims).astype(float)
    x = grid[0] * spacing[0] - center[0]
    y = grid[1] * spacing[1] - center[1]
    z = grid[2] * spacing[2] - center[2]
    inside = (x / a) ** 2 + (y / b) ** 2 + (z / c) ** 2 <= 1.0
    return inside.astype(np.uint8)


def test_measure_digital_ellipsoid():
    # semiaxes (9, 3, 6) mm: equatorial slice is a 9x3 ellipse, SAD = 2b = 6
    mask = digital_ellipsoid((9, 3, 6))
    vol = make_volume(mask)
    cset = nm.label_components(vol, 26)
    assert cset.count == 1
    m = nm.measure_node(cset.voxels(1), vol)
    assert m.sad_mm == pytest.approx(6.0, abs=1.0)
    assert m.long_axis_mm == pytest.approx(18.0, abs=1.5)


def test_measure_axial_column():
    mask = np.zeros((3, 3, 20), np.uint8)
    mask[1, 1, :] = 1
    vol = make_volume(mask)
    m = nm.measure_node(np.argwhere(mask), vol)
    assert m.sad_mm == pytest.approx(1.0)
    assert m.sad_slice_index == 0  # every slice ties, smallest index wins


def test_measure_tie_breaks_to_smallest_slice():
    mask = np.zeros((6, 6, 5), np.uint8)
    mask[1:4, 1:4, 1] = 1
    mask[1:4, 1:4, 3] = 1  # identical footprint on slices 1 and 3
    vol = make_volume(mask)
    m = nm.measure_node(np.argwhere(mask), vol)
    assert m.sad_slice_index == 1


def test_measure_node_takes_unsigned_indices():
    # corners of index 0 lie at -1/2: unsigned indices must not wrap there
    vol = make_volume(np.zeros((4, 4, 4), np.uint8), spacing=(0.9, 0.8, 1.0))
    voxels = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 1]])
    assert nm.measure_node(voxels.astype(np.uint8), vol) == nm.measure_node(voxels, vol)


def test_measure_empty_component():
    vol = make_volume(np.zeros((2, 2, 2), np.uint8))
    with pytest.raises(nm.EmptyInputError):
        nm.measure_node(np.zeros((0, 3), dtype=int), vol)


def test_measure_requires_canonical():
    affine = np.array([[0.0, 1.0, 0.0, 0.0],
                       [1.0, 0.0, 0.0, 0.0],
                       [0.0, 0.0, 1.0, 0.0]])  # swapped in-plane axes
    vol = nm.Volume(np.ones((2, 2, 2), np.uint8), (1, 1, 1), affine, kind="label")
    with pytest.raises(nm.ValidationError, match="canonical"):
        nm.measure_node(np.array([[0, 0, 0]]), vol)
    with pytest.raises(nm.ValidationError, match="canonical"):
        nm.measure_components(nm.label_components(vol, 26), vol)
    # with no node there is nothing to measure, whatever the orientation
    empty = nm.Volume(np.zeros((2, 2, 2), np.uint8), (1, 1, 1), affine, kind="label")
    assert nm.measure_components(nm.label_components(empty, 26), empty) == []


def test_sad_scales_with_spacing(rng):
    voxels = np.argwhere(rng.random((8, 8, 4)) < 0.4)
    v1 = make_volume(np.zeros((8, 8, 4), np.uint8), spacing=(1.0, 1.0, 1.0))
    v2 = make_volume(np.zeros((8, 8, 4), np.uint8), spacing=(2.0, 2.0, 1.0))
    m1 = nm.measure_node(voxels, v1)
    m2 = nm.measure_node(voxels, v2)
    assert m2.sad_mm == pytest.approx(2.0 * m1.sad_mm)


def test_width_against_direction_sweep(rng):
    for _ in range(10):
        n = int(rng.integers(1, 40))
        ij = np.unique(rng.integers(0, int(rng.integers(1, 20)), (n, 2)), axis=0)
        spacing = tuple(rng.uniform(0.3, 2.0, 2))
        mine = slice_sad(ij, spacing)
        swept = sweep_width(footprint_corners(ij, spacing))
        assert mine <= swept + 1e-9  # sweep can only overshoot the true min
        assert mine == pytest.approx(swept, rel=2e-2)


def test_slice_sad_monotone_under_growth(rng):
    # adding voxels to a slice never decreases that slice's width
    for _ in range(20):
        n = int(rng.integers(1, 30))
        ij = np.unique(rng.integers(0, 12, (n, 2)), axis=0)
        extra = np.unique(rng.integers(0, 12, (4, 2)), axis=0)
        grown = np.unique(np.vstack([ij, extra]), axis=0)
        w_small = slice_sad(ij)
        w_big = slice_sad(grown)
        assert w_big >= w_small - 1e-12


def test_sad_bounds(rng):
    spacing = (0.7, 1.1, 2.0)
    for seed in range(10):
        mask = np.random.default_rng(seed).random((10, 10, 6)) < 0.3
        if not mask.any():
            continue
        vol = make_volume(mask.astype(np.uint8), spacing=spacing)
        cset = nm.label_components(vol, 26)
        for meas in nm.measure_components(cset, vol):
            assert meas.sad_mm >= min(spacing[0], spacing[1]) - 1e-12
            assert meas.sad_mm <= meas.long_axis_mm + 1e-12
            # never exceeds the largest slice's caliper diameter
            vox = cset.voxels(meas.component_index)
            diams = []
            for k in np.unique(vox[:, 2]):
                ij = vox[vox[:, 2] == k, :2]
                diams.append(sweep_diameter(footprint_corners(ij, spacing[:2])))
            assert meas.sad_mm <= max(diams) + 1e-12


# -- measure_components against the exact per-slice oracle -------------------

def reference_measurement(voxels, volume, index):
    """The lattice oracle's SAD, slice and long axis for one node."""
    sad, k, far = lattice_node_measure(voxels.tolist(), volume.spacing[:2])
    return nm.NodeMeasurement(index, sad, k, far, len(voxels) * volume.voxel_volume_mm3,
                              len(voxels))


def grid(shape, *boxes):
    mask = np.zeros(shape, np.uint8)
    for box in boxes:
        mask[box] = 1
    return mask


GAPPED_ROWS = grid((6, 9, 2), np.s_[1, 0:2, 0], np.s_[1, 5:9, 0], np.s_[2, 3, 0],
                   np.s_[4, 1:8:3, 0], np.s_[0:6:2, 4, 1])
ONE_VOXEL_SLICES = grid((5, 5, 4), np.s_[2, 2, 0], np.s_[1:4, 1:4, 1], np.s_[3, 3, 2])
ONE_ROW_SLICES = grid((7, 7, 3), np.s_[3, 0:7, 0], np.s_[1:5, 2:4, 1], np.s_[2, 1:6, 2])
# the same SAD on slices 1 and 3, joined through one voxel on slice 2
EQUAL_WIDTHS = grid((8, 8, 5), np.s_[1:4, 2:6, 1], np.s_[3, 3, 2], np.s_[4:7, 1:5, 3])
GRID_EDGES = grid((6, 5, 3), np.s_[0, :, 0], np.s_[:, 0, 0], np.s_[5, :, 2], np.s_[:, 4, 2],
                  np.s_[0, 0, 1], np.s_[5, 4, 1])


@st.composite
def node_masks(draw):
    """Scattered voxels plus a box on a small grid."""
    shape = draw(st.tuples(st.integers(1, 9), st.integers(1, 9), st.integers(1, 5)))
    mask = np.zeros(shape, dtype=np.uint8)
    mask.ravel()[sorted(draw(st.sets(st.integers(0, mask.size - 1), max_size=40)))] = 1
    lo = [draw(st.integers(0, n - 1)) for n in shape]
    hi = [draw(st.integers(a, n)) for a, n in zip(lo, shape)]
    mask[lo[0]:hi[0], lo[1]:hi[1], lo[2]:hi[2]] = 1
    return mask


# at least 300 examples; more under --hypothesis-profile=ci
EXAMPLES = max(300, settings().max_examples)


@settings(max_examples=EXAMPLES, deadline=None)
@given(mask=node_masks(), connectivity=st.sampled_from((6, 18, 26)),
       spacing=st.sampled_from(((0.9, 0.8, 0.7), (1.0, 1.0, 1.25), (0.7, 1.1, 2.0),
                                (0.3, 2.7, 1.0), (0.6, 0.8, 1.0))))
@example(mask=GAPPED_ROWS, connectivity=6, spacing=(0.9, 0.8, 0.7))
@example(mask=GAPPED_ROWS, connectivity=26, spacing=(1.0, 1.0, 1.25))
@example(mask=ONE_VOXEL_SLICES, connectivity=6, spacing=(0.9, 0.8, 0.7))
@example(mask=ONE_ROW_SLICES, connectivity=26, spacing=(0.9, 0.8, 0.7))
@example(mask=EQUAL_WIDTHS, connectivity=26, spacing=(1.0, 1.0, 1.25))
@example(mask=GRID_EDGES, connectivity=18, spacing=(0.9, 0.8, 0.7))
def test_measure_components_equals_per_slice_reference(mask, connectivity, spacing):
    vol = make_volume(mask, spacing=spacing)
    cset = nm.label_components(vol, connectivity)
    got = nm.measure_components(cset, vol)
    assert got == [reference_measurement(cset.voxels(i), vol, i)
                   for i in range(1, cset.count + 1)]
    for i in range(1, cset.count + 1):
        assert nm.measure_node(cset.voxels(i), vol, i) == got[i - 1]
        # voxels out of scan order measure the same
        assert nm.measure_node(cset.voxels(i)[::-1], vol, i) == got[i - 1]


@settings(max_examples=EXAMPLES, deadline=None)
@given(mask=node_masks(),
       shift=st.tuples(st.integers(0, 40), st.integers(0, 40), st.integers(0, 9)),
       spacing=st.sampled_from(((0.9, 0.8, 0.7), (0.8, 0.8, 0.8), (0.7, 1.1, 2.0),
                                (0.3, 2.7, 1.0))))
@example(mask=EQUAL_WIDTHS, shift=(17, 29, 3), spacing=(0.9, 0.8, 0.7))
def test_whole_voxel_shift_changes_no_measurement(mask, shift, spacing):
    # lattice corners make a width depend only on the hull's shape, not on
    # where it sits
    moved = np.zeros(tuple(n + d for n, d in zip(mask.shape, shift)), np.uint8)
    moved[tuple(slice(d, None) for d in shift)] = mask
    measured = []
    for m in (mask, moved):
        vol = make_volume(m, spacing=spacing)
        measured.append(nm.measure_components(nm.label_components(vol, 26), vol))
    assert len(measured[0]) == len(measured[1])
    for a, b in zip(*measured):
        assert (b.sad_mm, b.long_axis_mm) == (a.sad_mm, a.long_axis_mm)
        assert b.voxel_count == a.voxel_count
        assert b.sad_slice_index == a.sad_slice_index + shift[2]


def not_collinear(points) -> bool:
    rel = np.asarray(points) - points[0]
    return bool(np.any(rel[:, 0] * rel[1:, 1, None] - rel[:, 1] * rel[1:, 0, None]))


POINT_SETS = st.lists(st.tuples(st.integers(-1000, 1000), st.integers(-1000, 1000)),
                      min_size=3, max_size=24, unique=True).filter(not_collinear)
RECTANGLE = [(0, 0), (6, 0), (6, 2), (0, 2)]
# the vertices found for its horizontal edges span its short diagonal; the
# long one comes from its slanted edges
PARALLELOGRAM = [(0, 0), (4, 0), (1, 3), (-3, 3)]


@settings(max_examples=EXAMPLES, deadline=None)
@given(point_sets=st.lists(POINT_SETS, min_size=1, max_size=4),
       spacing=st.sampled_from(((1.0, 1.0), (0.6, 0.8), (0.8, 0.6), (0.7, 1.1), (0.3, 2.7))))
@example(point_sets=[RECTANGLE], spacing=(1.0, 1.0))
@example(point_sets=[RECTANGLE, [(0, 0), (3, 0), (3, 3), (0, 3)], PARALLELOGRAM],
         spacing=(0.6, 0.8))
def test_antipodes_reach_each_edges_largest_cross_product_and_the_diameter(point_sets, spacing):
    # on several hulls at once, against every vertex of each: the vertex
    # found gives the largest cross product with its edge, and one of the
    # pairs of a vertex and the vertex found for its edge is a longest pair
    hulls = [np.array(lattice_hull(points), dtype=np.int64) for points in point_sets]
    size = np.array([len(h) for h in hulls])
    first = np.cumsum(size) - size
    x, y = np.concatenate(hulls).T
    ex, ey = (np.concatenate([np.roll(h[:, d], -1) - h[:, d] for h in hulls]) for d in (0, 1))
    far = _antipodes(first, size, ex, ey)
    sx, sy = spacing
    for a0, n in zip(first.tolist(), size.tolist()):
        a = np.arange(a0, a0 + n)
        assert np.all((far[a] >= a0) & (far[a] < a0 + n))
        # row: the edge from vertex a; column: vertex b
        cross = ex[a, None] * (y[a] - y[a, None]) - ey[a, None] * (x[a] - x[a, None])
        assert np.array_equal(cross[np.arange(n), far[a] - a0], cross.max(axis=1))
        length = np.hypot((x[a] - x[a, None]) * sx, (y[a] - y[a, None]) * sy)
        assert length[np.arange(n), far[a] - a0].max() == length.max()


def test_exact_8mm_box_is_large_wherever_it_sits():
    # 10 voxels at 0.8 mm are 8.0 mm: the box belongs to the >= 8 mm stratum
    # at every in-plane position, with one and the same SAD
    spacing = (0.8, 0.8, 0.8)
    sads = set()
    for i0 in range(0, 30, 3):
        for j0 in range(0, 126, 7):
            mask = np.zeros((40, 135, 2), np.uint8)
            mask[i0:i0 + 10, j0:j0 + 13, :] = 1
            vol = make_volume(mask, spacing=spacing)
            report = nm.evaluate_patient(vol, vol)
            (node, _), = report.per_node
            assert node.sad_mm >= 8.0, (i0, j0, node.sad_mm)
            assert report.dice_large is not None
            sads.add(node.sad_mm)
    assert len(sads) == 1


def test_cascading_peel_matches_oracle():
    # a strictly convex low side, then a last row reaching far lower: each
    # pass can drop only the low corner next to the ones dropped before, so
    # the low side is peeled away one line per pass
    mask = np.zeros((11, 61, 1), np.uint8)
    for i in range(10):
        mask[i, 40 + (i - 4) ** 2:61, 0] = 1
    mask[10, :, 0] = 1
    spacing = (0.9, 0.8, 1.0)
    voxels = np.argwhere(mask)
    vol = make_volume(mask, spacing=spacing)
    assert nm.measure_node(voxels, vol) == reference_measurement(voxels, vol, 0)


def test_parallel_edges_of_equal_width_tie_exactly():
    # two diagonal bands 2 voxels thick, 5 and 4 diagonal steps long, on
    # slices 0 and 1: their long edges have different lengths but one
    # direction, and the widths taken from them are the same float
    mask = np.zeros((7, 7, 2), np.uint8)
    for k, steps in enumerate((5, 4)):
        for i, j in np.ndindex(7, 7):
            mask[i, j, k] = 0 <= i - j < 2 and 0 <= i + j < 2 * steps
    voxels = np.argwhere(mask)
    vol = make_volume(mask)
    m = nm.measure_node(voxels, vol)
    assert m == reference_measurement(voxels, vol, 0)
    assert m.sad_slice_index == 0
    assert m.sad_mm == pytest.approx(1.5 * math.sqrt(2.0))


def test_equal_widths_keep_first_slice():
    vol = make_volume(EQUAL_WIDTHS)
    (m,) = nm.measure_components(nm.label_components(vol, 26), vol)
    assert m.sad_mm == pytest.approx(3.0)
    assert m.sad_slice_index == 1


def test_measure_components_empty_set():
    vol = make_volume(np.zeros((3, 3, 3), np.uint8))
    assert nm.measure_components(nm.label_components(vol, 26), vol) == []


def test_measurements_csv_format():
    from nodemetry.morphometry import measurements_to_csv
    m = nm.NodeMeasurement(1, 6.0, 12, 18.0, 339.2921, 340)
    lines = measurements_to_csv([m]).strip().splitlines()
    assert lines[0] == "component_index,voxel_count,volume_mm3,sad_mm,sad_slice_index,long_axis_mm"
    assert lines[1] == "1,340,339.2921,6.0000,12,18.0000"
