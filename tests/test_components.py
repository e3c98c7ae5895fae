import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import nodemetry as nm
from nodemetry import components
from conftest import make_volume
from oracles import flood_fill_components


@st.composite
def masks(draw, max_dim=9, max_voxels=60):
    """Small boolean grids, mostly sparse, with scattered foreground voxels."""
    shape = draw(st.tuples(*[st.integers(1, max_dim)] * 3))
    size = shape[0] * shape[1] * shape[2]
    flat = draw(st.sets(st.integers(0, size - 1), max_size=min(size, max_voxels)))
    mask = np.zeros(size, dtype=bool)
    mask[sorted(flat)] = True
    return mask.reshape(shape)


def _strided(mask):
    # every other plane of a twice-as-deep grid: neither C- nor F-contiguous
    big = np.zeros((2 * mask.shape[0],) + mask.shape[1:], dtype=mask.dtype)
    big[::2] = mask
    return big[::2]


LAYOUTS = {"fortran": np.asfortranarray, "c": np.ascontiguousarray, "strided": _strided}

# foreground on the first and last slab of every axis, empty slabs between
CORNERS = np.zeros((5, 6, 7), dtype=bool)
CORNERS[0, 0, 0] = CORNERS[4, 5, 6] = CORNERS[0, 5, 0] = CORNERS[4, 0, 6] = True
SINGLE = np.zeros((4, 5, 6), dtype=bool)
SINGLE[2, 3, 4] = True
# two runs of occupied slabs along both axes 0 and 2, joined across no gap
RUNS = np.zeros((9, 4, 9), dtype=bool)
RUNS[1:3, 1:3, 1:3] = RUNS[6:8, 2:4, 5:8] = RUNS[1, 0, 7] = True


def test_empty_mask():
    cset = nm.label_components(make_volume(np.zeros((8, 8, 8), np.uint8)))
    assert cset.count == 0
    assert not cset.component_of.any()
    assert cset.voxel_lists == []


def test_corner_adjacency_depends_on_connectivity():
    mask = np.zeros((4, 4, 4), np.uint8)
    mask[0, 0, 0] = 1
    mask[1, 1, 1] = 1  # shares only a corner
    assert nm.label_components(mask, 26).count == 1
    assert nm.label_components(mask, 18).count == 2
    assert nm.label_components(mask, 6).count == 2


def test_edge_adjacency():
    mask = np.zeros((4, 4, 4), np.uint8)
    mask[0, 0, 0] = 1
    mask[1, 1, 0] = 1  # shares an edge
    assert nm.label_components(mask, 26).count == 1
    assert nm.label_components(mask, 18).count == 1
    assert nm.label_components(mask, 6).count == 2


def test_bad_connectivity():
    with pytest.raises(nm.ValidationError):
        nm.label_components(np.zeros((2, 2, 2), np.uint8), 4)


@pytest.mark.parametrize("connectivity", [6, 18, 26])
@pytest.mark.parametrize("seed", range(10))
def test_matches_flood_fill_oracle(connectivity, seed):
    mask = np.random.default_rng(seed).random((32, 32, 32)) < 0.2
    cset = nm.label_components(mask, connectivity)
    expected = flood_fill_components(mask, connectivity)
    assert cset.count == expected.max()
    assert np.array_equal(cset.component_of, expected)


@pytest.mark.parametrize("connectivity", [6, 18, 26])
@pytest.mark.parametrize("density", [0.005, 0.02, 0.04])
def test_sparse_route_matches_flood_fill(connectivity, density):
    # the foreground densities of node annotations
    for seed in range(5):
        mask = np.random.default_rng(seed).random((32, 32, 32)) < density
        if not mask.any():
            continue
        cset = nm.label_components(mask, connectivity)
        assert np.array_equal(cset.component_of, flood_fill_components(mask, connectivity))


@pytest.mark.parametrize("connectivity", [6, 18, 26])
def test_random_density_matches_flood_fill(connectivity):
    for seed in range(8):
        rng = np.random.default_rng(seed)
        mask = rng.random((24, 24, 24)) < rng.uniform(0.01, 0.4)
        if not mask.any():
            continue
        cset = nm.label_components(mask, connectivity)
        expected = flood_fill_components(mask, connectivity)
        assert cset.count == expected.max()
        assert np.array_equal(cset.component_of, expected)


@pytest.mark.parametrize("connectivity", [6, 18, 26])
@pytest.mark.parametrize("end", [(1, 2, 4), (1, 3, 4)])
def test_consecutive_keys_across_a_row_end_stay_apart(connectivity, end):
    # the next C-order key after (i, j, nz-1) is (i, j+1, 0) or (i+1, 0, 0)
    mask = np.zeros((3, 4, 5), dtype=bool)
    mask[end] = True
    mask.flat[np.ravel_multi_index(end, mask.shape) + 1] = True
    assert nm.label_components(mask, connectivity).count == 2
    assert flood_fill_components(mask, connectivity).max() == 2


@pytest.mark.parametrize("connectivity", [6, 18, 26])
@pytest.mark.parametrize("row", [(0, 1), (1, 0), (1, -1), (1, 1)])
@pytest.mark.parametrize("gap", [-1, 0, 1])
@pytest.mark.parametrize("flip", [False, True])
def test_runs_of_neighbour_rows_join_by_connectivity(connectivity, row, gap, flip):
    # a run over k 0..2 and one over k 3+gap..5+gap in a neighbour row: they
    # share a k at gap -1, touch only diagonally along k at 0, and never at 1
    di, dj = row
    mask = np.zeros((2, 3, 9), dtype=bool)
    mask[0, 1, 0:3] = True
    mask[di, 1 + dj, 3 + gap:6 + gap] = True
    if flip:
        mask = mask[:, :, ::-1]
    reach = {6: 1, 18: 2, 26: 3}[connectivity]  # largest |di| + |dj| + |dk|
    joined = gap < 1 and di + abs(dj) + gap + 1 <= reach
    cset = nm.label_components(mask, connectivity)
    assert cset.count == flood_fill_components(mask, connectivity).max() == 2 - joined


def _hilbert_path(order: int) -> np.ndarray:
    """One-voxel-wide Hilbert curve of 4**order corners, two voxels apart, on
    a (2 * 2**order - 1)-square grid."""
    n = 2 ** order
    corners = []
    for d in range(n * n):
        x = y = 0
        s, t = 1, d
        while s < n:
            rx = 1 & (t // 2)
            ry = 1 & (t ^ rx)
            if ry == 0:
                if rx:
                    x, y = s - 1 - x, s - 1 - y
                x, y = y, x
            x, y, t, s = x + s * rx, y + s * ry, t // 4, 2 * s
        corners.append((2 * x, 2 * y))
    grid = np.zeros((2 * n - 1, 2 * n - 1), dtype=bool)
    for (x0, y0), (x1, y1) in zip(corners, corners[1:]):
        grid[min(x0, x1):max(x0, x1) + 1, min(y0, y1):max(y0, y1) + 1] = True
    return grid


@pytest.mark.parametrize("connectivity", [6, 18, 26])
@pytest.mark.parametrize("plane", ["ik", "ij"])
def test_hilbert_path_is_one_component(connectivity, plane):
    # scan order visits the curve out of path order, so the union-find needs
    # one hook round per curve order (4 here) before the path is one root
    grid = _hilbert_path(4)
    mask = grid[:, None, :] if plane == "ik" else grid[:, :, None]
    cset = nm.label_components(mask, connectivity)
    assert cset.count == flood_fill_components(mask, connectivity).max() == 1
    assert cset.sizes.tolist() == [int(grid.sum())]


def test_run_ids_number_components_by_first_run(rng):
    # two arms that meet on a later row form one component, numbered by its
    # first run; the lone run between them in scan order comes second
    from nodemetry.components import _run_ids
    mask = np.zeros((3, 1, 5), bool)
    mask[:2, 0, [0, 2]] = True
    mask[0, 0, 4] = True
    mask[2, 0, :3] = True
    labels, count = _run_ids(np.flatnonzero(mask), mask.shape, 6)
    assert count == 2
    assert labels.tolist() == [1, 1, 2, 1, 1, 1, 1, 1]
    for density in (0.1, 0.3):
        mask = rng.random((12, 12, 12)) < density
        labels, count = _run_ids(np.flatnonzero(mask), mask.shape, 6)
        _, first = np.unique(labels, return_index=True)
        assert labels[np.sort(first)].tolist() == list(range(1, count + 1))


def test_scan_order_and_determinism(rng):
    mask = rng.random((20, 20, 20)) < 0.1
    a = nm.label_components(mask, 26)
    b = nm.label_components(mask.copy(), 26)
    assert np.array_equal(a.component_of, b.component_of)
    # first voxels appear in ascending scan order
    firsts = [tuple(a.voxels(i)[0]) for i in range(1, a.count + 1)]
    assert firsts == sorted(firsts)


def test_voxel_lists_partition_mask(rng):
    mask = rng.random((16, 16, 16)) < 0.15
    cset = nm.label_components(mask, 26)
    seen = np.zeros(mask.shape, dtype=np.int64)
    for vox in cset.voxel_lists:
        seen[vox[:, 0], vox[:, 1], vox[:, 2]] += 1
    assert np.array_equal(seen != 0, mask)
    assert seen.max() <= 1  # pairwise disjoint
    assert sum(len(v) for v in cset.voxel_lists) == int(cset.sizes.sum())


def test_sizes_match_voxel_lists(rng):
    mask = rng.random((12, 12, 12)) < 0.25
    cset = nm.label_components(mask, 6)
    assert [len(v) for v in cset.voxel_lists] == list(cset.sizes)


def test_filter_identity():
    mask = np.random.default_rng(3).random((10, 10, 10)) < 0.1
    cset = nm.label_components(mask, 26)
    assert nm.filter_components(cset, 1) is cset


def test_filter_by_size():
    mask = np.zeros((12, 12, 4), np.uint8)
    mask[0:3, 0, 0] = 1           # 3 voxels
    mask[6:8, 5:10, 0] = 1        # 10 voxels
    cset = nm.label_components(mask, 26)
    assert sorted(cset.sizes) == [3, 10]
    kept = nm.filter_components(cset, 5)
    assert kept.count == 1
    assert list(kept.sizes) == [10]
    assert kept.component_of[6, 5, 0] == 1
    assert kept.component_of[0, 0, 0] == 0


def test_filter_zero_rejected():
    cset = nm.label_components(np.zeros((2, 2, 2), np.uint8))
    with pytest.raises(nm.ValidationError):
        nm.filter_components(cset, 0)


def test_component_index_out_of_range():
    cset = nm.label_components(np.ones((2, 2, 2), np.uint8))
    with pytest.raises(nm.ValidationError):
        cset.voxels(2)


def test_accepts_volume_and_array(rng):
    mask = rng.random((8, 8, 8)) < 0.2
    from_vol = nm.label_components(make_volume(mask.astype(np.uint8)), 26)
    from_arr = nm.label_components(mask, 26)
    assert np.array_equal(from_vol.component_of, from_arr.component_of)


@pytest.mark.parametrize("foreground", ["sparse", "dense"])
@pytest.mark.parametrize("layout", sorted(LAYOUTS))
@settings(max_examples=40, deadline=None)
@given(mask=masks(), connectivity=st.sampled_from(components.CONNECTIVITIES))
@example(mask=np.zeros((5, 5, 5), dtype=bool), connectivity=26)
@example(mask=SINGLE, connectivity=6)
@example(mask=CORNERS, connectivity=26)
@example(mask=RUNS, connectivity=18)
def test_occupancy_scan_matches_flood_fill(foreground, layout, mask, connectivity):
    if foreground == "dense":
        mask = ~mask  # mostly foreground: long runs, few gaps
    data = LAYOUTS[layout](mask.astype(np.uint8))
    cset = nm.label_components(data, connectivity)
    expected = flood_fill_components(mask, connectivity)
    assert cset.count == expected.max()
    assert np.array_equal(cset.component_of, expected)
    # carried foreground: scan order, ascending C-order keys, per-voxel ids
    assert np.array_equal(cset.coords, np.argwhere(mask))
    assert np.array_equal(cset.keys, np.flatnonzero(mask))
    assert np.array_equal(cset.labels, expected[mask])
    assert list(cset.sizes) == [int((expected == i).sum()) for i in range(1, cset.count + 1)]
    for i in range(1, cset.count + 1):
        assert np.array_equal(cset.voxels(i), np.argwhere(expected == i))


def test_filter_keeps_carried_voxels_consistent():
    mask = np.zeros((12, 12, 4), np.uint8)
    mask[0:3, 0, 0] = 1           # 3 voxels, dropped
    mask[6:8, 5:10, 0] = 1        # 10 voxels, kept
    kept = nm.filter_components(nm.label_components(mask, 26), 5)
    assert np.array_equal(kept.coords, np.argwhere(kept.component_of))
    assert np.array_equal(kept.keys, np.flatnonzero(kept.component_of))
    assert np.array_equal(kept.labels, kept.component_of[kept.component_of != 0])
    assert np.array_equal(kept.voxels(1), kept.coords)
