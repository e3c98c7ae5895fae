from unittest import mock

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
    # below 5% foreground the graph path runs; oracle-check it directly
    for seed in range(5):
        mask = np.random.default_rng(seed).random((32, 32, 32)) < density
        if not mask.any():
            continue
        cset = nm.label_components(mask, connectivity)
        assert np.array_equal(cset.component_of, flood_fill_components(mask, connectivity))


@pytest.mark.parametrize("connectivity", [6, 18, 26])
def test_sparse_and_dense_routes_agree(connectivity):
    from nodemetry.components import _graph_ids, _ndimage_ids, _scan_order
    for seed in range(8):
        rng = np.random.default_rng(seed)
        mask = rng.random((24, 24, 24)) < rng.uniform(0.01, 0.4)
        if not mask.any():
            continue
        keys, coords = np.flatnonzero(mask), np.argwhere(mask)
        labels, count = _scan_order(_graph_ids(keys, coords, mask.shape, connectivity))
        dense_labels, dense_count = _scan_order(_ndimage_ids(mask, coords, connectivity))
        assert count == dense_count
        assert np.array_equal(labels, dense_labels)


def test_scan_order_ranks_raw_ids_by_first_appearance():
    # both labeling routes happen to emit scan-ordered ids; the ranking must
    # not depend on that
    from nodemetry.components import _scan_order
    labels, count = _scan_order(np.array([7, 7, 2, 9, 2, 0, 7]))
    assert count == 4
    assert labels.tolist() == [1, 1, 2, 3, 2, 4, 1]


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


@pytest.mark.parametrize("route", ["sparse", "dense"])
@pytest.mark.parametrize("layout", sorted(LAYOUTS))
@settings(max_examples=40, deadline=None)
@given(mask=masks(), connectivity=st.sampled_from(components.CONNECTIVITIES))
@example(mask=np.zeros((5, 5, 5), dtype=bool), connectivity=26)
@example(mask=SINGLE, connectivity=6)
@example(mask=CORNERS, connectivity=26)
@example(mask=RUNS, connectivity=18)
def test_occupancy_scan_matches_flood_fill(route, layout, mask, connectivity):
    data = LAYOUTS[layout](mask.astype(np.uint8))
    threshold = 1.0 if route == "sparse" else 0.0  # force the route under test
    with mock.patch.object(components, "_SPARSE_DENSITY", threshold):
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
