import numpy as np
import pytest

import nodemetry as nm
from nodemetry.volume import canonicalize, is_canonical
from conftest import make_volume


def test_world_coords_identity_origin():
    v = make_volume(np.zeros((4, 4, 4), np.uint8))
    assert np.array_equal(nm.world_coords(v, (0, 0, 0)), [0.0, 0.0, 0.0])


def test_world_coords_spacing():
    v = make_volume(np.zeros((16, 4, 4), np.uint8), spacing=(0.8, 0.8, 1.5))
    assert np.allclose(nm.world_coords(v, (10, 0, 0)), [8.0, 0.0, 0.0])


def test_world_coords_out_of_bounds():
    v = make_volume(np.zeros((4, 4, 7), np.uint8))
    with pytest.raises(IndexError):
        nm.world_coords(v, (0, 0, 7))


def test_world_coords_is_affine(rng):
    affine = np.array([[0.9, 0.1, 0.0, 4.0],
                       [0.0, 1.2, -0.1, -3.0],
                       [0.1, 0.0, 2.0, 10.0]])
    v = nm.Volume(np.zeros((6, 6, 6), np.uint8), (1, 1, 1), affine, kind="label")
    # world(a + b) - world(a) does not depend on a
    b = (1, 2, 3)
    deltas = []
    for a in [(0, 0, 0), (1, 1, 1), (2, 3, 0)]:
        ab = tuple(x + y for x, y in zip(a, b))
        deltas.append(nm.world_coords(v, ab) - nm.world_coords(v, a))
    assert np.allclose(deltas[0], deltas[1]) and np.allclose(deltas[0], deltas[2])


def test_same_grid_self():
    v = make_volume(np.zeros((4, 5, 6), np.uint8))
    nm.assert_same_grid(v, v)


def test_same_grid_dims_mismatch_names_axis():
    a = make_volume(np.zeros((4, 4, 241), np.uint8))
    b = make_volume(np.zeros((4, 4, 242), np.uint8))
    with pytest.raises(nm.GridMismatchError, match="axis 2"):
        nm.assert_same_grid(a, b)


def test_same_grid_tolerates_tiny_spacing_drift():
    a = make_volume(np.zeros((4, 4, 4), np.uint8), spacing=(1.0, 1.0, 1.0))
    b = make_volume(np.zeros((4, 4, 4), np.uint8), spacing=(1.0 + 1e-6, 1.0, 1.0))
    nm.assert_same_grid(a, b)


def test_same_grid_rejects_real_spacing_mismatch():
    a = make_volume(np.zeros((4, 4, 4), np.uint8), spacing=(1.0, 1.0, 1.0))
    b = make_volume(np.zeros((4, 4, 4), np.uint8), spacing=(1.1, 1.0, 1.0))
    with pytest.raises(nm.GridMismatchError, match="spacing"):
        nm.assert_same_grid(a, b)


def test_same_grid_rejects_affine_mismatch():
    a = make_volume(np.zeros((4, 4, 4), np.uint8))
    affine = a.affine.copy()
    affine[1, 3] += 5.0
    b = nm.Volume(a.data, a.spacing, affine, kind="label")
    with pytest.raises(nm.GridMismatchError, match="affine"):
        nm.assert_same_grid(a, b)


def test_volume_immutable():
    v = make_volume(np.zeros((3, 3, 3), np.uint8))
    with pytest.raises(ValueError):
        v.data[0, 0, 0] = 1


def test_probability_validation():
    good = np.zeros((2, 2, 2, 3), np.float32)
    good[..., 0] = 1.0
    nm.Volume(good, (1, 1, 1), nm.identity_affine((1, 1, 1)), kind="probability")
    bad = good.copy()
    bad[0, 0, 0] = [0.5, 0.2, 0.2]  # sums to 0.9
    with pytest.raises(nm.ValidationError, match="sum"):
        nm.Volume(bad, (1, 1, 1), nm.identity_affine((1, 1, 1)), kind="probability")


def test_probability_nan_rejected():
    probs = np.zeros((2, 2, 2, 2), np.float32)
    probs[..., 0] = 1.0
    probs[1, 1, 1] = [np.nan, 1.0]
    with pytest.raises(nm.ValidationError):
        nm.Volume(probs, (1, 1, 1), nm.identity_affine((1, 1, 1)), kind="probability")


def test_label_negative_rejected():
    data = np.zeros((2, 2, 2), np.int16)
    data[1, 1, 1] = -1
    with pytest.raises(nm.ValidationError, match="negative"):
        make_volume(data, kind="label")
    make_volume(data, kind="scalar")  # intensities may be negative


def test_label_class_count_enforced():
    with pytest.raises(nm.ValidationError):
        make_volume(np.full((2, 2, 2), 30, np.uint8), kind="label", class_count=30)
    make_volume(np.full((2, 2, 2), 29, np.uint8), kind="label", class_count=30)


def test_canonicalize_identity_is_noop():
    v = make_volume(np.zeros((3, 4, 5), np.uint8))
    assert canonicalize(v) is v


def _scrambled_volume(data, spacing):
    """Volume with axes stored as (z, y, x) and x flipped."""
    nx, ny, nz = data.shape
    scrambled = np.transpose(data, (2, 1, 0))[::-1, :, :].copy()  # (z, y, x), z reversed
    affine = np.zeros((3, 4))
    # voxel axis 0 runs along -z, axis 1 along +y, axis 2 along +x
    affine[2, 0] = -spacing[2]
    affine[1, 1] = spacing[1]
    affine[0, 2] = spacing[0]
    affine[2, 3] = spacing[2] * (nz - 1)
    return nm.Volume(scrambled, (spacing[2], spacing[1], spacing[0]), affine, kind="label")


def test_canonicalize_restores_axial_last(rng):
    data = (rng.random((5, 6, 7)) < 0.3).astype(np.uint8)
    spacing = (0.8, 1.0, 2.5)
    scrambled = _scrambled_volume(data, spacing)
    assert not is_canonical(scrambled)
    canon = canonicalize(scrambled)
    assert is_canonical(canon)
    assert np.array_equal(canon.data, data)
    assert canon.spacing == spacing
    # world position of every voxel is unchanged
    for idx_c, idx_s in [((0, 0, 0), (6, 0, 0)), ((4, 5, 6), (0, 5, 4)), ((2, 3, 1), (5, 3, 2))]:
        assert np.allclose(nm.world_coords(canon, idx_c), nm.world_coords(scrambled, idx_s))


def test_canonicalize_slice_convention(rng):
    # after canonicalization, slice k = voxels with third index k at world z = k * sz
    data = np.zeros((4, 4, 6), np.uint8)
    data[1, 2, 3] = 1
    scrambled = _scrambled_volume(data, (1.0, 1.0, 1.5))
    canon = canonicalize(scrambled)
    i, j, k = np.argwhere(canon.data)[0]
    assert (i, j, k) == (1, 2, 3)
    assert np.isclose(nm.world_coords(canon, (i, j, k))[2], 3 * 1.5)


@pytest.mark.parametrize("spacing", [(float("nan"), 1.0, 1.0), (1.0, float("inf"), 1.0),
                                     (1.0, 1.0, 0.0)])
def test_spacing_must_be_positive_and_finite(spacing):
    with pytest.raises(nm.ValidationError, match="spacing"):
        nm.Volume(np.zeros((2, 2, 2), np.uint8), spacing, np.eye(3, 4), kind="label")
