import math
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import nodemetry as nm
from hypothesis.extra import numpy as hnp
from nodemetry.metrics import (BCE_CLAMP, _bce_arrays, _pair_overlaps, _shared_keys,
                               _soft_dice_arrays, class_loss)
from conftest import make_volume
from oracles import naive_composite_loss, naive_dice, naive_evaluate, naive_pair_overlaps


def binvol(data, spacing=(1.0, 1.0, 1.0)):
    return make_volume(np.asarray(data, dtype=np.uint8), spacing, kind="label")


# -- dice ----------------------------------------------------------------------

def test_dice_identical():
    a = binvol(np.ones((4, 4, 4)))
    assert nm.dice(a, a) == 1.0


def test_dice_disjoint():
    a = np.zeros((4, 4, 4)); a[0] = 1
    b = np.zeros((4, 4, 4)); b[2] = 1
    assert nm.dice(binvol(a), binvol(b)) == 0.0


def test_dice_half_overlap():
    a = np.zeros((10, 10, 2)); a.ravel()[:100] = 1
    b = np.zeros((10, 10, 2)); b.ravel()[50:150] = 1
    assert nm.dice(binvol(a), binvol(b)) == pytest.approx(2 * 50 / 200)


def test_dice_both_empty():
    a = binvol(np.zeros((3, 3, 3)))
    assert nm.dice(a, a) == 1.0


def test_dice_symmetry_random(rng):
    for _ in range(10):
        a = binvol((rng.random((6, 6, 6)) < 0.4).astype(np.uint8))
        b = binvol((rng.random((6, 6, 6)) < 0.4).astype(np.uint8))
        assert nm.dice(a, b) == nm.dice(b, a)
        assert nm.dice(a, b) == pytest.approx(naive_dice(a.data, b.data))


def test_dice_grid_mismatch():
    with pytest.raises(nm.GridMismatchError):
        nm.dice(binvol(np.zeros((2, 2, 2))), binvol(np.zeros((2, 2, 3))))


# -- soft dice -------------------------------------------------------------------

def test_soft_dice_perfect():
    g = np.zeros((4, 4, 4)); g[1:3] = 1
    prob = make_volume(g.astype(np.float32), kind="scalar")
    assert nm.soft_dice(prob, binvol(g)) == pytest.approx(1.0, abs=1e-4)


def test_soft_dice_all_zero_prob():
    g = np.ones((4, 4, 4))
    prob = make_volume(np.zeros((4, 4, 4), np.float32), kind="scalar")
    assert nm.soft_dice(prob, binvol(g)) == pytest.approx(0.0, abs=1e-4)


def test_soft_dice_uniform_half():
    g = np.zeros((4, 4, 4)); g.ravel()[:32] = 1  # half of 64 voxels
    prob = make_volume(np.full((4, 4, 4), 0.5, np.float32), kind="scalar")
    assert nm.soft_dice(prob, binvol(g)) == pytest.approx(0.5, abs=1e-3)


def test_soft_dice_validates_range():
    bad = make_volume(np.full((2, 2, 2), 1.5, np.float32), kind="scalar")
    with pytest.raises(nm.ValidationError):
        nm.soft_dice(bad, binvol(np.zeros((2, 2, 2))))


def test_soft_dice_rejects_nan():
    p = np.full((2, 2, 2), 0.5, np.float32)
    p[1, 1, 1] = np.nan
    with pytest.raises(nm.ValidationError, match="NaN"):
        nm.soft_dice(make_volume(p, kind="scalar"), binvol(np.zeros((2, 2, 2))))


def test_soft_dice_converges_to_dice(rng):
    # on 0/1-valued probabilities the two differ by at most eps
    for _ in range(10):
        a = (rng.random((5, 5, 5)) < 0.5).astype(np.float32)
        b = (rng.random((5, 5, 5)) < 0.5).astype(np.uint8)
        hard = nm.dice(binvol(a.astype(np.uint8)), binvol(b))
        soft = nm.soft_dice(make_volume(a, kind="scalar"), binvol(b))
        assert abs(soft - hard) <= 1e-5 + 1e-9


# -- composite loss ---------------------------------------------------------------

def onehot_probs(labels, n_classes):
    probs = np.zeros(labels.shape + (n_classes,), np.float32)
    for c in range(n_classes):
        probs[..., c] = labels == c
    return probs


def test_loss_perfect_prediction():
    rng = np.random.default_rng(7)
    labels = rng.integers(0, 3, (6, 6, 6)).astype(np.uint8)
    probs = make_volume(onehot_probs(labels, 3), kind="probability")
    gt = make_volume(labels, kind="label", class_count=3)
    assert nm.composite_loss(probs, gt) <= 2e-4


def test_bce_at_half_is_ln2(rng):
    p = np.full((4, 4, 4), 0.5)
    for g in [np.zeros((4, 4, 4)), np.ones((4, 4, 4)),
              (rng.random((4, 4, 4)) < 0.5).astype(float)]:
        assert _bce_arrays(p, g) == pytest.approx(math.log(2.0), abs=1e-6)


def test_loss_uniform_two_class():
    labels = np.zeros((4, 4, 4), np.uint8); labels[:2] = 1
    probs = make_volume(np.full((4, 4, 4, 2), 0.5, np.float32), kind="probability")
    gt = make_volume(labels, kind="label", class_count=2)
    loss = nm.composite_loss(probs, gt)
    # per class: BCE = ln 2, soft dice of p=0.5 vs half-full gt ~ 0.5
    assert loss == pytest.approx(math.log(2.0) + 0.5, abs=1e-3)


@pytest.mark.parametrize("seed", range(5))
def test_loss_matches_naive_oracle(seed):
    rng = np.random.default_rng(seed)
    n_classes = int(rng.integers(2, 5))
    raw = rng.random((8, 8, 8, n_classes))
    probs_arr = (raw / raw.sum(axis=3, keepdims=True)).astype(np.float64)
    labels = rng.integers(0, n_classes, (8, 8, 8)).astype(np.uint8)
    probs = make_volume(probs_arr, kind="probability")
    gt = make_volume(labels, kind="label", class_count=n_classes)
    mine = nm.composite_loss(probs, gt)
    ref = naive_composite_loss(probs_arr, labels)
    assert mine == pytest.approx(ref, abs=1e-6)
    assert mine >= 0.0


@pytest.mark.parametrize("order", ["C", "F"])
def test_loss_of_float32_stack_equals_whole_stack_float64(order):
    # one class grid at a time in float64 gives the bits of the whole stack
    # upcast once, so loss.json stays byte-identical
    rng = np.random.default_rng(11)
    raw = rng.random((9, 7, 5, 6))
    probs_arr = np.asarray(raw / raw.sum(axis=3, keepdims=True), np.float32, order=order)
    labels = rng.integers(0, 6, (9, 7, 5)).astype(np.uint8)
    gt = make_volume(labels, kind="label", class_count=6)
    whole = probs_arr.astype(np.float64)
    ref = 0.0
    for c in range(6):
        g = (labels == c).astype(np.float64)
        ref += _bce_arrays(whole[..., c], g) + (1.0 - _soft_dice_arrays(whole[..., c], g))
    ref /= 6
    assert nm.composite_loss(make_volume(probs_arr, kind="probability"), gt) == ref


@settings(max_examples=300, deadline=None)
@given(p=hnp.arrays(np.float32, st.tuples(*[st.integers(1, 7)] * 3),
                    elements=st.sampled_from([0.0, 1.0, BCE_CLAMP, 1 - BCE_CLAMP, 0.5])
                    | st.floats(0.0, 1.0, width=32)),
       order=st.sampled_from("CF"), data=st.data())
def test_class_loss_has_the_bits_of_the_float64_onehot_terms(p, order, data):
    # class_loss works on a bool onehot and in place; its value must be the
    # one of _bce_arrays + (1 - _soft_dice_arrays) on float64 grids, bit for
    # bit, at the clamp's ends and at exact 0 and 1 too. The grids share a
    # memory layout, as a stack's class grid and its gt read from files do
    # (with two layouts, the sums' order follows numpy's choice of layout)
    p = np.asarray(p, order=order)
    labels = np.asarray(data.draw(hnp.arrays(np.uint8, p.shape, elements=st.integers(0, 2))),
                        order=order)
    p64 = p.astype(np.float64)
    for c in range(3):
        g = (labels == c).astype(np.float64)
        assert class_loss(p, labels, c) == _bce_arrays(p64, g) + (1.0 - _soft_dice_arrays(p64, g))


def test_loss_class_count_mismatch():
    probs = make_volume(onehot_probs(np.zeros((2, 2, 2), np.uint8), 3), kind="probability")
    gt = make_volume(np.zeros((2, 2, 2), np.uint8), kind="label", class_count=4)
    with pytest.raises(nm.ValidationError):
        nm.composite_loss(probs, gt)


# -- stratify ---------------------------------------------------------------------

def meas(sad):
    return nm.NodeMeasurement(0, sad, 0, sad, 1.0, 1)


def test_stratify_threshold_inclusive():
    large, small = nm.stratify([meas(10.0), meas(8.0), meas(7.999)], 8.0)
    assert [m.sad_mm for m in large] == [10.0, 8.0]
    assert [m.sad_mm for m in small] == [7.999]


def test_stratify_is_partition(rng):
    ms = [meas(float(s)) for s in rng.uniform(1, 20, 30)]
    large, small = nm.stratify(ms)
    assert len(large) + len(small) == len(ms)
    assert set(id(m) for m in large).isdisjoint(id(m) for m in small)


def test_stratify_bad_threshold():
    for threshold in (0.0, -3.0, math.nan, math.inf):
        with pytest.raises(nm.ValidationError):
            nm.stratify([], threshold)


# -- evaluate_patient ---------------------------------------------------------------

@pytest.mark.parametrize("options", [{"threshold_mm": math.nan}, {"threshold_mm": 0.0},
                                     {"match_min_overlap": math.nan},
                                     {"match_min_overlap": 1.5}, {"threshold_mm": math.inf}])
def test_evaluate_checks_options_before_labeling(monkeypatch, options):
    import nodemetry.metrics as metrics
    calls = []
    monkeypatch.setattr(metrics, "label_components", lambda *a: calls.append(a))
    gt = binvol(two_node_scene())
    with pytest.raises(nm.ValidationError):
        nm.evaluate_patient(gt, gt, **options)
    assert calls == []


def two_node_scene():
    """One large node (13 voxel in-plane diameter -> SAD 13) and one small (3)."""
    gt = np.zeros((40, 40, 12), np.uint8)
    gt[5:18, 5:18, 4:7] = 1     # 13x13x3 block: SAD 13 mm
    gt[30:33, 30:33, 4:6] = 1   # 3x3x2 block: SAD 3 mm
    return gt


def test_evaluate_identical_prediction():
    gt = binvol(two_node_scene())
    rep = nm.evaluate_patient(gt, gt, threshold_mm=8.0, patient_id="p0")
    assert rep.dice_all == 1.0
    assert rep.dice_large == 1.0
    assert rep.dice_small == 1.0
    assert rep.gt_node_count == 2
    assert rep.detected_count == 2
    assert rep.unmatched_pred_count == 0
    assert all(d == 1.0 for _, d in rep.per_node)


def test_evaluate_pred_covers_only_large_node():
    gt_arr = two_node_scene()
    pred = np.zeros_like(gt_arr)
    pred[5:18, 5:18, 4:7] = 1  # exactly the large node
    rep = nm.evaluate_patient(binvol(gt_arr), binvol(pred))
    v_large = 13 * 13 * 3
    v_small = 3 * 3 * 2
    assert rep.dice_large == 1.0
    assert rep.dice_small == 0.0
    assert rep.dice_all == pytest.approx(2 * v_large / (2 * v_large + v_small))
    assert rep.detected_count == 1
    assert rep.unmatched_pred_count == 0


def test_evaluate_unmatched_prediction_component():
    gt_arr = two_node_scene()
    pred = gt_arr.copy()
    pred[25:27, 5:7, 8:10] = 1  # spurious blob disjoint from GT
    rep = nm.evaluate_patient(binvol(gt_arr), binvol(pred))
    assert rep.detected_count == 2
    assert rep.unmatched_pred_count == 1
    assert rep.dice_all < 1.0
    n_gt = int(gt_arr.sum())
    n_pred = int(pred.sum())
    assert rep.dice_all == pytest.approx(2 * n_gt / (n_gt + n_pred))


def test_evaluate_no_gt_nodes():
    empty = binvol(np.zeros((8, 8, 8)))
    pred = np.zeros((8, 8, 8)); pred[2:4, 2:4, 2:4] = 1
    rep = nm.evaluate_patient(empty, binvol(pred))
    assert rep.gt_node_count == 0
    assert rep.dice_large is None and rep.dice_small is None
    assert rep.dice_all == 0.0
    assert rep.unmatched_pred_count == 1


def test_evaluate_min_overlap_fraction():
    gt_arr = np.zeros((20, 20, 6), np.uint8)
    gt_arr[2:12, 2:12, 2:4] = 1  # 10x10x2 node, SAD 10
    pred = np.zeros_like(gt_arr)
    pred[10:14, 10:14, 2:4] = 1  # 4x4x2 blob, only 2x2x2 inside the node
    loose = nm.evaluate_patient(binvol(gt_arr), binvol(pred), match_min_overlap=0.0)
    strict = nm.evaluate_patient(binvol(gt_arr), binvol(pred), match_min_overlap=0.5)
    assert loose.unmatched_pred_count == 0
    assert strict.unmatched_pred_count == 1  # 8/32 < 0.5 of the predicted blob
    assert loose.detected_count == strict.detected_count == 1  # detection is any-overlap
    assert strict.dice_large == 0.0 and loose.dice_large > 0.0


def test_evaluate_stratum_union_consistency(rng):
    # union of stratum GT masks equals the full GT mask: sizes add up
    gt_arr = two_node_scene()
    rep = nm.evaluate_patient(binvol(gt_arr), binvol(gt_arr))
    total = sum(m.voxel_count for m, _ in rep.per_node)
    assert total == int(gt_arr.sum())
    large, small = nm.stratify([m for m, _ in rep.per_node])
    assert sum(m.voxel_count for m in large) + sum(m.voxel_count for m in small) == total


@st.composite
def mask_pairs(draw):
    """Two masks on one small grid, each with scattered voxels and one box."""
    shape = draw(st.tuples(*[st.integers(1, 8)] * 3))
    pair = []
    for _ in range(2):
        mask = np.zeros(shape, dtype=np.uint8)
        size = mask.size
        mask.ravel()[sorted(draw(st.sets(st.integers(0, size - 1), max_size=20)))] = 1
        lo = [draw(st.integers(0, n - 1)) for n in shape]
        hi = [draw(st.integers(a, n)) for a, n in zip(lo, shape)]
        mask[lo[0]:hi[0], lo[1]:hi[1], lo[2]:hi[2]] = 1
        pair.append(mask)
    return pair


LEFT = np.zeros((8, 6, 6), np.uint8)
LEFT[0:3, 1:4, 1:4] = 1
RIGHT = np.zeros_like(LEFT)
RIGHT[5:8, 2:5, 0:3] = 1


@settings(max_examples=150, deadline=None)
@given(pair=mask_pairs(), connectivity=st.sampled_from((6, 18, 26)))
@example(pair=[LEFT, RIGHT], connectivity=26)                 # disjoint bounding boxes
@example(pair=[LEFT, np.zeros_like(LEFT)], connectivity=26)   # empty prediction
@example(pair=[np.zeros_like(LEFT), RIGHT], connectivity=6)   # empty ground truth
def test_pair_overlaps_match_dense_count(pair, connectivity):
    gt, pred = pair
    # the two sets come from different memory layouts; their keys must agree
    gt_set = nm.label_components(np.asfortranarray(gt), connectivity)
    pred_set = nm.label_components(np.ascontiguousarray(pred), connectivity)
    expected = Counter()
    for idx in np.argwhere((gt != 0) & (pred != 0)):
        i, j, k = idx
        expected[(int(gt_set.component_of[i, j, k]), int(pred_set.component_of[i, j, k]))] += 1
    gt_ids, pred_ids, counts = _pair_overlaps(gt_set, pred_set)
    assert len(gt_ids) == len(pred_ids) == len(counts)
    got = {(int(i), int(j)): int(c) for i, j, c in zip(gt_ids, pred_ids, counts)}
    assert got == dict(expected)
    assert list(got) == sorted(got)  # rows come sorted by (gt, pred)


@st.composite
def keyed_sets(draw):
    """A component set's keys and ids: sorted unique keys, perhaps none, each
    with an id in 1..count."""
    top = draw(st.integers(0, 300))
    keys = np.array(sorted(draw(st.sets(st.integers(0, top), max_size=80))), np.int64)
    count = draw(st.integers(1, 6))
    labels = draw(st.lists(st.integers(1, count), min_size=len(keys), max_size=len(keys)))
    return SimpleNamespace(keys=keys, labels=np.array(labels, np.uint8), count=count)


def _keyed(keys, count=1):
    keys = np.array(keys, np.int64)
    return SimpleNamespace(keys=keys, labels=np.ones(len(keys), np.uint8), count=count)


# at least 300 examples; more under --hypothesis-profile=ci
@settings(max_examples=max(300, settings().max_examples), deadline=None)
@given(gt=keyed_sets(), pred=keyed_sets())
@example(gt=_keyed([]), pred=_keyed([]))
@example(gt=_keyed([3, 9]), pred=_keyed([]))
@example(gt=_keyed([]), pred=_keyed([0, 7]))
@example(gt=_keyed([2, 5, 40]), pred=_keyed([5, 6]))   # keys past the other's last
@example(gt=_keyed([0, 1, 2]), pred=_keyed([0, 1, 2]))
def test_pair_overlaps_match_intersect1d(gt, pred):
    _, gi, pj = np.intersect1d(gt.keys, pred.keys, assume_unique=True, return_indices=True)
    shared = _shared_keys(gt.keys, pred.keys)
    assert np.array_equal(shared[0], gi) and np.array_equal(shared[1], pj)
    gt_ids, pred_ids, counts = _pair_overlaps(gt, pred)
    got = {(int(i), int(j)): int(c) for i, j, c in zip(gt_ids, pred_ids, counts)}
    assert got == naive_pair_overlaps(gt.keys, gt.labels, pred.keys, pred.labels)
    assert list(got) == sorted(got)


@settings(max_examples=200, deadline=None)
@given(pair=mask_pairs(), connectivity=st.sampled_from((6, 18, 26)),
       match_min_overlap=st.sampled_from((0.0, 0.1, 0.5, 1.0)),
       threshold_mm=st.sampled_from((1.0, 1.5, 2.5, 8.0)))
@example(pair=[LEFT, RIGHT], connectivity=26, match_min_overlap=0.0, threshold_mm=8.0)
@example(pair=[np.zeros_like(LEFT), RIGHT], connectivity=6, match_min_overlap=0.5,
         threshold_mm=2.5)
def test_evaluate_patient_matches_naive_oracle(pair, connectivity, match_min_overlap,
                                               threshold_mm):
    gt, pred = pair
    report = nm.evaluate_patient(binvol(gt), binvol(pred), threshold_mm=threshold_mm,
                                 connectivity=connectivity,
                                 match_min_overlap=match_min_overlap, patient_id="p")
    measurements = nm.measure_components(nm.label_components(gt, connectivity), binvol(gt))
    expected = nm.PatientReport("p", **naive_evaluate(gt, pred, measurements, threshold_mm,
                                                      connectivity, match_min_overlap))
    # repr compares every field exactly, Python float against NumPy scalar too
    assert repr(report) == repr(expected)


# -- aggregate ---------------------------------------------------------------------

def fake_report(pid, d_all, d_large=None, d_small=None):
    return nm.PatientReport(pid, d_all, d_large, d_small, (), 0, 0, 0)


def test_aggregate_single_report():
    cohort = nm.aggregate([fake_report("a", 0.7, 0.9, 0.4)])
    assert cohort.strata["all"].mean == pytest.approx(0.7)
    assert cohort.strata["all"].std is None
    assert cohort.strata["all"].n == 1


def test_aggregate_population_std():
    cohort = nm.aggregate([fake_report("a", 0.6), fake_report("b", 0.8)])
    assert cohort.strata["all"].mean == pytest.approx(0.70)
    assert cohort.strata["all"].std == pytest.approx(0.10)


def test_aggregate_partial_stratum():
    reports = [fake_report("a", 0.5, 0.8, None),
               fake_report("b", 0.6, None, 0.2),
               fake_report("c", 0.7, 0.6, 0.4)]
    cohort = nm.aggregate(reports)
    assert cohort.strata["large"].n == 2
    assert cohort.strata["small"].n == 2
    assert cohort.strata["all"].n == 3
    assert cohort.strata["large"].mean == pytest.approx(0.7)


def test_aggregate_empty_stratum_absent():
    cohort = nm.aggregate([fake_report("a", 0.5)])
    assert cohort.strata["large"].mean is None
    assert cohort.strata["large"].n == 0


def test_aggregate_permutation_invariant(rng):
    reports = [fake_report(f"p{i}", float(rng.random()), float(rng.random()), None)
               for i in range(6)]
    a = nm.aggregate(reports)
    order = rng.permutation(len(reports))
    b = nm.aggregate([reports[i] for i in order])
    assert a == b


def test_aggregate_empty_input():
    with pytest.raises(nm.ValidationError):
        nm.aggregate([])


def test_loss_needs_a_probability_volume():
    labels = make_volume(np.zeros((3, 3, 2), np.uint8), kind="label", class_count=2)
    with pytest.raises(nm.ValidationError) as err:
        nm.composite_loss(labels, labels)
    assert str(err.value) == "composite_loss needs a probability volume"
