import numpy as np
import pytest

import nodemetry as nm
from conftest import make_volume
from oracles import naive_majority, naive_mean_probs


def prob_volume(arr):
    return make_volume(np.asarray(arr, dtype=np.float32), kind="probability")


def random_prob(rng, shape=(4, 4, 3), n_classes=3):
    raw = rng.random(shape + (n_classes,))
    return prob_volume(raw / raw.sum(axis=3, keepdims=True))


def random_labels(rng, shape=(4, 4, 3), n_classes=4):
    return make_volume(rng.integers(0, n_classes, shape).astype(np.uint8),
                       kind="label", class_count=n_classes)


def test_single_fold_identity(rng):
    v = random_prob(rng)
    out = nm.average_probabilities(nm.FoldSet((v,), "probability"))
    assert np.allclose(out.data, v.data)
    lab = random_labels(rng)
    vote = nm.majority_vote(nm.FoldSet((lab,), "label"))
    assert np.array_equal(vote.data, lab.data)


def test_average_example_point():
    a = np.zeros((1, 1, 1, 3), np.float32); a[0, 0, 0] = [0.5, 0.3, 0.2]
    b = np.zeros((1, 1, 1, 3), np.float32); b[0, 0, 0] = [0.2, 0.2, 0.6]
    out = nm.average_probabilities(nm.FoldSet((prob_volume(a), prob_volume(b)), "probability"))
    assert out.data[0, 0, 0, 2] == pytest.approx(0.4)


def test_average_keeps_distributions_valid(rng):
    folds = tuple(random_prob(rng, (5, 5, 4), 5) for _ in range(5))
    out = nm.average_probabilities(nm.FoldSet(folds, "probability"))
    sums = out.data.sum(axis=3)
    assert np.abs(sums - 1.0).max() < 1e-5


@pytest.mark.parametrize("order", ["C", "F"])
def test_average_keeps_the_members_layout(rng, order):
    # a class-major (F) stack gives contiguous class grids that reach the
    # writer without a copy; the values do not depend on the layout
    folds = [random_prob(rng, (5, 4, 3), 4) for _ in range(3)]
    ref = nm.average_probabilities(nm.FoldSet(tuple(folds), "probability"))
    laid = tuple(make_volume(np.asarray(f.data, order=order), kind="probability") for f in folds)
    out = nm.average_probabilities(nm.FoldSet(laid, "probability"))
    assert out.data.flags[f"{order}_CONTIGUOUS"]
    assert np.array_equal(out.data, ref.data)


def test_average_matches_naive(rng):
    folds = tuple(random_prob(rng, (3, 3, 2), 3) for _ in range(5))
    out = nm.average_probabilities(nm.FoldSet(folds, "probability"))
    ref = naive_mean_probs([f.data for f in folds])
    assert np.allclose(out.data, ref, atol=1e-6)


def test_argmax_one_hot():
    labels = np.random.default_rng(0).integers(0, 3, (4, 4, 2)).astype(np.uint8)
    probs = np.zeros(labels.shape + (3,), np.float32)
    for c in range(3):
        probs[..., c] = labels == c
    out = nm.argmax_labels(prob_volume(probs))
    assert np.array_equal(out.data, labels)
    assert out.kind == "label"


def test_argmax_tie_breaks_to_smallest():
    probs = np.zeros((1, 1, 2, 3), np.float32)
    probs[0, 0, 0] = [0.4, 0.4, 0.2]
    probs[0, 0, 1] = [1 / 3, 1 / 3, 1 / 3]
    out = nm.argmax_labels(prob_volume(probs))
    assert out.data[0, 0, 0] == 0
    assert out.data[0, 0, 1] == 0


def test_majority_vote_mode():
    votes = [2, 2, 2, 7, 0]
    folds = tuple(
        make_volume(np.full((1, 1, 1), v, np.uint8), kind="label", class_count=8)
        for v in votes
    )
    out = nm.majority_vote(nm.FoldSet(folds, "label"))
    assert out.data[0, 0, 0] == 2


def test_majority_vote_tie_to_smallest():
    votes = [1, 1, 3, 3]
    folds = tuple(
        make_volume(np.full((1, 1, 1), v, np.uint8), kind="label", class_count=4)
        for v in votes
    )
    out = nm.majority_vote(nm.FoldSet(folds, "label"))
    assert out.data[0, 0, 0] == 1


def test_majority_vote_matches_naive(rng):
    folds = tuple(random_labels(rng, (4, 4, 4), 5) for _ in range(5))
    out = nm.majority_vote(nm.FoldSet(folds, "label"))
    ref = naive_majority([f.data for f in folds], 5)
    assert np.array_equal(out.data, ref)


def test_all_identical_folds():
    lab = random_labels(np.random.default_rng(5))
    out = nm.majority_vote(nm.FoldSet((lab, lab, lab), "label"))
    assert np.array_equal(out.data, lab.data)


def test_permutation_invariance(rng):
    probs = tuple(random_prob(rng) for _ in range(5))
    labels = tuple(random_labels(rng) for _ in range(5))
    base_p = nm.average_probabilities(nm.FoldSet(probs, "probability"))
    base_l = nm.majority_vote(nm.FoldSet(labels, "label"))
    for _ in range(10):
        order = rng.permutation(5)
        p = nm.average_probabilities(nm.FoldSet(tuple(probs[i] for i in order), "probability"))
        l = nm.majority_vote(nm.FoldSet(tuple(labels[i] for i in order), "label"))
        assert np.allclose(p.data, base_p.data, atol=1e-7)
        assert np.array_equal(l.data, base_l.data)


def test_idempotence_on_copies(rng):
    v = random_prob(rng)
    out = nm.average_probabilities(nm.FoldSet((v,) * 5, "probability"))
    assert np.allclose(out.data, v.data, atol=1e-7)


def test_paths_can_disagree():
    # majority of per-fold argmax differs from argmax of the averaged probs
    f1 = np.zeros((1, 1, 1, 2), np.float32); f1[0, 0, 0] = [0.9, 0.1]
    f2 = np.zeros((1, 1, 1, 2), np.float32); f2[0, 0, 0] = [0.4, 0.6]
    f3 = np.zeros((1, 1, 1, 2), np.float32); f3[0, 0, 0] = [0.4, 0.6]
    folds = nm.FoldSet(tuple(prob_volume(f) for f in (f1, f2, f3)), "probability")
    via_mean = nm.argmax_labels(nm.average_probabilities(folds))
    label_folds = nm.FoldSet(tuple(nm.argmax_labels(v) for v in folds.members), "label")
    via_vote = nm.majority_vote(label_folds)
    assert via_mean.data[0, 0, 0] == 0  # mean = (0.567, 0.433)
    assert via_vote.data[0, 0, 0] == 1  # votes 0, 1, 1


def test_mixed_kinds_rejected(rng):
    with pytest.raises(nm.ValidationError):
        nm.FoldSet((random_prob(rng), random_labels(rng)), "probability")


def test_empty_foldset_rejected():
    with pytest.raises(nm.ValidationError):
        nm.FoldSet((), "label")


def test_grid_mismatch_rejected(rng):
    a = random_labels(rng, (4, 4, 3))
    b = random_labels(rng, (4, 4, 4))
    with pytest.raises(nm.GridMismatchError):
        nm.FoldSet((a, b), "label")


def test_kind_mismatch_operations(rng):
    labels = nm.FoldSet((random_labels(rng),), "label")
    with pytest.raises(nm.ValidationError):
        nm.average_probabilities(labels)
    probs = nm.FoldSet((random_prob(rng),), "probability")
    with pytest.raises(nm.ValidationError):
        nm.majority_vote(probs)


@pytest.mark.parametrize("layout", ["class-major", "C"])
def test_argmax_equals_np_argmax_with_ties(rng, layout):
    # small integer weights make many voxels tie between classes
    weights = rng.integers(0, 4, (9, 7, 5, 6)).astype(np.float32)
    weights[..., 0] += weights.sum(axis=3) == 0
    weights[0, 0, 0] = 1.0  # one voxel where every class ties
    probs = weights / weights.sum(axis=3, keepdims=True)
    top = np.sort(probs, axis=3)
    assert (top[..., -1] == top[..., -2]).sum() > 50
    stack = np.empty(probs.shape, np.float32, order="F" if layout == "class-major" else "C")
    stack[...] = probs
    out = nm.argmax_labels(prob_volume(stack))
    assert out.data.dtype == np.uint8
    assert np.array_equal(out.data, np.argmax(stack, axis=3))
