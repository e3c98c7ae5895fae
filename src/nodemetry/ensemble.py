"""Cross-validation fold ensembling: probability averaging and majority vote.

Probability averaging is the primary path; majority vote covers prediction
dumps that only contain discrete labels. Both are order-independent and
idempotent on identical folds. The two paths may disagree on individual
voxels, which is inherent to the reductions, not a defect.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .volume import Volume, assert_same_grid, label_dtype


@dataclass(frozen=True)
class FoldSet:
    """Per-fold predictions on one grid, all probability or all label."""

    members: tuple[Volume, ...]
    kind: str

    def __post_init__(self):
        if not self.members:
            raise ValidationError("fold set needs at least one member")
        if self.kind not in ("probability", "label"):
            raise ValidationError(f"fold set kind must be probability or label, got {self.kind!r}")
        for vol in self.members:
            if vol.kind != self.kind:
                raise ValidationError(
                    f"mixed fold kinds: expected {self.kind}, found {vol.kind}"
                )
        first = self.members[0]
        for vol in self.members[1:]:
            assert_same_grid(first, vol)
        if self.kind == "probability":
            shapes = {v.data.shape[3] for v in self.members}
            if len(shapes) > 1:
                raise ValidationError(f"folds disagree on class count: {sorted(shapes)}")
        else:
            counts = {v.class_count for v in self.members if v.class_count is not None}
            if len(counts) > 1:
                raise ValidationError(f"folds disagree on class count: {sorted(counts)}")

    def __len__(self) -> int:
        return len(self.members)


def average_probabilities(folds: FoldSet) -> Volume:
    """Per-voxel, per-class arithmetic mean of the fold probabilities."""
    if folds.kind != "probability":
        raise ValidationError("average_probabilities needs probability folds")
    mean = fold_mean([v.data for v in folds.members])
    return folds.members[0].with_data(mean, kind="probability")


def fold_mean(grids) -> np.ndarray:
    """The per-voxel mean of same-shaped probability grids, added in float64
    in the order given, clipped to [0, 1] and cast back to their precision:
    averaging a single fold (or k copies) reproduces it bit-for-bit. Its
    memory layout is the first grid's, so a class slice of a class-major stack
    stays one contiguous grid through the mean."""
    acc = np.zeros_like(grids[0], dtype=np.float64)
    for grid in grids:
        acc += grid
    acc /= len(grids)
    np.clip(acc, 0.0, 1.0, out=acc)  # in place: no second float64 grid
    return acc.astype(np.result_type(*(g.dtype for g in grids)))


def argmax_labels(probs: Volume) -> Volume:
    """Discrete prediction: per-voxel class of maximal probability.

    Ties break toward the smallest class id (conservative: background is 0).
    """
    if probs.kind != "probability":
        raise ValidationError("argmax_labels needs a probability volume")
    # np.argmax picks the first maximum, on any memory layout
    labels = np.argmax(probs.data, axis=3).astype(label_dtype(probs.class_count))
    return probs.with_data(labels, kind="label", class_count=probs.class_count)


def take_larger(best: np.ndarray, labels: np.ndarray, grid: np.ndarray, c: int) -> None:
    """One step of a running argmax over class grids in ascending id order:
    where grid beats best, labels takes c and best takes grid's value. The
    strict > keeps the first maximum, as np.argmax does (probabilities are
    never NaN)."""
    better = grid > best
    labels[better] = c
    np.maximum(best, grid, out=best)


def majority_vote(folds: FoldSet) -> Volume:
    """Per-voxel modal class across label folds, ties toward the smallest id."""
    if folds.kind != "label":
        raise ValidationError("majority_vote needs label folds")
    first = folds.members[0]
    class_count = first.class_count
    if class_count is None:
        class_count = int(max(int(v.data.max()) for v in folds.members)) + 1

    # Fortran-ordered, as the folds read from files are: each pass over a
    # fold and the counts walks both in memory order
    shape = first.dims
    best_count = np.zeros(shape, dtype=np.uint16, order="F")
    best_class = np.zeros(shape, dtype=label_dtype(class_count), order="F")
    votes = np.empty(shape, dtype=np.uint16, order="F")
    ids = range(class_count)
    if class_count > 256:  # only the ids some fold holds: no other id wins a voxel
        ids = np.unique(np.concatenate([np.unique(v.data) for v in folds.members])).tolist()
    for cid in ids:  # ascending, strict > keeps the smallest tied id
        votes[:] = 0
        for vol in folds.members:
            votes += vol.data == cid
        take_larger(best_count, best_class, votes, cid)
    return first.with_data(best_class, kind="label", class_count=class_count)
