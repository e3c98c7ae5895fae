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
from .volume import Volume, assert_same_grid


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
    # in the members' memory layout, so a class slice of a class-major
    # stack stays one contiguous grid through the mean
    acc = np.zeros_like(folds.members[0].data, dtype=np.float64)
    for vol in folds.members:
        acc += vol.data
    acc /= len(folds)
    first = folds.members[0]
    # float64 accumulation, then back to the members' precision: averaging a
    # single fold (or k copies) reproduces it bit-for-bit
    out_dtype = np.result_type(*(v.data.dtype for v in folds.members))
    np.clip(acc, 0.0, 1.0, out=acc)  # in place: no second float64 grid
    return first.with_data(acc.astype(out_dtype), kind="probability")


def argmax_labels(probs: Volume) -> Volume:
    """Discrete prediction: per-voxel class of maximal probability.

    Ties break toward the smallest class id (conservative: background is 0).
    """
    if probs.kind != "probability":
        raise ValidationError("argmax_labels needs a probability volume")
    data = probs.data
    dtype = np.uint8 if probs.class_count <= 256 else np.int32
    if data.flags.c_contiguous:
        # each voxel's classes lie side by side: one contiguous pass
        labels = np.argmax(data, axis=3).astype(dtype)  # argmax picks the first maximum
    else:
        # a class-major stack: a running maximum over its contiguous class
        # grids, where np.argmax would first copy the stack transposed;
        # ascending ids and a strict > keep the first maximum, as np.argmax
        # does (probabilities are never NaN)
        best = data[..., 0].copy(order="K")
        labels = np.zeros_like(best, dtype=dtype)
        for c in range(1, probs.class_count):
            better = data[..., c] > best
            labels[better] = c
            np.maximum(best, data[..., c], out=best)
    return probs.with_data(labels, kind="label", class_count=probs.class_count)


def majority_vote(folds: FoldSet) -> Volume:
    """Per-voxel modal class across label folds, ties toward the smallest id."""
    if folds.kind != "label":
        raise ValidationError("majority_vote needs label folds")
    first = folds.members[0]
    class_count = first.class_count
    if class_count is None:
        class_count = int(max(int(v.data.max()) for v in folds.members)) + 1

    shape = first.dims
    best_count = np.zeros(shape, dtype=np.uint16)
    best_class = np.zeros(shape, dtype=np.uint8 if class_count <= 256 else np.int32)
    votes = np.empty(shape, dtype=np.uint16)
    for cid in range(class_count):  # ascending, strict > keeps the smallest tied id
        votes[:] = 0
        for vol in folds.members:
            votes += vol.data == cid
        better = votes > best_count
        best_count[better] = votes[better]
        best_class[better] = cid
    return first.with_data(best_class, kind="label", class_count=class_count)
