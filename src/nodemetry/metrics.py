"""Dice coefficient, composite loss evaluation, and SAD-stratified reports.

Per-patient evaluation labels the ground-truth mask into nodes, measures each
node's SAD, matches predicted components to the nodes they overlap, and
computes Dice three ways: over the whole mask, restricted to nodes at or above
the SAD threshold, and restricted to nodes below it. A stratum with no
ground-truth node is reported as absent, never as 0. Cohort statistics are the
per-patient mean and population standard deviation of each stratum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .components import label_components
from .errors import ValidationError
from .morphometry import NodeMeasurement, measure_components
from .volume import Volume, assert_same_grid, canonicalize

SOFT_DICE_EPS = 1e-5
BCE_CLAMP = 1e-7
DEFAULT_SAD_THRESHOLD_MM = 8.0

STRATUM_ALL = "all"
STRATUM_LARGE = "large"
STRATUM_SMALL = "small"
STRATA = (STRATUM_ALL, STRATUM_LARGE, STRATUM_SMALL)


@dataclass(frozen=True)
class PatientReport:
    """Stratified Dice and per-node results for one GT/prediction pair."""

    patient_id: str
    dice_all: float
    dice_large: float | None  # absent when no GT node reaches the threshold
    dice_small: float | None  # absent when every GT node reaches it
    per_node: tuple[tuple[NodeMeasurement, float], ...]
    gt_node_count: int
    detected_count: int
    unmatched_pred_count: int

    def stratum_value(self, stratum: str) -> float | None:
        return {STRATUM_ALL: self.dice_all, STRATUM_LARGE: self.dice_large,
                STRATUM_SMALL: self.dice_small}[stratum]


@dataclass(frozen=True)
class StratumStats:
    mean: float | None
    std: float | None  # population std; absent when n < 2
    n: int


@dataclass(frozen=True)
class CohortReport:
    n_patients: int
    strata: dict[str, StratumStats]
    rows: tuple[tuple[str, str, float], ...]  # (patient_id, stratum, dice) for box plots


def dice(a: Volume, b: Volume) -> float:
    """Dice overlap 2|A n B| / (|A| + |B|); two empty masks agree perfectly (1.0)."""
    assert_same_grid(a, b)
    return _dice_masks(a.data != 0, b.data != 0)


def _dice_masks(a: np.ndarray, b: np.ndarray) -> float:
    na = int(np.count_nonzero(a))
    nb = int(np.count_nonzero(b))
    if na + nb == 0:
        return 1.0
    inter = int(np.count_nonzero(a & b))
    return 2.0 * inter / (na + nb)


def _check_probabilities(p: np.ndarray) -> None:
    # negated so that NaN, which fails every comparison, is rejected too
    if p.size and not (float(p.min()) >= 0.0 and float(p.max()) <= 1.0):
        raise ValidationError("probabilities must lie in [0, 1] and not be NaN")


def soft_dice(prob: Volume, gt: Volume) -> float:
    """Soft Dice (2 sum(p*g) + eps) / (sum(p) + sum(g) + eps) for one class."""
    assert_same_grid(prob, gt)
    p = np.asarray(prob.data, dtype=np.float64)
    _check_probabilities(p)
    g = (gt.data != 0).astype(np.float64)
    return _soft_dice_arrays(p, g)


def _soft_dice_arrays(p: np.ndarray, g: np.ndarray) -> float:
    num = 2.0 * float((p * g).sum()) + SOFT_DICE_EPS
    den = float(p.sum()) + float(g.sum()) + SOFT_DICE_EPS
    return num / den


def _bce_arrays(p: np.ndarray, g: np.ndarray) -> float:
    p = np.clip(p, BCE_CLAMP, 1.0 - BCE_CLAMP)
    return float(-(g * np.log(p) + (1.0 - g) * np.log1p(-p)).mean())


def composite_loss(probs: Volume, gt: Volume) -> float:
    """Equally weighted BCE + soft-Dice loss, averaged over classes.

    probs is a per-class probability volume, gt a label volume with the same
    declared class count; per class c the loss is BCE(p_c, onehot_c) plus
    (1 - soft_dice(p_c, onehot_c)).
    """
    assert_same_grid(probs, gt)
    if probs.kind != "probability":
        raise ValidationError("composite_loss needs a probability volume")
    n_classes = probs.class_count
    if gt.class_count is not None and gt.class_count != n_classes:
        raise ValidationError(
            f"class counts differ: probs {n_classes}, gt {gt.class_count}"
        )
    if gt.data.size and int(gt.data.max()) >= n_classes:
        raise ValidationError("gt label outside the probability class range")

    p_all = np.asarray(probs.data, dtype=np.float64)
    _check_probabilities(p_all)
    total = 0.0
    for c in range(n_classes):
        p = p_all[..., c]
        g = (gt.data == c).astype(np.float64)
        total += _bce_arrays(p, g) + (1.0 - _soft_dice_arrays(p, g))
    return total / n_classes


def _check_threshold(threshold_mm: float) -> None:
    # negated so that NaN, which fails every comparison, is rejected too
    if not threshold_mm > 0:
        raise ValidationError(f"threshold must be positive, got {threshold_mm}")


def check_eval_options(threshold_mm: float, match_min_overlap: float) -> None:
    """Reject a SAD threshold that is not positive and a match_min_overlap
    outside [0, 1], NaN included, before any volume is read or labeled."""
    _check_threshold(threshold_mm)
    if not 0.0 <= match_min_overlap <= 1.0:
        raise ValidationError(f"match_min_overlap must lie in [0, 1], got {match_min_overlap}")


def stratify(measurements, threshold_mm: float = DEFAULT_SAD_THRESHOLD_MM):
    """Split node measurements into (large, small) at the SAD threshold.

    Large means sad_mm >= threshold (the >= is inclusive: an exactly-8mm node
    is clinically significant).
    """
    _check_threshold(threshold_mm)
    large = tuple(m for m in measurements if m.sad_mm >= threshold_mm)
    small = tuple(m for m in measurements if m.sad_mm < threshold_mm)
    return large, small


def _pair_overlaps(gt_set, pred_set) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(gt_ids, pred_ids, counts): the voxel overlap count of every
    overlapping (gt component, pred component) pair, sorted by (gt, pred).

    Intersects the two sets' sorted foreground keys, so the cost scales with
    the foreground voxel count and no grid is touched.
    """
    _, gi, pj = np.intersect1d(gt_set.keys, pred_set.keys, assume_unique=True,
                               return_indices=True)
    n_pred = pred_set.count + 1
    pairs, counts = np.unique(gt_set.labels[gi].astype(np.int64) * n_pred
                              + pred_set.labels[pj], return_counts=True)
    return pairs // n_pred, pairs % n_pred, counts


def evaluate_patient(gt_ln: Volume, pred_ln: Volume,
                     threshold_mm: float = DEFAULT_SAD_THRESHOLD_MM,
                     connectivity: int = 26,
                     match_min_overlap: float = 0.0,
                     patient_id: str = "") -> PatientReport:
    """Evaluate one prediction against ground truth, stratified by node SAD.

    A predicted component is matched to every GT node it overlaps (at least
    one voxel, or at least match_min_overlap of the predicted component's
    voxels when set). Per-node Dice compares a node against the union of its
    matched components; stratum Dice compares the union of the stratum's
    nodes against the union of components matched to any of them. Each mask
    is a Volume or a nifti_io.VolumeFile, which is labeled straight from its
    file.
    """
    check_eval_options(threshold_mm, match_min_overlap)
    assert_same_grid(gt_ln, pred_ln)
    gt_c = canonicalize(gt_ln)
    pred_c = canonicalize(pred_ln)

    gt_set = label_components(gt_c, connectivity)
    pred_set = label_components(pred_c, connectivity)
    measurements = measure_components(gt_set, gt_c)
    large, small = stratify(measurements, threshold_mm)

    # one row per overlapping (gt, pred) pair; every intersecting voxel sits
    # in exactly one pair
    gi, pj, counts = _pair_overlaps(gt_set, pred_set)
    gt_sizes, pred_sizes = gt_set.sizes, pred_set.sizes
    n_both = int(gt_sizes.sum() + pred_sizes.sum())
    dice_all = 1.0 if n_both == 0 else 2.0 * int(counts.sum()) / n_both

    matched = counts >= match_min_overlap * pred_sizes[pj - 1]
    n_nodes = gt_set.count + 1
    inter = np.bincount(gi[matched], counts[matched], minlength=n_nodes)[1:]
    union = np.bincount(gi[matched], pred_sizes[pj[matched] - 1], minlength=n_nodes)[1:]
    node_dice = (2.0 * inter / (gt_sizes + union)).tolist()

    def stratum_dice(nodes) -> float | None:
        if not nodes:
            return None
        in_stratum = np.zeros(n_nodes, dtype=bool)
        in_stratum[[m.component_index for m in nodes]] = True
        hit = np.zeros(pred_set.count + 1, dtype=bool)
        hit[pj[matched & in_stratum[gi]]] = True
        # every overlap between the stratum's GT voxels and the matched
        # components counts, also pairs below the matching threshold
        both = int(counts[in_stratum[gi] & hit[pj]].sum())
        return 2.0 * both / int(gt_sizes[in_stratum[1:]].sum() + pred_sizes[hit[1:]].sum())

    return PatientReport(
        patient_id=patient_id,
        dice_all=dice_all,
        dice_large=stratum_dice(large),
        dice_small=stratum_dice(small),
        per_node=tuple(zip(measurements, node_dice)),
        gt_node_count=gt_set.count,
        detected_count=len(np.unique(gi)),
        unmatched_pred_count=pred_set.count - len(np.unique(pj[matched])),
    )


def aggregate(reports) -> CohortReport:
    """Cohort mean and population std per stratum over the patients that
    possess it, plus per-patient rows for box-plot tooling."""
    reports = list(reports)
    if not reports:
        raise ValidationError("aggregate needs at least one patient report")

    strata: dict[str, StratumStats] = {}
    for stratum in STRATA:
        values = [r.stratum_value(stratum) for r in reports]
        values = [v for v in values if v is not None]
        if not values:
            strata[stratum] = StratumStats(mean=None, std=None, n=0)
            continue
        arr = np.asarray(values, dtype=np.float64)
        mean = float(arr.mean())
        std = float(arr.std(ddof=0)) if len(arr) >= 2 else None
        strata[stratum] = StratumStats(mean=mean, std=std, n=len(arr))

    rows = []
    for r in sorted(reports, key=lambda r: r.patient_id):
        for stratum in STRATA:
            v = r.stratum_value(stratum)
            if v is not None:
                rows.append((r.patient_id, stratum, v))
    return CohortReport(n_patients=len(reports), strata=strata, rows=tuple(rows))
