"""Output checks for the benchmark, independent of the toolkit's own code.

Files are read with a small struct-level NIfTI-1 reader, and every expected
value comes from a direct NumPy computation on the benchmark's own inputs:
component counts and sizes from the phantom rasterization, Dice from
count_nonzero, the ensemble from a per-class loop over the fold files, the
loss from its float64 definition. A check raises CheckFailed; the runner
counts the operation as failed.
"""

from __future__ import annotations

import csv
import gzip
import hashlib
import io
import json
import math
import re
import struct
from pathlib import Path

import numpy as np

# constants of the loss definition (BCE clamp, soft-Dice smoothing)
BCE_CLAMP = 1e-7
SOFT_DICE_EPS = 1e-5

_DTYPES = {2: "<u1", 4: "<i2", 8: "<i4", 16: "<f4"}


class CheckFailed(Exception):
    """An operation produced a wrong or missing output."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _header(raw: bytes, path) -> tuple[tuple[int, ...], np.dtype, int]:
    """(shape, dtype, voxel offset) from the first 352 bytes of a file."""
    expect(len(raw) >= 352 and struct.unpack_from("<i", raw, 0)[0] == 348,
           f"{path}: not a little-endian NIfTI-1 file")
    dim = struct.unpack_from("<8h", raw, 40)
    code = struct.unpack_from("<h", raw, 70)[0]
    expect(code in _DTYPES, f"{path}: datatype {code}")
    return (tuple(int(n) for n in dim[1:1 + dim[0]]), np.dtype(_DTYPES[code]),
            int(struct.unpack_from("<f", raw, 108)[0]))


def read_nifti(path) -> np.ndarray:
    """Voxel array of a little-endian NIfTI-1 single file (.nii or .nii.gz)."""
    raw = Path(path).read_bytes()
    if raw[:2] == b"\x1f\x8b":
        raw = gzip.decompress(raw)
    shape, dtype, offset = _header(raw, path)
    count = math.prod(shape)
    expect(len(raw) >= offset + count * dtype.itemsize, f"{path}: truncated payload")
    return np.frombuffer(raw, dtype, count=count, offset=offset).reshape(shape, order="F")


def payload_bytes(path) -> int:
    """Voxel bytes the header of a NIfTI-1 file declares (computed, not read)."""
    with (gzip.open(path) if str(path).endswith(".gz") else open(path, "rb")) as f:
        shape, dtype, _ = _header(f.read(352), path)
    return math.prod(shape) * dtype.itemsize


def sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 22), b""):
            h.update(block)
    return h.hexdigest()


def dice_formula(a: np.ndarray, b: np.ndarray) -> float:
    """2|A n B| / (|A| + |B|) by count_nonzero; two empty masks give 1.0."""
    na = int(np.count_nonzero(a))
    nb = int(np.count_nonzero(b))
    if na + nb == 0:
        return 1.0
    return 2.0 * int(np.count_nonzero((a != 0) & (b != 0))) / (na + nb)


def close4(reported, expected: float) -> bool:
    """Reported values carry 4 decimals; allow their rounding and no more."""
    return reported is not None and abs(float(reported) - expected) <= 0.5e-4 + 1e-9


# ------------------------------------------------------------ per-command checks

def check_cc(summary_path, voxel_counts: list[int]) -> None:
    """Component count and scan-order sizes equal the phantom's nodes."""
    summary = json.loads(Path(summary_path).read_text())
    expect(summary["count"] == len(voxel_counts),
           f"cc found {summary['count']} components, phantom has {len(voxel_counts)}")
    expect(summary["sizes"] == voxel_counts, "cc component sizes differ from the phantom")


def check_measure(csv_path, expected, spacing) -> None:
    """Every node's SAD lies within one in-plane voxel diagonal of 2*min(a, b).

    expected holds (voxel_count, analytic_sad_mm) per component, scan order.
    """
    rows = list(csv.DictReader(io.StringIO(Path(csv_path).read_text())))
    expect(len(rows) == len(expected),
           f"measure listed {len(rows)} nodes, phantom has {len(expected)}")
    tol = math.hypot(spacing[0], spacing[1])
    for row, (voxels, sad) in zip(rows, expected):
        expect(int(row["voxel_count"]) == voxels,
               f"node {row['component_index']}: {row['voxel_count']} voxels, expected {voxels}")
        expect(abs(float(row["sad_mm"]) - sad) <= tol,
               f"node {row['component_index']}: SAD {row['sad_mm']} mm, analytic {sad:.4f} mm")


def check_eval(report_path, dice_by_patient: dict[str, float]) -> None:
    """dice_all of each patient equals the count_nonzero formula."""
    report = json.loads(Path(report_path).read_text())
    got = {p["patient_id"]: p["dice_all"] for p in report["patients"]}
    expect(sorted(got) == sorted(dice_by_patient),
           f"eval patients {sorted(got)} != {sorted(dice_by_patient)}")
    for pid, value in dice_by_patient.items():
        expect(close4(got[pid], value), f"{pid}: dice_all {got[pid]}, expected {value:.6f}")


def check_labels(path, expected: np.ndarray, what: str) -> None:
    data = read_nifti(path)
    expect(data.shape == expected.shape, f"{what}: shape {data.shape} != {expected.shape}")
    diff = int(np.count_nonzero(data != expected))
    expect(diff == 0, f"{what}: {diff} voxels differ from the brute force")


def check_loss(stdout: str, json_path, expected: float) -> None:
    m = re.search(r"^loss: (\S+)$", stdout, re.M)
    expect(m is not None, "loss printed no value")
    expect(abs(float(m.group(1)) - expected) <= 1.5e-6,
           f"loss {m.group(1)}, direct float64 value {expected:.8f}")
    expect(close4(json.loads(Path(json_path).read_text())["loss"], expected),
           "loss JSON value differs from the direct float64 value")


# -------------------------------------------------------------- brute forces

def fold_mean(fold_files: list[list[Path]]) -> np.ndarray:
    """Per-class fold mean, as float32 (N..., C): float64 sum in fold order."""
    n_classes = len(fold_files[0])
    out = None
    for c in range(n_classes):
        acc = None
        for files in fold_files:
            p = read_nifti(files[c]).astype(np.float64)
            acc = p if acc is None else acc + p
        mean = np.clip(acc / len(fold_files), 0.0, 1.0).astype(np.float32)
        if out is None:
            out = np.empty(mean.shape + (n_classes,), dtype=np.float32)
        out[..., c] = mean
    return out


def first_argmax(stack: np.ndarray) -> np.ndarray:
    """Class of the largest value along the last axis; ties go to the lowest id."""
    best = stack[..., 0].copy()
    label = np.zeros(best.shape, dtype=np.uint8)
    for c in range(1, stack.shape[-1]):
        better = stack[..., c] > best
        best[better] = stack[..., c][better]
        label[better] = c
    return label


def majority(labels: list[np.ndarray]) -> np.ndarray:
    """Modal label per voxel; ties go to the lowest id."""
    classes = np.unique(np.stack(labels))
    votes = np.stack([sum((lab == c).astype(np.uint16) for lab in labels) for c in classes],
                     axis=-1)
    return classes[first_argmax(votes)].astype(np.uint8)


def composite_loss(probs: list[np.ndarray], gt: np.ndarray) -> float:
    """Mean over classes of BCE + (1 - soft Dice), all in float64."""
    total = 0.0
    for c, p in enumerate(probs):
        p = p.astype(np.float64)
        g = (gt == c).astype(np.float64)
        q = np.clip(p, BCE_CLAMP, 1.0 - BCE_CLAMP)
        bce = -float(np.mean(g * np.log(q) + (1.0 - g) * np.log1p(-q)))
        soft = (2.0 * float((p * g).sum()) + SOFT_DICE_EPS) / \
               (float(p.sum()) + float(g.sum()) + SOFT_DICE_EPS)
        total += bce + 1.0 - soft
    return total / len(probs)
