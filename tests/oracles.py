"""Independent oracles the test suite checks the library against.

Everything here is deliberately written from scratch against the published
definitions (file-format field table, adjacency definitions, textbook
formulas) and shares no code with the package: struct-based NIfTI parsing,
deque flood fill, all-pairs hull construction (float and integer),
direction-sweep widths, per-voxel loss loops, per-voxel precedence replay,
per-node dense-mask evaluation (which takes its node measurements as input).
"""

from __future__ import annotations

import gzip
import math
import struct
from collections import Counter, deque

import numpy as np


def ref_read_nifti(path) -> dict:
    """Minimal reference NIfTI-1 parser using struct.unpack at fixed offsets."""
    with open(path, "rb") as f:
        blob = f.read()
    if blob[:2] == b"\x1f\x8b":
        blob = gzip.decompress(blob)
    for end in ("<", ">"):
        if struct.unpack(end + "i", blob[0:4])[0] == 348:
            break
    else:
        raise ValueError("sizeof_hdr != 348 in either byte order")
    dim = struct.unpack(end + "8h", blob[40:56])
    datatype, bitpix = struct.unpack(end + "2h", blob[70:74])
    pixdim = struct.unpack(end + "8f", blob[76:108])
    vox_offset = int(struct.unpack(end + "f", blob[108:112])[0])
    scl_slope, scl_inter = struct.unpack(end + "2f", blob[112:120])
    descrip = blob[148:228].split(b"\x00")[0].decode("utf-8", "replace")
    sform_code = struct.unpack(end + "h", blob[254:256])[0]
    srow = struct.unpack(end + "12f", blob[280:328])
    shape = dim[1:1 + dim[0]]
    count = math.prod(shape)
    fmt = {2: "B", 4: "h", 8: "i", 16: "f"}[datatype]
    raw = struct.unpack(end + str(count) + fmt,
                        blob[vox_offset:vox_offset + count * bitpix // 8])
    data = np.array(raw).reshape(shape, order="F")
    return {
        "shape": tuple(shape),
        "spacing": pixdim[1:4],
        "affine": np.array(srow).reshape(3, 4),
        "sform_code": sform_code,
        "scl_slope": scl_slope,
        "scl_inter": scl_inter,
        "descrip": descrip,
        "magic": blob[344:348],
        "data": data,
    }


def neighbor_offsets(connectivity: int):
    offs = []
    for dx in (-1, 0, 1):
        for dy in (-1, 0, 1):
            for dz in (-1, 0, 1):
                if (dx, dy, dz) == (0, 0, 0):
                    continue
                order = abs(dx) + abs(dy) + abs(dz)
                if connectivity == 6 and order > 1:
                    continue
                if connectivity == 18 and order > 2:
                    continue
                offs.append((dx, dy, dz))
    return offs


def flood_fill_components(mask: np.ndarray, connectivity: int) -> np.ndarray:
    """Breadth-first flood fill labeling, ids in first-voxel scan order."""
    padded = np.pad(np.asarray(mask, dtype=bool), 1)
    sy, sz = padded.shape[1] * padded.shape[2], padded.shape[2]
    flat = padded.ravel()
    offs = [dx * sy + dy * sz + dz for dx, dy, dz in neighbor_offsets(connectivity)]
    labels = np.zeros(padded.size, dtype=np.int32)
    next_id = 0
    for start in np.flatnonzero(flat):  # C order == scan order
        if labels[start]:
            continue
        next_id += 1
        labels[start] = next_id
        queue = deque([start])
        while queue:
            cur = queue.popleft()
            for off in offs:
                nb = cur + off
                if flat[nb] and not labels[nb]:
                    labels[nb] = next_id
                    queue.append(nb)
    return labels.reshape(padded.shape)[1:-1, 1:-1, 1:-1]


def naive_pair_overlaps(gt_keys, gt_labels, pred_keys, pred_labels) -> dict:
    """{(gt id, pred id): shared voxel count} over the keys both sets hold,
    found by np.intersect1d."""
    _, gi, pj = np.intersect1d(gt_keys, pred_keys, assume_unique=True, return_indices=True)
    return dict(Counter(zip(gt_labels[gi].tolist(), pred_labels[pj].tolist())))


def naive_evaluate(gt: np.ndarray, pred: np.ndarray, measurements, threshold_mm: float,
                   connectivity: int, match_min_overlap: float) -> dict:
    """The PatientReport fields (all but patient_id) of one GT/prediction pair,
    from flood-fill components, one dense mask per component and Python loops.

    measurements are the GT nodes' morphometry records in flood-fill order;
    their SAD picks each node's stratum (large means sad_mm >= threshold).
    A predicted component is matched to a node it overlaps by at least one
    voxel and by at least match_min_overlap of its own voxels.
    """
    gt_ids = flood_fill_components(gt != 0, connectivity)
    pred_ids = flood_fill_components(pred != 0, connectivity)
    nodes = [gt_ids == i for i in range(1, int(gt_ids.max()) + 1)]
    comps = [pred_ids == j for j in range(1, int(pred_ids.max()) + 1)]
    assert [m.voxel_count for m in measurements] == [int(n.sum()) for n in nodes]

    def count(mask):
        return int(np.count_nonzero(mask))

    matches = []  # (node index, component index) of each matched pair
    detected = 0
    for i, node in enumerate(nodes):
        hits = [j for j, comp in enumerate(comps) if count(node & comp) > 0]
        detected += bool(hits)
        matches += [(i, j) for j in hits
                    if count(node & comps[j]) >= match_min_overlap * count(comps[j])]

    def union(masks):
        out = np.zeros(gt.shape, dtype=bool)
        for m in masks:
            out |= m
        return out

    def dice_of(node_list):
        g = union(nodes[i] for i in node_list)
        p = union(comps[j] for j in {j for i, j in matches if i in node_list})
        return 2.0 * count(g & p) / (count(g) + count(p))

    n_all = count(gt != 0) + count(pred != 0)
    large = [i for i, m in enumerate(measurements) if m.sad_mm >= threshold_mm]
    small = [i for i, m in enumerate(measurements) if m.sad_mm < threshold_mm]
    return {
        "dice_all": 1.0 if n_all == 0 else 2.0 * count((gt != 0) & (pred != 0)) / n_all,
        "dice_large": dice_of(large) if large else None,
        "dice_small": dice_of(small) if small else None,
        "per_node": tuple((m, dice_of([i])) for i, m in enumerate(measurements)),
        "gt_node_count": len(nodes),
        "detected_count": detected,
        "unmatched_pred_count": len(comps) - len({j for _, j in matches}),
    }


def lattice_hull(points) -> list:
    """Counter-clockwise strict hull vertices of distinct integer points,
    which must not all be collinear, by the all-pairs test: p -> q is a hull
    edge when no point lies right of it and every point on its line lies
    between p and q. Exact in int64 for coordinates far below 2**31."""
    pts = np.asarray(points, dtype=np.int64)
    after = {}
    for p in pts:
        rel = pts - p
        # row q, column r: r against the edge p -> q
        cross = rel[:, 0, None] * rel[:, 1] - rel[:, 1, None] * rel[:, 0]
        along = rel[:, 0, None] * rel[:, 0] + rel[:, 1, None] * rel[:, 1]
        between = (along >= 0) & (along <= np.diag(along)[:, None])
        edge = np.all((cross > 0) | ((cross == 0) & between), axis=1) & rel.any(axis=1)
        for q in pts[edge]:
            after[tuple(p.tolist())] = tuple(q.tolist())
    hull = [min(after)]
    while after[hull[-1]] != hull[0]:
        hull.append(after[hull[-1]])
    return hull


def lattice_slice_measure(ij, spacing) -> tuple:
    """(width, long axis) in mm of one slice's voxels (rows of (i, j)) by the
    documented lattice arithmetic: footprint corners in half-voxel integers
    (2i +/- 1, 2j +/- 1), each hull edge, in lowest terms (ex, ey), of width
    sx*sy*C / (2*hypot(ex*sx, ey*sy)) with C its largest cross product with a
    vertex taken from the edge's start, the slice's width the smallest of
    those, its long axis the largest hypot(dx*sx, dy*sy) / 2 over vertex
    pairs. NumPy's hypot, as the library uses; math.hypot rounds differently
    on some inputs."""
    sx, sy = float(spacing[0]), float(spacing[1])
    corners = {(2 * int(i) + di, 2 * int(j) + dj)
               for i, j in ij for di in (-1, 1) for dj in (-1, 1)}
    hull = lattice_hull(sorted(corners))
    widths = []
    for n, (px, py) in enumerate(hull):
        qx, qy = hull[(n + 1) % len(hull)]
        g = math.gcd(qx - px, qy - py)
        ex, ey = (qx - px) // g, (qy - py) // g
        c = max(ex * (vy - py) - ey * (vx - px) for vx, vy in hull)
        length = np.hypot(np.int64(ex) * sx, np.int64(ey) * sy)
        widths.append(float(sx * sy * np.int64(c) / (2 * length)))
    far = max(float(np.hypot(np.int64(bx - ax) * sx, np.int64(by - ay) * sy))
              for ax, ay in hull for bx, by in hull)
    return min(widths), far / 2


def lattice_node_measure(voxels, spacing) -> tuple:
    """(sad_mm, sad_slice_index, long_axis_mm) of one node's voxels (rows of
    (i, j, k)): the first slice of largest lattice width, and its long axis."""
    best = (-1.0, -1, None)
    for k in sorted({int(v[2]) for v in voxels}):
        width, far = lattice_slice_measure([v[:2] for v in voxels if v[2] == k], spacing)
        if width > best[0]:
            best = (width, k, far)
    return best


def sweep_width(points: np.ndarray, n_dirs: int = 7200) -> float:
    """Minimum projection width over a dense sweep of directions."""
    pts = np.asarray(points, dtype=float)
    thetas = np.linspace(0.0, math.pi, n_dirs, endpoint=False)
    dirs = np.stack([np.cos(thetas), np.sin(thetas)], axis=1)
    proj = pts @ dirs.T
    return float((proj.max(axis=0) - proj.min(axis=0)).min())


def sweep_diameter(points: np.ndarray) -> float:
    """Largest distance between two of the points."""
    pts = np.asarray(points, dtype=float)
    diff = pts[:, None, :] - pts[None, :, :]
    return float(np.sqrt((diff ** 2).sum(axis=2)).max())


def naive_dice(a: np.ndarray, b: np.ndarray) -> float:
    na = nb = ninter = 0
    for x, y in zip(a.ravel().tolist(), b.ravel().tolist()):
        na += x != 0
        nb += y != 0
        ninter += (x != 0) and (y != 0)
    if na + nb == 0:
        return 1.0
    return 2.0 * ninter / (na + nb)


def naive_composite_loss(probs: np.ndarray, labels: np.ndarray,
                         eps: float = 1e-5, clamp: float = 1e-7) -> float:
    """Per-voxel loop over the BCE + (1 - soft Dice) loss, averaged over classes."""
    nx, ny, nz, n_classes = probs.shape
    total = 0.0
    for c in range(n_classes):
        bce_sum = 0.0
        inter = psum = gsum = 0.0
        for i in range(nx):
            for j in range(ny):
                for k in range(nz):
                    p = min(max(float(probs[i, j, k, c]), clamp), 1.0 - clamp)
                    g = 1.0 if labels[i, j, k] == c else 0.0
                    bce_sum += -(g * math.log(p) + (1.0 - g) * math.log(1.0 - p))
                    p_raw = float(probs[i, j, k, c])
                    inter += p_raw * g
                    psum += p_raw
                    gsum += g
        bce = bce_sum / (nx * ny * nz)
        sdice = (2.0 * inter + eps) / (psum + gsum + eps)
        total += bce + (1.0 - sdice)
    return total / n_classes


def replay_precedence(sources: dict[int, np.ndarray], precedence,
                      shape) -> np.ndarray:
    """Per-voxel replay: walk the precedence order and keep the last hit."""
    out = np.zeros(shape, dtype=np.int64)
    for i in range(shape[0]):
        for j in range(shape[1]):
            for k in range(shape[2]):
                label = 0
                for cid in precedence:
                    m = sources.get(cid)
                    if m is not None and m[i, j, k]:
                        label = cid
                out[i, j, k] = label
    return out


def naive_mean_probs(folds: list[np.ndarray]) -> np.ndarray:
    out = np.zeros(folds[0].shape)
    for i in range(out.shape[0]):
        for j in range(out.shape[1]):
            for k in range(out.shape[2]):
                for c in range(out.shape[3]):
                    out[i, j, k, c] = sum(float(f[i, j, k, c]) for f in folds) / len(folds)
    return out


def naive_majority(folds: list[np.ndarray], n_classes: int) -> np.ndarray:
    shape = folds[0].shape
    out = np.zeros(shape, dtype=np.int64)
    for i in range(shape[0]):
        for j in range(shape[1]):
            for k in range(shape[2]):
                counts = [0] * n_classes
                for f in folds:
                    counts[int(f[i, j, k])] += 1
                best = max(range(n_classes), key=lambda c: (counts[c], -c))
                out[i, j, k] = best
    return out


def erode_6(mask: np.ndarray) -> np.ndarray:
    """One 6-connected erosion step via axis shifts (no library morphology)."""
    m = np.asarray(mask, dtype=bool)
    out = m.copy()
    for axis in range(3):
        for shift in (1, -1):
            rolled = np.zeros_like(m)
            src = [slice(None)] * 3
            dst = [slice(None)] * 3
            if shift == 1:
                src[axis], dst[axis] = slice(1, None), slice(None, -1)
            else:
                src[axis], dst[axis] = slice(None, -1), slice(1, None)
            rolled[tuple(dst)] = m[tuple(src)]
            out &= rolled
    return out
