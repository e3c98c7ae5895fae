"""Synthetic scenes of digital ellipsoid nodes with known ground truth.

Each node is an ellipsoid with in-plane rotation only (about the axial axis),
so its analytic short-axis diameter stays 2*min(a, b), independent of the
rotation angle. Voxels belong to a node when their center satisfies the
rotated ellipsoid inequality, which keeps analytic expectations exact up to
half-voxel digitization. Generation is fully deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ValidationError
from .morphometry import NodeMeasurement
from .nifti_io import MAX_DIM
from .volume import Volume, identity_affine


@dataclass(frozen=True)
class PhantomNode:
    center_mm: tuple[float, float, float]
    semiaxes_mm: tuple[float, float, float]  # (a, b) in-plane, c axial
    rotation_deg: float = 0.0  # in-plane, about the axial axis

    @property
    def analytic_sad_mm(self) -> float:
        return 2.0 * min(self.semiaxes_mm[0], self.semiaxes_mm[1])

    def inplane_extent_mm(self) -> tuple[float, float]:
        """Half-extents of the rotated equatorial ellipse along x and y."""
        a, b, _ = self.semiaxes_mm
        t = math.radians(self.rotation_deg)
        ex = math.hypot(a * math.cos(t), b * math.sin(t))
        ey = math.hypot(a * math.sin(t), b * math.cos(t))
        return ex, ey


@dataclass(frozen=True)
class PhantomSpec:
    dims: tuple[int, int, int]
    spacing_mm: tuple[float, float, float]
    nodes: tuple[PhantomNode, ...]
    seed: int = 0


def _validate_spec(spec: PhantomSpec) -> None:
    # negated comparisons, so that NaN, which fails every one, is rejected too;
    # a grid that no NIfTI-1 file can hold is refused before it is allocated
    if (not all(1 <= n <= MAX_DIM for n in spec.dims)
            or not all(0 < s < math.inf for s in spec.spacing_mm)):
        raise ValidationError(f"bad grid: dims {spec.dims} (each 1..{MAX_DIM}), "
                              f"spacing {spec.spacing_mm} (each positive and finite)")
    span = [(n - 1) * s for n, s in zip(spec.dims, spec.spacing_mm)]
    for idx, node in enumerate(spec.nodes):
        if not all(0 < s < math.inf for s in node.semiaxes_mm):
            raise ValidationError(f"node {idx}: semiaxes must be positive and finite")
        if not all(map(math.isfinite, (*node.center_mm, node.rotation_deg))):
            raise ValidationError(f"node {idx}: center and rotation must be finite")
        ex, ey = node.inplane_extent_mm()
        extents = (ex, ey, node.semiaxes_mm[2])
        for axis in range(3):
            lo = node.center_mm[axis] - extents[axis]
            hi = node.center_mm[axis] + extents[axis]
            if lo < 0 or hi > span[axis]:
                raise ValidationError(
                    f"node {idx} exceeds the grid on axis {axis}: "
                    f"[{lo:.2f}, {hi:.2f}] mm outside [0, {span[axis]:.2f}]"
                )
    # conservative separation: bounding spheres plus one voxel diagonal keeps
    # digitized nodes from touching under 26-connectivity
    margin = math.sqrt(sum(s * s for s in spec.spacing_mm))
    for i in range(len(spec.nodes)):
        for j in range(i + 1, len(spec.nodes)):
            a, b = spec.nodes[i], spec.nodes[j]
            d = math.dist(a.center_mm, b.center_mm)
            if d <= max(a.semiaxes_mm) + max(b.semiaxes_mm) + margin:
                raise ValidationError(
                    f"nodes {i} and {j} overlap or touch (centers {d:.2f} mm apart)"
                )


def _rasterize(node: PhantomNode, dims, spacing) -> np.ndarray:
    """(n, 3) indices of voxels whose center lies inside the node."""
    ex, ey = node.inplane_extent_mm()
    extents = (ex, ey, node.semiaxes_mm[2])
    lo = [max(0, int(math.floor((node.center_mm[i] - extents[i]) / spacing[i])))
          for i in range(3)]
    hi = [min(dims[i] - 1, int(math.ceil((node.center_mm[i] + extents[i]) / spacing[i])))
          for i in range(3)]
    axes = [np.arange(lo[i], hi[i] + 1) * spacing[i] - node.center_mm[i] for i in range(3)]
    dx, dy, dz = np.meshgrid(*axes, indexing="ij", sparse=True)

    t = math.radians(node.rotation_deg)
    ct, st = math.cos(t), math.sin(t)
    # rotate offsets back into the node frame
    xr = ct * dx + st * dy
    yr = -st * dx + ct * dy
    a, b, c = node.semiaxes_mm
    inside = (xr / a) ** 2 + (yr / b) ** 2 + (dz / c) ** 2 <= 1.0
    idx = np.argwhere(inside)
    idx += np.array(lo)
    return idx


def generate(spec: PhantomSpec) -> tuple[Volume, list[NodeMeasurement]]:
    """Rasterize a phantom; returns the binary volume and per-node ground truth.

    Expected records carry the analytic SAD (2*min of the in-plane semiaxes)
    and voxel-counted volume; component indices follow first-voxel scan order
    so they line up with label_components output.
    """
    _validate_spec(spec)
    mask = np.zeros(spec.dims, dtype=np.uint8, order="F")  # cheap to write out
    per_node = []
    for idx, node in enumerate(spec.nodes):
        vox = _rasterize(node, spec.dims, spec.spacing_mm)
        if len(vox) == 0:
            raise ValidationError(
                f"node {idx} covers no voxel center (semiaxes {node.semiaxes_mm} "
                f"too small for spacing {spec.spacing_mm})"
            )
        mask[vox[:, 0], vox[:, 1], vox[:, 2]] = 1
        first = vox[np.lexsort((vox[:, 2], vox[:, 1], vox[:, 0]))][0]
        per_node.append((tuple(first), node, vox))

    per_node.sort(key=lambda t: t[0])  # scan order, matches component labeling
    voxel_mm3 = float(np.prod(spec.spacing_mm))
    expected = []
    for rank, (_first, node, vox) in enumerate(per_node, start=1):
        k_center = int(round(node.center_mm[2] / spec.spacing_mm[2]))
        expected.append(NodeMeasurement(
            component_index=rank,
            sad_mm=node.analytic_sad_mm,
            sad_slice_index=k_center,
            long_axis_mm=2.0 * max(node.semiaxes_mm[0], node.semiaxes_mm[1]),
            volume_mm3=len(vox) * voxel_mm3,
            voxel_count=int(len(vox)),
        ))

    volume = Volume(mask, spec.spacing_mm, identity_affine(spec.spacing_mm),
                    kind="label", class_count=2, description="phantom")
    return volume, expected


def random_spec(dims, spacing_mm, n_nodes: int, seed: int,
                sad_range_mm: tuple[float, float] = (4.0, 24.0),
                max_tries: int = 2000) -> PhantomSpec:
    """Sample a spec of non-overlapping nodes with SADs spanning sad_range."""
    rng = np.random.default_rng(seed)
    span = [(n - 1) * s for n, s in zip(dims, spacing_mm)]
    nodes: list[PhantomNode] = []
    margin = math.sqrt(sum(s * s for s in spacing_mm))
    for _ in range(max_tries):
        if len(nodes) == n_nodes:
            break
        b = float(rng.uniform(sad_range_mm[0] / 2, sad_range_mm[1] / 2))
        a = float(b * rng.uniform(1.0, 2.0))
        c = float(rng.uniform(b, a + 2.0))
        rot = float(rng.uniform(0.0, 180.0))
        r = max(a, b, c)
        if any(sp - r - margin <= r + margin for sp in span):
            continue  # node too big for this grid, resample
        center = tuple(float(rng.uniform(r + margin, sp - r - margin)) for sp in span)
        node = PhantomNode(center, (a, b, c), rot)
        ok = all(
            math.dist(node.center_mm, other.center_mm)
            > max(node.semiaxes_mm) + max(other.semiaxes_mm) + margin
            for other in nodes
        )
        if ok:
            nodes.append(node)
    if len(nodes) < n_nodes:
        raise ValidationError(
            f"could not place {n_nodes} non-overlapping nodes in {dims} (placed {len(nodes)})"
        )
    return PhantomSpec(tuple(dims), tuple(spacing_mm), tuple(nodes), seed=seed)


def parse_phantom_spec(text: str) -> PhantomSpec:
    """Parse the key-value phantom format: dims, spacing, seed and node lines.

    Each `node =` line holds six or seven numbers: center x y z (mm),
    semiaxes a b c (mm), and an optional rotation (deg).
    """
    dims = spacing = None
    seed = 0
    nodes = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValidationError(f"line {lineno}: expected `key = values`, got {raw!r}")
        key, _, value = line.partition("=")
        key, toks = key.strip().lower(), value.split()
        try:
            if key == "dims":
                dims = tuple(int(t) for t in toks)
            elif key == "spacing":
                spacing = tuple(float(t) for t in toks)
            elif key == "seed":
                if len(toks) != 1:
                    raise ValidationError(f"line {lineno}: seed needs one integer, got {len(toks)}")
                seed = int(toks[0])
            elif key == "node":
                if len(toks) not in (6, 7):
                    raise ValidationError(
                        f"line {lineno}: node needs 6 or 7 numbers, got {len(toks)}"
                    )
                vals = [float(t) for t in toks]
                rot = vals[6] if len(vals) == 7 else 0.0
                nodes.append(PhantomNode(tuple(vals[0:3]), tuple(vals[3:6]), rot))
            else:
                raise ValidationError(f"line {lineno}: unknown key {key!r}")
        except ValueError:
            raise ValidationError(f"line {lineno}: bad number in {raw!r}") from None
    if dims is None or len(dims) != 3:
        raise ValidationError("phantom spec needs `dims = nx ny nz`")
    if spacing is None or len(spacing) != 3:
        raise ValidationError("phantom spec needs `spacing = sx sy sz`")
    if not nodes:
        raise ValidationError("phantom spec defines no nodes")
    return PhantomSpec(dims, spacing, tuple(nodes), seed=seed)


def load_phantom_spec(path) -> PhantomSpec:
    return parse_phantom_spec(Path(path).read_text(encoding="utf-8"))
