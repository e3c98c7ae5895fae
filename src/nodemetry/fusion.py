"""Fusion of anatomical structure masks with lymph-node annotations.

Builds the 29-class training label volume: each source mask paints its target
class id, later entries of the precedence list overwrite earlier ones, and the
lymph-node class (always last in precedence) wins every overlap. The shipped
default map groups TotalSegmentator structure names into 28 anatomical targets
plus lymph nodes; grouping is data, not code, so it can be edited per
TotalSegmentator version.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import UnknownStructureError, ValidationError
from .volume import Volume, assert_same_grid, label_dtype

DEFAULT_SPEC_RESOURCE = "priors_29.map"


@dataclass(frozen=True)
class FusionSpec:
    """Mapping from structure names to class ids plus overwrite order.

    precedence lists class ids from lowest to highest priority; the last
    entry is the lymph-node class.
    """

    group_map: dict[str, int]
    precedence: tuple[int, ...]
    class_count: int

    @property
    def ln_class(self) -> int:
        return self.precedence[-1]


def parse_fusion_spec(text: str) -> FusionSpec:
    """Parse a fusion spec: `structure_name = class_id` lines, `#` comments,
    and a `[precedence]` section listing class ids in overwrite order."""
    group_map: dict[str, int] = {}
    precedence: list[int] = []
    in_precedence = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.lower() == "[precedence]":
            in_precedence = True
            continue
        if line.startswith("["):
            raise ValidationError(f"line {lineno}: unknown section {line}")
        if in_precedence:
            for tok in line.replace(",", " ").split():
                try:
                    precedence.append(int(tok))
                except ValueError:
                    raise ValidationError(f"line {lineno}: bad class id {tok!r}") from None
            continue
        if "=" not in line:
            raise ValidationError(f"line {lineno}: expected `name = class_id`, got {raw!r}")
        name, _, value = line.partition("=")
        name = name.strip()
        try:
            cid = int(value.strip())
        except ValueError:
            raise ValidationError(f"line {lineno}: bad class id {value.strip()!r}") from None
        if name in group_map:
            raise ValidationError(f"line {lineno}: duplicate structure name {name!r}")
        if cid == 0:
            raise ValidationError(f"line {lineno}: class id 0 is reserved for background")
        if cid < 0:
            raise ValidationError(f"line {lineno}: negative class id {cid}")
        group_map[name] = cid

    if not group_map:
        raise ValidationError("fusion spec maps no structures")
    targets = set(group_map.values())
    class_count = max(targets)
    missing = sorted(set(range(1, class_count + 1)) - targets)
    if missing:
        raise ValidationError(f"target class ids not dense: missing {missing}")
    if not precedence:
        raise ValidationError("fusion spec has no [precedence] section")
    if len(precedence) != len(set(precedence)):
        raise ValidationError("duplicate class id in precedence")
    if set(precedence) != targets:
        extra = sorted(set(precedence) - targets)
        absent = sorted(targets - set(precedence))
        raise ValidationError(
            f"precedence must list each target id exactly once "
            f"(unknown: {extra}, missing: {absent})"
        )
    return FusionSpec(group_map, tuple(precedence), class_count)


def load_fusion_spec(path) -> FusionSpec:
    return parse_fusion_spec(Path(path).read_text(encoding="utf-8"))


def default_fusion_spec() -> FusionSpec:
    """The shipped 29-class map (28 anatomical targets + lymph nodes)."""
    return load_fusion_spec(Path(__file__).parent / "data" / DEFAULT_SPEC_RESOURCE)


def check_structures(names, spec: FusionSpec) -> None:
    """Reject the first structure name that the spec does not map."""
    for name in names:
        if name not in spec.group_map:
            raise UnknownStructureError(f"structure {name!r} not in fusion spec")


def fuse(anatomy, ln_mask: Volume, spec: FusionSpec) -> Volume:
    """Merge (structure name, binary Volume) pairs and an LN mask into one
    label volume under the spec's precedence; lymph nodes always win."""
    check_structures((name for name, _vol in anatomy), spec)
    for _name, vol in anatomy:
        assert_same_grid(ln_mask, vol)

    out = np.zeros(ln_mask.dims, dtype=label_dtype(spec.class_count + 1), order="F")
    # painted in precedence order, lymph nodes last: every voxel ends with the
    # highest-precedence class that covers it
    rank = {cid: r for r, cid in enumerate(spec.precedence)}
    for name, vol in sorted(anatomy, key=lambda pair: rank[spec.group_map[pair[0]]]):
        out[vol.data != 0] = spec.group_map[name]
    out[ln_mask.data != 0] = spec.ln_class
    return ln_mask.with_data(out, kind="label", class_count=spec.class_count + 1)


def extract_class(labels: Volume, class_id: int) -> Volume:
    """Binary mask of voxels equal to class_id (0 gives the background mask)."""
    if class_id < 0:
        raise ValidationError(f"negative class id {class_id}")
    if labels.class_count is not None and class_id >= labels.class_count:
        raise ValidationError(
            f"class id {class_id} outside declared class count {labels.class_count}"
        )
    mask = (labels.data == class_id).astype(np.uint8)
    return labels.with_data(mask, kind="label", class_count=2)
