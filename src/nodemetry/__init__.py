"""Volumetric lymph-node segmentation toolkit.

Fuses anatomical structure masks with lymph-node annotations into a 29-class
label scheme, measures per-node short-axis diameters on axial slices, computes
SAD-stratified Dice reports, ensembles cross-validation folds, and evaluates
the composite BCE + soft-Dice loss. Everything is verifiable on synthetic
ellipsoid phantoms with analytically known ground truth.

`import nodemetry` loads no submodule: each name in __all__ loads its module
on first use (PEP 562), so a CLI child loads only what its command runs.
"""

import importlib

_EXPORTS = {
    "components": ("ComponentSet", "filter_components", "label_components"),
    "ensemble": ("FoldSet", "argmax_labels", "average_probabilities", "majority_vote"),
    "errors": ("EmptyInputError", "GridMismatchError", "NiftiFormatError", "NodemetryError",
               "TruncatedFileError", "UnknownStructureError", "UnsupportedDatatypeError",
               "ValidationError"),
    "fusion": ("FusionSpec", "default_fusion_spec", "extract_class", "fuse", "load_fusion_spec",
               "parse_fusion_spec"),
    "metrics": ("CohortReport", "PatientReport", "StratumStats", "aggregate", "composite_loss",
                "dice", "evaluate_patient", "soft_dice", "stratify"),
    "morphometry": ("NodeMeasurement", "measure_components", "measure_node"),
    "nifti_io": ("HeaderInfo", "VolumeFile", "open_volume", "read_volume", "write_volume"),
    "phantom": ("PhantomNode", "PhantomSpec", "generate", "load_phantom_spec", "random_spec"),
    "volume": ("Volume", "assert_same_grid", "canonicalize", "identity_affine"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_MODULE_OF)

__version__ = "0.1.0"


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value  # later lookups do not come here
    return value


def __dir__():
    return sorted({*globals(), *__all__})
