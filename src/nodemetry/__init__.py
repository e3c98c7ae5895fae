"""Volumetric lymph-node segmentation toolkit.

Fuses anatomical structure masks with lymph-node annotations into a 29-class
label scheme, measures per-node short-axis diameters on axial slices, computes
SAD-stratified Dice reports, ensembles cross-validation folds, and evaluates
the composite BCE + soft-Dice loss. Everything is verifiable on synthetic
ellipsoid phantoms with analytically known ground truth.
"""

from .components import ComponentSet, filter_components, label_components
from .ensemble import FoldSet, argmax_labels, average_probabilities, majority_vote
from .errors import (
    EmptyInputError,
    GridMismatchError,
    NiftiFormatError,
    NodemetryError,
    TruncatedFileError,
    UnknownStructureError,
    UnsupportedDatatypeError,
    ValidationError,
)
from .fusion import (
    FusionSpec,
    default_fusion_spec,
    extract_class,
    fuse,
    load_fusion_spec,
    parse_fusion_spec,
)
from .metrics import (
    CohortReport,
    PatientReport,
    StratumStats,
    aggregate,
    composite_loss,
    dice,
    evaluate_patient,
    soft_dice,
    stratify,
)
from .morphometry import (
    NodeMeasurement,
    convex_hull,
    max_diameter,
    measure_components,
    measure_node,
    min_width,
    slice_footprint,
)
from .nifti_io import HeaderInfo, VolumeFile, open_volume, read_header, read_volume, write_volume
from .phantom import PhantomNode, PhantomSpec, generate, load_phantom_spec, random_spec
from .volume import Volume, assert_same_grid, canonicalize, identity_affine, world_coords

__version__ = "0.1.0"
