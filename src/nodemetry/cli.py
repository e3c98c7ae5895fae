"""Command-line pipeline: fuse, cc, measure, ensemble, eval, phantom, loss.

Every run resolves its configuration (defaults: 8.0 mm SAD threshold,
26-connectivity, any-overlap matching, lymph-node class 2), echoes it, and
embeds it in JSON outputs. Floats in machine outputs are fixed at 4 decimals
so identical inputs produce byte-identical reports; the console summary
renders mean +/- std percent-style with one decimal.

Exit codes: 0 success, 1 validation/usage error, 2 I/O or file-format error.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np

from . import ensemble as ens
from . import fusion, metrics, morphometry, phantom
from .components import Foreground, filter_components, label_components
from .errors import NiftiFormatError, NodemetryError, ValidationError
from .nifti_io import VolumeFile, open_volume, read_volume, write_volume
from .volume import Volume, assert_same_grid, canonicalize

DEFAULT_LN_CLASS = 2
SCHEMA_VERSION = 1

PROB_STEM_RE = re.compile(r"(?:fold(\d+)_)?class(\d+)")


def _q4(value):
    """Quantize floats to 4 decimals, recursively, for stable serialization."""
    if isinstance(value, float):
        return float(f"{value:.4f}")
    if isinstance(value, dict):
        return {k: _q4(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_q4(v) for v in value]
    return value


def _write_json(payload: dict, path) -> None:
    text = json.dumps(_q4(payload), indent=2) + "\n"
    Path(path).write_text(text, encoding="utf-8")


def _config(args, hide=(), **resolved) -> dict:
    """The run's config: its flags in parser order (unset ones as ""), each
    resolved value in place of its flag's or after the flags; echoed."""
    config = {k: "" if v is None else v for k, v in vars(args).items()
              if k != "func" and k not in hide}
    config.update(resolved)
    print("config: " + json.dumps(_q4(config), sort_keys=True))
    return config


def _report(config: dict, **body) -> dict:
    return {"schema": SCHEMA_VERSION, "config": config, **body}


def _volume_stem(path: Path) -> str:
    name = path.name
    for suffix in (".nii.gz", ".nii"):
        if name.endswith(suffix):
            return name[: -len(suffix)]
    return path.stem


def _nifti_files(directory) -> dict[str, Path]:
    """{stem: path} of the NIfTI files in a directory, in name order."""
    files: dict[str, Path] = {}
    for path in sorted(Path(directory).iterdir()):
        if path.name.endswith((".nii", ".nii.gz")):
            stem = _volume_stem(path)
            if stem in files:
                raise ValidationError(f"{files[stem]} and {path} share the stem {stem!r}")
            files[stem] = path
    return files


def _prob_files(directory, folds: bool) -> list[list[Path]]:
    """The class files of each fold, in fold order, from fold{K}_class{C}
    stems (folds) or class{C} stems (one fold). Every fold holds classes
    0..C-1 with the same C, so a class id is its position."""
    found: dict[int, dict[int, Path]] = {}
    for stem, path in _nifti_files(directory).items():
        m = PROB_STEM_RE.fullmatch(stem)
        if m and (m.group(1) is not None) == folds:
            fold, cls = int(m.group(1) or 0), int(m.group(2))
            classes = found.setdefault(fold, {})
            if cls in classes:
                raise ValidationError(f"{classes[cls]} and {path} are both class {cls}")
            classes[cls] = path
    pattern = "fold{K}_class{C}" if folds else "class{C}"
    if not found:
        raise ValidationError(f"no {pattern}.nii[.gz] files in {directory}")
    count = len(next(iter(found.values())))
    for fold, classes in found.items():
        if sorted(classes) != list(range(count)):
            raise ValidationError(f"{pattern} files must cover 0..C-1 with one C in every "
                                  f"fold, got fold {fold} classes {sorted(classes)}")
    return [[classes[c] for c in range(count)] for _, classes in sorted(found.items())]


def _jobs(args) -> int:
    """eval's patient threads: --jobs, else NODEMETRY_THREADS, else 1; below 1 is an error."""
    if args.jobs is not None:
        jobs, source = args.jobs, "--jobs"
    else:
        env = os.environ.get("NODEMETRY_THREADS")
        if not env:
            return 1
        try:
            jobs, source = int(env), "NODEMETRY_THREADS"
        except ValueError:
            raise ValidationError(f"NODEMETRY_THREADS={env!r} is not an integer") from None
    if jobs < 1:
        raise ValidationError(f"{source} must be at least 1, got {jobs}")
    return jobs


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _map_files(fn, items):
    """fn(item) for each of a command's files, on one thread per usable CPU
    (zlib releases the GIL while it inflates and deflates), yielded in item
    order. The first error in item order is raised, and the calls not yet
    started are cancelled."""
    items = list(items)
    with ThreadPoolExecutor(max_workers=max(1, min(len(items), _usable_cpus()))) as pool:
        yield from pool.map(fn, items)


def _read_files(paths, kind: str):
    """The volumes at paths, read on the file threads, yielded in path order."""
    return _map_files(lambda path: read_volume(path, kind=kind), paths)


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags by default; the toolkit reserves 2 for I/O
    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(1)


# ---------------------------------------------------------------- subcommands

def _cmd_fuse(args) -> int:
    spec = fusion.load_fusion_spec(args.spec) if args.spec else fusion.default_fusion_spec()
    _config(args, spec=args.spec or "builtin")

    files = _nifti_files(args.anatomy_dir)
    anatomy = list(zip(files, _read_files(files.values(), kind="label")))
    ln_mask = read_volume(args.ln, kind="label")
    fused = fusion.fuse(anatomy, ln_mask, spec)
    write_volume(fused, args.out)
    print(f"fused {len(anatomy)} structures + lymph nodes -> {args.out} "
          f"({spec.class_count} classes)")
    return 0


def _cmd_cc(args) -> int:
    config = _config(args)

    mask = open_volume(args.mask)
    cset = label_components(mask, args.connectivity)
    cset = filter_components(cset, args.min_voxels)
    if args.out_labels:
        write_volume(mask.with_data(cset.component_of, kind="label",
                                    class_count=cset.count + 1), args.out_labels)
    if args.out_summary:
        _write_json(_report(config, count=cset.count, sizes=[int(s) for s in cset.sizes]),
                    args.out_summary)
    print(f"{cset.count} components (connectivity {args.connectivity})")
    return 0


def _cmd_measure(args) -> int:
    _config(args)

    mask = canonicalize(open_volume(args.mask))
    cset = label_components(mask, args.connectivity)
    measurements = morphometry.measure_components(cset, mask)
    Path(args.out).write_text(morphometry.measurements_to_csv(measurements),
                              encoding="utf-8")
    print(f"measured {cset.count} nodes -> {args.out}")
    return 0


def _read_prob_stack(paths: list[Path]) -> Volume:
    """Per-class scalar volumes on one grid, read on the file threads into
    the class slots of one class-major (Fortran-ordered) probability volume,
    so each class grid stays contiguous and no copy transposes it."""
    for c, vol in enumerate(_read_files(paths, kind="scalar")):
        if c == 0:
            first = vol
            stack = np.empty(vol.dims + (len(paths),), dtype=np.float32, order="F")
        try:
            assert_same_grid(first, vol)
        except NodemetryError as exc:
            raise type(exc)(f"{paths[0]} vs {paths[c]}: {exc}") from exc
        stack[..., c] = vol.data
    return Volume(stack, first.spacing, first.affine, kind="probability")


def _cmd_ensemble(args) -> int:
    if bool(args.labels) == bool(args.prob_dir):
        raise ValidationError("ensemble needs either --labels files or --prob-dir")
    _config(args)

    if args.labels:
        folds = ens.FoldSet(tuple(_read_files(args.labels, kind="label")), kind="label")
        merged = ens.majority_vote(folds)
        write_volume(merged, args.out)
        print(f"majority vote over {len(folds)} label folds -> {args.out}")
        return 0

    members = tuple(_read_prob_stack(paths) for paths in _prob_files(args.prob_dir, folds=True))
    mean = ens.average_probabilities(ens.FoldSet(members, kind="probability"))
    merged = ens.argmax_labels(mean)
    class_count = mean.data.shape[3]
    writes = [(merged, args.out)]
    if args.out_probs:
        out_dir = Path(args.out_probs)
        out_dir.mkdir(parents=True, exist_ok=True)
        # each class slice of the class-major mean is a contiguous grid
        writes += [(Volume(mean.data[..., c], mean.spacing, mean.affine, kind="scalar"),
                     out_dir / f"mean_class{c}.nii.gz") for c in range(class_count)]
    list(_map_files(lambda job: write_volume(*job), writes))
    print(f"averaged {len(members)} folds x {class_count} classes -> {args.out}")
    return 0


def _pair_volumes(args) -> list[tuple[str, Path, Path]]:
    if args.gt and args.pred:
        return [(_volume_stem(Path(args.gt)), Path(args.gt), Path(args.pred))]
    if args.manifest:
        pairs = []
        for lineno, raw in enumerate(Path(args.manifest).read_text().splitlines(), 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = [p.strip() for p in line.split(",")]
            if len(parts) != 3:
                raise ValidationError(
                    f"{args.manifest}:{lineno}: expected `patient_id,gt_path,pred_path`"
                )
            pairs.append((parts[0], Path(parts[1]), Path(parts[2])))
        if not pairs:
            raise ValidationError(f"{args.manifest}: no pairs listed")
        return pairs
    if args.gt_dir and args.pred_dir:
        gt_files = _nifti_files(args.gt_dir)
        pred_files = _nifti_files(args.pred_dir)
        if not gt_files:
            raise ValidationError(f"no NIfTI files in {args.gt_dir}")
        missing = sorted(set(gt_files) - set(pred_files))
        if missing:
            raise ValidationError(f"predictions missing for patients: {missing}")
        return [(stem, gt_files[stem], pred_files[stem]) for stem in sorted(gt_files)]
    raise ValidationError("eval needs --gt/--pred, --gt-dir/--pred-dir, or --manifest")


def _patient_payload(report: metrics.PatientReport) -> dict:
    return {
        "patient_id": report.patient_id,
        "dice_all": report.dice_all,
        "dice_large": report.dice_large,
        "dice_small": report.dice_small,
        "gt_node_count": report.gt_node_count,
        "detected_count": report.detected_count,
        "unmatched_pred_count": report.unmatched_pred_count,
        "nodes": [{**{c: getattr(m, c) for c in morphometry.MEASUREMENT_COLUMNS}, "dice": d}
                  for m, d in report.per_node],
    }


def _print_cohort_summary(cohort: metrics.CohortReport, threshold: float) -> None:
    names = {
        metrics.STRATUM_LARGE: f"Dice (LN >= {threshold:g}mm)",
        metrics.STRATUM_SMALL: f"Dice (LN < {threshold:g}mm)",
        metrics.STRATUM_ALL: "Dice (All LN)",
    }
    for stratum in (metrics.STRATUM_LARGE, metrics.STRATUM_SMALL, metrics.STRATUM_ALL):
        stats = cohort.strata[stratum]
        if stats.mean is None:
            print(f"{names[stratum]}: -")
        elif stats.std is None:
            print(f"{names[stratum]}: {100 * stats.mean:.1f} (n={stats.n})")
        else:
            print(f"{names[stratum]}: {100 * stats.mean:.1f} "
                  f"± {100 * stats.std:.1f} (n={stats.n})")


class _LnForeground(Foreground):
    """The lymph-node mask of an eval label file, decided in its labeling pass.

    A label file whose nonzero voxels all hold 1, or all hold 255, is a
    binary mask (nonzero is foreground, as everywhere downstream; many tools
    store masks as 0/255). Any other is multi-class and gives up its ln_class
    voxels. Every nonzero voxel is kept while the file looks binary; those
    all hold one value, so when a chunk shows the file multi-class they stay
    if that value is ln_class, give way to the zero voxels before the chunk
    if ln_class is 0, and go otherwise.
    """

    def __init__(self, ln_class: int):
        super().__init__()
        self.ln_class = ln_class
        self.value = None  # the one nonzero value seen while the file looks binary
        self.binary = True

    def add(self, keys, chunk, start):
        flat = chunk.ravel(order="F")
        values = flat[keys - start]
        if self.binary and values.size:
            hi = values.max()
            if values.min() == hi and hi in (1, 255) and self.value in (None, hi):
                self.value = hi
            else:
                self._multi_class(start)
        if self.binary:
            self._parts.append(keys)
        elif self.ln_class == 0:
            self._parts.append(np.flatnonzero(flat == 0) + start)
        else:
            self._parts.append(keys[values == self.ln_class])

    def _multi_class(self, start: int) -> None:
        """The file is multi-class: keep only the ln_class voxels before start."""
        self.binary = False
        if self.ln_class == 0:
            self._parts = [np.setdiff1d(np.arange(start), self.keys(), assume_unique=True)]
        elif self.ln_class != self.value:
            self._parts = []


def _ln_mask(mask: VolumeFile, ln_class: int) -> VolumeFile:
    """The lymph-node mask of an eval input: a label file is binary or gives
    up ln_class (_LnForeground); any other file's nonzero voxels."""
    if mask.kind != "label":
        return mask
    return replace(mask, foreground=partial(_LnForeground, ln_class))


def _cmd_eval(args) -> int:
    metrics.check_eval_options(args.threshold_mm, args.match_min_overlap)
    jobs = _jobs(args)
    pairs = _pair_volumes(args)
    # the input flags are echoed as the pairs they resolve to
    config = _config(args, hide=("gt", "pred", "gt_dir", "pred_dir", "manifest"), jobs=jobs,
                     pairs=[[pid, str(g), str(p)] for pid, g, p in pairs])

    def one(pair):
        pid, gt_path, pred_path = pair
        gt = _ln_mask(open_volume(gt_path), args.ln_class)
        pred = _ln_mask(open_volume(pred_path), args.ln_class)
        try:
            return metrics.evaluate_patient(
                gt, pred, threshold_mm=args.threshold_mm,
                connectivity=args.connectivity,
                match_min_overlap=args.match_min_overlap, patient_id=pid)
        except ValidationError as exc:
            raise type(exc)(f"{gt_path} vs {pred_path}: {exc}") from exc

    if jobs > 1 and len(pairs) > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            reports = list(pool.map(one, pairs))
    else:
        reports = [one(p) for p in pairs]
    reports.sort(key=lambda r: r.patient_id)

    cohort = metrics.aggregate(reports)
    payload = _report(
        {k: v for k, v in config.items() if k != "pairs"},
        cohort={
            "n_patients": cohort.n_patients,
            **{
                s: {"mean": st.mean, "std": st.std, "n": st.n}
                for s, st in cohort.strata.items()
            },
        },
        patients=[_patient_payload(r) for r in reports],
    )
    if args.out_json:
        _write_json(payload, args.out_json)
    if args.out_csv:
        lines = ["patient_id,stratum,dice"]
        lines += [f"{pid},{stratum},{value:.4f}" for pid, stratum, value in cohort.rows]
        Path(args.out_csv).write_text("\n".join(lines) + "\n", encoding="utf-8")
    _print_cohort_summary(cohort, args.threshold_mm)
    return 0


def _cmd_phantom(args) -> int:
    _config(args)

    spec = phantom.load_phantom_spec(args.spec)
    volume, expected = phantom.generate(spec)
    write_volume(volume, args.out)
    if args.out_expected:
        Path(args.out_expected).write_text(
            morphometry.measurements_to_csv(expected), encoding="utf-8")
    print(f"phantom with {len(expected)} nodes -> {args.out}")
    return 0


def _cmd_loss(args) -> int:
    config = _config(args)

    [paths] = _prob_files(args.prob_dir, folds=False)
    probs = _read_prob_stack(paths)
    gt = read_volume(args.gt, kind="label")
    gt = gt.with_data(gt.data, class_count=len(paths))
    value = metrics.composite_loss(probs, gt)
    if args.out_json:
        _write_json(_report(config, loss=value), args.out_json)
    print(f"loss: {value:.6f}")
    return 0


# -------------------------------------------------------------------- parser

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="nodemetry",
                     description="Lymph-node segmentation evaluation toolkit")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("fuse", help="merge anatomy masks + LN mask into one label volume")
    p.add_argument("--anatomy-dir", required=True, help="directory of <structure>.nii[.gz] masks")
    p.add_argument("--ln", required=True, help="lymph-node binary mask")
    p.add_argument("--spec", default=None, help="fusion spec file (default: builtin 29-class map)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_fuse)

    p = sub.add_parser("cc", help="label connected components of a binary mask")
    p.add_argument("--mask", required=True)
    p.add_argument("--connectivity", type=int, default=26, choices=(6, 18, 26))
    p.add_argument("--min-voxels", type=int, default=1)
    p.add_argument("--out-labels", default=None, help="write component-index volume")
    p.add_argument("--out-summary", default=None, help="write JSON summary")
    p.set_defaults(func=_cmd_cc)

    p = sub.add_parser("measure", help="per-node SAD/volume table for a binary mask")
    p.add_argument("--mask", required=True)
    p.add_argument("--connectivity", type=int, default=26, choices=(6, 18, 26))
    p.add_argument("--out", required=True, help="output CSV")
    p.set_defaults(func=_cmd_measure)

    p = sub.add_parser("ensemble", help="merge per-fold predictions")
    p.add_argument("--labels", nargs="+", default=[], help="per-fold label volumes (majority vote)")
    p.add_argument("--prob-dir", default=None,
                   help="directory of fold{K}_class{C}.nii[.gz] probability volumes")
    p.add_argument("--out", required=True, help="merged label volume")
    p.add_argument("--out-probs", default=None, help="directory for averaged class probabilities")
    p.set_defaults(func=_cmd_ensemble)

    p = sub.add_parser("eval", help="stratified Dice report for GT/prediction pairs")
    p.add_argument("--gt", default=None)
    p.add_argument("--pred", default=None)
    p.add_argument("--gt-dir", default=None)
    p.add_argument("--pred-dir", default=None)
    p.add_argument("--manifest", default=None, help="CSV of patient_id,gt_path,pred_path")
    p.add_argument("--threshold", type=float, default=metrics.DEFAULT_SAD_THRESHOLD_MM,
                   dest="threshold_mm", metavar="THRESHOLD",
                   help="SAD stratification threshold in mm (default 8.0)")
    p.add_argument("--connectivity", type=int, default=26, choices=(6, 18, 26))
    p.add_argument("--min-overlap", type=float, default=0.0,
                   dest="match_min_overlap", metavar="MIN_OVERLAP",
                   help="fraction of a predicted component that must overlap a GT node to match")
    p.add_argument("--ln-class", type=int, default=DEFAULT_LN_CLASS,
                   help="class id extracted from multi-class volumes (default 2)")
    p.add_argument("--jobs", type=int, default=None,
                   help="parallel patients (default: NODEMETRY_THREADS or 1)")
    p.add_argument("--out-json", default=None)
    p.add_argument("--out-csv", default=None)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("phantom", help="rasterize a synthetic node phantom")
    p.add_argument("--spec", required=True, help="phantom spec file")
    p.add_argument("--out", required=True, help="output volume")
    p.add_argument("--out-expected", default=None, help="expected per-node CSV")
    p.set_defaults(func=_cmd_phantom)

    p = sub.add_parser("loss", help="composite BCE + soft-Dice loss of a prediction")
    p.add_argument("--prob-dir", required=True, help="directory of class{C}.nii[.gz] volumes")
    p.add_argument("--gt", required=True, help="ground-truth label volume")
    p.add_argument("--out-json", default=None)
    p.set_defaults(func=_cmd_loss)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (NiftiFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NodemetryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
