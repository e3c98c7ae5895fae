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
from pathlib import Path

import numpy as np

from . import ensemble as ens
from . import fusion, metrics, morphometry, phantom
from .components import filter_components, label_components
from .errors import NiftiFormatError, NodemetryError, ValidationError
from .nifti_io import read_volume, write_volume
from .volume import Volume, canonicalize

DEFAULT_LN_CLASS = 2
SCHEMA_VERSION = 1

PROB_FILE_RE = re.compile(r"^fold(\d+)_class(\d+)\.nii(\.gz)?$")
CLASS_FILE_RE = re.compile(r"^class(\d+)\.nii(\.gz)?$")


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


def _echo_config(config: dict) -> None:
    print("config: " + json.dumps(_q4(config), sort_keys=True))


def _volume_stem(path: Path) -> str:
    name = path.name
    for suffix in (".nii.gz", ".nii"):
        if name.endswith(suffix):
            return name[: -len(suffix)]
    return path.stem


def _jobs(args) -> int:
    if getattr(args, "jobs", None):
        return max(1, args.jobs)
    env = os.environ.get("NODEMETRY_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise ValidationError(f"NODEMETRY_THREADS={env!r} is not an integer") from None
    return 1


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags by default; the toolkit reserves 2 for I/O
    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(1)


# ---------------------------------------------------------------- subcommands

def _cmd_fuse(args) -> int:
    spec = fusion.load_fusion_spec(args.spec) if args.spec else fusion.default_fusion_spec()
    config = {"command": "fuse", "anatomy_dir": str(args.anatomy_dir),
              "ln": str(args.ln), "spec": str(args.spec) if args.spec else "builtin",
              "out": str(args.out)}
    _echo_config(config)

    anatomy = []
    for path in sorted(Path(args.anatomy_dir).iterdir()):
        if path.name.endswith((".nii", ".nii.gz")):
            anatomy.append((_volume_stem(path), read_volume(path, kind="label")))
    ln_mask = read_volume(args.ln, kind="label")
    fused = fusion.fuse(anatomy, ln_mask, spec)
    write_volume(fused, args.out)
    print(f"fused {len(anatomy)} structures + lymph nodes -> {args.out} "
          f"({spec.class_count} classes)")
    return 0


def _cmd_cc(args) -> int:
    config = {"command": "cc", "mask": str(args.mask), "connectivity": args.connectivity,
              "min_voxels": args.min_voxels, "out_labels": str(args.out_labels or ""),
              "out_summary": str(args.out_summary or "")}
    _echo_config(config)

    vol = read_volume(args.mask)
    cset = label_components(vol, args.connectivity)
    cset = filter_components(cset, args.min_voxels)
    if args.out_labels:
        write_volume(vol.with_data(cset.component_of, kind="label",
                                   class_count=cset.count + 1), args.out_labels)
    summary = {"schema": SCHEMA_VERSION, "config": config, "count": cset.count,
               "sizes": [int(s) for s in cset.sizes]}
    if args.out_summary:
        _write_json(summary, args.out_summary)
    print(f"{cset.count} components (connectivity {args.connectivity})")
    return 0


def _cmd_measure(args) -> int:
    config = {"command": "measure", "mask": str(args.mask),
              "connectivity": args.connectivity, "out": str(args.out)}
    _echo_config(config)

    vol = canonicalize(read_volume(args.mask))
    cset = label_components(vol, args.connectivity)
    measurements = morphometry.measure_components(cset, vol)
    Path(args.out).write_text(morphometry.measurements_to_csv(measurements),
                              encoding="utf-8")
    print(f"measured {cset.count} nodes -> {args.out}")
    return 0


def _read_prob_stack(paths: list[Path]) -> Volume:
    """Stack per-class scalar volumes into one probability volume."""
    grids = []
    first = None
    for path in paths:
        vol = read_volume(path, kind="scalar")
        if first is None:
            first = vol
        data = np.asarray(vol.data, dtype=np.float32)
        grids.append(data)
    stacked = np.stack(grids, axis=3)
    return Volume(stacked, first.spacing, first.affine, kind="probability")


def _cmd_ensemble(args) -> int:
    if bool(args.labels) == bool(args.prob_dir):
        raise ValidationError("ensemble needs either --labels files or --prob-dir")
    config = {"command": "ensemble", "labels": [str(p) for p in (args.labels or [])],
              "prob_dir": str(args.prob_dir or ""), "out": str(args.out),
              "out_probs": str(args.out_probs or "")}
    _echo_config(config)

    if args.labels:
        folds = ens.FoldSet(tuple(read_volume(p, kind="label") for p in args.labels),
                            kind="label")
        merged = ens.majority_vote(folds)
        write_volume(merged, args.out)
        print(f"majority vote over {len(folds)} label folds -> {args.out}")
        return 0

    prob_dir = Path(args.prob_dir)
    found: dict[int, dict[int, Path]] = {}
    for path in sorted(prob_dir.iterdir()):
        m = PROB_FILE_RE.match(path.name)
        if m:
            found.setdefault(int(m.group(1)), {})[int(m.group(2))] = path
    if not found:
        raise ValidationError(
            f"no fold{{K}}_class{{C}}.nii[.gz] files in {prob_dir}"
        )
    class_ids = sorted(next(iter(found.values())))
    for fold, classes in sorted(found.items()):
        if sorted(classes) != class_ids:
            raise ValidationError(
                f"fold {fold} classes {sorted(classes)} != {class_ids}"
            )
    members = tuple(
        _read_prob_stack([found[fold][c] for c in class_ids])
        for fold in sorted(found)
    )
    mean = ens.average_probabilities(ens.FoldSet(members, kind="probability"))
    merged = ens.argmax_labels(mean)
    write_volume(merged, args.out)
    if args.out_probs:
        out_dir = Path(args.out_probs)
        out_dir.mkdir(parents=True, exist_ok=True)
        for pos, c in enumerate(class_ids):
            write_volume(
                Volume(np.ascontiguousarray(mean.data[..., pos]), mean.spacing,
                       mean.affine, kind="scalar"),
                out_dir / f"mean_class{c}.nii.gz",
            )
    print(f"averaged {len(members)} folds x {len(class_ids)} classes -> {args.out}")
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
        gt_files = {_volume_stem(p): p for p in Path(args.gt_dir).iterdir()
                    if p.name.endswith((".nii", ".nii.gz"))}
        pred_files = {_volume_stem(p): p for p in Path(args.pred_dir).iterdir()
                      if p.name.endswith((".nii", ".nii.gz"))}
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
        "nodes": [
            {
                "component_index": m.component_index,
                "voxel_count": m.voxel_count,
                "volume_mm3": m.volume_mm3,
                "sad_mm": m.sad_mm,
                "sad_slice_index": m.sad_slice_index,
                "long_axis_mm": m.long_axis_mm,
                "dice": d,
            }
            for m, d in report.per_node
        ],
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


def _ln_mask(vol: Volume, ln_class: int) -> Volume:
    """The lymph-node mask of an eval input.

    Label volumes holding more than 0 and 1 are multi-class and give up
    ln_class, except 0/255 masks: those are binary (nonzero is foreground,
    as everywhere downstream), as many tools store them.
    """
    if vol.kind != "label" or vol.class_count == 2:
        return vol
    data = vol.data
    hi = int(data.max())
    binary = hi <= 1 or (hi == 255 and np.count_nonzero(data) == np.count_nonzero(data == 255))
    return vol if binary else fusion.extract_class(vol, ln_class)


def _cmd_eval(args) -> int:
    metrics.check_eval_options(args.threshold, args.min_overlap)
    pairs = _pair_volumes(args)
    config = {"command": "eval", "threshold_mm": args.threshold,
              "connectivity": args.connectivity, "match_min_overlap": args.min_overlap,
              "ln_class": args.ln_class, "jobs": _jobs(args),
              "pairs": [[pid, str(g), str(p)] for pid, g, p in pairs],
              "out_json": str(args.out_json or ""), "out_csv": str(args.out_csv or "")}
    _echo_config(config)

    def one(pair):
        pid, gt_path, pred_path = pair
        gt = _ln_mask(read_volume(gt_path), args.ln_class)
        pred = _ln_mask(read_volume(pred_path), args.ln_class)
        try:
            return metrics.evaluate_patient(
                gt, pred, threshold_mm=args.threshold,
                connectivity=args.connectivity,
                match_min_overlap=args.min_overlap, patient_id=pid)
        except NodemetryError as exc:
            raise type(exc)(f"{gt_path} vs {pred_path}: {exc}") from exc

    jobs = _jobs(args)
    if jobs > 1 and len(pairs) > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            reports = list(pool.map(one, pairs))
    else:
        reports = [one(p) for p in pairs]
    reports.sort(key=lambda r: r.patient_id)

    cohort = metrics.aggregate(reports)
    payload = {
        "schema": SCHEMA_VERSION,
        "config": {k: v for k, v in config.items() if k != "pairs"},
        "cohort": {
            "n_patients": cohort.n_patients,
            **{
                s: {"mean": st.mean, "std": st.std, "n": st.n}
                for s, st in cohort.strata.items()
            },
        },
        "patients": [_patient_payload(r) for r in reports],
    }
    if args.out_json:
        _write_json(payload, args.out_json)
    if args.out_csv:
        lines = ["patient_id,stratum,dice"]
        lines += [f"{pid},{stratum},{value:.4f}" for pid, stratum, value in cohort.rows]
        Path(args.out_csv).write_text("\n".join(lines) + "\n", encoding="utf-8")
    _print_cohort_summary(cohort, args.threshold)
    return 0


def _cmd_phantom(args) -> int:
    config = {"command": "phantom", "spec": str(args.spec), "out": str(args.out),
              "out_expected": str(args.out_expected or "")}
    _echo_config(config)

    spec = phantom.load_phantom_spec(args.spec)
    volume, expected = phantom.generate(spec)
    write_volume(volume, args.out)
    if args.out_expected:
        Path(args.out_expected).write_text(
            morphometry.measurements_to_csv(expected), encoding="utf-8")
    print(f"phantom with {len(expected)} nodes -> {args.out}")
    return 0


def _cmd_loss(args) -> int:
    config = {"command": "loss", "prob_dir": str(args.prob_dir), "gt": str(args.gt),
              "out_json": str(args.out_json or "")}
    _echo_config(config)

    prob_dir = Path(args.prob_dir)
    classes: dict[int, Path] = {}
    for path in sorted(prob_dir.iterdir()):
        m = CLASS_FILE_RE.match(path.name)
        if m:
            classes[int(m.group(1))] = path
    if not classes:
        raise ValidationError(f"no class{{C}}.nii[.gz] files in {prob_dir}")
    class_ids = sorted(classes)
    if class_ids != list(range(len(class_ids))):
        raise ValidationError(f"class files must cover 0..C-1, got {class_ids}")

    probs = _read_prob_stack([classes[c] for c in class_ids])
    gt = read_volume(args.gt, kind="label")
    gt = gt.with_data(gt.data, class_count=len(class_ids))
    value = metrics.composite_loss(probs, gt)
    if args.out_json:
        _write_json({"schema": SCHEMA_VERSION, "config": config, "loss": value},
                    args.out_json)
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
    p.add_argument("--labels", nargs="+", default=None, help="per-fold label volumes (majority vote)")
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
                   help="SAD stratification threshold in mm (default 8.0)")
    p.add_argument("--connectivity", type=int, default=26, choices=(6, 18, 26))
    p.add_argument("--min-overlap", type=float, default=0.0,
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
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (NiftiFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NodemetryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
