"""Command-line pipeline: fuse, cc, measure, ensemble, eval, phantom, loss.

Every run resolves its configuration (defaults: 8.0 mm SAD threshold,
26-connectivity, any-overlap matching, lymph-node class 2), echoes it, and
embeds it in JSON outputs. Floats in machine outputs are fixed at 4 decimals
so identical inputs produce byte-identical reports; the console summary
renders mean +/- std percent-style with one decimal.

Exit codes: 0 success, 1 validation/usage error, 2 I/O or file-format error
or out of memory. A run reports the first fault it meets, in the order it
reads: every header first, in file order, each grid against the first
file's, then the voxels: ensemble --prob-dir and loss read them slab by
slab, class by class and fold by fold (loss reads its gt whole before any
class voxel); once a fault is found, reads not yet started are cancelled.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from collections import deque
from contextlib import ExitStack, closing, suppress
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np

# fusion, ensemble, metrics, morphometry, phantom and concurrent.futures are
# imported by the commands that use them, in the main thread: a child loads
# only what its command runs, and no module is first loaded in a pool thread
from .components import Foreground, check_min_voxels, filter_components, label_components
from .errors import NiftiFormatError, NodemetryError, ValidationError
from .nifti_io import (DTYPE_FOR_CODE, Payload, VolumeFile, _replacing, open_volume, read_volume,
                       volume_streams, write_labels, write_volume)
from .volume import Volume, assert_same_grid, canonicalize, check_probabilities, label_dtype

DEFAULT_LN_CLASS = 2
SCHEMA_VERSION = 1

PROB_STEM_RE = re.compile(r"(?:fold(\d+)_)?class(\d+)")

# float32 bytes of each class file in one slab of whole z-slices (at least
# one slice) that `ensemble --prob-dir` reads at a time
_SLAB_BYTES = 1 << 16


def _q4(value):
    """Quantize floats to 4 decimals, recursively, for stable serialization."""
    if isinstance(value, float):
        return float(f"{value:.4f}")
    if isinstance(value, dict):
        return {k: _q4(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_q4(v) for v in value]
    return value


def _write_text(text: str, path) -> None:
    """Write a report as NIfTI files are written: path keeps its old file on error."""
    with _replacing(Path(path)) as f:
        f.write(text.encode("utf-8"))


def _write_json(payload: dict, path) -> None:
    _write_text(json.dumps(_q4(payload), indent=2) + "\n", path)


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
    missing = sorted(set(range(max(found))) - found.keys())
    if missing:
        raise ValidationError(f"folds must be 0..K-1, but no fold {missing[0]} in {directory}")
    count = len(next(iter(found.values())))
    for fold, classes in found.items():
        if sorted(classes) != list(range(count)):
            raise ValidationError(f"{pattern} files must cover 0..C-1 with one C in every "
                                  f"fold, got fold {fold} classes {sorted(classes)}")
    return [[classes[c] for c in range(count)] for _, classes in sorted(found.items())]


def _check_outputs(outputs, inputs=()) -> None:
    """Refuse a run that would write over a file it reads, or write one file
    twice, before it reads any: outputs are (flag, path) pairs, unset paths
    None; inputs the files it reads (unset ones None), a directory's as the
    files listed from it. Paths are compared resolved."""
    seen = {Path(p).resolve(): str(p) for p in inputs if p}
    for flag, path in outputs:
        if path:
            out = Path(path).resolve()
            if out in seen:
                raise ValidationError(f"{flag} {path} is also {seen[out]}")
            seen[out] = f"{flag} {path}"


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _file_pool(files: int):
    """A thread per usable CPU, at most one per file (zlib releases the GIL)."""
    from concurrent.futures import ThreadPoolExecutor
    return ThreadPoolExecutor(max_workers=max(1, min(files, _usable_cpus())))


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags by default; the toolkit reserves 2 for I/O
    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(1)


# ---------------------------------------------------------------- subcommands

def _cmd_fuse(args) -> int:
    from . import fusion
    files = _nifti_files(args.anatomy_dir)
    if not files:  # a map with no anatomical prior is no fusion
        raise ValidationError(f"no NIfTI files in {args.anatomy_dir}")
    _check_outputs([("--out", args.out)], [*files.values(), args.ln, args.spec])
    spec = fusion.load_fusion_spec(args.spec) if args.spec else fusion.default_fusion_spec()
    _config(args, spec=args.spec or "builtin")

    fusion.check_structures(files, spec)  # by name, before any header or voxel
    _same_grids(args.ln, files.values())
    anatomy = [(stem, read_volume(path, kind="label")) for stem, path in files.items()]
    ln_mask = read_volume(args.ln, kind="label")
    fused = fusion.fuse(anatomy, ln_mask, spec)
    write_volume(fused, args.out)
    print(f"fused {len(anatomy)} structures + lymph nodes -> {args.out} "
          f"({spec.class_count} classes)")
    return 0


def _cmd_cc(args) -> int:
    check_min_voxels(args.min_voxels)
    config = _config(args)
    _check_outputs([("--out-labels", args.out_labels), ("--out-summary", args.out_summary)],
                   [args.mask])

    mask = open_volume(args.mask)
    cset = label_components(mask, args.connectivity)
    cset = filter_components(cset, args.min_voxels)
    if args.out_labels:
        write_labels(cset.keys, cset.labels, mask, args.out_labels)
    if args.out_summary:
        _write_json(_report(config, count=cset.count, sizes=[int(s) for s in cset.sizes]),
                    args.out_summary)
    print(f"{cset.count} components (connectivity {args.connectivity})")
    return 0


def _cmd_measure(args) -> int:
    from . import morphometry
    _config(args)
    _check_outputs([("--out", args.out)], [args.mask])

    mask = canonicalize(open_volume(args.mask))
    cset = label_components(mask, args.connectivity)
    measurements = morphometry.measure_components(cset, mask)
    _write_text(morphometry.measurements_to_csv(measurements), args.out)
    print(f"measured {cset.count} nodes -> {args.out}")
    return 0


def _cmd_ensemble(args) -> int:
    from . import ensemble as ens
    if bool(args.labels) == bool(args.prob_dir):
        raise ValidationError("ensemble needs either --labels files or --prob-dir")
    if args.labels and args.out_probs:
        raise ValidationError("--out-probs needs --prob-dir: a vote of labels has no probabilities")
    _config(args)

    if args.labels:
        _check_outputs([("--out", args.out)], args.labels)
        _same_grids(args.labels[0], args.labels[1:])
        folds = ens.FoldSet(tuple(read_volume(p, kind="label") for p in args.labels),
                            kind="label")
        merged = ens.majority_vote(folds)
        write_volume(merged, args.out)
        print(f"majority vote over {len(folds)} label folds -> {args.out}")
        return 0

    paths = _prob_files(args.prob_dir, folds=True)
    classes = len(paths[0])
    out_dir = Path(args.out_probs) if args.out_probs else None
    targets = [out_dir / f"mean_class{c}.nii.gz" for c in range(classes)] if out_dir else []
    _check_outputs([*(("--out-probs", t) for t in targets), ("--out", args.out)],
                   [path for fold in paths for path in fold])
    with ExitStack() as files:
        readers = _open_prob_files(paths, files)
        grid = readers[0][0].info
        made = []
        if out_dir:
            made = [d for d in (out_dir, *out_dir.parents) if not d.exists()]
            out_dir.mkdir(parents=True, exist_ok=True)
        try:
            with volume_streams(targets, grid, np.dtype(np.float32), "scalar", "") as streams:
                labels = _stream_mean(readers, streams)
                # whole, so that its storage dtype follows write_volume's rule, and
                # before the means are renamed, so that a failed write leaves none
                write_volume(Volume(labels, grid.spacing, grid.affine, kind="label",
                                    class_count=classes), args.out)
        except BaseException:
            for d in made:  # deepest first: no directory that this run made is left
                with suppress(OSError):
                    d.rmdir()
            raise
    print(f"averaged {len(paths)} folds x {classes} classes -> {args.out}")
    return 0


def _same_grid(first_path, first, path, other) -> None:
    """assert_same_grid(first, other), its error led by the two files' names."""
    try:
        assert_same_grid(first, other)
    except NodemetryError as exc:
        raise type(exc)(f"{first_path} vs {path}: {exc}") from exc


def _same_grids(first_path, paths) -> None:
    """Each of paths' headers, in order, on first_path's grid: before any voxel is read."""
    first = open_volume(first_path)
    for path in paths:
        _same_grid(first_path, first, path, open_volume(path))


def _open_prob_files(paths: list[list[Path]], files: ExitStack) -> list[list[Payload]]:
    """The class files of every fold, opened with their headers parsed in
    file order, each on its fold's first file's grid and every fold's first
    file on fold 0's; the first bad header raises."""
    readers = []
    for fold in paths:
        readers.append([])
        for c, path in enumerate(fold):
            reader = Payload(files.enter_context(open(path, "rb")), path)
            # a class file against its fold's first, a fold's first against fold 0's
            ref = readers[-1][0] if c else (readers[0][0] if readers[0] else reader)
            _same_grid(fold[0] if c else paths[0][0], ref.info, path, reader.info)
            readers[-1].append(reader)
    return readers


def _class_slabs(readers: list[list[Payload]], depth: int, pool, ahead: int):
    """(z, c, grids) for each slab of depth whole z-slices of the class files
    and, within a slab, each class c in ascending order: grids holds class
    c's slab of every fold, in fold order, as a Fortran-ordered float32
    (nx, ny, d, folds) array. One pool task decodes each (slab, class). At
    most ahead of them, and never two of one class, are in flight, and the
    caller takes them in order, so each file is read front to back by one
    thread at a time. Before a slab's last class is yielded, each fold's
    slab passes, in fold order, the checks of the probability Volume that
    a whole fold's class stack would build (_ClassSums). The first read or
    check that fails, in that order, raises; on a fault or an early close,
    reads not yet started are cancelled, and those running end before the
    generator does, so the caller may close the files."""
    from concurrent.futures import wait
    nx, ny, nz = readers[0][0].info.dims
    classes = len(readers[0])

    def read(z: int, c: int) -> np.ndarray:
        grids = np.empty((nx, ny, min(depth, nz - z), len(readers)), dtype=np.float32, order="F")
        for k, fold in enumerate(readers):
            fold[c].decode_into(grids[..., k])
        return grids

    tasks = [(z, c) for z in range(0, nz, depth) for c in range(classes)]
    window = min(ahead, classes)
    futures = deque(pool.submit(read, *task) for task in tasks[:window])
    try:
        for i, (z, c) in enumerate(tasks):
            grids = futures.popleft().result()
            if i + window < len(tasks):
                futures.append(pool.submit(read, *tasks[i + window]))
            if c == 0:
                sums = [_ClassSums() for _ in readers]
            for k, checks in enumerate(sums):
                checks.add(grids[..., k])
                if c == classes - 1:
                    checks.check()
            yield z, c, grids
    finally:
        for later in futures:
            later.cancel()
        wait(futures)


class _ClassSums:
    """What a probability Volume checks of a class-major stack, gathered one
    class grid at a time in class order: its least and greatest values (NaN
    if any value is) and its per-voxel class sums, added in float64."""

    def __init__(self):
        self.lo = self.hi = self.sums = None

    def add(self, grid: np.ndarray) -> None:
        if self.sums is None:
            self.lo, self.hi, self.sums = grid.min(), grid.max(), grid.astype(np.float64)
        else:
            self.lo, self.hi = np.minimum(self.lo, grid.min()), np.maximum(self.hi, grid.max())
            self.sums += grid

    def check(self) -> None:
        check_probabilities(self.lo, self.hi, self.sums)


def _stream_mean(readers: list[list[Payload]], streams) -> np.ndarray:
    """The fold-averaged argmax labels of the class files, class slab by
    class slab (_class_slabs), each class's mean slab deflated into its
    stream on the pool. Every voxel gets the arithmetic of one pass over
    whole grids: each mean is ens.fold_mean, the labels a running argmax
    over ascending classes (ens.take_larger), and each slab passes the checks
    of the probability Volumes that pass builds: those of each fold in
    _class_slabs, then the range and class sums of the mean (_ClassSums). A
    stream takes its slabs in order, one write at a time."""
    from . import ensemble as ens
    nx, ny, nz = readers[0][0].info.dims
    folds, classes = len(readers), len(readers[0])
    depth = max(1, _SLAB_BYTES // (nx * ny * np.dtype(np.float32).itemsize))
    labels = np.empty((nx, ny, nz), dtype=label_dtype(classes), order="F")
    writes = {}
    # the file threads decode while as many slabs wait for the caller; closing
    # the slabs before the pool shuts down cancels the reads not yet started
    with _file_pool(folds * classes) as pool, \
            closing(_class_slabs(readers, depth, pool, 2 * _usable_cpus())) as slabs:
        for z, c, grids in slabs:
            mean = ens.fold_mean([grids[..., k] for k in range(folds)])
            slab = labels[:, :, z:z + mean.shape[2]]
            if c == 0:
                sums = _ClassSums()
                best = mean.copy(order="F")
                slab[...] = 0
            else:
                ens.take_larger(best, slab, mean, c)
            sums.add(mean)
            if streams:
                if c in writes:  # the stream's slab before
                    writes[c].result()
                # a Fortran-ordered slab's transpose is the C-ordered buffer of its bytes
                writes[c] = pool.submit(streams[c].write, mean.T)
            if c == classes - 1:
                sums.check()
        for write in writes.values():
            write.result()
    return labels


def _stream_loss(paths: list[Path], gt_path) -> float:
    """metrics.composite_loss of the class files against the gt label file,
    one class grid at a time: each class's metrics.class_loss is added in
    class order, so the value has the bits of composite_loss over the whole
    stack. The class headers are checked, then the gt (read whole, on their
    grid, no label of C or more), then each class file as it is read, with
    the checks of their stack's probability Volume (in _class_slabs)."""
    from . import metrics
    with ExitStack() as files:
        [readers] = _open_prob_files([paths], files)
        grid = readers[0].info
        gt = read_volume(gt_path, kind="label")
        _same_grid(paths[0], grid, gt_path, gt)
        metrics.check_loss_gt(gt, len(paths))
        total = 0.0
        # one class grid read ahead: a class's loss takes longer than its
        # read, so more would only hold more grids
        with _file_pool(len(paths)) as pool, \
                closing(_class_slabs([readers], grid.dims[2], pool, 1)) as slabs:
            for _, c, grids in slabs:
                total += metrics.class_loss(grids[..., 0], gt.data, c)
    return total / len(paths)


def _pair_volumes(args) -> list[tuple[str, Path, Path]]:
    forms = [[f"--{dest.replace('_', '-')}" for dest in form if getattr(args, dest)]
             for form in (("gt", "pred"), ("gt_dir", "pred_dir"), ("manifest",))]
    given = ["/".join(flags) for flags in forms if flags]
    if len(given) > 1:
        raise ValidationError(f"eval takes one of --gt/--pred, --gt-dir/--pred-dir or "
                              f"--manifest, got {' and '.join(given)}")
    if args.gt and args.pred:
        return [(_volume_stem(Path(args.gt)), Path(args.gt), Path(args.pred))]
    if args.manifest:
        try:
            text = Path(args.manifest).read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise ValidationError(f"{args.manifest}: not UTF-8 text ({exc.reason} at byte "
                                  f"{exc.start})") from None
        pairs, seen = [], {}
        for lineno, raw in enumerate(text.splitlines(), 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = [p.strip() for p in line.split(",")]
            if len(parts) != 3:
                raise ValidationError(
                    f"{args.manifest}:{lineno}: expected `patient_id,gt_path,pred_path`"
                )
            if seen.setdefault(parts[0], lineno) != lineno:
                raise ValidationError(f"{args.manifest}:{lineno}: patient_id {parts[0]!r} "
                                      f"already on line {seen[parts[0]]}")
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
    from . import morphometry
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
    from . import metrics
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
    store masks as 0/255), as is an all-zero file. Any other is multi-class
    and gives up its ln_class voxels (ln_class >= 1). Every nonzero voxel is
    kept while the file looks binary; those all hold one value, so when a
    chunk shows the file multi-class they stay if that value is ln_class,
    and go otherwise. A negative value in a signed file is no label: the
    pass stops at the first one.
    """

    def __init__(self, ln_class: int, path):
        super().__init__()
        self.ln_class, self.path = ln_class, path
        self.value = None  # the one nonzero value seen while the file looks binary
        self.binary = True

    def add(self, keys, chunk, start):
        values = chunk.ravel(order="F")[keys]
        if values.dtype.kind == "i" and values.size and values.min() < 0:
            first = values[np.argmax(values < 0)]
            raise ValidationError(f"{self.path}: label grid holds negative value {first}")
        if self.binary and values.size:
            hi = values.max()
            if values.min() == hi and hi in (1, 255) and self.value in (None, hi):
                self.value = hi
            else:
                self.binary = False
                if self.ln_class != self.value:
                    self._parts = []
        super().add(keys if self.binary else keys[values == self.ln_class], chunk, start)


def _ln_mask(mask: VolumeFile, ln_class: int) -> VolumeFile:
    """The lymph-node mask of an eval input: an unscaled integer file is a
    label file, binary or giving up ln_class (_LnForeground); a float or
    scaled file's nonzero voxels."""
    if mask.info.scaled or DTYPE_FOR_CODE[mask.info.datatype_code] == "f4":
        return mask
    return replace(mask, foreground=partial(_LnForeground, ln_class, mask.path))


def _cmd_eval(args) -> int:
    from . import metrics
    if args.threshold_mm is None:
        args.threshold_mm = metrics.DEFAULT_SAD_THRESHOLD_MM
    metrics.check_eval_options(args.threshold_mm, args.match_min_overlap)
    if args.ln_class < 1:  # 0 is background; no voxel holds a negative class
        raise ValidationError(f"--ln-class must be >= 1, got {args.ln_class}")
    if args.jobs < 1:
        raise ValidationError(f"--jobs must be at least 1, got {args.jobs}")
    pairs = _pair_volumes(args)
    _check_outputs([("--out-json", args.out_json), ("--out-csv", args.out_csv)],
                   [args.manifest, *(path for pair in pairs for path in pair[1:])])
    # the input flags are echoed as the pairs they resolve to
    config = _config(args, hide=("gt", "pred", "gt_dir", "pred_dir", "manifest"),
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

    if args.jobs > 1 and len(pairs) > 1:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=args.jobs) as pool:
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
        _write_text("\n".join(lines) + "\n", args.out_csv)
    _print_cohort_summary(cohort, args.threshold_mm)
    return 0


def _cmd_phantom(args) -> int:
    from . import morphometry, phantom
    _config(args)
    _check_outputs([("--out", args.out), ("--out-expected", args.out_expected)], [args.spec])

    spec = phantom.load_phantom_spec(args.spec)
    volume, expected = phantom.generate(spec)
    write_volume(volume, args.out)
    if args.out_expected:
        _write_text(morphometry.measurements_to_csv(expected), args.out_expected)
    print(f"phantom with {len(expected)} nodes -> {args.out}")
    return 0


def _cmd_loss(args) -> int:
    config = _config(args)

    [paths] = _prob_files(args.prob_dir, folds=False)
    _check_outputs([("--out-json", args.out_json)], [*paths, args.gt])
    value = _stream_loss(paths, args.gt)
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
    p.add_argument("--threshold", type=float, default=None,
                   dest="threshold_mm", metavar="THRESHOLD",
                   help="SAD stratification threshold in mm (default 8.0)")
    p.add_argument("--connectivity", type=int, default=26, choices=(6, 18, 26))
    p.add_argument("--min-overlap", type=float, default=0.0,
                   dest="match_min_overlap", metavar="MIN_OVERLAP",
                   help="fraction of a predicted component that must overlap a GT node to match")
    p.add_argument("--ln-class", type=int, default=DEFAULT_LN_CLASS,
                   help="class id (>= 1) extracted from multi-class volumes (default 2)")
    p.add_argument("--jobs", type=int, default=1, help="parallel patients (default 1)")
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
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2
    except NodemetryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
