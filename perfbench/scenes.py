"""Seeded input scenes for the benchmark workloads and the commands run on them.

Each workload writes its inputs with the toolkit itself (phantom.generate,
fusion.fuse, ensemble.argmax_labels, write_volume); that is what setup_s
times. What only the benchmark computes (the folds' probabilities) is made
once in `prepare`, before the timer starts. It then lists the CLI
steps of one pass, each with the files it writes and a check that compares
them with values computed directly from the generated inputs (see checks.py).
The same seed gives the same files.

Why these workloads, with the shares of one child pass that traced runs
measured on seeds 1-3 (`share_of_pipeline` in the detail line; layer times
are summed over threads, interpreter start and import count once per child):
- ct_sparse: one criterion-9 CT grid (512x512x829, uncompressed .nii) with six
  spread-out nodes, about 0.01% foreground. Labeling (the sparse path, whose
  foreground count and flatnonzero scan the whole grid) takes 39-43%;
  start-up and import 26-30%; .nii reads and writes 14-15%; overlap and
  matching 11-15%; morphometry 5%.
- cohort_dense: two gzipped patients with hundreds of nodes, one below and one
  above the sparse/dense labeling switch (about 2% and 6.5% foreground, with
  eroded and dilated predictions). Morphometry is most of the compute (61-72%
  of a pass, summed over `eval --jobs 2`'s threads); start-up and import
  40-45%; labeling 6-7%; I/O and matching a few percent.
- folds_29class: 29-class fusion of one mask per structure of the built-in map,
  then 5 folds x 30 class probability files on a 64x64x48 grid, in five
  children. Start-up and import take 45-53% of a pass, gzip reads 23-25% and
  writes 12-14%, fold averaging and the loss 2-3% each; node work is small.
"""

from __future__ import annotations

import math
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np
from scipy import ndimage

import checks
from nodemetry import ensemble, fusion, phantom
from nodemetry.nifti_io import write_volume
from nodemetry.phantom import PhantomNode, PhantomSpec
from nodemetry.volume import Volume, identity_affine

# the criterion-9 scene: (center mm, semiaxes mm, rotation deg) on 512x512x829
CT_DIMS = (512, 512, 829)
CT_SPACING = (0.9, 0.9, 0.8)
CT_NODES = (
    ((80.0, 80.0, 100.0), (6.0, 4.0, 5.0), 20.0),
    ((220.0, 220.0, 300.0), (10.0, 7.0, 8.0), 45.0),
    ((380.0, 150.0, 500.0), (3.5, 3.0, 4.0), 0.0),
    ((150.0, 380.0, 600.0), (12.0, 9.0, 10.0), 70.0),
    ((300.0, 320.0, 130.0), (5.0, 5.0, 5.0), 0.0),
    ((420.0, 400.0, 450.0), (8.0, 4.5, 6.0), 110.0),
)
CT_MISSED, CT_SHIFTED = 2, 1  # indices into CT_NODES


@dataclass
class Step:
    """One CLI invocation of a pass: `nodemetry <argv>` run in the scene dir."""

    command: str  # metric stem: cc, measure, eval, fuse, ensemble, vote, loss
    argv: list[str]
    outputs: list[str]  # files it writes, relative to the scene dir
    check: Callable[[Path, str], None]  # (scene dir, captured stdout), raises CheckFailed


@dataclass
class Truth:
    """In-memory record of the generated inputs, for building expectations."""

    arrays: dict = field(default_factory=dict)
    nodes: dict = field(default_factory=dict)  # name -> [(voxel_count, analytic SAD)]


def _span(dims, spacing):
    return [(n - 1) * s for n, s in zip(dims, spacing)]


def _node_table(expected) -> list[tuple[int, float]]:
    return [(m.voxel_count, m.sad_mm) for m in expected]


def _write(volume: Volume, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    write_volume(volume, path)


def _dist_ok(node: PhantomNode, others, margin: float) -> bool:
    return all(math.dist(node.center_mm, o.center_mm)
               > max(node.semiaxes_mm) + max(o.semiaxes_mm) + margin for o in others)


class CtSparse:
    """Criterion-9 geometry; the prediction misses one node, shifts one and
    adds one false positive."""

    name = "ct_sparse"

    def __init__(self, seed: int, dims=CT_DIMS, node_scale: float = 1.0):
        self.dims, self.spacing = tuple(dims), CT_SPACING
        rng = np.random.default_rng([seed, 1])
        ref, span = _span(CT_DIMS, CT_SPACING), _span(self.dims, self.spacing)
        margin = math.hypot(*self.spacing)
        nodes = []
        for center, axes, _rot in CT_NODES:
            c = tuple(x / r * s + rng.uniform(-0.02, 0.02) * s
                      for x, r, s in zip(center, ref, span))
            ax = tuple(a * node_scale * rng.uniform(0.95, 1.05) for a in axes)
            nodes.append(PhantomNode(c, ax, float(rng.uniform(0.0, 180.0))))
        # the missed and the shifted node lie inside the bounding box of the
        # others, so every seed gives eval the same grid area to scan
        drop, shift = CT_MISSED, CT_SHIFTED
        pred = list(nodes)
        moved = pred[shift]
        pred[shift] = PhantomNode((moved.center_mm[0] + 3 * self.spacing[0],) +
                                  moved.center_mm[1:], moved.semiaxes_mm, moved.rotation_deg)
        del pred[drop]
        axes = tuple(a * node_scale for a in (5.0, 4.0, 4.0))
        for _ in range(1000):
            # inside the nodes' bounding box, which sets the grid area eval scans
            c = tuple(rng.uniform(0.25, 0.75) * s for s in span)
            extra = PhantomNode(c, axes, float(rng.uniform(0.0, 180.0)))
            if _dist_ok(extra, nodes + pred, margin + 10.0 * node_scale):
                break
        else:
            raise ValueError(f"no room for a false positive in {self.dims}")
        pred.append(extra)
        self.gt_spec = PhantomSpec(self.dims, self.spacing, tuple(nodes))
        self.pred_spec = PhantomSpec(self.dims, self.spacing, tuple(pred))

    def write_inputs(self, d: Path) -> Truth:
        gt, expected = phantom.generate(self.gt_spec)
        _write(gt, d / "gt.nii")
        pred, _ = phantom.generate(self.pred_spec)
        _write(pred, d / "pred.nii")
        return Truth({"gt": gt.data, "pred": pred.data}, {"gt": _node_table(expected)})

    def steps(self, truth: Truth, d: Path) -> list[Step]:
        nodes = truth.nodes["gt"]
        dice = {"gt": checks.dice_formula(truth.arrays["gt"], truth.arrays["pred"])}
        sizes = [n for n, _ in nodes]
        return [
            Step("cc", ["cc", "--mask", "gt.nii", "--out-labels", "cc_labels.nii",
                        "--out-summary", "cc.json"], ["cc_labels.nii", "cc.json"],
                 lambda d, out: checks.check_cc(d / "cc.json", sizes)),
            Step("measure", ["measure", "--mask", "gt.nii", "--out", "measure.csv"],
                 ["measure.csv"],
                 lambda d, out: checks.check_measure(d / "measure.csv", nodes, self.spacing)),
            Step("eval", ["eval", "--gt", "gt.nii", "--pred", "pred.nii",
                          "--out-json", "eval.json"], ["eval.json"],
                 lambda d, out: checks.check_eval(d / "eval.json", dice)),
        ]


def lattice_nodes(rng, dims, spacing, count: int, spare: int, density: float,
                  max_scale: float):
    """count nodes filling about `density` of the grid, one per lattice cell,
    plus `spare` free cell centres; cells leave room for max_scale growth."""
    span = _span(dims, spacing)
    margin = math.sqrt(sum(s * s for s in spacing))
    mean_mm3 = density * math.prod(dims) * math.prod(spacing) / count
    # E[abc] = 0.536 r^3 for the axis draws below
    r = (3.0 * mean_mm3 / (4.0 * math.pi * 0.536)) ** (1.0 / 3.0)
    jitter = 0.5 * min(spacing)
    cell = 2.0 * r * max_scale + margin + 2.0 * jitter + 0.1
    per_axis = [int(s // cell) for s in span]
    cells = [(i, j, k) for i in range(per_axis[0]) for j in range(per_axis[1])
             for k in range(per_axis[2])]
    if len(cells) < count + spare:
        raise ValueError(f"{dims} holds {len(cells)} cells of {cell:.1f} mm, "
                         f"need {count + spare}")
    size = [s / n for s, n in zip(span, per_axis)]
    nodes = []
    for pos in rng.choice(len(cells), count + spare, replace=False):
        center = tuple((i + 0.5) * w + rng.uniform(-jitter, jitter)
                       for i, w in zip(cells[pos], size))
        a = r * rng.uniform(0.8, 1.0)
        axes = (a, a * rng.uniform(0.65, 0.9), r * rng.uniform(0.7, 1.0))
        nodes.append(PhantomNode(center, axes, float(rng.uniform(0.0, 180.0))))
    return nodes[:count], nodes[count:]


def _scaled(node: PhantomNode, scale: float) -> PhantomNode:
    return PhantomNode(node.center_mm, tuple(a * scale for a in node.semiaxes_mm),
                       node.rotation_deg)


# (patient id, nodes, foreground density, prediction scale, nodes dropped and added)
COHORT = (("p01", 150, 0.02, 0.85, 10), ("p02", 400, 0.065, 1.15, 20))


class CohortDense:
    """Two patients either side of the sparse/dense labeling switch; the
    predictions are eroded or dilated, with nodes dropped and added."""

    name = "cohort_dense"

    def __init__(self, seed: int, dims=(128, 128, 96), patients=COHORT):
        self.dims, self.spacing = tuple(dims), (1.0, 1.0, 1.25)
        rng = np.random.default_rng([seed, 2])
        self.specs = {}
        for pid, count, density, scale, changed in patients:
            nodes, spare = lattice_nodes(rng, self.dims, self.spacing, count, changed,
                                         density, max(scale, 1.0))
            keep = sorted(rng.choice(count, count - changed, replace=False))
            pred = [_scaled(nodes[i], scale) for i in keep] + spare
            self.specs[pid] = (PhantomSpec(self.dims, self.spacing, tuple(nodes)),
                               PhantomSpec(self.dims, self.spacing, tuple(pred)))

    def write_inputs(self, d: Path) -> Truth:
        truth = Truth()
        for pid, (gt_spec, pred_spec) in self.specs.items():
            gt, expected = phantom.generate(gt_spec)
            _write(gt, d / "gt" / f"{pid}.nii.gz")
            pred, _ = phantom.generate(pred_spec)
            _write(pred, d / "pred" / f"{pid}.nii.gz")
            truth.arrays[pid] = (gt.data, pred.data)
            truth.nodes[pid] = _node_table(expected)
        return truth

    def steps(self, truth: Truth, d: Path) -> list[Step]:
        dice = {pid: checks.dice_formula(gt, pred) for pid, (gt, pred) in truth.arrays.items()}
        steps = [Step("eval", ["eval", "--gt-dir", "gt", "--pred-dir", "pred", "--jobs", "2",
                               "--out-json", "eval.json", "--out-csv", "eval.csv"],
                      ["eval.json", "eval.csv"],
                      lambda d, out: checks.check_eval(d / "eval.json", dice))]
        for pid, nodes in truth.nodes.items():
            sizes = [n for n, _ in nodes]
            steps.append(Step(
                "cc", ["cc", "--mask", f"gt/{pid}.nii.gz", "--out-labels",
                       f"cc_{pid}.nii.gz", "--out-summary", f"cc_{pid}.json"],
                [f"cc_{pid}.nii.gz", f"cc_{pid}.json"],
                lambda d, out, pid=pid, sizes=sizes: checks.check_cc(d / f"cc_{pid}.json", sizes)))
            steps.append(Step(
                "measure", ["measure", "--mask", f"gt/{pid}.nii.gz", "--out",
                            f"measure_{pid}.csv"], [f"measure_{pid}.csv"],
                lambda d, out, pid=pid, nodes=nodes: checks.check_measure(
                    d / f"measure_{pid}.csv", nodes, self.spacing)))
        return steps


class Folds29:
    """29-class fusion, 5-fold probability ensembling, majority vote, LN
    evaluation of the ensemble and the composite loss of fold 0."""

    name = "folds_29class"
    folds = 5

    def __init__(self, seed: int, dims=(64, 64, 48), ln_nodes: int = 6):
        self.seed, self.dims, self.spacing = seed, tuple(dims), (1.5, 1.5, 2.0)
        self.ln_nodes = ln_nodes
        self.spec = fusion.default_fusion_spec()
        self.classes = self.spec.class_count + 1  # background + 29 classes

    def _probabilities(self, rng, fused: np.ndarray):
        """Per fold, float32 (x, y, z, class) softmax of smooth logits that
        favour the fused class; values rounded to float16 precision, with the
        top class absorbing the rounding so every voxel sums to 1."""
        coarse = tuple(max(2, n // 8) for n in self.dims)
        zoom = [n / m for n, m in zip(self.dims, coarse)]
        base = [ndimage.zoom(rng.standard_normal(coarse), zoom, order=1) for _ in range(4)]
        fields = np.stack([np.roll(base[c % 4], (c, 2 * c, 3 * c), axis=(0, 1, 2))
                           for c in range(self.classes)], axis=3)
        onehot = fused[..., None] == np.arange(self.classes)
        for _ in range(self.folds):
            shift = tuple(int(v) for v in rng.integers(-2, 3, size=3))
            logits = 1.5 * np.roll(fields, shift, axis=(0, 1, 2)) + 5.0 * onehot
            logits -= logits.max(axis=3, keepdims=True)
            np.exp(logits, out=logits)
            logits /= logits.sum(axis=3, keepdims=True)
            q = logits.astype(np.float16).astype(np.float64)
            top = q.argmax(axis=3)[..., None]
            np.put_along_axis(q, top, 0.0, axis=3)
            np.put_along_axis(q, top, 1.0 - q.sum(axis=3, keepdims=True), axis=3)
            yield q.astype(np.float32)

    def _scene(self, d: Path | None):
        """Anatomy masks, the LN mask and their fusion, written under `d`
        unless it is None; (rng, truth, fused labels)."""
        rng = np.random.default_rng([self.seed, 3])
        span = _span(self.dims, self.spacing)
        truth = Truth()
        anatomy = []
        for name, cid in self.spec.group_map.items():
            if cid == self.spec.ln_class:
                continue
            if name == "body_region":  # one large ellipsoid under everything
                node = PhantomNode(tuple(0.5 * s for s in span),
                                   tuple(0.42 * s for s in span), 0.0)
            else:
                axes = tuple(rng.uniform(0.04, 0.12) * min(span) for _ in range(3))
                r = max(axes) + 1.0
                node = PhantomNode(tuple(rng.uniform(r, s - r) for s in span), axes,
                                   float(rng.uniform(0.0, 180.0)))
            vol, _ = phantom.generate(PhantomSpec(self.dims, self.spacing, (node,)))
            if d is not None:
                _write(vol, d / "anatomy" / f"{name}.nii.gz")
            anatomy.append((name, vol))
            truth.arrays[name] = vol.data
        ln_spec = phantom.random_spec(self.dims, self.spacing, self.ln_nodes, self.seed,
                                      sad_range_mm=(4.0, 0.15 * min(span)))
        ln, _ = phantom.generate(ln_spec)
        if d is not None:
            _write(ln, d / "ln.nii.gz")
        truth.arrays["ln"] = ln.data
        return rng, truth, fusion.fuse(anatomy, ln, self.spec).data

    def prepare(self) -> None:
        """Compute the fold probabilities once, before any set-up is timed:
        they are the benchmark's synthetic model output, not toolkit work."""
        rng, _, fused = self._scene(None)
        self._probs = list(self._probabilities(rng, fused))

    def write_inputs(self, d: Path) -> Truth:
        _, truth, _ = self._scene(d)
        affine = identity_affine(self.spacing)
        (d / "loss_probs").mkdir()
        for k, probs in enumerate(self._probs):
            for c in range(self.classes):
                vol = Volume(np.asfortranarray(probs[..., c]), self.spacing, affine)
                _write(vol, d / "probs" / f"fold{k}_class{c}.nii.gz")
                if k == 0:  # `loss` reads fold 0 under the names it expects
                    shutil.copyfile(d / "probs" / f"fold0_class{c}.nii.gz",
                                    d / "loss_probs" / f"class{c}.nii.gz")
            labels = ensemble.argmax_labels(Volume(probs, self.spacing, affine,
                                                   kind="probability"))
            _write(labels, d / f"fold{k}_labels.nii.gz")
        return truth

    def _replay_fusion(self, truth: Truth) -> np.ndarray:
        """Paint each structure's class in precedence order, lymph nodes last."""
        out = np.zeros(self.dims, dtype=np.uint8)
        for cid in self.spec.precedence:
            for name, target in self.spec.group_map.items():
                if target != cid:
                    continue
                mask = truth.arrays["ln"] if cid == self.spec.ln_class else truth.arrays.get(name)
                if mask is not None:
                    out[mask != 0] = cid
        return out

    def steps(self, truth: Truth, d: Path) -> list[Step]:
        fused = self._replay_fusion(truth)
        files = [[d / "probs" / f"fold{k}_class{c}.nii.gz" for c in range(self.classes)]
                 for k in range(self.folds)]
        mean = checks.fold_mean(files)
        merged = checks.first_argmax(mean)
        vote = checks.majority([checks.read_nifti(d / f"fold{k}_labels.nii.gz")
                                for k in range(self.folds)])
        loss = checks.composite_loss([checks.read_nifti(f) for f in files[0]], fused)
        dice = {"fused": checks.dice_formula(fused == self.spec.ln_class,
                                             merged == self.spec.ln_class)}
        mean_files = [f"mean/mean_class{c}.nii.gz" for c in range(self.classes)]
        label_files = [f"fold{k}_labels.nii.gz" for k in range(self.folds)]

        def check_ensemble(d: Path, out: str) -> None:
            checks.check_labels(d / "merged.nii.gz", merged, "ensemble argmax")
            for c, name in enumerate(mean_files):
                data = checks.read_nifti(d / name)
                checks.expect(np.array_equal(data, mean[..., c]),
                              f"{name} differs from the float64 fold mean")

        return [
            Step("fuse", ["fuse", "--anatomy-dir", "anatomy", "--ln", "ln.nii.gz",
                          "--out", "fused.nii.gz"], ["fused.nii.gz"],
                 lambda d, out: checks.check_labels(d / "fused.nii.gz", fused, "fusion")),
            Step("ensemble", ["ensemble", "--prob-dir", "probs", "--out", "merged.nii.gz",
                              "--out-probs", "mean"], ["merged.nii.gz"] + mean_files,
                 check_ensemble),
            Step("vote", ["ensemble", "--labels", *label_files, "--out", "vote.nii.gz"],
                 ["vote.nii.gz"],
                 lambda d, out: checks.check_labels(d / "vote.nii.gz", vote, "majority vote")),
            Step("eval", ["eval", "--gt", "fused.nii.gz", "--pred", "merged.nii.gz",
                          "--ln-class", str(self.spec.ln_class), "--out-json", "eval.json"],
                 ["eval.json"], lambda d, out: checks.check_eval(d / "eval.json", dice)),
            Step("loss", ["loss", "--prob-dir", "loss_probs", "--gt", "fused.nii.gz",
                          "--out-json", "loss.json"], ["loss.json"],
                 lambda d, out: checks.check_loss(out, d / "loss.json", loss)),
        ]
