"""Acceptance suite: one test per criterion, each printing a PASS line.

Real-cohort Dice scores would need hospital data and trained models, so
acceptance is property-based: analytic phantoms and brute-force oracles.
Run `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
"""

import json
import math
import resource
import subprocess
import sys
import time

import numpy as np
import pytest

import nodemetry as nm
from nodemetry.metrics import _bce_arrays
from nodemetry.phantom import PhantomNode, PhantomSpec
from conftest import make_volume
from oracles import (
    erode_6,
    flood_fill_components,
    naive_composite_loss,
    naive_majority,
    naive_mean_probs,
    ref_read_nifti,
    replay_precedence,
)

GB = 1024 * 1024  # ru_maxrss is KB on Linux


def f32(x):
    return float(np.float32(x))


def test_criterion_1_nifti_round_trip(tmp_path):
    start = time.monotonic()
    rng = np.random.default_rng(2024)
    dtypes = ["u1", "i2", "i4", "f4"]
    for i in range(200):
        dt = dtypes[i % 4]
        shape = tuple(int(n) for n in rng.integers(2, 13, 3))
        if dt == "f4":
            data = rng.normal(size=shape).astype("f4")
            kind = "scalar"
        else:
            data = rng.integers(0, 200, shape).astype(dt)
            kind = "label" if dt == "u1" else "scalar"
        spacing = tuple(f32(s) for s in rng.uniform(0.3, 4.0, 3))
        affine = np.zeros((3, 4))
        affine[:, :3] = np.diag(spacing)
        affine[:, 3] = rng.uniform(-200, 200, 3)
        affine = affine.astype(np.float32).astype(np.float64)
        v = nm.Volume(data, spacing, affine, kind=kind, description=f"rt{i}")
        path = tmp_path / (f"v{i}.nii.gz" if i % 2 else f"v{i}.nii")
        nm.write_volume(v, path)
        r = nm.read_volume(path)
        assert r.data.tobytes() == v.data.tobytes()  # bitwise
        assert r.data.dtype == v.data.dtype
        assert r.dims == v.dims and r.spacing == v.spacing
        assert np.array_equal(r.affine, v.affine)
        assert r.description == v.description
        if i < 4:  # parse-equivalence against the independent reference parser
            ref = ref_read_nifti(path)
            assert ref["shape"] == v.dims
            assert np.array_equal(ref["data"], v.data)
            assert np.allclose(ref["spacing"], v.spacing)
            assert np.array_equal(ref["affine"], v.affine)
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    print(f"\nPASS criterion 1: 200 round trips bitwise-equal, 4 reference-parsed "
          f"({elapsed:.1f}s < 30s)")


def test_criterion_2_connected_components():
    start = time.monotonic()
    for connectivity in (6, 18, 26):
        for seed in range(100):
            mask = np.random.default_rng(seed).random((32, 32, 32)) < 0.2
            cset = nm.label_components(mask, connectivity)
            oracle = flood_fill_components(mask, connectivity)
            assert cset.count == oracle.max()
            assert np.array_equal(cset.component_of, oracle)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    print(f"\nPASS criterion 2: 300 masks match flood fill exactly at "
          f"connectivity 6/18/26 ({elapsed:.1f}s < 60s)")


def _single_node(semiaxes, rotation, spacing):
    ax_extent = [max(semiaxes) + 2 * s for s in spacing]
    dims = tuple(int(2 * math.ceil(e / s)) + 3 for e, s in zip(ax_extent, spacing))
    center = tuple((n - 1) * s / 2 for n, s in zip(dims, spacing))
    return PhantomSpec(dims, spacing, (PhantomNode(center, semiaxes, rotation),))


def test_criterion_3_sad_analytics():
    start = time.monotonic()
    rotations = [0.0, 17.0, 30.0, 45.0, 60.0, 90.0, 120.0, 150.0, 170.0]
    # (a, b, c) mm; analytic SAD = 2*min(a, b), kept clear of the 8 mm
    # threshold by more than one voxel diagonal so stratification is decidable
    shapes = [
        (3.0, 3.0, 4.0),    # SAD 6, small
        (5.0, 3.2, 4.0),    # SAD 6.4, small
        (4.0, 3.0, 6.0),    # SAD 6, small
        (6.0, 3.0, 5.0),    # SAD 6, small
        (5.0, 5.0, 5.0),    # SAD 10, large
        (8.0, 5.0, 6.0),    # SAD 10, large
        (10.0, 6.0, 8.0),   # SAD 12, large
        (14.0, 7.0, 9.0),   # SAD 14, large
        (20.0, 10.0, 12.0), # SAD 20, large
        (12.0, 12.0, 6.0),  # SAD 24 in plane... min(a,b)=12 -> SAD 24, large
        (16.0, 8.0, 10.0),  # SAD 16, large
    ]
    cases = []
    for idx, shape in enumerate(shapes):
        cases.append((shape, rotations[idx % len(rotations)], (1.0, 1.0, 1.0)))
        cases.append((shape, rotations[(idx + 3) % len(rotations)], (0.8, 0.8, 1.5)))
    assert len(cases) >= 20

    n_large = 0
    for semiaxes, rotation, spacing in cases:
        vol, expected = nm.generate(_single_node(semiaxes, rotation, spacing))
        cset = nm.label_components(vol, 26)
        assert cset.count == 1
        m = nm.measure_node(cset.voxels(1), vol, component_index=1)
        analytic = expected[0].sad_mm
        tol = math.hypot(spacing[0], spacing[1])  # one in-plane voxel extent
        assert abs(m.sad_mm - analytic) <= tol, (semiaxes, rotation, spacing, m.sad_mm)
        large, small = nm.stratify([m], 8.0)
        if analytic >= 8.0:
            assert [x.component_index for x in large] == [1]
            n_large += 1
        else:
            assert [x.component_index for x in small] == [1]
    assert 0 < n_large < len(cases)  # both strata exercised
    # the >= is inclusive: an exactly-8mm measurement lands in the large set
    exact = nm.NodeMeasurement(1, 8.0, 0, 8.0, 1.0, 1)
    assert nm.stratify([exact], 8.0)[0] == (exact,)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    print(f"\nPASS criterion 3: {len(cases)} phantom ellipsoids within one "
          f"in-plane voxel extent, 8mm stratification correct ({elapsed:.1f}s < 60s)")


def test_criterion_4_dice_oracle():
    rng = np.random.default_rng(7)
    for trial in range(500):
        shape = tuple(int(n) for n in rng.integers(2, 7, 3))
        a = (rng.random(shape) < rng.uniform(0, 0.8)).astype(np.uint8)
        b = (rng.random(shape) < rng.uniform(0, 0.8)).astype(np.uint8)
        va, vb = make_volume(a), make_volume(b)
        d = nm.dice(va, vb)
        na, nb = int(a.sum()), int(b.sum())
        ninter = int((a & b).sum())
        expected = 1.0 if na + nb == 0 else 2.0 * ninter / (na + nb)
        assert d == expected  # exact, both are ratios of the same integers
        assert d == nm.dice(vb, va)
    empty = make_volume(np.zeros((3, 3, 3), np.uint8))
    assert nm.dice(empty, empty) == 1.0
    print("\nPASS criterion 4: 500 random pairs equal direct voxel counting, "
          "both-empty = 1.0, symmetric")


def test_criterion_5_composite_loss():
    rng = np.random.default_rng(11)
    for _ in range(50):
        n_classes = int(rng.integers(2, 5))
        raw = rng.random((8, 8, 8, n_classes))
        probs_arr = raw / raw.sum(axis=3, keepdims=True)
        labels = rng.integers(0, n_classes, (8, 8, 8)).astype(np.uint8)
        mine = nm.composite_loss(make_volume(probs_arr, kind="probability"),
                                 make_volume(labels, kind="label", class_count=n_classes))
        assert abs(mine - naive_composite_loss(probs_arr, labels)) <= 1e-6
        assert mine >= 0.0

    labels = np.random.default_rng(1).integers(0, 3, (6, 6, 6)).astype(np.uint8)
    onehot = np.zeros(labels.shape + (3,), np.float32)
    for c in range(3):
        onehot[..., c] = labels == c
    perfect = nm.composite_loss(make_volume(onehot, kind="probability"),
                                make_volume(labels, kind="label", class_count=3))
    assert perfect <= 2e-4

    half = np.full((4, 4, 4), 0.5)
    for g in (np.zeros((4, 4, 4)), np.ones((4, 4, 4))):
        assert abs(_bce_arrays(half, g) - math.log(2.0)) <= 1e-6
    print("\nPASS criterion 5: 50 instances within 1e-6 of the naive oracle, "
          "perfect one-hot <= 2e-4, BCE(0.5) = ln 2")


def test_criterion_6_fusion():
    spec = nm.default_fusion_spec()
    assert spec.group_map["spleen"] == 3
    assert spec.group_map["trachea"] == 16
    assert spec.group_map["pulmonary_artery"] == 18
    names = ["body_region", "spleen", "liver", "trachea", "pulmonary_artery",
             "esophagus", "aorta", "lung_upper_lobe_left"]
    for seed in range(10):
        rng = np.random.default_rng(seed)
        shape = (16, 16, 16)
        anatomy = []
        sources: dict[int, np.ndarray] = {}
        for name in names:
            mask = (rng.random(shape) < rng.uniform(0.05, 0.35)).astype(np.uint8)
            anatomy.append((name, make_volume(mask, kind="label")))
            cid = spec.group_map[name]
            sources[cid] = (mask != 0) | sources.get(cid, False)
        ln = (rng.random(shape) < 0.15).astype(np.uint8)
        sources[spec.ln_class] = ln != 0
        fused = nm.fuse(anatomy, make_volume(ln, kind="label"), spec)
        assert np.array_equal(fused.data,
                              replay_precedence(sources, spec.precedence, shape))
        ln_out = nm.extract_class(fused, spec.ln_class).data
        assert np.all(ln_out[ln != 0] == 1)  # LN supremacy
    print("\nPASS criterion 6: 10 random scenes equal per-voxel precedence replay, "
          "LN supremacy holds, published mappings verified")


def test_criterion_7_ensemble():
    rng = np.random.default_rng(23)
    shape = (4, 4, 3)
    raw = [rng.random(shape + (3,)) for _ in range(5)]
    prob_folds = tuple(
        make_volume(r / r.sum(axis=3, keepdims=True), kind="probability") for r in raw
    )
    label_folds = tuple(
        make_volume(rng.integers(0, 4, shape).astype(np.uint8), kind="label",
                    class_count=4)
        for _ in range(5)
    )
    mean = nm.average_probabilities(nm.FoldSet(prob_folds, "probability"))
    vote = nm.majority_vote(nm.FoldSet(label_folds, "label"))
    assert np.allclose(mean.data, naive_mean_probs([f.data for f in prob_folds]), atol=1e-6)
    assert np.array_equal(vote.data, naive_majority([f.data for f in label_folds], 4))
    for _ in range(10):
        order = rng.permutation(5)
        p = nm.average_probabilities(
            nm.FoldSet(tuple(prob_folds[i] for i in order), "probability"))
        l = nm.majority_vote(nm.FoldSet(tuple(label_folds[i] for i in order), "label"))
        assert np.allclose(p.data, mean.data, atol=1e-7)
        assert np.array_equal(l.data, vote.data)
    single = nm.average_probabilities(nm.FoldSet((prob_folds[0],), "probability"))
    assert np.array_equal(single.data, prob_folds[0].data)  # idempotent, exact
    single_l = nm.majority_vote(nm.FoldSet((label_folds[0],) * 5, "label"))
    assert np.array_equal(single_l.data, label_folds[0].data)
    print("\nPASS criterion 7: fold reductions match brute force, invariant under "
          "10 shufflings, single-fold idempotence exact")


def _cohort_patient_spec(seed: int, n_small: int, n_large: int) -> PhantomSpec:
    """Nodes on a coarse lattice, strata kept > 1 voxel diagonal away from 8mm."""
    rng = np.random.default_rng(seed)
    slots = [(x, y, z) for x in (60.0, 128.0, 196.0) for y in (60.0, 196.0)
             for z in (60.0, 140.0)]
    order = rng.permutation(len(slots))
    nodes = []
    for idx in range(n_small + n_large):
        cx, cy, cz = slots[order[idx]]
        if idx < n_small:
            b = float(rng.uniform(2.0, 3.2))    # SAD 4.0 - 6.4
        else:
            b = float(rng.uniform(5.5, 10.0))   # SAD 11 - 20
        a = float(b * rng.uniform(1.0, 1.5))
        c = float(rng.uniform(b, a + 2.0))
        rot = float(rng.uniform(0.0, 180.0))
        jitter = rng.uniform(-6.0, 6.0, 3)
        center = (cx + jitter[0], cy + jitter[1], cz + jitter[2])
        nodes.append(PhantomNode(center, (a, b, c), rot))
    return PhantomSpec((256, 256, 200), (1.0, 1.0, 1.0), tuple(nodes), seed=seed)


def test_criterion_8_end_to_end_cohort(tmp_path):
    start = time.monotonic()
    gt_dir = tmp_path / "gt"; gt_dir.mkdir()
    pred_dir = tmp_path / "pred"; pred_dir.mkdir()
    counts = [(2, 2), (1, 3), (3, 2), (2, 1), (3, 3)]  # (small, large) per patient
    expected_all = {}
    for p, (n_small, n_large) in enumerate(counts):
        pid = f"case{p}"
        vol, expected = nm.generate(_cohort_patient_spec(400 + p, n_small, n_large))
        cset = nm.label_components(vol, 26)
        assert cset.count == n_small + n_large
        pred = np.array(vol.data)
        s_total = l_total = 0
        for exp in expected:  # delete exactly the small-stratum nodes
            if exp.sad_mm < 8.0:
                vox = cset.voxels(exp.component_index)
                pred[vox[:, 0], vox[:, 1], vox[:, 2]] = 0
                s_total += exp.voxel_count
            else:
                l_total += exp.voxel_count
        expected_all[pid] = 2 * l_total / (2 * l_total + s_total)
        nm.write_volume(vol, gt_dir / f"{pid}.nii.gz")
        nm.write_volume(vol.with_data(pred), pred_dir / f"{pid}.nii.gz")

    out_json = tmp_path / "cohort.json"
    out_csv = tmp_path / "cohort.csv"
    rc = subprocess.run(
        [sys.executable, "-m", "nodemetry.cli", "eval",
         "--gt-dir", str(gt_dir), "--pred-dir", str(pred_dir), "--jobs", "2",
         "--out-json", str(out_json), "--out-csv", str(out_csv)],
        capture_output=True, text=True)
    assert rc.returncode == 0, rc.stderr
    payload = json.loads(out_json.read_text())
    cohort = payload["cohort"]
    assert cohort["n_patients"] == 5
    assert cohort["large"]["mean"] == 1.0 and cohort["large"]["std"] == 0.0
    assert cohort["small"]["mean"] == 0.0 and cohort["small"]["std"] == 0.0
    hand_mean = float(np.mean(list(expected_all.values())))
    hand_std = float(np.std(list(expected_all.values())))
    assert cohort["all"]["mean"] == pytest.approx(hand_mean, abs=1e-4)
    assert cohort["all"]["std"] == pytest.approx(hand_std, abs=1e-4)
    for patient in payload["patients"]:
        assert patient["dice_all"] == pytest.approx(
            expected_all[patient["patient_id"]], abs=5e-5)
        assert patient["dice_large"] == 1.0
        assert patient["dice_small"] == 0.0

    # erosion corruption: Dice drops exactly per voxel counting
    vol, _ = nm.generate(_cohort_patient_spec(999, 1, 2))
    eroded = erode_6(vol.data)
    rep = nm.evaluate_patient(vol, vol.with_data(eroded.astype(np.uint8)))
    n_gt, n_er = int(vol.data.sum()), int(eroded.sum())
    assert 0 < n_er < n_gt
    assert rep.dice_all == pytest.approx(2 * n_er / (n_gt + n_er), abs=1e-12)

    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    print(f"\nPASS criterion 8: 5-patient 256x256x200 cohort matches hand-derived "
          f"Dice (small=0, large=1), erosion case counts exactly ({elapsed:.1f}s < 120s)")


def test_criterion_9_scale(tmp_path):
    spec = PhantomSpec((512, 512, 829), (0.9, 0.9, 0.8), (
        PhantomNode((80.0, 80.0, 100.0), (6.0, 4.0, 5.0), 20.0),
        PhantomNode((220.0, 220.0, 300.0), (10.0, 7.0, 8.0), 45.0),
        PhantomNode((380.0, 150.0, 500.0), (3.5, 3.0, 4.0), 0.0),
        PhantomNode((150.0, 380.0, 600.0), (12.0, 9.0, 10.0), 70.0),
        PhantomNode((300.0, 320.0, 130.0), (5.0, 5.0, 5.0), 0.0),
        PhantomNode((420.0, 400.0, 450.0), (8.0, 4.5, 6.0), 110.0),
    ))
    vol, expected = nm.generate(spec)
    big = tmp_path / "big.nii"  # uncompressed: the timed budget covers I/O
    nm.write_volume(vol, big)
    assert big.stat().st_size == 352 + 512 * 512 * 829

    start = time.monotonic()
    rc1 = subprocess.run(
        [sys.executable, "-m", "nodemetry.cli", "cc", "--mask", str(big),
         "--out-labels", str(tmp_path / "cc.nii"),
         "--out-summary", str(tmp_path / "cc.json")],
        capture_output=True, text=True)
    rc2 = subprocess.run(
        [sys.executable, "-m", "nodemetry.cli", "eval", "--gt", str(big),
         "--pred", str(big), "--out-json", str(tmp_path / "eval.json")],
        capture_output=True, text=True)
    elapsed = time.monotonic() - start
    assert rc1.returncode == 0, rc1.stderr
    assert rc2.returncode == 0, rc2.stderr

    summary = json.loads((tmp_path / "cc.json").read_text())
    assert summary["count"] == len(spec.nodes)
    report = json.loads((tmp_path / "eval.json").read_text())
    assert report["cohort"]["all"]["mean"] == 1.0
    assert report["patients"][0]["gt_node_count"] == len(spec.nodes)

    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    assert elapsed < 10.0, f"cc+eval took {elapsed:.1f}s"
    assert peak_kb < 3 * GB, f"peak child RSS {peak_kb / GB:.2f} GB"
    print(f"\nPASS criterion 9: cc+eval on 512x512x829 in {elapsed:.1f}s < 10s, "
          f"peak RSS {peak_kb / GB:.2f} GB < 3 GB")
