"""Smoke test of the benchmark itself on tiny scenes.

    python3 -m pytest perfbench/test_smoke.py -q

Checks that every metric of BENCHMARK.json is emitted with its unit, that a
corrupted output makes its operation count as failed, that outputs differing
between the untraced and traced passes do too, and that the benchmark refuses
to run without the toolkit's sources.
"""

import gzip
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import runner  # noqa: E402
import tracing  # noqa: E402
from launcher import Launcher  # noqa: E402

TINY = {
    "ct_sparse": {"dims": (96, 96, 120), "node_scale": 0.35},
    "cohort_dense": {"dims": (64, 64, 48),
                     "patients": (("p01", 8, 0.01, 0.85, 2), ("p02", 20, 0.03, 1.15, 3))},
    "folds_29class": {"dims": (32, 32, 24), "ln_nodes": 2},
}
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(tmp_path, name, trace):
    with Launcher(ROOT / "src") as launcher:
        return runner.run(name, 7, 0.0, trace, launcher, tmp_path / "work",
                          scene_args=TINY[name], setup_repeats=1)


def test_benchmark_json_matches_the_runner():
    assert [w["name"] for w in SPEC["workloads"]] == list(runner.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == runner.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == runner.PER_LAYER


@pytest.mark.parametrize("name", list(TINY))
def test_every_metric_is_emitted_with_its_unit(tmp_path, name):
    result = _run(tmp_path, name, trace=False)
    assert result["correct"] and result["failed"] == 0, result["detail"]["problems"]
    assert result["attempted"] >= 3
    metrics = result["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == runner.END_TO_END
    assert all(v["value"] > 0 for v in metrics.values())
    commands = {f"{c}_s" for c in result["detail"]["passes"][0]}
    assert commands <= set(result["detail"]["all_metrics"])
    assert result["detail"]["error_rate"] == 0.0

    traced = _run(tmp_path, name, trace=True)
    assert traced["correct"], traced["detail"]["problems"]
    assert {k: v["unit"] for k, v in traced["metrics"].items()} == runner.PER_LAYER
    layers = traced["metrics"]
    assert layers["cli.eval.wall_s"]["value"] > 0
    assert layers["components.calls"]["value"] > 0
    assert layers["metrics.evaluate_patient_s"]["value"] > 0
    assert Path(traced["detail"]["trace_file"]).stat().st_size > 0
    assert traced["detail"]["share_of_pipeline"]["start_and_import"] > 0
    # the same inputs give byte-identical outputs with and without tracing
    assert traced["detail"]["outputs_sha256"] == result["detail"]["outputs_sha256"]


def _corrupting(target, corrupt):
    """Launcher.run that damages `target` right after the child writing it exits."""
    original = Launcher.run

    def run(self, cmd, cwd, log=None):
        out = original(self, cmd, cwd, log)
        if target in cmd:
            corrupt(Path(cwd) / target)
        return out
    return run


def _wrong_dice(path):
    report = json.loads(path.read_text())
    report["patients"][0]["dice_all"] = 0.5 * report["patients"][0]["dice_all"] + 0.25
    path.write_text(json.dumps(report))


def _flip_voxel(path):
    raw = bytearray(gzip.decompress(path.read_bytes()))
    raw[352] = (raw[352] + 1) % 30
    path.write_bytes(gzip.compress(bytes(raw)))


@pytest.mark.parametrize("name, target, corrupt, command", [
    ("ct_sparse", "eval.json", _wrong_dice, "eval"),
    ("folds_29class", "merged.nii.gz", _flip_voxel, "ensemble"),
])
def test_corrupted_output_counts_as_failed(tmp_path, monkeypatch, name, target, corrupt,
                                           command):
    monkeypatch.setattr(Launcher, "run", _corrupting(target, corrupt))
    result = _run(tmp_path, name, trace=False)
    assert result["failed"] >= 1
    assert not result["correct"]
    assert any(p.startswith(f"child {command}:") for p in result["detail"]["problems"])


def test_outputs_differing_from_the_traced_run_count_as_failed(tmp_path, monkeypatch):
    def add_blank_line(path):
        path.write_text(path.read_text() + "\n")
    monkeypatch.setattr(Launcher, "run", _corrupting("measure.csv", add_blank_line))
    result = _run(tmp_path, "ct_sparse", trace=True)
    assert not result["correct"]
    assert any("measure.csv differs" in p for p in result["detail"]["problems"])


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "ct_sparse",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_self_time_subtracts_the_union_of_children():
    spans = [tracing.Span(1, "cli.eval", 0.0, 10.0, None, 1),
             tracing.Span(2, "metrics.evaluate_patient", 1.0, 6.0, 1, 2),
             tracing.Span(3, "metrics.evaluate_patient", 2.0, 8.0, 1, 3),
             tracing.Span(4, "components.label", 2.0, 3.0, 2, 2)]
    selfs = tracing.self_times(spans)
    assert selfs[1] == pytest.approx(3.0)  # 10 s minus the union [1, 8]
    assert selfs[2] == pytest.approx(4.0)
    assert selfs[3] == pytest.approx(6.0)


def test_layer_totals_leave_out_nested_counting():
    rec = tracing.Recorder()
    rec.spans = [tracing.Span(1, "cli.eval", 0.0, 10.0, None, 1),
                 tracing.Span(2, "metrics.evaluate_patient", 1.0, 8.0, 1, 1),
                 tracing.Span(3, "morphometry.measure", 2.0, 4.0, 2, 1),
                 tracing.Span(4, "trace.count", 4.0, 5.5, 2, 1)]
    totals = tracing.layer_totals(rec)
    assert totals["metrics.evaluate_patient_s"] == pytest.approx(5.5)  # 7 s less 1.5 s
    assert totals["morphometry.measure_s"] == pytest.approx(2.0)
    assert totals["metrics.evaluate_patient_self_s"] == pytest.approx(3.5)
    assert totals["cli.eval.unattributed_s"] == pytest.approx(3.0)
