"""Runs one workload: set-up, closed-loop passes of CLI child processes, checks.

One client runs the workload's steps in sequence, each waiting for the
previous one, so at most `eval --jobs 2` threads compute at a time. Each step
is a child `python -m nodemetry.cli` whose wall time, CPU time and max RSS
come from `os.wait4` on that child alone (see launcher.py). An operation is
one step together with its output check and the sha256 of its outputs, which
must match across every pass of the run, traced or not.

The traced run (trace=1) reports per-layer metrics instead: the same steps in
child processes for CPU and RSS, then in-process passes of `cli.main(argv)`
with and without the span recorders of tracing.py.
"""

from __future__ import annotations

import io
import json
import os
import platform
import shutil
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median

import numpy as np
import scipy

import checks
import scenes
import tracing
from launcher import Launcher

WORKLOADS = {w.name: w for w in (scenes.CtSparse, scenes.CohortDense, scenes.Folds29)}
COMMANDS = ("fuse", "cc", "measure", "ensemble", "vote", "eval", "loss")
SETUP_REPEATS = 3  # set-ups per run at least
# after a step, set up again while set-ups so far took less than this share
# of the children's time so far
SETUP_SHARE = 0.3

# printed with --trace 0: the figures that every workload has and that stay
# steady from run to run; the median wall time of each command, which is short
# and noisy where interpreter start-up dominates, goes on the line before the
# result and into the traced run's cli.<command>.wall_s
END_TO_END = {"setup_s": "s", "pipeline_s": "s", "peak_rss_mb": "MB"}

_LAYERS = (
    ("nifti_io.read_s", "s"), ("nifti_io.read_mb", "MB_computed"),
    ("nifti_io.write_s", "s"), ("nifti_io.write_mb", "MB_computed"),
    ("nifti_io.files", "count"),
    ("volume.canonicalize_s", "s"), ("fusion.extract_class_s", "s"), ("fusion.fuse_s", "s"),
    ("components.label_s", "s"), ("components.calls", "count"),
    ("components.fg_voxels", "count"), ("components.grid_voxels", "count"),
    ("components.fg_ratio", "ratio"), ("components.count", "count"),
    ("morphometry.measure_s", "s"), ("morphometry.nodes", "count"),
    ("morphometry.slices", "count"), ("morphometry.footprint_points", "count"),
    ("metrics.evaluate_patient_s", "s"), ("metrics.evaluate_patient_self_s", "s"),
    ("metrics.aggregate_s", "s"), ("metrics.composite_loss_s", "s"),
    ("metrics.loss_mb", "MB_computed"),
    ("ensemble.average_s", "s"), ("ensemble.argmax_s", "s"),
    ("ensemble.majority_vote_s", "s"), ("ensemble.stack_mb", "MB_computed"),
    ("phantom.generate_s", "s"), ("trace.overhead_s", "s"),
)
# the layers whose share of a child pass the traced run reports
SHARED_LAYERS = ("nifti_io.read_s", "nifti_io.write_s", "fusion.fuse_s", "ensemble.average_s",
                 "ensemble.argmax_s", "ensemble.majority_vote_s", "metrics.composite_loss_s",
                 "components.label_s", "morphometry.measure_s",
                 "metrics.evaluate_patient_self_s")
# printed with --trace 1; a layer or command a workload does not reach reads 0
PER_LAYER = {"cli.import_s": "s",
             **{f"cli.{c}.{m}": u for c in COMMANDS
                for m, u in (("wall_s", "s"), ("cpu_s", "s"), ("rss_mb", "MB"),
                             ("unattributed_s", "s"))},
             **dict(_LAYERS)}


@dataclass
class Outcome:
    command: str
    wall: float
    cpu: float = 0.0
    rss_mb: float = 0.0


@dataclass
class Tally:
    """Operations attempted and failed, and the first digest of each output."""

    attempted: int = 0
    failed: int = 0
    digests: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)

    def judge(self, step, scene: Path, rc: int, stdout: str, label: str) -> None:
        self.attempted += 1
        try:
            checks.expect(rc == 0, f"exit code {rc}")
            step.check(scene, stdout)
            for name in step.outputs:
                digest = checks.sha256(scene / name)
                first = self.digests.setdefault(name, digest)
                checks.expect(digest == first, f"{name} differs from its first pass")
        except Exception as exc:  # any fault in an output fails the operation, not the run
            self.failed += 1
            self.problems.append(f"{label} {step.command}: {exc}")
            print(f"FAILED {label} {step.command}: {exc}", file=sys.stderr)


def _clear(steps, scene: Path) -> None:
    for step in steps:
        for name in step.outputs:
            (scene / name).unlink(missing_ok=True)


def child_pass(steps, scene: Path, launcher: Launcher, tally: Tally,
               logs: Path, after_step=lambda wall: None) -> list[Outcome]:
    _clear(steps, scene)
    outcomes = []
    for i, step in enumerate(steps):
        rc, wall, cpu, rss, text = launcher.run(
            [sys.executable, "-m", "nodemetry.cli", *step.argv], scene,
            logs / f"{i:02d}_{step.command}.log")
        tally.judge(step, scene, rc, text, "child")
        outcomes.append(Outcome(step.command, wall, cpu, rss))
        after_step(wall)
    return outcomes


def inprocess_pass(steps, scene: Path, tally: Tally, rec: tracing.Recorder | None):
    """One pass through `cli.main(argv)` in this process; cwd must be `scene`."""
    from nodemetry import cli

    _clear(steps, scene)
    outcomes = []
    for step in steps:
        buf = io.StringIO()
        start = time.perf_counter()
        with redirect_stdout(buf), redirect_stderr(buf):
            try:
                if rec is None:
                    rc = cli.main(list(step.argv))
                else:
                    with rec.command(step.command):
                        rc = cli.main(list(step.argv))
            except SystemExit as exc:
                rc = exc.code
            except Exception:  # reported as a failed operation, the run goes on
                traceback.print_exc()
                rc = -1
        wall = time.perf_counter() - start
        tally.judge(step, scene, rc, buf.getvalue(), "traced" if rec else "in-process")
        outcomes.append(Outcome(step.command, wall))
    return outcomes


def _per_pass(passes, key) -> dict[str, list[float]]:
    """Command -> per-pass value: wall and cpu summed over the pass's
    invocations of that command, rss the largest of them."""
    out: dict[str, list[float]] = {}
    for outcomes in passes:
        values: dict[str, float] = {}
        for o in outcomes:
            v = getattr(o, key)
            values[o.command] = max(values.get(o.command, 0.0), v) if key == "rss_mb" \
                else values.get(o.command, 0.0) + v
        for command, v in values.items():
            out.setdefault(command, []).append(v)
    return out


def _start_cost(launcher: Launcher, cwd: Path, repeats: int = 3) -> tuple[float, float]:
    """(bare interpreter start, fresh-interpreter `import nodemetry.cli` minus it)."""
    bare, full = [], []
    for _ in range(repeats):
        bare.append(launcher.run([sys.executable, "-c", "pass"], cwd)[1])
        full.append(launcher.run([sys.executable, "-c", "import nodemetry.cli"], cwd)[1])
    return median(bare), median(full) - median(bare)


def _child_passes(steps, scene, launcher, tally, logs, seconds,
                  setups: SetUps, spare: Path) -> list[list[Outcome]]:
    """Passes until the children's wall time reaches `seconds`; the checks
    and the set-ups between steps do not count against it."""
    passes, spent = [], 0.0

    def after_step(wall: float) -> None:
        nonlocal spent
        spent += wall
        setups.keep_up(spare, spent)

    while not passes or spent < seconds:
        passes.append(child_pass(steps, scene, launcher, tally, logs, after_step))
    return passes


def _l3_cache() -> str:
    try:
        text = subprocess.run(["lscpu"], capture_output=True, text=True, timeout=10).stdout
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    for line in text.splitlines():
        if line.startswith("L3 cache:"):
            return line.split(":", 1)[1].strip()
    return "unknown"


def conditions(workload, seed: int, inputs: list[Path]) -> dict:
    return {
        "workload": workload.name, "seed": seed,
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "l3_cache": _l3_cache(), "python": platform.python_version(),
        "numpy": np.__version__, "scipy": scipy.__version__,
        "grid": list(workload.dims), "spacing_mm": list(workload.spacing),
        "input_files": len(inputs),
        "input_bytes_on_disk": sum(p.stat().st_size for p in inputs),
        "input_bytes_computed": sum(checks.payload_bytes(p) for p in inputs),
        "computed": "byte counts from array sizes, not measured traffic: "
                    "input_bytes_computed and every metric in MB_computed",
    }


class SetUps:
    """Timed writes of a workload's inputs. One makes the scene the passes
    use; more follow steps of the passes (see SETUP_SHARE), so that the
    samples spread over the run as the passes do, not over a few seconds
    at its start; the host's speed drifts on that scale."""

    def __init__(self, workload, traced: bool):
        self.workload, self.traced = workload, traced
        self.times: list[float] = []
        self.recorders: list[tracing.Recorder] = []
        if hasattr(workload, "prepare"):
            workload.prepare()

    def write(self, scene: Path):
        """Write the inputs into a fresh `scene`; returns their Truth."""
        shutil.rmtree(scene, ignore_errors=True)
        scene.mkdir(parents=True)
        rec = tracing.Recorder() if self.traced else None
        start = time.perf_counter()
        if rec is None:
            truth = self.workload.write_inputs(scene)
        else:
            with tracing.installed(rec, tracing.SETUP_TARGETS):
                truth = self.workload.write_inputs(scene)
            self.recorders.append(rec)
        self.times.append(time.perf_counter() - start)
        return truth

    def sample(self, spare: Path) -> None:
        """One more timed set-up, into `spare`, which is removed after."""
        self.write(spare)
        shutil.rmtree(spare)

    def keep_up(self, spare: Path, child_time: float) -> None:
        if sum(self.times) < SETUP_SHARE * child_time:
            self.sample(spare)


def run(name: str, seed: int, seconds: float, trace: bool, launcher: Launcher, work: Path,
        scene_args: dict | None = None, setup_repeats: int = SETUP_REPEATS) -> dict:
    """Run one workload, its children started by `launcher`, writing only
    under `work`; returns the result object plus a `detail` key."""
    scene, logs, results = work / name, work / "logs" / name, work / "results"
    logs.mkdir(parents=True, exist_ok=True)
    results.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[name](seed, **(scene_args or {}))
    spare = work / f"{name}.setup"
    try:
        setups = SetUps(workload, trace)
        truth = setups.write(scene)
        inputs = sorted(p for p in scene.rglob("*") if p.is_file())
        steps = workload.steps(truth, scene)
        del truth
        cond = conditions(workload, seed, inputs)
        # compile the package's bytecode before anything is timed
        launcher.run([sys.executable, "-c", "import nodemetry.cli"], scene)
        tally = Tally()
        passes = _child_passes(steps, scene, launcher, tally, logs,
                               seconds / 2 if trace else seconds, setups, spare)
        while len(setups.times) < setup_repeats:
            setups.sample(spare)
        detail = {"conditions": cond, "setup_s_samples": setups.times}
        if trace:
            metrics = _traced(steps, scene, passes, launcher, tally, seconds, setups.recorders,
                              detail, results / f"trace-{name}-seed{seed}.jsonl")
        else:
            metrics = _untraced(passes, setups.times, detail)
    finally:
        shutil.rmtree(scene, ignore_errors=True)
        shutil.rmtree(spare, ignore_errors=True)
    detail["error_rate"] = tally.failed / max(tally.attempted, 1)
    detail["problems"] = tally.problems
    detail["outputs_sha256"] = tally.digests
    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}
    (results / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps({**result, "detail": detail}, indent=1) + "\n")
    return {**result, "detail": detail}


def _untraced(passes, setup_times, detail) -> dict:
    walls = _per_pass(passes, "wall")
    values = {"setup_s": median(setup_times),
              "pipeline_s": median(sum(o.wall for o in p) for p in passes),
              "peak_rss_mb": median(max(o.rss_mb for o in p) for p in passes),
              **{f"{c}_s": median(v) for c, v in walls.items()}}
    detail["passes"] = [{c: round(v[0], 4) for c, v in _per_pass([p], "wall").items()}
                        for p in passes]
    detail["all_metrics"] = values
    detail["samples"] = {"setup_s": len(setup_times), **{k: len(passes) for k in values
                                                         if k != "setup_s"}}
    return {k: {"value": values[k], "unit": unit} for k, unit in END_TO_END.items()}


def _traced(steps, scene, passes, launcher, tally, seconds, setup_recs, detail,
            trace_path) -> dict:
    """Per-layer metrics: CPU and RSS from the child `passes`, spans from
    in-process passes with and without the recorders."""
    values = dict.fromkeys(PER_LAYER, 0.0)
    values["phantom.generate_s"] = median(
        tracing.layer_totals(r).get("phantom.generate_s", 0.0) for r in setup_recs)
    bare_start, values["cli.import_s"] = _start_cost(launcher, scene)
    for key, suffix in (("wall", "wall_s"), ("cpu", "cpu_s"), ("rss_mb", "rss_mb")):
        for command, v in _per_pass(passes, key).items():
            values[f"cli.{command}.{suffix}"] = median(v)

    from nodemetry import cli  # noqa: F401  imported before any pass is timed

    origin = time.perf_counter()
    plain, traced, recorders = [], [], []
    cwd = os.getcwd()
    os.chdir(scene)
    try:
        while not traced or sum(plain) + sum(traced) < seconds / 2:
            plain.append(sum(o.wall for o in inprocess_pass(steps, scene, tally, None)))
            rec = tracing.Recorder()
            with tracing.installed(rec):
                traced.append(sum(o.wall for o in inprocess_pass(steps, scene, tally, rec)))
            recorders.append(rec)
    finally:
        os.chdir(cwd)
    tracing.write_jsonl(trace_path, recorders, origin)

    totals = [tracing.layer_totals(r) for r in recorders]
    for key in set().union(*totals):
        if key in values:
            values[key] = median(t.get(key, 0.0) for t in totals)
    grid = values["components.grid_voxels"]
    values["components.fg_ratio"] = values["components.fg_voxels"] / grid if grid else 0.0
    values["trace.overhead_s"] = median(traced) - median(plain)
    # what share of a child pass each layer takes: interpreter start and
    # import once per child, the layers as timed in-process
    pipeline = median(sum(o.wall for o in p) for p in passes)
    shares = {"start_and_import": len(steps) * (bare_start + values["cli.import_s"])}
    shares.update((k, values[k]) for k in SHARED_LAYERS)
    detail.update(child_pipeline_s=pipeline,
                  share_of_pipeline={k: round(v / pipeline, 4) for k, v in shares.items()},
                  child_passes=len(passes), inprocess_passes=len(traced),
                  trace_file=str(trace_path),
                  inprocess_pipeline_s=median(plain), traced_pipeline_s=median(traced))
    return {k: {"value": values[k], "unit": unit} for k, unit in PER_LAYER.items()}
