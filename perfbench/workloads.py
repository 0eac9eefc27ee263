"""The three workloads: set-up, one timed pass, and the checks on its output.

Every workload is a closed loop with one client: the next pass starts when
the previous one has finished. The workload seed only picks the synthetic
data (SyntheticSpec.seed); model seeds, hyperparameters, camera order and
sizes are the same for every seed.

``execute`` times only calls into ike_lab. ``check`` runs afterwards,
outside the timed region, and turns the raw output into an Outcome: how
many operations were attempted and failed, what went wrong, and the
workload's end-to-end values. An operation is one run or one evaluate_map
call; it fails when it raises LabError, returns a non-finite value, or
fails its check.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ike_lab import datasets, evaluation, oracles, trainer
from ike_lab.errors import LabError
from ike_lab.evaluation import GALLERY_RULES
from ike_lab.harness import ORDER_PRESETS
from ike_lab.memory import UNIT_TOL, load_memory
from ike_lab.trainer import VARIANT_NAMES, Hyperparams, RunRecorder, Variant
from layers import install
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ORDER = list(ORDER_PRESETS["T1"])
HIDDEN = [32, 32, 32]
EMBED_DIM = 64
MODEL_SEED = 0
CLI_TIMEOUT_S = 150
# Steps timed per ike_t1 pass: 6 cameras x 30 epochs x 19 batches of 64 out
# of 1,200 images, less the untimed first step of each camera.
IKE_T1_TIMED_STEPS = 6 * 30 * 19 - 6


def _finite(value) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value)


@dataclass
class Outcome:
    wall_s: float
    attempted: int
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    values: dict[str, float] = field(default_factory=dict)   # end-to-end values of this pass
    layer: dict[str, float] = field(default_factory=dict)    # per-layer values read from outputs

    def fail(self, problem: str) -> None:
        self.failed += 1
        self.problems.append(problem)


class StepClock(RunRecorder):
    """Times training steps through the public RunRecorder hooks.

    A step is the interval between successive on_batch calls within an
    epoch; the first step of an epoch is timed from the previous on_epoch.
    The first step of each camera is not timed, because the interval
    before it holds the previous camera's evaluation and boundary work.
    """

    def __init__(self) -> None:
        self.step_s: list[float] = []
        self.memories = []
        self._last = 0.0

    def on_batch(self, camera_step, epoch, batch, breakdown) -> None:
        now = time.perf_counter()
        if epoch or batch:
            self.step_s.append(now - self._last)
        self._last = now

    def on_epoch(self, camera_step, camera_id, epoch, mean_breakdown, lr) -> None:
        self._last = time.perf_counter()

    def on_camera(self, camera_step, camera_id, state, result) -> None:
        self.memories.append(state.memory)


class InProcess:
    def execute_traced(self, trace_file: Path):
        """execute() with the tracer installed; the trace goes to trace_file."""
        with install(Tracer()) as tracer:
            raw = self.execute()
        trace_file.write_text(json.dumps(tracer.to_json()))
        return raw


class IkeT1(InProcess):
    """One run_sequence of the IKE variant on the default bench, order T1."""

    name = "ike_t1"
    setup_repeats = 3   # set-ups after each pass

    def __init__(self, seed: int, work_dir: Path) -> None:
        self.seed = seed
        refs = json.loads((HERE / "references.json").read_text())["ike_t1"]
        self.tolerance = refs["tolerance"]
        self.reference = refs["seeds"].get(str(seed))
        self.first: tuple[float, float] | None = None

    def setup(self) -> None:
        self.bundle = datasets.generate(datasets.SyntheticSpec(seed=self.seed))

    def execute(self):
        clock = StepClock()
        start = time.perf_counter()
        try:
            report = trainer.run_sequence(
                self.bundle, ORDER, Variant.IKE, Hyperparams(), HIDDEN, EMBED_DIM, MODEL_SEED,
                recorder=clock,
            )
        except LabError as exc:
            report = exc
        return time.perf_counter() - start, report, clock

    def check(self, raw) -> Outcome:
        wall, report, clock = raw
        out = Outcome(wall, attempted=1)
        if isinstance(report, LabError):
            out.fail(f"run_sequence raised {report!r}")
            return out
        got = (report.fmap, report.mean_map)
        steps = len(clock.step_s)
        unit_error = max(m.max_unit_error() for m in clock.memories)
        if not all(_finite(v) for v in got):
            out.fail(f"non-finite fmap/mean_map {got}")
        elif self.reference is not None and any(
            abs(g - self.reference[k]) > self.tolerance for g, k in zip(got, ("fmap", "mean_map"))
        ):
            out.fail(f"fmap/mean_map {got} differ from the reference {self.reference}")
        elif self.first is not None and got != self.first:
            out.fail(f"fmap/mean_map {got} differ from the first pass {self.first}")
        elif not unit_error <= UNIT_TOL:
            out.fail(f"memory max unit error {unit_error:g} exceeds {UNIT_TOL:g}")
        elif steps != IKE_T1_TIMED_STEPS:
            out.fail(f"{steps} timed steps, expected {IKE_T1_TIMED_STEPS}")
        if out.failed:
            return out
        self.first = got
        step_ms = np.array(clock.step_s) * 1e3
        out.values = {
            "fmap": report.fmap,
            "mean_map": report.mean_map,
            "step_ms_p50": float(np.percentile(step_ms, 50)),
            "step_ms_p99": float(np.percentile(step_ms, 99)),
        }
        out.layer = {"memory.final_rows": report.nh_trajectory[-1],
                     "memory.max_unit_error": unit_error}
        return out


class Retrieval(InProcess):
    """evaluate_map under each gallery rule on a 3,600-image test split, with
    an encoder trained in set-up."""

    name = "retrieval"
    setup_repeats = 1
    setup_epochs = 2
    oracle_ids = 30   # identities in the fixed subsample checked against map_oracle

    def __init__(self, seed: int, work_dir: Path) -> None:
        self.seed = seed
        self.first: dict[str, float] | None = None

    def setup(self) -> None:
        bundle = datasets.generate(datasets.SyntheticSpec(seed=self.seed, test_images_per_id=4))
        state = trainer.init_state(
            bundle.input_dim, HIDDEN, EMBED_DIM, Hyperparams(epochs=self.setup_epochs), MODEL_SEED
        )
        for cam in ORDER:
            trainer.train_camera(state, bundle.cameras[cam], Variant.IKE)
        self.encoder = state.encoder
        self.test = bundle.test

    def execute(self):
        calls = {}
        start = time.perf_counter()
        for rule in GALLERY_RULES:
            t0 = time.perf_counter()
            try:
                value = evaluation.evaluate_map(self.encoder, self.test, rule)
            except LabError as exc:
                value = exc
            calls[rule] = (time.perf_counter() - t0, value)
        return time.perf_counter() - start, calls

    def oracle_gap(self) -> float:
        """|evaluate_map - map_oracle| under the camera rule on the test
        images of the lowest-numbered identities."""
        test = self.test
        keep = np.isin(test.global_ids, np.unique(test.global_ids)[: self.oracle_ids])
        sub = datasets.TestSplit(test.X[keep], test.global_ids[keep], test.camera_ids[keep])
        got = evaluation.evaluate_map(self.encoder, sub, "camera")
        emb = evaluation.forward_batch(self.encoder, sub.X).embeddings
        want = oracles.map_oracle(emb, sub.global_ids.tolist(), sub.camera_ids.tolist())
        return abs(got - want)

    def check(self, raw) -> Outcome:
        wall, calls = raw
        out = Outcome(wall, attempted=len(calls))
        maps = {}
        for rule, (_, value) in calls.items():
            if isinstance(value, LabError):
                out.fail(f"evaluate_map({rule}) raised {value!r}")
            elif not (_finite(value) and 0.0 <= value <= 1.0):
                out.fail(f"evaluate_map({rule}) returned {value!r}")
            elif self.first is not None and value != self.first[rule]:
                out.fail(f"evaluate_map({rule}) = {value!r}, first pass gave {self.first[rule]!r}")
            else:
                maps[rule] = value
        if "camera" in maps:
            gap = self.oracle_gap()
            if not gap <= 1e-12:
                out.fail(f"camera-rule mAP differs from map_oracle by {gap:g} on the subsample")
                del maps["camera"]
        if out.failed:
            return out
        self.first = maps
        eval_s = sum(seconds for seconds, _ in calls.values())
        out.values = {
            "fmap": maps["camera"],
            "mean_map": sum(maps.values()) / len(maps),
            "queries_per_s": len(calls) * len(self.test) / eval_s,
        }
        return out


class VariantGrid:
    """The ike-lab CLI running all six variants at three epochs, two worker
    processes, on the default bench loaded from a features CSV."""

    name = "variant_grid"
    setup_repeats = 2
    jobs = 2

    def __init__(self, seed: int, work_dir: Path) -> None:
        self.seed = seed
        self.work_dir = work_dir
        self.first: dict[str, float] | None = None

    def setup(self) -> None:
        data_dir = Path(tempfile.mkdtemp(prefix="data-", dir=self.work_dir))
        manifest = datasets.save_dataset(
            datasets.generate(datasets.SyntheticSpec(seed=self.seed)), data_dir
        )
        config = {
            "dataset": {"features": str(manifest)},
            "variants": list(VARIANT_NAMES),
            "seeds": [MODEL_SEED],
            "orders": ["T1"],
            "hyperparams": {"epochs": 3},
        }
        (data_dir / "config.json").write_text(json.dumps(config))
        previous = getattr(self, "data_dir", None)
        if previous is not None:
            shutil.rmtree(previous)
        self.data_dir = data_dir

    def execute(self, jobs: int | None = None, trace_file: Path | None = None):
        """Run the CLI in a child process; with trace_file, the child is
        perfbench/traced_cli.py, which writes its trace there."""
        out_dir = Path(tempfile.mkdtemp(prefix="out-", dir=self.work_dir))
        args = ["run", "--config", str(self.data_dir / "config.json"),
                "--jobs", str(jobs or self.jobs), "--out", str(out_dir)]
        if trace_file is None:
            cmd = [sys.executable, "-m", "ike_lab", *args]
        else:
            cmd = [sys.executable, str(HERE / "traced_cli.py"), str(trace_file), *args]
        start = time.perf_counter()
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CLI_TIMEOUT_S)
            status = (proc.returncode, proc.stderr)
        except subprocess.TimeoutExpired:
            status = (None, f"timed out after {CLI_TIMEOUT_S} s")
        return time.perf_counter() - start, status, out_dir

    def execute_traced(self, trace_file: Path):
        return self.execute(jobs=1, trace_file=trace_file)

    def check(self, raw) -> Outcome:
        wall, (code, stderr), out_dir = raw
        out = Outcome(wall, attempted=len(VARIANT_NAMES))
        try:
            self._check_outputs(out, code, stderr, out_dir)
        finally:
            shutil.rmtree(out_dir)
        return out

    def _check_outputs(self, out: Outcome, code, stderr: str, out_dir: Path) -> None:
        if code != 0:
            for _ in VARIANT_NAMES:
                out.fail(f"ike-lab run exited with {code}: {stderr.strip()[-300:]}")
            return
        try:
            manifest = json.loads((out_dir / "manifest.json").read_text())
        except (OSError, ValueError) as exc:
            manifest = {"runs": []}
            out.problems.append(f"cannot read manifest.json: {exc}")
        listed = {run["variant"]: run["path"] for run in manifest["runs"]}
        fmaps, means, final_rows, unit_error = {}, [], 0, 0.0
        for variant in VARIANT_NAMES:
            try:
                run_dir = out_dir / listed[variant]
                doc = json.loads((run_dir / "metrics.json").read_text())
            except (KeyError, OSError, ValueError) as exc:
                out.fail(f"{variant}: no readable metrics.json in the manifest's runs ({exc!r})")
                continue
            values = [doc["fmap"], doc["mean_map"], *doc["per_camera_map"],
                      *(p for p in doc["assoc_precision"] if p is not None)]
            if not all(_finite(v) for v in values):
                out.fail(f"{variant}: non-finite value in metrics.json")
            elif self.first is not None and doc["fmap"] != self.first[variant]:
                out.fail(f"{variant}: fmap {doc['fmap']!r}, first pass gave {self.first[variant]!r}")
            else:
                fmaps[variant] = doc["fmap"]
                means.append(doc["mean_map"])
                final_rows += doc["nh_trajectory"][-1]
                for path in (run_dir / "checkpoints").glob("*/memory.json"):
                    unit_error = max(unit_error, load_memory(path).max_unit_error())
        if unit_error > UNIT_TOL:
            out.fail(f"checkpoint memory max unit error {unit_error:g} exceeds {UNIT_TOL:g}")
        if out.failed:
            return
        self.first = fmaps
        files = [p for p in out_dir.rglob("*") if p.is_file()]
        out.values = {"fmap": sum(fmaps.values()) / len(fmaps), "mean_map": sum(means) / len(means)}
        out.layer = {
            "memory.final_rows": final_rows,
            "memory.max_unit_error": unit_error,
            "harness.files_written": len(files),
            "harness.artifact_bytes": sum(p.stat().st_size for p in files),
        }


WORKLOADS = {w.name: w for w in (IkeT1, Retrieval, VariantGrid)}

