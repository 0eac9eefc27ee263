"""Where the tracer hooks into ike_lab, and how spans become per-layer metrics.

Each target names the module or class attribute a caller looks a function
up through, so the wrapper sees exactly the calls that caller makes. The
span name is "<layer>.<operation>", the layer being the ike_lab module that
owns the function.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass

import numpy as np

from tracer import NameStats, Note, Tracer


def _forward_rows(key: str | None) -> Note:
    def note(args, kwargs, result):
        rows = args[1].shape[0]
        counts = {"encoder.forward_batch.rows": rows}
        if key is not None:
            counts[key] = rows
        return counts
    return note


def _gallery_items(args, kwargs, result) -> dict:
    """Queries and gallery items of one evaluate_map call, computed from the
    split's camera (and, for camera-id, identity) tags."""
    test = args[1] if len(args) > 1 else kwargs["test"]
    rule = args[2] if len(args) > 2 else kwargs.get("gallery_rule", "camera")
    n = len(test)
    if rule == "camera":
        _, sizes = np.unique(test.camera_ids, return_counts=True)
    elif rule == "camera-id":
        pairs = np.stack([test.camera_ids, test.global_ids], axis=1)
        _, sizes = np.unique(pairs, axis=0, return_counts=True)
    else:
        sizes = np.ones(n, dtype=np.int64)
    return {"evaluation.queries": n,
            "evaluation.gallery_items": n * n - int(np.sum(sizes.astype(np.int64) ** 2))}


def _association(args, kwargs, result) -> dict:
    return {"association.matched": result.discovered, "association.correct": result.correct}


def _loaded_rows(args, kwargs, bundle) -> dict:
    return {"datasets.load_dataset.rows": sum(len(c) for c in bundle.cameras) + len(bundle.test)}


@dataclass(frozen=True)
class Target:
    owner: str          # module, or module.Class
    attr: str
    name: str           # span name
    aggregate: bool = False
    note: Note | None = None


TARGETS = (
    Target("ike_lab.trainer", "momentum_update", "memory.momentum_update", aggregate=True),
    Target("ike_lab.trainer", "init_memory", "memory.init_memory"),
    Target("ike_lab.trainer", "iku_merge", "memory.iku_merge"),
    Target("ike_lab.trainer", "forward_batch", "encoder.forward_batch",
           note=_forward_rows("trainer.forward_rows")),
    # init_memory imports forward_batch from ike_lab.encoder at call time.
    Target("ike_lab.encoder", "forward_batch", "encoder.forward_batch", note=_forward_rows(None)),
    Target("ike_lab.evaluation", "forward_batch", "encoder.forward_batch", note=_forward_rows(None)),
    # batch_loss_and_grads imports backward from ike_lab.encoder at call time.
    Target("ike_lab.encoder", "backward", "encoder.backward"),
    Target("ike_lab.encoder.Adam", "step", "encoder.adam_step"),
    Target("ike_lab.trainer", "loss_id", "losses.loss_id"),
    Target("ike_lab.trainer", "loss_id_hist", "losses.loss_id_hist"),
    Target("ike_lab.trainer", "loss_kd", "losses.loss_kd"),
    Target("ike_lab.trainer", "loss_mkd", "losses.loss_mkd"),
    Target("ike_lab.trainer", "run_sequence", "trainer.run_sequence"),
    Target("ike_lab.harness", "run_sequence", "trainer.run_sequence"),
    Target("ike_lab.trainer", "train_camera", "trainer.train_camera"),
    Target("ike_lab.trainer", "batch_loss_and_grads", "trainer.batch_loss_and_grads",
           note=lambda args, kwargs, result: {"trainer.samples": args[3].shape[0]}),  # Xb
    Target("ike_lab.trainer", "cycle_match", "association.cycle_match"),
    Target("ike_lab.trainer", "one_way_match", "association.one_way_match"),
    Target("ike_lab.trainer", "augment_dataset", "association.augment_dataset"),
    Target("ike_lab.trainer", "association_precision", "association.association_precision",
           note=_association),
    Target("ike_lab.trainer", "evaluate_map", "evaluation.evaluate_map", note=_gallery_items),
    Target("ike_lab.evaluation", "evaluate_map", "evaluation.evaluate_map", note=_gallery_items),
    Target("ike_lab.datasets", "generate", "datasets.generate"),
    Target("ike_lab.datasets", "save_dataset", "datasets.save_dataset"),
    Target("ike_lab.harness", "load_dataset", "datasets.load_dataset", note=_loaded_rows),
    Target("ike_lab.cli", "run", "harness.run"),
    Target("ike_lab.harness", "execute_run", "harness.execute_run"),
    Target("ike_lab.harness.DiskRecorder", "on_camera", "harness.checkpoint"),
)

SPAN_NAMES = sorted({t.name for t in TARGETS})
LAYERS = ("encoder", "losses", "memory", "association", "trainer", "evaluation", "datasets",
          "harness")
COUNT_NAMES = ("encoder.forward_batch.rows", "trainer.samples", "association.matched",
               "association.correct", "evaluation.queries", "evaluation.gallery_items",
               "datasets.load_dataset.rows")
# Read from a traced pass's outputs rather than its spans; zero where the
# workload has no such output.
OUTPUT_DEFAULTS = {"memory.final_rows": 0, "memory.max_unit_error": 0.0,
                   "harness.files_written": 0, "harness.artifact_bytes": 0,
                   "harness.parallel_efficiency": 0.0}
TRACE_NAMES = ("trace.wall_s", "trace.untraced_wall_s", "trace.overhead_s",
               "trace.unaccounted_s")


def resolve(owner: str):
    """The module or class object a dotted owner name refers to."""
    try:
        return importlib.import_module(owner)
    except ModuleNotFoundError:
        module, _, cls = owner.rpartition(".")
        return getattr(importlib.import_module(module), cls)


def install(tracer: Tracer) -> Tracer:
    for t in TARGETS:
        tracer.wrap(resolve(t.owner), t.attr, t.name, aggregate=t.aggregate, note=t.note)
    return tracer


def check_restored() -> None:
    """Raise if a target still holds a tracer wrapper (which sets __wrapped__)."""
    left = [f"{t.owner}.{t.attr}" for t in TARGETS
            if hasattr(vars(resolve(t.owner))[t.attr], "__wrapped__")]
    if left:
        raise RuntimeError(f"tracer left wrappers on {left}")


def merge(a: dict[str, NameStats], b: dict[str, NameStats]) -> dict[str, NameStats]:
    out = {name: NameStats(s.calls, s.total_s, s.self_s) for name, s in a.items()}
    for name, s in b.items():
        entry = out.setdefault(name, NameStats())
        entry.calls += s.calls
        entry.total_s += s.total_s
        entry.self_s += s.self_s
    return out


def span_metrics(stats: dict[str, NameStats], counts: dict[str, float]) -> dict[str, float]:
    """Every metric the spans and counts give, with zero for names that did
    not run: <name>.calls, <name>.self_s, the noted counts, and the trainer
    ratios."""
    out: dict[str, float] = {}
    for name in SPAN_NAMES:
        entry = stats.get(name, NameStats())
        out[f"{name}.calls"] = entry.calls
        out[f"{name}.self_s"] = entry.self_s
    for key in COUNT_NAMES:
        out[key] = counts.get(key, 0)
    out["trainer.steps"] = out["trainer.batch_loss_and_grads.calls"]
    samples = out["trainer.samples"]
    out["trainer.train_forward_rows_per_sample"] = (
        counts.get("trainer.forward_rows", 0) / samples if samples else 0.0
    )
    return out


def layer_self_seconds(stats: dict[str, NameStats]) -> dict[str, float]:
    """Summed self time per layer."""
    out = {layer: 0.0 for layer in LAYERS}
    for name, entry in stats.items():
        out[name.split(".", 1)[0]] += entry.self_s
    return out
