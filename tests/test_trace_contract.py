"""The benchmark's tracer (perfbench/) wraps program functions where their
callers look them up, by the names in perfbench/layers.py's TARGETS. These
tests load that table by path, without importing perfbench as a package, and
check that a refactor of the program keeps every name where the tracer looks
for it and keeps the arguments its notes read.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from ike_lab.trainer import Hyperparams, Variant, run_sequence

from builders import tiny_bundle

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def perf():
    """(tracer, layers) modules, loaded by path. Each is bound in sys.modules
    under its bare name while loading, as dataclasses need and as layers
    imports tracer; the previous bindings are put back afterwards."""
    names = ("tracer", "layers")
    previous = {name: sys.modules.get(name) for name in names}
    loaded = []
    try:
        for name in names:
            spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
            module = importlib.util.module_from_spec(spec)
            sys.modules[name] = module
            spec.loader.exec_module(module)
            loaded.append(module)
    finally:
        for name, module in previous.items():
            if module is None:
                sys.modules.pop(name, None)
            else:
                sys.modules[name] = module
    return tuple(loaded)


def test_every_target_resolves_in_its_owner(perf):
    _, layers = perf
    missing = [f"{t.owner}.{t.attr}" for t in layers.TARGETS
               if not callable(vars(layers.resolve(t.owner)).get(t.attr))]
    assert missing == []


def test_traced_run_counts_batches_and_forward_rows(perf):
    tracer_mod, layers = perf
    bundle = tiny_bundle()
    order = [2, 0, 1]
    hyper = Hyperparams(epochs=2, batch_size=16)
    with layers.install(tracer_mod.Tracer()) as tracer:
        run_sequence(bundle, order, Variant.IKE, hyper, [8, 8, 8], 8, seed=0)
    layers.check_restored()
    metrics = layers.span_metrics(tracer.stats(), tracer.counts)
    sizes = [len(bundle.cameras[c]) for c in order]
    batches = sum(hyper.epochs * -(-n // hyper.batch_size) for n in sizes)
    samples = hyper.epochs * sum(sizes)
    # One momentum update per batch. The frozen historical model forwards
    # each camera once, for its starting memory and its distillation
    # features alike, and the trained model once, for its final memory.
    # Evaluation forwards the test split after each camera.
    train_rows = samples + 2 * sum(sizes)
    assert metrics["memory.momentum_update.calls"] == batches
    assert metrics["trainer.steps"] == batches
    assert metrics["trainer.samples"] == samples
    assert metrics["trainer.train_forward_rows_per_sample"] == pytest.approx(
        train_rows / samples
    )
    assert metrics["encoder.forward_batch.rows"] == train_rows + len(order) * len(bundle.test)
    assert metrics["evaluation.evaluate_map.calls"] == len(order)
    assert np.isfinite(list(metrics.values())).all()


# Matcher and merge calls of a 3-camera run per variant. Camera 0 has no
# history, so it runs no matcher; each later camera matches once for the
# loss labels and, when the variant merges, once more at the boundary.
MATCH_AND_MERGE_CALLS = {
    #                 cycle_match  one_way_match  iku_merge
    Variant.IKE:      (4, 0, 3),
    Variant.IKE_A:    (0, 4, 3),
    Variant.IKE_U:    (2, 0, 0),
    Variant.BASELINE: (0, 0, 3),
}


@pytest.mark.parametrize("variant", list(MATCH_AND_MERGE_CALLS), ids=lambda v: v.value)
def test_traced_run_counts_matchers_and_merges(perf, variant):
    """The tracer wraps the matchers in ike_lab.trainer's namespace, so the
    trainer must look them up there on every call."""
    tracer_mod, layers = perf
    hyper = Hyperparams(epochs=1, batch_size=32)
    with layers.install(tracer_mod.Tracer()) as tracer:
        run_sequence(tiny_bundle(), [0, 1, 2], variant, hyper, [8, 8, 8], 8, seed=0)
    layers.check_restored()
    metrics = layers.span_metrics(tracer.stats(), tracer.counts)
    got = tuple(metrics[f"{name}.calls"] for name in
                ("association.cycle_match", "association.one_way_match", "memory.iku_merge"))
    assert got == MATCH_AND_MERGE_CALLS[variant]
