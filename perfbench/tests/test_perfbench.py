"""Self-tests of the benchmark: tracer arithmetic, metric names, clean
restoration of the program, and what the workload seed controls.

    python3 -m pytest perfbench/tests -q
"""

import dataclasses
import inspect
import json
import re
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import layers
import workloads
from tracer import Span, Tracer, covered_length, self_times

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def test_covered_length_counts_overlaps_once():
    assert covered_length([]) == 0.0
    assert covered_length([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0), (5.5, 5.75)]) == 4.0
    assert covered_length([(2.0, 2.0), (3.0, 1.0)]) == 0.0


def test_self_times_on_hand_built_tree():
    spans = [
        Span("root", 0.0, 10.0, -1),
        Span("a", 1.0, 4.0, 0),
        Span("b", 3.0, 6.0, 0),      # overlaps a by one second
        Span("a.child", 2.0, 3.0, 1),
        Span("late", 9.0, 12.0, 0),  # runs past its parent; only [9, 10] counts
    ]
    # 0.5 s of aggregated leaf calls made directly under b.
    got = self_times(spans, {2: 0.5})
    assert got == [10.0 - 5.0 - 1.0, 3.0 - 1.0, 3.0 - 0.5, 1.0, 3.0]


def test_tracer_spans_aggregates_and_counts():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    mod = types.ModuleType("fake")
    mod.leaf = lambda x: x
    mod.inner = lambda x: x * 2
    mod.outer = lambda x: mod.inner(mod.leaf(x)) + mod.leaf(x)
    original = dict(vars(mod))
    with tracer:
        tracer.wrap(mod, "leaf", "m.leaf", aggregate=True)
        tracer.wrap(mod, "inner", "m.inner", note=lambda a, k, r: {"m.items": a[0]})
        tracer.wrap(mod, "outer", "m.outer")
        assert mod.outer(3) == 9
    assert dict(vars(mod)) == original
    stats = tracer.stats()
    # clock: outer 0..7, leaf 1..2, inner 3..4, leaf 5..6
    assert stats["m.outer"].total_s == 7.0 and stats["m.outer"].self_s == 4.0
    assert stats["m.inner"].self_s == 1.0
    assert (stats["m.leaf"].calls, stats["m.leaf"].self_s) == (2, 2.0)
    assert tracer.counts == {"m.items": 3}
    assert sum(s.self_s for s in stats.values()) == 7.0


def _program_namespaces():
    """Every ike_lab module and class namespace, by name."""
    out = {}
    for mod_name in sorted(n for n in sys.modules if n.startswith("ike_lab")):
        module = sys.modules[mod_name]
        out[mod_name] = module
        for cls_name, cls in vars(module).items():
            if inspect.isclass(cls) and cls.__module__ == mod_name:
                out[f"{mod_name}.{cls_name}"] = cls
    return out


def test_install_and_restore_leave_program_identical():
    for t in layers.TARGETS:
        layers.resolve(t.owner)
    before = {name: dict(vars(ns)) for name, ns in _program_namespaces().items()}
    with layers.install(Tracer()):
        changed = {(t.owner, t.attr) for t in layers.TARGETS
                   if vars(layers.resolve(t.owner))[t.attr] is not before[t.owner][t.attr]}
        assert changed == {(t.owner, t.attr) for t in layers.TARGETS}
    layers.check_restored()
    after = {name: dict(vars(ns)) for name, ns in _program_namespaces().items()}
    assert after.keys() == before.keys()
    for name in before:
        assert after[name].keys() == before[name].keys(), name
        for attr, value in before[name].items():
            assert after[name][attr] is value, f"{name}.{attr}"


def test_every_name_is_well_formed():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = [w["name"] for w in spec["workloads"]]
    listed += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(set(listed)) == len(listed)
    computed = set(layers.span_metrics({}, {})) | set(layers.OUTPUT_DEFAULTS)
    computed |= set(layers.TRACE_NAMES)
    for name in listed + sorted(computed) + layers.SPAN_NAMES:
        assert NAME.fullmatch(name) and len(name) <= 64, name
    assert {m["name"] for m in spec["per_layer"]} <= computed
    assert set(workloads.WORKLOADS) == {w["name"] for w in spec["workloads"]}


def _inputs(wl):
    """The generated inputs of a workload after set-up, as arrays or bytes."""
    if isinstance(wl, workloads.IkeT1):
        return [wl.bundle.test.X] + [c.X for c in wl.bundle.cameras]
    if isinstance(wl, workloads.Retrieval):
        return [wl.test.X, wl.test.global_ids]
    return [(wl.data_dir / name).read_bytes() for name in ("train.csv", "test.csv")]


def _settings(wl):
    """Everything about a set-up workload that is not its generated data."""
    if isinstance(wl, workloads.IkeT1):
        return dataclasses.replace(wl.bundle.spec, seed=None)
    if isinstance(wl, workloads.Retrieval):
        return (len(wl.test), [w.shape for w in wl.encoder.weights])
    config = json.loads((wl.data_dir / "config.json").read_text())
    config["dataset"] = None
    return config, (wl.data_dir / "manifest.json").read_text()


def _same(a, b):
    return all(np.array_equal(x, y) if isinstance(x, np.ndarray) else x == y
               for x, y in zip(a, b))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seed_changes_the_inputs_and_nothing_else(name, tmp_path):
    def set_up(seed):
        wl = workloads.WORKLOADS[name](seed, tmp_path)
        wl.setup()
        return wl

    first, again, other = set_up(0), set_up(0), set_up(1)
    assert _same(_inputs(first), _inputs(again))
    assert not any(_same([x], [y]) for x, y in zip(_inputs(first), _inputs(other)))
    assert _settings(first) == _settings(other)
