"""The shared rules for identity indices, identity tags and snapshot files:
every index or tag array goes through errors.index_array, which takes
integers only, checks "[0, n)" where there is a range, raising
IndexOutOfRange, and returns one int64 array, and both snapshot loaders name
a malformed file."""

import json
import re
import types

import numpy as np
import pytest

from ike_lab.association import association_precision, augment_dataset
from ike_lab.datasets import CameraDataset, TestSplit
from ike_lab.encoder import init_encoder, load_encoder, save_encoder
from ike_lab.errors import IndexOutOfRange, ParseError, ShapeMismatch
from ike_lab.losses import loss_id, loss_id_hist
from ike_lab.memory import IdentityMemory, iku_merge, load_memory, momentum_update, unit_rows

N = 3
_draw = np.random.default_rng(0)
MEM = unit_rows(_draw, N, 4)
FEATS = unit_rows(_draw, 2, 4)

# Each site reads the pair [0, v] against an index range of N entries. Where
# -1 is NO_MATCH, and so not an index, the value below the range is -2.
SITES = {
    "CameraDataset": (-1, lambda v: CameraDataset(
        0, np.zeros((2, 4)), np.array([0, v]), N)),
    "momentum_update": (-1, lambda v: momentum_update(
        IdentityMemory(MEM.copy()), np.array([0, v]), FEATS, 0.1)),
    "memory._association": (-2, lambda v: iku_merge(
        IdentityMemory(MEM), IdentityMemory(FEATS), np.array([0, v]), 0.25)),
    "augment_dataset": (-1, lambda v: augment_dataset(
        types.SimpleNamespace(labels=np.array([0, v])), np.arange(N))),
    "association_precision": (-2, lambda v: association_precision(
        np.array([0, v]), [5, 6], [5, 6, 7])),
    "loss_id": (-1, lambda v: loss_id(
        FEATS, np.array([0, v]), IdentityMemory(MEM), 0.05)),
    "loss_id_hist": (-2, lambda v: loss_id_hist(
        FEATS, np.array([0, v]), IdentityMemory(MEM), 0.05)),
}


@pytest.mark.parametrize("site", sorted(SITES))
def test_range_rule_at_every_site(site):
    below, call = SITES[site]
    for bad in (below, N):
        with pytest.raises(IndexOutOfRange, match=rf"(^|\s){bad} outside \[0, {N}\)$"):
            call(bad)
    for good in (0, N - 1):
        call(good)


# Each site of SITES takes a whole tag array where SITES varies one entry,
# and the tag arrays with no range to check join them. The value is the
# entry name the site's errors use.
KIND_SITES = {
    "CameraDataset": ("label", lambda t: CameraDataset(0, np.zeros((2, 4)), t, N)),
    "momentum_update": ("identity index", lambda t: momentum_update(
        IdentityMemory(MEM.copy()), t, FEATS, 0.1)),
    "memory._association": ("match target", lambda t: iku_merge(
        IdentityMemory(MEM), IdentityMemory(FEATS), t, 0.25)),
    "augment_dataset": ("label", lambda t: augment_dataset(
        types.SimpleNamespace(labels=t), np.arange(N))),
    "association_precision": ("match target", lambda t: association_precision(
        t, [5, 6], [5, 6, 7])),
    "loss_id": ("label", lambda t: loss_id(FEATS, t, IdentityMemory(MEM), 0.05)),
    "loss_id_hist": ("historical label", lambda t: loss_id_hist(
        FEATS, t, IdentityMemory(MEM), 0.05)),
    "association_precision-current": ("current tag", lambda t: association_precision(
        np.array([0, 1]), t, [5, 6, 7])),
    "association_precision-historical": ("historical tag", lambda t: association_precision(
        np.array([0, 1]), [5, 6], t)),
    "CameraDataset.label_to_global": ("label_to_global tag", lambda t: CameraDataset(
        0, np.zeros((2, 4)), [0, 1], 2, t)),
    "TestSplit.global_ids": ("global tag", lambda t: TestSplit(np.zeros((2, 4)), t, [0, 1])),
    "TestSplit.camera_ids": ("camera tag", lambda t: TestSplit(np.zeros((2, 4)), [0, 1], t)),
    "TestSplit.local_ids": ("local tag", lambda t: TestSplit(
        np.zeros((2, 4)), [0, 1], [0, 1], t)),
}


@pytest.mark.parametrize("tags", [
    [0.0, 1.5], np.array([0.0, 1.0]), np.array([True, False]), [0, True],
    np.array([0, 2 ** 63 + 5], dtype=np.uint64),
], ids=["float-list", "float64", "bool", "int-bool-list", "uint64-beyond-int64"])
@pytest.mark.parametrize("site", sorted(SITES) + sorted(set(KIND_SITES) - set(SITES)))
def test_kind_rule_at_every_site(site, tags):
    # Unchecked, each of these is cast to other ids in silence, or reaches
    # numpy's own IndexError.
    what, call = KIND_SITES[site]
    with pytest.raises(ShapeMismatch, match=rf"^{re.escape(what)}"):
        call(tags)
    call(np.array([0, 1], dtype=np.uint8))


class TestProvenanceTags:
    @pytest.mark.parametrize("dtype", [np.int8, np.int16, np.int32, np.int64,
                                       np.uint8, np.uint16, np.uint32, np.uint64])
    def test_integer_dtypes_become_int64(self, dtype):
        mem = IdentityMemory(MEM, np.array([7, 0, 5], dtype=dtype))
        assert mem.provenance.dtype == np.int64
        assert mem.provenance.tolist() == [7, 0, 5]

    @pytest.mark.parametrize("tags", [[7, 0, 5], (7, 0, 5)])
    def test_python_ints_become_int64(self, tags):
        assert IdentityMemory(MEM, tags).provenance.dtype == np.int64

    def test_empty_list(self):
        tags = IdentityMemory(np.zeros((0, 4)), []).provenance
        assert tags.dtype == np.int64 and tags.shape == (0,)

    @pytest.mark.parametrize("tags", [
        [1.7, 0.0, 2.0], np.array([1.0, 0.0, 2.0]), np.array([1, 0, 2], dtype=np.float32),
        [True, False, True], np.ones(3, dtype=bool), [0, True, 5], [0, np.True_, 5],
    ], ids=["float-list", "float64", "float32", "bool-list", "bool", "int-bool-list",
            "int-numpy-bool-list"])
    def test_float_and_bool_rejected(self, tags):
        with pytest.raises(ShapeMismatch, match="provenance tags must be integers"):
            IdentityMemory(MEM, tags)

    def test_uint64_beyond_int64_rejected(self):
        # The int64 cast would wrap 2**63 + 5 to -9223372036854775803.
        with pytest.raises(ShapeMismatch, match=f"provenance tag {2 ** 63 + 5} does not fit"):
            IdentityMemory(MEM, np.array([7, 0, 2 ** 63 + 5], dtype=np.uint64))
        tags = np.array([7, 0, 2 ** 63 - 1], dtype=np.uint64)
        assert IdentityMemory(MEM, tags).provenance.tolist() == [7, 0, 2 ** 63 - 1]

    def test_one_tag_per_row(self):
        with pytest.raises(ShapeMismatch, match="provenance shape"):
            IdentityMemory(MEM, [1, 2])


def _encoder_doc(tmp_path):
    path = tmp_path / "encoder.json"
    save_encoder(init_encoder([2, 3, 3, 2], np.random.default_rng(0)), path)
    return json.loads(path.read_text())


MEMORY_DOC = {"dim": 2, "rows": [[1.0, 0.0], [0.0, 1.0]], "provenance": [4, 9]}


@pytest.mark.parametrize("name, text, load, match", [
    ("memory.json", "{not json", load_memory, "cannot read memory snapshot"),
    ("memory.json", "[1, 2]", load_memory, "must be a JSON object"),
    ("memory.json", json.dumps({**MEMORY_DOC, "dim": None}), load_memory, "no dim entry"),
    ("memory.json", json.dumps({"dim": 2, "provenance": None}), load_memory, "no rows entry"),
    ("memory.json", json.dumps({**MEMORY_DOC, "provenance": [4, 1.7]}), load_memory,
     r"provenance\[1\] must be int, got 1.7"),
    ("memory.json", json.dumps({**MEMORY_DOC, "provenance": [True, 9]}), load_memory,
     r"provenance\[0\] must be int, got True"),
    ("memory.json", json.dumps({**MEMORY_DOC, "provenance": [4]}), load_memory, "provenance shape"),
    ("memory.json", json.dumps({**MEMORY_DOC, "rows": [[1.0, "x"], [0.0, 1.0]]}), load_memory,
     "could not convert"),
    # Read as absent, the misspelled tags would load an untagged memory.
    ("memory.json", json.dumps({"dim": 2, "rows": MEMORY_DOC["rows"], "provenence": [4, 9]}),
     load_memory, "unknown memory snapshot entry 'provenence'"),
    ("encoder.json", "{not json", load_encoder, "cannot read encoder snapshot"),
    ("encoder.json", lambda doc: {**doc, "widths": None}, load_encoder, "no widths entry"),
    ("encoder.json", lambda doc: {**doc, "widths": doc["widths"][:3]}, load_encoder,
     "3 widths for 3 blocks"),
    ("encoder.json", lambda doc: {**doc, "widths": doc["widths"] + [2]}, load_encoder,
     "5 widths for 3 blocks"),
    ("encoder.json", lambda doc: {**doc, "widths": [2, 3, 3.0, 2]}, load_encoder,
     r"widths\[2\] must be int"),
    ("encoder.json", lambda doc: {**doc, "blocks": [{"W": [[1.0, 0.0]] * 3}] * 3}, load_encoder,
     "block 1: KeyError"),
    ("encoder.json", lambda doc: {**doc, "blocks": [
        doc["blocks"][0], {**doc["blocks"][1], "b": doc["blocks"][1]["b"][:-1]}, doc["blocks"][2],
    ]}, load_encoder, "block 2 has inconsistent shapes"),
    ("encoder.json", lambda doc: {"widths": doc["widths"][:3], "blocks": doc["blocks"][:2]}, load_encoder,
     "encoder needs at least 3 blocks"),
    ("encoder.json", lambda doc: {**doc, "widths": [2, 3, 4, 2]}, load_encoder,
     r"block 2 shape \(3, 3\) disagrees with widths$"),
], ids=["memory-bad-json", "memory-not-object", "memory-no-dim", "memory-no-rows",
        "memory-float-tag", "memory-bool-tag", "memory-tag-count", "memory-bad-value",
        "memory-unknown-entry",
        "encoder-bad-json", "encoder-no-widths", "encoder-few-widths", "encoder-many-widths",
        "encoder-float-width", "encoder-no-bias", "encoder-short-bias", "encoder-two-blocks",
        "encoder-block-shape"])
def test_malformed_snapshot_named(tmp_path, name, text, load, match):
    if callable(text):
        text = json.dumps(text(_encoder_doc(tmp_path)))
    path = tmp_path / name
    path.write_text(text)
    with pytest.raises(ParseError, match=rf"^{name.replace('.', '[.]')}: .*{match}"):
        load(path)


def test_well_formed_snapshots_load(tmp_path):
    path = tmp_path / "memory.json"
    path.write_text(json.dumps(MEMORY_DOC))
    assert load_memory(path).provenance.tolist() == [4, 9]
    path = tmp_path / "encoder.json"
    path.write_text(json.dumps(_encoder_doc(tmp_path)))
    assert load_encoder(path).widths == (2, 3, 3, 2)
