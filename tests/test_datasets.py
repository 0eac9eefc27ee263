import hashlib
import json
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ike_lab.datasets import (
    MAX_PAIR_COS, CameraDataset, SyntheticSpec, TestSplit, generate, load_dataset, save_dataset,
)
from ike_lab.errors import ConfigError, DimensionMismatch, LabelOutOfRange, ParseError


def small_spec(**overrides) -> SyntheticSpec:
    kw = dict(
        n_global=20, latent_dim=6, obs_dim=6, n_cameras=3, ids_per_camera=10,
        images_per_id=3, test_images_per_id=1, camera_shift=0.2, noise=0.05, seed=5,
    )
    kw.update(overrides)
    return SyntheticSpec(**kw)


class TestGenerate:
    def test_zero_noise_images_equal_prototypes(self):
        bundle = generate(small_spec(camera_shift=0.0, noise=0.0))
        for cam in bundle.cameras:
            for i in range(len(cam)):
                g = cam.global_ids[i]
                assert np.allclose(cam.X[i], bundle.prototypes[g], atol=1e-12)

    def test_same_seed_bitwise_identical(self):
        a = generate(small_spec())
        b = generate(small_spec())
        for ca, cb in zip(a.cameras, b.cameras):
            assert (ca.X == cb.X).all()
            assert (ca.labels == cb.labels).all()
            assert (ca.global_ids == cb.global_ids).all()
        assert (a.test.X == b.test.X).all()

    def test_full_overlap_covers_every_identity(self):
        bundle = generate(small_spec(overlap_bias=1.0, ids_per_camera=20))
        for cam in bundle.cameras:
            assert sorted(cam.label_to_global.tolist()) == list(range(20))

    def test_inputs_unit_norm(self):
        bundle = generate(small_spec())
        for cam in bundle.cameras:
            assert np.max(np.abs(np.linalg.norm(cam.X, axis=1) - 1)) <= 1e-9
        assert np.max(np.abs(np.linalg.norm(bundle.test.X, axis=1) - 1)) <= 1e-9

    def test_labels_contiguous_and_consistent(self):
        bundle = generate(small_spec())
        for cam in bundle.cameras:
            assert sorted(set(cam.labels.tolist())) == list(range(cam.n_ids))
            # each local label maps to exactly one global id
            for y in range(cam.n_ids):
                gids = set(cam.global_ids[cam.labels == y].tolist())
                assert gids == {int(cam.label_to_global[y])}

    def test_train_test_sizes(self):
        spec = small_spec()
        bundle = generate(spec)
        assert all(len(c) == spec.ids_per_camera * spec.images_per_id for c in bundle.cameras)
        assert len(bundle.test) == spec.n_cameras * spec.ids_per_camera * spec.test_images_per_id

    def test_nearest_prototype_exact_at_zero_noise(self):
        bundle = generate(small_spec(camera_shift=0.0, noise=0.0))
        P = bundle.prototypes
        for cam in bundle.cameras:
            sims = cam.X @ P.T
            assert (np.argmax(sims, axis=1) == cam.global_ids).all()

    def test_prototype_cosine_cap(self):
        bundle = generate(small_spec())
        P = bundle.prototypes
        sims = P @ P.T - np.eye(P.shape[0])
        assert sims.max() <= MAX_PAIR_COS + 1e-12

    def test_spec_validation(self):
        with pytest.raises(ConfigError):
            generate(small_spec(ids_per_camera=21))
        with pytest.raises(ConfigError):
            generate(small_spec(overlap_bias=1.5))
        with pytest.raises(ConfigError):
            generate(small_spec(obs_dim=4))
        with pytest.raises(ConfigError, match="seed=-1 must be nonnegative"):
            generate(small_spec(seed=-1))
        # Each image's norm overflows to inf, which would divide it to zeros
        # (or NaN) rather than to a unit image.
        for overrides in ({"camera_shift": 1e200}, {"camera_shift": 1e308}, {"noise": 1e160}):
            with np.errstate(over="ignore"), pytest.raises(ConfigError, match="image norms overflow"):
                generate(small_spec(**overrides))

    @pytest.mark.parametrize("overrides", [{"camera_shift": 1e200}, {"camera_shift": 1e308},
                                           {"noise": 1e160}])
    def test_overflowing_images_raise_only_config_error(self, overrides):
        # numpy's overflow warning stays inside the generator, so a run under
        # "python -W error" still fails with the config error.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError, match="image norms overflow"):
                generate(small_spec(**overrides))


def bundle_digest(bundle) -> str:
    """sha256 over every camera's X, labels and identity table, then the
    test split's X, global ids, camera ids and local ids."""
    h = hashlib.sha256()
    for cam in bundle.cameras:
        for a in (cam.X, cam.labels, cam.label_to_global):
            h.update(a.tobytes())
    t = bundle.test
    for a in (t.X, t.global_ids, t.camera_ids, t.local_ids):
        h.update(a.tobytes())
    return h.hexdigest()


class TestPinnedData:
    # Digests of the generator's output as first recorded; every metric of
    # the repository rests on these bits.
    def test_default_spec_digest(self):
        assert bundle_digest(generate(SyntheticSpec())) == (
            "a056b9bc080c9c9ec5514a1fb21c7c6e8a140b120ee58487ae95294c3ee84555"
        )

    def test_small_spec_digest(self):
        assert bundle_digest(generate(small_spec())) == (
            "49822778198b57f82f58b18dc2537b6c64bd9f4e6a4d9f6b822c3d969a6dd5dd"
        )


class TestCameraDataset:
    def test_global_ids_read_from_the_table(self):
        cam = CameraDataset(0, np.eye(3), [1, 0, 1], 2, label_to_global=[7, 4])
        assert cam.global_ids.tolist() == [4, 7, 4]
        with pytest.raises(AttributeError):
            cam.global_ids = np.array([4, 7, 5])

    def test_no_table_no_global_ids(self):
        assert CameraDataset(0, np.eye(2), [0, 1], 2).global_ids is None

    @pytest.mark.parametrize("table", [[7], [7, 4, 5], [[7, 4]]])
    def test_table_needs_one_entry_per_label(self, table):
        with pytest.raises(LabelOutOfRange):
            CameraDataset(0, np.eye(3), [1, 0, 1], 2, label_to_global=table)


class TestTestSplit:
    @pytest.mark.parametrize(
        "tags",
        [
            {"global_ids": np.arange(37), "camera_ids": np.arange(37) % 3},
            {"global_ids": np.arange(43), "camera_ids": np.arange(43) % 3},
            {"camera_ids": np.arange(37) % 3},
            {"global_ids": np.arange(40)[:, None]},
            {"local_ids": np.arange(37)},
        ],
        ids=["short", "long", "short-cameras", "column", "short-local"],
    )
    def test_tags_need_one_entry_per_image(self, tags):
        # Forty images, checked when the split is built. Unchecked, 37 tags
        # each are scored silently under "camera" and fail with numpy's own
        # errors under the other rules and at 43 tags.
        kw = {"global_ids": np.arange(40), "camera_ids": np.arange(40) % 3, **tags}
        with pytest.raises(DimensionMismatch):
            TestSplit(np.zeros((40, 4)), **kw)


class TestSaveLoad:
    def test_roundtrip_bitwise(self, tmp_path):
        bundle = generate(small_spec())
        manifest = save_dataset(bundle, tmp_path / "bench")
        loaded = load_dataset(manifest)
        assert loaded.n_cameras == bundle.n_cameras
        for ca, cb in zip(loaded.cameras, bundle.cameras):
            assert (ca.X == cb.X).all()
            assert (ca.labels == cb.labels).all()
            assert (ca.global_ids == cb.global_ids).all()
            assert (ca.label_to_global == cb.label_to_global).all()
        assert (loaded.test.X == bundle.test.X).all()
        assert (loaded.test.global_ids == bundle.test.global_ids).all()
        assert (loaded.test.camera_ids == bundle.test.camera_ids).all()

    @pytest.mark.parametrize("killed_at", [0, 1, 2])
    def test_interrupted_write_keeps_the_previous_files(self, tmp_path, monkeypatch, killed_at):
        # A writer killed halfway through a file leaves a truncated temporary
        # file beside it; each data file holds its old text or its new one.
        names = ("train.csv", "test.csv", "manifest.json")
        save_dataset(generate(small_spec(seed=6)), tmp_path / "new")
        new = {name: (tmp_path / "new" / name).read_bytes() for name in names}
        out = tmp_path / "bench"
        save_dataset(generate(small_spec()), out)
        old = {name: (out / name).read_bytes() for name in names}
        write_text, calls = Path.write_text, []

        def killed(self, text):
            calls.append(self)
            if len(calls) > killed_at:
                write_text(self, text[: len(text) // 2])
                raise RuntimeError("killed")
            return write_text(self, text)

        monkeypatch.setattr(Path, "write_text", killed)
        with pytest.raises(RuntimeError, match="killed"):
            save_dataset(generate(small_spec(seed=6)), out)
        monkeypatch.undo()
        for k, name in enumerate(names):
            assert (out / name).read_bytes() == (new[name] if k < killed_at else old[name]), name

    def test_load_from_directory(self, tmp_path):
        bundle = generate(small_spec())
        save_dataset(bundle, tmp_path / "bench")
        loaded = load_dataset(tmp_path / "bench")
        assert loaded.n_cameras == bundle.n_cameras

    def test_bare_csv_without_manifest(self, tmp_path):
        bundle = generate(small_spec())
        save_dataset(bundle, tmp_path / "bench")
        loaded = load_dataset(tmp_path / "bench" / "train.csv")
        assert loaded.n_cameras == bundle.n_cameras
        assert len(loaded.test) == 0

    def test_label_remap_from_arbitrary_ids(self, tmp_path):
        csv = tmp_path / "train.csv"
        csv.write_text(
            "camera,local_id,global_id,f0,f1\n"
            "0,17,5,1.0,0.0\n"
            "0,42,6,0.0,1.0\n"
            "0,17,5,0.6,0.8\n"
        )
        loaded = load_dataset(csv)
        cam = loaded.cameras[0]
        assert cam.labels.tolist() == [0, 1, 0]
        assert cam.label_to_global.tolist() == [5, 6]

    def test_unknown_globals_disable_tags(self, tmp_path):
        csv = tmp_path / "train.csv"
        csv.write_text(
            "camera,local_id,global_id,f0,f1\n"
            "0,0,-1,1.0,0.0\n"
            "0,1,3,0.0,1.0\n"
        )
        cam = load_dataset(csv).cameras[0]
        assert cam.global_ids is None
        assert cam.label_to_global is None

    def test_normalize_on_load_flag(self, tmp_path):
        csv = tmp_path / "feat.csv"
        csv.write_text("camera,local_id,global_id,f0,f1\n0,0,1,3.0,4.0\n")
        sidecar = tmp_path / "feat.manifest.json"
        sidecar.write_text('{"dim": 2, "normalize": true}')
        cam = load_dataset(csv).cameras[0]
        assert cam.X[0] == pytest.approx([0.6, 0.8], abs=1e-15)

    def test_parse_error_names_line(self, tmp_path):
        csv = tmp_path / "train.csv"
        csv.write_text(
            "camera,local_id,global_id,f0,f1\n"
            "0,0,1,1.0,0.0\n"
            "0,1,2,0.5\n"
        )
        with pytest.raises(ParseError, match=r"train\.csv:3"):
            load_dataset(csv)

    def test_non_numeric_value_names_line(self, tmp_path):
        csv = tmp_path / "train.csv"
        csv.write_text("camera,local_id,global_id,f0,f1\n0,0,1,abc,0.0\n")
        with pytest.raises(ParseError, match=r"train\.csv:2"):
            load_dataset(csv)

    @pytest.mark.parametrize("bad_file", ["train.csv", "test.csv"])
    @pytest.mark.parametrize("values, normalize", [
        ("nan,0.5", False), ("inf,0.5", False), ("0.5,-inf", False),
        ("nan,0.5", True), ("inf,0.5", True), ("0.5,-inf", True), ("0.0,0.0", True),
    ])
    def test_unusable_feature_values_name_file_and_line(self, tmp_path, bad_file, values, normalize):
        header = "camera,local_id,global_id,f0,f1\n"
        for name in ("train.csv", "test.csv"):
            row = values if name == bad_file else "0.6,0.8"
            (tmp_path / name).write_text(header + "0,0,1,1.0,0.0\n" + f"0,1,2,{row}\n")
        manifest = {"dim": 2, "normalize": normalize, "train": "train.csv", "test": "test.csv"}
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ParseError, match=rf"{bad_file.replace('.', '[.]')}:3:"):
            load_dataset(tmp_path)

    def test_zero_row_loads_without_normalize(self, tmp_path):
        csv = tmp_path / "feat.csv"
        csv.write_text("camera,local_id,global_id,f0,f1\n0,0,1,0.0,0.0\n")
        assert (load_dataset(csv).cameras[0].X == 0).all()

    def test_dimension_mismatch_against_manifest(self, tmp_path):
        csv = tmp_path / "feat.csv"
        csv.write_text("camera,local_id,global_id,f0,f1\n0,0,1,1.0,0.0\n")
        sidecar = tmp_path / "feat.manifest.json"
        sidecar.write_text('{"dim": 3}')
        with pytest.raises(DimensionMismatch):
            load_dataset(csv)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ParseError):
            load_dataset(tmp_path / "nope.csv")

    def test_bad_header(self, tmp_path):
        csv = tmp_path / "train.csv"
        csv.write_text("cam,lid,gid,f0\n0,0,1,1.0\n")
        with pytest.raises(ParseError, match=":1"):
            load_dataset(csv)

    def test_inconsistent_tags_name_file_and_line(self, tmp_path):
        csv = tmp_path / "train.csv"
        csv.write_text(
            "camera,local_id,global_id,f0,f1\n"
            "0,17,5,1.0,0.0\n"
            "0,42,6,0.0,1.0\n"
            "\n"
            "0,17,6,0.6,0.8\n"
        )
        with pytest.raises(ParseError, match=r"^train\.csv:5: local id 17 of camera 0 has global id 6"):
            load_dataset(csv)

    @pytest.mark.parametrize("ids", ["0,9223372036854775808,1", "-9223372036854775809,0,1"])
    def test_ids_beyond_64_bits_name_file_and_line(self, tmp_path, ids):
        csv = tmp_path / "train.csv"
        csv.write_text(f"camera,local_id,global_id,f0\n0,-9223372036854775808,1,1.0\n{ids},1.0\n")
        with pytest.raises(ParseError, match=r"^train\.csv:3: ids must be 64-bit integers"):
            load_dataset(csv)

    def test_untagged_row_drops_the_camera_tags_only(self, tmp_path):
        # A -1 row means the camera has no tags, so its other rows are not
        # checked against each other; another camera keeps its table.
        csv = tmp_path / "train.csv"
        csv.write_text(
            "camera,local_id,global_id,f0,f1\n"
            "0,17,5,1.0,0.0\n"
            "0,17,-1,0.0,1.0\n"
            "0,17,6,0.6,0.8\n"
            "1,3,9,1.0,0.0\n"
        )
        cam0, cam1 = load_dataset(csv).cameras
        assert cam0.labels.tolist() == [0, 0, 0]
        assert cam0.label_to_global is None
        assert cam1.label_to_global.tolist() == [9]

    @pytest.mark.parametrize("text, match", [
        ("{nope", "cannot read manifest"),
        ('{"test": "test.csv"}', "no train entry"),
        ('{"train": "train.csv", "dim": "x"}', "dim must be int"),
        ('{"train": "train.csv", "dim": 2.0}', "dim must be int"),
        ('["train.csv"]', "must be a JSON object"),
        ('{"train": 5}', "train must be str"),
        ('{"train": "train.csv", "test": ["test.csv"]}', "test must be str"),
        ('{"train": "train.csv", "normalize": "false"}', "normalize must be bool"),
        ('{"train": "train.csv", "cameras": true}', "cameras must be int"),
        # Read alone, the last train entry would win and load without error.
        ('{"train": "missing.csv", "train": "train.csv"}', "cannot read manifest: repeated key 'train'"),
    ])
    def test_bad_manifest_names_the_manifest(self, tmp_path, text, match):
        (tmp_path / "train.csv").write_text("camera,local_id,global_id,f0,f1\n0,0,1,1.0,0.0\n")
        (tmp_path / "manifest.json").write_text(text)
        with pytest.raises(ParseError, match=f"manifest\\.json.*{match}"):
            load_dataset(tmp_path)

    def test_bad_sidecar_names_the_sidecar(self, tmp_path):
        csv = tmp_path / "feat.csv"
        csv.write_text("camera,local_id,global_id,f0,f1\n0,0,1,1.0,0.0\n")
        (tmp_path / "feat.manifest.json").write_text('{"dim": "2"}')
        with pytest.raises(ParseError, match=r"feat\.manifest\.json: dim must be int"):
            load_dataset(csv)

    def test_undecodable_file_names_the_file(self, tmp_path):
        csv = tmp_path / "train.csv"
        csv.write_bytes(b"camera,local_id,global_id,f0\n0,0,1,1.0\n0,1,2,\xff\n")
        with pytest.raises(ParseError, match=r"train\.csv"):
            load_dataset(csv)

    def test_untagged_test_row_names_file_and_line(self, tmp_path):
        # Retrieval relevance is equal global ids: untagged test rows would
        # all count as one identity and score mAP 1.0.
        (tmp_path / "train.csv").write_text("camera,local_id,global_id,f0,f1\n0,0,1,1.0,0.0\n")
        (tmp_path / "test.csv").write_text(
            "camera,local_id,global_id,f0,f1\n0,0,1,1.0,0.0\n\n1,4,-1,0.0,1.0\n1,5,-1,0.6,0.8\n"
        )
        (tmp_path / "manifest.json").write_text('{"train": "train.csv", "test": "test.csv"}')
        with pytest.raises(ParseError, match=r"^test\.csv:4: a test row needs a global id >= 0, got -1$"):
            load_dataset(tmp_path)

    def test_missing_test_file(self, tmp_path):
        (tmp_path / "train.csv").write_text("camera,local_id,global_id,f0,f1\n0,0,1,1.0,0.0\n")
        (tmp_path / "manifest.json").write_text('{"train": "train.csv", "test": "test.csv"}')
        with pytest.raises(ParseError, match="test.csv"):
            load_dataset(tmp_path)


# Zero, or large enough that a row's squared norm cannot underflow.
_FEATURE = st.one_of(st.just(0.0), st.floats(1e-100, 1e6), st.floats(-1e6, -1e-100))


@st.composite
def feature_files(draw):
    """Train and test rows (camera, local_id, global_id, features) with
    arbitrary ids, several cameras in shuffled order, tagged cameras with
    one global id per local id, and untagged cameras with -1 on some rows."""
    dim = draw(st.integers(1, 4))
    row = st.lists(_FEATURE, min_size=dim, max_size=dim).map(
        lambda x: x if any(x) else [1.0] + x[1:]
    )
    train = []
    for camera in draw(st.lists(st.integers(-5, 10**6), min_size=1, max_size=4, unique=True)):
        ids = draw(st.lists(st.integers(-(10**9), 10**9), min_size=1, max_size=5, unique=True))
        table = {i: draw(st.integers(0, 40)) for i in ids}
        tagged = draw(st.booleans())
        for k in range(draw(st.integers(1, 8))):
            local = draw(st.sampled_from(ids))
            gid = table[local] if tagged else draw(st.sampled_from([-1, table[local], 99]))
            train.append((camera, local, -1 if not tagged and k == 0 else gid, draw(row)))
    train = draw(st.permutations(train))
    test = draw(st.lists(
        st.tuples(st.integers(-5, 50), st.integers(-1, 50), st.integers(-1, 50), row), max_size=6,
    ))
    return dim, train, test


def _reference_load(train, test, dim, normalize):
    """Per-row reference: cameras in increasing id order, local ids
    relabelled in order of first appearance, and a table only when every
    row of the camera is tagged."""
    def features(rows):
        X = np.array([x for *_, x in rows], dtype=np.float64).reshape(len(rows), dim)
        return X / np.linalg.norm(X, axis=1, keepdims=True) if normalize and len(rows) else X

    cameras = []
    for camera in sorted({r[0] for r in train}):
        rows = [r for r in train if r[0] == camera]
        remap, table = {}, []
        for _, local, gid, _ in rows:
            if local not in remap:
                remap[local] = len(remap)
                table.append(gid)
        labels = [remap[r[1]] for r in rows]
        tagged = all(r[2] >= 0 for r in rows)
        cameras.append((camera, labels, table if tagged else None, features(rows)))
    return cameras, features(test)


class TestLoaderAgainstReference:
    @settings(max_examples=150, deadline=None)
    @given(files=feature_files(), normalize=st.booleans())
    def test_bitwise_equal_to_per_row_reference(self, files, normalize):
        dim, train, test = files
        header = ",".join(["camera", "local_id", "global_id"] + [f"f{k}" for k in range(dim)])

        def text(rows):
            lines = [",".join([str(c), str(l), str(g)] + [repr(v) for v in x]) for c, l, g, x in rows]
            return "\n".join([header] + lines) + "\n"

        with tempfile.TemporaryDirectory() as tmp:
            d = Path(tmp)
            (d / "train.csv").write_text(text(train))
            (d / "test.csv").write_text(text(test))
            manifest = {"dim": dim, "normalize": normalize, "train": "train.csv", "test": "test.csv"}
            (d / "manifest.json").write_text(json.dumps(manifest))
            untagged = [k for k, r in enumerate(test) if r[2] < 0]
            if untagged:
                with pytest.raises(ParseError, match=rf"^test\.csv:{untagged[0] + 2}: "):
                    load_dataset(d)
                return
            bundle = load_dataset(d)
        want_cameras, want_test_X = _reference_load(train, test, dim, normalize)
        assert len(bundle.cameras) == len(want_cameras)
        for cam, (camera, labels, table, X) in zip(bundle.cameras, want_cameras):
            assert cam.camera_id == camera
            assert cam.labels.tolist() == labels
            assert cam.n_ids == max(labels) + 1
            assert (None if cam.label_to_global is None else cam.label_to_global.tolist()) == table
            assert cam.X.tobytes() == X.tobytes()
        assert bundle.test.X.tobytes() == want_test_X.tobytes()
        assert bundle.test.camera_ids.tolist() == [r[0] for r in test]
        assert bundle.test.local_ids.tolist() == [r[1] for r in test]
        assert bundle.test.global_ids.tolist() == [r[2] for r in test]
