import json

import numpy as np
import pytest

from ike_lab.datasets import SyntheticSpec, generate, load_dataset, save_dataset
from ike_lab.errors import ConfigError, DimensionMismatch, ParseError


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
        assert sims.max() <= 0.8 + 1e-12

    def test_spec_validation(self):
        with pytest.raises(ConfigError):
            generate(small_spec(ids_per_camera=21))
        with pytest.raises(ConfigError):
            generate(small_spec(overlap_bias=1.5))
        with pytest.raises(ConfigError):
            generate(small_spec(obs_dim=4))


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
