import argparse
import contextlib
import ctypes
import dataclasses
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ike_lab.checks as checks
import ike_lab.cli as cli
import ike_lab.evaluation as evaluation
import ike_lab.harness as harness
from ike_lab.association import one_way_match
from ike_lab.datasets import SyntheticSpec, generate, save_dataset
from ike_lab.errors import ConfigError, EmptyGallery
from ike_lab.encoder import load_encoder
from ike_lab.evaluation import GALLERY_RULES, evaluate_map
from ike_lab.harness import (
    ORDER_PRESETS,
    ExperimentConfig,
    derive_run_seed,
    enumerate_runs,
    resolve_order,
    run,
)
from ike_lab.memory import UNIT_TOL, load_memory
from ike_lab.trainer import Hyperparams


def tiny_config(**overrides) -> dict:
    doc = {
        "dataset": {"synthetic": {
            "n_global": 16, "latent_dim": 5, "obs_dim": 5, "n_cameras": 2,
            "ids_per_camera": 8, "images_per_id": 3, "test_images_per_id": 1,
            "camera_shift": 0.2, "noise": 0.03, "seed": 11,
        }},
        "orders": [[0, 1]],
        "variants": ["IKE"],
        "seeds": [0],
        "hyperparams": {"epochs": 2, "batch_size": 8},
        "encoder": {"hidden": [8, 8, 8], "embed_dim": 8},
    }
    doc.update(overrides)
    return doc


class TestConfigValidation:
    def test_valid_config_parses(self):
        cfg = ExperimentConfig.from_dict(tiny_config())
        assert cfg.variants == ["IKE"]
        assert cfg.encoder["embed_dim"] == 8

    @pytest.mark.parametrize("mutate", [
        {"unknown_key": 1},
        {"dataset": {}},
        {"dataset": {"synthetic": {"n_global": 0}}},
        {"variants": ["NOPE"]},
        {"variants": []},
        {"variants": "IKE"},
        {"seeds": []},
        {"seeds": [1, 1]},
        {"orders": []},
        {"hyperparams": {"tau": -1.0}},
        {"hyperparams": {"bogus": 1}},
        {"sweep": {}},
        {"sweep": {"gamma": [1.0]}},
        {"sweep": {"lambda": []}},
        {"gallery_rule": "nope"},
        {"encoder": {"hidden": [8]}},
        {"encoder": {"bogus": 3}},
        {"sweep": {"lambda": [0.5, 2.0]}},
        {"orders": ["T9"]},
        {"orders": [[0, 0]]},
        {"orders": ["T1", [0, 1, 2, 3, 4, 5]]},
        {"variants": ["IKE", "IKE"]},
        {"dataset": {"synthetic": {"seed": -3}}},
    ])
    def test_rejected_before_any_work(self, mutate):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(tiny_config(**mutate))

    def test_manifest_config_reads_back_as_the_grid(self, tmp_path):
        # A partial encoder is written out whole, so the manifest's config
        # is a complete config for the same runs.
        doc = tiny_config(variants=["IKE"], orders=[[1, 0], [0, 1]], sweep={"lambda": [0.0, 0.5]},
                          encoder={"hidden": [8, 8]})
        cfg = ExperimentConfig.from_dict(doc)
        run(cfg, out_dir=tmp_path / "a")
        manifest = json.loads((tmp_path / "a" / "manifest.json").read_text())
        assert manifest["config"]["variants"] == ["IKE"]
        assert manifest["config"]["encoder"] == {"hidden": [8, 8], "embed_dim": 64}
        again = ExperimentConfig.from_dict(manifest["config"])
        assert again == cfg
        run(again, out_dir=tmp_path / "b")
        assert (tmp_path / "b" / "manifest.json").read_bytes() == (tmp_path / "a" / "manifest.json").read_bytes()

    def test_fields_cannot_be_assigned(self):
        cfg = ExperimentConfig.from_dict(tiny_config())
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.seeds = [1]

    def test_defaults_match_an_empty_document(self):
        dataset = tiny_config()["dataset"]
        assert ExperimentConfig(dataset) == ExperimentConfig.from_dict({"dataset": dataset})

    @pytest.mark.parametrize("kwargs, message", [
        ({"seeds": [1, 1]}, "seeds must be distinct"),
        ({"encoder": {"embed_dim": 8}}, 'encoder must be an object of "hidden" and "embed_dim"'),
        ({"encoder": {"hidden": [8], "embed_dim": 8}}, "encoder needs >= 2 hidden widths"),
        ({"variants": "IKE"}, "variants must be a nonempty list"),
        ({"hyperparams": {"epochs": 2}}, "bad hyperparams"),
        ({"dataset": None}, "dataset must be"),
        ({"sweep": {"gamma": [1.0]}}, "unknown sweep axis 'gamma'"),
        # The grid of runs is checked too, with no dataset read.
        ({"sweep": {"lambda": [0.5, 2.0]}}, "sweep axis 'lambda': value 2.0 rejected"),
        ({"orders": ["T9"]}, "unknown order preset 'T9'"),
        ({"orders": [[0, 0]]}, "order [0, 0] is not a permutation of 0..1"),
        ({"orders": ["T1", [0, 1, 2, 3, 4, 5]]},
         "orders 'T1' and [0, 1, 2, 3, 4, 5] are the same camera order"),
        ({"variants": ["IKE", "IKE"]}, "two runs share the run id 'IKE__T1__s0'"),
    ])
    def test_built_in_python_checked_as_from_dict(self, kwargs, message):
        with pytest.raises(ConfigError, match=re.escape(message)):
            ExperimentConfig(**{"dataset": tiny_config()["dataset"], **kwargs})

    def test_readme_config_builds(self):
        # The README's example is a config, checked as one, so the document
        # and the config keys cannot drift apart.
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        blocks = re.findall(r"```json\n(.*?)```", readme, re.DOTALL)
        assert len(blocks) == 1
        cfg = ExperimentConfig.from_dict(json.loads(blocks[0]))
        assert len(enumerate_runs(cfg)) == 2 * 6 * 5 * 5  # orders, variants, seeds, lambdas

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_file(tmp_path / "none.json")

    def test_directory_is_not_a_config(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read config"):
            ExperimentConfig.from_file(tmp_path)

    def test_invalid_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{nope")
        with pytest.raises(ConfigError):
            ExperimentConfig.from_file(p)


class TestOrders:
    def test_presets_are_six_camera_permutations(self):
        for name, order in ORDER_PRESETS.items():
            assert sorted(order) == list(range(6)), name
        assert ORDER_PRESETS["T1"] == [0, 1, 2, 3, 4, 5]

    def test_resolve_explicit(self):
        name, order = resolve_order([1, 0])
        assert name == "o10"
        assert order == [1, 0]

    def test_resolve_preset_wrong_camera_count(self, tmp_path, capsys):
        # Only the dataset knows its camera count, so run checks it, once the
        # data is read and before any run directory exists.
        cfg_path = tmp_path / "cfg.json"
        doc = tiny_config()
        doc["dataset"]["synthetic"]["n_cameras"] = 3
        cfg_path.write_text(json.dumps({**doc, "orders": ["T1"]}))
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(cfg_path), "--out", str(out)]) == 2
        assert "order T1 is for 6 cameras, dataset has 3" in capsys.readouterr().err
        assert not out.exists()
        with pytest.raises(ConfigError, match="order o01 is for 2 cameras, dataset has 3"):
            run(ExperimentConfig.from_dict(doc), out_dir=out)
        assert not out.exists()

    def test_non_permutation_rejected(self):
        with pytest.raises(ConfigError):
            resolve_order([0, 0])


class TestSeeding:
    def test_stable_under_added_runs(self):
        cfg1 = ExperimentConfig.from_dict(tiny_config())
        cfg2 = ExperimentConfig.from_dict(tiny_config(variants=["BASELINE", "IKE"], seeds=[0, 1]))
        runs1 = {s.run_id: s for s in enumerate_runs(cfg1)}
        runs2 = {s.run_id: s for s in enumerate_runs(cfg2)}
        shared = set(runs1) & set(runs2)
        assert shared
        for rid in shared:
            a = derive_run_seed(runs1[rid]).entropy
            b = derive_run_seed(runs2[rid]).entropy
            assert a == b

    def test_different_runs_different_streams(self):
        cfg = ExperimentConfig.from_dict(tiny_config(variants=["BASELINE", "IKE"]))
        specs = enumerate_runs(cfg)
        seeds = {derive_run_seed(s).entropy for s in specs}
        assert len(seeds) == len(specs)


class TestRun:
    def test_artifacts_written(self, tmp_path):
        cfg = ExperimentConfig.from_dict(tiny_config())
        outcome = run(cfg, out_dir=tmp_path / "out")
        assert (tmp_path / "out" / "summary.csv").exists()
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert len(manifest["runs"]) == 1
        run_dir = tmp_path / "out" / manifest["runs"][0]["path"]
        assert sorted(p.name for p in run_dir.iterdir()) == ["checkpoints", "metrics.json", "train_log.csv"]
        # One snapshot: the final camera's, step 1 of the order [0, 1].
        ckpts = list((run_dir / "checkpoints").iterdir())
        assert [c.name for c in ckpts] == ["step01_cam1"]
        assert sorted(p.name for p in ckpts[0].iterdir()) == ["encoder.json", "memory.json"]
        # metrics.json has one entry per camera step in each per-step list
        metrics = json.loads((run_dir / "metrics.json").read_text())
        for key in ("per_camera_map", "nh_trajectory", "assoc_precision"):
            assert len(metrics[key]) == 2, key

    def test_final_snapshot_encoder_rescores_fmap_bitwise(self, tmp_path):
        doc = tiny_config()
        run(ExperimentConfig.from_dict(doc), out_dir=tmp_path)
        run_dir = tmp_path / "runs" / "IKE__o01__s0"
        fmap = json.loads((run_dir / "metrics.json").read_text())["fmap"]
        params = load_encoder(run_dir / "checkpoints" / "step01_cam1" / "encoder.json")
        test = generate(SyntheticSpec(**doc["dataset"]["synthetic"])).test
        assert evaluate_map(params, test) == fmap

    def test_final_snapshot_memory_holds_the_final_unit_rows(self, tmp_path):
        run(ExperimentConfig.from_dict(tiny_config()), out_dir=tmp_path)
        run_dir = tmp_path / "runs" / "IKE__o01__s0"
        nh = json.loads((run_dir / "metrics.json").read_text())["nh_trajectory"]
        memory = load_memory(run_dir / "checkpoints" / "step01_cam1" / "memory.json")
        assert len(memory) == nh[-1]
        assert memory.max_unit_error() <= UNIT_TOL

    def test_single_camera_single_row(self, tmp_path):
        doc = tiny_config()
        doc["dataset"]["synthetic"]["n_cameras"] = 1
        doc["dataset"]["synthetic"]["test_images_per_id"] = 2
        doc["orders"] = [[0]]
        doc["gallery_rule"] = "none"
        cfg = ExperimentConfig.from_dict(doc)
        run(cfg, out_dir=tmp_path / "out")
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        run_dir = tmp_path / "out" / manifest["runs"][0]["path"]
        metrics = json.loads((run_dir / "metrics.json").read_text())
        for key in ("per_camera_map", "nh_trajectory", "assoc_precision"):
            assert len(metrics[key]) == 1, key

    def test_ablation_grid_covers_all_variants(self, tmp_path):
        doc = tiny_config(variants=["BASELINE", "IKE_D", "IKE_A", "IKE_U", "IKE_STAR", "IKE"])
        cfg = ExperimentConfig.from_dict(doc)
        outcome = run(cfg, out_dir=tmp_path / "out")
        assert len(outcome.reports) == 6
        summary = (tmp_path / "out" / "summary.csv").read_text().strip().splitlines()
        assert len(summary) == 7
        variants = {line.split(",")[0] for line in summary[1:]}
        assert variants == {"BASELINE", "IKE_D", "IKE_A", "IKE_U", "IKE_STAR", "IKE"}

    def test_sweep_rows(self, tmp_path):
        cfg = ExperimentConfig.from_dict(tiny_config(sweep={"lambda": [0.0, 0.25, 0.5]}))
        outcome = run(cfg, out_dir=tmp_path / "out")
        assert len(outcome.reports) == 3
        summary = (tmp_path / "out" / "summary.csv").read_text().strip().splitlines()
        assert summary[0].split(",")[2] == "lambda"
        assert len(summary) == 4

    def test_every_combination_once(self, tmp_path):
        doc = tiny_config(variants=["BASELINE", "IKE"], seeds=[0, 1])
        cfg = ExperimentConfig.from_dict(doc)
        outcome = run(cfg, out_dir=tmp_path / "out")
        assert len(outcome.reports) == 4
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        ids = [r["run_id"] for r in manifest["runs"]]
        assert len(ids) == len(set(ids)) == 4

    @pytest.mark.parametrize("mutate, n_cameras, run_id", [
        ({"variants": ["IKE", "IKE"]}, 2, "IKE__o01__s0"),
        ({"orders": [[0, 1], [0, 1]]}, 2, "IKE__o01__s0"),
        ({"sweep": {"lambda": [0.1, 0.1000001]}}, 2, "IKE__o01__s0__lambda0.1"),
        ({"orders": [[1, 10, 2, 3, 4, 5, 6, 7, 8, 9, 11, 0], [11, 0, 2, 3, 4, 5, 6, 7, 8, 9, 1, 10]]},
         12, "IKE__o11023456789110__s0"),
    ])
    @pytest.mark.parametrize("through_cli", [False, True])
    def test_shared_run_id_rejected_before_any_work(self, tmp_path, capsys, mutate, n_cameras,
                                                     run_id, through_cli):
        # Two runs with one id would write one runs/<id> directory and one
        # report for both.
        doc = tiny_config(**mutate)
        doc["dataset"]["synthetic"]["n_cameras"] = n_cameras
        out = tmp_path / "out"
        if through_cli:
            cfg_path = tmp_path / "cfg.json"
            cfg_path.write_text(json.dumps(doc))
            assert cli.main(["run", "--config", str(cfg_path), "--out", str(out)]) == 2
            assert f"run id {run_id!r}" in capsys.readouterr().err
        else:
            with pytest.raises(ConfigError, match=re.escape(f"run id {run_id!r}")):
                run(ExperimentConfig.from_dict(doc), out_dir=out)
        assert not out.exists()

    @pytest.mark.parametrize("through_cli", [False, True])
    def test_one_order_named_twice_rejected_before_any_work(self, tmp_path, capsys, through_cli):
        # Runs are seeded from the order, not its name, so a preset and the
        # same explicit permutation would run the same work twice.
        doc = tiny_config(orders=["T1", [0, 1, 2, 3, 4, 5]])
        doc["dataset"]["synthetic"]["n_cameras"] = 6
        out = tmp_path / "out"
        message = "orders 'T1' and [0, 1, 2, 3, 4, 5] are the same camera order"
        if through_cli:
            cfg_path = tmp_path / "cfg.json"
            cfg_path.write_text(json.dumps(doc))
            assert cli.main(["run", "--config", str(cfg_path), "--out", str(out)]) == 2
            assert message in capsys.readouterr().err
        else:
            with pytest.raises(ConfigError, match=re.escape(message)):
                run(ExperimentConfig.from_dict(doc), out_dir=out)
        assert not out.exists()

    def test_bitwise_identical_reruns(self, tmp_path):
        cfg = ExperimentConfig.from_dict(tiny_config())
        run(cfg, out_dir=tmp_path / "a")
        run(cfg, out_dir=tmp_path / "b")
        ma = json.loads((tmp_path / "a" / "manifest.json").read_text())
        pa = tmp_path / "a" / ma["runs"][0]["path"] / "metrics.json"
        pb = tmp_path / "b" / ma["runs"][0]["path"] / "metrics.json"
        assert pa.read_bytes() == pb.read_bytes()

    def test_metrics_json_text_pinned(self, tmp_path):
        # The whole document: keys, their order and every value, as written
        # when the report still carried the run description itself.
        doc = tiny_config(orders=[[1, 0]], seeds=[3], sweep={"lambda": [0.5]})
        doc["dataset"]["synthetic"].update(camera_shift=0.6, noise=0.3)
        run(ExperimentConfig.from_dict(doc), out_dir=tmp_path)
        text = (tmp_path / "runs" / "IKE__o10__s3__lambda0.5" / "metrics.json").read_bytes()
        assert hashlib.sha256(text).hexdigest() == (
            "9c3e7786548a7d63f626e30a5c269f29abee3d91d3c1561470426ca9f8764bf5")

    def test_parallel_jobs_match_serial(self, tmp_path):
        # The reports, and the output trees file by file.
        trees = self._serial_and_parallel_trees(tmp_path)
        assert len(trees[0]) == 2 + 4 * 4  # summary, manifest; per run 2 files and 1 snapshot of 2

    def test_parallel_jobs_match_serial_with_several_chunks_per_evaluation(
        self, tmp_path, monkeypatch
    ):
        # At 40 scores per chunk every evaluate_map call has several chunks.
        # This process scores and ranks them on two threads, each with its
        # own buffer, when it may use two CPUs; the pool workers, forked with
        # the patched value, rank the same chunks on one thread, so a thread
        # that wrote into the other's buffer would change their reports.
        monkeypatch.setattr(evaluation, "_BLOCK_ELEMENTS", 40)
        self._serial_and_parallel_trees(tmp_path)

    @staticmethod
    def _serial_and_parallel_trees(tmp_path):
        """Runs a four-run grid under --jobs 1 and --jobs 2, checks that the
        reports and the output trees, file by file, are equal, and returns
        the trees."""
        doc = tiny_config(variants=["BASELINE", "IKE"], seeds=[0, 1])
        cfg = ExperimentConfig.from_dict(doc)
        serial = run(cfg, out_dir=tmp_path / "serial", jobs=1)
        parallel = run(cfg, out_dir=tmp_path / "parallel", jobs=2)
        for rid, rep in serial.reports.items():
            assert parallel.reports[rid] == rep
        trees = [
            {p.relative_to(out): hashlib.sha256(p.read_bytes()).hexdigest()
             for p in out.rglob("*") if p.is_file()}
            for out in (tmp_path / "serial", tmp_path / "parallel")
        ]
        assert trees[0] == trees[1]
        return trees

    def test_features_rewritten_at_one_path_are_read_afresh(self, tmp_path):
        # Each run() reads its dataset, so a second run in one process, after
        # the features at the config's path were rewritten, trains on the
        # new ones, as a run on a fresh path does.
        synthetic = tiny_config()["dataset"]["synthetic"]
        path, fresh = tmp_path / "data", tmp_path / "fresh"
        cfg = ExperimentConfig.from_dict(tiny_config(dataset={"features": str(path)}))
        save_dataset(generate(SyntheticSpec(**synthetic)), path)
        before = run(cfg).reports
        rewritten = generate(SyntheticSpec(**{**synthetic, "seed": 12}))
        save_dataset(rewritten, path)
        save_dataset(rewritten, fresh)
        after = run(cfg).reports
        fresh_cfg = ExperimentConfig.from_dict(tiny_config(dataset={"features": str(fresh)}))
        assert after == run(fresh_cfg).reports
        assert after != before

    @pytest.mark.parametrize("dataset", ["synthetic", "features"])
    def test_check_reads_every_file_written(self, tmp_path, monkeypatch, dataset):
        # The pre-run check and the writers take a run's paths from one
        # place, so a writer that adds or moves a file unchecked fails here.
        # The features name their cameras 5 and 15; the snapshot is named by
        # the camera's index, which is known before the data is read.
        doc = tiny_config(variants=["BASELINE", "IKE"])
        if dataset == "features":
            data = tmp_path / "data"
            save_dataset(generate(SyntheticSpec(**doc["dataset"]["synthetic"])), data)
            for name in ("train.csv", "test.csv"):
                header, *rows = (data / name).read_text().splitlines()
                rows = [",".join([str(10 * int(r.split(",")[0]) + 5), *r.split(",")[1:]]) for r in rows]
                (data / name).write_text("\n".join([header, *rows]) + "\n")
            doc["dataset"] = {"features": str(data)}
        checked, check = [], harness._check_writable
        monkeypatch.setattr(harness, "_check_writable", lambda path: checked.append(path) or check(path))
        out = tmp_path / "out"
        run(ExperimentConfig.from_dict(doc), out_dir=out)
        assert sorted(checked) == sorted(p for p in out.rglob("*") if p.is_file())
        assert len(checked) == 2 + 2 * 4  # summary, manifest; per run 2 files and 1 snapshot of 2

    def test_no_output_dir(self):
        cfg = ExperimentConfig.from_dict(tiny_config())
        outcome = run(cfg, out_dir=None)
        assert outcome.out_dir is None
        assert len(outcome.reports) == 1


class TestCli:
    BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

    @pytest.mark.parametrize("imports, preset, want", [
        ("ike_lab", {}, ["1", "1", "1"]),
        ("ike_lab", {"OPENBLAS_NUM_THREADS": "3"}, ["3", "1", "1"]),
        ("numpy, ike_lab", {}, [None, None, None]),
    ], ids=["unset", "caller-set", "numpy-first"])
    def test_import_pins_blas_before_numpy(self, imports, preset, want):
        # The CLI imports the package before numpy, so its BLAS (and every
        # --jobs worker's) runs one thread unless the caller chose otherwise.
        env = {k: v for k, v in os.environ.items() if k not in self.BLAS_VARIABLES}
        env.update(preset)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        code = (f"import json, os; import {imports}; "
                f"print(json.dumps([os.environ.get(v) for v in {self.BLAS_VARIABLES!r}]))")
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == want

    def test_tests_run_one_blas_thread(self):
        # conftest.py pins BLAS before numpy loads. Loading numpy's bundled
        # OpenBLAS again returns the library numpy already loaded, so its
        # thread count is the one the tests run with.
        libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas*"))
        blas = ctypes.CDLL(str(libs[0])) if libs else None
        if not hasattr(blas, "scipy_openblas_get_num_threads64_"):
            pytest.skip("numpy bundles no scipy-openblas64 library")
        get_num_threads = blas.scipy_openblas_get_num_threads64_
        get_num_threads.argtypes, get_num_threads.restype = [], ctypes.c_int
        assert get_num_threads() == 1

    def test_run_subcommand(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(tiny_config()))
        rc = cli.main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
        assert rc == 0
        assert (tmp_path / "out" / "summary.csv").exists()
        assert "fmAP" in capsys.readouterr().out

    def test_run_seeds_from_config(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(tiny_config(seeds=[7])))
        rc = cli.main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
        assert rc == 0
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert [r["seed"] for r in manifest["runs"]] == [7]

    def test_bad_config_exit_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(tiny_config(variants=["NOPE"])))
        rc = cli.main(["run", "--config", str(cfg_path)])
        assert rc == 2
        assert "config error" in capsys.readouterr().err

    def test_missing_config_exit_2(self, tmp_path):
        assert cli.main(["run", "--config", str(tmp_path / "none.json")]) == 2

    def test_run_sweep_from_config(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(tiny_config(sweep={"lambda": [0, 0.5, 1.0]})))
        rc = cli.main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
        assert rc == 0
        summary = (tmp_path / "out" / "summary.csv").read_text().strip().splitlines()
        assert len(summary) == 4

    def test_unknown_sweep_axis_exit_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(tiny_config(sweep={"gamma": [1]})))
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(cfg_path), "--out", str(out)]) == 2
        assert "unknown sweep axis 'gamma'" in capsys.readouterr().err
        assert not out.exists()

    def test_summary_rows_follow_the_config_order(self, tmp_path, capsys):
        # Rows come in the grid's order, not sorted as text, where 10.0
        # would come before 2.0.
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(tiny_config(sweep={"tau": [2.0, 10.0]})))
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
        summary = (out / "summary.csv").read_text().strip().splitlines()
        assert [line.split(",")[2] for line in summary[1:]] == ["2.0", "10.0"]
        printed = [line for line in capsys.readouterr().out.splitlines() if "fmAP" in line]
        assert [re.search(r"tau=(\S+):", line).group(1) for line in printed] == ["2", "10"]

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_jobs_below_one_exit_2_before_any_work(self, tmp_path, capsys, jobs):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(tiny_config()))
        out = tmp_path / "out"
        rc = cli.main(["run", "--config", str(cfg_path), "--out", str(out), "--jobs", jobs])
        assert rc == 2
        assert f"--jobs must be at least 1, got {jobs}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("taken, out", [("out", "out"), ("out/runs", "out"), ("out", "out/sub"),
                                            ("out/runs/IKE__o01__s0/checkpoints", "out")])
    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_out_naming_a_file_exit_2_before_any_data(self, tmp_path, capsys, monkeypatch, taken, out, jobs):
        # A file where the output directory, a directory in it or an ancestor
        # belongs would stop a run's first write, after the dataset was built.
        monkeypatch.setattr(harness, "generate", lambda spec: pytest.fail("dataset generated"))
        (tmp_path / taken).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / taken).write_text("kept")
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(tiny_config(variants=["BASELINE", "IKE"])))
        rc = cli.main(["run", "--config", str(cfg_path), "--out", str(tmp_path / out), "--jobs", jobs])
        assert rc == 2
        assert f"output path {tmp_path / taken} exists and is not a directory" in capsys.readouterr().err
        assert (tmp_path / taken).read_text() == "kept"

    @pytest.mark.parametrize("name", [
        "summary.csv", "manifest.json", "summary.csv.tmp",
        *(f"runs/IKE__o01__s0/{name}" for name in ("metrics.json", "train_log.csv", "metrics.json.tmp")),
        *(f"runs/IKE__o01__s0/checkpoints/step01_cam1/{name}" for name in ("encoder.json", "memory.json")),
    ])
    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_summary_path_naming_a_directory_exit_2_before_any_data(self, tmp_path, capsys, monkeypatch,
                                                                    name, jobs):
        # The write there would fail, after the run or the whole grid trained.
        monkeypatch.setattr(harness, "generate", lambda spec: pytest.fail("dataset generated"))
        out = tmp_path / "out"
        (out / name).mkdir(parents=True)
        before = sorted(out.rglob("*"))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(tiny_config(variants=["BASELINE", "IKE"])))
        rc = cli.main(["run", "--config", str(cfg_path), "--out", str(out), "--jobs", jobs])
        assert rc == 2
        assert f"output path {out / name} exists and is a directory" in capsys.readouterr().err
        assert sorted(out.rglob("*")) == before

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_run_directory_naming_a_file_exit_2_before_any_run(self, tmp_path, capsys, monkeypatch, jobs):
        monkeypatch.setattr(harness, "generate", lambda spec: pytest.fail("dataset generated"))
        out = tmp_path / "out"
        taken = out / "runs" / "IKE__o01__s0"
        taken.parent.mkdir(parents=True)
        taken.write_text("kept")
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(tiny_config(variants=["BASELINE", "IKE"])))
        rc = cli.main(["run", "--config", str(cfg_path), "--out", str(out), "--jobs", jobs])
        assert rc == 2
        assert f"output path {taken} exists and is not a directory" in capsys.readouterr().err
        assert list((out / "runs").iterdir()) == [taken]
        assert taken.read_text() == "kept"

    def test_config_out_naming_a_file_exit_2(self, tmp_path, capsys):
        # --out alone names the output directory; a config that names one
        # too is rejected, and the file it names is left as it was.
        out = tmp_path / "taken"
        out.write_text("kept")
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(tiny_config(out=str(out))))
        assert cli.main(["run", "--config", str(cfg_path)]) == 2
        assert "unknown config keys: ['out']" in capsys.readouterr().err
        assert out.read_text() == "kept"

    @pytest.mark.parametrize("hyper, message", [
        # lr = 1e300 overflows the encoder after the first step, so every
        # run's losses turn NaN in camera 0's first epoch.
        ({"epochs": 2, "batch_size": 8, "lr": 1e300}, "camera 0, epoch 0: mean loss term"),
        # One batch per epoch: the epoch's mean loss is finite, and its one
        # step sends the embeddings that rebuild the memory non-finite.
        ({"epochs": 1, "batch_size": 64, "lr": 1e308}, "camera 0: an embedding is not finite"),
    ], ids=["loss", "embedding"])
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_diverging_run_exit_1_and_no_nan_written(self, tmp_path, capsys, jobs, hyper, message):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(tiny_config(variants=["BASELINE", "IKE"], hyperparams=hyper)))
        out = tmp_path / "out"
        with np.errstate(all="ignore"):
            rc = cli.main(["run", "--config", str(cfg_path), "--out", str(out), "--jobs", str(jobs)])
        assert rc == 1
        assert message in capsys.readouterr().err
        assert not list(out.rglob("metrics.json"))
        assert not list(out.rglob("checkpoints"))
        for path in out.rglob("*"):
            if path.is_file():
                assert "nan" not in path.read_text().lower(), path

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_failed_sweep_point_recorded_and_other_runs_finish(self, tmp_path, capsys, jobs):
        # tau = 1e-310 overflows the contrastive logits, so that point stops
        # with NonFiniteLoss in camera 0's first epoch; tau = 0.05 finishes.
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(tiny_config(sweep={"tau": [1e-310, 0.05]})))
        out = tmp_path / "out"
        with np.errstate(all="ignore"):
            rc = cli.main(["run", "--config", str(cfg_path), "--out", str(out), "--jobs", str(jobs)])
        assert rc == 1
        manifest = json.loads((out / "manifest.json").read_text())
        runs = {r["sweep"]["tau"]: r for r in manifest["runs"]}
        assert set(runs) == {1e-310, 0.05}
        assert all(r["variant"] == "IKE" for r in runs.values())
        ok, failed = runs[0.05], runs[1e-310]
        assert ok["status"] == "ok" and ok["error"] is None
        assert failed["status"] == "failed"
        assert failed["error"].startswith("NonFiniteLoss: camera 0, epoch 0: mean loss term")
        assert (out / ok["path"] / "metrics.json").exists()
        assert not (out / failed["path"] / "metrics.json").exists()
        summary = (out / "summary.csv").read_text().strip().splitlines()
        assert len(summary) == 2 and summary[1].split(",")[2] == "0.05"
        assert f"error: run {failed['run_id']} failed: NonFiniteLoss" in capsys.readouterr().err

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_bad_sweep_point_exit_2_before_any_work(self, data):
        # A valid point comes first, so a grid checked run by run would
        # train it and write its artifacts before reaching the bad one.
        axis, good = data.draw(st.sampled_from([("lambda", 0.5), ("omega", 0.1), ("tau", 0.05)]))
        if axis == "tau":
            out_of_range = st.floats().filter(lambda v: not (v > 0 and math.isfinite(v)))
        else:
            out_of_range = st.floats().filter(lambda v: not 0.0 <= v <= 1.0)
        non_numeric = st.one_of(st.text(max_size=5), st.none(), st.booleans(),
                                st.lists(st.integers(), max_size=2))
        bad = data.draw(st.one_of(out_of_range, non_numeric))
        with tempfile.TemporaryDirectory() as tmp:
            cfg_path = Path(tmp) / "cfg.json"
            out = Path(tmp) / "out"
            cfg_path.write_text(json.dumps(tiny_config(sweep={axis: [good, bad]})))
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                rc = cli.main(["run", "--config", str(cfg_path), "--out", str(out)])
            assert rc == 2
            assert f"sweep axis {axis!r}: value {bad!r}" in err.getvalue()
            assert not out.exists() or not any(out.iterdir())

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), jobs=st.sampled_from(["1", "2"]))
    def test_field_of_wrong_kind_exit_2_before_any_work(self, data, jobs):
        # An int field takes an integer, a float field any real number, and
        # neither takes a bool; JSON floats such as 2.0 stay floats.
        wrong = {
            "int": st.one_of(st.booleans(), st.floats(), st.text(max_size=4), st.none(),
                             st.lists(st.integers(), max_size=2)),
            "float": st.one_of(st.booleans(), st.text(max_size=4), st.none(),
                               st.lists(st.floats(), max_size=2)),
        }
        doc = tiny_config()
        section = data.draw(st.sampled_from(["hyperparams", "synthetic", "seeds"]))
        if section == "seeds":
            key, bad = "seeds", data.draw(wrong["int"])
            doc["seeds"] = [0, bad]
        else:
            cls = Hyperparams if section == "hyperparams" else SyntheticSpec
            field = data.draw(st.sampled_from(dataclasses.fields(cls)))
            key, bad = field.name, data.draw(wrong[getattr(field.type, "__name__", field.type)])
            target = doc["hyperparams"] if section == "hyperparams" else doc["dataset"]["synthetic"]
            target[key] = bad
        with tempfile.TemporaryDirectory() as tmp:
            cfg_path = Path(tmp) / "cfg.json"
            out = Path(tmp) / "out"
            cfg_path.write_text(json.dumps(doc))
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                rc = cli.main(["run", "--config", str(cfg_path), "--out", str(out), "--jobs", jobs])
            assert rc == 2
            assert f"{key} must be" in err.getvalue()
            assert not out.exists()

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_float_beyond_float_range_exit_2_before_any_work(self, data):
        # JSON can carry integers too large for a float (written out in
        # digits) and, in Python's dialect, Infinity and NaN.
        bad = data.draw(st.one_of(
            st.integers(2 ** 1024, 10 ** 400), st.integers(-(10 ** 400), -(2 ** 1024)),
            st.sampled_from([math.inf, -math.inf, math.nan]),
        ))
        doc = tiny_config()
        section = data.draw(st.sampled_from(["hyperparams", "synthetic", "sweep"]))
        if section == "sweep":
            key, good = data.draw(st.sampled_from([("lambda", 0.5), ("omega", 0.1), ("tau", 0.05)]))
            doc["sweep"] = {key: [good, bad]}
        else:
            cls = Hyperparams if section == "hyperparams" else SyntheticSpec
            key = data.draw(st.sampled_from(
                [f.name for f in dataclasses.fields(cls) if f.type in (float, "float")]
            ))
            target = doc["hyperparams"] if section == "hyperparams" else doc["dataset"]["synthetic"]
            target[key] = bad
        with tempfile.TemporaryDirectory() as tmp:
            cfg_path = Path(tmp) / "cfg.json"
            out = Path(tmp) / "out"
            cfg_path.write_text(json.dumps(doc))
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                rc = cli.main(["run", "--config", str(cfg_path), "--out", str(out)])
            assert rc == 2
            assert f"{key}" in err.getvalue() and "must be a finite float" in err.getvalue()
            assert not out.exists()

    @pytest.mark.parametrize("doc, key", [
        (5, "a config must be a JSON object"),
        (["run"], "a config must be a JSON object"),
        (tiny_config(orders=[5]), "orders"),
        (tiny_config(orders=[[0, "1"]]), "orders"),
        (tiny_config(encoder={"hidden": "ab"}), "encoder.hidden"),
        (tiny_config(encoder={"hidden": [8, 8.0]}), "encoder.hidden"),
        (tiny_config(encoder={"embed_dim": "x"}), "encoder.embed_dim"),
        (tiny_config(encoder=[8, 8]), "encoder"),
        (tiny_config(variants=5), "variants"),
        (tiny_config(dataset={"features": 5}), "dataset.features"),
        (tiny_config(out=5), "out"),
        (tiny_config(hyperparams=[1]), "hyperparams"),
        # The optimizer recipe is fixed, not a setting.
        *((tiny_config(hyperparams={key: value}), f"unexpected keyword argument '{key}'")
          for key, value in (("weight_decay", 5e-4), ("lr_decay", 0.1), ("lr_step", 15))),
    ])
    def test_config_of_wrong_shape_exit_2(self, tmp_path, capsys, doc, key):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(cfg_path), "--out", str(out)]) == 2
        assert key in capsys.readouterr().err
        assert not out.exists()

    def test_untagged_test_split_exit_1(self, tmp_path, capsys):
        # Scored, it would read mAP 1.0: relevance is equal global ids, and
        # every untagged test row carries -1.
        data = tmp_path / "data"
        save_dataset(generate(SyntheticSpec(**tiny_config()["dataset"]["synthetic"])), data)
        header, *rows = (data / "test.csv").read_text().splitlines()
        rows = [",".join([*r.split(",")[:2], "-1", *r.split(",")[3:]]) for r in rows]
        (data / "test.csv").write_text("\n".join([header, *rows]) + "\n")
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(tiny_config(dataset={"features": str(data)})))
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(cfg_path), "--out", str(out)]) == 1
        assert "test.csv:2: a test row needs a global id >= 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["synthetic", "features"])
    def test_empty_test_split_exit_2_before_any_run(self, tmp_path, capsys, kind):
        doc = tiny_config()
        doc["dataset"]["synthetic"]["test_images_per_id"] = 0
        if kind == "features":
            manifest = save_dataset(generate(SyntheticSpec(**tiny_config()["dataset"]["synthetic"])),
                                    tmp_path / "data")
            entries = json.loads(manifest.read_text())
            del entries["test"]
            manifest.write_text(json.dumps(entries))
            doc["dataset"] = {"features": str(manifest)}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(cfg_path), "--out", str(out)]) == 2
        assert "test split is empty" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("rule", GALLERY_RULES)
    @pytest.mark.parametrize("kind", ["features", "synthetic"])
    def test_unscorable_test_split_exit_2_before_any_run(self, tmp_path, capsys, kind, rule):
        # Test rows of one camera only, one per identity: no query has a
        # relevant gallery item under any rule, so each run would train and
        # checkpoint, then fail with EmptyGallery.
        doc = tiny_config(gallery_rule=rule)
        if kind == "features":
            data = tmp_path / "data"
            save_dataset(generate(SyntheticSpec(**doc["dataset"]["synthetic"])), data)
            header, *rows = (data / "test.csv").read_text().splitlines()
            rows = [r for r in rows if r.split(",")[0] == "0"]
            (data / "test.csv").write_text("\n".join([header, *rows]) + "\n")
            doc["dataset"] = {"features": str(data)}
        else:
            doc["dataset"]["synthetic"]["n_cameras"] = 1
            doc["orders"] = [[0]]
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(cfg_path), "--out", str(out)]) == 2
        where = "twice" if rule == "none" else "in two cameras"
        assert (f"no test identity appears {where}, so under gallery_rule {rule!r} no run "
                "could be scored") in capsys.readouterr().err
        assert not out.exists()

    def test_run_orders_from_config(self, tmp_path):
        doc = tiny_config(orders=["T1", "T2"])
        doc["dataset"]["synthetic"].update({"n_cameras": 6, "n_global": 24, "ids_per_camera": 6})
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        rc = cli.main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
        assert rc == 0
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert {r["order"] for r in manifest["runs"]} == {"T1", "T2"}

    def test_selftest_subcommand(self, capsys):
        assert cli.main(["selftest"]) == 0
        assert "selftest: PASS" in capsys.readouterr().out

    def test_selftest_subcommand_exit_1_on_a_failed_check(self, capsys, monkeypatch):
        monkeypatch.setattr(checks, "cycle_match", one_way_match)
        assert cli.main(["selftest"]) == 1
        assert "selftest: FAIL" in capsys.readouterr().out

    @pytest.mark.parametrize("key,value", [
        ("seed", -3), ("camera_shift", 1e200), ("camera_shift", 1e308), ("noise", 1e160),
    ])
    def test_unusable_synthetic_spec_exit_2_and_writes_nothing(self, tmp_path, capsys, key, value):
        # A negative seed is refused when the config is built; images whose
        # norms overflow, when the dataset is generated. Neither writes.
        doc = tiny_config()
        doc["dataset"]["synthetic"][key] = value
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        with np.errstate(over="ignore"):
            assert cli.main(["run", "--config", str(cfg_path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and f"{key}={value!r}" in err
        assert not out.exists()

    @pytest.mark.parametrize("given, repeated, key", [
        ('"seeds": [0]', '"seeds": [0], "seeds": [1]', "seeds"),
        ('"epochs": 2', '"epochs": 2, "epochs": 3', "epochs"),
        ('"lambda": [0.0]', '"lambda": [0.0], "lambda": [0.5]', "lambda"),
    ])
    def test_repeated_config_key_exit_2_and_writes_nothing(self, tmp_path, capsys, given, repeated, key):
        # json.loads alone keeps a repeated key's last value, so the grid
        # would silently differ from what the file seems to say.
        text = json.dumps(tiny_config(sweep={"lambda": [0.0]}))
        assert text.count(given) == 1
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(text.replace(given, repeated))
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(cfg_path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == f"config error: cannot read config {cfg_path}: repeated key {key!r}\n"
        assert not out.exists()

    @pytest.mark.parametrize("orders, message", [
        (["T9"], "unknown order preset 'T9'"), ([], "orders must be a nonempty list"),
    ])
    def test_bad_orders_exit_2_before_any_data(self, tmp_path, capsys, monkeypatch, orders, message):
        monkeypatch.setattr(harness, "generate", lambda spec: pytest.fail("dataset generated"))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(tiny_config(orders=orders)))
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(cfg_path), "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag", [["--seed", "7"], ["--axis", "lambda=0"], ["--preset", "T1"]])
    def test_removed_flag_exit_2_through_argparse(self, tmp_path, capsys, flag):
        # The config is the one description of a grid, so a flag that would
        # replace one of its keys is refused, never silently ignored.
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(tiny_config()))
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            cli.main(["run", "--config", str(cfg_path), "--out", str(out), *flag])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
        assert not out.exists()

    def test_documented_run_flags_are_the_parser_flags(self):
        # The README's synopsis and the module's own name the flags that
        # build_parser accepts, so no document advertises a refused flag.
        subparsers = next(a for a in cli.build_parser()._actions
                          if isinstance(a, argparse._SubParsersAction))
        parsed = {s for a in subparsers.choices["run"]._actions for s in a.option_strings} - {"-h", "--help"}
        assert parsed == {"--config", "--jobs", "--out"}
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        synopsis = re.search(r"## Command line\n\n```bash\n(.*?)```", readme, re.DOTALL).group(1)
        for doc in (synopsis, cli.__doc__):
            run_synopsis = doc[doc.index("ike-lab run"):doc.index("ike-lab selftest")]
            assert set(re.findall(r"--[a-z]+", run_synopsis)) == parsed
