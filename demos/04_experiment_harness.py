"""Driving experiment grids through the harness.

A config describes the dataset, camera orders, variants, seeds, and optional
hyperparameter sweeps; the harness runs the whole grid deterministically and
writes metrics, training logs, the final camera's snapshot, and an aggregate
summary. Each run() reads or generates its dataset afresh, once for the
whole grid. The same config, saved as JSON, can be driven from the command
line; the file is the one description of the grid:

    ike-lab run --config cfg.json --out runs/demo --jobs 2
    ike-lab selftest
"""

import json
import tempfile
from pathlib import Path

from ike_lab import ExperimentConfig, run, selftest
from ike_lab.datasets import generate, load_dataset, save_dataset, SyntheticSpec

config = ExperimentConfig.from_dict({
    "dataset": {"synthetic": {
        "n_global": 40, "latent_dim": 6, "obs_dim": 6, "n_cameras": 3,
        "ids_per_camera": 20, "images_per_id": 4, "test_images_per_id": 1,
        "seed": 12,
    }},
    "orders": [[0, 1, 2]],
    "variants": ["BASELINE", "IKE"],
    "seeds": [0, 1],
    "hyperparams": {"epochs": 5, "batch_size": 32},
    "encoder": {"hidden": [16, 16, 16], "embed_dim": 16},
})

with tempfile.TemporaryDirectory() as tmp:
    out = Path(tmp) / "runs"
    outcome = run(config, out_dir=out, jobs=1)
    print("summary rows (mean +- std over seeds):")
    for row in outcome.summary_rows:
        print(f"  {row['variant']:<9} fmAP {row['fmap_mean']:.3f} +- {row['fmap_std']:.3f}  "
              f"mean-mAP {row['mean_map_mean']:.3f} +- {row['mean_map_std']:.3f}")
    manifest = json.loads((out / "manifest.json").read_text())
    print(f"\nartifacts for {len(manifest['runs'])} runs under {out.name}/:")
    one = out / manifest["runs"][0]["path"]
    for p in sorted(one.rglob("*")):
        if p.is_file():
            print("  ", p.relative_to(out))

    # Datasets round-trip through the feature-CSV format bit-faithfully.
    bundle = generate(SyntheticSpec(n_global=10, latent_dim=5, obs_dim=5, n_cameras=2,
                                    ids_per_camera=5, images_per_id=2, test_images_per_id=1))
    bench = Path(tmp) / "bench"
    save_dataset(bundle, bench)
    reloaded = load_dataset(bench)
    same = all((a.X == b.X).all() for a, b in zip(bundle.cameras, reloaded.cameras))
    print(f"\nfeature CSV round-trip bitwise identical: {same}")

print("\nbuilt-in oracle selftest:")
print(selftest().format_table())
