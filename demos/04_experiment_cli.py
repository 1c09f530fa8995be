"""The experiment CLI end to end: generate, run, ablate, report.

Everything a training study needs from the command line, driven
here through the same entry point the `noisytrain` console script uses.
Outputs land in ./demo_runs; rerunning reproduces every file byte for byte.
"""

import json
import os

from noisytrain.cli import main

OUT = "demo_runs"
CONFIG = os.path.join(OUT, "config.json")

if __name__ == "__main__":   # ablate starts worker processes that import this file
    os.makedirs(OUT, exist_ok=True)
    with open(CONFIG, "w") as f:
        json.dump({
            "dataset": {"num_classes": 4, "per_class": 100, "test_per_class": 50,
                        "dims": 8, "separation": 8.0},
            "noise": {"kind": "symmetric", "rate": 0.4},
            "arch": {"hidden": 32, "embed_dim": 8},
            "hyperparams": {"batch_size": 32, "warmup_epochs": 3, "total_epochs": 12},
            "seed": 3,
            "output_dir": os.path.join(OUT, "experiment"),
        }, f, indent=2)
    print(f"wrote {CONFIG}\n")

    print("$ noisytrain generate --config", CONFIG)
    main(["generate", "--config", CONFIG])

    print("\n$ noisytrain run --config", CONFIG, "--export-selection")
    main(["run", "--config", CONFIG, "--export-selection"])

    print("\n$ noisytrain report --config", CONFIG)
    main(["report", "--config", CONFIG])

    print("\n$ noisytrain ablate --config", CONFIG, "--out", os.path.join(OUT, "ablation"))
    main(["ablate", "--config", CONFIG, "--out", os.path.join(OUT, "ablation")])

    print("\nproduced files:")
    for root, _dirs, files in sorted(os.walk(OUT)):
        for name in sorted(files):
            path = os.path.join(root, name)
            print(f"  {path}  ({os.path.getsize(path)} bytes)")

    with open(os.path.join(OUT, "experiment", "summary.json")) as f:
        print("\nrun summary:", json.dumps(json.load(f)))
