"""The lineages that bench/digests.json pins: a workload's shape and a master
seed, evolved 13 generations on synth_gaussians(500, in_dim, 3.0, seed 0).
A digest is sha256 over the sorted (name, content sha256) pairs of the files."""

import contextlib
import hashlib
import io
import json
from pathlib import Path

from evosynth import cli

DIGESTS = json.loads((Path(__file__).resolve().parents[1] / "bench/digests.json").read_text("utf-8"))
SHAPES = {"lineage-small": (16, 64, 32, 2), "lineage-wide": (256, 128, 64, 2)}


def run_config(workload):
    """The run-config document of ``workload``'s lineages; the master seed is a flag."""
    widths = SHAPES[workload]
    layers = [{"in_dim": a, "out_dim": b, "activation": "relu"} for a, b in zip(widths, widths[1:])]
    dataset = {"type": "synthetic", "n_per_class": 500, "n_features": widths[0],
               "separation": 3.0, "seed": 0}
    return {"layers": layers, "dataset": dataset, "evolution": {"generations": 13}}


def evolve_pinned(root, workload, seed):
    """Run `evosynth evolve` in-process for one lineage under ``root``; its output directory."""
    cfg, out = root / "run.json", root / "out"
    cfg.write_text(json.dumps(run_config(workload)), encoding="utf-8")
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.run(["evolve", "--config", str(cfg), "--seed", str(seed), "--out", str(out)]) == 0
    return out


def dir_digest(path):
    h = hashlib.sha256()
    for f in sorted(p for p in path.iterdir() if p.is_file()):
        h.update(f.name.encode() + b"\0" + hashlib.sha256(f.read_bytes()).digest())
    return h.hexdigest()
