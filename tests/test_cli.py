"""Black-box command-line tests: exit codes, files, printed JSON."""

import contextlib
import io
import json
import struct

import numpy as np
import pytest

from evosynth import cli, errors
from evosynth.cli import run
from evosynth.dataio import (
    LINEAGE_HEADER,
    load_idx,
    load_model,
    load_model_meta,
    save_model,
    synth_gaussian_rows,
    synth_gaussians,
)
from evosynth.evolution import derive_seed, training_seed
from evosynth.netcore import DenseLayer, Network, TrainConfig, live_counts, validation_split

from helpers import put
from pinned_lineages import DIGESTS, dir_digest

DATASET_SOURCE = {"type": "synthetic", "n_per_class": 120, "n_features": 8,
                  "separation": 3.0, "seed": 5}


def _config_doc(out_dir=None, **evolution):
    evo = {"generations": 4, "master_seed": 1, "stop_on_metric_drop": None,
           "train": {"max_epochs": 8, "patience": 4}}
    evo.update(evolution)
    doc = {
        "layers": [{"in_dim": 8, "out_dim": 16, "activation": "relu"},
                   {"in_dim": 16, "out_dim": 2, "activation": "relu"}],
        "dataset": dict(DATASET_SOURCE),
        "evolution": evo,
    }
    if out_dir is not None:
        doc["out_dir"] = out_dir
    return doc


def _write_json(path, doc):
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    """One completed 4-generation run shared by the read-only commands."""
    root = tmp_path_factory.mktemp("cli_run")
    out = root / "out"
    cfg = _write_json(root / "run.json", _config_doc(out_dir=str(out)))
    with contextlib.redirect_stdout(io.StringIO()):
        assert run(["evolve", "--config", cfg]) == 0
    return out


# evolve


def test_evolve_writes_everything(run_dir):
    names = {p.name for p in run_dir.iterdir()}
    assert names == {"gen_1.json", "gen_2.json", "gen_3.json", "gen_4.json",
                     "lineage.csv", "run_summary.json"}
    summary = json.loads((run_dir / "run_summary.json").read_text())
    assert summary["stop_reason"] == "completed"
    assert summary["generations_requested"] == summary["generations_run"] == 4
    assert summary["master_seed"] == 1
    assert summary["synapse_reduction_ratio"] == pytest.approx(
        summary["active_synapses_first"] / summary["active_synapses_last"])
    assert summary["macs_speedup_proxy"] == pytest.approx(
        summary["macs_first"] / summary["macs_last"])
    # the last metrics are the last lineage.csv row at its 6 significant digits
    last = dict(zip(LINEAGE_HEADER.split(","),
                    (run_dir / "lineage.csv").read_text().splitlines()[-1].split(",")))
    for name in ("precision", "recall", "f1"):
        assert f"{summary[name + '_last']:.6g}" == last[name]
    keys = list(summary)
    assert keys == sorted(keys)


def test_evolve_prints_one_line(tmp_path, capsys):
    cfg = _write_json(tmp_path / "run.json",
                      _config_doc(out_dir=str(tmp_path / "out"), generations=2))
    assert run(["evolve", "--config", cfg]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 1
    assert out[0] == f"2 generation(s) written to {tmp_path / 'out'} (completed)"


def test_evolve_is_reproducible(run_dir, tmp_path, capsys):
    cfg = _write_json(tmp_path / "run.json", _config_doc(out_dir=str(tmp_path / "out")))
    assert run(["evolve", "--config", cfg]) == 0
    capsys.readouterr()
    for name in ("lineage.csv", "gen_4.json", "run_summary.json"):
        assert (tmp_path / "out" / name).read_bytes() == (run_dir / name).read_bytes()


@pytest.mark.parametrize("workload, seed", [(w, int(s)) for w in DIGESTS for s in DIGESTS[w]])
def test_evolve_bytes_are_pinned(pinned_run, workload, seed):
    assert dir_digest(pinned_run(workload, seed).out) == DIGESTS[workload][str(seed)]


def test_evolve_seed_flag_overrides(run_dir, tmp_path, capsys):
    cfg = _write_json(tmp_path / "run.json", _config_doc(out_dir=str(tmp_path / "out")))
    assert run(["evolve", "--config", cfg, "--seed", "3"]) == 0
    capsys.readouterr()
    assert (tmp_path / "out" / "lineage.csv").read_bytes() != (run_dir / "lineage.csv").read_bytes()
    assert json.loads((tmp_path / "out" / "run_summary.json").read_text())["master_seed"] == 3


def test_evolve_out_flag_overrides(tmp_path, capsys):
    cfg = _write_json(tmp_path / "run.json",
                      _config_doc(out_dir=str(tmp_path / "ignored"), generations=1))
    assert run(["evolve", "--config", cfg, "--out", str(tmp_path / "chosen")]) == 0
    capsys.readouterr()
    assert (tmp_path / "chosen" / "gen_1.json").exists()
    assert not (tmp_path / "ignored").exists()


def test_evolve_requires_out_dir(tmp_path, capsys):
    cfg = _write_json(tmp_path / "run.json", _config_doc(generations=1))
    assert run(["evolve", "--config", cfg]) == 1
    assert "out" in capsys.readouterr().err


def test_evolve_rejects_unknown_config_key(tmp_path, capsys):
    doc = _config_doc(out_dir=str(tmp_path / "out"))
    doc["evolution"]["mutation_rate"] = 0.5
    cfg = _write_json(tmp_path / "run.json", doc)
    assert run(["evolve", "--config", cfg]) == 1
    assert "mutation_rate" in capsys.readouterr().err


def test_evolve_rejects_train_seed_key(tmp_path, capsys):
    # per-run training seeds are derived internally, never configured
    doc = _config_doc(out_dir=str(tmp_path / "out"))
    doc["evolution"]["train"]["seed"] = 7
    cfg = _write_json(tmp_path / "run.json", doc)
    assert run(["evolve", "--config", cfg]) == 1
    assert "seed" in capsys.readouterr().err


def test_evolve_rejects_mismatched_layer_chain(tmp_path, capsys):
    doc = _config_doc(out_dir=str(tmp_path / "out"))
    doc["layers"][1]["in_dim"] = 12
    cfg = _write_json(tmp_path / "run.json", doc)
    assert run(["evolve", "--config", cfg]) == 1
    assert "in_dim" in capsys.readouterr().err


def test_evolve_missing_config_file(capsys):
    assert run(["evolve", "--config", "/nonexistent/run.json"]) == 1
    assert "cannot read" in capsys.readouterr().err


def test_evolve_missing_csv_dataset(tmp_path, capsys):
    doc = _config_doc(out_dir=str(tmp_path / "out"))
    doc["dataset"] = {"type": "csv", "path": str(tmp_path / "absent.csv")}
    cfg = _write_json(tmp_path / "run.json", doc)
    assert run(["evolve", "--config", cfg]) == 2
    assert "absent.csv" in capsys.readouterr().err


HOSTILE_CONFIGS = [
    ("batch_size", put("evolution", "train", "batch_size", True)),
    ("separation", put("dataset", "separation", "3")),
    # evolve always inherits weights and saturates: both former settings are unknown keys
    ("precision", put("evolution", "precision", {"overflow": "saturate"})),
    ("inherit_weights", put("evolution", "inherit_weights", True)),
    ("train", put("evolution", "train", [])),
    ("layers", put("layers", [])),
    ("top_extra", put("top_extra", 1)),
    ("evolution_extra", put("evolution", "evolution_extra", 1)),
    ("train_extra", put("evolution", "train", "train_extra", 1)),
    ("layer_extra", put("layers", 0, "layer_extra", 1)),
    ("dataset_extra", put("dataset", "dataset_extra", 1)),
    # json.dumps writes these as the bare tokens NaN, Infinity and -Infinity
    ("NaN", put("evolution", "stop_on_metric_drop", float("nan"))),
    ("Infinity", put("evolution", "train", "learning_rate", float("inf"))),
    ("-Infinity", put("dataset", "separation", float("-inf"))),
    # the stream would reduce these modulo 2**64, to another seed's dataset
    (str(2**64), put("dataset", "seed", 2**64)),
    ("-1", put("dataset", "seed", -1)),
]


@pytest.mark.parametrize("key, mutate", HOSTILE_CONFIGS, ids=[k for k, _ in HOSTILE_CONFIGS])
def test_evolve_rejects_hostile_config(tmp_path, capsys, key, mutate):
    doc = _config_doc(out_dir=str(tmp_path / "out"))
    mutate(doc)
    cfg = _write_json(tmp_path / "run.json", doc)
    assert run(["evolve", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert key in err
    assert not (tmp_path / "out").exists()


# the README's 16-64-32-2 run configuration
README_CONFIG = {
    "layers": [{"in_dim": 16, "out_dim": 64, "activation": "relu"},
               {"in_dim": 64, "out_dim": 32, "activation": "relu"},
               {"in_dim": 32, "out_dim": 2, "activation": "relu"}],
    "dataset": {"type": "synthetic", "n_per_class": 500, "n_features": 16,
                "separation": 3.0, "seed": 0},
    "evolution": {"generations": 13, "retention_per_generation": 0.84, "master_seed": 1,
                  "train": {"learning_rate": 0.05, "momentum": 0.9, "batch_size": 32,
                            "max_epochs": 200, "patience": 10, "validation_fraction": 0.2}},
}


def test_evolve_divergence_is_one_error_line(tmp_path, capsys):
    # float64 overflow in training would print numpy warnings (errors in this suite)
    doc = json.loads(json.dumps(README_CONFIG))
    doc["evolution"]["train"]["learning_rate"] = 1e20
    cfg = _write_json(tmp_path / "run.json", dict(doc, out_dir=str(tmp_path / "out")))
    assert run(["evolve", "--config", cfg]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: non-finite training loss at epoch 1\n"


def _evolve_argv(tmp_path, *flags):
    cfg = _write_json(tmp_path / "run.json", _config_doc(out_dir=str(tmp_path / "out")))
    return ["evolve", "--config", cfg, *flags]


def _under_a_file(tmp_path):
    (tmp_path / "file").write_text("")
    return str(tmp_path / "file" / "sub")


def _a_directory(tmp_path):
    (tmp_path / "dir").mkdir()
    return str(tmp_path / "dir")


# argv built in tmp_path, exit code, message
ARGUMENT_ERRORS = [
    pytest.param(lambda d: _evolve_argv(d, "--seed", "-1"), 1,
                 "master_seed must be a 64-bit unsigned integer", id="evolve-negative-seed"),
    pytest.param(lambda d: _evolve_argv(d, "--out", _under_a_file(d)), 2,
                 "cannot create directory", id="evolve-out-under-a-file"),
    pytest.param(lambda d: ["quantize", "--model", _full_model(d, [[0.5, 1.0]]),
                            "--out", _a_directory(d)], 2,
                 "cannot write", id="quantize-out-is-a-directory"),
]


@pytest.mark.parametrize("argv, code, message", ARGUMENT_ERRORS)
def test_command_argument_errors(tmp_path, capsys, argv, code, message):
    assert run(argv(tmp_path)) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert message in captured.err
    assert not (tmp_path / "out").exists()


def _idx_source(tmp_path, limit):
    images, labels = tmp_path / "img.idx", tmp_path / "lab.idx"
    images.write_bytes(struct.pack(">IIII", 0x00000803, 3, 2, 2) + bytes(range(12)))
    labels.write_bytes(struct.pack(">II", 0x00000801, 3) + bytes([0, 1, 0]))
    return {"type": "idx", "images": str(images), "labels": str(labels), "limit": limit}


# source -> the dataset its loader, called directly, returns
ACCEPTED_SOURCES = [
    ("idx-null-limit", lambda d: _idx_source(d, None),
     lambda d: load_idx(str(d / "img.idx"), str(d / "lab.idx"))),
    ("integer-separation", lambda d: dict(DATASET_SOURCE, separation=3),
     lambda d: synth_gaussians(120, 8, 3.0, 5)),
]


@pytest.mark.parametrize("source, expected", [(s, e) for _, s, e in ACCEPTED_SOURCES],
                         ids=[name for name, _, _ in ACCEPTED_SOURCES])
def test_config_accepts_dataset_source(tmp_path, source, expected):
    doc = _config_doc()
    doc["dataset"] = source(tmp_path)
    run_cfg = cli.load_run_config(_write_json(tmp_path / "run.json", doc))
    got, want = cli.build_dataset(run_cfg.dataset_source), expected(tmp_path)
    assert got.features.tobytes() == want.features.tobytes()
    assert got.labels.tobytes() == want.labels.tobytes()


def test_evolve_one_class_csv_is_data_error(tmp_path, capsys):
    csv = tmp_path / "one.csv"
    csv.write_text("f0,f1,f2,f3,f4,f5,f6,f7,label\n" + "1,0,0,0,0,0,0,0,0\n" * 60)
    doc = _config_doc(out_dir=str(tmp_path / "out"))
    doc["dataset"] = {"type": "csv", "path": str(csv)}
    cfg = _write_json(tmp_path / "run.json", doc)
    assert run(["evolve", "--config", cfg]) == 2
    assert "2 represented classes" in capsys.readouterr().err


# exit codes


EXIT_CODES = {
    errors.ConfigError: 1, errors.InvalidParam: 1, errors.InvalidSpec: 1,
    errors.BadMagic: 2, errors.CountMismatch: 2, errors.DatasetTooSmall: 2,
    errors.DeadLayer: 2, errors.EmptyDataset: 2, errors.FormatVersionUnsupported: 2,
    errors.IntegrityError: 2, errors.InvalidLabel: 2, errors.IoError: 2,
    errors.NonFiniteFeature: 2, errors.ParseError: 2, errors.ShapeMismatch: 2,
    errors.TruncatedFile: 2,
    errors.NumericFailure: 3,
}


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_exit_code_table_covers_every_error():
    bases = {errors.UsageError, errors.DataError}
    assert set(_subclasses(errors.EvoSynthError)) - bases == set(EXIT_CODES)


@pytest.mark.parametrize("error, code", EXIT_CODES.items(), ids=[e.__name__ for e in EXIT_CODES])
def test_error_exit_code(monkeypatch, capsys, error, code):
    bases = (errors.UsageError, errors.DataError, errors.NumericFailure)
    assert sum(issubclass(error, base) for base in bases) == 1

    def fail(args):
        raise error("boom")

    monkeypatch.setattr(cli, "cmd_inspect", fail)
    assert run(["inspect", "--model", "m.json"]) == code
    assert capsys.readouterr().err == "error: boom\n"


# usage errors


def test_usage_errors_exit_one(capsys):
    assert run([]) == 1
    assert run(["evolve"]) == 1  # --config is required
    assert run(["evolve", "--config", "x.json", "--seed", "not-a-number"]) == 1
    assert run(["no-such-command"]) == 1
    capsys.readouterr()


def _parse(*argv):
    return cli.build_parser().parse_args(argv)


def test_shared_parser_keeps_no_state_between_calls():
    _parse("metrics", "--model", "m.json", "--data", "d.csv", "--split", "full",
           "--validation-fraction", "0.3")
    _parse("quantize", "--model", "m.json", "--out", "h.json", "--overflow", "inf")
    _parse("evolve", "--config", "run.json", "--seed", "7")
    metrics = _parse("metrics", "--model", "m.json", "--data", "d.csv")
    assert metrics.split == "val"
    assert metrics.validation_fraction == TrainConfig().validation_fraction
    assert _parse("quantize", "--model", "m.json", "--out", "h.json").overflow == "saturate"
    assert _parse("evolve", "--config", "run.json").seed is None


def test_run_builds_the_parser_once(run_dir, monkeypatch, capsys):
    model = str(run_dir / "gen_1.json")
    assert run(["inspect", "--model", model]) == 0
    built = []
    real_init = cli._Parser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counting_init)
    assert run(["inspect", "--model", model]) == 0
    assert built == []
    capsys.readouterr()


@pytest.mark.parametrize("argv, usage", [
    (["--help"], "usage: evosynth [-h]"), (["evolve", "--help"], "usage: evosynth evolve [-h]"),
], ids=["top", "evolve"])
def test_run_returns_0_for_help(argv, usage, capsys):
    assert run(argv) == 0
    out, err = capsys.readouterr()
    assert out.startswith(usage)
    assert err == ""


# quantize


def _full_model(tmp_path, values):
    w = np.asarray(values, dtype=np.float32)
    net = Network(layers=[DenseLayer(weights=w, mask=np.ones(w.shape, dtype=np.uint8),
                                     bias=np.zeros(w.shape[0], dtype=np.float32),
                                     activation="relu")],
                  generation=1, precision_tag="full")
    path = tmp_path / "full.json"
    save_model(net, str(path), seed=11, alpha_history=[1.0])
    return str(path)


def test_quantize_reports_errors_and_preserves_meta(tmp_path, capsys):
    src = _full_model(tmp_path, [[0.1, -0.3], [0.5, 1.0]])
    out = str(tmp_path / "half.json")
    assert run(["quantize", "--model", src, "--out", out]) == 0
    report = json.loads(capsys.readouterr().out)
    # 0.1 carries the largest relative rounding error of these values
    assert report["max_rel_error"] == pytest.approx(2**-12, rel=1e-4)
    assert 0 < report["max_abs_error"] < 1e-4
    stored = load_model(out)
    assert stored.precision_tag == "half"
    assert stored.layers[0].weights[0, 1] == pytest.approx(-0.3, abs=1e-3)
    meta = load_model_meta(out)
    assert meta.precision == "binary16"
    assert (meta.seed, meta.alpha_history) == (11, [1.0])


@pytest.mark.parametrize("mask, values", [(0, [[0.1, -0.3]]), (1, [[0.0, 0.0]])],
                         ids=["no-active-weight", "only-zero-weights"])
def test_quantize_reports_zero_error_without_nonzero_active_weights(tmp_path, capsys, mask, values):
    net = Network([DenseLayer(np.where(mask, np.float32(values), 0).astype(np.float32),
                              np.full((1, 2), mask, dtype=np.uint8), np.zeros(1, np.float32))])
    src = str(tmp_path / "full.json")
    save_model(net, src)
    assert run(["quantize", "--model", src, "--out", str(tmp_path / "half.json")]) == 0
    assert json.loads(capsys.readouterr().out) == {"max_abs_error": 0.0, "max_rel_error": 0.0}


def test_quantize_overflow_policies(tmp_path, capsys):
    src = _full_model(tmp_path, [[70000.0, 1.0]])
    sat = str(tmp_path / "sat.json")
    assert run(["quantize", "--model", src, "--out", sat]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["max_abs_error"] == pytest.approx(70000.0 - 65504.0)
    assert load_model(sat).layers[0].weights[0, 0] == 65504.0

    inf_out = str(tmp_path / "inf.json")
    assert run(["quantize", "--model", src, "--out", inf_out, "--overflow", "inf"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["max_abs_error"] == float("inf")
    assert np.isinf(load_model(inf_out).layers[0].weights[0, 0])


def test_quantize_rejects_half_input(tmp_path, capsys):
    src = _full_model(tmp_path, [[0.5, 1.0]])
    mid = str(tmp_path / "half.json")
    assert run(["quantize", "--model", src, "--out", mid]) == 0
    capsys.readouterr()
    assert run(["quantize", "--model", mid, "--out", str(tmp_path / "again.json")]) == 2
    assert "binary32" in capsys.readouterr().err


def test_quantize_missing_model(capsys):
    assert run(["quantize", "--model", "/nonexistent/m.json",
                "--out", "/tmp/never.json"]) == 2
    capsys.readouterr()


# metrics


def test_metrics_val_split_matches_lineage(run_dir, tmp_path, capsys):
    source = _write_json(tmp_path / "source.json", DATASET_SOURCE)
    assert run(["metrics", "--model", str(run_dir / "gen_3.json"),
                "--data", source]) == 0
    result = json.loads(capsys.readouterr().out)
    raw = (run_dir / "lineage.csv").read_text().splitlines()
    names = LINEAGE_HEADER.split(",")
    row = dict(zip(names, raw[3].split(",")))  # generation 3
    assert f"{result['macro_precision']:.6g}" == row["precision"]
    assert f"{result['macro_recall']:.6g}" == row["recall"]
    assert f"{result['macro_f1']:.6g}" == row["f1"]
    assert result["active_synapses"] == int(row["active_synapses"])
    assert result["macs"] == int(row["macs"])


def test_metrics_full_split(run_dir, tmp_path, capsys):
    source = _write_json(tmp_path / "source.json", DATASET_SOURCE)
    assert run(["metrics", "--model", str(run_dir / "gen_1.json"),
                "--data", source, "--split", "full"]) == 0
    result = json.loads(capsys.readouterr().out)
    assert 0.0 <= result["accuracy"] <= 1.0
    assert len(result["confusion"]) == 2


def test_metrics_accepts_csv(run_dir, tmp_path, capsys):
    rows = ["f0,f1,f2,f3,f4,f5,f6,f7,label"]
    rows += [f"{'-2' if k == 0 else '2'},0,0,0,0,0,0,0,{k}" for k in (0, 1, 0, 1)]
    csv = tmp_path / "tiny.csv"
    csv.write_text("\n".join(rows) + "\n")
    assert run(["metrics", "--model", str(run_dir / "gen_1.json"),
                "--data", str(csv), "--split", "full"]) == 0
    result = json.loads(capsys.readouterr().out)
    assert result["accuracy"] == 1.0


def test_metrics_csv_label_beyond_int64_is_one_error_line(run_dir, tmp_path, capsys):
    csv = tmp_path / "big.csv"
    csv.write_text(f"f0,f1,f2,f3,f4,f5,f6,f7,label\n0,0,0,0,0,0,0,0,0\n0,0,0,0,0,0,0,0,{10**29}\n")
    assert run(["metrics", "--model", str(run_dir / "gen_1.json"),
                "--data", str(csv), "--split", "full"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: {csv} line 3: label must be non-negative and fit int64, "
                            f"got {10**29}\n")


def _exact_csv(path, dataset):
    """`dataset` as a CSV whose decimals parse back to its float32 values exactly."""
    n_features = dataset.features.shape[1]
    rows = [",".join([f"f{j}" for j in range(n_features)] + ["label"])]
    rows += [",".join([repr(float(v)) for v in features] + [str(label)])
             for features, label in zip(dataset.features, dataset.labels)]
    path.write_text("\n".join(rows) + "\n")
    return str(path)


@pytest.mark.parametrize("fraction", ["0.2", "0.35"])
@pytest.mark.parametrize("split", ["val", "full"])
def test_metrics_synthetic_source_prints_what_its_csv_prints(run_dir, tmp_path, capsys,
                                                             monkeypatch, split, fraction):
    # a synthetic source with --split val synthesizes only the validation rows;
    # the CSV of the same values is loaded whole and then indexed
    synthesized = []

    def rows_spy(*args, rows, **kwargs):
        synthesized.append(len(rows))
        return synth_gaussian_rows(*args, rows=rows, **kwargs)

    monkeypatch.setattr(cli, "synth_gaussian_rows", rows_spy)
    csv = _exact_csv(tmp_path / "same.csv", synth_gaussians(120, 8, 3.0, 5))
    source = _write_json(tmp_path / "source.json", DATASET_SOURCE)
    printed = []
    for data in (source, csv):
        assert run(["metrics", "--model", str(run_dir / "gen_4.json"), "--data", data,
                    "--split", split, "--validation-fraction", fraction]) == 0
        printed.append(capsys.readouterr().out)
    assert printed[0] == printed[1]
    assert synthesized == ([int(240 * float(fraction))] if split == "val" else [])


def test_metrics_val_split_checks_every_csv_row(run_dir, tmp_path, capsys):
    dataset = synth_gaussians(120, 8, 3.0, 5)
    val = set(validation_split(240, 0.2, training_seed(load_model_meta(
        str(run_dir / "gen_1.json")).seed))[1].tolist())
    outside = min(set(range(240)) - val)
    dataset.features[outside, 3] = np.inf
    csv = _exact_csv(tmp_path / "bad.csv", dataset)
    assert run(["metrics", "--model", str(run_dir / "gen_1.json"), "--data", csv]) == 2
    assert f"row {outside + 2}: non-finite feature value" in capsys.readouterr().err


def test_metrics_validation_fraction_bounds(run_dir, tmp_path, capsys):
    source = _write_json(tmp_path / "source.json", DATASET_SOURCE)
    for bad in ("0", "1", "1.5"):
        assert run(["metrics", "--model", str(run_dir / "gen_1.json"),
                    "--data", source, "--validation-fraction", bad]) == 1
    capsys.readouterr()


def test_metrics_validation_fraction_default_is_the_training_default():
    # the split metrics derives by default is the one evolve trained on
    args = cli.build_parser().parse_args(["metrics", "--model", "m.json", "--data", "d.csv"])
    assert args.validation_fraction == TrainConfig().validation_fraction


def test_metrics_sigmoid_overflow_stays_quiet(tmp_path, capsys):
    # 60000 * features drives the sigmoid input far below -709, where exp overflows
    hidden = DenseLayer(weights=np.full((4, 8), 60000.0, dtype=np.float32),
                        mask=np.ones((4, 8), dtype=np.uint8), bias=np.zeros(4, dtype=np.float32),
                        activation="sigmoid")
    out = DenseLayer(weights=np.ones((2, 4), dtype=np.float32), mask=np.ones((2, 4), dtype=np.uint8),
                     bias=np.zeros(2, dtype=np.float32), activation="relu")
    model = tmp_path / "half.json"
    save_model(Network(layers=[hidden, out], generation=1, precision_tag="half"), str(model))
    source = _write_json(tmp_path / "source.json", DATASET_SOURCE)
    assert run(["metrics", "--model", str(model), "--data", source, "--split", "full"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert "accuracy" in json.loads(captured.out)


def test_metrics_missing_model(tmp_path, capsys):
    source = _write_json(tmp_path / "source.json", DATASET_SOURCE)
    assert run(["metrics", "--model", "/nonexistent/m.json", "--data", source]) == 2
    capsys.readouterr()


# 10**17 rows of 8 features are more values than numpy can size an array for; of 1
# feature, 1.4 EiB, which no allocator grants. Neither commits any memory.
@pytest.mark.parametrize("n_features, message", [(8, "n_per_class"), (1, "out of memory")])
# `metrics` is --split full; with --split val the parameters are checked before
# the split of 2 * 10**17 rows is drawn, which fails as fast
@pytest.mark.parametrize("command", ["evolve", "metrics", "metrics-val"])
def test_oversized_dataset_is_config_error(tmp_path, capsys, command, n_features, message):
    source = dict(DATASET_SOURCE, n_per_class=10**17, n_features=n_features)
    _assert_bad_source_is_config_error(tmp_path, capsys, command, source, message)


def _assert_bad_source_is_config_error(tmp_path, capsys, command, source, message):
    out = tmp_path / "out"
    if command == "evolve":
        doc = _config_doc()
        doc["dataset"] = source
        argv = ["evolve", "--config", _write_json(tmp_path / "run.json", doc), "--out", str(out)]
    else:
        argv = ["metrics", "--model", _full_model(tmp_path, np.full((2, 8), 0.5)),
                "--data", _write_json(tmp_path / "source.json", source),
                "--split", "val" if command == "metrics-val" else "full"]
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err
    assert not out.exists()


# a class centre beyond binary32 would cast to infinite features: rejected
# before evolve creates its output directory, as for any bad parameter
@pytest.mark.parametrize("command", ["evolve", "metrics", "metrics-val"])
def test_separation_beyond_binary32_is_config_error(tmp_path, capsys, command):
    source = dict(DATASET_SOURCE, separation=1e39)
    _assert_bad_source_is_config_error(tmp_path, capsys, command, source, "binary32")


# report


def test_report_ratios_and_charts(run_dir, tmp_path, capsys):
    svg_dir = tmp_path / "charts"
    assert run(["report", "--lineage", str(run_dir / "lineage.csv"),
                "--svg-out", str(svg_dir)]) == 0
    printed = json.loads(capsys.readouterr().out)
    summary = json.loads((run_dir / "run_summary.json").read_text())
    # one function of the first and last record computes both sets of ratios
    assert printed == {key: summary[key] for key in ("synapse_reduction_ratio", "macs_speedup_proxy")}
    for name in ("synapses_macs.svg", "precision_recall.svg"):
        text = (svg_dir / name).read_text()
        assert text.startswith('<svg xmlns="http://www.w3.org/2000/svg" width="800" height="500"')
        assert "<polyline" in text and "</svg>" in text


def test_report_is_byte_deterministic(run_dir, tmp_path, capsys):
    for name in ("a", "b"):
        assert run(["report", "--lineage", str(run_dir / "lineage.csv"),
                    "--svg-out", str(tmp_path / name)]) == 0
    capsys.readouterr()
    for fname in ("synapses_macs.svg", "precision_recall.svg"):
        assert (tmp_path / "a" / fname).read_bytes() == (tmp_path / "b" / fname).read_bytes()


def test_report_hand_ratio(tmp_path, capsys):
    lines = [LINEAGE_HEADER,
             "1,1,1000,1280,1200,0.5,0.9,0.9,0.9,7",
             "13,0.8,100,1280,120,0.4,0.88,0.87,0.875,9"]
    path = tmp_path / "lineage.csv"
    path.write_text("\n".join(lines) + "\n")
    assert run(["report", "--lineage", str(path), "--svg-out", str(tmp_path / "c")]) == 0
    printed = json.loads(capsys.readouterr().out)
    assert printed["synapse_reduction_ratio"] == 10.0
    assert printed["macs_speedup_proxy"] == 10.0


def test_report_single_row(tmp_path, capsys):
    lines = [LINEAGE_HEADER, "1,1,160,160,178,0.5,0.9,0.9,0.9,7"]
    path = tmp_path / "lineage.csv"
    path.write_text("\n".join(lines) + "\n")
    assert run(["report", "--lineage", str(path), "--svg-out", str(tmp_path / "c")]) == 0
    printed = json.loads(capsys.readouterr().out)
    assert printed["synapse_reduction_ratio"] == 1.0
    text = (tmp_path / "c" / "synapses_macs.svg").read_text()
    assert "<polyline" not in text  # single points draw markers only
    assert "<circle" in text


@pytest.mark.parametrize("column, last_row", [
    ("active_synapses", "2,1,0,10,0,0.5,0.9,0.9,0.9,8"),
    ("macs", "2,1,10,10,0,0.5,0.9,0.9,0.9,8"),
])
def test_report_zero_last_row_is_data_error(tmp_path, capsys, column, last_row):
    lines = [LINEAGE_HEADER, "1,1,10,10,12,0.5,0.9,0.9,0.9,7", last_row]
    path = tmp_path / "lineage.csv"
    path.write_text("\n".join(lines) + "\n")
    assert run(["report", "--lineage", str(path), "--svg-out", str(tmp_path / "c")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(path) in err and column in err


def test_report_non_finite_cell_is_data_error(tmp_path, capsys):
    lines = [LINEAGE_HEADER, "1,1,10,10,12,0.5,0.9,0.9,0.9,7", "2,1,5,10,7,nan,0.9,0.9,0.9,8"]
    path = tmp_path / "lineage.csv"
    path.write_text("\n".join(lines) + "\n")
    assert run(["report", "--lineage", str(path), "--svg-out", str(tmp_path / "c")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "line 3" in err and "train_loss" in err
    assert not (tmp_path / "c").exists()


def test_report_missing_lineage(tmp_path, capsys):
    assert run(["report", "--lineage", "/nonexistent/l.csv",
                "--svg-out", str(tmp_path)]) == 2
    capsys.readouterr()


# inspect


def test_inspect_fields(run_dir, capsys):
    assert run(["inspect", "--model", str(run_dir / "gen_2.json")]) == 0
    info = json.loads(capsys.readouterr().out)
    assert info["generation"] == 2
    assert info["precision"] == "binary16"
    assert info["layers"] == [{"in_dim": 8, "out_dim": 16, "activation": "relu"},
                              {"in_dim": 16, "out_dim": 2, "activation": "relu"}]
    assert info["total_synapses"] == 160
    assert 0 < info["active_synapses"] <= 160
    assert info["macs"] == info["active_synapses"] + 18
    assert info["seed"] == derive_seed(1, 2)
    assert len(info["alpha_history"]) == 2


def test_inspect_reports_live_counts(run_dir, capsys):
    assert run(["inspect", "--model", str(run_dir / "gen_4.json")]) == 0
    info = json.loads(capsys.readouterr().out)
    live = live_counts(load_model(str(run_dir / "gen_4.json")))
    assert (info["live_synapses"], info["live_macs"]) == live
    assert 0 < info["live_synapses"] <= info["active_synapses"]
    assert info["live_macs"] - info["live_synapses"] <= info["macs"] - info["active_synapses"]


def _set_half_code(path, key, code):
    """Set the first unmasked weight code, or the first bias code, of layer 0."""
    doc = json.loads(path.read_text())
    layer = doc["layers"][0]
    index = layer["mask"].index(1) if key == "weights_f16" else 0
    layer[key][index] = code
    path.write_text(json.dumps(doc))


@pytest.mark.parametrize("command, key, code", [("inspect", "weights_f16", 0x7C00),
                                                ("metrics", "bias_f16", 0xFC00)])
def test_read_commands_accept_half_infinity_codes(run_dir, tmp_path, capsys, command, key, code):
    # quantize --overflow inf writes these on purpose; a -inf bias keeps
    # metrics free of inf - inf
    path = tmp_path / "half.json"
    path.write_bytes((run_dir / "gen_2.json").read_bytes())
    _set_half_code(path, key, code)
    argv = {"inspect": [],
            "metrics": ["--data", _write_json(tmp_path / "source.json", DATASET_SOURCE)]}[command]
    assert run([command, "--model", str(path), *argv]) == 0
    capsys.readouterr()


def test_metrics_rejects_positive_infinity_output_bias(run_dir, tmp_path, capsys):
    # a +inf logit makes the softmax compute inf - inf; metrics must not
    # report numbers computed from NaN probabilities
    path = tmp_path / "half.json"
    doc = json.loads((run_dir / "gen_2.json").read_text())
    doc["layers"][-1]["bias_f16"][0] = 0x7C00
    argv = ["--data", _write_json(tmp_path / "source.json", DATASET_SOURCE)]
    assert run(["metrics", "--model", _write_json(path, doc), *argv]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: non-finite class probability\n"


# each read command parses its model file once


@pytest.mark.parametrize("command", ["inspect", "metrics", "quantize"])
def test_read_commands_parse_the_model_once(run_dir, tmp_path, monkeypatch, capsys, command):
    model = _full_model(tmp_path, [[0.5, 1.0]]) if command == "quantize" else str(run_dir / "gen_2.json")
    argv = {"inspect": [],
            "metrics": ["--data", _write_json(tmp_path / "source.json", DATASET_SOURCE)],
            "quantize": ["--out", str(tmp_path / "half.json")]}[command]
    parsed = []
    real_load = json.load

    def counting_load(fh, **kwargs):
        parsed.append(fh.name)
        return real_load(fh, **kwargs)

    monkeypatch.setattr(json, "load", counting_load)
    assert run([command, "--model", model, *argv]) == 0
    capsys.readouterr()
    assert parsed.count(model) == 1
