"""Black-box command-line tests: exit codes, files, printed JSON."""

import contextlib
import io
import json

import numpy as np
import pytest

from evosynth import cli, errors
from evosynth.cli import run
from evosynth.dataio import LINEAGE_HEADER, load_model, load_model_meta, save_model
from evosynth.evolution import derive_seed
from evosynth.netcore import DenseLayer, Network

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


def _set(*path_and_value):
    """Config mutation that sets doc[path...] = value."""
    *path, key, value = path_and_value

    def mutate(doc):
        for step in path:
            doc = doc[step]
        doc[key] = value
    return mutate


HOSTILE_CONFIGS = [
    ("batch_size", _set("evolution", "train", "batch_size", True)),
    ("separation", _set("dataset", "separation", "3")),
    ("precision", _set("evolution", "precision", 5)),
    ("train", _set("evolution", "train", [])),
    ("layers", _set("layers", [])),
    ("top_extra", _set("top_extra", 1)),
    ("evolution_extra", _set("evolution", "evolution_extra", 1)),
    ("train_extra", _set("evolution", "train", "train_extra", 1)),
    ("precision_extra", _set("evolution", "precision", {"precision_extra": 1})),
    ("layer_extra", _set("layers", 0, "layer_extra", 1)),
    ("dataset_extra", _set("dataset", "dataset_extra", 1)),
    # json.dumps writes these as the bare tokens NaN, Infinity and -Infinity
    ("NaN", _set("evolution", "stop_on_metric_drop", float("nan"))),
    ("Infinity", _set("evolution", "train", "learning_rate", float("inf"))),
    ("-Infinity", _set("dataset", "separation", float("-inf"))),
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


# quantize


def _full_model(tmp_path, values, name="full.json", seed=11, alpha_history=(1.0,)):
    w = np.asarray(values, dtype=np.float32)
    net = Network(layers=[DenseLayer(weights=w, mask=np.ones(w.shape, dtype=np.uint8),
                                     bias=np.zeros(w.shape[0], dtype=np.float32),
                                     activation="relu")],
                  generation=1, precision_tag="full")
    path = tmp_path / name
    save_model(net, str(path), seed=seed, alpha_history=list(alpha_history))
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


def test_quantize_nonfinite_input_is_numeric_failure(tmp_path, capsys):
    src = _full_model(tmp_path, [[float("inf"), 1.0]])
    assert run(["quantize", "--model", src, "--out", str(tmp_path / "q.json")]) == 3
    assert "non-finite" in capsys.readouterr().err


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


def test_metrics_validation_fraction_bounds(run_dir, tmp_path, capsys):
    source = _write_json(tmp_path / "source.json", DATASET_SOURCE)
    for bad in ("0", "1", "1.5"):
        assert run(["metrics", "--model", str(run_dir / "gen_1.json"),
                    "--data", source, "--validation-fraction", bad]) == 1
    capsys.readouterr()


def test_metrics_missing_model(tmp_path, capsys):
    source = _write_json(tmp_path / "source.json", DATASET_SOURCE)
    assert run(["metrics", "--model", "/nonexistent/m.json", "--data", source]) == 2
    capsys.readouterr()


# report


def test_report_ratios_and_charts(run_dir, tmp_path, capsys):
    svg_dir = tmp_path / "charts"
    assert run(["report", "--lineage", str(run_dir / "lineage.csv"),
                "--svg-out", str(svg_dir)]) == 0
    printed = json.loads(capsys.readouterr().out)
    summary = json.loads((run_dir / "run_summary.json").read_text())
    assert printed["synapse_reduction_ratio"] == pytest.approx(summary["synapse_reduction_ratio"])
    assert printed["macs_speedup_proxy"] == pytest.approx(summary["macs_speedup_proxy"])
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


def test_inspect_corrupt_model(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text("{\"format_version\": 9}")
    assert run(["inspect", "--model", str(path)]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("history", [5, None, ["x"], [True]], ids=["int", "null", "str", "bool"])
def test_inspect_rejects_bad_alpha_history(tmp_path, capsys, history):
    path = tmp_path / "full.json"
    _full_model(tmp_path, [[0.5, 1.0]])
    doc = json.loads(path.read_text())
    doc["alpha_history"] = history
    assert run(["inspect", "--model", _write_json(path, doc)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "alpha_history" in err


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
