"""Hostile input files: every reader exits 1 or 2 with one error line, never a traceback.

A table feeds bytes that are not UTF-8 and JSON nested too deeply to
parse to each reader in each role; Hypothesis properties mutate the
bytes of valid model files, lineage CSVs, run configs and data-source
documents at random, and the parsed values of run configs and data-source
documents, so that most mutated documents reach the checkers. Mutated model
files also load to the same bits or the same error whether the numpy decoder
of masks and binary16 codes reads them or json alone does.
"""

import contextlib
import io
import json
import math
import time
import warnings
from dataclasses import is_dataclass
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from evosynth import dataio
from evosynth.cli import RunConfig, _SOURCES, _dataset_source, load_run_config, run
from evosynth.dataio import LINEAGE_HEADER, load_model_and_meta, read_json, save_model
from evosynth.errors import ConfigError, EvoSynthError
from evosynth.halfprec import quantize_network
from evosynth.netcore import LayerSpec, init_network

from helpers import respell

NOT_UTF8 = b"\xff\xfe{}"  # a UTF-16 byte-order mark
DEEP_JSON = b"[" * 5000 + b"]" * 5000

SOURCE = {"type": "synthetic", "n_per_class": 20, "n_features": 4, "separation": 3.0, "seed": 1}
LINEAGE = (f"{LINEAGE_HEADER}\n"
           "1,1,18,18,23,0.5,0.9,0.9,0.9,7\n"
           "2,0.84,9,18,14,0.45,0.875,0.85,0.862,9\n")
CONFIG = {
    "layers": [{"in_dim": 4, "out_dim": 3, "activation": "relu"},
               {"in_dim": 3, "out_dim": 2, "activation": "sigmoid"}],
    "dataset": SOURCE,
    "evolution": {"generations": 3, "retention_per_generation": 0.84, "stop_on_metric_drop": 0.1,
                  "master_seed": 7, "train": {"learning_rate": 0.05, "momentum": 0.9,
                                              "batch_size": 8, "max_epochs": 5, "patience": 2,
                                              "validation_fraction": 0.2}},
    "out_dir": "run",
}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A 4-3-2 model in both variants, a data-source document and a lineage CSV."""
    root = tmp_path_factory.mktemp("hostile")
    net = init_network([LayerSpec(4, 3), LayerSpec(3, 2)], seed=7)
    net.layers[0].mask[1, 2] = 0
    net.layers[0].weights[1, 2] = 0.0
    save_model(net, str(root / "full.json"), seed=3, alpha_history=[1.0])
    save_model(quantize_network(net), str(root / "half.json"), seed=3, alpha_history=[1.0])
    (root / "source.json").write_text(json.dumps(SOURCE))
    (root / "lineage.csv").write_text(LINEAGE)
    return root


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


def _assert_clean_exit(argv, codes):
    code, out, err = _run(argv)
    assert code in codes, (argv, code, err)
    if code == 0:
        assert err == ""
    else:
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1, err
    return err


# file suffix, argv around the hostile file f (d holds the valid inputs), exit code
ROLES = [
    pytest.param(".json", lambda f, d: ["inspect", "--model", f], 2, id="model-inspect"),
    pytest.param(".json", lambda f, d: ["metrics", "--model", f, "--data", str(d / "source.json")],
                 2, id="model-metrics"),
    pytest.param(".json", lambda f, d: ["quantize", "--model", f, "--out", str(d / "quantized.json")],
                 2, id="model-quantize"),
    pytest.param(".json", lambda f, d: ["evolve", "--config", f, "--out", str(d / "run")],
                 1, id="config"),
    pytest.param(".json", lambda f, d: ["metrics", "--model", str(d / "half.json"), "--data", f],
                 1, id="data-source"),
    pytest.param(".csv", lambda f, d: ["metrics", "--model", str(d / "half.json"), "--data", f,
                                       "--split", "full"], 2, id="dataset-csv"),
    pytest.param(".csv", lambda f, d: ["report", "--lineage", f, "--svg-out", str(d / "charts")],
                 2, id="lineage-csv"),
]


@pytest.mark.parametrize("content", [NOT_UTF8, DEEP_JSON], ids=["not-utf8", "nested-5000"])
@pytest.mark.parametrize("suffix, argv, code", ROLES)
def test_reader_rejects_hostile_bytes(inputs, tmp_path, suffix, argv, code, content):
    hostile = tmp_path / f"hostile{suffix}"
    hostile.write_bytes(content)
    _assert_clean_exit(argv(str(hostile), inputs), (code,))
    assert not (inputs / "run").exists()


# random byte mutations of valid files

CHUNKS = st.binary(min_size=1, max_size=4) | st.sampled_from(
    [b"0", b"9", b"-", b".", b"e", b'"', b",", b":", b"[", b"]", b"{", b"}", b"\n", b" ",
     b"null", b"true", b"NaN", b"1e999", b"\xff", b"\\u"])
MUTATIONS = st.lists(st.tuples(st.sampled_from(["replace", "insert", "delete"]),
                               st.integers(min_value=0, max_value=2**16), CHUNKS),
                     min_size=1, max_size=4)


def _mutate(data: bytes, mutations) -> bytes:
    """Apply (kind, position, chunk) edits; a delete removes len(chunk) bytes."""
    for kind, position, chunk in mutations:
        at = position % (len(data) + 1)
        keep = at if kind == "insert" else at + len(chunk)
        data = data[:at] + (b"" if kind == "delete" else chunk) + data[keep:]
    return data


@settings(derandomize=True, database=None, deadline=None, max_examples=120)
@given(base=st.sampled_from(["full.json", "half.json"]), mutations=MUTATIONS)
def test_mutated_model_never_escapes(inputs, base, mutations):
    model = inputs / "mutated.json"
    model.write_bytes(_mutate((inputs / base).read_bytes(), mutations))
    for argv in (["inspect", "--model", str(model)],
                 ["metrics", "--model", str(model), "--data", str(inputs / "source.json"),
                  "--split", "full"],
                 ["quantize", "--model", str(model), "--out", str(inputs / "quantized.json")]):
        _assert_clean_exit(argv, (0, 2))


# the numpy decoder of masks and binary16 codes against json alone


def _load_outcome(path: str):
    """What `load_model_and_meta` gives for `path`: the bits of every array
    and every meta value, or the error's class and message."""
    try:
        net, meta = load_model_and_meta(path)
    except EvoSynthError as exc:
        return type(exc), str(exc)
    layers = [(l.activation, l.weights.shape, l.mask.dtype, l.mask.tobytes(), l.weights.tobytes(),
               l.bias.tobytes()) for l in net.layers]
    return (layers, net.generation, net.precision_tag, meta.generation, meta.precision, meta.seed,
            np.array(meta.alpha_history).tobytes())


def _decoder_and_json_agree(path: str) -> None:
    with mock.patch.object(dataio, "_decoded_doc", lambda text: None):
        by_json = _load_outcome(path)
    assert _load_outcome(path) == by_json


@settings(derandomize=True, database=None, deadline=None, max_examples=120)
@given(base=st.sampled_from(["full.json", "half.json"]), mutations=MUTATIONS)
def test_mutated_model_decodes_as_json_reads_it(inputs, base, mutations):
    model = inputs / "mutated.json"
    model.write_bytes(_mutate((inputs / base).read_bytes(), mutations))
    _decoder_and_json_agree(str(model))


# a code set in the first (live) weight or the first bias of half.json, whose
# infinities load and whose 65535 is a NaN code, or a 1-1-1 network saved in
# a variant, whose lists all hold one entry
EDGE_CASES = [pytest.param((key, code), id=f"{key}-0x{code:04X}")
              for key in ("weights_f16", "bias_f16") for code in (0x7C00, 0xFC00, 65535)]
EDGE_CASES += [pytest.param(variant, id=f"1-entry-lists-{variant}") for variant in ("binary16", "binary32")]


@pytest.mark.parametrize("edit", EDGE_CASES)
def test_decoder_edge_values_match_json(inputs, tmp_path, edit):
    model = tmp_path / "edge.json"
    if isinstance(edit, tuple):
        doc = json.loads((inputs / "half.json").read_text())
        key, code = edit
        doc["layers"][0][key][0] = code
    else:
        net = init_network([LayerSpec(1, 1), LayerSpec(1, 1)], seed=4)
        save_model(quantize_network(net) if edit == "binary16" else net, str(model))
        doc = json.loads(model.read_text())
    text = json.dumps(doc, indent=1) + "\n"
    assert dataio._decoded_doc(text) is not None  # the decoder reads these lists
    model.write_text(text)
    _decoder_and_json_agree(str(model))


def test_unclosed_lists_are_read_in_linear_time(tmp_path):
    # each list's end is searched for only up to the next quote: a search to
    # the end of the text took about 15 s on these 560 KB
    model = tmp_path / "unclosed.json"
    model.write_text("{\n" + '"mask": [\n 1,\n' * 40_000 + "}")
    start = time.perf_counter()
    _assert_clean_exit(["inspect", "--model", str(model)], (2,))
    assert time.perf_counter() - start < 2.0


def _fromstring_1x(real, unread: list):
    """`np.fromstring` as numpy 1.24-1.26 behave, which pyproject.toml allows:
    on data it cannot read (each such string is put in `unread`), a
    `DeprecationWarning` attributed to the caller and the values read before
    it, where numpy 2 raises `ValueError`."""
    def fromstring(string, dtype, sep):
        try:
            return real(string, dtype=dtype, sep=sep)
        except ValueError:
            unread.append(string)
            warnings.warn("string or file could not be read to its end due to unmatched data",
                          DeprecationWarning, stacklevel=2)
        read = []
        for item in string.split(sep):
            try:
                read.append(int(item))
            except ValueError:
                break
        return np.array(read, dtype=dtype)
    return fromstring


@pytest.mark.parametrize("key", ["mask", "weights_f16"])
@pytest.mark.parametrize("spelling", ["1x", "1.0", "7 8"])
def test_decoder_under_numpy_1x(inputs, tmp_path, monkeypatch, key, spelling):
    # CI installs only the newest numpy, so the older behaviour is put in here
    model = tmp_path / "respelled.json"
    model.write_text(respell((inputs / "half.json").read_text(), key, spelling))
    numpy_2 = _load_outcome(str(model))
    unread = []
    monkeypatch.setattr(np, "fromstring", _fromstring_1x(np.fromstring, unread))
    with warnings.catch_warnings(record=True) as escaped:
        warnings.simplefilter("always")
        assert _load_outcome(str(model)) == numpy_2
    assert unread and escaped == []


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(mutations=MUTATIONS)
def test_mutated_lineage_never_escapes(inputs, mutations):
    lineage = inputs / "mutated.csv"
    lineage.write_bytes(_mutate(LINEAGE.encode(), mutations))
    _assert_clean_exit(["report", "--lineage", str(lineage), "--svg-out", str(inputs / "charts")],
                       (0, 2))


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(mutations=MUTATIONS)
def test_mutated_config_loads_or_is_config_error(inputs, mutations):
    # the loader alone: evolve would build whatever size a mutation asked for
    config = inputs / "mutated-config.json"
    config.write_bytes(_mutate(json.dumps(CONFIG, indent=1).encode(), mutations))
    try:
        loaded = load_run_config(str(config))
    except ConfigError:
        return
    assert isinstance(loaded, RunConfig)


DATA_SOURCES = [SOURCE, {"type": "csv", "path": "data.csv"},
                {"type": "idx", "images": "img.idx", "labels": "lab.idx", "limit": 100}]


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(base=st.sampled_from(DATA_SOURCES), mutations=MUTATIONS)
def test_mutated_data_source_loads_or_is_config_error(inputs, base, mutations):
    # the checker alone: build_dataset would allocate whatever size a mutation asked for
    path = inputs / "mutated-source.json"
    path.write_bytes(_mutate(json.dumps(base, indent=1).encode(), mutations))
    try:
        source = _dataset_source(read_json(str(path), ConfigError, ConfigError, "data source "),
                                 f"data source {path}")
    except ConfigError:
        return
    assert source["type"] in _SOURCES


# random value mutations of parsed documents: the bytes stay valid JSON, so
# every example reaches the checker

# written as the bare number literals they name; 1e999 parses as infinity
LITERALS = {"@1e999": "1e999", "@-1e999": "-1e999", "@NaN": "NaN"}
VALUES = st.one_of(
    st.sampled_from([None, True, False, "", "relu", "synthetic", [], {}, [1, 2], {"type": "csv"},
                     0, -1, 1, 2**63, 2**64, -(2**63), 10**400, 1e308, -1e308, 5e-324, -0.0,
                     *LITERALS]),
    st.integers(), st.floats(allow_nan=False, allow_infinity=False), st.text(max_size=4))
VALUE_MUTATIONS = st.lists(st.tuples(st.sampled_from(["replace", "drop", "add"]),
                                     st.integers(min_value=0, max_value=2**16), VALUES),
                           min_size=1, max_size=3)


def _slots(doc):
    """(container, key or index) of every value in ``doc``, depth first."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield doc, key
        yield from _slots(value)


def _mutate_values(doc, mutations) -> str:
    """``doc`` after (kind, position, value) edits, as JSON text: "replace"
    sets a slot to ``value``, "drop" removes a slot, "add" puts an unknown
    key into an object."""
    doc = json.loads(json.dumps(doc))
    for kind, position, value in mutations:
        slots = list(_slots(doc))
        if kind == "add":
            objects = [doc] + [c[k] for c, k in slots if isinstance(c[k], dict)]
            objects[position % len(objects)][f"unknown_{position}"] = value
        elif slots:
            container, key = slots[position % len(slots)]
            if kind == "drop":
                del container[key]
            else:
                container[key] = value
    text = json.dumps(doc)
    for marker, literal in LITERALS.items():
        text = text.replace(json.dumps(marker), literal)
    return text


# every number field of CONFIG
FLOAT_FIELDS = [("evolution", "retention_per_generation"), ("evolution", "stop_on_metric_drop"),
                ("evolution", "train", "learning_rate"), ("evolution", "train", "momentum"),
                ("evolution", "train", "validation_fraction"), ("dataset", "separation")]


@pytest.mark.parametrize("literal", ["@1e999", "@-1e999", 10**400], ids=["1e999", "-1e999", "10**400"])
@pytest.mark.parametrize("path", FLOAT_FIELDS, ids=[p[-1] for p in FLOAT_FIELDS])
def test_config_rejects_numbers_beyond_binary64(inputs, path, literal):
    # these used to load: an infinite learning rate then failed in training
    # with exit 3, and 10**400 with an OverflowError traceback
    doc = json.loads(json.dumps(CONFIG))
    container = doc
    for key in path[:-1]:
        container = container[key]
    container[path[-1]] = literal
    config = inputs / "infinite-config.json"
    config.write_text(_mutate_values(doc, []))
    with pytest.raises(ConfigError, match=f"{path[-1]} must be a finite number"):
        load_run_config(str(config))


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(mutations=VALUE_MUTATIONS)
def test_value_mutated_config_loads_or_is_config_error(inputs, mutations):
    config = inputs / "value-mutated-config.json"
    config.write_text(_mutate_values(CONFIG, mutations))
    try:
        loaded = load_run_config(str(config))
    except ConfigError:
        return
    assert isinstance(loaded, RunConfig)
    assert all(math.isfinite(v) for v in _floats(loaded))


def _floats(value):
    """Every float in a loaded config: its dataclasses, dicts and lists, recursively."""
    if is_dataclass(value):
        value = vars(value)
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        return [f for v in value for f in _floats(v)]
    return [value] if isinstance(value, float) else []


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(base=st.sampled_from(DATA_SOURCES), mutations=VALUE_MUTATIONS)
def test_value_mutated_data_source_loads_or_is_config_error(inputs, base, mutations):
    path = inputs / "value-mutated-source.json"
    path.write_text(_mutate_values(base, mutations))
    try:
        source = _dataset_source(read_json(str(path), ConfigError, ConfigError, "data source "),
                                 f"data source {path}")
    except ConfigError:
        return
    assert source["type"] in _SOURCES
    assert all(math.isfinite(v) for v in _floats(source))
