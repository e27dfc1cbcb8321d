"""Dataset loaders, model files and lineage reports."""

import hashlib
import json
import struct
import warnings
from dataclasses import replace

import numpy as np
import pytest

from evosynth import dataio
from evosynth.cli import run
from evosynth.dataio import (
    LINEAGE_HEADER,
    load_csv_dataset,
    load_idx,
    load_lineage_report,
    load_model,
    load_model_and_meta,
    load_model_meta,
    save_lineage_report,
    save_model,
    synth_gaussian_rows,
    synth_gaussians,
)
from evosynth.errors import (
    BadMagic,
    CountMismatch,
    EmptyDataset,
    FormatVersionUnsupported,
    IntegrityError,
    InvalidParam,
    IoError,
    NonFiniteFeature,
    NumericFailure,
    ParseError,
    TruncatedFile,
)
from evosynth.evolution import GenerationRecord
from evosynth.halfprec import TO_INFINITY, encode_array, quantize_network
from evosynth.netcore import (
    ACTIVATIONS,
    DenseLayer,
    LayerSpec,
    Network,
    init_network,
    validation_split,
)

from helpers import put


# CSV datasets


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_csv_happy_path(tmp_path):
    p = _write(tmp_path / "d.csv", "x0,x1,label\n1.5,-2.0,0\n0.25,3.0,2\n\n-1,0.5,1\n")
    ds = load_csv_dataset(p)
    assert ds.features.dtype == np.float32
    assert ds.labels.dtype == np.int64
    np.testing.assert_array_equal(ds.features, np.array([[1.5, -2.0], [0.25, 3.0], [-1.0, 0.5]], dtype=np.float32))
    np.testing.assert_array_equal(ds.labels, [0, 2, 1])
    assert len(ds) == 3


def test_csv_header_must_end_with_label(tmp_path):
    p = _write(tmp_path / "d.csv", "x0,x1,target\n1,2,0\n")
    with pytest.raises(ParseError, match="line 1"):
        load_csv_dataset(p)


def test_csv_single_column_header_rejected(tmp_path):
    p = _write(tmp_path / "d.csv", "label\n0\n")
    with pytest.raises(ParseError):
        load_csv_dataset(p)


def test_csv_wrong_column_count_names_line(tmp_path):
    p = _write(tmp_path / "d.csv", "x0,x1,label\n1,2,0\n1,0\n")
    with pytest.raises(ParseError, match="line 3"):
        load_csv_dataset(p)


def test_csv_bad_feature_names_line_and_column(tmp_path):
    p = _write(tmp_path / "d.csv", "x0,x1,label\n1,oops,0\n")
    with pytest.raises(ParseError, match="line 2.*'x1'"):
        load_csv_dataset(p)


def test_csv_label_must_be_integer(tmp_path):
    p = _write(tmp_path / "d.csv", "x0,label\n1,1.5\n")
    with pytest.raises(ParseError, match="label must be an integer"):
        load_csv_dataset(p)


def test_csv_label_must_be_non_negative(tmp_path):
    p = _write(tmp_path / "d.csv", "x0,label\n1,-1\n")
    with pytest.raises(ParseError, match="non-negative"):
        load_csv_dataset(p)


@pytest.mark.parametrize("label", [str(2**63), str(10**29)])
def test_csv_label_must_fit_int64(tmp_path, label):
    p = _write(tmp_path / "d.csv", f"x0,label\n1,{2**63 - 1}\n\n2,{label}\n")
    with pytest.raises(ParseError, match=f"line 4: label must be non-negative and fit int64, got {label}"):
        load_csv_dataset(p)


def test_csv_empty_file(tmp_path):
    p = _write(tmp_path / "d.csv", "")
    with pytest.raises(EmptyDataset):
        load_csv_dataset(p)


def test_csv_header_only(tmp_path):
    p = _write(tmp_path / "d.csv", "x0,label\n")
    with pytest.raises(EmptyDataset):
        load_csv_dataset(p)


def test_csv_missing_file():
    with pytest.raises(IoError):
        load_csv_dataset("/nonexistent/never.csv")


def test_csv_infinite_feature_rejected(tmp_path):
    # the file line of the row, blank lines counted
    for text, line in (("x0,label\n1.0,0\ninf,1\n", 3),
                       ("a,b,label\n1,2,0\n\n\n3,inf,1\n", 5)):
        p = _write(tmp_path / "d.csv", text)
        with pytest.raises(NonFiniteFeature, match=f"row {line}: non-finite feature value"):
            load_csv_dataset(p)


def test_csv_overflow_to_float32_rejected(tmp_path):
    # finite as float64, infinite after the float32 cast
    p = _write(tmp_path / "d.csv", "x0,label\n1e39,0\n1,1\n")
    with pytest.raises(NonFiniteFeature, match="row 2"):
        load_csv_dataset(p)


# IDX datasets


def _idx_pair(tmp_path, pixels, labels, n_rows=2, n_cols=2,
              img_magic=0x00000803, lab_magic=0x00000801, n_img=None, n_lab=None):
    n = len(labels)
    img = struct.pack(">IIII", img_magic, n if n_img is None else n_img, n_rows, n_cols)
    img += bytes(pixels)
    lab = struct.pack(">II", lab_magic, n if n_lab is None else n_lab) + bytes(labels)
    ip = tmp_path / "img.idx"
    lp = tmp_path / "lab.idx"
    ip.write_bytes(img)
    lp.write_bytes(lab)
    return str(ip), str(lp)


def test_idx_loads_and_scales(tmp_path):
    ip, lp = _idx_pair(tmp_path, [0, 255, 0, 255, 51, 51, 51, 51], [1, 0])
    ds = load_idx(ip, lp)
    assert ds.features.shape == (2, 4)
    assert ds.features.dtype == np.float32
    np.testing.assert_array_equal(ds.features[0], [0.0, 1.0, 0.0, 1.0])
    np.testing.assert_allclose(ds.features[1], np.float32(51) / np.float32(255))
    np.testing.assert_array_equal(ds.labels, [1, 0])
    assert ds.labels.dtype == np.int64


def test_idx_bad_image_magic(tmp_path):
    ip, lp = _idx_pair(tmp_path, [0] * 8, [0, 1], img_magic=0x00000802)
    with pytest.raises(BadMagic, match="0x00000802"):
        load_idx(ip, lp)


def test_idx_bad_label_magic(tmp_path):
    ip, lp = _idx_pair(tmp_path, [0] * 8, [0, 1], lab_magic=0x00000805)
    with pytest.raises(BadMagic):
        load_idx(ip, lp)


def test_idx_count_mismatch(tmp_path):
    ip, lp = _idx_pair(tmp_path, [0] * 12, [0, 1], n_img=3)
    with pytest.raises(CountMismatch):
        load_idx(ip, lp)


def test_idx_truncated_header(tmp_path):
    ip = tmp_path / "img.idx"
    ip.write_bytes(b"\x00\x00\x08")
    lp = tmp_path / "lab.idx"
    lp.write_bytes(struct.pack(">II", 0x00000801, 0))
    with pytest.raises(TruncatedFile):
        load_idx(str(ip), str(lp))


def test_idx_truncated_pixels(tmp_path):
    ip, lp = _idx_pair(tmp_path, [0] * 7, [0, 1])  # needs 8 pixel bytes
    with pytest.raises(TruncatedFile, match="pixel"):
        load_idx(ip, lp)


def test_idx_truncated_labels(tmp_path):
    ip, lp = _idx_pair(tmp_path, [0] * 8, [0], n_img=2, n_lab=2)
    with pytest.raises(TruncatedFile):
        load_idx(ip, lp)


def test_idx_limit(tmp_path):
    ip, lp = _idx_pair(tmp_path, list(range(12)), [2, 0, 1], n_rows=2, n_cols=2)
    ds = load_idx(ip, lp, limit=2)
    assert len(ds) == 2
    np.testing.assert_array_equal(ds.labels, [2, 0])
    # limit larger than the file is harmless
    assert len(load_idx(ip, lp, limit=100)) == 3


def test_idx_limit_must_be_positive(tmp_path):
    ip, lp = _idx_pair(tmp_path, [0] * 4, [0])
    with pytest.raises(InvalidParam):
        load_idx(ip, lp, limit=0)


def test_idx_empty(tmp_path):
    ip, lp = _idx_pair(tmp_path, [], [])
    with pytest.raises(EmptyDataset):
        load_idx(ip, lp)


def test_idx_missing_file(tmp_path):
    with pytest.raises(IoError):
        load_idx("/nonexistent/img.idx", "/nonexistent/lab.idx")


# synthetic gaussians


def test_gaussians_deterministic():
    a = synth_gaussians(50, 3, 2.0, seed=9)
    b = synth_gaussians(50, 3, 2.0, seed=9)
    assert a.features.tobytes() == b.features.tobytes()
    np.testing.assert_array_equal(a.labels, b.labels)
    assert synth_gaussians(50, 3, 2.0, seed=10).features.tobytes() != a.features.tobytes()


def test_gaussians_layout():
    ds = synth_gaussians(20, 4, 3.0, seed=1)
    assert ds.features.shape == (40, 4)
    assert ds.features.dtype == np.float32
    np.testing.assert_array_equal(ds.labels, [0] * 20 + [1] * 20)


def test_gaussians_statistics():
    n = 4000
    ds = synth_gaussians(n, 3, 5.0, seed=3)
    f = ds.features.astype(np.float64)
    # class means at -+separation/2 on feature 0, zero elsewhere; unit variance
    assert abs(f[:n, 0].mean() + 2.5) < 0.1
    assert abs(f[n:, 0].mean() - 2.5) < 0.1
    assert abs(f[:, 1].mean()) < 0.1
    assert abs(f[:n, 0].std() - 1.0) < 0.1
    assert abs(f[:, 2].std() - 1.0) < 0.1


def test_gaussians_separation_is_usable():
    ds = synth_gaussians(500, 2, 4.0, seed=11)
    # sign of feature 0 should classify nearly everything at this separation
    predicted = (ds.features[:, 0] > 0).astype(np.int64)
    assert (predicted == ds.labels).mean() > 0.95


@pytest.mark.parametrize("kwargs", [
    dict(n_per_class=0, n_features=2, separation=1.0),
    dict(n_per_class=10, n_features=0, separation=1.0),
    dict(n_per_class=10, n_features=2, separation=0.0),
    dict(n_per_class=10, n_features=2, separation=-2.0),
    # the stream reduces a seed modulo 2**64: both would build seed 0's dataset
    dict(n_per_class=5, n_features=3, separation=3.0, seed=2**64),
    dict(n_per_class=5, n_features=3, separation=3.0, seed=-2**64),
])
def test_gaussians_rejects_bad_params(kwargs):
    with pytest.raises(InvalidParam):
        synth_gaussians(**{"seed": 0, **kwargs})


# sha256 of synth_gaussians(...).features.tobytes(): the acceptance and
# lineage-wide training sets (seed 0) and the bench's held-out sets (seed 2**32)
SYNTH_DIGESTS = [
    ((500, 16, 3.0, 0), "ff52061086e2f45f1adabc52f200869bd1d557c0e9ef7be22e25ac428cbd9d50"),
    ((500, 256, 3.0, 0), "be276d4cf1a53f9244919d55656fdf9c26b928cf16b71e30772d618643b213d5"),
    ((5000, 16, 3.0, 2**32), "6ec2b84ea2716972e670cea820bcd0ecc03877bd6b5666f048accfa9fa0fd040"),
    ((5000, 256, 3.0, 2**32), "1a8a59fb944c38d89df89c55f40c3ed814d25b175e5fbe24c7c9a9e42dfc6661"),
    # odd widths, where a Box-Muller pair spans two rows
    ((13, 7, 2.5, 2**64 - 1), "ccadf303227724b37fd542e3f89e69766f3e1f8dd1e0221be9bf06dbcf3eb0be"),
    ((50, 3, 2.0, 9), "4249e598fb7d350828d93cba9319f013c5376af4ea17aca40d41c3729f6e44e1"),
    ((500, 255, 3.0, 0), "468711c514f23fae0db9b17795f7d84655d8ade846485331df91b6b69d94a0fc"),
]


@pytest.mark.parametrize("params, digest", SYNTH_DIGESTS, ids=[str(p[:2]) for p, _ in SYNTH_DIGESTS])
def test_gaussians_bytes_are_pinned(params, digest):
    assert hashlib.sha256(synth_gaussians(*params).features.tobytes()).hexdigest() == digest


def _row_sets(n):
    return {
        "all": np.arange(n),
        "validation": validation_split(n, 0.2, 77)[1],
        "unsorted": np.array([n - 2, 3, 0, n // 2, 1, n - 1, 2]),
        "repeats": np.array([4, 4, n - 1, 0, 4, n - 1, 0]),
        "last": np.array([n - 1]),
    }


@pytest.mark.parametrize("seed", [0, 1, 2**32, 2**64 - 1])
@pytest.mark.parametrize("n_features", [1, 2, 3, 7, 16, 331])
def test_gaussian_rows_equal_the_indexed_dataset(n_features, seed):
    n_per_class = 13
    whole = synth_gaussians(n_per_class, n_features, 2.5, seed)
    for name, rows in _row_sets(2 * n_per_class).items():
        part = synth_gaussian_rows(n_per_class, n_features, 2.5, seed, rows=rows)
        assert part.features.dtype == np.float32, name
        assert part.features.shape == (len(rows), n_features), name
        assert part.features.tobytes() == whole.features[rows].tobytes(), name
        assert part.labels.dtype == np.int64, name
        np.testing.assert_array_equal(part.labels, whole.labels[rows], err_msg=name)


@pytest.mark.parametrize("rows", [[-1], [26], [[0, 1]], [0.0], [True]],
                         ids=["negative", "past-end", "2-d", "float", "bool"])
def test_gaussian_rows_rejects_rows_outside_the_dataset(rows):
    with pytest.raises(InvalidParam, match="rows"):
        synth_gaussian_rows(13, 3, 2.0, rows=np.array(rows))


F32_MAX = float(np.finfo(np.float32).max)


@pytest.mark.parametrize("separation", [1e39, 2 * F32_MAX * (1 + 2**-52), float("inf"), 10**400])
@pytest.mark.parametrize("build", [synth_gaussians, lambda *a: synth_gaussian_rows(*a, rows=[0])],
                         ids=["whole", "rows"])
def test_gaussians_reject_separation_beyond_binary32(build, separation):
    with pytest.raises(InvalidParam, match="binary32"):
        build(2, 3, separation)


def test_gaussians_accept_the_largest_binary32_centre():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ds = synth_gaussians(3, 2, 2 * F32_MAX)
    assert np.isfinite(ds.features).all()
    np.testing.assert_array_equal(ds.features[:, 0], [-F32_MAX] * 3 + [F32_MAX] * 3)


# model files


def _small_net(seed=4, masked=True):
    net = init_network([LayerSpec(3, 4, "relu"), LayerSpec(4, 2, "sigmoid")], seed=seed)
    if masked:
        net.layers[0].mask[0, 1] = 0
        net.layers[0].weights[0, 1] = 0.0
        net.layers[1].mask[1, 3] = 0
        net.layers[1].weights[1, 3] = 0.0
    return net


def test_save_load_binary32_bit_exact(tmp_path):
    net = _small_net()
    # awkward decimals must survive the 9-significant-digit round trip
    net.layers[0].weights[1, 2] = np.float32(0.1)
    net.layers[0].weights[2, 0] = np.float32(1.0) / np.float32(3.0)
    net.layers[0].bias[0] = np.float32(1e-40)  # float32 subnormal
    p = str(tmp_path / "m.json")
    save_model(net, p, seed=np.uint64(77), alpha_history=[1.0, 0.5])  # a numpy seed is an integer
    back = load_model(p)
    assert back.precision_tag == "full"
    assert back.generation == net.generation
    for a, b in zip(net.layers, back.layers):
        assert a.weights.tobytes() == b.weights.tobytes()
        assert a.bias.tobytes() == b.bias.tobytes()
        np.testing.assert_array_equal(a.mask, b.mask)
        assert a.activation == b.activation
    meta = load_model_meta(p)
    assert (meta.generation, meta.precision, meta.seed) == (1, "binary32", 77)
    assert meta.alpha_history == [1.0, 0.5]


def test_save_load_binary16_bit_exact(tmp_path):
    net = quantize_network(_small_net())
    p = str(tmp_path / "m.json")
    save_model(net, p)
    back = load_model(p)
    assert back.precision_tag == "half"
    for a, b in zip(net.layers, back.layers):
        assert a.weights.tobytes() == b.weights.tobytes()
        assert a.bias.tobytes() == b.bias.tobytes()
    # a second save of the loaded model is byte-identical
    p2 = str(tmp_path / "m2.json")
    save_model(back, p2)
    assert (tmp_path / "m.json").read_bytes() == (tmp_path / "m2.json").read_bytes()


def _reference_save_model(net, path, seed=0, alpha_history=None):
    """`save_model` as written with `json.dump(indent=1)`: the byte oracle."""
    doc = {
        "format_version": 1,
        "generation": net.generation,
        "precision": "binary16" if net.precision_tag == "half" else "binary32",
        "activation": [l.activation for l in net.layers],
        "layers": [],
        "seed": int(seed),
        "alpha_history": [float(a) for a in (alpha_history or [])],
    }
    for layer in net.layers:
        out_dim, in_dim = layer.weights.shape
        entry = {"in_dim": in_dim, "out_dim": out_dim,
                 "mask": [int(v) for v in layer.mask.reshape(-1)]}
        if net.precision_tag == "half":
            entry["weights_f16"] = [int(v) for v in encode_array(layer.weights).reshape(-1)]
            entry["bias_f16"] = [int(v) for v in encode_array(layer.bias).reshape(-1)]
        else:
            entry["weights_f32"] = [float(f"{float(v):.9g}") for v in layer.weights.reshape(-1)]
            entry["bias_f32"] = [float(f"{float(v):.9g}") for v in layer.bias.reshape(-1)]
        doc["layers"].append(entry)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


_F32_MAX = np.finfo(np.float32).max
# negative zero, binary32 subnormals, the smallest normal, the largest
# finite value and values that saturate or underflow in binary16
EDGE_VALUES = np.array([-0.0, 1e-45, -1e-45, 1e-40, 2.0**-126, _F32_MAX, -_F32_MAX,
                        65504.0, -70000.0, 6e-8, 0.1], dtype=np.float32)
EDGE_ALPHAS = [0.84, 1 / 3, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, -0.0, 1e-7]


def _random_net(rng, widths, density):
    spec = [LayerSpec(a, b, str(rng.choice(ACTIVATIONS))) for a, b in zip(widths, widths[1:])]
    net = init_network(spec, seed=int(rng.integers(2**63)))
    for layer in net.layers:
        layer.mask[...] = rng.random(layer.mask.shape) < density
        for values in (layer.weights, layer.bias):
            values[...] = rng.standard_normal(values.shape) * 10.0 ** rng.integers(-6, 6, values.shape)
            flat = values.reshape(-1)
            spots = rng.choice(flat.size, min(flat.size, len(EDGE_VALUES)), replace=False)
            flat[spots] = rng.permutation(EDGE_VALUES)[:len(spots)]
        layer.weights[layer.mask == 0] = 0.0
    return net


WRITER_SHAPES = {
    "1-layer": ((5, 3), 0.6),
    "4-layer": ((7, 6, 5, 4, 2), 0.5),
    "1x1": ((1, 1), 1.0),
    "fully-masked": ((6, 4, 2), 0.0),
    "wider": ((40, 24, 3), 0.3),
    "lineage-wide": ((256, 128, 64, 2), 0.05),
}


@pytest.mark.parametrize("precision", ["binary32", "binary16"])
@pytest.mark.parametrize("shape", list(WRITER_SHAPES))
def test_save_model_bytes_equal_json_dump_indent_1(tmp_path, shape, precision):
    widths, density = WRITER_SHAPES[shape]
    rng = np.random.default_rng([len(widths), int(density * 10), precision == "binary16"])
    cases = [  # (generation, seed, alpha_history)
        (0, 0, []),
        (2**64 - 1, 2**64 - 1, [1, 0, 1]),  # integer-valued history is written as floats
        (int(rng.integers(1, 14)), int(rng.integers(2**63)), EDGE_ALPHAS),
    ]
    for k, (generation, seed, alphas) in enumerate(cases):
        net = _random_net(rng, widths, density)
        if precision == "binary16":
            net = quantize_network(net)
        net.generation = generation
        ours, ref = tmp_path / f"ours_{k}.json", tmp_path / f"ref_{k}.json"
        save_model(net, str(ours), seed=seed, alpha_history=alphas)
        _reference_save_model(net, str(ref), seed=seed, alpha_history=alphas)
        assert ours.read_bytes() == ref.read_bytes()
        back = load_model(str(ours))
        for a, b in zip(net.layers, back.layers):
            assert a.weights.tobytes() == b.weights.tobytes()
            assert a.bias.tobytes() == b.bias.tobytes()


def test_save_model_bytes_equal_json_dump_with_infinite_codes(tmp_path):
    rng = np.random.default_rng(15)
    net = _random_net(rng, (7, 6, 5, 4, 2), 0.5)
    live = np.flatnonzero(net.layers[0].mask)
    net.layers[0].weights.flat[live[:2]] = [1e6, -1e6]  # beyond binary16's 65504
    net = quantize_network(net, TO_INFINITY)
    ours, ref = tmp_path / "ours.json", tmp_path / "ref.json"
    save_model(net, str(ours), seed=3, alpha_history=[0.5])
    _reference_save_model(net, str(ref), seed=3, alpha_history=[0.5])
    assert ours.read_bytes() == ref.read_bytes()
    codes = json.loads(ours.read_text())["layers"][0]["weights_f16"]
    assert {0x7C00, 0xFC00} <= set(codes)
    back = load_model(str(ours))
    for a, b in zip(net.layers, back.layers):
        assert a.weights.tobytes() == b.weights.tobytes()


def _repr_items(values, inner):
    return repr(values.tolist())[1:-1].replace(", ", ",\n" + inner)


# a model file's integer lists sit at depth 4 (document, layers list, layer,
# list); the others check that the indent is not built in
@pytest.mark.parametrize("depth", [1, 2, 3, 4])
def test_int_items_spell_every_code_like_repr(depth):
    inner = " " * depth
    codes = np.arange(65536, dtype=np.uint16)
    cases = [codes]
    # each digit-width class alone: no entry has a leading zero
    cases += [codes[lo:hi] for lo, hi in [(0, 10), (10, 100), (100, 1000), (1000, 10000),
                                          (10000, 65536)]]
    cases += [np.zeros(n, dtype=dtype) for n in (1, 2, 33) for dtype in (np.uint8, np.uint16)]
    cases += [np.array([v], dtype=np.uint16) for v in (0, 1, 9, 10, 99, 100, 65535)]
    rng = np.random.default_rng(depth)
    cases += [(rng.random(n) < p).astype(np.uint8) for n in (1, 7, 1000) for p in (0.0, 0.05, 0.5, 1.0)]
    cases += [rng.permutation(codes)[:999], codes.reshape(256, 256),
              np.arange(256, dtype=np.uint8),  # digits taken in the array's own dtype
              np.array([2**32 - 1, 0, 10**9, 999_999_999], dtype=np.uint32),
              np.array([2**64 - 1, 0, 10**19, 7], dtype=np.uint64)]
    for values in cases:
        assert dataio._int_items(values, inner) == _repr_items(values.ravel(), inner)


@pytest.mark.parametrize("half", [False, True], ids=["binary32", "binary16"])
@pytest.mark.parametrize("value", [2, -1, 0.5, np.nan], ids=["2", "-1", "0.5", "nan"])
def test_save_model_rejects_mask_entries_other_than_0_and_1(tmp_path, value, half):
    net = quantize_network(_small_net()) if half else _small_net()
    layer = net.layers[1]
    layer.mask = layer.mask.astype(np.float64 if isinstance(value, float) else np.int64)
    layer.mask[0, 0] = value
    p = tmp_path / "m.json"
    with pytest.raises(IntegrityError, match="layer 1: mask entries must be 0 or 1") as info:
        save_model(net, str(p))
    assert info.value.exit_code == 2
    assert not p.exists()


@pytest.mark.parametrize("half, value", [
    (False, -0.0), (False, 1e-45), (False, 0.25), (True, -0.0), (True, 1.0),
], ids=["binary32 -0.0", "binary32 subnormal", "binary32 0.25", "binary16 -0.0", "binary16 1.0"])
def test_save_model_rejects_masked_weight_that_is_not_positive_zero(tmp_path, half, value):
    net = quantize_network(_small_net()) if half else _small_net()
    net.layers[0].weights[0, 1] = value  # masked off in the fixture
    p = tmp_path / "m.json"
    with pytest.raises(IntegrityError, match="layer 0: masked-off weight is not \\+0.0") as info:
        save_model(net, str(p))
    assert info.value.exit_code == 2
    assert not p.exists()


def test_save_model_writes_masked_weight_that_reads_back_as_positive_zero(tmp_path):
    net = quantize_network(_small_net())
    net.layers[0].weights[0, 1] = 1e-10  # rounds to binary16 code 0x0000
    p = str(tmp_path / "m.json")
    save_model(net, p)
    assert load_model(p).layers[0].weights.view(np.uint32)[0, 1] == 0


@pytest.mark.parametrize("dtype", [bool, np.int64, np.float32])
@pytest.mark.parametrize("half", [False, True], ids=["binary32", "binary16"])
def test_save_model_writes_any_0_1_mask_as_integers(tmp_path, dtype, half):
    net = quantize_network(_small_net()) if half else _small_net()
    expected = tmp_path / "uint8.json"
    save_model(net, str(expected))
    for layer in net.layers:
        layer.mask = layer.mask.astype(dtype)
    p = tmp_path / "m.json"
    save_model(net, str(p))
    assert p.read_bytes() == expected.read_bytes()
    for a, b in zip(net.layers, load_model(str(p)).layers):
        assert b.mask.dtype == np.uint8
        np.testing.assert_array_equal(a.mask, b.mask)


@pytest.mark.parametrize("layer, name, value", [
    (1, "weight", np.inf), (0, "weight", np.nan), (1, "bias", -np.inf), (0, "bias", np.nan),
])
def test_save_model_rejects_non_finite_binary32(tmp_path, layer, name, value):
    net = _small_net(masked=False)
    getattr(net.layers[layer], "weights" if name == "weight" else "bias").flat[-1] = value
    p = tmp_path / "m.json"
    p.write_text("kept")
    with pytest.raises(NumericFailure, match=f"layer {layer} has a non-finite {name}") as info:
        save_model(net, str(p))
    assert info.value.exit_code == 3
    assert p.read_text() == "kept"  # raised before the file was opened


@pytest.mark.parametrize("layer, name, masked", [
    (1, "weight", False), (0, "bias", False), (0, "weight", True),
], ids=["weight", "bias", "masked-weight"])
def test_save_model_rejects_nan_binary16(tmp_path, layer, name, masked):
    # code 0x7E00 is a NaN code that load_model rejects; infinities stay writable
    net = quantize_network(_small_net())
    values = getattr(net.layers[layer], "weights" if name == "weight" else "bias")
    if masked:  # the value rule runs before the masked-slot rule
        values[0, 1] = np.nan
    else:
        values.flat[-1] = np.nan
    p = tmp_path / "m.json"
    p.write_text("kept")
    with pytest.raises(NumericFailure, match=f"layer {layer} has a NaN {name}") as info:
        save_model(net, str(p))
    assert info.value.exit_code == 3
    assert p.read_text() == "kept"  # raised before the file was opened


def _dense(out_dim, in_dim, activation="relu"):
    return DenseLayer(np.ones((out_dim, in_dim), np.float32), np.ones((out_dim, in_dim), np.uint8),
                      np.zeros(out_dim, np.float32), activation)


@pytest.mark.parametrize("layers, generation, match", [
    ([_dense(0, 3)], 1, "layer 0: dimensions must be >= 1"),
    ([_dense(2, 3), _dense(2, 4)], 1, "layer 0 out_dim 2 != layer 1 in_dim 4"),
    ([_dense(2, 3, "tanh")], 1, "layer 0: unknown activation 'tanh'"),
    ([replace(_dense(2, 3), bias=np.zeros(3, np.float32))], 1,
     r"layer 0: mask or bias does not fit weights \(2, 3\)"),
    ([_dense(2, 3)], 2.5, "field 'generation' must be an integer"),
    ([replace(_dense(2, 3), mask=np.ones((2, 2), np.uint8))], 1,
     r"layer 0: mask or bias does not fit weights \(2, 3\)"),
    ([_dense(2, 3)], np.int64(5), None),
    ([DenseLayer(np.ones(3, np.float32), np.ones(3, np.uint8), np.zeros(3, np.float32))], 1,
     r"layer 0: weights must be 2-D, got shape \(3,\)"),
    ([_dense(2, 3), replace(_dense(2, 2), weights=np.ones((2, 2, 1), np.float32),
                            mask=np.ones((2, 2, 1), np.uint8))], 1,
     r"layer 1: weights must be 2-D, got shape \(2, 2, 1\)"),
], ids=["0x3 layer", "broken chain", "tanh", "bias length", "generation 2.5", "mask shape",
        "numpy generation", "1-D weights", "3-D weights"])
def test_save_model_writes_only_structures_its_loader_accepts(tmp_path, layers, generation, match):
    net = Network(layers, generation=generation)
    p = tmp_path / "m.json"
    if match is None:
        save_model(net, str(p))
        back = load_model(str(p))
        assert back.generation == 5 and type(back.generation) is int
        return
    with pytest.raises(IntegrityError, match=match) as info:
        save_model(net, str(p))
    assert info.value.exit_code == 2
    assert not p.exists()  # raised before the file was opened


def test_save_model_writes_float64_weights_as_the_binary32_values_they_load_as(tmp_path):
    net = _small_net()
    for layer in net.layers:
        layer.weights = layer.weights.astype(np.float64)
    net.layers[0].weights[1, 2] = 0.1  # not a binary32 value
    p = tmp_path / "m.json"
    save_model(net, str(p))
    for a, b in zip(net.layers, load_model(str(p)).layers):
        assert a.weights.astype(np.float32).tobytes() == b.weights.tobytes()
    net.layers[1].weights[0, 0] = 1e300  # finite in binary64, inf in binary32
    p.unlink()
    with pytest.raises(NumericFailure, match="layer 1 has a non-finite weight"):
        save_model(net, str(p))
    assert not p.exists()


@pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
@pytest.mark.parametrize("half", [False, True], ids=["binary32", "binary16"])
def test_save_model_rejects_non_finite_alpha_history(tmp_path, value, half):
    net = quantize_network(_small_net()) if half else _small_net()
    p = tmp_path / "m.json"
    with pytest.raises(NumericFailure, match="alpha_history"):
        save_model(net, str(p), alpha_history=[1.0, value])
    assert not p.exists()


# the file holds the seed passed, so a value that int() would turn into
# another seed (2.7, True, "7") is refused
@pytest.mark.parametrize("seed", [2**64, 2.7, True, "7"], ids=["2^64", "2.7", "true", "str"])
def test_save_model_rejects_seed_beyond_uint64(tmp_path, seed):
    p = tmp_path / "m.json"
    with pytest.raises(IntegrityError, match="field 'seed' must be a 64-bit unsigned integer"):
        save_model(_small_net(), str(p), seed=seed)
    assert not p.exists()


def test_half_file_stores_bit_patterns(tmp_path):
    net = _small_net(masked=False)
    net.layers[0].weights[:] = 0.0
    net.layers[0].weights[0, 0] = 1.0
    net = quantize_network(net)
    p = str(tmp_path / "m.json")
    save_model(net, p)
    doc = json.loads((tmp_path / "m.json").read_text())
    assert doc["layers"][0]["weights_f16"][0] == 15360  # 0x3C00 encodes 1.0
    assert doc["precision"] == "binary16"
    assert doc["format_version"] == 1
    assert doc["activation"] == ["relu", "sigmoid"]


def test_model_unknown_top_level_fields_ignored(tmp_path):
    net = _small_net()
    p = str(tmp_path / "m.json")
    save_model(net, p)
    doc = json.loads((tmp_path / "m.json").read_text())
    doc["comment"] = "hand annotated"
    (tmp_path / "m.json").write_text(json.dumps(doc))
    load_model(p)


# the model-file contract: each row is a saved `_small_net` file that the
# loader refuses, as (base variant, change, error, message, meta). A change
# edits the parsed document, respells the first number of a list in the
# file's text (a (key, spelling) pair), or is the file's whole new text.
# `message` is the loader's, after the file's path; `meta` marks the rows
# whose field `load_model_meta` reads too. Layer 0 is 3 -> 4, layer 1 is
# 4 -> 2, and weight 1 of layer 0 and weight 7 of layer 1 are masked off.
B32, B16 = "binary32", "binary16"
TEN_400 = "1" + "0" * 400
ALPHAS = ": field 'alpha_history' must be a list of finite numbers"
MASKED = " layer 0: masked-off weight is not +0.0"
MODEL_REFUSALS = {
    # the document
    "not-json": (B32, "{not json", IntegrityError, " is not valid JSON: Expecting property name "
                 "enclosed in double quotes: line 1 column 2 (char 1)", True),
    "top-level-list": (B32, "[1, 2]", IntegrityError, ": top level must be a JSON object", True),
    "format-9-only": (B32, '{"format_version": 9}', FormatVersionUnsupported,
                      ": format_version 9, supported: 1", True),
    "format-2": (B32, put("format_version", 2), FormatVersionUnsupported,
                 ": format_version 2, supported: 1", True),
    "no-format": (B32, lambda d: d.pop("format_version"), FormatVersionUnsupported,
                  ": format_version None, supported: 1", True),
    # json.dumps writes these as the bare tokens NaN, Infinity and -Infinity
    "NaN-weight": (B32, put("layers", 0, "weights_f32", 0, float("nan")), IntegrityError,
                   ": NaN is not a valid value", True),
    "Infinity-weight": (B32, put("layers", 0, "weights_f32", 0, float("inf")), IntegrityError,
                        ": Infinity is not a valid value", True),
    "Infinity-alpha": (B32, put("alpha_history", [1.0, float("inf")]), IntegrityError,
                       ": Infinity is not a valid value", True),
    "-Infinity-bias": (B32, put("layers", 1, "bias_f32", 0, float("-inf")), IntegrityError,
                       ": -Infinity is not a valid value", True),
    # the top-level fields
    **{f"precision-{i}": (B32, put("precision", p), IntegrityError,
                          f": precision must be binary16 or binary32, got {p!r}", True)
       # a list cannot be a key of the loader's variant table
       for i, p in (("binary64", "binary64"), ("null", None), ("list", ["binary16"]))},
    "no-seed": (B32, lambda d: d.pop("seed"), IntegrityError, ": missing field 'seed'", True),
    "seed-2^64": (B32, put("seed", 2**64), IntegrityError,
                  ": field 'seed' must be a 64-bit unsigned integer", True),
    **{f"alpha-{i}": (B32, put("alpha_history", v), IntegrityError, ALPHAS, True)
       for i, v in (("int", 5), ("null", None), ("str", ["x"]), ("bool", [True]))},
    **{f"alpha-{i}": (B32, ("alpha_history", s), IntegrityError, ALPHAS, True)
       for i, s in (("10^400", TEN_400), ("1e999", "1e999"), ("-1e999", "-1e999"))},
    "layers-object": (B32, put("layers", {}), IntegrityError, ": field 'layers' must be a list", False),
    "no-layers": (B32, put("layers", []), IntegrityError, ": model has no layers", False),
    "one-activation": (B32, put("activation", ["relu"]), IntegrityError,
                       ": 1 activation names for 2 layers", False),
    "tanh": (B32, put("activation", ["relu", "tanh"]), IntegrityError,
             ": unknown activation 'tanh'", False),
    # a layer's structure
    "layer-not-object": (B32, put("layers", 0, 5), IntegrityError,
                         " layer 0: must be a JSON object", False),
    "string-in_dim": (B32, put("layers", 0, "in_dim", "2"), IntegrityError,
                      " layer 0: field 'in_dim' must be an integer", False),
    "out_dim-0": (B32, put("layers", 0, "out_dim", 0), IntegrityError,
                  " layer 0: dimensions must be >= 1", False),
    "broken-chain": (B32, put("layers", 1, "in_dim", 5), IntegrityError,
                     " layer 1: in_dim 5 does not match previous out_dim 4", False),
    "long-mask": (B32, lambda d: d["layers"][0]["mask"].append(1), IntegrityError,
                  " layer 0: mask has 13 values, expected 12", False),
    "short-weights": (B32, lambda d: d["layers"][1]["weights_f32"].pop(), IntegrityError,
                      " layer 1: weights_f32 has 7 values, expected 8", False),
    # a layer's values
    "mask-2": (B32, put("layers", 0, "mask", 0, 2), IntegrityError,
               " layer 0: mask entries must be 0 or 1", False),
    **{f"mask-{i}": (B32, put("layers", 1, "mask", 0, v), IntegrityError,
                     " layer 1: mask entries must be 0 or 1", False)
       for i, v in (("1.0", 1.0), ("0.0", 0.0), ("true", True), ("-1", -1), ("2^70", 2**70))},
    "true-weight": (B32, put("layers", 0, "weights_f32", 0, True), IntegrityError,
                    " layer 0: weights_f32 entries must be numbers", False),
    **{f"weight-{i}": (B32, ("weights_f32", s), IntegrityError,
                       " layer 0: weights_f32 entries must be finite binary32 values", False)
       for i, s in (("10^400", TEN_400), ("1e999", "1e999"), ("4e38", "4e38"))},
    "weight-code-65536": (B16, put("layers", 0, "weights_f16", 0, 65536), IntegrityError,
                          " layer 0: weights_f16 entries must be integers in [0, 65535]", False),
    **{f"bias-code-{i}": (B16, put("layers", 1, "bias_f16", 0, v), IntegrityError,
                          " layer 1: bias_f16 entries must be integers in [0, 65535]", False)
       for i, v in (("-1", -1), ("2^70", 2**70), ("1.0", 1.0), ("true", True))},
    **{f"{key[:-4]}-NaN-code-0x{code:04X}": (B16, put("layers", 0, key, 0, code), IntegrityError,
                                             f" layer 0: {key} holds a binary16 NaN code", False)
       for key, code in (("weights_f16", 0x7E00), ("weights_f16", 0xFE00), ("bias_f16", 0x7C01))},
    # the masked slots hold +0.0 only
    "masked-0.25": (B32, put("layers", 0, "weights_f32", 1, 0.25), IntegrityError, MASKED, False),
    "masked-minus-zero": (B32, put("layers", 0, "weights_f32", 1, -0.0), IntegrityError, MASKED, False),
    "masked-code-0x8000": (B16, put("layers", 0, "weights_f16", 1, 0x8000), IntegrityError, MASKED, False),
}


@pytest.fixture(scope="module")
def model_bases(tmp_path_factory):
    """A directory holding `_small_net` saved in each variant, and a data
    source that such a model reads."""
    root = tmp_path_factory.mktemp("model_bases")
    for precision, net in ((B32, _small_net()), (B16, quantize_network(_small_net()))):
        save_model(net, str(root / f"{precision}.json"), seed=9, alpha_history=[0.5, 0.25])
    (root / "source.json").write_text(json.dumps(
        {"type": "synthetic", "n_per_class": 20, "n_features": 3, "separation": 3.0, "seed": 1}))
    return root


def _refused_model(tmp_path, bases, name):
    """The file of row ``name``: its base with its change applied."""
    base, change = MODEL_REFUSALS[name][:2]
    text = (bases / f"{base}.json").read_text()
    if isinstance(change, tuple):
        key, spelling = change
        head, sep, rest = text.partition(f'"{key}": [\n')
        first, comma, tail = rest.partition(",")
        text = head + sep + first.replace(first.strip(), spelling) + comma + tail
    elif callable(change):
        doc = json.loads(text)
        change(doc)
        text = json.dumps(doc)
    else:
        text = change
    path = tmp_path / "m.json"
    path.write_text(text)
    return str(path)


@pytest.mark.parametrize("name", MODEL_REFUSALS)
def test_loader_refuses_model(tmp_path, model_bases, name):
    _, _, error, message, meta = MODEL_REFUSALS[name]
    path = _refused_model(tmp_path, model_bases, name)
    for load in (load_model_and_meta, load_model_meta) if meta else (load_model_and_meta,):
        with pytest.raises(error) as info:
            load(path)
        assert (type(info.value), str(info.value)) == (error, path + message)
    if not meta:
        load_model_meta(path)  # reads no layer


@pytest.mark.parametrize("name", MODEL_REFUSALS)
@pytest.mark.parametrize("command", ["inspect", "metrics", "quantize"])
def test_read_commands_refuse_model(tmp_path, capsys, model_bases, command, name):
    # quantize loads before it checks the precision, so it refuses binary16 rows
    # with the loader's message too
    _, _, error, message, _ = MODEL_REFUSALS[name]
    path = _refused_model(tmp_path, model_bases, name)
    out = tmp_path / "half.json"
    argv = {"inspect": [], "metrics": ["--data", str(model_bases / "source.json")],
            "quantize": ["--out", str(out)]}[command]
    assert run([command, "--model", path, *argv]) == error.exit_code
    assert capsys.readouterr() == ("", f"error: {path}{message}\n")
    assert not out.exists()


def _loop_uint_check(values, top):
    """The per-entry loop the vectorised integer check replaced."""
    return not any(isinstance(v, bool) or not isinstance(v, int) or not 0 <= v <= top
                   for v in values)


def _loop_f32_values(values):
    """The per-entry loop and cast `_layer_values` used for binary32 entries."""
    for v in values:
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            return "entries must be numbers"
    with np.errstate(over="ignore"):
        out = np.asarray(values, dtype=np.float64).astype(np.float32)
    return out if np.all(np.isfinite(out)) else "entries must be finite binary32 values"


LOADER_POOL = [0, 1, 2, 7, 65535, 65536, -1, 2**63, 2**70, -2**70, 0.5, 1.0, 0.0, -0.0,
               float("inf"), 4e38, 3e38, True, False, None, "1", [1], {"a": 1}]


def test_vectorised_loader_checks_match_the_loops():
    rng = np.random.default_rng(6)
    for _ in range(3000):
        n = int(rng.integers(1, 6))
        common = rng.random() < 0.7  # mostly plausible entries, so both outcomes occur
        values = [LOADER_POOL[int(i)] for i in rng.integers(0, 5 if common else len(LOADER_POOL), n)]
        for top in (1, 0xFFFF):
            got = dataio._uint_array(values, top)
            assert (got is not None) == _loop_uint_check(values, top), (values, top)
            if got is not None:
                assert got.tolist() == values
        want = _loop_f32_values(values)
        try:
            got = dataio._layer_values({"w": values}, "w", n, "m", "binary32")
        except IntegrityError as exc:
            assert isinstance(want, str) and str(exc) == f"m: w {want}", (values, exc)
        else:
            assert not isinstance(want, str) and got.tobytes() == want.tobytes(), values


def test_model_missing_file():
    with pytest.raises(IoError):
        load_model("/nonexistent/m.json")
    with pytest.raises(IoError):
        load_model_meta("/nonexistent/m.json")


# lineage reports


def _record(g, **kw):
    base = dict(generation=g, alpha=1.0, active_synapses=100 - g,
                total_synapses=128, macs=200 - g, train_loss=0.5 / g,
                precision=0.9, recall=0.85, f1=0.875,
                seed=42 + g)
    base.update(kw)
    return GenerationRecord(**base)


def test_lineage_round_trip(tmp_path):
    records = [_record(1), _record(2, alpha=0.8415926535, f1=0.25)]
    p = str(tmp_path / "lineage.csv")
    save_lineage_report(records, p)
    text = (tmp_path / "lineage.csv").read_text()
    lines = text.splitlines()
    assert lines[0] == LINEAGE_HEADER
    assert len(lines) == 3
    assert "0.841593" in lines[2]  # reals carry six significant digits
    rows = load_lineage_report(p)
    assert all(type(r) is GenerationRecord for r in rows)
    assert rows[0].generation == 1
    assert isinstance(rows[0].active_synapses, int)
    assert isinstance(rows[0].alpha, float)
    assert rows[1].alpha == 0.841593  # the file's digits, not the record's
    assert rows[1].f1 == 0.25
    assert rows[1].seed == 44
    assert rows[0].train_loss == pytest.approx(0.5, abs=1e-6)
    save_lineage_report(rows, str(tmp_path / "again.csv"))
    assert (tmp_path / "again.csv").read_text() == text


def test_lineage_byte_deterministic(tmp_path):
    records = [_record(1), _record(2)]
    save_lineage_report(records, str(tmp_path / "a.csv"))
    save_lineage_report(records, str(tmp_path / "b.csv"))
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    assert (tmp_path / "a.csv").read_bytes().endswith(b"\n")


def test_lineage_load_requires_exact_header(tmp_path):
    p = tmp_path / "l.csv"
    p.write_text("generation,alpha\n1,0.5\n")
    with pytest.raises(ParseError, match="header"):
        load_lineage_report(str(p))


def test_lineage_load_requires_data_rows(tmp_path):
    p = tmp_path / "l.csv"
    p.write_text(LINEAGE_HEADER + "\n")
    with pytest.raises(ParseError, match="no data rows"):
        load_lineage_report(str(p))


def test_lineage_load_column_count(tmp_path):
    p = tmp_path / "l.csv"
    p.write_text(LINEAGE_HEADER + "\n1,1.0,3\n")
    with pytest.raises(ParseError, match="line 2"):
        load_lineage_report(str(p))


def test_lineage_load_bad_value(tmp_path):
    p = tmp_path / "l.csv"
    row = "1,1.0,100,128,200,0.5,0.9,0.85,oops,42"
    p.write_text(LINEAGE_HEADER + "\n" + row + "\n")
    with pytest.raises(ParseError, match="f1"):
        load_lineage_report(str(p))


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "Infinity"])
def test_lineage_load_rejects_non_finite_real(tmp_path, cell):
    p = tmp_path / "l.csv"
    rows = ["1,1,100,128,200,0.5,0.9,0.85,0.875,42", f"2,{cell},90,128,190,0.5,0.9,0.85,0.875,43"]
    p.write_text(LINEAGE_HEADER + "\n" + "\n".join(rows) + "\n")
    with pytest.raises(ParseError, match="line 3: bad value for alpha"):
        load_lineage_report(str(p))


@pytest.mark.parametrize("cell", ["-1", str(2**64), "1" + "0" * 400], ids=["-1", "2^64", "10^400"])
def test_lineage_load_rejects_counts_outside_uint64(tmp_path, cell):
    # report divides the counts as floats; 10^400 has no float
    p = tmp_path / "l.csv"
    rows = ["1,1,100,128,200,0.5,0.9,0.85,0.875,42", f"2,1,{cell},128,190,0.5,0.9,0.85,0.875,43"]
    p.write_text(LINEAGE_HEADER + "\n" + "\n".join(rows) + "\n")
    with pytest.raises(ParseError, match="line 3: bad value for active_synapses"):
        load_lineage_report(str(p))


def test_lineage_load_names_file_line_numbers(tmp_path):
    p = tmp_path / "l.csv"
    rows = ["1,1,100,128,200,0.5,0.9,0.85,0.875,42", "", "", "2,1,90,128,190,0.5,0.9,0.85,oops,43"]
    p.write_text(LINEAGE_HEADER + "\n" + "\n".join(rows) + "\n")
    with pytest.raises(ParseError, match="line 5: bad value for f1"):
        load_lineage_report(str(p))


def test_lineage_missing_file():
    with pytest.raises(IoError):
        load_lineage_report("/nonexistent/l.csv")
