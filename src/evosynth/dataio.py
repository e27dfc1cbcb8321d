"""Dataset loading, model serialization and lineage report persistence.

Model files are JSON. The binary16 variant stores every weight and bias
as the integer value of its half-precision bit pattern, so round-trips
are bit-exact. The binary32 variant stores decimals with 9 significant
digits, which is enough to reproduce any binary32 value exactly. In
both, a masked-off weight is +0.0 (code 0x0000), and the loaders reject
any other value there.

`save_model` writes exactly the bytes of `json.dump(doc, fh, indent=1)`
followed by a newline, built by joining strings (Python's indented
encoder runs in pure Python and is several times slower). Masks and
binary16 codes are spelled by `_int_items`, with numpy digit arithmetic
on the whole array; binary32 decimals and `alpha_history` go through
the repr of a Python float list. A non-finite binary32 weight or bias,
or a non-finite `alpha_history` entry, has no JSON spelling:
`save_model` raises `NumericFailure` for it before the file is opened,
and the loaders reject it with `IntegrityError`. `save_model` also
applies the loader's mask rules before the file is opened: a mask entry
other than 0 or 1, or a masked-off weight that would not read back as
+0.0, raises `IntegrityError` with the loader's message, and a 0/1 mask
of any dtype is written as the integers 0 and 1.

Every text file the package reads or writes goes through `read_text`,
`read_json` and `write_text`: UTF-8 without newline translation, and a
library error, never a traceback, for each way a read or write can fail.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import (
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
from .halfprec import decode_array, encode_array
from .netcore import ACTIVATIONS, DenseLayer, FULL, HALF, Network
from .rng import uniform_block

if TYPE_CHECKING:
    from .evolution import Lineage

FORMAT_VERSION = 1

# a model file's precision -> (Network.precision_tag, weights key, bias key)
_VARIANTS = {"binary16": (HALF, "weights_f16", "bias_f16"),
             "binary32": (FULL, "weights_f32", "bias_f32")}

# lineage.csv columns: (header, GenerationRecord field, integer?)
_LINEAGE_COLUMNS = (
    ("generation", "generation", True),
    ("alpha", "alpha_used", False),
    ("active_synapses", "active_synapses", True),
    ("total_synapses", "total_synapses", True),
    ("macs", "macs", True),
    ("train_loss", "train_loss", False),
    ("precision", "precision_metric", False),
    ("recall", "recall_metric", False),
    ("f1", "f1", False),
    ("seed", "seed", True),
)
LINEAGE_HEADER = ",".join(header for header, _, _ in _LINEAGE_COLUMNS)


def read_text(path: str) -> str:
    """The UTF-8 text of `path`; `IoError` if unreadable, `ParseError` if not UTF-8."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8 text: {exc}") from exc


def read_json(path: str, invalid=IntegrityError, unreadable=IoError, label: str = ""):
    """The JSON document in `path`, with no `NaN` or `Infinity` token.

    A file that cannot be opened raises `unreadable`; one that is not
    UTF-8, not JSON, nested too deeply to parse or holds a bare `NaN`,
    `Infinity` or `-Infinity` raises `invalid`. Messages name the file
    as `label` followed by the path.
    """
    def reject(token):
        raise invalid(f"{label}{path}: {token} is not a valid value")

    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, parse_constant=reject)
    except OSError as exc:
        raise unreadable(f"cannot read {label}{path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        # ValueError: bytes that are not UTF-8, malformed JSON or an integer
        # literal beyond Python's digit limit; RecursionError: deep nesting
        raise invalid(f"{label}{path} is not valid JSON: {exc}") from exc


def write_text(path: str, text: str) -> None:
    """Write `text` to `path` as UTF-8 without newline translation; `IoError` on failure."""
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


@dataclass
class Dataset:
    features: np.ndarray  # float32, [n_samples, n_features]
    labels: np.ndarray    # int64 class indices
    n_classes: int

    def __len__(self) -> int:
        return len(self.labels)


@dataclass
class ModelMeta:
    """Bookkeeping stored alongside a model's parameters."""

    generation: int
    precision: str  # "binary16" or "binary32"
    seed: int
    alpha_history: list[float]


def load_csv_dataset(path: str) -> Dataset:
    """CSV with a header, real-valued feature columns and a final `label` column.

    Row numbers in diagnostics are 1-based file line numbers (the header
    is line 1). Class count is max(label) + 1.
    """
    lines = read_text(path).splitlines()
    if not lines:
        raise EmptyDataset(f"{path} is empty")
    header = lines[0].split(",")
    if len(header) < 2 or header[-1].strip() != "label":
        raise ParseError(f"{path} line 1: header must end with a `label` column")
    n_features = len(header) - 1
    rows = []
    labels = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        cells = line.split(",")
        if len(cells) != n_features + 1:
            raise ParseError(
                f"{path} line {lineno}: expected {n_features + 1} columns, got {len(cells)}"
            )
        values = []
        for col, cell in enumerate(cells[:-1]):
            try:
                v = float(cell)
            except ValueError:
                raise ParseError(
                    f"{path} line {lineno}, column {header[col].strip()!r}: "
                    f"not a real number: {cell.strip()!r}"
                ) from None
            values.append(v)
        raw_label = cells[-1].strip()
        try:
            label = int(raw_label)
        except ValueError:
            raise ParseError(
                f"{path} line {lineno}: label must be an integer, got {raw_label!r}"
            ) from None
        if label < 0:
            raise ParseError(f"{path} line {lineno}: label must be non-negative, got {label}")
        rows.append(values)
        labels.append(label)
    if not rows:
        raise EmptyDataset(f"{path} has a header but no data rows")
    with np.errstate(over="ignore"):
        # overflow to inf is caught by the finiteness check below
        features = np.asarray(rows, dtype=np.float64).astype(np.float32)
    bad = ~np.isfinite(features)
    if bad.any():
        row = int(np.argwhere(bad)[0][0])
        raise NonFiniteFeature(f"{path} row {row + 2}: non-finite feature value")
    return Dataset(features=features, labels=np.asarray(labels, dtype=np.int64),
                   n_classes=max(labels) + 1)


def _read_idx_header(data: bytes, path: str, expected_magic: int, n_dims: int):
    need = 4 * (1 + n_dims)
    if len(data) < need:
        raise TruncatedFile(f"{path}: header needs {need} bytes, file has {len(data)}")
    magic = struct.unpack(">I", data[:4])[0]
    if magic != expected_magic:
        raise BadMagic(f"{path}: magic 0x{magic:08X}, expected 0x{expected_magic:08X}")
    dims = struct.unpack(f">{n_dims}I", data[4:need])
    return dims, data[need:]


def load_idx(images: str, labels: str, limit: int | None = None) -> Dataset:
    """Big-endian IDX image/label pair, flattened and scaled to [0, 1].

    `images` and `labels` are file paths; `limit` keeps the first rows.
    """
    if limit is not None and limit < 1:
        raise InvalidParam(f"limit must be positive, got {limit}")
    try:
        with open(images, "rb") as fh:
            img_data = fh.read()
        with open(labels, "rb") as fh:
            lab_data = fh.read()
    except OSError as exc:
        raise IoError(f"cannot read IDX input: {exc}") from exc
    (n_img, n_rows, n_cols), img_body = _read_idx_header(img_data, images, 0x00000803, 3)
    (n_lab,), lab_body = _read_idx_header(lab_data, labels, 0x00000801, 1)
    if n_img != n_lab:
        raise CountMismatch(f"{n_img} images but {n_lab} labels")
    pixels = n_img * n_rows * n_cols
    if len(img_body) < pixels:
        raise TruncatedFile(f"{images}: needs {pixels} pixel bytes, has {len(img_body)}")
    if len(lab_body) < n_lab:
        raise TruncatedFile(f"{labels}: needs {n_lab} label bytes, has {len(lab_body)}")
    if n_img == 0:
        raise EmptyDataset(f"{images} contains no images")
    take = n_img if limit is None else min(limit, n_img)
    raw = np.frombuffer(img_body[:take * n_rows * n_cols], dtype=np.uint8)
    features = (raw.astype(np.float32) / np.float32(255.0)).reshape(take, n_rows * n_cols)
    classes = np.frombuffer(lab_body[:take], dtype=np.uint8).astype(np.int64)
    return Dataset(features=features, labels=classes, n_classes=int(classes.max()) + 1)


def synth_gaussians(n_per_class: int, n_features: int, separation: float,
                    seed: int = 0) -> Dataset:
    """Two unit-variance Gaussian blobs at -+separation/2 along feature 0.

    Class 0 first, then class 1. Normal deviates come from a Box-Muller
    transform over one deterministic uniform stream.
    """
    if n_per_class < 1:
        raise InvalidParam(f"n_per_class must be >= 1, got {n_per_class}")
    if n_features < 1:
        raise InvalidParam(f"n_features must be >= 1, got {n_features}")
    if not separation > 0:
        raise InvalidParam(f"separation must be positive, got {separation}")
    count = 2 * n_per_class * n_features
    if count > np.iinfo(np.intp).max // 8:  # numpy cannot even size the float64 array
        raise InvalidParam(f"2 * n_per_class * n_features = {count} values exceed any address space")
    pairs = (count + 1) // 2
    u = uniform_block(seed, 2 * pairs)
    u1, u2 = u[0::2], u[1::2]
    radius = np.sqrt(-2.0 * np.log1p(-u1))
    angle = 2.0 * np.pi * u2
    z = np.empty(2 * pairs, dtype=np.float64)
    z[0::2] = radius * np.cos(angle)
    z[1::2] = radius * np.sin(angle)
    features = z[:count].reshape(2 * n_per_class, n_features)
    features[:n_per_class, 0] -= separation / 2.0
    features[n_per_class:, 0] += separation / 2.0
    labels = np.repeat(np.array([0, 1], dtype=np.int64), n_per_class)
    return Dataset(features=features.astype(np.float32), labels=labels, n_classes=2)


# model files


def _file_values(values: np.ndarray, precision: str, failure: str):
    """`values` as a `precision` model file spells them, and the bit patterns
    they read back as: binary16 codes (uint16) for both, or binary32 decimals
    and the uint32 bits of their binary32 values. `NumericFailure(failure)`
    for a non-finite binary32 value, which JSON cannot spell."""
    if precision == "binary16":
        codes = encode_array(values).ravel()
        return codes, codes
    with np.errstate(over="ignore"):  # a float64 value beyond binary32 becomes inf
        f32 = np.ascontiguousarray(values, dtype=np.float32)
    if not np.isfinite(f32).all():
        raise NumericFailure(failure)
    # 9 significant digits reproduce any binary32 value exactly
    decimals = [float(f"{float(v):.9g}") for v in f32.reshape(-1)]
    return decimals, f32.view(np.uint32).ravel()


def _file_mask(mask: np.ndarray, where: str) -> np.ndarray:
    """`mask` as the uint8 0s and 1s of a model file, whatever its dtype;
    `IntegrityError` with the loader's message for any other entry."""
    bits = (mask != 0).view(np.uint8).ravel()
    if not np.array_equal(bits, mask.ravel()):
        raise IntegrityError(f"{where}: mask entries must be 0 or 1")
    return bits


def _int_items(values: np.ndarray, inner: str) -> str:
    """The entries of an unsigned integer array as
    `repr(values.tolist())[1:-1].replace(", ", ",\\n" + inner)` spells them.

    Each entry is one row of an (n, width + 2 + len(inner)) uint8 cell
    array: its decimal digits, right-aligned in `width` cells, then the
    separator. The digits come from `// 10` in the array's own dtype, where
    nothing wraps (quot * 10 <= rest, digit + 48 <= 57); on a 32,768-entry
    uint8 mask that measured about 3x faster than uint32 temporaries, and
    level with them on uint16 codes. A leading zero's cell is NUL, and one
    boolean compaction drops them all; a list whose entries all have
    `width` digits, such as a 0/1 mask, has none.
    """
    rest = values.ravel()
    width = len(str(int(rest.max())))
    cells = np.full((rest.size, width + 2 + len(inner)), ord(" "), dtype=np.uint8)
    cells[:, width] = ord(",")
    cells[:, width + 1] = ord("\n")
    ragged = len(str(int(rest.min()))) < width
    for col in range(width - 1, -1, -1):
        quot = rest // 10
        digit = rest - quot * 10 + ord("0")
        if ragged and col < width - 1:
            digit *= rest != 0  # no non-zero digit at or left of this cell
        cells[:, col] = digit
        rest = quot
    text = cells[cells != 0] if ragged else cells.ravel()
    return str(text[:-2 - len(inner)].data, "ascii")


def _indent1_json(value, indent: str = "") -> str:
    """`json.dumps(value, indent=1)` for a model document, built by joining strings.

    Handles what `save_model` puts in a document: dicts with string keys,
    lists, strings, finite numbers, and unsigned integer arrays (masks and
    binary16 codes), which are spelled as JSON lists by `_int_items`.
    """
    inner = indent + " "
    if isinstance(value, np.ndarray):
        return f"[\n{inner}{_int_items(value, inner)}\n{indent}]" if value.size else "[]"
    if not (isinstance(value, (dict, list)) and value):
        return json.dumps(value)
    pad = f",\n{inner}"
    if isinstance(value, dict):
        body = pad.join(f"{json.dumps(k)}: {_indent1_json(v, inner)}" for k, v in value.items())
        return f"{{\n{inner}{body}\n{indent}}}"
    if set(map(type, value)) == {float}:
        # binary32 decimals and alpha_history: a list's repr joins its items'
        # reprs (json's spelling of finite floats) with ", ", which no such
        # repr contains
        body = repr(value)[1:-1].replace(", ", pad)
    else:
        body = pad.join(_indent1_json(v, inner) for v in value)
    return f"[\n{inner}{body}\n{indent}]"


def save_model(net: Network, path: str, seed: int = 0,
               alpha_history: list[float] | None = None) -> None:
    """Write a network as JSON; the variant follows the precision tag.

    Half-precision networks store raw binary16 bit patterns; full ones
    store 9-significant-digit decimals. `seed` and `alpha_history` are
    lineage bookkeeping carried verbatim. Raises `NumericFailure` for a
    non-finite binary32 parameter or `alpha_history` entry, and
    `IntegrityError` for a mask entry other than 0 or 1 or a masked-off
    weight that would not read back as +0.0, each before the file is
    opened.
    """
    precision = "binary16" if net.precision_tag == HALF else "binary32"
    _, weights_key, bias_key = _VARIANTS[precision]
    alphas = [float(a) for a in (alpha_history or [])]
    if not all(map(math.isfinite, alphas)):
        raise NumericFailure(f"cannot write {path}: alpha_history holds a non-finite value")
    doc = {
        "format_version": FORMAT_VERSION,
        "generation": net.generation,
        "precision": precision,
        "activation": [l.activation for l in net.layers],
        "layers": [],
        "seed": int(seed),
        "alpha_history": alphas,
    }
    for i, layer in enumerate(net.layers):
        out_dim, in_dim = layer.weights.shape
        where = f"{path} layer {i}"
        failure = f"cannot write {path}: layer {i} has a non-finite"
        mask = _file_mask(layer.mask, where)
        weights, bits = _file_values(layer.weights, precision, f"{failure} weight")
        if bits[mask == 0].any():  # the loader's masked-slot rule
            raise IntegrityError(f"{where}: masked-off weight is not +0.0")
        doc["layers"].append({
            "in_dim": in_dim, "out_dim": out_dim, "mask": mask, weights_key: weights,
            bias_key: _file_values(layer.bias, precision, f"{failure} bias")[0],
        })
    write_text(path, _indent1_json(doc) + "\n")


def _require(doc: dict, key: str, kind, where: str):
    if key not in doc:
        raise IntegrityError(f"{where}: missing field {key!r}")
    value = doc[key]
    if kind is int and (isinstance(value, bool) or not isinstance(value, int)):
        raise IntegrityError(f"{where}: field {key!r} must be an integer")
    if kind is list and not isinstance(value, list):
        raise IntegrityError(f"{where}: field {key!r} must be a list")
    return value


def _load_doc(path: str) -> dict:
    doc = read_json(path)
    if not isinstance(doc, dict):
        raise IntegrityError(f"{path}: top level must be a JSON object")
    version = doc.get("format_version")
    if version != FORMAT_VERSION:
        raise FormatVersionUnsupported(f"{path}: format_version {version!r}, supported: {FORMAT_VERSION}")
    return doc


# json.load yields exact ints and floats, so comparing type() sets stands
# in for per-entry isinstance checks and also rejects bool


def _finite_floats(values) -> list[float] | None:
    """`values` as floats if it is a list of finite numbers, else None."""
    if not isinstance(values, list) or not set(map(type, values)) <= {int, float}:
        return None
    try:
        floats = [float(v) for v in values]
    except OverflowError:  # an integer beyond float64
        return None
    return floats if all(map(math.isfinite, floats)) else None


def _read_meta(doc: dict, path: str) -> ModelMeta:
    precision = doc.get("precision")
    if not (isinstance(precision, str) and precision in _VARIANTS):
        raise IntegrityError(f"{path}: precision must be {' or '.join(_VARIANTS)}, got {precision!r}")
    generation = _require(doc, "generation", int, path)
    seed = _require(doc, "seed", int, path)
    alpha_history = _finite_floats(doc.get("alpha_history", []))
    if alpha_history is None:
        raise IntegrityError(f"{path}: field 'alpha_history' must be a list of finite numbers")
    return ModelMeta(generation=generation, precision=precision, seed=seed,
                     alpha_history=alpha_history)


def load_model_meta(path: str) -> ModelMeta:
    return _read_meta(_load_doc(path), path)


def _uint_array(values: list, top: int) -> np.ndarray | None:
    """`values` as an int64 array if every entry is an int in [0, top], else None."""
    if not set(map(type, values)) <= {int}:
        return None
    try:
        a = np.asarray(values, dtype=np.int64)
    except OverflowError:  # an integer beyond int64
        return None
    # two reductions cost less than two comparisons and an np.all
    return a if a.size == 0 or (a.min() >= 0 and a.max() <= top) else None


def _layer_values(entry: dict, key: str, n: int, where: str, kind: str) -> np.ndarray:
    """The `n` values under `key`: a uint8 mask of 0s and 1s (`kind` "mask"),
    or binary32 values read from binary16 codes or decimals (`kind` the precision)."""
    values = _require(entry, key, list, where)
    if len(values) != n:
        raise IntegrityError(f"{where}: {key} has {len(values)} values, expected {n}")
    if kind == "mask":
        mask = _uint_array(values, 1)
        if mask is None:
            raise IntegrityError(f"{where}: {key} entries must be 0 or 1")
        return mask.astype(np.uint8)
    if kind == "binary16":
        codes = _uint_array(values, 0xFFFF)
        if codes is None:
            raise IntegrityError(f"{where}: {key} entries must be integers in [0, 65535]")
        # an all-ones exponent with a non-zero fraction; the infinities
        # 0x7C00 and 0xFC00 stay legal, as quantize --overflow inf writes them
        if (codes & 0x7FFF).max() > 0x7C00:
            raise IntegrityError(f"{where}: {key} holds a binary16 NaN code")
        return decode_array(codes)
    if not set(map(type, values)) <= {int, float}:
        raise IntegrityError(f"{where}: {key} entries must be numbers")
    try:
        with np.errstate(over="ignore"):
            out = np.asarray(values, dtype=np.float64).astype(np.float32)
        finite = np.all(np.isfinite(out))
    except OverflowError:  # an integer literal beyond float64
        finite = False
    if not finite:
        raise IntegrityError(f"{where}: {key} entries must be finite binary32 values")
    return out


def load_model(path: str) -> Network:
    """Reconstruct a network bit-exactly, verifying structural integrity."""
    return load_model_and_meta(path)[0]


def load_model_and_meta(path: str) -> tuple[Network, ModelMeta]:
    """`load_model` and `load_model_meta` from one read of the file."""
    doc = _load_doc(path)
    meta = _read_meta(doc, path)
    tag, weights_key, bias_key = _VARIANTS[meta.precision]
    entries = _require(doc, "layers", list, path)
    if not entries:
        raise IntegrityError(f"{path}: model has no layers")
    activations = _require(doc, "activation", list, path)
    if len(activations) != len(entries):
        raise IntegrityError(f"{path}: {len(activations)} activation names for {len(entries)} layers")
    for a in activations:
        if a not in ACTIVATIONS:
            raise IntegrityError(f"{path}: unknown activation {a!r}")
    layers = []
    prev_out = None
    for i, entry in enumerate(entries):
        where = f"{path} layer {i}"
        if not isinstance(entry, dict):
            raise IntegrityError(f"{where}: must be a JSON object")
        in_dim = _require(entry, "in_dim", int, where)
        out_dim = _require(entry, "out_dim", int, where)
        if in_dim < 1 or out_dim < 1:
            raise IntegrityError(f"{where}: dimensions must be >= 1")
        if prev_out is not None and in_dim != prev_out:
            raise IntegrityError(f"{where}: in_dim {in_dim} does not match previous out_dim {prev_out}")
        prev_out = out_dim
        n = in_dim * out_dim
        mask = _layer_values(entry, "mask", n, where, "mask").reshape(out_dim, in_dim)
        weights = _layer_values(entry, weights_key, n, where, meta.precision).reshape(out_dim, in_dim)
        # +0.0 is the only masked value; binary16 decoding is injective on
        # the codes that load, so this is the code 0x0000 there
        if weights.view(np.uint32)[mask == 0].any():
            raise IntegrityError(f"{where}: masked-off weight is not +0.0")
        bias = _layer_values(entry, bias_key, out_dim, where, meta.precision)
        layers.append(DenseLayer(weights=weights, mask=mask, bias=bias,
                                 activation=activations[i]))
    return Network(layers=layers, generation=meta.generation, precision_tag=tag), meta


# lineage reports


def save_lineage_report(lineage: "Lineage", path: str) -> None:
    """CSV with one row per generation; byte-deterministic for equal input."""
    out = [LINEAGE_HEADER]
    for r in lineage.records:
        out.append(",".join(str(getattr(r, field)) if integer else f"{getattr(r, field):.6g}"
                            for _, field, integer in _LINEAGE_COLUMNS))
    write_text(path, "\n".join(out) + "\n")


def _finite(cell: str) -> float:
    value = float(cell)
    if not math.isfinite(value):
        raise ValueError(f"non-finite value {cell!r}")
    return value


def _uint64(cell: str) -> int:
    # every integer column is a count or a uint64 seed, and report divides counts as floats
    value = int(cell)
    if not 0 <= value < 2**64:
        raise ValueError(f"out of range {cell!r}")
    return value


def load_lineage_report(path: str) -> list[dict]:
    """Parse a lineage CSV back into per-generation dicts (typed values).

    Blank lines are skipped; diagnostics name 1-based file line numbers.
    """
    lines = [(lineno, line) for lineno, line in enumerate(read_text(path).splitlines(), start=1)
             if line.strip()]
    if not lines or lines[0][1] != LINEAGE_HEADER:
        raise ParseError(f"{path}: first line must be exactly the lineage header")
    if len(lines) < 2:
        raise ParseError(f"{path}: no data rows")
    rows = []
    for lineno, line in lines[1:]:
        cells = line.split(",")
        if len(cells) != len(_LINEAGE_COLUMNS):
            raise ParseError(f"{path} line {lineno}: expected {len(_LINEAGE_COLUMNS)} columns, "
                             f"got {len(cells)}")
        row = {}
        for (name, _, integer), cell in zip(_LINEAGE_COLUMNS, cells):
            try:
                row[name] = _uint64(cell) if integer else _finite(cell)
            except ValueError:
                raise ParseError(f"{path} line {lineno}: bad value for {name}: {cell!r}") from None
        rows.append(row)
    return rows
