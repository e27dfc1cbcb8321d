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
the repr of a Python float list. Before the file is opened, `save_model`
raises `IntegrityError` for a structure that the loaders reject: a
generation that is not an integer, a seed that is not an integer in
[0, 2**64) (it rebuilds the validation split, and the stream would reduce
it modulo 2**64; as for the generation, a `bool` is rejected and a numpy
integer is taken, so the stored seed is the one passed), weights that
are not 2-D, layer sizes, chaining or activation names that
`netcore.check_spec` rejects, or a mask or bias whose shape does not fit
its weights. Next it raises `NumericFailure` for a value that the
loaders reject with `IntegrityError`: a non-finite binary32 weight, bias
or `alpha_history` entry, which JSON cannot spell, or a binary16 NaN
(infinities stay writable). Then it applies the loader's mask rules: a
mask entry other than 0 or 1, or a masked-off weight that would not read
back as +0.0, raises `IntegrityError` with the loader's message, and a
0/1 mask of any dtype is written as the integers 0 and 1. An
`alpha_history` entry must be a real number other than a `bool` (a numpy
float or integer is taken); a string, `None` or a `bool` raises
`IntegrityError` before the file is opened.

The loaders read a model file's text once. A list under "mask",
"weights_f16" or "bias_f16" that is spelled byte for byte as `save_model`
spells it is decoded by numpy (`_decoded_doc`); any other valid JSON
spelling of the same document, and the binary32 decimals and
`alpha_history` of every file, go through json. The loaders apply the
same rules, with the same messages, to the values either way.

Every text file the package reads or writes goes through `read_text`,
`read_json` and `write_text`: UTF-8 without newline translation, and a
library error, never a traceback, for each way a read or write can fail.
"""

from __future__ import annotations

import json
import math
import numbers
import re
import struct
import warnings
from dataclasses import dataclass
from typing import get_type_hints

import numpy as np

from .errors import (
    BadMagic,
    CountMismatch,
    EmptyDataset,
    FormatVersionUnsupported,
    IntegrityError,
    InvalidParam,
    InvalidSpec,
    IoError,
    NonFiniteFeature,
    NumericFailure,
    ParseError,
    TruncatedFile,
)
from .halfprec import decode_array, encode_array
from .netcore import ACTIVATIONS, DenseLayer, FULL, HALF, LayerSpec, Network, check_spec
from .rng import uniform_at, uniform_block

FORMAT_VERSION = 1

# a model file's precision -> (Network.precision_tag, weights key, bias key)
_VARIANTS = {"binary16": (HALF, "weights_f16", "bias_f16"),
             "binary32": (FULL, "weights_f32", "bias_f32")}


def read_text(path: str) -> str:
    """The UTF-8 text of `path`; `IoError` if unreadable, `ParseError` if not UTF-8."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8 text: {exc}") from exc


def read_json(path: str, invalid=IntegrityError, unreadable=IoError, label: str = "",
              shortcut=None):
    """The JSON document in `path`, with no `NaN` or `Infinity` token.

    A file that cannot be opened raises `unreadable`; one that is not
    UTF-8, not JSON, nested too deeply to parse or holds a bare `NaN`,
    `Infinity` or `-Infinity` raises `invalid`. Messages name the file
    as `label` followed by the path. `shortcut`, if given, maps the
    file's text to its document, or to None to leave the text to json.
    """
    def reject(token):
        raise invalid(f"{label}{path}: {token} is not a valid value")

    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise unreadable(f"cannot read {label}{path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise invalid(f"{label}{path} is not valid JSON: {exc}") from exc
    doc = shortcut(text) if shortcut else None
    if doc is not None:
        return doc
    try:
        return json.loads(text, parse_constant=reject)
    except (ValueError, RecursionError) as exc:
        # ValueError: malformed JSON or an integer literal beyond Python's
        # digit limit; RecursionError: deep nesting
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

    def __len__(self) -> int:
        return len(self.labels)


@dataclass
class ModelMeta:
    """Bookkeeping stored alongside a model's parameters."""

    generation: int
    precision: str  # "binary16" or "binary32"
    seed: int
    alpha_history: list[float]


@dataclass
class GenerationRecord:
    """One lineage row; its fields, in order, are the columns of lineage.csv.
    Metrics are macro averages over the validation split of the stored
    (quantized) model; train_loss is the pre-quantization network's mean
    loss over its training split."""

    generation: int
    alpha: float
    active_synapses: int
    total_synapses: int
    macs: int
    train_loss: float
    precision: float
    recall: float
    f1: float
    seed: int


_LINEAGE_COLUMNS = get_type_hints(GenerationRecord)  # column name -> int or float, in order
LINEAGE_HEADER = ",".join(_LINEAGE_COLUMNS)


def load_csv_dataset(path: str) -> Dataset:
    """CSV with a header, real-valued feature columns and a final `label` column.

    Row numbers in diagnostics are 1-based file line numbers (the header
    is line 1).
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
    linenos = []
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
        if not 0 <= label < 2**63:
            raise ParseError(f"{path} line {lineno}: label must be non-negative and fit int64, "
                             f"got {label}")
        rows.append(values)
        labels.append(label)
        linenos.append(lineno)
    if not rows:
        raise EmptyDataset(f"{path} has a header but no data rows")
    with np.errstate(over="ignore"):
        # overflow to inf is caught by the finiteness check below
        features = np.asarray(rows, dtype=np.float64).astype(np.float32)
    bad = ~np.isfinite(features)
    if bad.any():
        row = linenos[int(np.argwhere(bad)[0][0])]
        raise NonFiniteFeature(f"{path} row {row}: non-finite feature value")
    return Dataset(features=features, labels=np.asarray(labels, dtype=np.int64))


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
    return Dataset(features=features, labels=classes)


def check_synth_params(n_per_class: int, n_features: int, separation: float,
                       seed: int = 0) -> None:
    """Raise `InvalidParam` unless `synth_gaussians` can build this dataset.

    A class centre beyond binary32 would cast to an infinite feature. One
    within it cannot: |z| <= sqrt(106 ln 2) < 9 moves a value by far less
    than the half ulp of the largest binary32 value. The stream reduces a
    seed modulo 2**64, so one outside [0, 2**64) would alias another.
    """
    if not 0 <= seed < 2**64:
        raise InvalidParam(f"seed must be a 64-bit unsigned integer, got {seed}")
    if n_per_class < 1:
        raise InvalidParam(f"n_per_class must be >= 1, got {n_per_class}")
    if n_features < 1:
        raise InvalidParam(f"n_features must be >= 1, got {n_features}")
    if not separation > 0:
        raise InvalidParam(f"separation must be positive, got {separation}")
    if separation > 2.0 * float(np.finfo(np.float32).max):  # exact, also for a huge int
        raise InvalidParam(f"separation / 2 must not exceed the largest binary32 value, "
                           f"got separation {separation}")
    count = 2 * n_per_class * n_features
    if count > np.iinfo(np.intp).max // 8:  # numpy cannot even size the float64 array
        raise InvalidParam(f"2 * n_per_class * n_features = {count} values exceed any address space")


def _box_muller(u: np.ndarray) -> np.ndarray:
    """Normal deviates from the even-length uniforms ``u``, interleaved:
    deviates 2i and 2i + 1 are the cosine and the sine of the Box-Muller
    transform of uniforms 2i and 2i + 1."""
    u1, u2 = u[0::2], u[1::2]
    radius = np.sqrt(-2.0 * np.log1p(-u1))
    angle = 2.0 * np.pi * u2
    z = np.empty(u.size, dtype=np.float64)
    z[0::2] = radius * np.cos(angle)
    z[1::2] = radius * np.sin(angle)
    return z


def _two_classes(features: np.ndarray, second: np.ndarray, separation: float) -> Dataset:
    """The float32 dataset of the float64 ``features``: row i is in class 1
    where ``second[i]``, else in class 0, and its feature 0 moves (in place)
    by +separation/2 or -separation/2."""
    features[~second, 0] -= separation / 2.0
    features[second, 0] += separation / 2.0
    return Dataset(features=features.astype(np.float32), labels=second.astype(np.int64))


def synth_gaussians(n_per_class: int, n_features: int, separation: float,
                    seed: int = 0) -> Dataset:
    """Two unit-variance Gaussian blobs at -+separation/2 along feature 0.

    Class 0 first, then class 1. Flat value v of the row-major features is
    deviate v of ``_box_muller`` over the first uniforms of the stream: it
    is made from uniforms 2 * (v // 2) and 2 * (v // 2) + 1.
    """
    check_synth_params(n_per_class, n_features, separation, seed)
    count = 2 * n_per_class * n_features
    z = _box_muller(uniform_block(seed, count + count % 2))
    return _two_classes(z[:count].reshape(2 * n_per_class, n_features),
                        np.arange(2 * n_per_class) >= n_per_class, separation)


def synth_gaussian_rows(n_per_class: int, n_features: int, separation: float,
                        seed: int = 0, *, rows) -> Dataset:
    """Rows `rows` of `synth_gaussians(n_per_class, n_features, separation, seed)`.

    Bit for bit the features and labels of the whole dataset indexed by
    `rows` (any 1-D integers in [0, 2 * n_per_class), in any order, with
    repeats), computed from only the stream draws those rows use: row r
    starts at flat value r * n_features, and its values come from the
    (n_features + 1) // 2 Box-Muller pairs from (r * n_features) // 2 on,
    read with `uniform_at`. For odd `n_features` a pair can span two rows.
    """
    check_synth_params(n_per_class, n_features, separation, seed)
    rows = np.asarray(rows)
    if rows.ndim != 1 or (rows.size and (rows.dtype.kind not in "iu" or rows.min() < 0
                                          or rows.max() >= 2 * n_per_class)):
        raise InvalidParam(f"rows must be 1-D integers in [0, {2 * n_per_class})")
    start = rows.astype(np.int64) * n_features
    width = (n_features + 1) // 2
    first = 2 * (start // 2)
    z = _box_muller(uniform_at(seed, (first[:, None] + np.arange(2 * width)).ravel()))
    features = np.take_along_axis(z.reshape(len(rows), 2 * width),
                                  (start - first)[:, None] + np.arange(n_features), axis=1)
    return _two_classes(features, rows >= n_per_class, separation)


# model files


def _file_values(values: np.ndarray, precision: str, failure: str):
    """`values` as a `precision` model file spells them, and the bit patterns
    they read back as: binary16 codes (uint16) for both, or binary32 decimals
    and the uint32 bits of their binary32 values. `NumericFailure(failure)`
    for a value the loader rejects: a binary16 NaN, or a non-finite binary32
    value, which JSON cannot spell."""
    if precision == "binary16":
        codes = encode_array(values).ravel()
        if _has_nan_code(codes):
            raise NumericFailure(failure)
        return codes, codes
    with np.errstate(over="ignore"):  # a float64 value beyond binary32 becomes inf
        f32 = np.ascontiguousarray(values, dtype=np.float32)
    if not np.isfinite(f32).all():
        raise NumericFailure(failure)
    # 9 significant digits reproduce any binary32 value exactly; a memoryview
    # yields Python floats one at a time, with no numpy scalar and no list
    decimals = [float(f"{v:.9g}") for v in memoryview(f32.ravel())]
    return decimals, f32.view(np.uint32).ravel()


def _has_nan_code(codes: np.ndarray) -> bool:
    """Whether binary16 `codes` hold a NaN (all-ones exponent, non-zero fraction);
    the infinities 0x7C00 and 0xFC00 stay legal, as quantize --overflow inf writes them."""
    return bool(codes.size and (codes & 0x7FFF).max() > 0x7C00)


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
    lineage bookkeeping carried verbatim. Raises `IntegrityError` for a
    structure the loader rejects (see the module docstring), then
    `NumericFailure` for a binary16 NaN or a non-finite binary32 parameter
    or `alpha_history` entry, then `IntegrityError` for a mask entry other
    than 0 or 1 or a masked-off weight that would not read back as +0.0,
    each before the file is opened.
    """
    if isinstance(net.generation, bool) or not isinstance(net.generation, (int, np.integer)):
        raise IntegrityError(f"{path}: field 'generation' must be an integer")
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or not 0 <= seed < 2**64:
        raise IntegrityError(f"{path}: field 'seed' must be a 64-bit unsigned integer")
    for i, l in enumerate(net.layers):
        if l.weights.ndim != 2:
            raise IntegrityError(f"{path} layer {i}: weights must be 2-D, got shape {l.weights.shape}")
    try:  # the loader's size, chain and activation rules
        check_spec([LayerSpec(l.weights.shape[1], l.weights.shape[0], l.activation)
                    for l in net.layers])
    except InvalidSpec as exc:
        raise IntegrityError(f"{path}: {exc}") from None
    for i, l in enumerate(net.layers):
        if l.mask.shape != l.weights.shape or l.bias.shape != l.weights.shape[:1]:
            raise IntegrityError(f"{path} layer {i}: mask or bias does not fit weights {l.weights.shape}")
    precision = "binary16" if net.precision_tag == HALF else "binary32"
    _, weights_key, bias_key = _VARIANTS[precision]
    bad = "NaN" if precision == "binary16" else "non-finite"
    alphas = list(alpha_history or [])
    if not all(isinstance(a, numbers.Real) and not isinstance(a, bool) for a in alphas):
        raise IntegrityError(f"{path}: field 'alpha_history' must be a list of finite numbers")
    alphas = [float(a) for a in alphas]
    if not all(map(math.isfinite, alphas)):
        raise NumericFailure(f"cannot write {path}: alpha_history holds a non-finite value")
    doc = {
        "format_version": FORMAT_VERSION,
        "generation": int(net.generation),
        "precision": precision,
        "activation": [l.activation for l in net.layers],
        "layers": [],
        "seed": int(seed),
        "alpha_history": alphas,
    }
    for i, layer in enumerate(net.layers):
        out_dim, in_dim = layer.weights.shape
        where = f"{path} layer {i}"
        failure = f"cannot write {path}: layer {i} has a {bad}"
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
    if kind is list and not isinstance(value, (list, np.ndarray)):  # an array from _int_list
        raise IntegrityError(f"{where}: field {key!r} must be a list")
    return value


# the lists save_model spells with _int_items, which the loaders read with
# numpy when a file spells them that way
_INT_KEYS = ("mask", *_VARIANTS["binary16"][1:])
_INT_LIST = re.compile(r'"(%s)": \[\n' % "|".join(_INT_KEYS))


def _int_list(text: str, start: int, indent: str):
    """The int64 values of the list whose first line starts at `start`, and
    the end of the list, if it is spelled as `_indent1_json` spells a
    non-empty unsigned array at `indent`; else None.

    `np.fromstring` is lenient (it takes `01`, `+1` and a trailing comma,
    and clamps beyond int64), so the gate is the writer itself: the values
    must spell the list's exact text again. numpy 1.x warns about data it
    cannot read and returns what it read before it, where 2.x raises.
    Such a list holds no `"`, so the search for its end stops at the next
    one, and the lists of a file are searched in linear time in all.
    """
    inner = indent + " "
    if indent.strip(" ") or not text.startswith(inner, start):
        return None
    quote = text.find('"', start)
    close = text.find("\n" + indent + "]", start, len(text) if quote < 0 else quote)
    if close < 0:
        return None
    body = text[start + len(inner):close]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)
        try:
            values = np.fromstring(body, dtype=np.int64, sep=",")
        except ValueError:
            return None
    if not values.size or values.min() < 0:
        return None
    # the writer's arithmetic is fastest in the narrowest dtype (a mask's uint8)
    if _int_items(values.astype(np.min_scalar_type(int(values.max()))), inner) != body:
        return None
    return values, close + len(indent) + 2


def _decoded_doc(text: str) -> dict | None:
    """The model document of `text`, with each list under `_INT_KEYS` that
    `_int_list` reads held as its int64 array, or None to leave the whole
    text to json.

    Each such list is swapped for a `NaN` token (and a raw newline, so that
    a list inside a string still fails to parse), and `parse_constant` puts
    the arrays back in text order. The text is left to json if the rest
    does not parse (json then reports on the original text), if it holds a
    `NaN` token of its own (one token more than arrays fails that parse),
    or if any array lands elsewhere than `layers[i][key]`, where no message
    prints a value.
    """
    pieces, arrays, at = [], [], 0
    for m in _INT_LIST.finditer(text):
        found = _int_list(text, m.end(), text[text.rfind("\n", 0, m.start()) + 1:m.start()])
        if found:
            pieces += [text[at:m.end() - 2], "NaN\n"]
            arrays.append((m[1], found[0]))
            at = found[1]
    if not arrays:
        return None
    pending = [values for _, values in reversed(arrays)]

    def place(token):
        if token != "NaN" or not pending:
            raise ValueError(token)
        return pending.pop()

    try:
        doc = json.loads("".join(pieces) + text[at:], parse_constant=place)
    except (ValueError, RecursionError):
        return None
    layers = doc.get("layers") if isinstance(doc, dict) else None
    placed = {(key, id(entry[key])) for entry in (layers if isinstance(layers, list) else ())
              if isinstance(entry, dict) for key in _INT_KEYS
              if isinstance(entry.get(key), np.ndarray)}
    return doc if placed == {(key, id(values)) for key, values in arrays} else None


def _load_doc(path: str) -> dict:
    doc = read_json(path, shortcut=_decoded_doc)
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
    if not 0 <= seed < 2**64:
        raise IntegrityError(f"{path}: field 'seed' must be a 64-bit unsigned integer")
    alpha_history = _finite_floats(doc.get("alpha_history", []))
    if alpha_history is None:
        raise IntegrityError(f"{path}: field 'alpha_history' must be a list of finite numbers")
    return ModelMeta(generation=generation, precision=precision, seed=seed,
                     alpha_history=alpha_history)


def load_model_meta(path: str) -> ModelMeta:
    return _read_meta(_load_doc(path), path)


def _uint_array(values: list | np.ndarray, top: int) -> np.ndarray | None:
    """`values` (a json list or an int64 array from `_int_list`) as an int64
    array if every entry is an int in [0, top], else None."""
    if isinstance(values, np.ndarray):
        a = values
    elif not set(map(type, values)) <= {int}:
        return None
    else:
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
        if _has_nan_code(codes):
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


def save_lineage_report(records: list[GenerationRecord], path: str) -> None:
    """CSV with one row per record, reals at 6 significant digits; re-saving
    what `load_lineage_report` reads from a file this wrote gives its bytes."""
    out = [LINEAGE_HEADER]
    for r in records:
        out.append(",".join(str(getattr(r, name)) if kind is int else f"{getattr(r, name):.6g}"
                            for name, kind in _LINEAGE_COLUMNS.items()))
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


def load_lineage_report(path: str) -> list[GenerationRecord]:
    """Parse a lineage CSV back into one `GenerationRecord` per data row.

    Blank lines are skipped; diagnostics name 1-based file line numbers.
    """
    lines = [(lineno, line) for lineno, line in enumerate(read_text(path).splitlines(), start=1)
             if line.strip()]
    if not lines or lines[0][1] != LINEAGE_HEADER:
        raise ParseError(f"{path}: first line must be exactly the lineage header")
    if len(lines) < 2:
        raise ParseError(f"{path}: no data rows")
    records = []
    for lineno, line in lines[1:]:
        cells = line.split(",")
        if len(cells) != len(_LINEAGE_COLUMNS):
            raise ParseError(f"{path} line {lineno}: expected {len(_LINEAGE_COLUMNS)} columns, "
                             f"got {len(cells)}")
        row = {}
        for (name, kind), cell in zip(_LINEAGE_COLUMNS.items(), cells):
            try:
                row[name] = _uint64(cell) if kind is int else _finite(cell)
            except ValueError:
                raise ParseError(f"{path} line {lineno}: bad value for {name}: {cell!r}") from None
        records.append(GenerationRecord(**row))
    return records
