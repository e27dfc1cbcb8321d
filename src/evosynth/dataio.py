"""Dataset loading, model serialization and lineage report persistence.

Model files are JSON. The binary16 variant stores every weight and bias
as the integer value of its half-precision bit pattern, so round-trips
are bit-exact. The binary32 variant stores decimals with 9 significant
digits, which is enough to reproduce any binary32 value exactly.
"""

from __future__ import annotations

import json
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
    ParseError,
    TruncatedFile,
)
from .halfprec import decode_array, encode_array, PrecisionPolicy
from .netcore import ACTIVATIONS, DenseLayer, FULL, HALF, Network
from .rng import uniform_block

if TYPE_CHECKING:
    from .evolution import Lineage

FORMAT_VERSION = 1

LINEAGE_HEADER = "generation,alpha,active_synapses,total_synapses,macs,train_loss,precision,recall,f1,seed"


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
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
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


def load_idx(images_path: str, labels_path: str, limit: int | None = None) -> Dataset:
    """Big-endian IDX image/label pair, flattened and scaled to [0, 1]."""
    if limit is not None and limit < 1:
        raise InvalidParam(f"limit must be positive, got {limit}")
    try:
        with open(images_path, "rb") as fh:
            img_data = fh.read()
        with open(labels_path, "rb") as fh:
            lab_data = fh.read()
    except OSError as exc:
        raise IoError(f"cannot read IDX input: {exc}") from exc
    (n_img, n_rows, n_cols), img_body = _read_idx_header(img_data, images_path, 0x00000803, 3)
    (n_lab,), lab_body = _read_idx_header(lab_data, labels_path, 0x00000801, 1)
    if n_img != n_lab:
        raise CountMismatch(f"{n_img} images but {n_lab} labels")
    pixels = n_img * n_rows * n_cols
    if len(img_body) < pixels:
        raise TruncatedFile(f"{images_path}: needs {pixels} pixel bytes, has {len(img_body)}")
    if len(lab_body) < n_lab:
        raise TruncatedFile(f"{labels_path}: needs {n_lab} label bytes, has {len(lab_body)}")
    if n_img == 0:
        raise EmptyDataset(f"{images_path} contains no images")
    take = n_img if limit is None else min(limit, n_img)
    raw = np.frombuffer(img_body[:take * n_rows * n_cols], dtype=np.uint8)
    features = (raw.astype(np.float32) / np.float32(255.0)).reshape(take, n_rows * n_cols)
    labels = np.frombuffer(lab_body[:take], dtype=np.uint8).astype(np.int64)
    return Dataset(features=features, labels=labels, n_classes=int(labels.max()) + 1)


def synth_gaussians(n_per_class: int, n_features: int, separation: float, seed: int) -> Dataset:
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


def _int_list(a: np.ndarray) -> list[int]:
    return [int(v) for v in a.reshape(-1)]


def _f32_decimal_list(a: np.ndarray) -> list[float]:
    # 9 significant digits reproduce any binary32 value exactly
    return [float(f"{float(v):.9g}") for v in a.reshape(-1)]


def save_model(net: Network, path: str, seed: int = 0,
               alpha_history: list[float] | None = None) -> None:
    """Write a network as JSON; the variant follows the precision tag.

    Half-precision networks store raw binary16 bit patterns; full ones
    store 9-significant-digit decimals. `seed` and `alpha_history` are
    lineage bookkeeping carried verbatim.
    """
    doc = {
        "format_version": FORMAT_VERSION,
        "generation": net.generation,
        "precision": "binary16" if net.precision_tag == HALF else "binary32",
        "activation": [l.activation for l in net.layers],
        "layers": [],
        "seed": int(seed),
        "alpha_history": [float(a) for a in (alpha_history or [])],
    }
    policy = PrecisionPolicy()
    for layer in net.layers:
        out_dim, in_dim = layer.weights.shape
        entry = {"in_dim": in_dim, "out_dim": out_dim,
                 "mask": _int_list(layer.mask)}
        if net.precision_tag == HALF:
            entry["weights_f16"] = _int_list(encode_array(layer.weights, policy))
            entry["bias_f16"] = _int_list(encode_array(layer.bias, policy))
        else:
            entry["weights_f32"] = _f32_decimal_list(layer.weights)
            entry["bias_f32"] = _f32_decimal_list(layer.bias)
        doc["layers"].append(entry)
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


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
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise IntegrityError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise IntegrityError(f"{path}: top level must be a JSON object")
    version = doc.get("format_version")
    if version != FORMAT_VERSION:
        raise FormatVersionUnsupported(f"{path}: format_version {version!r}, supported: 1")
    return doc


def _read_meta(doc: dict, path: str) -> ModelMeta:
    precision = doc.get("precision")
    if precision not in ("binary16", "binary32"):
        raise IntegrityError(f"{path}: precision must be binary16 or binary32, got {precision!r}")
    generation = _require(doc, "generation", int, path)
    seed = _require(doc, "seed", int, path)
    alpha_history = doc.get("alpha_history", [])
    if not isinstance(alpha_history, list) or any(
            isinstance(a, bool) or not isinstance(a, (int, float)) for a in alpha_history):
        raise IntegrityError(f"{path}: field 'alpha_history' must be a list of numbers")
    return ModelMeta(generation=generation, precision=precision, seed=seed,
                     alpha_history=[float(a) for a in alpha_history])


def load_model_meta(path: str) -> ModelMeta:
    return _read_meta(_load_doc(path), path)


def _layer_values(entry: dict, key: str, n: int, where: str, as_bits: bool) -> np.ndarray:
    values = _require(entry, key, list, where)
    if len(values) != n:
        raise IntegrityError(f"{where}: {key} has {len(values)} values, expected {n}")
    if as_bits:
        for v in values:
            if isinstance(v, bool) or not isinstance(v, int) or not 0 <= v <= 0xFFFF:
                raise IntegrityError(f"{where}: {key} entries must be integers in [0, 65535]")
        return np.asarray(values, dtype=np.uint16)
    for v in values:
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise IntegrityError(f"{where}: {key} entries must be numbers")
    return np.asarray(values, dtype=np.float64).astype(np.float32)


def load_model(path: str) -> Network:
    """Reconstruct a network bit-exactly, verifying structural integrity."""
    return load_model_and_meta(path)[0]


def load_model_and_meta(path: str) -> tuple[Network, ModelMeta]:
    """`load_model` and `load_model_meta` from one read of the file."""
    doc = _load_doc(path)
    meta = _read_meta(doc, path)
    half = meta.precision == "binary16"
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
        mask_values = _require(entry, "mask", list, where)
        if len(mask_values) != n:
            raise IntegrityError(f"{where}: mask has {len(mask_values)} values, expected {n}")
        for v in mask_values:
            if isinstance(v, bool) or v not in (0, 1):
                raise IntegrityError(f"{where}: mask entries must be 0 or 1")
        mask = np.asarray(mask_values, dtype=np.uint8).reshape(out_dim, in_dim)
        if half:
            codes = _layer_values(entry, "weights_f16", n, where, as_bits=True).reshape(out_dim, in_dim)
            if np.any(codes[mask == 0] != 0):
                raise IntegrityError(f"{where}: masked-off weight with non-zero half code")
            weights = decode_array(codes)
            bias = decode_array(_layer_values(entry, "bias_f16", out_dim, where, as_bits=True))
        else:
            weights = _layer_values(entry, "weights_f32", n, where, as_bits=False).reshape(out_dim, in_dim)
            if np.any(weights[mask == 0] != 0):
                raise IntegrityError(f"{where}: masked-off weight with non-zero value")
            bias = _layer_values(entry, "bias_f32", out_dim, where, as_bits=False)
        layers.append(DenseLayer(weights=weights, mask=mask, bias=bias,
                                 activation=activations[i]))
    return Network(layers=layers, generation=meta.generation,
                   precision_tag=HALF if half else FULL), meta


# lineage reports


def _fmt_real(x: float) -> str:
    return f"{x:.6g}"


def save_lineage_report(lineage: "Lineage", path: str) -> None:
    """CSV with one row per generation; byte-deterministic for equal input."""
    out = [LINEAGE_HEADER]
    for r in lineage.records:
        out.append(",".join([
            str(r.generation),
            _fmt_real(r.alpha_used),
            str(r.active_synapses),
            str(r.total_synapses),
            str(r.macs),
            _fmt_real(r.train_loss),
            _fmt_real(r.precision_metric),
            _fmt_real(r.recall_metric),
            _fmt_real(r.f1),
            str(r.seed),
        ]))
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(out) + "\n")
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


_INT_COLUMNS = ("generation", "active_synapses", "total_synapses", "macs", "seed")
_REAL_COLUMNS = ("alpha", "train_loss", "precision", "recall", "f1")


def load_lineage_report(path: str) -> list[dict]:
    """Parse a lineage CSV back into per-generation dicts (typed values)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [line for line in fh.read().splitlines() if line.strip()]
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    if not lines or lines[0] != LINEAGE_HEADER:
        raise ParseError(f"{path}: first line must be exactly the lineage header")
    if len(lines) < 2:
        raise ParseError(f"{path}: no data rows")
    names = LINEAGE_HEADER.split(",")
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        if len(cells) != len(names):
            raise ParseError(f"{path} line {lineno}: expected {len(names)} columns, got {len(cells)}")
        row = {}
        for name, cell in zip(names, cells):
            try:
                row[name] = int(cell) if name in _INT_COLUMNS else float(cell)
            except ValueError:
                raise ParseError(f"{path} line {lineno}: bad value for {name}: {cell!r}") from None
        rows.append(row)
    return rows
