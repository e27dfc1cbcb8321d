"""Command-line front end.

Subcommands: evolve, quantize, metrics, report, inspect. Exit codes are
0 success, 1 usage or configuration error, 2 data error, 3 numeric
failure; diagnostics go to the error stream, data to files or standard
output. Every command is deterministic given its inputs and flags.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import json
import os
import sys
import typing
from dataclasses import dataclass, is_dataclass, replace

import numpy as np

from .dataio import (
    Dataset,
    check_synth_params,
    load_csv_dataset,
    load_idx,
    load_lineage_report,
    load_model_and_meta,
    read_json,
    save_model,
    synth_gaussian_rows,
    synth_gaussians,
    write_text,
)
from .errors import ConfigError, EvoSynthError, IntegrityError, InvalidSpec, IoError, ParseError
from .evolution import EvolutionConfig, evolve, training_seed
from .halfprec import SATURATE, TO_INFINITY, quantize_network
from .netcore import (
    LayerSpec,
    TrainConfig,
    check_spec,
    count_active_synapses,
    evaluate_classifier,
    inference_cost,
    live_counts,
    validation_split,
)


# configuration parsing (strict: unknown keys are errors). Only JSON types
# are checked here; ranges are checked by the dataclasses and loaders.

_KIND_NAMES = {int: "an integer", float: "a finite number", bool: "a boolean", str: "a string",
               list: "a list", dict: "an object", type(None): "null"}

# per-run training seeds are derived from the master seed, never configured
_NOT_CONFIGURABLE = {TrainConfig: ("seed",)}

# dataset source type -> its loader; the loader's parameters are the source's keys
_SOURCES = {"synthetic": synth_gaussians, "csv": load_csv_dataset, "idx": load_idx}


def _is_a(value, kind) -> bool:
    if kind is type(None):
        return value is None
    if isinstance(value, bool):
        return kind is bool
    if kind is float:  # finite: 1e999 parses as infinity, and 10**400 has no binary64 value
        return isinstance(value, (int, float)) and abs(value) <= sys.float_info.max
    return isinstance(value, kind)


def _typed(value, kind, where: str):
    if is_dataclass(kind):
        return _build(kind, value, where)
    options = typing.get_args(kind) or (kind,)
    if not any(_is_a(value, k) for k in options):
        raise ConfigError(f"{where} must be {' or '.join(_KIND_NAMES[k] for k in options)}")
    return value


@functools.cache
def _schema(target) -> tuple[dict, tuple]:
    """(type by key, required keys) of a dataclass's fields or a loader's parameters.

    Keys are the parameter names of ``target``'s signature; a key without
    a default is required. The returned dict is shared: do not mutate it.
    """
    hints = typing.get_type_hints(target)
    params = [p for p in inspect.signature(target).parameters.values()
              if p.name not in _NOT_CONFIGURABLE.get(target, ())]
    return ({p.name: hints[p.name] for p in params},
            tuple(p.name for p in params if p.default is inspect.Parameter.empty))


def _check_object(doc, where: str, kinds: dict, required) -> dict:
    """The keys of `doc` type-checked against `kinds`; unknown or missing keys are errors."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{where} must be an object")
    unknown = sorted(set(doc) - set(kinds))
    if unknown:
        raise ConfigError(f"{where}: unknown key(s): {', '.join(unknown)}")
    for key in required:
        if key not in doc:
            raise ConfigError(f"{where}: missing required key {key!r}")
    return {key: _typed(value, kinds[key], f"{where}: {key}") for key, value in doc.items()}


def _build(cls, doc, where: str):
    """An instance of dataclass `cls` from a JSON object keyed by its field names."""
    values = _check_object(doc, where, *_schema(cls))
    try:
        return cls(**values)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _dataset_source(doc, where: str) -> dict:
    kind = doc.get("type") if isinstance(doc, dict) else None
    if not isinstance(kind, str) or kind not in _SOURCES:
        raise ConfigError(f"{where} must be an object with type synthetic, csv or idx, "
                          f"got {kind!r}")
    kinds, required = _schema(_SOURCES[kind])
    return _check_object(doc, where, {"type": str, **kinds}, required)


@dataclass
class RunConfig:
    layer_specs: list[LayerSpec]
    dataset_source: dict
    evolution: EvolutionConfig
    out_dir: str | None


def load_run_config(path: str) -> RunConfig:
    where = f"config {path}"
    doc = _check_object(read_json(path, ConfigError, ConfigError, "config "), where,
                        {"layers": list, "dataset": dict, "evolution": EvolutionConfig,
                         "out_dir": str}, required=("layers", "dataset"))
    specs = [_build(LayerSpec, entry, f"{where}: layers[{i}]")
             for i, entry in enumerate(doc["layers"])]
    try:
        check_spec(specs)
    except InvalidSpec as exc:
        raise ConfigError(f"{where}: layers: {exc}") from exc
    return RunConfig(
        layer_specs=specs,
        dataset_source=_dataset_source(doc["dataset"], f"{where}: dataset"),
        evolution=doc.get("evolution", EvolutionConfig()),
        out_dir=doc.get("out_dir"),
    )


def build_dataset(source: dict) -> Dataset:
    """The dataset a checked source describes: its loader called with its keys."""
    rest = {key: value for key, value in source.items() if key != "type"}
    return _SOURCES[source["type"]](**rest)


def _load_data_arg(arg: str, pick=None) -> Dataset:
    """--data accepts a CSV path or a JSON dataset-source document.

    ``pick(n)``, if given, returns the rows of an n-row dataset to keep. A
    synthetic source then synthesizes only those rows; CSV and IDX sources
    are loaded, and so checked, whole before they are indexed.
    """
    if arg.endswith(".csv"):
        dataset = load_csv_dataset(arg)
    else:
        source = _dataset_source(read_json(arg, ConfigError, ConfigError, "data source "),
                                 f"data source {arg}")
        if pick is not None and source["type"] == "synthetic":
            rest = {key: value for key, value in source.items() if key != "type"}
            # before pick: an oversized source must fail here, not in drawing its split
            check_synth_params(**rest)
            return synth_gaussian_rows(**rest, rows=pick(2 * rest["n_per_class"]))
        dataset = build_dataset(source)
    if pick is None:
        return dataset
    rows = pick(len(dataset))
    return Dataset(features=dataset.features[rows], labels=dataset.labels[rows])


# deterministic SVG line charts


_SVG_W, _SVG_H = 800, 500
_PLOT = (70.0, 40.0, float(_SVG_W - 20), float(_SVG_H - 55))  # left, top, right, bottom
_COLORS = ("#1f77b4", "#d62728")


def _coord(v: float) -> str:
    return f"{v:.2f}"


def _tick(v: float) -> str:
    return f"{v:.6g}"


def _project(value: float, lo: float, hi: float, a: float, b: float) -> float:
    t = 0.5 if hi == lo else (value - lo) / (hi - lo)
    return a + t * (b - a)


def write_line_chart(path: str, title: str, x_label: str, y_label: str,
                     series: list[tuple[str, list[float], list[float]]]) -> None:
    """Self-contained 800x500 SVG with min/max axis ticks; byte-deterministic."""
    left, top, right, bottom = _PLOT
    xs = [x for _, sx, _ in series for x in sx]
    ys = [y for _, _, sy in series for y in sy]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_W}" height="{_SVG_H}" '
        f'viewBox="0 0 {_SVG_W} {_SVG_H}">',
        f'<rect width="{_SVG_W}" height="{_SVG_H}" fill="#ffffff"/>',
        f'<text x="{_SVG_W // 2}" y="24" font-family="sans-serif" font-size="16" '
        f'text-anchor="middle">{title}</text>',
        f'<line x1="{_coord(left)}" y1="{_coord(bottom)}" x2="{_coord(right)}" '
        f'y2="{_coord(bottom)}" stroke="#000000"/>',
        f'<line x1="{_coord(left)}" y1="{_coord(top)}" x2="{_coord(left)}" '
        f'y2="{_coord(bottom)}" stroke="#000000"/>',
        f'<text x="{_coord(left)}" y="{_coord(bottom + 18)}" font-family="sans-serif" '
        f'font-size="11" text-anchor="middle">{_tick(x_lo)}</text>',
        f'<text x="{_coord(right)}" y="{_coord(bottom + 18)}" font-family="sans-serif" '
        f'font-size="11" text-anchor="middle">{_tick(x_hi)}</text>',
        f'<text x="{_coord(left - 6)}" y="{_coord(bottom + 4)}" font-family="sans-serif" '
        f'font-size="11" text-anchor="end">{_tick(y_lo)}</text>',
        f'<text x="{_coord(left - 6)}" y="{_coord(top + 4)}" font-family="sans-serif" '
        f'font-size="11" text-anchor="end">{_tick(y_hi)}</text>',
        f'<text x="{_coord((left + right) / 2)}" y="{_SVG_H - 12}" font-family="sans-serif" '
        f'font-size="12" text-anchor="middle">{x_label}</text>',
        f'<text x="16" y="{_coord((top + bottom) / 2)}" font-family="sans-serif" '
        f'font-size="12" text-anchor="middle" '
        f'transform="rotate(-90 16 {_coord((top + bottom) / 2)})">{y_label}</text>',
    ]
    for idx, (name, sx, sy) in enumerate(series):
        color = _COLORS[idx % len(_COLORS)]
        points = []
        for x, y in zip(sx, sy):
            px = _project(x, x_lo, x_hi, left, right)
            py = _project(y, y_lo, y_hi, bottom, top)
            points.append((px, py))
        if len(points) > 1:
            joined = " ".join(f"{_coord(px)},{_coord(py)}" for px, py in points)
            parts.append(f'<polyline points="{joined}" fill="none" stroke="{color}" '
                         f'stroke-width="2"/>')
        for px, py in points:
            parts.append(f'<circle cx="{_coord(px)}" cy="{_coord(py)}" r="3" fill="{color}"/>')
        parts.append(f'<text x="{_coord(right - 8)}" y="{_coord(top + 16 + 16 * idx)}" '
                     f'font-family="sans-serif" font-size="12" text-anchor="end" '
                     f'fill="{color}">{name}</text>')
    parts.append("</svg>")
    write_text(path, "\n".join(parts) + "\n")


# subcommands


def _make_dir(path: str) -> None:
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise IoError(f"cannot create directory {path}: {exc}") from exc


def _lineage_ratios(first, last) -> dict:
    """A lineage's two ratios, from its first and last `GenerationRecord`."""
    return {"synapse_reduction_ratio": first.active_synapses / last.active_synapses,
            "macs_speedup_proxy": first.macs / last.macs}


def cmd_evolve(args) -> int:
    run_cfg = load_run_config(args.config)
    cfg = run_cfg.evolution
    if args.seed is not None:
        try:
            cfg = replace(cfg, master_seed=args.seed)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    out_dir = args.out or run_cfg.out_dir
    if out_dir is None:
        raise ConfigError("no output directory: set out_dir in the config or pass --out")
    dataset = build_dataset(run_cfg.dataset_source)
    _make_dir(out_dir)
    lineage = evolve(run_cfg.layer_specs, dataset, cfg, out_dir=out_dir)
    first, last = lineage.records[0], lineage.records[-1]
    summary = {
        "stop_reason": lineage.stop_reason,
        "generations_requested": cfg.generations,
        "generations_run": len(lineage.records),
        "master_seed": cfg.master_seed,
        **_lineage_ratios(first, last),
    }
    for name in ("active_synapses", "macs", "precision", "recall", "f1"):
        summary[f"{name}_first"], summary[f"{name}_last"] = getattr(first, name), getattr(last, name)
    write_text(os.path.join(out_dir, "run_summary.json"),
               json.dumps(summary, indent=1, sort_keys=True) + "\n")
    print(f"{len(lineage.records)} generation(s) written to {out_dir} ({lineage.stop_reason})")
    return 0


def cmd_quantize(args) -> int:
    net, meta = load_model_and_meta(args.model)
    if meta.precision != "binary32":
        raise IntegrityError(f"{args.model}: expected a binary32 model, found {meta.precision}")
    quantized = quantize_network(net, TO_INFINITY if args.overflow == "inf" else SATURATE)
    active = [l.mask != 0 for l in net.layers]
    orig = np.concatenate([l.weights[m] for l, m in zip(net.layers, active)]).astype(np.float64)
    quant = np.concatenate([l.weights[m] for l, m in zip(quantized.layers, active)])
    err = np.abs(quant - orig)
    nonzero = orig != 0
    max_abs = float(err.max(initial=0.0))
    max_rel = float((err[nonzero] / np.abs(orig[nonzero])).max(initial=0.0))
    save_model(quantized, args.out, seed=meta.seed, alpha_history=meta.alpha_history)
    print(json.dumps({"max_abs_error": max_abs, "max_rel_error": max_rel}))
    return 0


def cmd_metrics(args) -> int:
    try:
        split = TrainConfig(validation_fraction=args.validation_fraction)
    except ValueError as exc:
        raise ConfigError(f"--validation-fraction {args.validation_fraction}: {exc}") from exc
    net, meta = load_model_and_meta(args.model)

    def val_rows(n_samples: int) -> np.ndarray:
        return validation_split(n_samples, split.validation_fraction, training_seed(meta.seed))[1]

    dataset = _load_data_arg(args.data, val_rows if args.split == "val" else None)
    result = evaluate_classifier(net, dataset.features, dataset.labels)
    result["active_synapses"] = count_active_synapses(net)
    result["macs"] = inference_cost(net)
    print(json.dumps(result, indent=1))
    return 0


def cmd_report(args) -> int:
    records = load_lineage_report(args.lineage)
    for name in ("active_synapses", "macs"):
        if getattr(records[-1], name) == 0:
            raise ParseError(f"{args.lineage}: last generation has 0 {name}, so no ratio exists")
    _make_dir(args.svg_out)
    gens = [float(r.generation) for r in records]
    write_line_chart(
        os.path.join(args.svg_out, "synapses_macs.svg"),
        "Active synapses and MACs by generation", "generation", "count",
        [("active_synapses", gens, [float(r.active_synapses) for r in records]),
         ("macs", gens, [float(r.macs) for r in records])],
    )
    write_line_chart(
        os.path.join(args.svg_out, "precision_recall.svg"),
        "Precision and recall by generation", "generation", "metric",
        [("precision", gens, [r.precision for r in records]),
         ("recall", gens, [r.recall for r in records])],
    )
    print(json.dumps(_lineage_ratios(records[0], records[-1])))
    return 0


def cmd_inspect(args) -> int:
    net, meta = load_model_and_meta(args.model)
    live_synapses, live_macs = live_counts(net)
    print(json.dumps({
        "generation": net.generation,
        "precision": meta.precision,
        "layers": [{"in_dim": l.weights.shape[1], "out_dim": l.weights.shape[0],
                    "activation": l.activation} for l in net.layers],
        "active_synapses": count_active_synapses(net),
        "total_synapses": sum(l.weights.size for l in net.layers),
        "macs": inference_cost(net),
        "live_synapses": live_synapses,
        "live_macs": live_macs,
        "seed": meta.seed,
        "alpha_history": meta.alpha_history,
    }, indent=1))
    return 0


class _Parser(argparse.ArgumentParser):
    """argparse defaults to exit code 2 on usage errors; the contract is 1."""

    def error(self, message):
        raise ConfigError(message)

    def print_help(self, file=None):
        # argparse's writer swallows a failed write, and --help exits before
        # run's flush: written and flushed here, a closed stdout is run's error
        file = file or sys.stdout
        file.write(self.format_help())
        file.flush()


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser for every subcommand, built once per process and shared: do not mutate it."""
    parser = _Parser(prog="evosynth",
                     description="Evolutionary synthesis of sparse half-precision networks.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("evolve", help="run an evolution from a JSON config")
    p.add_argument("--config", required=True, help="run configuration (JSON)")
    p.add_argument("--seed", type=int, default=None, help="override the master seed")
    p.add_argument("--out", default=None, help="output directory (overrides config out_dir)")

    p = sub.add_parser("quantize", help="convert a binary32 model file to binary16")
    p.add_argument("--model", required=True, help="input model (binary32 variant)")
    p.add_argument("--out", required=True, help="output model path")
    p.add_argument("--overflow", choices=("saturate", "inf"), default="saturate",
                   help="finite values beyond binary16 range: clamp or overflow to infinity")

    p = sub.add_parser("metrics", help="evaluate a stored model on a dataset")
    p.add_argument("--model", required=True, help="model file")
    p.add_argument("--data", required=True,
                   help="CSV dataset path or JSON dataset-source document")
    p.add_argument("--split", choices=("val", "full"), default="val",
                   help="evaluate on the model's validation split (default) or the full dataset")
    p.add_argument("--validation-fraction", type=float, default=TrainConfig.validation_fraction,
                   help="fraction used when deriving the validation split")

    p = sub.add_parser("report", help="render lineage charts and summary ratios")
    p.add_argument("--lineage", required=True, help="lineage.csv path")
    p.add_argument("--svg-out", required=True, help="directory for the SVG charts")

    p = sub.add_parser("inspect", help="print a model's shape and bookkeeping")
    p.add_argument("--model", required=True, help="model file")

    return parser


def run(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        # looked up per call, so a replaced cmd_<name> is the one that runs
        code = globals()[f"cmd_{args.command}"](args)
        # a block-buffered stdout is written here, not at exit, where a failure escapes run
        sys.stdout.flush()
        return code
    except SystemExit as exc:  # argparse after --help; _Parser.error raises ConfigError
        return exc.code
    except BrokenPipeError as exc:
        # stdout's reader has gone: fd 1 goes to devnull, so the flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: cannot write standard output: {exc}", file=sys.stderr)
        return IoError.exit_code
    except EvoSynthError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except MemoryError as exc:
        # a size in the config or data-source document that this host cannot allocate
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return ConfigError.exit_code


if __name__ == "__main__":
    sys.exit(run())
