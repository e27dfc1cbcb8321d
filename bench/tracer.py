"""Per-layer timing of evosynth from outside the package.

A ``Tracer`` wraps public functions of the evosynth modules and rebinds
every module-level name that refers to them (``evolution.train``,
``netcore.permutation``, ``cli.load_model`` ...), so calls made inside
the package go through the wrapper too. Nothing under ``src/`` changes.

Each wrapper records calls, busy time (wall time inside the call) and
self time (busy time minus the busy time of wrapped calls made directly
inside it), plus work counts taken from the arguments or the result.
Spans are kept as running sums in memory; nothing is written until the
benchmark reports.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _path_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(_arg(args, kwargs, 0, "path"))}


def _saved_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(_arg(args, kwargs, 1, "path"))}


def _train_counts(args, kwargs, result):
    dataset, cfg = _arg(args, kwargs, 1, "dataset"), _arg(args, kwargs, 2, "cfg")
    log = result[1]
    n = len(dataset)
    n_train = n - max(1, int(cfg.validation_fraction * n))
    epochs = len(log.train_losses)
    return {"epochs": epochs, "samples": epochs * n_train,
            "epochs_after_best": epochs - log.best_epoch}


def _network_values(args, kwargs, result):
    net = _arg(args, kwargs, 0, "net")
    return {"values": sum(l.weights.size + l.bias.size for l in net.layers)}


def _array_values(args, kwargs, result):
    return {"values": int(result.size)}


def _calibration(args, kwargs, result):
    return {"saturated": int(result.saturated), "iterations": result.iterations}


# "<module>.<function>" -> work counter (or None for calls and time only)
TARGETS = {
    "cli.run": None,
    "cli.load_run_config": None,
    "cli.build_dataset": None,
    "evolution.step_generation": None,
    "genetics.encode_dna": None,
    "genetics.calibrate_alpha": _calibration,
    "genetics.synthesize_offspring": None,
    "netcore.train": _train_counts,
    "netcore.validation_split": None,
    "netcore.mean_loss": None,
    "netcore.forward_batch": lambda a, k, r: {"rows": len(_arg(a, k, 1, "inputs"))},
    "netcore.forward": lambda a, k, r: {"rows": 1},
    "netcore.evaluate_classifier": lambda a, k, r: {"rows": len(_arg(a, k, 1, "features"))},
    "rng.permutation": lambda a, k, r: {"elems": int(_arg(a, k, 0, "n"))},
    "dataio.save_model": _saved_bytes,
    "dataio.load_model": _path_bytes,
    "dataio.load_model_meta": _path_bytes,
    "halfprec.quantize_network": _network_values,
    "halfprec.encode_array": _array_values,
    "halfprec.decode_array": _array_values,
}


@dataclass
class Stat:
    calls: int = 0
    busy_s: float = 0.0
    self_s: float = 0.0
    counts: dict = field(default_factory=dict)


class Tracer:
    """Wraps ``names`` (keys of TARGETS) while ``active()`` is entered."""

    def __init__(self, names=tuple(TARGETS)):
        self.stats = {name: Stat() for name in names}
        self._children = []  # busy time of wrapped callees, one slot per open call
        self._bindings = []  # (module, attribute, original, wrapper)
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "evosynth" or n.startswith("evosynth."))]
        for name in names:
            module_name, func_name = name.split(".")
            original = getattr(sys.modules[f"evosynth.{module_name}"], func_name)
            wrapper = self._wrap(name, original, TARGETS[name])
            for module in modules:
                for attr, value in vars(module).items():
                    if value is original:
                        self._bindings.append((module, attr, original, wrapper))

    def _wrap(self, name, original, counter):
        stat = self.stats[name]
        children = self._children

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            children.append(0.0)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                busy = time.perf_counter() - start
                inner = children.pop()
                stat.calls += 1
                stat.busy_s += busy
                stat.self_s += busy - inner
                if children:
                    children[-1] += busy
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    stat.counts[key] = stat.counts.get(key, 0) + value
            return result

        return wrapper

    @contextmanager
    def active(self):
        for module, attr, _, wrapper in self._bindings:
            setattr(module, attr, wrapper)
        try:
            yield self
        finally:
            for module, attr, original, _ in self._bindings:
                setattr(module, attr, original)

    def count(self, name: str, key: str) -> int:
        stat = self.stats[name]
        return stat.calls if key == "calls" else stat.counts.get(key, 0)
