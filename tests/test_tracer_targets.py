"""The benchmark's tracer names evosynth functions by string; they must resolve.

``bench/tracer.py`` is parsed, not imported, so this check only reads the
benchmark. It guards ``bench/run.py --trace 1``, which these tests do not run.
"""

import ast
import importlib
from pathlib import Path

import numpy as np

from evosynth.genetics import calibrate_alpha

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _tracer():
    """(TARGETS as {name: counter function name or None}, top-level functions by name)."""
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    functions = {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TARGETS"]:
            targets = {ast.literal_eval(k): v.id if isinstance(v, ast.Name) else None
                       for k, v in zip(node.value.keys, node.value.values)}
            return targets, functions
    raise AssertionError(f"{TRACER} defines no TARGETS dict")


def test_tracer_targets_resolve():
    targets, _ = _tracer()
    assert targets
    for name in targets:
        module_name, func_name = name.split(".")
        module = importlib.import_module(f"evosynth.{module_name}")
        assert callable(getattr(module, func_name, None)), f"{name} is gone from evosynth"


def test_calibration_result_has_what_the_tracer_reads():
    targets, functions = _tracer()
    counter = functions[targets["genetics.calibrate_alpha"]]
    read = {n.attr for n in ast.walk(counter)
            if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name) and n.value.id == "result"}
    assert read
    dna = [np.array([[0.5, 1.0]])]
    result = calibrate_alpha(dna, 0.5)
    for attr in read:
        assert hasattr(result, attr), f"CalibrationResult has no {attr!r}"
