"""evosynth benchmark: end-to-end metrics, and per-module timing from outside.

Run from the root of a checkout:

    python3 bench/run.py --workload lineage-small --seed 0 --seconds 55 --trace 0
    python3 bench/run.py --smoke

The program is imported from ``src/`` of the checkout and driven through
its public API only. Workloads (see ``workloads.py``):

- ``lineage-small``: ``evolve`` of a 16-64-32-2 network on
  ``synth_gaussians(500, 16, 3.0)``, 13 generations. Python and per-call
  overhead dominate: the shuffle, the batch loop, ``validation_split``.
- ``lineage-wide``: the same on a 256-128-64-2 network with 256 features.
  Matmul work and model-file writing dominate.

Each lineage is then read back: ``inspect``, ``metrics --split val`` and
``quantize`` on generations 1, 7 and 13 (first, middle and last, if the
program stopped the lineage early) and their binary32 copies, and
``forward_batch`` / single-row ``forward`` on the first and last generation.

Seed ``s`` uses dataset seed ``s`` and master seeds ``5s+1 .. 5s+5``, so
the default seed 0 is the acceptance set-up.

Every timing but the single-row latency is corrected to the host's
nominal speed with a reference task run around each block of operations
(see ``hostspeed.py``); the detail line also gives the uncorrected
figures and the host speed seen.

With ``--trace 0`` the last line of standard output is the result with
every end-to-end metric; with ``--trace 1`` it carries the per-layer
metrics instead. Per-layer metrics come from rounds run twice, once with
wrappers on and once with them off, so their tracing overhead is reported
against equal work. The line before the result records the environment,
sample counts and check details. ``--smoke`` runs every workload with 2
generations and checks that every declared metric is emitted with its unit.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import math
import os
import platform
import resource
import shutil
import sys
from pathlib import Path
from statistics import fmean, median, quantiles

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SMOKE_GENERATIONS = 2
SMOKE_SECONDS = 1.0


def percentile(values: list, q: float) -> float:
    if len(values) < 2:
        return values[0]
    return quantiles(values, n=1000, method="inclusive")[round(q * 10) - 1]


def tail(values: list):
    """The highest of p50/p90/p99/p99.9 with at least ten samples beyond it, and its value."""
    fit = [p for p in (50, 90, 99, 99.9) if len(values) * (100 - p) / 100 >= 10]
    return {"p": fit[-1], "value": percentile(values, fit[-1])} if fit else None


def blas_threads():
    import numpy

    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment(seed: int) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    thread_env = {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
                  if k in os.environ}
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
        "blas_thread_env": thread_env or "unset",
        "workload_seed": seed,
    }


def end_to_end(s) -> dict:
    """Metric -> (samples, statistic, unit), over the timings in ``s``.

    A command takes 5-150 ms, so each one meets a single spell of the host's
    speed (see hostspeed.py). The median of such a two-state sample jumps
    between the states from run to run, while the mean moves only with the
    share of time spent in each, so the commands report their mean, and the
    throughputs divide total work by total time. The medians and tails are
    in the detail line.
    """
    from workloads import HELDOUT_ROWS

    return {
        "setup_s": (s.setup_s, median, "s"),
        "evolve_s_p50": (s.evolve_s, median, "s"),
        "train_samples_per_s": (s.train_samples, lambda v: sum(v) / sum(s.evolve_s), "samples/s"),
        "inspect_ms_mean": (s.cmd_ms["inspect"], fmean, "ms"),
        "metrics_ms_mean": (s.cmd_ms["metrics"], fmean, "ms"),
        "quantize_ms_mean": (s.cmd_ms["quantize"], fmean, "ms"),
        "infer_rows_per_s": (s.infer_batch_s, lambda v: HELDOUT_ROWS * len(v) / sum(v), "rows/s"),
        "infer_row_us_p90": (s.infer_row_us, lambda v: percentile(v, 90), "us"),
        "peak_rss_mb": ([resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024], median, "MB"),
    }


def timings(s) -> dict:
    cmds = [v for series in s.cmd_ms.values() for v in series]
    return {"evolve_s": s.evolve_s, **{f"{k}_ms": v for k, v in s.cmd_ms.items()},
            "cmd_ms": cmds, "infer_row_us": s.infer_row_us}


def per_layer(w) -> dict:
    """Per-round averages over the traced rounds, plus exact ratios; lower is better for all."""
    st = w.tracer.stats
    rounds = max(len(w.round_pairs), 1)

    def ratio(a, b):
        return a / b if b else 0.0

    def busy(name):
        return st[name].busy_s / rounds

    def per_round(name, key):
        return w.tracer.count(name, key) / rounds

    def ns_per(name, key):
        return ratio(st[name].busy_s * 1e9, st[name].counts.get(key, 0))

    m = {
        "rng.permutation.busy_s": (busy("rng.permutation"), "s/round"),
        "rng.permutation.calls": (per_round("rng.permutation", "calls"), "calls/round"),
        "rng.permutation.elems": (per_round("rng.permutation", "elems"), "elems/round"),
        "rng.permutation.ns_per_elem": (ns_per("rng.permutation", "elems"), "ns"),
        "netcore.train.busy_s": (busy("netcore.train"), "s/round"),
        "netcore.train.self_s": (st["netcore.train"].self_s / rounds, "s/round"),
        "netcore.train.epochs": (per_round("netcore.train", "epochs"), "epochs/round"),
        "netcore.train.samples": (per_round("netcore.train", "samples"), "samples/round"),
        "netcore.train.wasted_epoch_frac": (
            ratio(w.tracer.count("netcore.train", "epochs_after_best"),
                  w.tracer.count("netcore.train", "epochs")), "ratio"),
        "netcore.validation_split.calls_per_gen": (
            ratio(w.evolve_splits, w.evolve_trains), "calls/gen"),
        "netcore.mean_loss.busy_s": (busy("netcore.mean_loss"), "s/round"),
    }
    for fn in ("forward_batch", "forward", "evaluate_classifier"):
        m[f"netcore.{fn}.busy_s"] = (busy(f"netcore.{fn}"), "s/round")
        m[f"netcore.{fn}.rows"] = (per_round(f"netcore.{fn}", "rows"), "rows/round")
    m["dataio.save_model.busy_s"] = (busy("dataio.save_model"), "s/round")
    m["dataio.save_model.bytes"] = (per_round("dataio.save_model", "bytes"), "bytes/round")
    for fn in ("load_model", "load_model_meta"):
        m[f"dataio.{fn}.busy_s"] = (busy(f"dataio.{fn}"), "s/round")
        m[f"dataio.{fn}.calls"] = (per_round(f"dataio.{fn}", "calls"), "calls/round")
        m[f"dataio.{fn}.bytes"] = (per_round(f"dataio.{fn}", "bytes"), "bytes/round")
    m["dataio.load_model_meta.calls_per_cmd"] = (
        ratio(w.tracer.count("dataio.load_model_meta", "calls"), w.traced_read_cmds), "calls/cmd")
    for fn in ("quantize_network", "encode_array", "decode_array"):
        m[f"halfprec.{fn}.busy_s"] = (busy(f"halfprec.{fn}"), "s/round")
        m[f"halfprec.{fn}.values"] = (per_round(f"halfprec.{fn}", "values"), "values/round")
        m[f"halfprec.{fn}.ns_per_value"] = (ns_per(f"halfprec.{fn}", "values"), "ns")
    for fn in ("encode_dna", "calibrate_alpha", "synthesize_offspring"):
        m[f"genetics.{fn}.busy_s"] = (busy(f"genetics.{fn}"), "s/round")
    calib = st["genetics.calibrate_alpha"]
    m["genetics.calibrate_alpha.saturated_frac"] = (
        ratio(calib.counts.get("saturated", 0), calib.calls), "ratio")
    m["genetics.calibrate_alpha.iterations"] = (
        ratio(calib.counts.get("iterations", 0), calib.calls), "iterations/call")
    m["evolution.step_generation.busy_s"] = (busy("evolution.step_generation"), "s/round")
    m["evolution.step_generation.calls"] = (
        per_round("evolution.step_generation", "calls"), "calls/round")
    for fn in ("run", "load_run_config", "build_dataset"):
        m[f"cli.{fn}.busy_s"] = (busy(f"cli.{fn}"), "s/round")
    overhead = [100.0 * (traced / plain - 1.0) for plain, traced in w.round_pairs if plain > 0]
    m["bench.trace.overhead_pct"] = (median(overhead) if overhead else 0.0, "%")
    return m


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 generations: int | None = None) -> tuple[dict, dict]:
    import hostspeed
    from workloads import GENERATIONS, Workload

    workdir = WORK / f"{name}-{seed}-{int(trace)}-{os.getpid()}"
    w = Workload(name, seed, workdir, generations or GENERATIONS, trace)
    try:
        w.run(seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    metrics = {}
    samples = {}
    if trace:
        for key, (value, unit) in per_layer(w).items():
            metrics[key] = {"value": value, "unit": unit}
    else:
        for key, (series, stat, unit) in end_to_end(w.samples).items():
            samples[key] = len(series)
            if not series:
                w.attempted += 1
                w.failed += 1
                w.errors.append(f"{key}: no samples")
            metrics[key] = {"value": stat(series) if series else 0.0, "unit": unit}
    result = {"correct": w.failed == 0, "attempted": w.attempted, "failed": w.failed,
              "metrics": metrics}
    detail = {
        "workload": name, "seed": seed, "trace": int(trace), "seconds": seconds,
        "generations": w.generations, "rounds": w.rounds, "loop": "closed, one client",
        "environment": environment(seed),
        "samples": samples,
        "nominal_reference_s": hostspeed.NOMINAL_S,
        # host speed over nominal, one value per measured block
        "host_speed": {"blocks": len(w.host_speed), **(
            {"min": min(w.host_speed), "p50": median(w.host_speed), "max": max(w.host_speed)}
            if w.host_speed else {})},
        "uncorrected": {k: stat(v) for k, (v, stat, _) in end_to_end(w.raw).items() if v},
        # medians and tails of the untraced operations, corrected as the metrics are
        "p50": {k: median(v) for k, v in timings(w.samples).items() if v},
        "tail_with_10_beyond": {k: tail(v) for k, v in timings(w.samples).items()},
        "criteria": w.criteria,
        "errors": w.errors,
    }
    return result, detail


def declared() -> dict:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {kind: {m["name"]: m["unit"] for m in doc[key]}
            for kind, key in ((False, "end_to_end"), (True, "per_layer"))}


def smoke() -> int:
    """Every workload, traced and untraced, on 2 generations; checks every declared metric."""
    from workloads import WORKLOADS

    want = declared()
    problems = []
    for name in WORKLOADS:
        for trace in (False, True):
            result, detail = run_workload(name, 0, SMOKE_SECONDS, trace, SMOKE_GENERATIONS)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            label = f"{name} trace={int(trace)}"
            if got != want[trace]:
                problems.append(f"{label}: metrics {sorted(set(got) ^ set(want[trace]))} or units differ")
            bad = [k for k, v in result["metrics"].items()
                   if not isinstance(v["value"], (int, float)) or not math.isfinite(v["value"])]
            if bad:
                problems.append(f"{label}: non-finite values {bad}")
            if not result["correct"] or result["attempted"] < 1:
                problems.append(f"{label}: {result['failed']} of {result['attempted']} failed: "
                                f"{detail['errors']}")
            print(f"smoke {label}: {len(got)} metrics, {result['attempted']} operations, "
                  f"{result['failed']} failed")
    for p in problems:
        print(f"smoke FAIL {p}", file=sys.stderr)
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("lineage-small", "lineage-wide"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="self-test on 2 generations")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required")
    if not 0 <= args.seed < 2**32 or args.seconds <= 0:
        parser.error("--seed must be in [0, 2**32) and --seconds positive")
    if not (SRC / "evosynth" / "__init__.py").is_file():
        print(f"error: no evosynth package under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import evosynth

    if not Path(evosynth.__file__).resolve().is_relative_to(SRC):
        print(f"error: evosynth imported from {evosynth.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    result, detail = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
