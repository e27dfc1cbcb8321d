"""Workload set-up, the closed measurement loop and the output checks.

Every workload is a closed loop: one client issues the next operation
when the previous one returns. Operations are ``evolve``, ``inspect``,
``metrics`` and ``quantize`` through ``evosynth.cli.run`` in-process, and
``netcore.forward_batch`` / ``netcore.forward`` on loaded models.

A round evolves one lineage and then reads it back: ``inspect``,
``metrics`` and ``quantize`` on generation 1, the middle and the final
generation and on binary32 copies of them, and inference on generation 1
and the final one. Every workload thereby emits every end-to-end metric.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from evosynth import cli, dataio, netcore

import hostspeed
from tracer import Tracer

SHAPES = {
    "lineage-small": (16, 64, 32, 2),
    "lineage-wide": (256, 128, 64, 2),
}
WORKLOADS = tuple(SHAPES)
N_PER_CLASS = 500
SEPARATION = 3.0
GENERATIONS = 13
LINEAGES_PER_SEED = 5
HELDOUT_ROWS = 10_000
HELDOUT_SEED_OFFSET = 2**32  # keeps the held-out rows apart from every training set
ROWS_PER_MODEL = 300         # single-row forward calls per model per round
SETUP_REPEATS = 9
BATCHES_PER_MODEL = 3        # forward_batch calls per model per round
WARMUP_GENERATIONS = 2
PROB_SUM_TOL = 1e-5
DIGESTS = json.loads((Path(__file__).resolve().parent / "digests.json").read_text())


def master_seeds(seed: int) -> list[int]:
    """Seed s evolves master seeds 5s+1 .. 5s+5 on dataset seed s (s = 0: the acceptance set-up)."""
    return [LINEAGES_PER_SEED * seed + i for i in range(1, LINEAGES_PER_SEED + 1)]


def dir_digest(path: Path) -> str:
    """sha256 over the sorted names and contents of the regular files in ``path``."""
    h = hashlib.sha256()
    for f in sorted(p for p in path.iterdir() if p.is_file()):
        h.update(f.name.encode() + b"\0" + hashlib.sha256(f.read_bytes()).digest())
    return h.hexdigest()


def read_lineage_csv(path: Path) -> list[dict]:
    """Lineage rows as strings, exactly as written."""
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


class CheckFailed(Exception):
    pass


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def check_probabilities(probs: np.ndarray, rows: int, classes: int) -> None:
    require(probs.shape == (rows, classes), f"probabilities have shape {probs.shape}")
    require(bool(np.all(np.isfinite(probs))), "non-finite probability")
    worst = float(np.abs(probs.astype(np.float64).sum(axis=1) - 1.0).max())
    require(worst <= PROB_SUM_TOL, f"probability rows sum to 1 +- {worst:.3g}")


@dataclass
class Samples:
    setup_s: list = field(default_factory=list)
    evolve_s: list = field(default_factory=list)
    train_samples: list = field(default_factory=list)
    cmd_ms: dict = field(default_factory=lambda: {"inspect": [], "metrics": [], "quantize": []})
    infer_batch_s: list = field(default_factory=list)
    infer_row_us: list = field(default_factory=list)

    def add(self, other: "Samples", scale: float = 1.0) -> None:
        """Append ``other``'s samples, with every time multiplied by ``scale``.

        Single-row latencies are kept as measured: they are reported as a p90,
        which lies in the host's slow spells in every run, and scaling each
        block by its own speed moves samples across that tail. In six sets
        of 5 to 10 runs its spread (IQR/median) was 0.04-0.15 as measured and
        0.08-0.19 scaled.
        """
        for name in ("setup_s", "evolve_s", "infer_batch_s"):
            getattr(self, name).extend(v * scale for v in getattr(other, name))
        self.infer_row_us.extend(other.infer_row_us)
        for kind, series in other.cmd_ms.items():
            self.cmd_ms[kind].extend(v * scale for v in series)
        self.train_samples.extend(other.train_samples)


class Workload:
    """One benchmark run: set-up, then rounds until the time is used up."""

    def __init__(self, name: str, seed: int, workdir: Path, generations: int = GENERATIONS,
                 trace: bool = False):
        self.name = name
        self.seed = seed
        self.dir = workdir
        self.generations = generations
        self.trace = trace
        self.layers = SHAPES[name]
        self.masters = master_seeds(seed)
        self.samples = Samples()    # timings corrected to the nominal host speed
        self.raw = Samples()        # the same timings as measured
        self.pending = Samples()    # timings of the open measured block
        self.recording = True
        self.host_speed: list[float] = []  # nominal over measured speed, one per measured block
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.pinned = DIGESTS[name] if seed == 0 and generations == GENERATIONS else {}
        self.first_digest: dict[int, str] = {}
        self.lineages: dict[int, list[dict]] = {}
        self.copied: set[int] = set()
        self.nets: dict[tuple[int, int], object] = {}
        self.criteria: dict = {}
        # untraced rounds keep one counting wrapper, on netcore.train, for train_samples_per_s
        self.counter = Tracer(["netcore.train"])
        self.tracer = Tracer()
        self.hooks = self.counter
        self.traced_read_cmds = 0
        self.evolve_trains = 0
        self.evolve_splits = 0
        self.round_pairs: list[tuple[float, float]] = []
        self.round_time = 0.0
        self.rounds = 0

    @contextlib.contextmanager
    def measured(self):
        """A block of operations whose timings are corrected to the nominal host speed.

        The reference task runs before and after the block; their mean gives
        the host's speed during it. Unless recording is off, the block's
        timings go to ``raw`` as measured and to ``samples`` corrected.
        """
        before = hostspeed.reference_s()
        self.pending = Samples()
        yield
        speed = hostspeed.NOMINAL_S * 2 / (before + hostspeed.reference_s())
        if self.recording:
            self.raw.add(self.pending)
            self.samples.add(self.pending, speed)
            self.host_speed.append(speed)

    # operations

    def op(self, label: str, fn, *args) -> bool:
        """Run one checked operation; an exception or failed check counts as a failure."""
        self.attempted += 1
        try:
            fn(*args)
            return True
        except Exception as exc:  # every failure is counted and reported, the loop goes on
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(f"{label}: {type(exc).__name__}: {exc}")
            return False

    def cli_run(self, argv: list[str]) -> tuple[float, str]:
        out, err = io.StringIO(), io.StringIO()
        with self.hooks.active(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            code = cli.run(argv)
            elapsed = time.perf_counter() - start
        require(code == 0, f"evosynth {' '.join(argv)} exited {code}: {err.getvalue().strip()}")
        return elapsed, out.getvalue()

    def lineage_dir(self, master: int) -> Path:
        return self.dir / "lineages" / f"m{master}"

    def copy_path(self, master: int, g: int) -> Path:
        return self.dir / "copies" / f"m{master}" / f"gen_{g}_f32.json"

    def evolve(self, master: int) -> None:
        out = self.lineage_dir(master)
        trained = self.hooks.count("netcore.train", "samples")
        trains = self.tracer.count("netcore.train", "calls")
        splits = self.tracer.count("netcore.validation_split", "calls")
        elapsed, _ = self.cli_run(["evolve", "--config", str(self.dir / "config.json"),
                                   "--seed", str(master), "--out", str(out)])
        trained = self.hooks.count("netcore.train", "samples") - trained
        if self.hooks is self.tracer:
            self.evolve_trains += self.tracer.count("netcore.train", "calls") - trains
            self.evolve_splits += self.tracer.count("netcore.validation_split", "calls") - splits
        self.pending.evolve_s.append(elapsed)
        self.pending.train_samples.append(trained)
        self.round_time += elapsed

        digest = dir_digest(out)
        expected = self.pinned.get(str(master)) or self.first_digest.setdefault(master, digest)
        require(digest == expected, f"lineage m{master} digest {digest} != {expected}")
        # a lineage may stop early by design (f1 drop or a dead layer); the summary says so
        rows = read_lineage_csv(out / "lineage.csv")
        summary = json.loads((out / "run_summary.json").read_text())
        require(1 <= len(rows) == summary["generations_run"] <= self.generations,
                f"lineage m{master}: {len(rows)} rows, summary {summary['generations_run']} "
                f"of {self.generations} generations")
        require((summary["stop_reason"] == "completed") == (len(rows) == self.generations),
                f"lineage m{master}: {len(rows)} generations, stop reason {summary['stop_reason']}")
        self.lineages[master] = rows

    def read_gens(self, master: int) -> list[int]:
        """The first, middle and last generation of the lineage."""
        n = len(self.lineages[master])
        return sorted({1, (1 + n) // 2, n})

    def prepare(self, master: int) -> None:
        """Binary32 copies of the read-back generations, and the models for inference."""
        (self.dir / "copies" / f"m{master}").mkdir(parents=True, exist_ok=True)
        gens = self.read_gens(master)
        for g in gens:
            src = str(self.lineage_dir(master) / f"gen_{g}.json")
            if g in (gens[0], gens[-1]):
                self.nets[(master, g)] = dataio.load_model(src)
            net = dataio.load_model(src)
            meta = dataio.load_model_meta(src)
            net.precision_tag = netcore.FULL
            dataio.save_model(net, str(self.copy_path(master, g)), seed=meta.seed,
                              alpha_history=meta.alpha_history)
        self.copied.add(master)

    def command(self, kind: str, argv: list[str]) -> str:
        elapsed, out = self.cli_run([kind] + argv)
        self.pending.cmd_ms[kind].append(elapsed * 1e3)
        self.round_time += elapsed
        if self.hooks is self.tracer:
            self.traced_read_cmds += 1
        return out

    def inspect(self, path: Path, g: int, precision: str, row: dict) -> None:
        doc = json.loads(self.command("inspect", ["--model", str(path)]))
        require(doc["generation"] == g and doc["precision"] == precision,
                f"inspect {path.name}: generation {doc['generation']}, {doc['precision']}")
        require(doc["active_synapses"] == int(row["active_synapses"]) and doc["macs"] == int(row["macs"]),
                f"inspect {path.name}: counts differ from lineage.csv")

    def metrics(self, path: Path, row: dict) -> None:
        doc = json.loads(self.command("metrics", ["--model", str(path), "--data",
                                                  str(self.dir / "data.json"), "--split", "val"]))
        for key, column in (("macro_precision", "precision"), ("macro_recall", "recall"),
                            ("macro_f1", "f1")):
            require(f"{doc[key]:.6g}" == row[column],
                    f"metrics {path.name}: {key} {doc[key]:.6g} != lineage.csv {row[column]}")

    def quantize(self, full: Path, half: Path) -> None:
        out = self.dir / "quantized.json"
        self.command("quantize", ["--model", str(full), "--out", str(out)])
        require(out.read_bytes() == half.read_bytes(), f"quantize {full.name} differs from {half.name}")

    def readback(self, master: int) -> None:
        rows = self.lineages[master]
        for g in self.read_gens(master):
            half, full = self.lineage_dir(master) / f"gen_{g}.json", self.copy_path(master, g)
            row = rows[g - 1]
            self.op(f"inspect m{master} gen {g}", self.inspect, half, g, "binary16", row)
            self.op(f"inspect m{master} gen {g} f32", self.inspect, full, g, "binary32", row)
            self.op(f"metrics m{master} gen {g}", self.metrics, half, row)
            self.op(f"metrics m{master} gen {g} f32", self.metrics, full, row)
            self.op(f"quantize m{master} gen {g}", self.quantize, full, half)

    def infer_batch(self, master: int, g: int) -> None:
        net = self.nets[(master, g)]
        with self.hooks.active():
            start = time.perf_counter()
            probs = netcore.forward_batch(net, self.heldout)
            elapsed = time.perf_counter() - start
        self.round_time += elapsed
        self.pending.infer_batch_s.append(elapsed)
        check_probabilities(probs, len(self.heldout), self.layers[-1])

    def infer_rows(self, master: int, g: int, offset: int) -> None:
        net = self.nets[(master, g)]
        outputs, times = [], []
        with self.hooks.active():
            for i in range(ROWS_PER_MODEL):
                row = self.heldout[(offset + i) % len(self.heldout)]
                start = time.perf_counter_ns()
                outputs.append(netcore.forward(net, row))
                times.append(time.perf_counter_ns() - start)
        self.round_time += sum(times) * 1e-9
        self.pending.infer_row_us.extend(t * 1e-3 for t in times)
        check_probabilities(np.stack(outputs), ROWS_PER_MODEL, self.layers[-1])

    def inference(self, master: int, round_no: int) -> None:
        gens = self.read_gens(master)
        for g in (gens[0], gens[-1]):
            for _ in range(BATCHES_PER_MODEL):
                self.op(f"forward_batch m{master} gen {g}", self.infer_batch, master, g)
            self.op(f"forward m{master} gen {g}", self.infer_rows, master, g,
                    round_no * ROWS_PER_MODEL)

    # set-up

    def write_inputs(self, generations: int, path: Path) -> None:
        source = {"type": "synthetic", "n_per_class": N_PER_CLASS, "n_features": self.layers[0],
                  "separation": SEPARATION, "seed": self.seed}
        config = {
            "layers": [{"in_dim": a, "out_dim": b, "activation": "relu"}
                       for a, b in zip(self.layers, self.layers[1:])],
            "dataset": source,
            "evolution": {"generations": generations},
        }
        path.write_text(json.dumps(config, indent=1) + "\n")
        (self.dir / "data.json").write_text(json.dumps(source, indent=1) + "\n")

    def setup_once(self) -> None:
        with self.measured():
            start = time.perf_counter()
            self.dir.mkdir(parents=True, exist_ok=True)
            self.write_inputs(self.generations, self.dir / "config.json")
            self.heldout = dataio.synth_gaussians(HELDOUT_ROWS // 2, self.layers[0], SEPARATION,
                                                  HELDOUT_SEED_OFFSET + self.seed).features
            run_cfg = cli.load_run_config(str(self.dir / "config.json"))
            cli.build_dataset(run_cfg.dataset_source)
            warm = self.dir / "warmup.json"
            self.write_inputs(min(WARMUP_GENERATIONS, self.generations), warm)
            self.op("warm-up evolve", self.cli_run,
                    ["evolve", "--config", str(warm), "--seed", str(self.masters[0]),
                     "--out", str(self.dir / "warmup")])
            self.pending.setup_s.append(time.perf_counter() - start)

    # the loop

    def round(self, round_no: int) -> float:
        """One round of work; returns the seconds spent inside timed operations."""
        self.round_time = 0.0
        master = self.masters[round_no % len(self.masters)]
        with self.measured():
            evolved = self.op(f"evolve m{master}", self.evolve, master)
        if not evolved:
            return self.round_time
        if master not in self.copied and not self.op(f"copies of m{master}", self.prepare, master):
            return self.round_time
        if round_no == len(self.masters) - 1:
            self.check_criteria(self.masters)
        with self.measured():
            self.readback(master)
        with self.measured():
            self.inference(master, round_no)
        return self.round_time

    def run(self, seconds: float) -> None:
        """Set-up and rounds together take about ``seconds``.

        The set-up is repeated after each round, up to SETUP_REPEATS times, so
        its samples meet the same host states as the rounds'. A round starts
        only if one more, as long as the last, ends within the time.
        """
        deadline = time.perf_counter() + seconds
        self.setup_once()
        setups, round_no, last = 1, 0, 0.0
        while round_no == 0 or time.perf_counter() + last < deadline:
            began = time.perf_counter()
            if not self.trace:
                self.round(round_no)
            else:
                # the same round untraced and traced, alternating which goes first,
                # gives the per-layer numbers and the tracing overhead on equal work;
                # only the untraced half adds to the timing samples
                order = (False, True) if round_no % 2 == 0 else (True, False)
                times = {}
                for traced in order:
                    self.hooks = self.tracer if traced else self.counter
                    self.recording = not traced
                    times[traced] = self.round(round_no)
                self.hooks, self.recording = self.counter, True
                self.round_pairs.append((times[False], times[True]))
            round_no += 1
            if setups < SETUP_REPEATS:
                self.setup_once()
                setups += 1
            last = time.perf_counter() - began
        self.rounds = round_no
        if round_no < len(self.masters):
            self.check_criteria(self.masters[:round_no])

    def check_criteria(self, masters) -> None:
        """Acceptance criteria 1 and 2 over the run's lineages, as tests/test_acceptance.py states them.

        Criterion 1 is stated for lineages that run all 13 generations, so the
        criteria take only those. All five lineages of the acceptance set-up
        (seed 0) run to the end, and their digests are pinned; some other seeds
        have a lineage that the program stops early, which it records as its
        stop reason.
        """
        done = [m for m in masters if m in self.lineages]
        rows = [self.lineages[m] for m in done if len(self.lineages[m]) == GENERATIONS]
        if self.generations != GENERATIONS or not rows:
            return
        ratios = [int(r[0]["active_synapses"]) / int(r[-1]["active_synapses"]) for r in rows]
        dp = [abs(float(r[-1]["precision"]) - float(r[0]["precision"])) for r in rows]
        dr = [abs(float(r[-1]["recall"]) - float(r[0]["recall"])) for r in rows]
        self.criteria = {
            "lineages": len(rows), "stopped_early": len(done) - len(rows),
            "reduction_median": statistics.median(ratios), "reduction_min": min(ratios),
            "d_precision_median": statistics.median(dp), "d_recall_median": statistics.median(dr),
        }

        def criterion_1():
            require(statistics.median(ratios) >= 10.0 and min(ratios) >= 6.7,
                    f"criterion 1: synapse reduction median {statistics.median(ratios):.3g}, "
                    f"min {min(ratios):.3g}")

        def criterion_2():
            require(statistics.median(dp) <= 0.05 and statistics.median(dr) <= 0.05,
                    f"criterion 2: median |d precision| {statistics.median(dp):.4f}, "
                    f"|d recall| {statistics.median(dr):.4f}")

        self.op("criterion 1", criterion_1)
        # criterion 2 is stated for the acceptance network; the 256-input network
        # overfits its 1000 rows and misses it on some seeds, so there it is reported only
        if self.layers == SHAPES["lineage-small"]:
            self.op("criterion 2", criterion_2)
