"""Generational loop: synthesize, inherit, train, quantize, record.

Generation 1 is a trained, quantized ancestor. Every later generation
samples its topology from the parent's DNA under a calibrated
environmental factor, inherits the surviving weights, trains at full
precision and is then constrained to binary16 with saturating overflow.
Because DNA assigns probability 0 to absent synapses, active counts
never grow.

All randomness flows from one master seed. Generation g draws its seed
via ``derive_seed``; substream 0 of that seed drives synthesis,
substream 1 the training run, and substream 2 of generation 1's seed
initializes the ancestor.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace

from .dataio import Dataset, GenerationRecord, save_lineage_report, save_model
from .errors import DeadLayer, IoError
from .genetics import calibrate_alpha, encode_dna, synthesize_offspring
from .halfprec import quantize_network
from .netcore import (
    FULL,
    DenseLayer,
    LayerSpec,
    Network,
    TrainConfig,
    _masked,
    count_active_synapses,
    evaluate_classifier,
    inference_cost,
    init_network,
    mean_loss,
    train,
)
from .rng import substream

COMPLETED = "completed"
STOP_METRIC_DROP = "metric_drop"
STOP_DEAD_LAYER = "dead_layer"


def derive_seed(master_seed: int, g: int) -> int:
    """Seed for generation g: the splitmix64 substream of the master seed.

    Avalanche-quality 64-bit mixing; derive_seed(0, 0) equals the
    splitmix64 finalizer of its golden-ratio increment,
    0xE220A8397B1DCDAF.
    """
    return substream(master_seed, g)


def training_seed(seed_g: int) -> int:
    """``TrainConfig.seed`` of the generation whose seed is ``seed_g``.

    ``metrics`` rebuilds a stored model's validation split from it.
    """
    return substream(seed_g, 1)


@dataclass(frozen=True)
class EvolutionConfig:
    """``retention_per_generation`` is a ceiling: alpha cannot exceed 1, so it binds only
    below e(1), which is 0.23-0.46 per generation on the 16-64-32-2 example."""

    generations: int = 13
    retention_per_generation: float = 0.84
    train: TrainConfig = field(default_factory=TrainConfig)
    stop_on_metric_drop: float | None = 0.10
    master_seed: int = 0

    def __post_init__(self):
        if self.generations < 1:
            raise ValueError("generations must be >= 1")
        if not 0.0 < self.retention_per_generation <= 1.0:
            raise ValueError("retention_per_generation must be in (0, 1]")
        if self.stop_on_metric_drop is not None and self.stop_on_metric_drop < 0:
            raise ValueError("stop_on_metric_drop must be non-negative or None")
        if not 0 <= self.master_seed < 2**64:
            raise ValueError("master_seed must be a 64-bit unsigned integer")


@dataclass
class Lineage:
    records: list[GenerationRecord]
    stop_reason: str = COMPLETED


def _train_quantize_record(child: Network, dataset: Dataset, cfg: EvolutionConfig,
                           g: int, alpha: float, seed_g: int):
    train_cfg = replace(cfg.train, seed=training_seed(seed_g))
    trained, log = train(child, dataset, train_cfg)
    quantized = quantize_network(trained)
    train_idx, val_idx = log.train_indices, log.val_indices
    metrics = evaluate_classifier(quantized, dataset.features[val_idx], dataset.labels[val_idx])
    record = GenerationRecord(
        generation=g,
        alpha=alpha,
        active_synapses=count_active_synapses(quantized),
        total_synapses=sum(l.weights.size for l in quantized.layers),
        macs=inference_cost(quantized),
        train_loss=mean_loss(trained, dataset.features[train_idx], dataset.labels[train_idx]),
        precision=metrics["macro_precision"],
        recall=metrics["macro_recall"],
        f1=metrics["macro_f1"],
        seed=seed_g,
    )
    return quantized, record


def step_generation(parent: Network, dataset: Dataset, cfg: EvolutionConfig,
                    g: int) -> tuple[Network, GenerationRecord]:
    """Produce and evaluate generation g (g >= 2) from its trained parent."""
    if g < 2:
        raise ValueError("step_generation applies to generations >= 2")
    dna = encode_dna(parent)
    cal = calibrate_alpha(dna, cfg.retention_per_generation)
    seed_g = derive_seed(cfg.master_seed, g)
    masks = synthesize_offspring(dna, cal.alpha, substream(seed_g, 0))
    layers = [
        DenseLayer(weights=_masked(layer.weights, m), mask=m, bias=layer.bias.copy(),
                   activation=layer.activation)
        for layer, m in zip(parent.layers, masks)
    ]
    child = Network(layers=layers, generation=g, precision_tag=FULL)
    return _train_quantize_record(child, dataset, cfg, g, cal.alpha, seed_g)


def _persist(net: Network, records: list[GenerationRecord], out_dir: str | None) -> None:
    if out_dir is not None:
        save_model(net, os.path.join(out_dir, f"gen_{net.generation}.json"), seed=records[-1].seed,
                   alpha_history=[r.alpha for r in records])


def evolve(spec: list[LayerSpec], dataset: Dataset, cfg: EvolutionConfig,
           out_dir: str | None = None) -> Lineage:
    """Run the full lineage; optionally persist one model file per generation.

    An offspring whose macro f1 falls more than ``stop_on_metric_drop``
    below generation 1, or whose synthesis hits a dead layer, ends the
    run: the lineage keeps only the generations before it and records the
    stop reason. Model files are named ``gen_<g>.json``; the report is
    ``lineage.csv``. ``out_dir`` must be an existing directory, checked
    before any work: ``IoError`` otherwise.
    """
    if out_dir is not None and not os.path.isdir(out_dir):
        raise IoError(f"output directory {out_dir} is not an existing directory")
    seed_1 = derive_seed(cfg.master_seed, 1)
    ancestor = init_network(spec, substream(seed_1, 2))
    current, record = _train_quantize_record(ancestor, dataset, cfg, 1, 1.0, seed_1)
    records = [record]
    _persist(current, records, out_dir)
    stop_reason = COMPLETED
    for g in range(2, cfg.generations + 1):
        try:
            child, rec = step_generation(current, dataset, cfg, g)
        except DeadLayer:
            stop_reason = STOP_DEAD_LAYER
            break
        if cfg.stop_on_metric_drop is not None and rec.f1 < records[0].f1 - cfg.stop_on_metric_drop:
            stop_reason = STOP_METRIC_DROP
            break
        records.append(rec)
        _persist(child, records, out_dir)
        current = child
    if out_dir is not None:
        save_lineage_report(records, os.path.join(out_dir, "lineage.csv"))
    return Lineage(records=records, stop_reason=stop_reason)
