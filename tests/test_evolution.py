"""Generational loop: seeding, inheritance, stop rules, persistence."""

import re

import numpy as np
import pytest

from evosynth.dataio import (
    GenerationRecord,
    load_lineage_report,
    load_model,
    load_model_meta,
    save_lineage_report,
    save_model,
    synth_gaussians,
)
from evosynth import netcore
from evosynth.errors import DeadLayer, IoError
from evosynth.evolution import (
    COMPLETED,
    STOP_DEAD_LAYER,
    STOP_METRIC_DROP,
    EvolutionConfig,
    derive_seed,
    evolve,
    step_generation,
)
from evosynth.netcore import (
    DenseLayer,
    LayerSpec,
    Network,
    TrainConfig,
    count_active_synapses,
    inference_cost,
)


@pytest.fixture(scope="module")
def dataset():
    return synth_gaussians(120, 8, 3.0, seed=5)


SPEC = [LayerSpec(8, 16, "relu"), LayerSpec(16, 2, "relu")]
FAST_TRAIN = TrainConfig(max_epochs=8, patience=4)


def _cfg(**kw):
    base = dict(generations=4, train=FAST_TRAIN, stop_on_metric_drop=None, master_seed=1)
    base.update(kw)
    return EvolutionConfig(**base)


# seed derivation


def test_derive_seed_known_values():
    # first two outputs of the splitmix64 stream seeded with 0
    assert derive_seed(0, 0) == 0xE220A8397B1DCDAF
    assert derive_seed(0, 1) == 0x6E789E6AA1B965F4


def test_derive_seed_is_stable_and_distinct():
    seen = {derive_seed(m, g) for m in range(40) for g in range(25)}
    assert len(seen) == 1000
    for v in seen:
        assert 0 <= v < 2**64
    assert derive_seed(3, 7) == derive_seed(3, 7)


# config validation


@pytest.mark.parametrize("kw", [
    dict(generations=0),
    dict(retention_per_generation=0.0),
    dict(retention_per_generation=1.2),
    dict(stop_on_metric_drop=-0.1),
    dict(master_seed=-1),
    dict(master_seed=2**64),
])
def test_config_rejects(kw):
    with pytest.raises(ValueError):
        EvolutionConfig(**kw)


def test_config_accepts_boundaries():
    EvolutionConfig(retention_per_generation=1.0, stop_on_metric_drop=None, generations=1)


# single generation step


def _uniform_magnitude_parent():
    # equal-magnitude weights make every active synapse probability 1
    signs0 = np.array([[1, -1, 1, -1], [-1, 1, -1, 1], [1, 1, -1, -1]], dtype=np.float32)
    signs1 = np.array([[1, -1, 1], [-1, 1, -1]], dtype=np.float32)
    return Network(layers=[
        DenseLayer(weights=0.5 * signs0, mask=np.ones((3, 4), dtype=np.uint8),
                   bias=np.zeros(3, dtype=np.float32), activation="relu"),
        DenseLayer(weights=0.5 * signs1, mask=np.ones((2, 3), dtype=np.uint8),
                   bias=np.zeros(2, dtype=np.float32), activation="relu"),
    ], generation=1, precision_tag="full")


@pytest.fixture(scope="module")
def tiny_dataset():
    return synth_gaussians(40, 4, 3.0, seed=2)


def test_step_requires_generation_two(dataset):
    with pytest.raises(ValueError):
        step_generation(_uniform_magnitude_parent(), dataset, _cfg(), 1)


def test_step_is_deterministic(dataset, tiny_dataset):
    cfg = _cfg(master_seed=6)
    a, ra = step_generation(_uniform_magnitude_parent(), tiny_dataset, cfg, 2)
    b, rb = step_generation(_uniform_magnitude_parent(), tiny_dataset, cfg, 2)
    assert ra == rb
    for la, lb in zip(a.layers, b.layers):
        assert la.weights.tobytes() == lb.weights.tobytes()
        np.testing.assert_array_equal(la.mask, lb.mask)


def test_step_full_retention_preserves_mask_and_weights(tiny_dataset):
    parent = _uniform_magnitude_parent()
    cfg = _cfg(retention_per_generation=1.0,
               train=TrainConfig(max_epochs=0, batch_size=16), master_seed=9)
    child, rec = step_generation(parent, tiny_dataset, cfg, 2)
    # probability 1 everywhere: the child keeps the parent topology, and with
    # no training epochs the inherited values come back exactly
    for cl, pl in zip(child.layers, parent.layers):
        np.testing.assert_array_equal(cl.mask, pl.mask)
        np.testing.assert_array_equal(cl.weights, pl.weights)
    assert child.generation == 2
    assert child.precision_tag == "half"
    assert rec.alpha == 1.0
    assert rec.generation == 2
    assert rec.seed == derive_seed(9, 2)
    assert rec.active_synapses == 18
    assert rec.total_synapses == 18
    assert rec.macs == 18 + 5


def test_step_dropped_negative_weights_persist_cleanly(tiny_dataset, tmp_path):
    # dropping a negative weight must store canonical +0.0, or the saved
    # file would carry a negative-zero half code and fail integrity checks
    parent = _uniform_magnitude_parent()
    for layer in parent.layers:
        layer.weights[:] = -np.abs(layer.weights) * (1.0 + np.arange(layer.weights.size,
                                                                     dtype=np.float32).reshape(layer.weights.shape))
    cfg = _cfg(retention_per_generation=0.5,
               train=TrainConfig(max_epochs=0, batch_size=16), master_seed=4)
    child, _ = step_generation(parent, tiny_dataset, cfg, 2)
    dropped = sum(int((l.mask == 0).sum()) for l in child.layers)
    assert dropped > 0
    for layer in child.layers:
        gone = layer.weights[layer.mask == 0]
        assert np.all(gone == 0.0)
        assert not np.signbit(gone).any()
    path = str(tmp_path / "child.json")
    save_model(child, path)
    load_model(path)


def test_step_masks_only_shrink(dataset):
    cfg = _cfg(master_seed=3)
    lin = evolve(SPEC, dataset, cfg)
    actives = [r.active_synapses for r in lin.records]
    assert all(a >= b for a, b in zip(actives, actives[1:]))
    assert actives[0] == 8 * 16 + 16 * 2


# full runs


def test_evolve_completes_and_persists(dataset, tmp_path):
    out = str(tmp_path / "run")
    (tmp_path / "run").mkdir()
    lin = evolve(SPEC, dataset, _cfg(), out_dir=out)
    assert lin.stop_reason == COMPLETED
    assert [r.generation for r in lin.records] == [1, 2, 3, 4]
    for g, r in zip(range(1, 5), lin.records):
        assert r.seed == derive_seed(1, g)
        assert 0.0 <= r.precision <= 1.0
        assert 0.0 <= r.recall <= 1.0
        assert 0.0 <= r.f1 <= 1.0
        assert np.isfinite(r.train_loss) and r.train_loss >= 0.0
        assert r.total_synapses == 160
        stored = load_model(f"{out}/gen_{g}.json")
        assert stored.precision_tag == "half"
        assert stored.generation == g
        assert count_active_synapses(stored) == r.active_synapses
        assert inference_cost(stored) == r.macs
        meta = load_model_meta(f"{out}/gen_{g}.json")
        assert meta.precision == "binary16"
        assert meta.seed == r.seed
        assert meta.alpha_history == [x.alpha for x in lin.records[:g]]
    rows = load_lineage_report(f"{out}/lineage.csv")
    assert [row.generation for row in rows] == [1, 2, 3, 4]
    assert [row.active_synapses for row in rows] == [r.active_synapses for r in lin.records]


def test_evolve_is_byte_deterministic(dataset, tmp_path):
    for name in ("a", "b"):
        (tmp_path / name).mkdir()
        evolve(SPEC, dataset, _cfg(), out_dir=str(tmp_path / name))
    for fname in ("lineage.csv", "gen_1.json", "gen_4.json"):
        assert (tmp_path / "a" / fname).read_bytes() == (tmp_path / "b" / fname).read_bytes()


@pytest.mark.parametrize("master_seed", [1, 2])
def test_lineage_csv_round_trips_through_generation_records(pinned_run, tmp_path, master_seed):
    # the 16-64-32-2 acceptance run: 13 generations of typed rows
    run = pinned_run("lineage-small", master_seed)
    records = load_lineage_report(str(run.out / "lineage.csv"))
    assert len(records) == len(run.lineage.records) == 13
    assert all(type(r) is GenerationRecord for r in records)
    for got, want in zip(records, run.lineage.records):
        assert (got.generation, got.active_synapses, got.total_synapses, got.macs, got.seed) == (
            want.generation, want.active_synapses, want.total_synapses, want.macs, want.seed)
        assert got.f1 == pytest.approx(want.f1, rel=1e-5)
    save_lineage_report(records, str(tmp_path / "resaved.csv"))
    assert (tmp_path / "resaved.csv").read_bytes() == (run.out / "lineage.csv").read_bytes()


def test_evolve_single_generation(dataset):
    lin = evolve(SPEC, dataset, _cfg(generations=1))
    assert len(lin.records) == 1
    assert lin.stop_reason == COMPLETED
    assert lin.records[0].generation == 1
    assert lin.records[0].alpha == 1.0


def test_evolve_stops_on_metric_drop(dataset):
    # master seed 2 first dips below the ancestor f1 at generation 3
    lin = evolve(SPEC, dataset, _cfg(master_seed=2, stop_on_metric_drop=0.0))
    assert lin.stop_reason == STOP_METRIC_DROP
    assert [r.generation for r in lin.records] == [1, 2]
    assert all(r.f1 >= lin.records[0].f1 for r in lin.records)


def test_evolve_metric_drop_excludes_violator(dataset, tmp_path):
    out = str(tmp_path)
    lin = evolve(SPEC, dataset, _cfg(master_seed=2, stop_on_metric_drop=0.0), out_dir=out)
    assert (tmp_path / "gen_2.json").exists()
    assert not (tmp_path / "gen_3.json").exists()
    rows = load_lineage_report(f"{out}/lineage.csv")
    assert len(rows) == len(lin.records) == 2


def test_evolve_tolerates_allowed_drop(dataset):
    # the dip at generation 3 is well inside a loose threshold
    lin = evolve(SPEC, dataset, _cfg(master_seed=2, stop_on_metric_drop=0.10))
    assert lin.stop_reason == COMPLETED
    assert len(lin.records) == 4


def test_evolve_stops_on_dead_layer(dataset, monkeypatch):
    def boom(parent, ds, cfg, g):
        raise DeadLayer("no live synapses")

    monkeypatch.setattr("evosynth.evolution.step_generation", boom)
    lin = evolve(SPEC, dataset, _cfg())
    assert lin.stop_reason == STOP_DEAD_LAYER
    assert len(lin.records) == 1


def test_evolve_without_out_dir_writes_nothing(dataset, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    lin = evolve(SPEC, dataset, _cfg(generations=2))
    assert len(lin.records) == 2
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("make", [lambda path: None, lambda path: path.write_text("")],
                         ids=["missing", "regular-file"])
def test_evolve_checks_out_dir_before_any_training(dataset, tmp_path, monkeypatch, make):
    out = tmp_path / "out"
    make(out)
    trains = []
    monkeypatch.setattr("evosynth.evolution.train", lambda *args, **kw: trains.append(args))
    with pytest.raises(IoError, match=re.escape(str(out))):
        evolve(SPEC, dataset, _cfg(), out_dir=str(out))
    assert trains == []


def test_evolve_draws_each_validation_split_once(dataset, monkeypatch):
    # the record's metrics and train_loss use the split train returns
    calls = []
    real_split = netcore.validation_split

    def counting_split(*args):
        calls.append(args)
        return real_split(*args)

    monkeypatch.setattr(netcore, "validation_split", counting_split)
    lin = evolve(SPEC, dataset, _cfg(generations=3))
    assert len(lin.records) == 3
    assert len(calls) == 3
