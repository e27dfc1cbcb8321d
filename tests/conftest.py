"""`pinned_run`: each lineage of bench/digests.json, evolved once per session."""

import time
from types import SimpleNamespace

import pytest

from evosynth import cli, evolution

from pinned_lineages import evolve_pinned


def _spy(mp, module, name, record):
    """``module.name`` calls the real function, then ``record``s its arguments and result."""
    real = getattr(module, name)

    def spy(*args, **kwargs):
        result = real(*args, **kwargs)
        record(*args, result)
        return result

    mp.setattr(module, name, spy)


@pytest.fixture(scope="session")
def pinned_run(tmp_path_factory):
    """``pinned_run(workload, seed)`` evolves that lineage through `cli.run` when a
    test first asks for it, and shares it read-only: ``out``, ``dataset``, ``lineage``,
    ``train_calls`` (generation -> the network and `TrainConfig` train started from),
    ``stored`` (generation -> the quantized network stored) and ``seconds``."""
    runs = {}

    def get(workload, seed):
        if (workload, seed) in runs:
            return runs[workload, seed]
        run = SimpleNamespace(train_calls={}, stored={})
        with pytest.MonkeyPatch.context() as mp:
            _spy(mp, cli, "evolve", lambda spec, dataset, cfg, lineage:
                 vars(run).update(dataset=dataset, lineage=lineage))
            _spy(mp, evolution, "train", lambda net, dataset, cfg, trained:
                 run.train_calls.update({net.generation: (net, cfg)}))
            # a copy holds no inference plan: a test that runs one prepares it afresh
            _spy(mp, evolution, "quantize_network", lambda net, quantized:
                 run.stored.update({net.generation: quantized.copy()}))
            start = time.monotonic()
            run.out = evolve_pinned(tmp_path_factory.mktemp(f"{workload}-{seed}"), workload, seed)
            run.seconds = time.monotonic() - start
        nets = [net for net, _ in run.train_calls.values()] + list(run.stored.values())
        for array in [a for net in nets for l in net.layers for a in (l.weights, l.mask, l.bias)] \
                + [run.dataset.features, run.dataset.labels]:
            array.flags.writeable = False
        runs[workload, seed] = run
        return run

    return get
