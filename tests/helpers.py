"""Helpers that several test files share."""

import numpy as np

from evosynth.netcore import mean_loss


def put(*path_and_value):
    """The document mutation that sets doc[path...] = value."""
    *path, key, value = path_and_value

    def mutate(doc):
        for step in path:
            doc = doc[step]
        doc[key] = value
    return mutate


def fd_grad(net, x, y, li, key, idx, eps=1e-3):
    """Central finite difference of `mean_loss` in entry ``idx`` of layer
    ``li``'s ``key`` ("weights" or "bias"), over the binary32 step taken."""
    # inference freezes a network's arrays, so each probe is a new array
    layer = net.layers[li]
    orig = getattr(layer, key)
    probes = []
    for step in (eps, -eps):
        probe = orig.copy()
        probe[idx] = np.float32(float(orig[idx]) + step)
        setattr(layer, key, probe)
        probes.append((float(probe[idx]), mean_loss(net, x, y)))
    setattr(layer, key, orig)
    (up, lp), (dn, lm) = probes
    return (lp - lm) / (up - dn)
