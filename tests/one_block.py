"""One conjugate block at a time, through the fitters' own code: a block's
law over a fresh ``model.Sweep``, AVB's q-update as ``avb.sweep`` with no base
step over the given blocks, and the sampler's draw as ``mcmc.draw_block``."""

import numpy as np

from gpalign.avb import sweep
from gpalign.mcmc import draw_block
from gpalign.model import BLOCKS, Sweep


def block_law(name, state, data, config, pen, weight):
    """Block ``name``'s law at ``state``: a Gaussian block's at zero noise,
    its means (for z0, the free shifts updated in turn) and variances."""
    kind, law = BLOCKS[name]
    s = Sweep(state, data, config, pen, weight)
    return law(s, np.zeros) if kind == "gaussian" else law(s)


def set_q(state, data, config, pen, weight, *blocks):
    """AVB's q-updates of ``blocks`` alone, in turn, under ``weight``."""
    sweep(state, data, config, pen, None, weight, 0, blocks=blocks)


def draw(latent, data, config, pen, weight, rng, *blocks):
    """The sampler's draws of ``blocks`` alone, in turn, from ``rng``, each
    over a fresh ``Sweep`` of ``latent``; a noisy ``config`` reads the weight
    at the roughness precisions instead."""
    for name in blocks:
        draw_block(Sweep(latent, data, config, pen, None if config.noisy else weight),
                   name, rng)
