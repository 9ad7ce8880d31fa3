"""Training's draw schedule written with plain numpy calls, as a test-only
reference for dtmv.market.episode_draws.

Per block of up to `block` episodes (n of them), one episode's draws being
one row, its T excess returns and then its T policy normals:
    normal: standard_normal((n, 2, T)), rows [returns, policy normals];
    skew-t: standard_normal((n, 3, T)), rows [the reflected normal, the
        independent normal, the policy normals], then chisquare(nu, (n, T));
        the returns are the Azzalini skew-t of those, standardized by its
        closed-form mean and variance;
    historical: integers(0, len - T + 1, n), the start of each episode's
        window of T consecutive values, then standard_normal((n, T)).
"""

import math

import numpy as np

from dtmv.market import NormalIID, SkewTIID, skewt_core_moments


def block_draws(model, T, rng, episodes, block):
    """The rows of `episodes` episodes: each a list of its returns, then its policy normals."""
    draws = []
    for done in range(0, episodes, block):
        n = min(block, episodes - done)
        if isinstance(model, NormalIID):
            z = rng.standard_normal((n, 2, T))
            rets, normals = model.a + model.sigma * z[:, 0], z[:, 1]
        elif isinstance(model, SkewTIID):
            z = rng.standard_normal((n, 3, T))
            chi2 = rng.chisquare(model.nu, (n, T))
            delta = model.slant / math.sqrt(1.0 + model.slant * model.slant)
            skew_normal = delta * np.abs(z[:, 0]) + math.sqrt(1.0 - delta * delta) * z[:, 1]
            t = skew_normal / np.sqrt(chi2 / model.nu)
            mean, var = skewt_core_moments(model.nu, model.slant)
            rets, normals = model.a + model.sigma * ((t - mean) / math.sqrt(var)), z[:, 2]
        else:
            values = np.asarray(model.series.values, dtype=float)
            starts = rng.integers(0, len(values) - T + 1, n)
            rets = np.array([values[s : s + T] for s in starts]).reshape(n, T)
            normals = rng.standard_normal((n, T))
        draws += [r + z for r, z in zip(rets.tolist(), normals.tolist())]
    return draws
