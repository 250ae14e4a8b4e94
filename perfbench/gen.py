"""Seeded input generators.

Every input the program sees — key choice, operation mix, arrival times —
comes from here, from NumPy generators keyed by ``(seed, stream)``.  The
program itself receives only the generated calls; the simulator's own
configuration seed is never touched.  The Zipf sampler is the Gray et al.
inversion YCSB uses, kept here rather than borrowed from the program so
that a change to the program cannot change the benchmark's inputs.
"""

from __future__ import annotations

import numpy as np

__all__ = ["KeyChooser", "stream", "make_keys"]


def stream(seed: int, *ids: int) -> np.random.Generator:
    """An independent generator for one client/user of one run."""
    return np.random.default_rng([seed, *ids])


def make_keys(n: int) -> list[bytes]:
    """``n`` distinct 16-byte keys; key id ``i`` is ``keys[i]``."""
    return [b"k%015d" % i for i in range(n)]


class KeyChooser:
    """Draws key ids uniformly or Zipf(theta)-distributed over ``n`` keys.

    Zipf ranks are scrambled through a fixed permutation so that the
    popular keys land on different shards, as YCSB's scrambled Zipfian
    does with a fixed hash.  Which keys are hot is part of the workload's
    shape, the same for every seed; the seed varies the draws.
    """

    def __init__(self, n: int, dist: str, theta: float):
        if dist not in ("zipf", "uniform"):
            raise ValueError(f"unknown key distribution {dist!r}")
        self.n = n
        self.dist = dist
        if dist == "zipf":
            if not 0 < theta < 1:
                raise ValueError("theta must be in (0, 1)")
            ranks = np.arange(1, n + 1, dtype=np.float64)
            zetan = float(np.sum(ranks ** -theta))
            zeta2 = 1.0 + 0.5 ** theta
            self._theta = theta
            self._zetan = zetan
            self._alpha = 1.0 / (1.0 - theta)
            self._eta = ((1.0 - (2.0 / n) ** (1.0 - theta))
                         / (1.0 - zeta2 / zetan))
            self._perm = np.random.default_rng(n).permutation(n)

    def draw(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """``size`` key ids as an int64 array."""
        if self.dist == "uniform":
            return rng.integers(0, self.n, size=size)
        u = rng.random(size)
        uz = u * self._zetan
        ranks = (self.n * (self._eta * u - self._eta + 1.0)
                 ** self._alpha).astype(np.int64)
        ranks = np.where(uz < 1.0, 0, ranks)
        ranks = np.where((uz >= 1.0) & (uz < 1.0 + 0.5 ** self._theta),
                         1, ranks)
        return self._perm[np.clip(ranks, 0, self.n - 1)]
