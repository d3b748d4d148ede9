"""Seed derivation.

Randomized searches evaluate independent work items (fold candidates,
bootstrap repetitions, PBT generations).  Each item draws from its own
generator derived from (master seed, item key), so an item's result does
not depend on which other items are evaluated, or in what order.
"""

from __future__ import annotations

import numpy as np


def derive_rng(*entropy: int) -> np.random.Generator:
    """Generator for the stream keyed by the given integer tuple."""
    return np.random.default_rng(np.random.SeedSequence(tuple(int(e) for e in entropy)))
