"""Seeded randomness with stable named sub-streams.

A :class:`RngContext` owns one root seed and hands out independent child
generators addressed by a scope path (strings/ints), derived with a keyed
hash — never Python's process-randomized ``hash()``.  Two processes (or
two runs in one process) with the same root seed and the same scope get
bit-identical streams, which is what makes whole-stack runs replayable:
every module draws from ``runtime.rng.child("<module>.<purpose>", ...)``
instead of module-level ``random`` / ``np.random``.
"""

from __future__ import annotations

import hashlib
import random
from typing import Optional, Tuple

import numpy as np


def derive_seed(root_seed: int, scope: Tuple) -> int:
    """Stable 64-bit seed from a root seed and a scope path."""
    material = repr((int(root_seed),) + tuple(scope)).encode()
    digest = hashlib.blake2b(material, digest_size=8).digest()
    return int.from_bytes(digest, "big")


class RngContext:
    """Root seed plus derived, collision-resistant child streams."""

    def __init__(self, seed: int = 0):
        self.seed = int(seed)

    def child(self, *scope) -> random.Random:
        """A ``random.Random`` dedicated to ``scope``."""
        return random.Random(derive_seed(self.seed, scope))

    def np_child(self, *scope) -> np.random.Generator:
        """A NumPy generator dedicated to ``scope``."""
        return np.random.default_rng(derive_seed(self.seed, scope))

    def __repr__(self) -> str:
        return f"RngContext(seed={self.seed})"


def resolve_rng(rng: Optional[np.random.Generator],
                *scope) -> np.random.Generator:
    """``rng`` if given, else the installed runtime's stream for ``scope``.

    The sanctioned replacement for ``rng or np.random.default_rng(0)``
    constructor fallbacks: the ``is None`` test doesn't swallow falsy
    arguments, and the fallback stream derives from the run's root seed
    instead of a hard-coded constant, so a whole-stack run stays a
    deterministic function of one seed (enforced by lint rules DET102 /
    DET103).
    """
    if rng is not None:
        return rng
    from repro.runtime.core import get_runtime
    return get_runtime().rng.np_child(*scope)
