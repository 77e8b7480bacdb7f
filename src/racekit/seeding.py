"""Deterministic seed derivation.

Every random stream in the kit is derived from one global seed plus a
stage name, so reruns with the same seed reproduce byte-identical output
while distinct stages (collection, masking, noise, ...) stay decorrelated.
The annotations stay unevaluated, so importing this module does not load
`numpy.random`: a command that draws nothing (`collect`, `track`) never
does, and one that draws loads it on its first `rng_for`.
"""

from __future__ import annotations

import hashlib

import numpy as np


def sub_seed(seed: int, stage: str) -> int:
    """Derive a 63-bit sub-seed from (seed, stage name)."""
    digest = hashlib.sha256(f"{seed}:{stage}".encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1


def rng_for(seed: int, stage: str) -> np.random.Generator:
    return np.random.default_rng(sub_seed(seed, stage))
