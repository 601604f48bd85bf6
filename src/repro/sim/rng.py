"""Deterministic random-number plumbing.

Every stochastic choice in the simulator (workload data, access
patterns) flows from one root seed through ``numpy``'s SeedSequence
spawning discipline, so:

* the same ``SystemConfig.seed`` reproduces the identical run, and
* per-thread streams are independent — thread 3's draws do not change
  when thread 2 draws more (crucial for comparing 4- vs 8-core runs of
  "the same" workload).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

__all__ = ["derive_seed", "spawn_rngs"]

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = 0xFFFFFFFFFFFFFFFF


def derive_seed(root_seed: int, *context: object) -> int:
    """Derive a stable 63-bit child seed from a root seed and context.

    The context (workload name, thread id, phase name, ...) is hashed
    with a simple FNV-1a over its ``repr`` — stable across processes
    (unlike ``hash()`` which is salted for strings).
    """
    acc = _FNV_OFFSET
    for item in (root_seed, *context):
        for byte in repr(item).encode():
            acc ^= byte
            acc = (acc * _FNV_PRIME) & _MASK64
    return acc & 0x7FFFFFFFFFFFFFFF


def spawn_rngs(seed: int, count: int) -> list[np.random.Generator]:
    """``count`` independent generators derived from ``seed``.

    Uses :class:`numpy.random.SeedSequence` spawning, the documented
    mechanism for parallel-stream independence.
    """
    import numpy as np

    seq = np.random.SeedSequence(seed)
    return [np.random.default_rng(child) for child in seq.spawn(count)]
