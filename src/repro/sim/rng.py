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

__all__ = [
    "derive_seed", "seed_prefix", "derive_seed_from", "spawn_rngs", "root_rng"
]

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = 0xFFFFFFFFFFFFFFFF


def _fnv1a_update(acc: int, context: tuple) -> int:
    for item in context:
        for byte in repr(item).encode():
            acc ^= byte
            acc = (acc * _FNV_PRIME) & _MASK64
    return acc


def derive_seed(root_seed: int, *context: object) -> int:
    """Derive a stable 63-bit child seed from a root seed and context.

    The context (workload name, thread id, phase name, ...) is hashed
    with a simple FNV-1a over its ``repr`` — stable across processes
    (unlike ``hash()`` which is salted for strings).
    """
    return _fnv1a_update(_FNV_OFFSET, (root_seed, *context)) & 0x7FFFFFFFFFFFFFFF


def seed_prefix(root_seed: int, *context: object) -> int:
    """FNV-1a accumulator state after hashing a fixed context prefix.

    FNV-1a is a sequential byte fold, so a caller that derives many
    seeds sharing a prefix (e.g. one per transaction index) can hash
    the prefix once and finish each derivation with
    :func:`derive_seed_from`.  By construction,
    ``derive_seed_from(seed_prefix(s, a), b) == derive_seed(s, a, b)``.
    """
    return _fnv1a_update(_FNV_OFFSET, (root_seed, *context))


def derive_seed_from(prefix: int, *context: object) -> int:
    """Finish a :func:`seed_prefix` derivation with the varying suffix."""
    return _fnv1a_update(prefix, context) & 0x7FFFFFFFFFFFFFFF


def root_rng(seed: int) -> np.random.Generator:
    """The run-level generator."""
    import numpy as np

    return np.random.default_rng(seed)


def spawn_rngs(seed: int, count: int) -> list[np.random.Generator]:
    """``count`` independent generators derived from ``seed``.

    Uses :class:`numpy.random.SeedSequence` spawning, the documented
    mechanism for parallel-stream independence.
    """
    import numpy as np

    seq = np.random.SeedSequence(seed)
    return [np.random.default_rng(child) for child in seq.spawn(count)]
