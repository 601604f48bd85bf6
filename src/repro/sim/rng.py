"""Deterministic random-number plumbing.

Every stochastic choice in the simulator flows from one root seed
through :func:`derive_seed` and a context naming the consumer: the
workload builders seed their NumPy generators with it (workload data,
access patterns), and randomized back-off draws from it directly.  So:

* the same ``SystemConfig.seed`` reproduces the identical run, and
* streams are independent — thread 3's draws do not change when
  thread 2 draws more (crucial for comparing 4- vs 8-core runs of
  "the same" workload).
"""

from __future__ import annotations

__all__ = ["derive_seed"]

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

