"""Address arithmetic: words, cache lines and directory homes.

The machine is word-addressed at 8-byte granularity (Alpha is a 64-bit
architecture); cache lines are 64 bytes (Table II), i.e. 8 words.
Physical memory is interleaved across the directories at cache-line
granularity: line ``l`` is homed at directory ``l mod num_dirs``, the
standard DSM mapping the paper's Fig. 2 assumes (each directory "maps
different segments of the physical memory").

:class:`AddressMap` holds and validates that geometry.  The processor
and the directories compute ``addr // line_bytes`` and
``line % num_dirs`` inline on their per-access paths.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import MemoryModelError

WORD_BYTES = 8

__all__ = ["WORD_BYTES", "AddressMap"]


@dataclass(frozen=True)
class AddressMap:
    """The address geometry of one machine configuration."""

    line_bytes: int
    num_dirs: int
    memory_bytes: int

    def __post_init__(self) -> None:
        if self.line_bytes % WORD_BYTES != 0:
            raise MemoryModelError(
                f"line size {self.line_bytes} must be a multiple of the "
                f"{WORD_BYTES}-byte word"
            )
        if self.num_dirs < 1:
            raise MemoryModelError("need at least one directory")
        if self.memory_bytes < self.line_bytes:
            raise MemoryModelError("memory smaller than one cache line")

    # -- validation ----------------------------------------------------
    def check_word_addr(self, addr: int) -> int:
        """Validate an 8-byte-aligned byte address inside memory."""
        if addr < 0 or addr + WORD_BYTES > self.memory_bytes:
            raise MemoryModelError(
                f"address {addr:#x} outside memory of {self.memory_bytes} bytes"
            )
        if addr % WORD_BYTES != 0:
            raise MemoryModelError(f"address {addr:#x} is not word-aligned")
        return addr
