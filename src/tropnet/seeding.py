"""Counter-based random streams for reproducible parallel simulation.

Every stochastic routine in the package draws from a stream keyed by
``(master_seed, tag, index)``.  Streams are independent Philox generators,
so a result depends only on its key and never on scheduling, worker count,
or the order in which streams are consumed.
"""

from __future__ import annotations

import zlib

import numpy as np

#: Runs are simulated in fixed-size blocks; block ``b`` of a batch always
#: uses ``stream(seed, tag, b)`` regardless of how blocks are distributed
#: over workers.
BLOCK_SIZE = 8192


def tag_key(tag: str) -> int:
    """Stable 32-bit key for a module tag."""
    return zlib.crc32(tag.encode("utf-8"))


def stream(master_seed: int, tag: str, index: int = 0) -> np.random.Generator:
    """Return the generator addressed by (master_seed, tag, index)."""
    ss = np.random.SeedSequence(int(master_seed), spawn_key=(tag_key(tag), int(index)))
    return np.random.Generator(np.random.Philox(ss))


def item_seed(master_seed: int, tag: str, index: int) -> int:
    """128-bit master seed of item ``index`` of a run keyed by (master_seed, tag).

    Items that draw whole batches of their own (one classifier input, say)
    take this seed instead of arithmetic on the run seed, which makes item
    ``i`` of seed ``s`` reuse item ``i - 1`` of seed ``s + 1``.
    """
    ss = np.random.SeedSequence(int(master_seed), spawn_key=(tag_key(tag), int(index)))
    return int.from_bytes(ss.generate_state(4).tobytes(), "little")


def block_indices(n: int, block_size: int = BLOCK_SIZE):
    """Yield (block_index, start, size) covering ``n`` items."""
    b = 0
    start = 0
    while start < n:
        size = min(block_size, n - start)
        yield b, start, size
        b += 1
        start += size
