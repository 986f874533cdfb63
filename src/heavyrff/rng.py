"""Seeded, splittable random number streams.

Every sampler in this package takes an :class:`RngStream` rather than a bare
numpy generator so that experiments can record ``(seed, stream_id)`` pairs and
reproduce any draw sequence bit-for-bit.
"""

from __future__ import annotations

import numpy as np

_UINT64_MASK = (1 << 64) - 1
_SPLIT_MULT = 0x9E3779B97F4A7C15  # golden-ratio multiplier, avoids collisions


class RngStream:
    """A reproducible random stream identified by ``(seed, stream_id)``.

    Equal identifiers reproduce an identical sample sequence; distinct
    ``stream_id`` values give statistically independent streams (PCG64 seeded
    through a ``SeedSequence`` spawn key).
    """

    def __init__(self, seed: int, stream_id: int = 0):
        if not (0 <= seed <= _UINT64_MASK):
            raise ValueError(f"seed must fit in 64 bits, got {seed}")
        if not (0 <= stream_id <= _UINT64_MASK):
            raise ValueError(f"stream_id must fit in 64 bits, got {stream_id}")
        self.seed = int(seed)
        self.stream_id = int(stream_id)
        self._gen = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence(entropy=self.seed,
                                                   spawn_key=(self.stream_id,)))
        )

    @property
    def generator(self) -> np.random.Generator:
        """The underlying numpy generator (stateful: draws advance it)."""
        return self._gen

    def substream(self, k: int) -> "RngStream":
        """Derive an independent child stream, e.g. one per worker or row block.

        The child keeps the seed and takes the id
        ``stream_id * 0x9E3779B97F4A7C15 + k + 1 (mod 2**64)``. This map is
        not injective across parents: two different ``(stream_id, k)`` pairs
        can give the same child id, and then the same draws (for example
        ``k' = k + 0x9E3779B97F4A7C15`` from the parent ``stream_id - 1``).
        Children of one parent with distinct ``k`` are distinct streams.
        """
        child = (self.stream_id * _SPLIT_MULT + k + 1) & _UINT64_MASK
        return RngStream(self.seed, child)

    def fresh(self) -> "RngStream":
        """A new stream with the same identity but rewound state."""
        return RngStream(self.seed, self.stream_id)

    def __repr__(self) -> str:
        return f"RngStream(seed={self.seed}, stream_id={self.stream_id})"
