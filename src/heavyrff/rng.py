"""Seeded, splittable random number streams.

Every sampler in this package takes an :class:`RngStream` rather than a bare
numpy generator so that experiments can record ``(seed, stream_id)`` pairs and
reproduce any draw sequence bit-for-bit.
"""

from __future__ import annotations

import numbers

import numpy as np

_UINT64_MASK = (1 << 64) - 1
_SPLIT_MULT = 0x9E3779B97F4A7C15  # golden-ratio multiplier, avoids collisions


def is_integer(value) -> bool:
    """True for a Python or numpy integer, False for a bool and any other type."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def count(name: str, value) -> int:
    """``value`` as an int if it is a count, a Python or numpy integer >= 1 (not a bool)."""
    if not is_integer(value) or value < 1:
        raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
    return int(value)


def is_real(value) -> bool:
    """True for a Python or numpy real number, False for a bool and any other type."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def real(name: str, value, interval: str) -> float:
    """``value`` as a float if it is a real number (``is_real``) in ``interval``.

    ``interval`` is text such as ``"(0, inf)"``, ``"[0, inf)"`` or ``"(0, 2]"``:
    a bracket includes its end and a parenthesis excludes it, and the same text
    names the interval in the refusal. NaN lies in no interval, and an integer
    too large for a float in none either.
    """
    lo, hi = (float(end) for end in interval[1:-1].split(","))
    try:
        x = float(value) if is_real(value) else np.nan
    except OverflowError:
        x = np.nan
    if not ((lo <= x if interval[0] == "[" else lo < x)
            and (x <= hi if interval[-1] == "]" else x < hi)):
        raise ValueError(f"{name} must be a real number in {interval}, got {value!r}")
    return x


def real_array(name: str, A) -> np.ndarray:
    """``A`` as a float array, refusing by name one that is not bool, integer or
    float: the float cast would drop a complex one's imaginary parts with no
    more than a warning, and fail on a string one with numpy's own text."""
    A = np.asarray(A)
    if A.dtype.kind not in "biuf":
        raise ValueError(f"{name} must be real, got {A.dtype}")
    return A.astype(float, copy=False)


def _finite(name: str, A: np.ndarray) -> np.ndarray:
    """``A`` if its entries are finite. Finiteness is read from ``A.min()`` and
    ``A.max()``, which NaN propagates through, so no mask of A's size is
    formed; an empty A has no entries to refuse."""
    if A.size and not (np.isfinite(A.min()) and np.isfinite(A.max())):
        raise ValueError(f"{name} must be finite")
    return A


def matrix(name: str, A, cols: int | None = None) -> np.ndarray:
    """``A`` as a float array if it is a data matrix: a real, finite, nonempty
    2-D array, with ``cols`` columns when given."""
    A = real_array(name, A)
    if A.ndim != 2 or 0 in A.shape:
        raise ValueError(f"{name} must be a nonempty 2-D array, got shape {A.shape}")
    if cols is not None and A.shape[1] != cols:
        raise ValueError(f"{name} must have {cols} columns, got shape {A.shape}")
    return _finite(name, A)


def vectors(name: str, A, d: int) -> np.ndarray:
    """``A`` as a float array if it is a batch of d-vectors: a real, finite
    array of any leading shape, an empty one included, whose last axis is d."""
    A = real_array(name, A)
    if A.shape[-1:] != (d,):
        raise ValueError(f"{name} must have shape (..., {d}), got shape {A.shape}")
    return _finite(name, A)


class RngStream:
    """A reproducible random stream identified by ``(seed, stream_id)``.

    Equal identifiers reproduce an identical sample sequence; distinct
    ``stream_id`` values give statistically independent streams (PCG64 seeded
    through a ``SeedSequence`` spawn key).
    """

    def __init__(self, seed: int, stream_id: int = 0):
        for name, value in (("seed", seed), ("stream_id", stream_id)):
            # int() would read 5.7 as 5 and True as 1: another draw, no word said
            if not is_integer(value):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if not 0 <= value <= _UINT64_MASK:
                raise ValueError(f"{name} must fit in 64 bits, got {value}")
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
