"""Order statistics for benchmark results: quartiles, spreads and paired wins."""

from __future__ import annotations

import statistics


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    values = list(values)
    if not values:
        raise ValueError("no values")
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    if q2 == 0:
        raise ZeroDivisionError("median is zero")
    return (q3 - q1) / abs(q2)


def worse_by(parent: float, change: float, better: str) -> float:
    """How much worse ``change`` is than ``parent``, as a share of ``parent``."""
    delta = (change - parent) if better == "lower" else (parent - change)
    return delta / abs(parent)


def pair_wins(parent: list[float], change: list[float], better: str) -> float:
    """Share of paired runs that the change won; ties count for neither side."""
    if len(parent) != len(change) or not parent:
        raise ValueError("need equally many parent and change runs")
    wins = sum(1 for a, b in zip(parent, change)
               if (b < a if better == "lower" else b > a))
    return wins / len(parent)
