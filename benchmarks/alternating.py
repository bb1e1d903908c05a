"""Alternating timed rounds for the kernel benchmarks.

Each round runs every side of a leg once, after a full collection each,
in an order that rotates from round to round; a ratio is the median of
its per-round ratios, so a slow spell of the host hits both sides of a
ratio alike.  A side is a callable returning ``(seconds, result)``.
"""

import gc
import statistics


def rounds(sides: dict, count: int) -> dict:
    """Each side's ``(seconds, result)`` per round, by side name."""
    names = list(sides)
    runs = {name: [] for name in names}
    for index in range(count):
        shift = index % len(names)
        for name in names[shift:] + names[:shift]:
            gc.collect()
            runs[name].append(sides[name]())
    return runs


def median_ratio(runs: dict, top: str, bottom) -> float:
    """The median over rounds of ``top``'s time over ``bottom``'s (over
    the fastest of ``bottom``'s sides, when it names several)."""
    names = [bottom] if isinstance(bottom, str) else bottom
    return statistics.median(
        runs[top][i][0] / min(runs[name][i][0] for name in names)
        for i in range(len(runs[top]))
    )


def median_seconds(runs: dict, name: str) -> float:
    """The median time of one side."""
    return statistics.median(seconds for seconds, _ in runs[name])
