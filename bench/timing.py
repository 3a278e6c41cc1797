"""Summaries of per-operation times."""

from __future__ import annotations

import math
import statistics


def median(values):
    values = list(values)
    return statistics.median(values) if values else math.nan


def median_round_mean(records, select):
    """Median over rounds of the mean time of the records chosen by `select`.

    Every round holds the same mix of operations on freshly drawn inputs, so
    a round's mean varies less between runs than single operations do.
    """
    rounds = {}
    for rec in records:
        if select(rec):
            rounds.setdefault(rec["round"], []).append(rec["s"])
    return median(sum(times) / len(times) for times in rounds.values())


def minima(records, key, select):
    """Fastest time of each repeated operation, keyed by `key(record)`.

    A run repeats each of these operations on identical inputs, and the
    fastest repeat is the one least slowed by other work on the machine.
    """
    best = {}
    for rec in records:
        if select(rec):
            k = key(rec)
            best[k] = min(best.get(k, math.inf), rec["s"])
    return best
