"""Arithmetic of the compare mode: quartiles, spread, pairs won and the
verdict for one metric on one workload.

The verdict follows the repository's rule for small sandboxes: a change
"improved" a metric when it won at least nine tenths of the pairs run
(ties count for neither) and its median moved, in the better direction,
by more than the distance between the parent's quartiles.  Otherwise it
is "no worse" when its median is within the metric's bound of the
parent's and the parent's own spread is within that bound, "worse" when
the median is beyond the bound, and "unresolved" when the spread is too
wide to tell (or the metric has no bound) -- unless every run of the
change reads better than every run of the parent.
"""

import statistics

WIN_SHARE = 0.9


def quartiles(values):
    """First quartile, median and third quartile, as the benchmark's
    acceptance check computes them (statistics.quantiles, n=4)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Distance between the quartiles as a share of the median; 0 when
    the median is 0."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


def better(a, b, direction):
    """Does value a read better than value b?"""
    return a < b if direction == "lower" else a > b


def pairs_won(parent, change, direction):
    """Share of pairs the change won, pairing runs by seed.  parent and
    change map seed -> value; ties count for neither side."""
    seeds = sorted(set(parent) & set(change))
    if not seeds:
        return 0.0, 0
    wins = sum(1 for s in seeds if better(change[s], parent[s], direction))
    return wins / len(seeds), len(seeds)


def verdict(parent, change, direction, bound):
    """Verdict for one metric on one workload.  parent and change map
    seed -> value; bound is the allowed worsening as a share of the
    parent's median, or None."""
    pv, cv = list(parent.values()), list(change.values())
    p1, pm, p3 = quartiles(pv)
    _, cm, _ = quartiles(cv)
    won, _ = pairs_won(parent, change, direction)
    if won >= WIN_SHARE and better(cm, pm, direction) and abs(cm - pm) > p3 - p1:
        return "improved"
    if all(better(c, p, direction) for c in cv for p in pv):
        return "no worse"
    if bound is None or spread(pv) > bound:
        return "unresolved"
    worse_by = (cm - pm) if direction == "lower" else (pm - cm)
    return "no worse" if worse_by <= bound * abs(pm) else "worse"
