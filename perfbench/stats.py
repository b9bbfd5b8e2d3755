"""Statistics shared by the benchmark (run.py) and the compare tool.

Every function here is pure and covered by test_stats.py.
"""

import math
import statistics

# A tail percentile is reported only when every class has at least this
# many samples strictly beyond it (choosing-metrics rule: "the highest
# percentile that has at least ten samples beyond it").
MIN_BEYOND = 10

# A sample is part of a burst when it exceeds its class median by this
# factor.
BURST_FACTOR = 1.3


def geomean(values):
    values = list(values)
    if not values or any(v <= 0 for v in values):
        raise ValueError("geomean needs positive values, got %r" % values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def percentile(values, q):
    """Nearest-rank percentile, q in (0, 1]: the smallest sample with at
    least q of the samples at or below it."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(q * len(xs)))
    return xs[rank - 1]


def samples_beyond(n, q):
    """How many of n samples lie strictly above the nearest-rank q-th
    percentile."""
    return n - max(1, math.ceil(q * n))


def tail_supported(counts, q):
    """True when every class (given by its sample count) has at least
    MIN_BEYOND samples beyond its q-th percentile."""
    return bool(counts) and all(samples_beyond(n, q) >= MIN_BEYOND
                                for n in counts)


def class_percentile_geomean(samples_by_class, q):
    """Geometric mean across classes of each class's q-th percentile.

    Pooling samples of different job classes into one percentile makes
    it jump between the classes' modes; the per-class percentile does
    not, and the geometric mean weighs every class alike."""
    if not samples_by_class:
        raise ValueError("no classes")
    return geomean(percentile(s, q) for s in samples_by_class.values())


def burst_share(samples_by_class, factor=BURST_FACTOR):
    """Share of all samples above factor x their own class median."""
    total = above = 0
    for samples in samples_by_class.values():
        med = statistics.median(samples)
        total += len(samples)
        above += sum(1 for s in samples if s > factor * med)
    return above / total if total else 0.0


def ok_accounting(attempted, replies):
    """(ok_ratio, failed) for `attempted` requests of which `replies` is
    the list of per-reply verdicts (True = correct). A request with no
    reply is a failure, as is a wrong reply."""
    if attempted < len(replies):
        raise ValueError("more replies than requests")
    if attempted == 0:
        return 0.0, 0
    correct = sum(1 for ok in replies if ok)
    return correct / attempted, attempted - correct


def self_times(spans):
    """Self time of every span: its duration minus the part of its
    interval that its children cover. Overlapping children are counted
    once (the union of their intervals, clipped to the parent).

    spans: list of dicts with id, parent (-1 for a root), start_ns,
    end_ns. Returns {id: self_ns}."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        lo, hi = s["start_ns"], s["end_ns"]
        covered = 0
        cur_lo = cur_hi = None
        for c in sorted(children.get(s["id"], []),
                        key=lambda c: c["start_ns"]):
            a, b = max(lo, c["start_ns"]), min(hi, c["end_ns"])
            if b <= a:
                continue
            if cur_hi is None or a > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = a, b
            else:
                cur_hi = max(cur_hi, b)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[s["id"]] = (hi - lo) - covered
    return out


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    values = list(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Interquartile range as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else 0.0

