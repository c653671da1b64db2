"""The benchmark's arithmetic: exact percentiles, the percentile a sample
supports, chunk and window medians, failure counting and self time.
Tested by test_stats.py."""

import bisect
import math
import statistics

# Percentiles the report may name, lowest first.
PERCENTILE_LADDER = (50.0, 90.0, 95.0, 99.0, 99.9, 99.99)
# A percentile is supported when at least this many samples lie above it.
SAMPLES_BEYOND = 10


def percentile(values, p):
    """Exact nearest-rank p-th percentile (0 < p <= 100) of `values`: the
    smallest sample with at least p% of the samples at or below it."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 < p <= 100.0:
        raise ValueError(f"percentile {p} outside (0, 100]")
    ordered = sorted(values)
    rank = math.ceil(p / 100.0 * len(ordered) - 1e-9)
    return ordered[max(rank, 1) - 1]


def whole_unit_percentile(values, p):
    """p-th percentile of durations truncated to whole units, as the
    engine's trace stages are to whole microseconds. A value v stands for
    a duration spread evenly over [v, v + 1), and the percentile is
    interpolated within the unit the nearest-rank percentile falls in."""
    value = percentile(values, p)
    ordered = sorted(values)
    below = bisect.bisect_left(ordered, value)
    inside = bisect.bisect_right(ordered, value) - below
    return value + (p / 100.0 * len(ordered) - below) / inside


def highest_supported_percentile(count):
    """The highest PERCENTILE_LADDER percentile with at least
    SAMPLES_BEYOND samples above it in a sample of `count`, or None when
    even the median has fewer."""
    best = None
    for p in PERCENTILE_LADDER:
        rank = max(math.ceil(p / 100.0 * count - 1e-9), 1)
        if count - rank >= SAMPLES_BEYOND:
            best = p
    return best


def chunked(values, size, statistic):
    """Median of `statistic` over consecutive chunks of `size` values; the
    remainder joins the last chunk, and fewer than `size` values make one
    chunk. A stall confined to one chunk moves one of the medianed
    values, not the run's figure."""
    if not values:
        raise ValueError("no values to chunk")
    chunks = max(len(values) // size, 1)
    return statistics.median(
        statistic(values[k * size:(k + 1) * size if k + 1 < chunks else None])
        for k in range(chunks))


def window_rates(times, width):
    """Completions per time unit in each whole window of `width` that fits
    between the first and the last of `times`."""
    if not times:
        return []
    start = min(times)
    counts = [0] * int((max(times) - start) // width)
    for t in times:
        k = int((t - start) // width)
        if k < len(counts):
            counts[k] += 1
    return [c / width for c in counts]


def timing(values, whole_units=False):
    """Count, p50 and p99 of a list of durations (zeros when empty);
    `whole_units` for durations truncated to whole units."""
    if not values:
        return {"count": 0, "p50": 0.0, "p99": 0.0}
    pick = whole_unit_percentile if whole_units else percentile
    return {"count": len(values), "p50": pick(values, 50.0),
            "p99": pick(values, 99.0)}


def count_failures(err_replies, transport_failures, reference_mismatches,
                   failed_checks):
    """Every request that did not get the right answer: error replies,
    requests lost to the transport, replies the reference engine
    disagrees with, and failed run-level checks (a non-zero server exit,
    a wrong query pool)."""
    counts = (err_replies, transport_failures, reference_mismatches,
              failed_checks)
    if any(c < 0 for c in counts):
        raise ValueError(f"negative failure count in {counts}")
    return sum(counts)


def failed_fraction(failed, attempted):
    """Failures per request sent; a run that sent nothing failed whole."""
    if attempted <= 0:
        return 1.0
    return failed / attempted


def self_times(spans):
    """Maps each span id to its duration minus the durations of its
    children. `spans` holds (id, parent, name, start, end) tuples, parent
    -1 for a root. Children are stages that ran inside their parent (the
    parts of an analysis miss, the WAL append of an observe) and do not
    overlap each other."""
    children = {}
    for span_id, parent, _name, start, end in spans:
        if parent >= 0:
            children[parent] = children.get(parent, 0) + (end - start)
    return {span_id: (end - start) - children.get(span_id, 0)
            for span_id, _parent, _name, start, end in spans}
