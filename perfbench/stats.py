"""Summary statistics, span self-time arithmetic and the score oracle.

Plain Python only: the harness self-test runs these without numpy, and the
score oracle must not share code with ``ecgdx.scoring``.
"""

from __future__ import annotations

import math
import statistics

#: percentiles considered when summarising a timing, lowest first
PERCENTILE_LADDER = (50.0, 90.0, 99.0, 99.9, 99.99)
#: a percentile is reported only with at least this many samples beyond it
MIN_BEYOND = 10


def high_percentile(values) -> tuple[float, float] | None:
    """The highest ladder percentile with >= 10 samples beyond it.

    Returns ``(q, value)``, where value is the sample of 1-based rank
    ``ceil(n * q / 100)`` in sorted order, or None when even the median
    has fewer than 10 samples beyond it (n < 20).
    """
    xs = sorted(values)
    n = len(xs)
    best = None
    for q in PERCENTILE_LADDER:
        rank = math.ceil(n * q / 100.0)
        if rank >= 1 and n - rank >= MIN_BEYOND:
            best = (q, xs[rank - 1])
    return best


def describe_text(values, unit: str) -> str:
    """Median, sample count and the high percentile of a timing's samples."""
    hp = high_percentile(values)
    tail = f"p{hp[0]:g}={hp[1]:.6g}{unit}" if hp else \
        "no percentile with 10 samples beyond it"
    return f"median={statistics.median(values):.6g}{unit} n={len(values)} {tail}"


def self_times(spans) -> list[float]:
    """Self time of each span: its duration minus the time its children cover.

    ``spans`` is a sequence of ``(start, end, parent)`` where ``parent`` is
    the index of the parent span or None.  Child intervals are clipped to
    the parent and overlapping children are counted once.
    """
    children: dict[int, list[int]] = {}
    for i, (_, _, parent) in enumerate(spans):
        if parent is not None:
            children.setdefault(parent, []).append(i)
    out = []
    for i, (start, end, _) in enumerate(spans):
        ivs = sorted((max(spans[c][0], start), min(spans[c][1], end))
                     for c in children.get(i, ()))
        covered = 0.0
        cur_s = cur_e = None
        for s, e in ivs:
            if e <= s:
                continue
            if cur_e is None or s > cur_e:
                if cur_e is not None:
                    covered += cur_e - cur_s
                cur_s, cur_e = s, e
            else:
                cur_e = max(cur_e, e)
        if cur_e is not None:
            covered += cur_e - cur_s
        out.append((end - start) - covered)
    return out


def credit_spread_normalized(pred_sets, truth_sets, weights,
                             inactive_category: int) -> float:
    """Normalized challenge score from the credit-spread definition.

    Each record with predicted categories P and true categories G adds
    ``1 / |G u P|`` to ``a[i][j]`` for every i in P and j in G; the score
    is ``sum(W * a)``, normalized so that always predicting
    ``inactive_category`` scores 0 and predicting the truth scores 1.
    """
    n = len(weights)

    def weighted(preds) -> float:
        a = [[0.0] * n for _ in range(n)]
        for pred, truth in zip(preds, truth_sets):
            union = len(pred | truth)
            if union == 0:
                continue
            for i in pred:
                for j in truth:
                    a[i][j] += 1.0 / union
        return math.fsum(weights[i][j] * a[i][j]
                         for i in range(n) for j in range(n))

    observed = weighted(pred_sets)
    correct = weighted(truth_sets)
    inactive = weighted([{inactive_category}] * len(truth_sets))
    return (observed - inactive) / (correct - inactive)
