"""Sequential-prediction scoring, weighted aggregation, and the statistical analyses.

Per-learner precision/recall/F1 treat +1 (engaged) as the positive class,
with the conservative zero-denominator conventions: precision with no
positive predictions is 0, recall with no positive labels is 0, F1 is 0
when P + R is 0. Aggregates weight each learner by their event count.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass

from .data import ENGAGED, NOT_ENGAGED, Dataset
from .gaussians import _special
from .relatedness import SRTable, avg_connectedness, build_topic_graph, min_cut_set_size

Trace = list[tuple[int, int]]  # (prediction, label), both +-1

SESSION_FEATURES = (
    "n_events",
    "n_unique_topics",
    "topic_sparsity_rate",
    "positive_label_rate",
    "avg_connectedness",
    "min_cut_set_size",
)

# Exact permutation enumeration is n! work; past this it is not tractable
# and the t-approximation is the only offered p-value.
MAX_EXACT_PERMUTATION_N = 10

# cephes' MACHEP: the series in _t_two_sided_p stops below this relative term.
_MACHEP = 2.0**-53


@dataclass
class LearnerScore:
    learner_id: str
    n_events: int
    precision: float
    recall: float
    f1: float


def score_learner(learner_id: str, trace: Trace) -> LearnerScore:
    """Per-learner classification scores over a full prediction trace."""
    if not trace:
        raise ValueError(f"empty trace for learner {learner_id!r}")
    counts = Counter(trace)
    tp = counts[ENGAGED, ENGAGED]
    fp = counts[ENGAGED, NOT_ENGAGED]
    fn = counts[NOT_ENGAGED, ENGAGED]
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2.0 * precision * recall / (precision + recall) if precision + recall else 0.0
    return LearnerScore(learner_id, len(trace), precision, recall, f1)


def aggregate(scores: list[LearnerScore]) -> tuple[float, float, float]:
    """Event-count-weighted mean of per-learner precision, recall and F1.

    F1 is the weighted mean of per-learner F1 values, not the F1 of pooled
    counts.
    """
    if not scores:
        raise ValueError("aggregate needs at least one learner score")
    # Left-to-right sums in canonical learner order: the same bits whatever the
    # scores' order, and on every Python (sum() compensates since CPython 3.12).
    total = 0
    precision = recall = f1 = 0.0
    for s in sorted(scores, key=lambda s: s.learner_id):
        total += s.n_events
        precision += s.precision * s.n_events
        recall += s.recall * s.n_events
        f1 += s.f1 * s.n_events
    return precision / total, recall / total, f1 / total


def _pairwise_sum(values: list[float]) -> float:
    """The float64 sum numpy's ``sum``/``mean`` return, bit for bit.

    numpy sums pairwise (Higham 1993): under 8 values left to right; up to
    128 in eight running sums plus a left-to-right tail; above that, split
    at half the length rounded down to a multiple of 8. Its reduction adds
    the result to 0.0, which turns a sum of -0.0 values into +0.0.
    """
    n = len(values)
    if n > 128:
        half = n // 2 - n // 2 % 8
        return _pairwise_sum(values[:half]) + _pairwise_sum(values[half:])
    if n < 8:
        total, tail = 0.0, values
    else:
        r = values[:8]
        for i in range(8, n - n % 8, 8):
            r = [s + v for s, v in zip(r, values[i : i + 8])]
        total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        tail = values[n - n % 8 :]
    for v in tail:
        total += v
    return 0.0 + total


def paired_t_test_one_tailed(a: list[float], b: list[float]) -> tuple[float, float]:
    """Learner-wise paired t-test with alternative mean(b - a) > 0.

    Returns (t, one-tailed p). Zero variance of the differences uses the
    documented convention: p = 0 if the mean difference is positive, 1 if
    negative, 0.5 if zero.
    """
    if len(a) != len(b):
        raise ValueError(f"paired vectors differ in length: {len(a)} vs {len(b)}")
    n = len(a)
    if n < 2:
        raise ValueError("paired t-test needs at least 2 pairs")
    # report.json keeps t and p in full: the mean and deviation follow numpy's
    # summation order bit for bit.
    diffs = [float(y) - float(x) for x, y in zip(a, b)]
    mean = _pairwise_sum(diffs) / n
    sd = math.sqrt(_pairwise_sum([(d - mean) * (d - mean) for d in diffs]) / (n - 1))
    if sd == 0.0:
        if mean > 0.0:
            return math.inf, 0.0
        if mean < 0.0:
            return -math.inf, 1.0
        return 0.0, 0.5
    t = mean / (sd / math.sqrt(n))
    p = float(_special().stdtr(n - 1, -t))  # upper tail of Student's t with n-1 dof
    return t, p


def _average_ranks(values) -> list[float]:
    """Ranks 1..n with ties given the mean of their ranks (scipy's rankdata)."""
    order = sorted(range(len(values)), key=values.__getitem__)
    ranks = [0.0] * len(values)
    below = 0
    for _, group in itertools.groupby(order, key=values.__getitem__):
        group = list(group)
        rank = below + (len(group) + 1) / 2
        for i in group:
            ranks[i] = rank
        below += len(group)
    return ranks


def _pearson(rx: list[float], ry: list[float]) -> float:
    """Pearson correlation of two rank vectors; nan if either is constant.

    Average ranks 1..n always have mean (n + 1) / 2, and their deviations
    from it are multiples of 1/2, so the three sums are exact for n up to
    about 10^5.
    """
    mid = (len(rx) + 1) / 2
    dx = [r - mid for r in rx]
    dy = [r - mid for r in ry]
    vx = sum(d * d for d in dx)
    vy = sum(d * d for d in dy)
    if vx == 0.0 or vy == 0.0:
        return math.nan
    return sum(a * b for a, b in zip(dx, dy)) / math.sqrt(vx * vy)


def _t_two_sided_p(t: float, df: int) -> float:
    """Two-sided p-value of Student's t statistic with integer ``df``.

    1 - A(|t|, df), where A is the probability that |T| <= |t|, from the
    finite series of Abramowitz & Stegun 26.7.3 (odd df) and 26.7.4 (even
    df), summed until a term drops below machine epsilon as cephes' stdtr
    does. Absolute error is about 1e-14; it loses relative accuracy far in
    the tail, where p is anyway far below any significance level.
    """
    x = abs(t)
    z = 1.0 + x * x / df
    f = term = 1.0
    j = 3 if df & 1 else 2
    while j <= df - 2 and term / f > _MACHEP:
        term *= (j - 1) / (z * j)
        f += term
        j += 2
    if df & 1:
        x_scaled = x / math.sqrt(df)
        a = math.atan(x_scaled)
        if df > 1:
            a += f * x_scaled / z
        a *= 2.0 / math.pi
    else:
        a = f * x / math.sqrt(z * df)
    return max(1.0 - a, 0.0)


def srocc(x: list[float], y: list[float]) -> tuple[float, float]:
    """Spearman rank correlation with average ranks for ties; p by t-approximation.

    Returns (rho, two-sided p). Either vector constant makes the
    coefficient undefined: (nan, nan).
    """
    if len(x) != len(y):
        raise ValueError(f"vectors differ in length: {len(x)} vs {len(y)}")
    n = len(x)
    if n < 3:
        raise ValueError("srocc needs at least 3 observations")
    rho = _pearson(_average_ranks(x), _average_ranks(y))
    if math.isnan(rho):
        return math.nan, math.nan
    if abs(rho) >= 1.0:
        return max(min(rho, 1.0), -1.0), 0.0
    t = rho * math.sqrt((n - 2) / (1.0 - rho * rho))
    return rho, _t_two_sided_p(t, n - 2)


def srocc_exact_permutation(x: list[float], y: list[float]) -> tuple[float, float]:
    """Spearman rho with an exact two-sided permutation p-value.

    Enumerates all n! pairings, so only small vectors are accepted; the
    p-value counts permutations whose |rho| reaches the observed |rho|
    (within float slack), identity included.
    """
    n = len(x)
    if n > MAX_EXACT_PERMUTATION_N:
        raise ValueError(
            f"exact permutation enumeration capped at n={MAX_EXACT_PERMUTATION_N}, got {n}"
        )
    rho_obs, _ = srocc(x, y)
    if math.isnan(rho_obs):
        return math.nan, math.nan
    rx = _average_ranks(x)
    ry = _average_ranks(y)
    threshold = abs(rho_obs) - 1e-12
    hits = 0
    total = 0
    for perm in itertools.permutations(ry):
        total += 1
        if abs(_pearson(rx, list(perm))) >= threshold:
            hits += 1
    return rho_obs, hits / total


def recall_by_event_index(traces: dict[str, Trace]) -> list[tuple[int, float]]:
    """Mean cumulative recall at each event position.

    For position n, learners with at least n events contribute their recall
    over events 1..n; the series ends at the longest trace.
    """
    series: list[tuple[int, float]] = []
    # [trace, true positives, positive labels] of each learner still in the series,
    # in sorted learner order; the counts run on, so each event is read once.
    active = [[traces[k], 0, 0] for k in sorted(traces) if traces[k]]
    n = 0
    while active:
        n += 1
        total = 0.0
        for counts in active:  # left to right, not sum(): see aggregate
            prediction, label = counts[0][n - 1]
            if label == ENGAGED:
                counts[1] += prediction == ENGAGED
                counts[2] += 1
            total += counts[1] / counts[2] if counts[2] else 0.0
        series.append((n, total / len(active)))
        active = [counts for counts in active if len(counts[0]) > n]
    return series


def session_feature_table(
    dataset: Dataset, learner_ids, table: SRTable
) -> dict[str, list[float]]:
    """Each session feature of the listed learners, in sorted learner order.

    Returns one column per name in ``SESSION_FEATURES``. The features depend
    only on the data, so one table serves every model's recalls; graph
    features are computed on the learner's full session.
    """
    columns: dict[str, list[float]] = {name: [] for name in SESSION_FEATURES}
    for learner_id in sorted(learner_ids):
        events = dataset.learners[learner_id]
        topic_slots = sum(len(ev.topics) for ev in events)
        graph = build_topic_graph(events, table)
        row = (
            len(events),
            len(graph.nodes),
            1.0 - len(graph.nodes) / topic_slots,
            sum(1 for ev in events if ev.label == ENGAGED) / len(events),
            avg_connectedness(graph),
            min_cut_set_size(graph),
        )
        for name, value in zip(SESSION_FEATURES, row):
            columns[name].append(float(value))
    return columns


def session_feature_srocc(
    features: dict[str, list[float]], recalls: list[float]
) -> dict[str, tuple[float, float]]:
    """SROCC of each session feature against recall, both in the same learner order."""
    return {name: srocc(features[name], recalls) for name in SESSION_FEATURES}
