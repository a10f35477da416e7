"""Independent reference computations that pin expected values in the tests.

Everything here deliberately avoids the code paths it checks: truncated
moments come from adaptive quadrature, posteriors from grid integration,
a team update's posterior variances from exact rational arithmetic, ranks
and correlation from the plain textbook formulas, and connectivity from
exhaustive subset removal.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
from fractions import Fraction

import numpy as np
from scipy import integrate


def normal_pdf(x, mean=0.0, std=1.0):
    z = (x - mean) / std
    return np.exp(-0.5 * z * z) / (std * math.sqrt(2.0 * math.pi))


def truncated_moments_quad(t: float, lo: float, hi: float) -> tuple[float, float]:
    """Mean and variance of N(t, 1) truncated to [lo, hi] by adaptive quadrature.

    The integrand is rescaled by its peak on the interval and the moments
    are taken about that peak, so deep-tail truncations keep full relative
    precision (the common scale cancels out of the ratios).
    """
    x_star = min(max(t, lo), hi)
    shift = 0.5 * (x_star - t) ** 2
    g = lambda x: math.exp(-0.5 * (x - t) ** 2 + shift)
    opts = dict(epsabs=1e-13, epsrel=1e-11, limit=300)
    mass, _ = integrate.quad(g, lo, hi, **opts)
    c1 = integrate.quad(lambda x: (x - x_star) * g(x), lo, hi, **opts)[0] / mass
    c2 = integrate.quad(lambda x: (x - x_star) ** 2 * g(x), lo, hi, **opts)[0] / mass
    return x_star + c1, c2 - c1 * c1


def within_corrections_quad(t: float, eps: float) -> tuple[float, float]:
    mean, var = truncated_moments_quad(t, -eps, eps)
    return mean - t, 1.0 - var


def above_corrections_quad(t: float, eps: float) -> tuple[float, float]:
    mean, var = truncated_moments_quad(t, eps, max(eps, t) + 45.0)
    return mean - t, 1.0 - var


def normal_interval_mass_quad(mean: float, var: float, lo: float, hi: float) -> float:
    std = math.sqrt(var)
    mass, _ = integrate.quad(lambda x: normal_pdf(x, mean, std), lo, hi)
    return mass


def single_topic_posterior_grid(
    prior_mean: float,
    prior_var: float,
    depth: float,
    eps: float,
    label: int,
    beta_perf: float,
    depth_skill_level: float = 0.0,
    n_grid: int = 20001,
):
    """Posterior skill mean/variance after one single-topic event, by grid quadrature.

    The likelihood conditions the performance difference D | s ~
    N(depth*(s - level), 2*beta_perf*depth^2) on the same truncation event
    the model uses: |D| <= eps for engaged, else the one-sided region on the
    side of the prior's expected difference.
    """
    from scipy.special import ndtr

    std_prior = math.sqrt(prior_var)
    s = np.linspace(prior_mean - 10 * std_prior, prior_mean + 10 * std_prior, n_grid)
    prior = normal_pdf(s, prior_mean, std_prior)
    noise_std = math.sqrt(2.0 * beta_perf) * depth
    center = depth * (s - depth_skill_level)
    if label == 1:
        lik = ndtr((eps - center) / noise_std) - ndtr((-eps - center) / noise_std)
    else:
        expected_diff = depth * (prior_mean - depth_skill_level)
        if expected_diff >= 0.0:
            lik = 1.0 - ndtr((eps - center) / noise_std)
        else:
            lik = ndtr((-eps - center) / noise_std)
    post = prior * lik
    mass = np.trapezoid(post, s)
    mean = np.trapezoid(s * post, s) / mass
    second = np.trapezoid(s * s * post, s) / mass
    return mean, second - mean * mean


def team_posterior_variance_exact(depths, variances, index, w, beta_perf) -> Fraction:
    """Topic ``index``'s posterior variance var_i * (1 - w * d_i^2 * var_i / var_D) after a
    team update with variance correction ``w``, in Fraction arithmetic from the step's
    float inputs: var_D = sum_j d_j^2 * var_j + 2 * beta_perf * sum_j d_j^2, unrounded."""
    d = [Fraction(x) for x in depths]
    v = [Fraction(x) for x in variances]
    var_d = sum(dj * dj * vj for dj, vj in zip(d, v))
    var_d += 2 * Fraction(beta_perf) * sum(dj * dj for dj in d)
    return v[index] * (1 - Fraction(w) * d[index] * d[index] * v[index] / var_d)


def propagation_mc(neighbors, n_samples: int, seed: int) -> tuple[float, float]:
    """Sample mean/variance of sum_j (1/m) * rho_j * theta_j, theta_j ~ N(mu_j, var_j)."""
    rng = np.random.default_rng(seed)
    m = len(neighbors)
    total = np.zeros(n_samples)
    for mu, var, rho in neighbors:
        total += (rho / m) * rng.normal(mu, math.sqrt(var), n_samples)
    return float(total.mean()), float(total.var())


def rank_average_ties(values) -> list[float]:
    """Ranks 1..n with tied values sharing the average of their positions."""
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        avg = (i + j) / 2.0 + 1.0
        for k in range(i, j + 1):
            ranks[order[k]] = avg
        i = j + 1
    return ranks


def pearson(x, y) -> float:
    n = len(x)
    mx = sum(x) / n
    my = sum(y) / n
    cov = sum((a - mx) * (b - my) for a, b in zip(x, y))
    vx = sum((a - mx) ** 2 for a in x)
    vy = sum((b - my) ** 2 for b in y)
    return cov / math.sqrt(vx * vy)


def spearman_rho_brute(x, y) -> float:
    return pearson(rank_average_ties(x), rank_average_ties(y))


def spearman_exact_permutation_p(x, y) -> float:
    """Two-sided exact permutation p-value, identity permutation included."""
    rho_obs = abs(spearman_rho_brute(x, y))
    rx = rank_average_ties(x)
    ry = rank_average_ties(y)
    hits = total = 0
    for perm in itertools.permutations(range(len(y))):
        total += 1
        if abs(pearson(rx, [ry[i] for i in perm])) >= rho_obs - 1e-12:
            hits += 1
    return hits / total


def student_t_density(x, df):
    c = math.gamma((df + 1) / 2.0) / (math.sqrt(df * math.pi) * math.gamma(df / 2.0))
    return c * (1.0 + x * x / df) ** (-(df + 1) / 2.0)


def t_upper_tail_quad(t: float, df: int) -> float:
    p, _ = integrate.quad(lambda x: student_t_density(x, df), t, np.inf)
    return p


def paired_t_oracle(a, b) -> tuple[float, float]:
    """Textbook paired t statistic with the upper-tail p from quadrature."""
    diffs = [bi - ai for ai, bi in zip(a, b)]
    n = len(diffs)
    mean = sum(diffs) / n
    var = sum((d - mean) ** 2 for d in diffs) / (n - 1)
    t = mean / math.sqrt(var / n)
    return t, t_upper_tail_quad(t, n - 1)


def connected_brute(nodes, edges) -> bool:
    nodes = list(nodes)
    if not nodes:
        return False
    adjacency = {v: set() for v in nodes}
    node_set = set(nodes)
    for a, b in edges:
        if a in node_set and b in node_set:
            adjacency[a].add(b)
            adjacency[b].add(a)
    seen = {nodes[0]}
    stack = [nodes[0]]
    while stack:
        for nxt in adjacency[stack.pop()]:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return len(seen) == len(nodes)


def vertex_connectivity_brute(nodes, edges) -> int:
    """Smallest vertex set whose removal disconnects the graph; n-1 for complete.

    Assumes the input graph is connected with >= 2 nodes.
    """
    nodes = sorted(nodes)
    n = len(nodes)
    for k in range(0, n - 1):
        for removed in itertools.combinations(nodes, k):
            rest = [v for v in nodes if v not in removed]
            if len(rest) >= 2 and not connected_brute(rest, edges):
                return k
    return n - 1


def local_connectivity_brute(nodes, edges, s, t) -> int:
    """Fewest vertices other than s and t whose removal separates s from t.

    Assumes s and t are not adjacent (Menger: the most vertex-disjoint s-t paths).
    """
    others = [v for v in sorted(nodes) if v not in (s, t)]
    for k in range(len(others) + 1):
        for removed in itertools.combinations(others, k):
            reached, stack = {s}, [s]
            while stack:
                v = stack.pop()
                for a, b in edges:
                    w = b if a == v else a if b == v else None
                    if w is not None and w not in reached and w not in removed:
                        reached.add(w)
                        stack.append(w)
            if t not in reached:
                return k
    raise ValueError("s and t are adjacent")


def recall_series_brute(traces) -> list[tuple[int, float]]:
    """Mean recall over each learner's first n events, for n = 1 to the longest trace.

    Every prefix is recounted from scratch, and the learners with at least n
    events are added left to right in sorted order.
    """
    ordered = [traces[k] for k in sorted(traces)]
    series = []
    for n in range(1, max(map(len, ordered), default=0) + 1):
        total, count = 0.0, 0
        for trace in ordered:
            if len(trace) >= n:
                predictions_on_positives = [p for p, label in trace[:n] if label == 1]
                hits = predictions_on_positives.count(1)
                total += hits / len(predictions_on_positives) if predictions_on_positives else 0.0
                count += 1
        series.append((n, total / count))
    return series


def related_seen_brute(relatedness, target, seen, k=None) -> list[tuple[int, float]]:
    """Scan every seen topic, keep relatedness > 0, strongest first, ties to the lower id."""
    scored = [(t, rho) for t in seen if t != target and (rho := relatedness(target, t)) > 0.0]
    scored.sort(key=lambda tr: (-tr[1], tr[0]))
    return scored if k is None else scored[:k]


def session_edges_brute(relatedness, topics) -> set[tuple[int, int]]:
    """Every pair (low, high) of session topics whose relatedness is > 0."""
    return {(a, b) for a, b in itertools.combinations(sorted(topics), 2) if relatedness(a, b) > 0.0}


def sr_rows_reference(path, metric: str):
    """Neighbour rows, duplicate count, clamp count and the metrics an SR file holds.

    Lines that are empty or whitespace only are dropped, and the first line
    left is the header. Each other line goes through csv on its own and must
    hold exactly the header's cells, counted first in either format. Then
    ``int``/``float`` per cell, in the loader's order (ids, value), then
    ``setdefault`` into both rows. A row of the wrong width or a bad cell
    raises the exception the count or ``int``/``float`` raises, with its line
    number as ``(line_no, exc)``.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        lines = [(n, next(csv.reader([line]))) for n, line in enumerate(fh, 1) if line.strip()]
    header = [h.strip().lower() for h in lines[0][1]]
    long_format = header[2:] == ["metric", "value"]
    col = 3 if long_format else header.index(metric, 2)
    available = set() if long_format else set(header[2:])
    rows: dict[int, dict[int, float]] = {}
    written = clamped = 0
    for line_no, cells in lines[1:]:
        try:
            if len(cells) != len(header):
                raise ValueError(f"expected {len(header)} columns, got {len(cells)}")
            a, b, row_metric, value = cells if long_format else (cells[0], cells[1], metric, cells[col])
            a = int(a)
            b = int(b)
            row_metric = row_metric.strip().lower()
            value = float(value)
        except ValueError as exc:
            raise ValueError(line_no, exc) from exc
        available.add(row_metric)
        if row_metric != metric:
            continue
        if value < 0.0 or value > 1.0:
            value = min(max(value, 0.0), 1.0)
            clamped += 1
        if a != b:
            written += 1
            rows.setdefault(a, {})[b] = value
            rows.setdefault(b, {})[a] = value
    n_pairs = sum(len(row) for row in rows.values()) // 2
    return rows, written - n_pairs, clamped, available


def events_reference(path):
    """Sorted (learner_id, order_index, label +-1, topics) rows of an event file.

    Lines that are empty or whitespace only are dropped first, in either
    format, and a CSV file's first line left is its header. Each row is parsed
    cell by cell with ``int``/``float`` (topics split on ";" and ":" for CSV,
    ``[[id, depth], ...]`` for JSON lines), depths are clamped to [0, 1],
    and the rows are sorted by learner, then order index.
    A row whose cells do not parse (a ``ValueError``, or the ``OverflowError``
    of ``int`` on an infinite JSON number) is dropped and counted; no other
    schema rule is checked. Returns the rows, the number of clamped depths
    and the number of dropped rows.
    """
    if str(path).endswith(".jsonl"):
        with open(path, encoding="utf-8") as fh:
            records = [json.loads(line) for line in fh if line.strip()]

        def parse(r):
            return (str(r["learner_id"]), int(r["order_index"]), int(r["label"]),
                    [(int(t), float(d)) for t, d in r["topics"]])
    else:
        with open(path, newline="", encoding="utf-8") as fh:
            records = [next(csv.reader([line])) for line in fh if line.strip()][1:]

        def parse(cells):
            learner, order, label, topics = cells
            return (learner, int(order), int(label),
                    [(int(t), float(d)) for t, _, d in
                     (chunk.strip().partition(":") for chunk in topics.split(";")
                      if chunk.strip())])
    raw, dropped = [], 0
    for record in records:
        try:
            raw.append(parse(record))
        except (ValueError, OverflowError):
            dropped += 1
    rows, clamped = [], 0
    for learner, order, label, topics in raw:
        clamped += sum(1 for _, d in topics if d < 0.0 or d > 1.0)
        topics = tuple((t, min(max(d, 0.0), 1.0)) for t, d in topics)
        rows.append((learner, order, 1 if label == 1 else -1, topics))
    rows.sort(key=lambda r: (r[0], r[1]))
    return rows, clamped, dropped
