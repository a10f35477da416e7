"""Precomputed semantic-relatedness tables and per-session topic-graph analytics.

SR files come in a long format (``topic_a,topic_b,metric,value``) or a wide
format (``topic_a,topic_b,mw,w2v,...``); the header decides. A loaded table
is one row of neighbours per topic, each pair stored under both of its
topics, so prior propagation and the topic-graph build both walk rows
instead of probing pairs. Tables are sparse (absent pair reads as 0) and
immutable after load.
"""

from __future__ import annotations

import csv
import itertools
import logging
import math
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path

from .data import DataError

log = logging.getLogger(__name__)

METRICS = ("mw", "w2v", "pmi", "lm", "jaccard", "cp", "ba")


@dataclass
class SRTable:
    """Sparse symmetric relatedness in [0, 1] for one metric, as neighbour rows.

    ``neighbours[a][b]`` is the relatedness of the pair {a, b}; every pair is
    held in both rows, a topic never appears in its own row, and topics with
    no pairs have no row. Zero-valued pairs are kept, so ``len`` counts every
    distinct pair written.
    """

    metric: str
    neighbours: dict[int, dict[int, float]] = field(default_factory=dict)

    def lookup(self, a: int, b: int) -> float:
        if a == b:
            return 1.0
        return self.neighbours.get(a, {}).get(b, 0.0)

    def set(self, a: int, b: int, value: float) -> None:
        if a == b:
            return
        self.neighbours.setdefault(a, {})[b] = value
        self.neighbours.setdefault(b, {})[a] = value

    def __len__(self) -> int:
        return sum(map(len, self.neighbours.values())) // 2


def zero_table(metric: str = "w2v") -> SRTable:
    """A table with no related pairs: every off-diagonal lookup is 0."""
    return SRTable(metric=metric)


def load_sr_table(path, metric: str) -> SRTable:
    """Load one metric's SR table from a long- or wide-format CSV.

    Values outside [0,1] are clamped with a warning; a value that is not
    finite is an error naming its line. Duplicate pairs keep the last value
    with a count reported. An unknown metric is an error listing what the
    file provides.
    """
    metric = metric.lower()
    path = Path(path)
    if not path.exists():
        raise DataError(f"SR table not found: {path}")
    table = SRTable(metric=metric)
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            log.warning("%s: empty SR file", path)
            return table
        header = [h.strip().lower() for h in header]
        if header[:2] != ["topic_a", "topic_b"]:
            raise DataError(f"{path}: SR header must start with topic_a,topic_b")
        long_format = header[2:] == ["metric", "value"]
        if long_format:
            col, available = 3, set()
        elif metric in header[2:]:
            col, available = header.index(metric, 2), header[2:]
        else:
            raise DataError(
                f"{path}: metric {metric!r} not present; available: {', '.join(header[2:])}"
            )
        written = clamped = 0
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                a, b = int(row[0]), int(row[1])
                if long_format:
                    row_metric = row[2].strip().lower()
                value = float(row[col])
            except (ValueError, IndexError) as exc:
                raise DataError(f"{path}:{line_no}: bad SR row: {exc}") from exc
            if long_format:
                available.add(row_metric)
                if row_metric != metric:
                    continue
            if not 0.0 <= value <= 1.0:
                if not math.isfinite(value):
                    raise DataError(f"{path}:{line_no}: relatedness must be finite, got {value}")
                value = min(max(value, 0.0), 1.0)
                clamped += 1
            if a != b:
                written += 1
                table.set(a, b, value)
    if metric not in available:
        raise DataError(
            f"{path}: metric {metric!r} not present; available: {', '.join(sorted(available))}"
        )
    # Every written pair is new or overwrites an earlier one.
    if written > len(table):
        log.warning("%s: %d duplicate pair(s), last value kept", path, written - len(table))
    if clamped:
        log.warning("%s: %d value(s) outside [0,1] clamped", path, clamped)
    return table


def related_seen_topics(
    table: SRTable, target: int, seen: set[int], k: int | None = None
) -> list[tuple[int, float]]:
    """Seen topics related to ``target`` (relatedness > 0), strongest first.

    Ties break toward the lower topic id; ``k=None`` keeps all. The result
    defines the neighbor set used to propagate a prior onto ``target``.
    """
    row = table.neighbours.get(target, {})
    scored = [(topic, rho) for topic in row.keys() & seen if (rho := row[topic]) > 0.0]
    scored.sort(key=lambda tr: (-tr[1], tr[0]))
    if k is not None:
        return scored[:k]
    return scored


@dataclass(frozen=True)
class LearnerTopicGraph:
    """Undirected graph over one learner's session topics; edges where SR > 0."""

    nodes: frozenset[int]
    edges: frozenset[tuple[int, int]]  # each edge stored as (low_id, high_id)


def build_topic_graph(events, table: SRTable) -> LearnerTopicGraph:
    """Build a session's topic graph from its events."""
    topics = {t for ev in events for t in ev.topic_ids()}
    edges = frozenset(
        (a, b)
        for a in topics
        for b, rho in table.neighbours.get(a, {}).items()
        if a < b and rho > 0.0 and b in topics
    )
    return LearnerTopicGraph(nodes=frozenset(topics), edges=edges)


def avg_connectedness(graph: LearnerTopicGraph) -> float:
    """Mean node degree; 0 for the empty graph (with a warning)."""
    if not graph.nodes:
        log.warning("avg_connectedness of empty graph is 0")
        return 0.0
    return 2.0 * len(graph.edges) / len(graph.nodes)


def min_cut_set_size(graph: LearnerTopicGraph) -> int:
    """Vertex connectivity: minimum topics whose removal disconnects the graph.

    Disconnected or trivially small graphs report 0; complete graphs report
    n - 1. Esfahanian & Hakimi (1984): start from a minimum-degree vertex v
    with k = deg(v), then lower k to the local connectivity between v and
    each non-neighbour and between each non-adjacent pair of v's neighbours.
    Each local connectivity is a unit-capacity max flow (Even 1975) on the
    node-split graph, stopped once it reaches the current k.
    """
    n = len(graph.nodes)
    if n < 2:
        return 0
    index = {topic: i for i, topic in enumerate(graph.nodes)}
    adjacent: list[set[int]] = [set() for _ in range(n)]
    for a, b in graph.edges:
        adjacent[index[a]].add(index[b])
        adjacent[index[b]].add(index[a])
    reached, stack = {0}, [0]
    while stack:
        for w in adjacent[stack.pop()]:
            if w not in reached:
                reached.add(w)
                stack.append(w)
    if len(reached) < n:
        return 0
    # Node u splits into in(u) = 2u and out(u) = 2u + 1: the arc in(u) -> out(u)
    # carries u's unit capacity, and each edge {u, w} becomes out(u) -> in(w)
    # and out(w) -> in(u).
    template = []
    for u in range(n):
        template.append({2 * u + 1})
        template.append({2 * w for w in adjacent[u]})
    v = min(range(n), key=lambda u: len(adjacent[u]))
    k = len(adjacent[v])
    pairs = [(v, w) for w in range(n) if w != v and w not in adjacent[v]]
    pairs += [
        (x, y) for x, y in itertools.combinations(adjacent[v], 2) if y not in adjacent[x]
    ]
    for s, t in pairs:
        k = min(k, _disjoint_paths(template, 2 * s + 1, 2 * t, k))
    return k


def _disjoint_paths(template: list[set[int]], source: int, sink: int, cutoff: int) -> int:
    """Unit-capacity max flow from ``source`` to ``sink``, stopped at ``cutoff``.

    ``template`` holds the out-arcs of the flow-free residual graph and is
    never mutated: each augmentation along a BFS shortest path replaces the
    arc sets it changes with new ones.
    """
    residual = template[:]
    flow = 0
    while flow < cutoff:
        parent = {source: source}
        queue = deque([source])
        while queue and sink not in parent:
            x = queue.popleft()
            for y in residual[x]:
                if y not in parent:
                    parent[y] = x
                    queue.append(y)
        if sink not in parent:
            break
        y = sink
        while y != source:
            x = parent[y]
            residual[x] = residual[x] - {y}
            residual[y] = residual[y] | {x}
            y = x
        flow += 1
    return flow
