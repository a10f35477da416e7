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
import heapq
import itertools
from collections import defaultdict
import logging
import math
from dataclasses import dataclass, field
from pathlib import Path

from .data import DataError, _ParsedCells, open_text

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

    def set(self, a: int, b: int, value: float) -> None:
        if a == b:
            return
        self.neighbours.setdefault(a, {})[b] = value
        self.neighbours.setdefault(b, {})[a] = value

    def __len__(self) -> int:
        return sum(map(len, self.neighbours.values())) // 2


def zero_table(metric: str = "w2v") -> SRTable:
    """A table with no related pairs: every topic's neighbour row is empty."""
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
    with open_text(path, "SR table", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None:
                log.warning("%s: empty SR file", path)
                return table
            header = [h.strip().lower() for h in header]
            if header[:2] != ["topic_a", "topic_b"]:
                raise DataError(f"{path}: SR header must start with topic_a,topic_b")
            long_format = header[2:] == ["metric", "value"]
            # One parse per distinct id or metric cell, and one int object per id.
            ids = _ParsedCells(int)
            metric_cells = _ParsedCells(lambda cell: cell.strip().lower())
            if long_format:
                # A long file provides its metric cells, normalised (a live view).
                col, available = 3, metric_cells.values()
            elif metric in header[2:]:
                col, available = header.index(metric, 2), header[2:]
            else:
                raise DataError(
                    f"{path}: metric {metric!r} not present; available: {', '.join(header[2:])}"
                )
            rows = defaultdict(dict)
            written = clamped = 0
            for line_no, row in enumerate(reader, start=2):
                if not row:
                    continue
                try:
                    a, b = ids[row[0]], ids[row[1]]
                    if long_format:
                        row_metric = metric_cells[row[2]]
                    value = float(row[col])
                except (ValueError, IndexError) as exc:
                    raise DataError(f"{path}:{line_no}: bad SR row: {exc}") from exc
                if long_format and row_metric != metric:
                    continue
                if not 0.0 <= value <= 1.0:
                    if not math.isfinite(value):
                        raise DataError(f"{path}:{line_no}: relatedness must be finite, got {value}")
                    value = min(max(value, 0.0), 1.0)
                    clamped += 1
                if a != b:
                    written += 1
                    rows[a][b] = value
                    rows[b][a] = value
        except csv.Error as exc:
            raise DataError(f"{path}:{reader.line_num}: {exc}") from exc
    if metric not in available:
        available = ", ".join(sorted(set(available)))
        raise DataError(f"{path}: metric {metric!r} not present; available: {available}")
    table.neighbours = dict(rows)
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
    # (-rho, topic) tuples sort strongest first, ties toward the lower id.
    ranked = sorted((-rho, topic) for topic in row.keys() & seen if (rho := row[topic]) > 0.0)
    return [(topic, -neg_rho) for neg_rho, topic in ranked[:k]]


@dataclass(frozen=True)
class LearnerTopicGraph:
    """Undirected graph over one learner's session topics; edges where SR > 0."""

    nodes: frozenset[int]
    edges: frozenset[tuple[int, int]]  # each edge stored as (low_id, high_id)


def build_topic_graph(events, table: SRTable) -> LearnerTopicGraph:
    """Build a session's topic graph from its events."""
    topics = {t for ev in events for t in ev.topic_ids()}
    rows = table.neighbours
    edges = frozenset(
        (a, b)
        for a in topics
        if a in rows
        for b in rows[a].keys() & topics
        if a < b and rows[a][b] > 0.0
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
    node-split graph, stopped once it reaches the current k; a non-neighbour
    with k neighbours already known to be that well connected to v needs none.
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
    arcs = None  # the node-split graph, built at the first flow
    v = min(range(n), key=lambda u: len(adjacent[u]))
    k = len(adjacent[v])
    # Source phase: κ(v, w) for each non-neighbour w, most known neighbours
    # first. A vertex is known once no cut S with |S| < k and v ∉ S can put it
    # beyond S: v and its neighbours from the start, and each w once checked,
    # since then κ(v, w) >= k and k only falls. If w has k known neighbours
    # and lay beyond such an S, all k would sit inside S, which is too small;
    # so κ(v, w) >= k is certified and the flow is skipped.
    known = adjacent[v] | {v}
    known_neighbours = [len(adjacent[w] & known) for w in range(n)]
    heap = [(-known_neighbours[w], w) for w in range(n) if w not in known]
    heapq.heapify(heap)
    while heap:
        w = heapq.heappop(heap)[1]
        if w in known:
            continue  # a stale entry: w was pushed again with a higher count
        if known_neighbours[w] < k:
            arcs = arcs or _split_arcs(adjacent)
            k = _disjoint_paths(*arcs, 2 * v + 1, 2 * w, k)
        known.add(w)
        for x in adjacent[w] - known:
            known_neighbours[x] += 1
            heapq.heappush(heap, (-known_neighbours[x], x))
    for x, y in itertools.combinations(adjacent[v], 2):
        if y not in adjacent[x]:
            arcs = arcs or _split_arcs(adjacent)
            k = _disjoint_paths(*arcs, 2 * x + 1, 2 * y, k)
    return k


def _split_arcs(adjacent: list[set[int]]) -> tuple[list[set[int]], list[set[int]]]:
    """(out-arcs, in-arcs) per node of the node-split graph.

    u splits into in(u) = 2u and out(u) = 2u + 1, joined by the arc in(u) -> out(u)
    of u's unit capacity; each edge {u, w} becomes out(u) -> in(w) and out(w) -> in(u).
    """
    out_arcs, in_arcs = [], []
    for u, neighbours in enumerate(adjacent):
        out_arcs += ({2 * u + 1}, {2 * w for w in neighbours})
        in_arcs += ({2 * w + 1 for w in neighbours}, {2 * u})
    return out_arcs, in_arcs


def _disjoint_paths(
    out_arcs: list[set[int]], in_arcs: list[set[int]], source: int, sink: int, cutoff: int
) -> int:
    """Unit-capacity max flow from ``source`` to ``sink``, stopped at ``cutoff``.

    ``out_arcs`` and ``in_arcs`` hold the flow-free residual graph from both
    ends and are never mutated: each augmentation replaces the arc sets it
    changes with new ones. Each augmenting path comes from a breadth-first
    search grown from the source over out-arcs and from the sink over
    in-arcs, a level at a time on the smaller frontier, until the two meet.
    """
    out_res, in_res = out_arcs[:], in_arcs[:]
    flow = 0
    while flow < cutoff:
        before = {source: source}  # node -> its predecessor on a path from source
        after = {sink: sink}  # node -> its successor on a path to sink
        front, back = [source], [sink]
        meet = None
        while meet is None and front and back:
            if len(front) <= len(back):
                front, meet = _expand(front, out_res, before, after)
            else:
                back, meet = _expand(back, in_res, after, before)
        if meet is None:
            break
        path = [meet]
        while path[-1] != source:
            path.append(before[path[-1]])
        path.reverse()
        while path[-1] != sink:
            path.append(after[path[-1]])
        for x, y in zip(path, path[1:]):
            out_res[x] = out_res[x] - {y}
            out_res[y] = out_res[y] | {x}
            in_res[y] = in_res[y] - {x}
            in_res[x] = in_res[x] | {y}
        flow += 1
    return flow


def _expand(
    frontier: list[int], arcs: list[set[int]], reached: dict[int, int], other: dict[int, int]
) -> tuple[list[int], int | None]:
    """Grow one search a level over ``arcs``; stop at a node the other one reached.

    Returns the next frontier and the meeting node, or None.
    """
    level = []
    for x in frontier:
        for y in arcs[x]:
            if y not in reached:
                reached[y] = x
                if y in other:
                    return level, y
                level.append(y)
    return level, None
