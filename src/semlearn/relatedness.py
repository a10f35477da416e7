"""Precomputed semantic-relatedness tables and per-session topic-graph analytics.

SR files come in a long format (``topic_a,topic_b,metric,value``) or a wide
format (``topic_a,topic_b,mw,w2v,...``); the header decides. Tables are
symmetric, sparse (absent pair reads as 0) and immutable after load.
"""

from __future__ import annotations

import csv
import itertools
import logging
from dataclasses import dataclass, field
from pathlib import Path

import networkx as nx

from .data import DataError, EngagementEvent

log = logging.getLogger(__name__)

METRICS = ("mw", "w2v", "pmi", "lm", "jaccard", "cp", "ba")


@dataclass
class SRTable:
    """Sparse symmetric map (topic, topic) -> relatedness in [0, 1] for one metric."""

    metric: str
    entries: dict[tuple[int, int], float] = field(default_factory=dict)

    def lookup(self, a: int, b: int) -> float:
        if a == b:
            return 1.0
        return self.entries.get((a, b) if a < b else (b, a), 0.0)

    def set(self, a: int, b: int, value: float) -> None:
        if a == b:
            return
        self.entries[(a, b) if a < b else (b, a)] = value

    def __len__(self) -> int:
        return len(self.entries)


def zero_table(metric: str = "w2v") -> SRTable:
    """A table with no related pairs: every off-diagonal lookup is 0."""
    return SRTable(metric=metric)


def load_sr_table(path, metric: str) -> SRTable:
    """Load one metric's SR table from a long- or wide-format CSV.

    Values outside [0,1] are clamped with a warning; duplicate pairs keep
    the last value with a count reported. An unknown metric is an error
    listing what the file provides.
    """
    metric = metric.lower()
    path = Path(path)
    if not path.exists():
        raise DataError(f"SR table not found: {path}")
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            log.warning("%s: empty SR file", path)
            return SRTable(metric=metric)
        header = [h.strip().lower() for h in header]
        if header[:2] != ["topic_a", "topic_b"]:
            raise DataError(f"{path}: SR header must start with topic_a,topic_b")
        if header[2:] == ["metric", "value"]:
            return _load_long(path, reader, metric)
        return _load_wide(path, reader, header, metric)


def _finish(table: SRTable, path: Path, duplicates: int, clamped: int, found: bool, available) -> SRTable:
    if not found:
        raise DataError(
            f"{path}: metric {table.metric!r} not present; available: {', '.join(sorted(available))}"
        )
    if duplicates:
        log.warning("%s: %d duplicate pair(s), last value kept", path, duplicates)
    if clamped:
        log.warning("%s: %d value(s) outside [0,1] clamped", path, clamped)
    return table


def _load_long(path: Path, reader, metric: str) -> SRTable:
    table = SRTable(metric=metric)
    duplicates = clamped = 0
    available: set[str] = set()
    found = False
    for line_no, row in enumerate(reader, start=2):
        if not row:
            continue
        try:
            a, b = int(row[0]), int(row[1])
            row_metric = row[2].strip().lower()
            value = float(row[3])
        except (ValueError, IndexError) as exc:
            raise DataError(f"{path}:{line_no}: bad SR row: {exc}") from exc
        available.add(row_metric)
        if row_metric != metric:
            continue
        found = True
        value, clamped = _clamp(value, clamped)
        if a != b:
            key = (a, b) if a < b else (b, a)
            if key in table.entries:
                duplicates += 1
            table.entries[key] = value
    return _finish(table, path, duplicates, clamped, found, available)


def _load_wide(path: Path, reader, header: list[str], metric: str) -> SRTable:
    columns = header[2:]
    if metric not in columns:
        raise DataError(
            f"{path}: metric {metric!r} not present; available: {', '.join(columns)}"
        )
    col = 2 + columns.index(metric)
    table = SRTable(metric=metric)
    duplicates = clamped = 0
    for line_no, row in enumerate(reader, start=2):
        if not row:
            continue
        try:
            a, b = int(row[0]), int(row[1])
            value = float(row[col])
        except (ValueError, IndexError) as exc:
            raise DataError(f"{path}:{line_no}: bad SR row: {exc}") from exc
        value, clamped = _clamp(value, clamped)
        if a != b:
            key = (a, b) if a < b else (b, a)
            if key in table.entries:
                duplicates += 1
            table.entries[key] = value
    return _finish(table, path, duplicates, clamped, True, columns)


def _clamp(value: float, clamped: int) -> tuple[float, int]:
    if value < 0.0 or value > 1.0:
        return min(max(value, 0.0), 1.0), clamped + 1
    return value, clamped


def related_seen_topics(
    table: SRTable, target: int, seen: set[int], k: int | None = None
) -> list[tuple[int, float]]:
    """Seen topics related to ``target`` (relatedness > 0), strongest first.

    Ties break toward the lower topic id; ``k=None`` keeps all. The result
    defines the neighbor set used to propagate a prior onto ``target``.
    """
    scored = [
        (topic, rho)
        for topic in seen
        if topic != target and (rho := table.lookup(target, topic)) > 0.0
    ]
    scored.sort(key=lambda tr: (-tr[1], tr[0]))
    if k is not None:
        return scored[:k]
    return scored


@dataclass(frozen=True)
class LearnerTopicGraph:
    """Undirected graph over one learner's session topics; edges where SR > 0."""

    nodes: frozenset[int]
    edges: frozenset[tuple[int, int]]  # each edge stored as (low_id, high_id)


def build_topic_graph(events_or_topics, table: SRTable) -> LearnerTopicGraph:
    """Build a session's topic graph from its events (or a plain topic collection)."""
    topics: set[int] = set()
    for item in events_or_topics:
        if isinstance(item, EngagementEvent):
            topics.update(item.topic_ids())
        else:
            topics.add(int(item))
    edges = frozenset(
        (a, b) for a, b in itertools.combinations(sorted(topics), 2) if table.lookup(a, b) > 0.0
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
    n - 1. Computed via the standard max-flow reduction.
    """
    n = len(graph.nodes)
    if n < 2:
        return 0
    g = nx.Graph()
    g.add_nodes_from(graph.nodes)
    g.add_edges_from(graph.edges)
    if not nx.is_connected(g):
        return 0
    return int(nx.node_connectivity(g))
