"""Event-log ingestion and the learner/event representations shared by all models.

On disk an event row is ``learner_id,order_index,label,topics`` where
``label`` is 0/1 and ``topics`` is a semicolon-joined list of
``topic_id:depth`` pairs. In memory labels live as -1/+1. A JSON-lines
format with the same fields (topics as ``[[topic_id, depth], ...]``) is
accepted as well.
"""

from __future__ import annotations

import csv
import json
import logging
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

from .gaussians import Gaussian1D

log = logging.getLogger(__name__)

MAX_TOPICS_PER_EVENT = 10

ENGAGED = 1
NOT_ENGAGED = -1


class DataError(Exception):
    """Unrecoverable problem with an input file (missing, duplicate keys, bad schema)."""


@dataclass(frozen=True)
class EngagementEvent:
    """One learner/resource-fragment interaction."""

    learner_id: str
    order_index: int
    topics: tuple[tuple[int, float], ...]  # (topic_id, depth in [0,1]), 1..10 entries
    label: int  # +1 engaged, -1 not engaged

    def topic_ids(self) -> tuple[int, ...]:
        return tuple(t for t, _ in self.topics)


@dataclass
class LearnerModel:
    """Per-learner skill state: sparse topic -> Gaussian belief map plus counters."""

    skills: dict[int, Gaussian1D] = field(default_factory=dict)
    events_seen: int = 0
    topics_seen: set[int] = field(default_factory=set)


@dataclass
class IngestReport:
    """Counters and diagnostics collected while loading an event file."""

    rows_read: int = 0
    events_loaded: int = 0
    malformed_rows: int = 0
    first_malformed_line: int | None = None
    first_malformed_reason: str | None = None
    dropped_empty_topic_events: int = 0
    clamped_depths: int = 0

    def log_warnings(self) -> None:
        if self.malformed_rows:
            log.warning(
                "%d malformed row(s) rejected; first at line %s: %s",
                self.malformed_rows,
                self.first_malformed_line,
                self.first_malformed_reason,
            )
        if self.clamped_depths:
            log.warning("%d depth value(s) outside [0,1] clamped", self.clamped_depths)
        if self.dropped_empty_topic_events:
            log.warning(
                "%d event(s) dropped for carrying no topics", self.dropped_empty_topic_events
            )
        if self.rows_read == 0:
            log.warning("event file contained no data rows")


@dataclass
class Dataset:
    """Sessions keyed by learner, each sorted by order_index, plus a train/test split."""

    learners: dict[str, list[EngagementEvent]]
    split: dict[str, str] = field(default_factory=dict)  # learner_id -> "train" | "test"
    ingest: IngestReport | None = field(default=None, compare=False)

    @property
    def n_learners(self) -> int:
        return len(self.learners)

    @property
    def n_events(self) -> int:
        return sum(len(evs) for evs in self.learners.values())

    def learner_ids(self) -> list[str]:
        return sorted(self.learners)

    def train_ids(self) -> list[str]:
        return sorted(l for l, s in self.split.items() if s == "train")

    def test_ids(self) -> list[str]:
        return sorted(l for l, s in self.split.items() if s == "test")


def _parse_topics_field(raw: str) -> list[tuple[int, float]]:
    pairs = []
    for chunk in raw.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        topic_str, _, depth_str = chunk.partition(":")
        pairs.append((int(topic_str), float(depth_str)))
    return pairs


def _normalize_topics(
    pairs: list[tuple[int, float]], report: IngestReport, top_topics: int | None
) -> tuple[tuple[int, float], ...]:
    """Validate, clamp and optionally truncate one event's topic list.

    Raises ValueError on schema violations (duplicates, too many entries,
    non-finite depth).
    """
    if top_topics is not None:
        pairs = pairs[:top_topics]
    if len(pairs) > MAX_TOPICS_PER_EVENT:
        raise ValueError(f"{len(pairs)} topics exceeds the schema maximum of {MAX_TOPICS_PER_EVENT}")
    seen_ids = set()
    out = []
    for topic_id, depth in pairs:
        if topic_id in seen_ids:
            raise ValueError(f"duplicate topic id {topic_id} within one event")
        seen_ids.add(topic_id)
        if not math.isfinite(depth):
            raise ValueError(f"non-finite depth {depth}")
        if depth < 0.0 or depth > 1.0:
            report.clamped_depths += 1
            depth = min(max(depth, 0.0), 1.0)
        out.append((topic_id, depth))
    return tuple(out)


def _parse_label(raw) -> int:
    value = int(raw)
    if value not in (0, 1):
        raise ValueError(f"label must be 0 or 1 on disk, got {raw!r}")
    return ENGAGED if value == 1 else NOT_ENGAGED


def _iter_csv_rows(path: Path):
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            return
        expected = ["learner_id", "order_index", "label", "topics"]
        if [h.strip() for h in header] != expected:
            raise DataError(
                f"{path}: expected header {','.join(expected)}, got {','.join(header)}"
            )
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            yield line_no, row


def _row_from_csv(row: list[str]) -> tuple[str, int, int, list[tuple[int, float]]]:
    if len(row) != 4:
        raise ValueError(f"expected 4 columns, got {len(row)}")
    learner_id, order_str, label_str, topics_str = row
    return learner_id, int(order_str), _parse_label(label_str), _parse_topics_field(topics_str)


def _iter_jsonl_rows(path: Path):
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if line.strip():
                yield line_no, line


def _row_from_jsonl(line: str) -> tuple[str, int, int, list[tuple[int, float]]]:
    obj = json.loads(line)
    topics = [(int(t), float(d)) for t, d in obj["topics"]]
    return str(obj["learner_id"]), int(obj["order_index"]), _parse_label(obj["label"]), topics


def load_events(path, fmt: str = "auto", top_topics: int | None = None) -> Dataset:
    """Load an event log into a Dataset, enforcing the schema invariants.

    Malformed rows are rejected and counted (first offending line reported);
    a duplicate (learner, order_index) pair is a hard error. ``fmt`` is
    "csv", "jsonl", or "auto" (by file extension). ``top_topics`` keeps only
    the first k topics of each event (file order is rank order).
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"event file not found: {path}")
    if fmt == "auto":
        fmt = "jsonl" if path.suffix in (".jsonl", ".ndjson") else "csv"
    if fmt == "csv":
        rows, parse = _iter_csv_rows(path), _row_from_csv
    elif fmt == "jsonl":
        rows, parse = _iter_jsonl_rows(path), _row_from_jsonl
    else:
        raise ValueError(f"unknown event format {fmt!r}")

    report = IngestReport()
    learners: dict[str, list[EngagementEvent]] = {}
    seen_keys: set[tuple[str, int]] = set()
    for line_no, raw in rows:
        report.rows_read += 1
        try:
            learner_id, order_index, label, pairs = parse(raw)
            if order_index < 0:
                raise ValueError(f"order_index must be >= 0, got {order_index}")
            topics = _normalize_topics(pairs, report, top_topics)
        except (ValueError, KeyError, TypeError, json.JSONDecodeError) as exc:
            report.malformed_rows += 1
            if report.first_malformed_line is None:
                report.first_malformed_line = line_no
                report.first_malformed_reason = str(exc)
            continue
        key = (learner_id, order_index)
        if key in seen_keys:
            raise DataError(
                f"{path}:{line_no}: duplicate (learner_id, order_index) = {key}"
            )
        seen_keys.add(key)
        if not topics:
            report.dropped_empty_topic_events += 1
            continue
        event = EngagementEvent(learner_id, order_index, topics, label)
        learners.setdefault(learner_id, []).append(event)
        report.events_loaded += 1

    for events in learners.values():
        events.sort(key=lambda e: e.order_index)
    report.log_warnings()
    return Dataset(learners=learners, ingest=report)


def save_events(dataset: Dataset, path, fmt: str = "csv") -> None:
    """Serialize a Dataset back to disk in the same row schema as load_events."""
    path = Path(path)
    if fmt == "csv":
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["learner_id", "order_index", "label", "topics"])
            for learner_id in dataset.learner_ids():
                for ev in dataset.learners[learner_id]:
                    topics = ";".join(f"{t}:{d}" for t, d in ev.topics)
                    writer.writerow(
                        [ev.learner_id, ev.order_index, 1 if ev.label == ENGAGED else 0, topics]
                    )
    elif fmt == "jsonl":
        with open(path, "w", encoding="utf-8") as fh:
            for learner_id in dataset.learner_ids():
                for ev in dataset.learners[learner_id]:
                    fh.write(
                        json.dumps(
                            {
                                "learner_id": ev.learner_id,
                                "order_index": ev.order_index,
                                "label": 1 if ev.label == ENGAGED else 0,
                                "topics": [[t, d] for t, d in ev.topics],
                            }
                        )
                        + "\n"
                    )
    else:
        raise ValueError(f"unknown event format {fmt!r}")


def split_learners(dataset: Dataset, train_fraction: float, seed: int) -> Dataset:
    """Assign each learner to train or test, deterministically for a fixed seed.

    The split is learner-level: |train| = round(train_fraction * n_learners),
    clamped so both splits are non-empty.
    """
    if not 0.0 < train_fraction < 1.0:
        raise ValueError(f"train_fraction must be in (0, 1), got {train_fraction}")
    ids = dataset.learner_ids()
    if len(ids) < 2:
        raise DataError(f"need at least 2 learners to split, got {len(ids)}")
    rng = random.Random(seed)
    rng.shuffle(ids)
    n_train = round(train_fraction * len(ids))
    n_train = min(max(n_train, 1), len(ids) - 1)
    split = {lid: ("train" if i < n_train else "test") for i, lid in enumerate(ids)}
    return Dataset(learners=dataset.learners, split=split, ingest=dataset.ingest)
