"""Event-log ingestion and the learner/event representations shared by all models.

On disk an event row holds the ``EVENT_FIELDS`` as CSV cells, where the
label is 0/1 and the topics are a semicolon-joined list of ``topic_id:depth``
pairs. In memory labels live as -1/+1. A JSON-lines format with the same
fields (topics as ``[[topic_id, depth], ...]``) is accepted as well; its
values are read as the text of the CSV cells they stand for.
"""

from __future__ import annotations

import contextlib
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
EVENT_FIELDS = ("learner_id", "order_index", "label", "topics")

ENGAGED = 1
NOT_ENGAGED = -1


class DataError(Exception):
    """Unrecoverable problem with an input file (missing, duplicate keys, bad schema)."""


@contextlib.contextmanager
def open_text(path, what: str, newline=None):
    """``path`` open as UTF-8 text, BOM skipped; an unreadable or undecodable file is a DataError."""
    try:
        with open(path, newline=newline, encoding="utf-8-sig") as fh:
            yield fh
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {what} {path}: {exc}") from exc


def read_json(path, what: str):
    """The JSON value in ``path``; a file that cannot be read or parsed is a DataError."""
    with open_text(path, what) as fh:
        try:
            return json.load(fh)
        # ValueError covers JSONDecodeError and an integer past int()'s digit limit;
        # RecursionError, a value nested too deeply.
        except (ValueError, RecursionError) as exc:
            raise DataError(f"cannot read {what} {path}: {exc}") from exc


class _ParsedCells(dict):
    """Each distinct cell's parse, computed on its first lookup and shared after."""

    def __init__(self, parse):
        super().__init__()
        self.parse = parse

    def __missing__(self, cell):
        parsed = self[cell] = self.parse(cell)
        return parsed


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
    """Per-learner skill state: sparse topic -> Gaussian belief map and the topics seen."""

    skills: dict[int, Gaussian1D] = field(default_factory=dict)
    topics_seen: set[int] = field(default_factory=set)


@dataclass
class IngestReport:
    """Counters and diagnostics collected while loading an event file."""

    rows_read: int = 0
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


def _event_topics(
    cells, ids: dict, report: IngestReport, top_topics: int | None
) -> tuple[tuple[int, float], ...]:
    """Parse one event's (topic id, depth) text cells into its checked topic tuple.

    Every cell must parse; only the first ``top_topics`` pairs are kept.
    Raises ValueError on schema violations (duplicates, too many entries,
    non-finite depth). Depths outside [0, 1] are clamped, and counted in
    ``report`` once the topics pass.
    """
    topics, seen_ids, clamped = [], set(), 0
    for topic, depth in cells:
        topic_id, depth = ids[topic], float(depth)
        if len(topics) == top_topics:
            continue
        if topic_id in seen_ids:
            raise ValueError(f"duplicate topic id {topic_id} within one event")
        seen_ids.add(topic_id)
        if not 0.0 <= depth <= 1.0:
            if not math.isfinite(depth):
                raise ValueError(f"non-finite depth {depth}")
            clamped += 1
            depth = min(max(depth, 0.0), 1.0)
        topics.append((topic_id, depth))
    if len(topics) > MAX_TOPICS_PER_EVENT:
        raise ValueError(f"{len(topics)} topics exceeds the schema maximum of {MAX_TOPICS_PER_EVENT}")
    report.clamped_depths += clamped
    return tuple(topics)


def _parse_label(raw) -> int:
    value = int(raw)
    if value not in (0, 1):
        raise ValueError(f"label must be 0 or 1 on disk, got {raw!r}")
    return ENGAGED if value == 1 else NOT_ENGAGED


def _csv_cells(row: list[str]):
    """A CSV row's cells, its topics split lazily into (id, depth) cells."""
    if len(row) != 4:
        raise ValueError(f"expected 4 columns, got {len(row)}")
    learner_id, order, label, topics = row
    return learner_id, order, label, _csv_topic_cells(topics)


def _csv_topic_cells(topics: str):
    for chunk in topics.split(";"):
        chunk = chunk.strip()
        if chunk:
            topic, _, depth = chunk.partition(":")
            yield topic, depth


def _json_cells(line: str):
    """A JSON-lines row as the text cells its CSV twin holds; topics stay (id, depth) pairs."""
    obj = json.loads(line)
    learner_id, order, label, topics = (obj[name] for name in EVENT_FIELDS)
    if type(topics) is not list or any(type(pair) is not list for pair in topics):
        raise ValueError("topics must be a list of [topic_id, depth] pairs")
    # type(), not isinstance(): JSON true is a bool, which is an int.
    if type(learner_id) not in (str, int):
        raise ValueError(f"learner_id must be a string or an integer, got {learner_id!r}")
    return str(learner_id), str(order), str(label), [(str(t), str(d)) for t, d in topics]


def _csv_rows(fh, path: Path):
    """(line number, row) of each non-empty CSV row after the checked header.

    A line the csv module refuses (a cell over ``csv.field_size_limit()``,
    say) is a DataError naming it.
    """
    reader = csv.reader(fh)
    try:
        header = next(reader, None)
        if header is not None and tuple(h.strip() for h in header) != EVENT_FIELDS:
            raise DataError(
                f"{path}: expected header {','.join(EVENT_FIELDS)}, got {','.join(header)}"
            )
        for line_no, row in enumerate(reader, start=2):
            if row:
                yield line_no, row
    except csv.Error as exc:
        raise DataError(f"{path}:{reader.line_num}: {exc}") from exc


def load_events(path, top_topics: int | None = None) -> Dataset:
    """Load an event log into a Dataset, enforcing the schema invariants.

    The log is JSON lines when its first non-blank character is ``{`` and
    CSV otherwise; either way each row's text cells go through one parser.
    Malformed rows are rejected and counted (first offending line reported);
    a duplicate (learner, order_index) pair is a hard error. ``top_topics``
    keeps only the first k topics of each event (file order is rank order).
    """
    if top_topics is not None and top_topics < 1:
        raise ValueError(f"top_topics must be >= 1, got {top_topics}")
    path = Path(path)
    if not path.exists():
        raise DataError(f"event file not found: {path}")
    report = IngestReport()
    # One parse and one int object per distinct topic-id cell.
    ids = _ParsedCells(int)
    learners: dict[str, list[EngagementEvent]] = {}
    seen_keys: set[tuple[str, int]] = set()
    with open_text(path, "event file", newline="") as fh:
        head = next((line for line in fh if not line.isspace()), "")
        fh.seek(0)
        if head.lstrip().startswith("{"):
            rows = ((n, line) for n, line in enumerate(fh, start=1) if not line.isspace())
            cells = _json_cells
        else:
            rows, cells = _csv_rows(fh, path), _csv_cells
        for line_no, raw in rows:
            report.rows_read += 1
            try:
                learner_id, order, label, topic_cells = cells(raw)
                order_index = int(order)
                if order_index < 0:
                    raise ValueError(f"order_index must be >= 0, got {order_index}")
                label = _parse_label(label)
                topics = _event_topics(topic_cells, ids, report, top_topics)
            except (ValueError, KeyError, TypeError, RecursionError) as exc:
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

    for events in learners.values():
        events.sort(key=lambda e: e.order_index)
    report.log_warnings()
    return Dataset(learners=learners, ingest=report)


def save_events(dataset: Dataset, path, fmt: str = "csv") -> None:
    """Serialize a Dataset back to disk in the same row schema as load_events."""
    if fmt not in ("csv", "jsonl"):
        raise ValueError(f"unknown event format {fmt!r}")
    rows = (
        [ev.learner_id, ev.order_index, 1 if ev.label == ENGAGED else 0, ev.topics]
        for learner_id in dataset.learner_ids()
        for ev in dataset.learners[learner_id]
    )
    with open(path, "w", newline="", encoding="utf-8") as fh:
        if fmt == "csv":
            writer = csv.writer(fh)
            writer.writerow(EVENT_FIELDS)
            for *cells, topics in rows:
                writer.writerow([*cells, ";".join(f"{t}:{d}" for t, d in topics)])
        else:
            for row in rows:
                fh.write(json.dumps(dict(zip(EVENT_FIELDS, row))) + "\n")


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
