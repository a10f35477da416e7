"""Seeded synthetic inputs for the benchmark, written straight to disk.

The generators follow ``tests/synthetic.py`` (``random_sessions`` and
``random_sr_table``) draw for draw, and the writers follow
``semlearn.data.save_events`` and ``tests/synthetic.py::write_sr_csv`` byte
for byte. They are kept here, free of any ``semlearn`` import, so that a
change to the library or to the test helpers cannot silently change the
benchmark's inputs: the input digests are recorded in ``reference.json``.
"""

from __future__ import annotations

import csv
import os
import random
from pathlib import Path


def random_sessions(n_learners, seed, topic_pool, max_events, max_topics, min_events=1):
    """{learner_id: [(order, ((topic, depth), ...), label), ...]} with label 0/1 as on disk."""
    rng = random.Random(seed)
    learners = {}
    for li in range(n_learners):
        lid = f"u{li:04d}"
        events = []
        for order in range(rng.randint(min_events, max_events)):
            topics = tuple(
                (t, round(rng.uniform(0.05, 1.0), 3))
                for t in rng.sample(range(topic_pool), rng.randint(1, max_topics))
            )
            label = 1 if rng.random() < 0.5 else 0
            events.append((order, topics, label))
        learners[lid] = events
    return learners


def random_sr_table(seed, topic_pool, n_pairs):
    """{(low, high): value}; later draws of the same pair overwrite earlier ones."""
    rng = random.Random(seed)
    entries = {}
    for _ in range(n_pairs):
        a, b = rng.sample(range(topic_pool), 2)
        entries[(a, b) if a < b else (b, a)] = round(rng.uniform(0.05, 1.0), 4)
    return entries


def relabel(sessions, tables, seed, topic_pool):
    """Same structure, new content: the inputs of one seed from those of another.

    Topic ids go through one random permutation shared by every corpus and
    table; each depth, label and relatedness value is drawn afresh. Session
    lengths, topics per event and which topic pairs are related keep their
    pattern, so every seed's topic graphs are isomorphic to the original's
    and a command does the same amount of propagation and graph work.
    """
    rng = random.Random(seed)
    perm = rng.sample(range(topic_pool), topic_pool)
    new_sessions = []
    for learners in sessions:
        new_sessions.append(
            {
                lid: [
                    (
                        order,
                        tuple((perm[t], round(rng.uniform(0.05, 1.0), 3)) for t, _ in topics),
                        1 if rng.random() < 0.5 else 0,
                    )
                    for order, topics, _ in events
                ]
                for lid, events in learners.items()
            }
        )
    new_tables = []
    for entries in tables:
        table = {}
        for a, b in sorted(entries):
            pa, pb = perm[a], perm[b]
            table[(pa, pb) if pa < pb else (pb, pa)] = round(rng.uniform(0.05, 1.0), 4)
        new_tables.append(table)
    return new_sessions, new_tables


def _replace_atomically(path: Path, write) -> None:
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w", newline="", encoding="utf-8") as fh:
        write(fh)
    os.replace(tmp, path)


def write_events_csv(learners, path: Path) -> None:
    def write(fh):
        writer = csv.writer(fh)
        writer.writerow(["learner_id", "order_index", "label", "topics"])
        for lid in sorted(learners):
            for order, topics, label in learners[lid]:
                writer.writerow([lid, order, label, ";".join(f"{t}:{d}" for t, d in topics)])

    _replace_atomically(path, write)


def write_sr_csv(entries, path: Path, metric: str = "w2v") -> None:
    def write(fh):
        fh.write("topic_a,topic_b,metric,value\n")
        for (a, b), value in sorted(entries.items()):
            fh.write(f"{a},{b},{metric},{value}\n")

    _replace_atomically(path, write)
