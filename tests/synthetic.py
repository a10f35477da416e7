"""Deterministic synthetic corpora used across the test suite."""

from __future__ import annotations

import random

from semlearn.data import Dataset, EngagementEvent
from semlearn.relatedness import SRTable

# Hyperparameters under which the clustered cohort separates the two models:
# a fresh N(0, beta) prior predicts not-engaged, while a variance-shrunk
# propagated prior near zero predicts engaged.
CLUSTERED_CONFIG = dict(beta=1.0, beta_perf=0.25, draw_margin_eps=0.6)

# Lines that no input file reads as a record: empty or whitespace only.
BLANK_LINES = ("", " ", "\t", " \t ")


def random_sessions(
    n_learners: int = 20,
    seed: int = 0,
    topic_pool: int = 40,
    min_events: int = 1,
    max_events: int = 30,
    max_topics: int = 3,
) -> Dataset:
    """Sessions with uniformly random topics, depths and labels."""
    rng = random.Random(seed)
    learners: dict[str, list[EngagementEvent]] = {}
    for li in range(n_learners):
        lid = f"u{li:04d}"
        events = []
        for order in range(rng.randint(min_events, max_events)):
            topics = tuple(
                (t, round(rng.uniform(0.05, 1.0), 3))
                for t in rng.sample(range(topic_pool), rng.randint(1, max_topics))
            )
            label = 1 if rng.random() < 0.5 else -1
            events.append(EngagementEvent(lid, order, topics, label))
        learners[lid] = events
    return Dataset(learners=learners)


def full_depth_sessions(n_learners: int = 200, seed: int = 0, n_events: int = 30) -> Dataset:
    """Sessions whose every event holds the schema's maximum of 10 topics, all at depth 1."""
    rng = random.Random(seed)
    learners = {}
    for li in range(n_learners):
        lid = f"u{li:04d}"
        learners[lid] = [
            EngagementEvent(lid, order, tuple((t, 1.0) for t in rng.sample(range(40), 10)),
                            1 if rng.random() < 0.5 else -1)
            for order in range(n_events)
        ]
    return Dataset(learners=learners)


def random_sr_table(seed: int = 0, topic_pool: int = 40, n_pairs: int = 120, metric: str = "w2v") -> SRTable:
    rng = random.Random(seed)
    table = SRTable(metric=metric)
    for _ in range(n_pairs):
        a, b = rng.sample(range(topic_pool), 2)
        table.set(a, b, round(rng.uniform(0.05, 1.0), 4))
    return table


def clustered_corpus(
    n_learners: int = 500,
    n_clusters: int = 8,
    topics_per_cluster: int = 6,
    clusters_per_learner: int = 3,
    visits_per_topic: int = 2,
    seed: int = 7,
    rho: float = 0.9,
    eps_true: float = 0.6,
    observation_noise: float = 0.15,
) -> tuple[Dataset, SRTable]:
    """Cohort whose latent skills are correlated within known topic clusters.

    Each learner walks a few clusters topic by topic; engagement follows the
    same draw rule the model assumes, so learners whose latent cluster skill
    sits near zero engage with that cluster's resources. Topics within a
    cluster share relatedness ``rho``; across clusters relatedness is zero.
    """
    rng = random.Random(seed)
    table = SRTable(metric="w2v")
    clusters = []
    for c in range(n_clusters):
        topics = [100 * c + i for i in range(topics_per_cluster)]
        clusters.append(topics)
        for i, a in enumerate(topics):
            for b in topics[i + 1 :]:
                table.set(a, b, rho)
    learners: dict[str, list[EngagementEvent]] = {}
    for li in range(n_learners):
        lid = f"L{li:05d}"
        chosen = rng.sample(range(n_clusters), clusters_per_learner)
        cluster_value = {
            c: (0.0 if rng.random() < 0.5 else rng.choice([-2.0, 2.0])) for c in chosen
        }
        events = []
        order = 0
        for c in chosen:
            for topic in clusters[c]:
                theta = cluster_value[c] + rng.gauss(0.0, 0.05)
                for _ in range(visits_per_topic):
                    depth = rng.uniform(0.75, 1.0)
                    observed = depth * theta + rng.gauss(0.0, observation_noise)
                    label = 1 if abs(observed) <= eps_true else -1
                    events.append(EngagementEvent(lid, order, ((topic, depth),), label))
                    order += 1
        learners[lid] = events
    return Dataset(learners=learners), table


def write_sr_csv(table: SRTable, path, fmt: str = "long") -> None:
    """Write a table to disk in the long or wide SR schema."""
    rows = sorted(
        (a, b, value) for a, row in table.neighbours.items() for b, value in row.items() if a < b
    )
    with open(path, "w", encoding="utf-8") as fh:
        if fmt == "long":
            fh.write("topic_a,topic_b,metric,value\n")
            for a, b, value in rows:
                fh.write(f"{a},{b},{table.metric},{value}\n")
        elif fmt == "wide":
            fh.write(f"topic_a,topic_b,{table.metric}\n")
            for a, b, value in rows:
                fh.write(f"{a},{b},{value}\n")
        else:
            raise ValueError(fmt)
