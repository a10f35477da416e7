"""Acceptance suite: one test per criterion, at the stated tolerances.

Each criterion prints a single PASS/FAIL line (see conftest). Tolerances
and budgets are pinned here, not configurable.
"""

import hashlib
import itertools
import json
import math
import os
import random
import time

import pytest

from semlearn.data import EngagementEvent, save_events
from semlearn.evaluation import (
    aggregate,
    paired_t_test_one_tailed,
    score_learner,
    srocc,
    srocc_exact_permutation,
)
from semlearn.gaussians import (
    Gaussian1D,
    divide,
    multiply,
    truncated_moments_above,
    truncated_moments_within,
)
from semlearn.novel import ModelConfig, replay_session, update
from semlearn.relatedness import (
    LearnerTopicGraph,
    SRTable,
    avg_connectedness,
    min_cut_set_size,
)
from semlearn.semantic import PropagationConfig, SemanticPropagator, propagate_prior
from semlearn.cli import main as cli_main

from oracles import (
    above_corrections_quad,
    connected_brute,
    paired_t_oracle,
    propagation_mc,
    single_topic_posterior_grid,
    spearman_exact_permutation_p,
    spearman_rho_brute,
    t_upper_tail_quad,
    vertex_connectivity_brute,
    within_corrections_quad,
)
from synthetic import clustered_corpus, random_sessions, write_sr_csv

ALL_RELATED = PropagationConfig(sr_metric="w2v", omega_size=None)


def test_criterion_1_gaussian_core_oracles():
    started = time.perf_counter()
    rng = random.Random(2024)
    for _ in range(1000):
        a = Gaussian1D(rng.uniform(-20, 20), rng.uniform(1e-3, 1e3))
        b = Gaussian1D(rng.uniform(-20, 20), rng.uniform(1e-3, 1e3))
        back = divide(multiply(a, b), b)
        assert abs(back.mean - a.mean) <= 1e-9
        assert abs(back.variance - a.variance) <= 1e-9 * max(1.0, a.variance)
    for _ in range(100):
        t = rng.uniform(-5.0, 5.0)
        eps = rng.uniform(1e-3, 5.0)
        v, w = truncated_moments_within(t, eps)
        v_ref, w_ref = within_corrections_quad(t, eps)
        assert abs(v - v_ref) <= 1e-6
        assert abs(w - w_ref) <= 1e-6
        v, w = truncated_moments_above(t, eps)
        v_ref, w_ref = above_corrections_quad(t, eps)
        assert abs(v - v_ref) <= 1e-6
        assert abs(w - w_ref) <= 1e-6
    assert time.perf_counter() - started < 10.0


def test_criterion_2_propagation_matches_monte_carlo():
    started = time.perf_counter()
    rng = random.Random(77)
    for case in range(50):
        m = rng.randint(1, 8)
        neighbors = [
            (rng.uniform(-3, 3), rng.uniform(0.05, 1.5), rng.uniform(0.05, 1.0))
            for _ in range(m)
        ]
        table = SRTable(metric="w2v")
        model = {}
        for i, (mu, var, rho) in enumerate(neighbors, start=1):
            table.set(10_000, i, rho)
            model[i] = Gaussian1D(mu, var)
        prior = propagate_prior(model, 10_000, table, ALL_RELATED, default_variance=0.5)
        mc_mean, mc_var = propagation_mc(neighbors, n_samples=10**6, seed=9000 + case)
        assert abs(prior.mean - mc_mean) <= 1e-2
        assert abs(prior.variance - mc_var) <= 1e-2
    assert time.perf_counter() - started < 60.0


def test_criterion_3_degeneracy_byte_identical():
    dataset = random_sessions(n_learners=100, seed=31, max_events=25)
    cfg = ModelConfig()
    propagator = SemanticPropagator(SRTable("w2v"), ALL_RELATED, cfg)
    baseline = {lid: replay_session(evs, cfg) for lid, evs in dataset.learners.items()}
    semantic = {lid: replay_session(evs, cfg, propagator) for lid, evs in dataset.learners.items()}
    base_bytes = json.dumps(baseline, sort_keys=True).encode()
    sem_bytes = json.dumps(semantic, sort_keys=True).encode()
    assert hashlib.sha256(base_bytes).digest() == hashlib.sha256(sem_bytes).digest()


def test_criterion_4_single_topic_update_oracle():
    rng = random.Random(404)
    for _ in range(50):
        cfg = ModelConfig(
            beta=rng.uniform(0.2, 1.5),
            beta_perf=rng.uniform(0.2, 1.5),
            draw_margin_eps=rng.uniform(0.2, 1.5),
        )
        prior_mean = rng.uniform(-2.0, 2.0)
        prior_var = rng.uniform(0.1, 1.5)
        depth = rng.uniform(0.2, 1.0)
        label = rng.choice([1, -1])
        model = {1: Gaussian1D(prior_mean, prior_var)}
        update(model, EngagementEvent("x", 0, ((1, depth),), label), cfg)
        mean_ref, var_ref = single_topic_posterior_grid(
            prior_mean, prior_var, depth, cfg.draw_margin_eps, label, cfg.beta_perf
        )
        assert abs(model[1].mean - mean_ref) <= 1e-4
        assert abs(model[1].variance - var_ref) <= 1e-4


def test_criterion_5_statistics_oracles():
    rng = random.Random(505)
    # paired one-tailed t-test vs textbook formula + quadrature t-CDF
    for _ in range(30):
        n = rng.randint(2, 20)
        a = [rng.random() for _ in range(n)]
        b = [rng.random() for _ in range(n)]
        t, p = paired_t_test_one_tailed(a, b)
        t_ref, p_ref = paired_t_oracle(a, b)
        assert abs(t - t_ref) <= 1e-9
        assert abs(p - p_ref) <= 1e-6
    # SROCC t-approximation regime vs independent rank/Pearson/quadrature
    for _ in range(30):
        n = rng.randint(3, 20)
        x = [rng.choice([0.0, 0.5, 1.0, 2.0, 3.0]) for _ in range(n)]
        y = [rng.random() for _ in range(n)]
        rho, p = srocc(x, y)
        if math.isnan(rho):
            continue
        assert abs(rho - spearman_rho_brute(x, y)) <= 1e-12
        if abs(rho) < 1.0:
            t_stat = rho * math.sqrt((n - 2) / (1.0 - rho * rho))
            assert abs(p - 2.0 * t_upper_tail_quad(abs(t_stat), n - 2)) <= 1e-6
    # exact permutation regime: equality against independent enumeration
    for _ in range(5):
        n = rng.randint(3, 6)
        x = [rng.random() for _ in range(n)]
        y = [rng.choice([0.0, 1.0, 2.0]) for _ in range(n)]
        rho, p = srocc_exact_permutation(x, y)
        assert p == spearman_exact_permutation_p(x, y)


def test_criterion_6_synthetic_directional_gain():
    started = time.perf_counter()
    dataset, table = clustered_corpus(n_learners=500, seed=7)
    cfg = ModelConfig(beta=1.0, beta_perf=0.25, draw_margin_eps=0.6)
    propagator = SemanticPropagator(table, ALL_RELATED, cfg)
    base_scores = []
    sem_scores = []
    for lid in sorted(dataset.learners):
        events = dataset.learners[lid]
        base_scores.append(score_learner(lid, replay_session(events, cfg)))
        sem_scores.append(score_learner(lid, replay_session(events, cfg, propagator)))
    _, base_recall, _ = aggregate(base_scores)
    _, sem_recall, _ = aggregate(sem_scores)
    assert sem_recall > base_recall
    _, p = paired_t_test_one_tailed(
        [s.recall for s in base_scores], [s.recall for s in sem_scores]
    )
    assert p < 0.01
    assert time.perf_counter() - started < 300.0


@pytest.mark.skipif(
    "SEMLEARN_PEEK_EVENTS" not in os.environ or "SEMLEARN_SR_TABLE" not in os.environ,
    reason="external event log and SR tables not supplied "
    "(set SEMLEARN_PEEK_EVENTS and SEMLEARN_SR_TABLE)",
)
def test_criterion_6_external_dataset_reproduction(tmp_path):
    """With the external lecture-engagement corpus and its relatedness tables
    supplied, the reference F1 scores must reproduce within +-0.02 (the slack
    covers hyperparameters the reference runs leave unstated)."""
    from semlearn.runs import RunSpec, evaluate_run

    spec = RunSpec(
        os.environ["SEMLEARN_PEEK_EVENTS"], sr_table_path=os.environ["SEMLEARN_SR_TABLE"], seed=42
    )
    out = evaluate_run(spec, tmp_path / "peek", compare=True)
    models = {m["model_id"]: m["weighted"]["f1"] for m in out["report_obj"]["models"]}
    assert abs(models["truelearn-novel"] - 0.6471) <= 0.02
    assert abs(models["semantic-truelearn"] - 0.6512) <= 0.02


def test_criterion_7_omega_sweep(tmp_path):
    dataset, _ = clustered_corpus(n_learners=16, seed=70, clusters_per_learner=2)
    events = tmp_path / "events.csv"
    save_events(dataset, events)
    sr = tmp_path / "sr.csv"
    sr.write_text("topic_a,topic_b,metric,value\n100,101,w2v,0.9\n")
    replay_outputs = set()
    summaries = []
    for omega in ("1", "3", "5", "10", "all"):
        out = tmp_path / f"omega_{omega}"
        code = cli_main(
            [
                "evaluate",
                "--model", "semantic-truelearn",
                "--data", str(events),
                "--sr-table", str(sr),
                "--omega", omega,
                "--out-dir", str(out),
            ]
        )
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["models"][0]["omega"] == ("all" if omega == "all" else int(omega))
        replay_outputs.add(json.dumps(report["models"][0]["learners"], sort_keys=True))
        summary = (out / "summary.csv").read_text().splitlines()
        assert summary[1] == "Algorithm,SR Metric,Prec.,Rec.,F1"
        summaries.append(out / "summary.csv")
    assert len(summaries) == 5
    # only one related pair exists, so every omega truncation is inactive
    assert len(replay_outputs) == 1


def test_criterion_8_leakage():
    cfg = ModelConfig()
    rng = random.Random(808)
    dataset = random_sessions(n_learners=100, seed=80, min_events=2, max_events=20)
    for lid, events in dataset.learners.items():
        cut = rng.randrange(len(events))
        suffix_labels = [ev.label for ev in events[cut:]]
        rng.shuffle(suffix_labels)
        permuted = list(events[:cut]) + [
            EngagementEvent(ev.learner_id, ev.order_index, ev.topics, label)
            for ev, label in zip(events[cut:], suffix_labels)
        ]
        base = replay_session(events, cfg)
        perturbed = replay_session(permuted, cfg)
        for i in range(cut + 1):
            assert base[i][0] == perturbed[i][0]


def test_criterion_9_cli_determinism_any_workers(tmp_path):
    dataset, table = clustered_corpus(n_learners=20, seed=90, clusters_per_learner=2)
    events = tmp_path / "events.csv"
    save_events(dataset, events)
    sr = tmp_path / "sr.csv"
    write_sr_csv(table, sr)
    digests = []
    for name, workers in (("w1_a", "1"), ("w1_b", "1"), ("w2", "2"), ("w3", "3")):
        out = tmp_path / name
        code = cli_main(
            [
                "evaluate",
                "--compare",
                "--data", str(events),
                "--sr-table", str(sr),
                "--seed", "11",
                "--workers", workers,
                "--out-dir", str(out),
            ]
        )
        assert code == 0
        digests.append(
            (
                hashlib.sha256((out / "report.json").read_bytes()).hexdigest(),
                hashlib.sha256((out / "summary.csv").read_bytes()).hexdigest(),
            )
        )
    assert len(set(digests)) == 1


def test_criterion_10_graph_analytics():
    rng = random.Random(1010)
    for _ in range(200):
        n = rng.randint(2, 8)
        nodes = list(range(n))
        edges = [
            (a, b) for a, b in itertools.combinations(nodes, 2) if rng.random() < 0.4
        ]
        graph = LearnerTopicGraph(nodes=frozenset(nodes), edges=frozenset(edges))
        degree_total = sum(2 for _ in edges)
        assert avg_connectedness(graph) == pytest.approx(degree_total / n)
        got = min_cut_set_size(graph)
        if connected_brute(nodes, edges):
            assert got == vertex_connectivity_brute(nodes, edges)
        else:
            assert got == 0
