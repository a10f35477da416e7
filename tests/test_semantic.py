import json
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semlearn.data import EngagementEvent, LearnerModel
from semlearn.gaussians import Gaussian1D
from semlearn.novel import ModelConfig, predict, replay_session, update
from semlearn.relatedness import SRTable, zero_table
from semlearn.semantic import PropagationConfig, SemanticPropagator, propagate_prior

from oracles import propagation_mc
from synthetic import clustered_corpus, random_sessions, random_sr_table

ALL = PropagationConfig(sr_metric="w2v", omega_size=None)


def model_with(skills: dict[int, tuple[float, float]]) -> LearnerModel:
    model = LearnerModel()
    for topic, (mean, var) in skills.items():
        model.skills[topic] = Gaussian1D(mean, var)
        model.topics_seen.add(topic)
    model.events_seen = len(skills)
    return model


class TestPropagationConfig:
    def test_omega_all_from_dict(self):
        cfg = PropagationConfig.from_dict({"sr_metric": "mw", "omega_size": "all"})
        assert cfg.omega_size is None

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"sr_metric": "bogus"},
            {"omega_size": 4},
            {"mixing_mode": "nope"},
            {"variance_source": "nope"},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            PropagationConfig(**kwargs)


class TestPropagatePrior:
    def test_single_full_strength_neighbor_is_identity(self):
        table = SRTable(metric="w2v")
        table.set(100, 1, 1.0)
        model = model_with({1: (1.0, 0.25)})
        prior = propagate_prior(model, 100, table, ALL, default_variance=0.5)
        assert prior.mean == pytest.approx(1.0)
        assert prior.variance == pytest.approx(0.25)

    def test_two_equal_neighbors_average(self):
        table = SRTable(metric="w2v")
        table.set(100, 1, 1.0)
        table.set(100, 2, 1.0)
        sigma_sq = 0.3
        model = model_with({1: (1.0, sigma_sq), 2: (3.0, sigma_sq)})
        prior = propagate_prior(model, 100, table, ALL, default_variance=0.5)
        assert prior.mean == pytest.approx(2.0)
        assert prior.variance == pytest.approx(sigma_sq / 2.0)

    def test_weighted_combination_by_hand(self):
        table = SRTable(metric="w2v")
        table.set(100, 1, 0.8)
        table.set(100, 2, 0.4)
        model = model_with({1: (2.0, 0.5), 2: (-1.0, 1.0)})
        prior = propagate_prior(model, 100, table, ALL, default_variance=0.5)
        assert prior.mean == pytest.approx(0.6)
        assert prior.variance == pytest.approx(0.12)

    def test_weighted_combination_matches_monte_carlo(self):
        neighbors = [(2.0, 0.5, 0.8), (-1.0, 1.0, 0.4)]
        mc_mean, mc_var = propagation_mc(neighbors, n_samples=10**6, seed=5)
        table = SRTable(metric="w2v")
        model = LearnerModel()
        for i, (mu, var, rho) in enumerate(neighbors, start=1):
            table.set(100, i, rho)
            model.skills[i] = Gaussian1D(mu, var)
            model.topics_seen.add(i)
        prior = propagate_prior(model, 100, table, ALL, default_variance=0.5)
        assert prior.mean == pytest.approx(mc_mean, abs=1e-2)
        assert prior.variance == pytest.approx(mc_var, abs=1e-2)

    def test_empty_neighborhood_falls_back_to_default(self):
        prior = propagate_prior(model_with({}), 100, zero_table(), ALL, default_variance=0.7)
        assert prior.mean == 0.0
        assert prior.variance == pytest.approx(0.7)

    def test_omega_size_limits_neighbors(self):
        table = SRTable(metric="w2v")
        table.set(100, 1, 0.9)
        table.set(100, 2, 0.5)
        model = model_with({1: (2.0, 0.4), 2: (-4.0, 0.4)})
        prior = propagate_prior(model, 100, table, replace(ALL, omega_size=1), 0.5)
        assert prior.mean == pytest.approx(0.9 * 2.0)
        assert prior.variance == pytest.approx(0.81 * 0.4)

    def test_variance_source_switch_uses_initial_prior(self):
        table = SRTable(metric="w2v")
        table.set(100, 1, 0.5)
        model = model_with({1: (2.0, 0.01)})
        cfg = replace(ALL, variance_source="initial_prior")
        prior = propagate_prior(model, 100, table, cfg, default_variance=0.8)
        assert prior.variance == pytest.approx(0.25 * 0.8)

    def test_inverse_standard_error_weights(self):
        table = SRTable(metric="w2v")
        table.set(100, 1, 0.9)
        table.set(100, 2, 0.9)
        model = model_with({1: (1.0, 0.04), 2: (3.0, 1.0)})  # se 0.2 vs 1.0
        cfg = replace(ALL, mixing_mode="inverse_standard_error")
        prior = propagate_prior(model, 100, table, cfg, default_variance=0.5)
        g1, g2 = (1 / 0.2) / (1 / 0.2 + 1.0), 1.0 / (1 / 0.2 + 1.0)
        assert prior.mean == pytest.approx(0.5 * (g1 * 1.0 + g2 * 3.0))
        assert prior.variance == pytest.approx(0.25 * (g1**2 * 0.04 + g2**2 * 1.0))

    def test_random_configs_match_monte_carlo(self):
        rng = random.Random(42)
        for case in range(10):
            m = rng.randint(1, 6)
            neighbors = [
                (rng.uniform(-3, 3), rng.uniform(0.05, 1.5), rng.uniform(0.05, 1.0))
                for _ in range(m)
            ]
            mc_mean, mc_var = propagation_mc(neighbors, n_samples=10**6, seed=1000 + case)
            table = SRTable(metric="w2v")
            model = LearnerModel()
            for i, (mu, var, rho) in enumerate(neighbors, start=1):
                table.set(999, i, rho)
                model.skills[i] = Gaussian1D(mu, var)
                model.topics_seen.add(i)
            prior = propagate_prior(model, 999, table, ALL, default_variance=0.5)
            assert prior.mean == pytest.approx(mc_mean, abs=1e-2)
            assert prior.variance == pytest.approx(mc_var, abs=1e-2)

    @settings(max_examples=60)
    @given(
        st.lists(
            st.tuples(
                st.floats(-3.0, 3.0), st.floats(0.05, 2.0), st.floats(0.01, 1.0)
            ),
            min_size=1,
            max_size=8,
        )
    )
    def test_propagated_variance_never_exceeds_max_source(self, neighbors):
        table = SRTable(metric="w2v")
        model = LearnerModel()
        for i, (mu, var, rho) in enumerate(neighbors, start=1):
            table.set(999, i, rho)
            model.skills[i] = Gaussian1D(mu, var)
            model.topics_seen.add(i)
        prior = propagate_prior(model, 999, table, ALL, default_variance=0.5)
        assert prior.variance <= max(var for _, var, _ in neighbors) + 1e-12

    def test_monotone_influence_of_a_single_rho(self):
        model = model_with({1: (2.0, 0.4), 2: (-1.0, 0.4)})
        means = []
        for rho in (0.2, 0.5, 0.8):
            table = SRTable(metric="w2v")
            table.set(100, 1, rho)
            table.set(100, 2, 0.3)
            means.append(propagate_prior(model, 100, table, ALL, 0.5).mean)
        # mean is linear in rho_1 with positive slope mu_1 / |Omega|
        assert means[0] < means[1] < means[2]
        slope1 = (means[1] - means[0]) / 0.3
        slope2 = (means[2] - means[1]) / 0.3
        assert slope1 == pytest.approx(slope2, abs=1e-12)
        assert slope1 == pytest.approx(2.0 / 2.0, abs=1e-12)


class TestSemanticStep:
    def test_all_topics_seen_equals_baseline(self):
        table = random_sr_table(seed=3)
        model_a = model_with({1: (0.5, 0.3), 2: (-0.2, 0.4)})
        model_b = model_with({1: (0.5, 0.3), 2: (-0.2, 0.4)})
        ev = EngagementEvent("x", 0, ((1, 0.5), (2, 0.7)), 1)
        cfg = ModelConfig()
        SemanticPropagator(table, ALL, cfg)(model_a, ev)
        p_sem, pred_sem = update(model_a, ev, cfg)
        p_base, pred_base = predict(model_b, ev, cfg)
        update(model_b, ev, cfg)
        assert (p_sem, pred_sem) == (p_base, pred_base)
        assert model_a.skills[1] == model_b.skills[1]
        assert model_a.skills[2] == model_b.skills[2]

    def test_unseen_topic_prior_equals_injected_baseline(self):
        # one seen related topic (rho=0.9, skill N(2, 0.1)) -> prior N(1.8, 0.081)
        table = SRTable(metric="w2v")
        table.set(100, 1, 0.9)
        cfg = ModelConfig()
        sem_model = model_with({1: (2.0, 0.1)})
        ev = EngagementEvent("x", 0, ((100, 0.6),), 1)
        SemanticPropagator(table, ALL, cfg)(sem_model, ev)
        p_sem, _ = update(sem_model, ev, cfg)
        injected = model_with({1: (2.0, 0.1)})
        injected.skills[100] = Gaussian1D(0.9 * 2.0, 0.81 * 0.1)
        p_base, _ = predict(injected, ev, cfg)
        assert p_sem == p_base

    def test_marks_event_topics_seen(self):
        table = zero_table()
        model = LearnerModel()
        ev = EngagementEvent("x", 0, ((7, 0.5), (8, 0.5)), -1)
        SemanticPropagator(table, ALL, ModelConfig())(model, ev)
        update(model, ev, ModelConfig())
        assert model.topics_seen == {7, 8}

    def test_first_encounter_only(self):
        table = SRTable(metric="w2v")
        table.set(1, 2, 0.9)
        cfg = ModelConfig()
        model = LearnerModel()
        propagator = SemanticPropagator(table, ALL, cfg)
        ev1 = EngagementEvent("x", 0, ((1, 0.8),), 1)
        propagator(model, ev1)
        update(model, ev1, cfg)
        belief_after_update = model.skills[1]
        ev2 = EngagementEvent("x", 1, ((1, 0.8), (2, 0.4)), 1)
        propagator(model, ev2)
        assert model.skills[1] is belief_after_update
        assert 2 in model.skills  # the genuinely new topic got a propagated prior


class TestDegeneracy:
    def test_zero_table_replay_identical_to_baseline(self):
        ds = random_sessions(n_learners=100, seed=21)
        cfg = ModelConfig()
        table = zero_table()
        propagator = SemanticPropagator(table, ALL, cfg)
        base_out = {}
        sem_out = {}
        for lid, events in ds.learners.items():
            base_out[lid] = replay_session(events, cfg)
            sem_out[lid] = replay_session(events, cfg, propagator)
        assert json.dumps(base_out, sort_keys=True) == json.dumps(sem_out, sort_keys=True)

    def test_zero_table_final_states_identical(self):
        ds = random_sessions(n_learners=10, seed=22)
        cfg = ModelConfig()
        propagator = SemanticPropagator(zero_table(), ALL, cfg)
        for events in ds.learners.values():
            base_model = LearnerModel()
            sem_model = LearnerModel()
            for ev in events:
                update(base_model, ev, cfg)
            for ev in events:
                propagator(sem_model, ev)
                update(sem_model, ev, cfg)
            assert base_model.skills == sem_model.skills
            assert base_model.topics_seen == sem_model.topics_seen


class TestClusteredCohort:
    def test_semantic_beats_baseline_recall_on_correlated_skills(self):
        from semlearn.evaluation import aggregate, score_learner

        ds, table = clustered_corpus(n_learners=60, seed=11)
        cfg = ModelConfig(beta=1.0, beta_perf=0.25, draw_margin_eps=0.6)
        propagator = SemanticPropagator(table, ALL, cfg)
        base_scores = []
        sem_scores = []
        for lid in ds.learner_ids():
            events = ds.learners[lid]
            base_scores.append(score_learner(lid, replay_session(events, cfg)))
            sem_scores.append(score_learner(lid, replay_session(events, cfg, propagator)))
        _, base_recall, _ = aggregate(base_scores)
        _, sem_recall, _ = aggregate(sem_scores)
        assert sem_recall > base_recall
