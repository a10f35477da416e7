import hashlib
import math
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semlearn.data import EngagementEvent, LearnerModel
from semlearn.gaussians import Gaussian1D
from semlearn.novel import ModelConfig, predict, replay_session, update
from semlearn.semantic import PropagationConfig, SemanticPropagator

from oracles import normal_interval_mass_quad, single_topic_posterior_grid
from synthetic import random_sessions, random_sr_table


def event(topics, label=1, learner="x", order=0):
    return EngagementEvent(learner, order, tuple(topics), label)


class TestModelConfig:
    def test_defaults_valid(self):
        cfg = ModelConfig()
        assert cfg.beta == 0.5
        assert cfg.decision_threshold == 0.5

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"beta": 0.0},
            {"beta_perf": -1.0},
            {"draw_margin_eps": 0.0},
            {"dynamics_tau": -0.1},
            {"decision_threshold": 1.0},
            {"beta": math.nan},
            {"beta": math.inf},
            {"beta_perf": math.nan},
            {"draw_margin_eps": math.nan},
            {"depth_skill_level": math.nan},
            {"dynamics_tau": math.inf},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            ModelConfig(**kwargs)

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown"):
            ModelConfig.from_dict({"betta": 1.0})


class TestPredict:
    def test_fresh_learners_identical(self):
        cfg = ModelConfig()
        ev = event([(1, 0.5), (2, 0.8)])
        p1, _ = predict(LearnerModel(), ev, cfg)
        p2, _ = predict(LearnerModel(), ev, cfg)
        assert p1 == p2

    def test_huge_margin_means_certain_engagement(self):
        cfg = ModelConfig(draw_margin_eps=1e6)
        p, prediction = predict(LearnerModel(), event([(1, 1.0)]), cfg)
        assert p == pytest.approx(1.0)
        assert prediction == 1

    def test_single_topic_matches_quadrature(self):
        # frozen: integral of N(0, 1*0.5 + 2*0.5*1) over [-0.5, 0.5]
        cfg = ModelConfig(beta=0.5, beta_perf=0.5, draw_margin_eps=0.5)
        p, _ = predict(LearnerModel(), event([(1, 1.0)]), cfg)
        assert p == pytest.approx(0.316908601690, abs=1e-9)

    def test_random_states_match_quadrature(self):
        rng = random.Random(99)
        for _ in range(25):
            cfg = ModelConfig(
                beta=rng.uniform(0.1, 2.0),
                beta_perf=rng.uniform(0.1, 2.0),
                draw_margin_eps=rng.uniform(0.1, 2.0),
            )
            model = LearnerModel()
            topics = []
            mean_d = 0.0
            var_d = 0.0
            sum_d_sq = 0.0
            for t in range(rng.randint(1, 4)):
                depth = rng.uniform(0.1, 1.0)
                mu = rng.uniform(-2, 2)
                var = rng.uniform(0.05, 2.0)
                model.skills[t] = Gaussian1D(mu, var)
                topics.append((t, depth))
                mean_d += depth * mu
                var_d += depth * depth * var
                sum_d_sq += depth * depth
            var_d += 2.0 * cfg.beta_perf * sum_d_sq
            p, _ = predict(model, event(topics), cfg)
            expected = normal_interval_mass_quad(
                mean_d, var_d, -cfg.draw_margin_eps, cfg.draw_margin_eps
            )
            assert p == pytest.approx(expected, abs=1e-6)

    def test_prediction_thresholding(self):
        cfg = ModelConfig(beta=0.5, beta_perf=0.5, draw_margin_eps=0.5, decision_threshold=0.3)
        _, prediction = predict(LearnerModel(), event([(1, 1.0)]), cfg)
        assert prediction == 1  # p ~= 0.317 >= 0.3
        cfg2 = replace(cfg, decision_threshold=0.4)
        _, prediction = predict(LearnerModel(), event([(1, 1.0)]), cfg2)
        assert prediction == -1

    def test_all_zero_depths_is_a_certain_draw(self):
        cfg = ModelConfig()
        p, prediction = predict(LearnerModel(), event([(1, 0.0), (2, 0.0)]), cfg)
        assert p == 1.0
        assert prediction == 1


class TestUpdate:
    def test_untouched_topic_bitwise_unchanged(self):
        cfg = ModelConfig()
        model = LearnerModel()
        frozen = Gaussian1D(0.7, 0.2)
        model.skills[42] = frozen
        model.topics_seen.add(42)
        update(model, event([(1, 0.5)]), cfg)
        assert model.skills[42] is frozen

    def test_repeated_engagement_shrinks_variance_monotonically(self):
        cfg = ModelConfig(dynamics_tau=0.0)
        model = LearnerModel()
        variances = []
        for order in range(20):
            update(model, event([(5, 0.8)], label=1, order=order), cfg)
            variances.append(model.skills[5].variance)
        assert all(b < a for a, b in zip(variances, variances[1:]))

    def test_posterior_variance_below_inflated_prior(self):
        cfg = ModelConfig(dynamics_tau=0.3)
        model = LearnerModel()
        model.skills[1] = Gaussian1D(0.5, 0.4)
        update(model, event([(1, 1.0)], label=-1), cfg)
        assert model.skills[1].variance < 0.4 + 0.09

    def test_counters(self):
        cfg = ModelConfig()
        model = LearnerModel()
        update(model, event([(1, 0.5), (2, 0.5)]), cfg)
        assert model.events_seen == 1
        assert model.topics_seen == {1, 2}
        assert set(model.skills) == {1, 2}

    def test_all_zero_depths_update_carries_no_information(self):
        cfg = ModelConfig()
        model = LearnerModel()
        before = Gaussian1D(0.4, 0.2)
        model.skills[1] = before
        model.topics_seen.add(1)
        update(model, event([(1, 0.0), (2, 0.0)], label=-1), cfg)
        assert model.skills[1] is before
        assert model.skills[2].variance == cfg.beta
        assert model.topics_seen == {1, 2}
        assert model.events_seen == 1

    @pytest.mark.parametrize("label", [1, -1])
    def test_single_topic_posterior_matches_grid_oracle(self, label):
        rng = random.Random(1234 + label)
        for _ in range(20):
            cfg = ModelConfig(
                beta=rng.uniform(0.2, 1.5),
                beta_perf=rng.uniform(0.2, 1.5),
                draw_margin_eps=rng.uniform(0.2, 1.5),
            )
            prior_mean = rng.uniform(-2.0, 2.0)
            prior_var = rng.uniform(0.1, 1.5)
            depth = rng.uniform(0.2, 1.0)
            model = LearnerModel()
            model.skills[3] = Gaussian1D(prior_mean, prior_var)
            update(model, event([(3, depth)], label=label), cfg)
            mean_ref, var_ref = single_topic_posterior_grid(
                prior_mean, prior_var, depth, cfg.draw_margin_eps, label, cfg.beta_perf
            )
            assert model.skills[3].mean == pytest.approx(mean_ref, abs=1e-4)
            assert model.skills[3].variance == pytest.approx(var_ref, abs=1e-4)

    @settings(max_examples=60, deadline=None)
    @given(
        st.floats(-3.0, 3.0),
        st.floats(0.05, 2.0),
        st.floats(0.1, 1.0),
        st.sampled_from([1, -1]),
    )
    def test_update_moves_team_mean_in_the_right_direction(
        self, prior_mean, prior_var, depth, label
    ):
        cfg = ModelConfig(beta=0.5, beta_perf=0.5, draw_margin_eps=0.4)
        model = LearnerModel()
        model.skills[1] = Gaussian1D(prior_mean, prior_var)
        before = depth * prior_mean
        update(model, event([(1, depth)], label=label), cfg)
        after = depth * model.skills[1].mean
        shift = after - before
        if label == 1:
            # engaged pulls the difference toward the draw region (toward 0)
            if abs(before) > 1e-9:
                assert math.copysign(1.0, shift) == -math.copysign(1.0, before)
        else:
            # not-engaged pushes it away, on the side of the current mean
            expected_side = 1.0 if before >= 0.0 else -1.0
            assert math.copysign(1.0, shift) == expected_side


class TestStep:
    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.tuples(st.floats(-3.0, 3.0), st.floats(0.01, 2.0)), max_size=4),
        st.lists(
            st.tuples(st.integers(0, 7), st.floats(0.0, 1.0)),
            min_size=1,
            max_size=5,
            unique_by=lambda topic: topic[0],
        ),
        st.sampled_from([1, -1]),
        st.floats(0.01, 5.0),
        st.floats(0.0, 1.0),
    )
    def test_update_returns_predict_of_pre_update_model(self, skills, topics, label, beta, tau):
        cfg = ModelConfig(beta=beta, dynamics_tau=tau)
        model = LearnerModel()
        for topic, (mean, var) in enumerate(skills):
            model.skills[topic] = Gaussian1D(mean, var)
            model.topics_seen.add(topic)
        ev = event(topics, label=label)
        before = replace(model, skills=dict(model.skills), topics_seen=set(model.topics_seen))
        p_expected, pred_expected = predict(before, ev, cfg)
        p_engage, prediction = update(model, ev, cfg)
        assert (p_engage.hex(), prediction) == (p_expected.hex(), pred_expected)

    def test_replay_bytes_pinned(self):
        # Digests recorded from the two-pass predict-then-update step this
        # one replaced. beta = 0.38 is one of the values whose variance
        # round-trip 1/(1/beta) differs from beta, so an unseen topic that
        # skipped the Gaussian1D prior would change the beliefs digest;
        # tau > 0 exercises the inflation.
        cfg = ModelConfig(
            beta=0.38, beta_perf=0.7, draw_margin_eps=0.2, dynamics_tau=0.05, depth_skill_level=0.1
        )
        assert 1.0 / (1.0 / cfg.beta) != cfg.beta
        dataset = random_sessions(n_learners=30, seed=11, topic_pool=25, max_events=40, max_topics=4)
        table = random_sr_table(seed=11, topic_pool=25, n_pairs=80)
        semantic = SemanticPropagator(table, PropagationConfig(), cfg)
        traces = hashlib.sha256()
        beliefs = hashlib.sha256()
        for lid in sorted(dataset.learners):
            events = dataset.learners[lid]
            traces.update(repr(replay_session(events, cfg)).encode())
            traces.update(repr(replay_session(events, cfg, semantic)).encode())
            for propagator in (None, semantic):
                model = LearnerModel()
                for ev in events:
                    if propagator is not None:
                        propagator(model, ev)
                    beliefs.update(repr(update(model, ev, cfg)).encode())
                for topic in sorted(model.skills):
                    skill = model.skills[topic]
                    beliefs.update(repr((topic, skill.precision, skill.precision_mean)).encode())
        assert traces.hexdigest() == "48ba32f2bfd02d99ddf31110cb22a8cd9cf06d0e6112bf63a716abe6058ded9d"
        assert beliefs.hexdigest() == "fd54b483b711b101f6f7183f48dc54603e3b61bfc057a0f1f06f6a68a4421fb7"


class TestReplaySession:
    def test_empty_session(self):
        assert replay_session([], ModelConfig()) == []

    def test_single_event_uses_pure_priors(self):
        cfg = ModelConfig()
        ev = event([(1, 0.5)], label=-1)
        p_prior, prediction = predict(LearnerModel(), ev, cfg)
        assert replay_session([ev], cfg) == [(prediction, -1)]

    def test_alignment_with_labels(self):
        cfg = ModelConfig()
        events = [event([(1, 0.5)], label=l, order=i) for i, l in enumerate([1, -1, 1])]
        out = replay_session(events, cfg)
        assert [label for _, label in out] == [1, -1, 1]

    def test_no_label_leakage(self):
        cfg = ModelConfig()
        rng = random.Random(77)
        ds = random_sessions(n_learners=30, seed=8, min_events=3, max_events=15)
        for lid, events in ds.learners.items():
            cut = rng.randrange(len(events))
            flipped = [
                ev if i < cut else EngagementEvent(ev.learner_id, ev.order_index, ev.topics, -ev.label)
                for i, ev in enumerate(events)
            ]
            base = replay_session(events, cfg)
            perturbed = replay_session(flipped, cfg)
            for i in range(cut + 1):
                assert base[i][0] == perturbed[i][0]

    def test_skill_sparsity(self):
        cfg = ModelConfig()
        ds = random_sessions(n_learners=5, seed=4)
        for events in ds.learners.values():
            model = LearnerModel()
            for ev in events:
                update(model, ev, cfg)
            distinct = {t for ev in events for t in ev.topic_ids()}
            assert set(model.skills) <= distinct
