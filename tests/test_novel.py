import copy
import hashlib
import math
import operator
import random
import sys
from dataclasses import asdict, replace
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import semlearn.novel
from semlearn.data import Dataset, EngagementEvent
from semlearn.gaussians import Gaussian1D
from semlearn.novel import (
    MAX_DEPTH_SKILL_LEVEL, MAX_DRAW_MARGIN_EPS, MAX_DYNAMICS_TAU, ModelConfig, predict,
    replay_session, update,
)
from semlearn.relatedness import SRTable
from semlearn.runs import replay_cohort
from semlearn.semantic import OMEGA_SIZES, PropagationConfig, SemanticPropagator

from oracles import (
    normal_interval_mass_quad, single_topic_posterior_grid, team_posterior_variance_exact,
)
from synthetic import full_depth_sessions, random_sessions, random_sr_table

TINY = 5e-324  # the least positive float
# The least and the greatest beta whose precision 1 / beta and its read-back
# 1 / (1 / beta) are both finite.
LEAST_BETA = 5.56268464626801e-309
GREATEST_BETA = 1.7976931348623151e308

# (field, the bound's edge, the next float past it)
BOUND_EDGES = [
    ("beta", LEAST_BETA, math.nextafter(LEAST_BETA, 0.0)),
    ("beta", GREATEST_BETA, math.nextafter(GREATEST_BETA, math.inf)),
    ("draw_margin_eps", MAX_DRAW_MARGIN_EPS, math.nextafter(MAX_DRAW_MARGIN_EPS, math.inf)),
    ("dynamics_tau", MAX_DYNAMICS_TAU, math.nextafter(MAX_DYNAMICS_TAU, math.inf)),
    ("depth_skill_level", MAX_DEPTH_SKILL_LEVEL, math.nextafter(MAX_DEPTH_SKILL_LEVEL, math.inf)),
    ("depth_skill_level", -MAX_DEPTH_SKILL_LEVEL, math.nextafter(-MAX_DEPTH_SKILL_LEVEL, -math.inf)),
]


def event(topics, label=1, learner="x", order=0):
    return EngagementEvent(learner, order, tuple(topics), label)


def log_uniform(lo_exp, hi_exp):
    return st.floats(float(lo_exp), float(hi_exp)).map(lambda e: 10.0**e)


def whole_range(lo, hi):
    """Floats from lo to hi, both included, log-uniform: a uniform binary exponent and mantissa."""
    exponents = st.integers(math.frexp(lo)[1], math.frexp(hi)[1])
    drawn = st.builds(math.ldexp, st.floats(0.5, 1.0, exclude_max=True), exponents)
    return st.sampled_from([lo, hi]) | drawn.map(lambda x: min(max(x, lo), hi))


# Every field over its whole allowed range.
whole_range_configs = st.builds(
    ModelConfig,
    beta=whole_range(LEAST_BETA, GREATEST_BETA),
    beta_perf=whole_range(TINY, sys.float_info.max),
    draw_margin_eps=whole_range(TINY, MAX_DRAW_MARGIN_EPS),
    dynamics_tau=st.just(0.0) | whole_range(TINY, MAX_DYNAMICS_TAU),
    depth_skill_level=st.just(0.0) | st.builds(
        operator.mul, st.sampled_from([1.0, -1.0]), whole_range(TINY, MAX_DEPTH_SKILL_LEVEL)
    ),
    decision_threshold=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
)
# A session over 12 topics, of events of up to 10 topics at depths down to subnormals.
whole_range_session = st.lists(
    st.builds(
        lambda topics, label: EngagementEvent("x", 0, tuple(topics), label),
        st.lists(
            st.tuples(st.integers(0, 11), st.sampled_from([0.0, 1.0]) | whole_range(TINY, 1.0)),
            min_size=1,
            max_size=10,
            unique_by=lambda topic: topic[0],
        ),
        st.sampled_from([1, -1]),
    ),
    min_size=1,
    max_size=30,
)


def table_of(pairs):
    table = SRTable(metric="w2v")
    for (a, b), rho in pairs.items():
        table.set(a, b, rho)
    return table


whole_range_tables = st.dictionaries(
    st.tuples(st.integers(0, 11), st.integers(0, 11)).filter(lambda ab: ab[0] != ab[1]),
    whole_range(TINY, 1.0),
    max_size=30,
).map(table_of)
propagation_configs = st.builds(
    PropagationConfig,
    omega_size=st.sampled_from(OMEGA_SIZES),
    mixing_mode=st.sampled_from(["semantic_relatedness", "inverse_standard_error"]),
    variance_source=st.sampled_from(["source_skill", "initial_prior"]),
)


def assert_replays(events, cfg, propagator=None):
    """Each step's p_engage in [0, 1], and every belief after it proper with a finite mean."""
    model = {}
    for ev in events:
        if propagator is not None:
            propagator(model, ev)
        p_engage, _ = update(model, ev, cfg)
        assert 0.0 <= p_engage <= 1.0
    for skill in model.values():
        assert math.isfinite(skill.mean) and 0.0 < skill.variance < math.inf


class TestModelConfig:
    def test_defaults_valid(self):
        cfg = ModelConfig()
        assert cfg.beta == 0.5
        assert cfg.decision_threshold == 0.5

    def test_prior_is_the_n0_beta_belief_and_no_field(self):
        cfg = ModelConfig()
        assert cfg.prior == Gaussian1D(0.0, 0.5)
        assert replace(cfg, beta=0.38).prior == Gaussian1D(0.0, 0.38)
        assert list(asdict(cfg)) == [
            "beta", "beta_perf", "draw_margin_eps", "dynamics_tau", "depth_skill_level",
            "decision_threshold",
        ]
        assert cfg == ModelConfig() and hash(cfg) == hash(ModelConfig())

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
            {"beta": "a"},
            {"beta": "0.5"},
            {"beta": True},
            {"decision_threshold": False},
            {"dynamics_tau": None},
            {"beta_perf": [0.5]},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            ModelConfig(**kwargs)

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown"):
            ModelConfig.from_dict({"betta": 1.0})

    @pytest.mark.parametrize("field,edge,past", BOUND_EDGES)
    def test_bound_edge_accepted_and_the_next_float_refused(self, field, edge, past):
        assert getattr(ModelConfig(**{field: edge}), field) == edge
        with pytest.raises(ValueError, match=field):
            ModelConfig(**{field: past})

    @pytest.mark.parametrize("field,edge", [(field, edge) for field, edge, _ in BOUND_EDGES])
    def test_both_probes_replay_at_the_bound(self, field, edge):
        # Probe A: up to 3 topics at depths from 0.05; probe B: the schema's worst
        # event, 10 topics at depth 1, in every event.
        cfg = ModelConfig(**{field: edge})
        probe_a = random_sessions(n_learners=300, seed=5, min_events=30, max_events=30)
        probe_b = full_depth_sessions(n_learners=200, seed=5, n_events=30)
        for dataset in (probe_a, probe_b):
            for events in dataset.learners.values():
                assert_replays(events, cfg)


class TestPredict:
    def test_fresh_learners_identical(self):
        cfg = ModelConfig()
        ev = event([(1, 0.5), (2, 0.8)])
        p1, _ = predict({}, ev, cfg)
        p2, _ = predict({}, ev, cfg)
        assert p1 == p2

    def test_huge_margin_means_certain_engagement(self):
        cfg = ModelConfig(draw_margin_eps=1e6)
        p, prediction = predict({}, event([(1, 1.0)]), cfg)
        assert p == pytest.approx(1.0)
        assert prediction == 1

    def test_single_topic_matches_quadrature(self):
        # frozen: integral of N(0, 1*0.5 + 2*0.5*1) over [-0.5, 0.5]
        cfg = ModelConfig(beta=0.5, beta_perf=0.5, draw_margin_eps=0.5)
        p, _ = predict({}, event([(1, 1.0)]), cfg)
        assert p == pytest.approx(0.316908601690, abs=1e-9)

    def test_random_states_match_quadrature(self):
        rng = random.Random(99)
        for _ in range(25):
            cfg = ModelConfig(
                beta=rng.uniform(0.1, 2.0),
                beta_perf=rng.uniform(0.1, 2.0),
                draw_margin_eps=rng.uniform(0.1, 2.0),
            )
            model = {}
            topics = []
            mean_d = 0.0
            var_d = 0.0
            sum_d_sq = 0.0
            for t in range(rng.randint(1, 4)):
                depth = rng.uniform(0.1, 1.0)
                mu = rng.uniform(-2, 2)
                var = rng.uniform(0.05, 2.0)
                model[t] = Gaussian1D(mu, var)
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
        _, prediction = predict({}, event([(1, 1.0)]), cfg)
        assert prediction == 1  # p ~= 0.317 >= 0.3
        cfg2 = replace(cfg, decision_threshold=0.4)
        _, prediction = predict({}, event([(1, 1.0)]), cfg2)
        assert prediction == -1

    def test_all_zero_depths_is_a_certain_draw(self):
        cfg = ModelConfig()
        p, prediction = predict({}, event([(1, 0.0), (2, 0.0)]), cfg)
        assert p == 1.0
        assert prediction == 1


class TestUpdate:
    def test_untouched_topic_bitwise_unchanged(self):
        cfg = ModelConfig()
        frozen = Gaussian1D(0.7, 0.2)
        model = {42: frozen}
        update(model, event([(1, 0.5)]), cfg)
        assert model[42] is frozen

    def test_deepcopy_after_update_is_independent(self):
        cfg = ModelConfig()
        model = {}
        update(model, event([(1, 0.5), (2, 0.3)]), cfg)
        snapshot = copy.deepcopy(model)
        assert snapshot == model
        assert snapshot[1] is not model[1]
        update(model, event([(1, 0.5)], label=-1, order=1), cfg)
        assert snapshot != model

    def test_repeated_engagement_shrinks_variance_monotonically(self):
        cfg = ModelConfig(dynamics_tau=0.0)
        model = {}
        variances = []
        for order in range(20):
            update(model, event([(5, 0.8)], label=1, order=order), cfg)
            variances.append(model[5].variance)
        assert all(b < a for a, b in zip(variances, variances[1:]))

    def test_posterior_variance_below_inflated_prior(self):
        cfg = ModelConfig(dynamics_tau=0.3)
        model = {1: Gaussian1D(0.5, 0.4)}
        update(model, event([(1, 1.0)], label=-1), cfg)
        assert model[1].variance < 0.4 + 0.09

    def test_topics_seen(self):
        cfg = ModelConfig()
        model = {}
        update(model, event([(1, 0.5), (2, 0.5)]), cfg)
        assert model.keys() == {1, 2}

    def test_all_zero_depths_update_carries_no_information(self):
        cfg = ModelConfig()
        before = Gaussian1D(0.4, 0.2)
        model = {1: before}
        update(model, event([(1, 0.0), (2, 0.0)], label=-1), cfg)
        assert model[1] is before
        assert model[2].variance == cfg.beta
        assert model.keys() == {1, 2}

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
            model = {3: Gaussian1D(prior_mean, prior_var)}
            update(model, event([(3, depth)], label=label), cfg)
            mean_ref, var_ref = single_topic_posterior_grid(
                prior_mean, prior_var, depth, cfg.draw_margin_eps, label, cfg.beta_perf
            )
            assert model[3].mean == pytest.approx(mean_ref, abs=1e-4)
            assert model[3].variance == pytest.approx(var_ref, abs=1e-4)

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
        model = {1: Gaussian1D(prior_mean, prior_var)}
        before = depth * prior_mean
        update(model, event([(1, depth)], label=label), cfg)
        after = depth * model[1].mean
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
        model = {}
        for topic, (mean, var) in enumerate(skills):
            model[topic] = Gaussian1D(mean, var)
        ev = event(topics, label=label)
        before = dict(model)
        p_expected, pred_expected = predict(before, ev, cfg)
        # predict is pure: the same keys, each holding the same belief object.
        assert before.keys() == model.keys()
        assert all(before[t] is g for t, g in model.items())
        p_engage, prediction = update(model, ev, cfg)
        assert (p_engage.hex(), prediction) == (p_expected.hex(), pred_expected)

    def test_step_does_not_depend_on_sum(self, monkeypatch):
        # sum() compensates float rounding since CPython 3.12. Skill means
        # 1e16, 1 and -1e16 sum to 0 left to right and to 1 exactly, so a
        # step that summed with sum() would change its bits between versions.
        assert sum([1e16, 1.0, -1e16]) != math.fsum([1e16, 1.0, -1e16])
        ev = event([(0, 1.0), (1, 1.0), (2, 1.0)])

        def step():
            skills = {0: Gaussian1D(1e16, 1.0), 1: Gaussian1D(1.0, 1.0), 2: Gaussian1D(-1e16, 1.0)}
            p_engage, _ = update(skills, ev, ModelConfig())
            return p_engage.hex(), [(g.mean.hex(), g.variance.hex()) for g in skills.values()]

        expected = step()
        monkeypatch.setattr(semlearn.novel, "sum", math.fsum, raising=False)
        assert step() == expected

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
                model = {}
                for ev in events:
                    if propagator is not None:
                        propagator(model, ev)
                    beliefs.update(repr(update(model, ev, cfg)).encode())
                for topic in sorted(model):
                    skill = model[topic]
                    beliefs.update(repr((topic, skill.precision, skill.precision_mean)).encode())
        assert traces.hexdigest() == "48ba32f2bfd02d99ddf31110cb22a8cd9cf06d0e6112bf63a716abe6058ded9d"
        assert beliefs.hexdigest() == "fd54b483b711b101f6f7183f48dc54603e3b61bfc057a0f1f06f6a68a4421fb7"

    @settings(max_examples=40, deadline=None)
    @given(
        cfg=st.builds(
            ModelConfig,
            beta=log_uniform(-12, 12),
            beta_perf=log_uniform(-12, 12),
            draw_margin_eps=log_uniform(-6, 6),
            dynamics_tau=st.just(0.0) | log_uniform(-6, 1),
            depth_skill_level=st.floats(-10.0, 10.0),
            decision_threshold=st.floats(0.01, 0.99, exclude_min=True, exclude_max=True),
        ),
        seed=st.integers(0, 2**16),
    )
    # A posterior variance that underflows to 0 ...
    @example(cfg=ModelConfig(beta=1e12, beta_perf=1e-12, draw_margin_eps=1e6), seed=9)
    @example(cfg=ModelConfig(beta_perf=5e-324), seed=9)
    # ... and a draw margin eps / sqrt(var_d) that underflows to 0.
    @example(cfg=ModelConfig(beta=1e300, beta_perf=1e300, draw_margin_eps=1e-300), seed=9)
    @example(cfg=ModelConfig(beta_perf=1e308), seed=9)
    def test_step_keeps_beliefs_proper_for_any_valid_config(self, cfg, seed):
        for events in random_sessions(n_learners=10, seed=seed, max_events=30).learners.values():
            model = {}
            for ev in events:
                p_engage, _ = update(model, ev, cfg)
                assert 0.0 <= p_engage <= 1.0
            for skill in model.values():
                assert skill.is_proper and math.isfinite(skill.mean)


    def test_cancelling_posterior_variance_matches_exact_arithmetic(self, monkeypatch):
        # With a prior as wide as 1e22, one topic's d*d*var can hold all of var_d, so
        # 1 - w*d*d*var/var_d rounds to 0 or below: the step's floored branch.
        cfg = ModelConfig(beta=1e22)
        corrections = []
        for name in ("truncated_moments_within", "truncated_moments_above"):

            def recorded(*args, _real=getattr(semlearn.novel, name)):
                v, w = _real(*args)
                corrections.append(w)
                return v, w

            monkeypatch.setattr(semlearn.novel, name, recorded)
        dataset = random_sessions(n_learners=300, seed=5, min_events=30, max_events=30)
        floored = 0
        for lid in sorted(dataset.learners)[:40]:
            model = {}
            for ev in dataset.learners[lid]:
                depths = [d for _, d in ev.topics]
                skills = [model.get(t, cfg.prior) for t, _ in ev.topics]
                means, variances = [s.mean for s in skills], [s.variance for s in skills]
                _, var_d = semlearn.novel._difference_moments(depths, means, variances, cfg)
                corrections.clear()
                update(model, ev, cfg)
                w = corrections[0] if corrections else 1.0  # no call: the saturated margin
                for i, ((topic, _), d, var) in enumerate(zip(ev.topics, depths, variances)):
                    if var * (1.0 - w * d * d * var / var_d) > 0.0:
                        continue
                    floored += 1
                    exact = team_posterior_variance_exact(depths, variances, i, w, cfg.beta_perf)
                    stored = Fraction(model[topic].variance)
                    assert abs(stored - exact) <= exact * Fraction(1, 10**15), (lid, ev, topic)
        # 104 along the old step's path, whose floored beliefs steered later events.
        assert floored == 103

    @settings(max_examples=150, deadline=None)
    @given(
        whole_range_configs, st.lists(whole_range_session, min_size=1, max_size=3),
        whole_range_tables, propagation_configs,
    )
    def test_every_config_inside_the_bounds_replays(self, cfg, sessions, table, prop_cfg):
        semantic = SemanticPropagator(table, prop_cfg, cfg)
        for events in sessions:
            assert_replays(events, cfg)
            assert_replays(events, cfg, semantic)

    @settings(max_examples=4, deadline=None)
    @given(
        whole_range_configs, st.lists(whole_range_session, min_size=2, max_size=3),
        whole_range_tables, propagation_configs,
    )
    def test_every_config_inside_the_bounds_replays_alike_at_two_workers(
        self, cfg, sessions, table, prop_cfg
    ):
        dataset = Dataset(learners={f"u{i}": events for i, events in enumerate(sessions)})
        variants = [(cfg, None), (cfg, SemanticPropagator(table, prop_cfg, cfg))]
        serial = replay_cohort(dataset, list(dataset.learners), variants, workers=1)
        assert replay_cohort(dataset, list(dataset.learners), variants, workers=2) == serial

    def test_an_event_whose_posterior_the_floats_cannot_hold_changes_no_belief(self):
        # Near-noiseless, a not-engaged outcome at depth 1e-150 puts the skill
        # beyond eps / depth, about 1e149, with a variance near 1e-299: mean /
        # variance overflows, so the event carries no information.
        cfg = ModelConfig(beta_perf=1e-300)
        model = {}
        seen = model[2] = Gaussian1D(0.4, 0.2)
        update(model, event([(1, 1e-150), (2, 0.0)], label=-1), cfg)
        assert model == {1: Gaussian1D(0.0, cfg.beta), 2: seen}
        assert model[1] is cfg.prior

    @pytest.mark.parametrize("cfg", [ModelConfig(beta=1e25), ModelConfig(dynamics_tau=1e12)])
    def test_a_huge_prior_or_drift_replays_every_session(self, cfg):
        # Both once floored cancelled variances to 1e-300, and a later mean / variance
        # overflowed in 126 and 54 of these sessions.
        dataset = random_sessions(n_learners=300, seed=5, min_events=30, max_events=30)
        for events in dataset.learners.values():
            model = {}
            for ev in events:
                update(model, ev, cfg)
            for skill in model.values():
                assert skill.is_proper and math.isfinite(skill.mean)


class TestReplaySession:
    def test_empty_session(self):
        assert replay_session([], ModelConfig()) == []

    def test_single_event_uses_pure_priors(self):
        cfg = ModelConfig()
        ev = event([(1, 0.5)], label=-1)
        p_prior, prediction = predict({}, ev, cfg)
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
            model = {}
            for ev in events:
                update(model, ev, cfg)
            distinct = {t for ev in events for t, _ in ev.topics}
            assert set(model) <= distinct
