import hashlib
import json
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import semlearn.evaluation
from semlearn.data import Dataset, DataError, EngagementEvent, save_events
from semlearn.evaluation import (
    SESSION_FEATURES,
    LearnerScore,
    aggregate,
    paired_t_test_one_tailed,
    recall_by_event_index,
    session_feature_table,
    session_feature_srocc,
    score_learner,
    srocc,
    srocc_exact_permutation,
)
from semlearn.evaluation import _pairwise_sum, _t_two_sided_p
from semlearn.relatedness import SRTable
from semlearn.runs import RunSpec, analyze_run

from oracles import (
    paired_t_oracle,
    recall_series_brute,
    spearman_exact_permutation_p,
    spearman_rho_brute,
    t_upper_tail_quad,
)


class TestScoreLearner:
    def test_all_correct_positive(self):
        s = score_learner("a", [(1, 1)] * 5)
        assert (s.precision, s.recall, s.f1) == (1.0, 1.0, 1.0)

    def test_always_predict_positive_half_right(self):
        trace = [(1, 1), (1, -1)] * 5
        s = score_learner("a", trace)
        assert s.precision == pytest.approx(0.5)
        assert s.recall == 1.0
        assert s.f1 == pytest.approx(2.0 / 3.0)

    def test_zero_denominator_conventions(self):
        no_positive_predictions = score_learner("a", [(-1, 1), (-1, -1)])
        assert no_positive_predictions.precision == 0.0
        no_positive_labels = score_learner("a", [(1, -1), (-1, -1)])
        assert no_positive_labels.recall == 0.0
        assert no_positive_labels.f1 == 0.0

    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError):
            score_learner("a", [])

    def test_random_trace_matches_confusion_recount(self):
        rng = random.Random(17)
        trace = [(rng.choice([1, -1]), rng.choice([1, -1])) for _ in range(50)]
        s = score_learner("a", trace)
        tp = sum(1 for p, l in trace if p == 1 and l == 1)
        fp = sum(1 for p, l in trace if p == 1 and l == -1)
        fn = sum(1 for p, l in trace if p == -1 and l == 1)
        assert s.precision == (tp / (tp + fp) if tp + fp else 0.0)
        assert s.recall == (tp / (tp + fn) if tp + fn else 0.0)


class TestAggregate:
    def score(self, lid, n, p=0.0, r=0.0, f1=0.0):
        return LearnerScore(lid, n, p, r, f1)

    def test_no_scores_rejected(self):
        with pytest.raises(ValueError, match="at least one learner score"):
            aggregate([])

    def test_single_learner_identity(self):
        got = aggregate([self.score("a", 7, 0.3, 0.6, 0.4)])
        assert got == (pytest.approx(0.3), pytest.approx(0.6), pytest.approx(0.4))

    def test_weighted_two_learners(self):
        got = aggregate([self.score("a", 10, f1=0.8), self.score("b", 30, f1=0.4)])
        assert got[2] == pytest.approx(0.5)

    def test_permutation_invariance_and_recount(self):
        rng = random.Random(23)
        scores = [
            self.score(f"u{i}", rng.randint(1, 40), rng.random(), rng.random(), rng.random())
            for i in range(100)
        ]
        total = sum(s.n_events for s in scores)
        expected_f1 = sum(s.f1 * s.n_events for s in scores) / total
        got = aggregate(scores)
        assert got[2] == pytest.approx(expected_f1)
        shuffled = scores[:]
        rng.shuffle(shuffled)
        assert aggregate(shuffled) == got


    def test_does_not_depend_on_sum(self, monkeypatch):
        # sum() compensates float rounding since CPython 3.12; ten recalls
        # of 0.1 are where it and a left-to-right sum differ.
        assert sum([0.1] * 10) != math.fsum([0.1] * 10)
        scores = [self.score(f"u{i}", 1, 0.1, 0.1, 0.1) for i in range(10)]
        expected = [x.hex() for x in aggregate(scores)]
        monkeypatch.setattr(semlearn.evaluation, "sum", math.fsum, raising=False)
        assert [x.hex() for x in aggregate(scores)] == expected


# Paired-test inputs beside ordinary values: signed zeros, subnormals and
# magnitudes whose squares overflow.
SPECIAL_VALUES = (0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e154, 1e300, -1e300)


class TestPairedTTest:
    def test_identical_vectors_give_half(self):
        t, p = paired_t_test_one_tailed([0.1, 0.2, 0.3], [0.1, 0.2, 0.3])
        assert t == 0.0
        assert p == 0.5

    def test_constant_positive_shift(self):
        t, p = paired_t_test_one_tailed([0.1, 0.2], [1.1, 1.2])
        assert p == 0.0
        t, p = paired_t_test_one_tailed([1.1, 1.2], [0.1, 0.2])
        assert p == 1.0

    def test_frozen_hand_computation(self):
        # diffs [0.1, 0.2, 0.05, 0.15]: t and p pinned by the quadrature t-CDF oracle
        a = [0.0, 0.0, 0.0, 0.0]
        b = [0.1, 0.2, 0.05, 0.15]
        t, p = paired_t_test_one_tailed(a, b)
        assert t == pytest.approx(3.872983346207, abs=1e-9)
        assert p == pytest.approx(0.015233145831, abs=1e-9)

    def test_random_vectors_match_oracle(self):
        rng = random.Random(37)
        for _ in range(20):
            n = rng.randint(2, 20)
            a = [rng.random() for _ in range(n)]
            b = [rng.random() for _ in range(n)]
            t, p = paired_t_test_one_tailed(a, b)
            t_ref, p_ref = paired_t_oracle(a, b)
            assert t == pytest.approx(t_ref, abs=1e-9)
            assert p == pytest.approx(p_ref, abs=1e-6)

    @pytest.mark.parametrize(
        "n,t_hex,p_hex",
        [
            # One length per branch of the pairwise sum: left to right, eight
            # running sums, and a split.
            (5, "-0x1.5fcc766f2e7a3p-1", "0x1.7860542e271cep-1"),
            (120, "0x1.b4f57a6770727p+0", "0x1.72801844928d0p-5"),
            (300, "0x1.059f6c728a51bp+2", "0x1.d5c8224268502p-16"),
        ],
    )
    def test_bits_are_pinned(self, n, t_hex, p_hex):
        rng = random.Random(n)
        a = [rng.random() for _ in range(n)]
        b = [rng.random() + 0.05 for _ in range(n)]
        t, p = paired_t_test_one_tailed(a, b)
        assert (t.hex(), p.hex()) == (t_hex, p_hex)

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(2, 300), seed=st.integers(0, 2**32 - 1), special=st.floats(0.0, 1.0))
    def test_mean_and_deviation_are_numpys_bit_for_bit(self, n, seed, special):
        np = pytest.importorskip("numpy")
        rng = random.Random(seed)

        def value():
            if rng.random() < special:
                return rng.choice(SPECIAL_VALUES)
            return rng.uniform(-1.0, 1.0) * 10.0 ** rng.randint(-300, 300)

        a = [value() for _ in range(n)]
        b = [value() for _ in range(n)]
        diffs = [y - x for x, y in zip(a, b)]
        mean = _pairwise_sum(diffs) / n
        sd = math.sqrt(_pairwise_sum([(d - mean) * (d - mean) for d in diffs]) / (n - 1))
        with np.errstate(all="ignore"):
            array = np.asarray(b) - np.asarray(a)
            np_mean, np_sd = float(array.mean()), float(array.std(ddof=1))
        assert (mean.hex(), sd.hex()) == (np_mean.hex(), np_sd.hex())
        if math.isfinite(sd) and sd > 0.0:
            t, _ = paired_t_test_one_tailed(a, b)
            assert t.hex() == (np_mean / (np_sd / math.sqrt(n))).hex()

    def test_sum_of_negative_zeros_is_numpys(self):
        # numpy adds its pairwise sum to the reduction's 0.0, which makes it +0.0.
        np = pytest.importorskip("numpy")
        for n in range(1, 301):
            assert _pairwise_sum([-0.0] * n).hex() == float(np.full(n, -0.0).sum()).hex()

    def test_rejects_mismatched_or_short(self):
        with pytest.raises(ValueError):
            paired_t_test_one_tailed([1.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            paired_t_test_one_tailed([1.0], [2.0])


class TestSrocc:
    def test_perfect_monotone(self):
        rho, p = srocc([1, 2, 3, 4], [10, 20, 30, 40])
        assert rho == 1.0
        assert p == 0.0

    def test_perfect_reverse(self):
        rho, _ = srocc([1, 2, 3, 4], [40, 30, 20, 10])
        assert rho == -1.0

    def test_constant_vector_undefined(self):
        rho, p = srocc([1.0, 1.0, 1.0, 1.0], [1, 2, 3, 4])
        assert math.isnan(rho) and math.isnan(p)

    @pytest.mark.parametrize("x,y,message", [
        ([1, 2, 3], [1, 2], "differ in length"), ([1, 2], [2, 1], "at least 3"),
    ])
    def test_rejects_mismatched_or_short(self, x, y, message):
        with pytest.raises(ValueError, match=message):
            srocc(x, y)

    def test_exact_permutation_of_constant_vector_undefined(self):
        rho, p = srocc_exact_permutation([2.0, 2.0, 2.0], [1, 2, 3])
        assert math.isnan(rho) and math.isnan(p)

    def test_ties_match_rank_then_pearson_oracle(self):
        rng = random.Random(41)
        for _ in range(25):
            n = rng.randint(3, 20)
            x = [rng.choice([0.0, 0.5, 1.0, 2.0]) for _ in range(n)]
            y = [rng.choice([0.0, 1.0, 3.0]) for _ in range(n)]
            rho, p = srocc(x, y)
            if math.isnan(rho):
                assert len(set(x)) == 1 or len(set(y)) == 1
                continue
            assert rho == pytest.approx(spearman_rho_brute(x, y), abs=1e-12)
            if abs(rho) < 1.0:
                t = rho * math.sqrt((n - 2) / (1 - rho * rho))
                assert p == pytest.approx(2.0 * t_upper_tail_quad(abs(t), n - 2), abs=1e-6)

    def test_exact_permutation_matches_independent_enumeration(self):
        rng = random.Random(43)
        for _ in range(6):
            n = rng.randint(3, 6)
            x = [rng.random() for _ in range(n)]
            y = [rng.choice([0.0, 1.0, 2.0]) for _ in range(n)]
            rho, p = srocc_exact_permutation(x, y)
            assert rho == pytest.approx(spearman_rho_brute(x, y), abs=1e-12)
            assert p == spearman_exact_permutation_p(x, y)

    def test_exact_permutation_caps_n(self):
        with pytest.raises(ValueError):
            srocc_exact_permutation(list(range(11)), list(range(11)))

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(min_value=3, max_value=60).flatmap(
            lambda n: st.tuples(
                st.lists(st.integers(0, 4), min_size=n, max_size=n),
                st.lists(st.integers(0, 9), min_size=n, max_size=n),
            )
        )
    )
    def test_matches_scipy_spearmanr_with_ties(self, xy):
        stats = pytest.importorskip("scipy.stats")
        x, y = xy
        rho, p = srocc(x, y)
        if len(set(x)) == 1 or len(set(y)) == 1:
            assert math.isnan(rho) and math.isnan(p)
            return
        ref = stats.spearmanr(x, y)
        assert rho == pytest.approx(ref.statistic, abs=1e-12)
        if abs(rho) < 1.0:
            assert p == pytest.approx(ref.pvalue, abs=1e-12)

    def test_t_series_matches_stdtr(self):
        special = pytest.importorskip("scipy.special")
        rng = random.Random(47)
        for df in range(1, 1001):
            for t in (0.0, 0.01, 0.5, 1.0, 2.0, 10.0, 50.0, rng.uniform(-50.0, 50.0)):
                expected = 2.0 * float(special.stdtr(df, -abs(t)))
                assert _t_two_sided_p(t, df) == pytest.approx(expected, abs=1e-13)


class TestRecallByEventIndex:
    def test_single_learner_all_correct(self):
        traces = {"a": [(1, 1)] * 5}
        assert recall_by_event_index(traces) == [(n, 1.0) for n in range(1, 6)]

    def test_truncates_past_longest_session(self):
        traces = {"a": [(1, 1)] * 3}
        assert len(recall_by_event_index(traces)) == 3

    def test_two_learners_manual(self):
        traces = {
            "a": [(1, 1), (-1, 1)],  # recall: 1, then 1/2
            "b": [(-1, 1), (1, 1), (1, -1)],  # recall: 0, 1/2, 1/2
        }
        series = recall_by_event_index(traces)
        assert series[0] == (1, pytest.approx(0.5))
        assert series[1] == (2, pytest.approx(0.5))
        assert series[2] == (3, pytest.approx(0.5))


    def test_does_not_depend_on_sum(self, monkeypatch):
        # Ten learners whose recall over their first 10 events is 0.1.
        traces = {f"u{i}": [(1, 1)] + [(-1, 1)] * 9 for i in range(10)}
        expected = [(n, x.hex()) for n, x in recall_by_event_index(traces)]
        monkeypatch.setattr(semlearn.evaluation, "sum", math.fsum, raising=False)
        assert [(n, x.hex()) for n, x in recall_by_event_index(traces)] == expected

    @settings(max_examples=200, deadline=None)
    @given(traces=st.dictionaries(
        st.text("abcdef", min_size=1, max_size=3),
        st.lists(st.tuples(st.sampled_from([1, -1]), st.sampled_from([1, -1])), max_size=40),
        max_size=8,
    ))
    def test_matches_the_prefix_recount_bit_for_bit(self, traces):
        assert [(n, x.hex()) for n, x in recall_by_event_index(traces)] == [
            (n, x.hex()) for n, x in recall_series_brute(traces)
        ]


class TestSessionFeatures:
    def dataset_and_traces(self):
        events = []
        # 10 events, 4 unique topics, 7 positive labels
        labels = [1, 1, 1, 1, 1, 1, 1, -1, -1, -1]
        topics = [1, 2, 3, 4, 1, 2, 3, 4, 1, 2]
        for i, (t, l) in enumerate(zip(topics, labels)):
            events.append(EngagementEvent("a", i, ((t, 0.5),), l))
        ds = Dataset(learners={"a": events})
        traces = {"a": [(1, l) for l in labels]}
        return ds, traces

    def test_basic_feature_row(self):
        ds, traces = self.dataset_and_traces()
        features = session_feature_table(ds, traces, SRTable("w2v"))
        assert set(features) == set(SESSION_FEATURES)
        assert features["n_events"] == [10.0]
        assert features["n_unique_topics"] == [4.0]
        assert features["positive_label_rate"] == [pytest.approx(0.7)]
        assert features["topic_sparsity_rate"] == [pytest.approx(1.0 - 4.0 / 10.0)]
        assert score_learner("a", traces["a"]).recall == 1.0

    def test_triangle_session_graph_features(self):
        table = SRTable(metric="w2v")
        for a, b in [(1, 2), (2, 3), (1, 3)]:
            table.set(a, b, 0.8)
        events = [EngagementEvent("a", i, ((t, 0.5),), 1) for i, t in enumerate([1, 2, 3])]
        ds = Dataset(learners={"a": events})
        features = session_feature_table(ds, ["a"], table)
        assert features["avg_connectedness"] == [2.0]
        assert features["min_cut_set_size"] == [2.0]

    def test_srocc_entries_match_recount(self):
        rng = random.Random(53)
        learners = {}
        traces = {}
        for i in range(30):
            lid = f"u{i:03d}"
            n = rng.randint(3, 12)
            events = [
                EngagementEvent(lid, j, ((rng.randrange(15), 0.5),), rng.choice([1, -1]))
                for j in range(n)
            ]
            learners[lid] = events
            traces[lid] = [(rng.choice([1, -1]), ev.label) for ev in events]
        ds = Dataset(learners=learners)
        order = sorted(learners, reverse=True)  # the table sorts its learners itself
        features = session_feature_table(ds, order, SRTable("w2v"))
        recalls = [score_learner(lid, traces[lid]).recall for lid in sorted(learners)]
        stats = session_feature_srocc(features, recalls)
        n_events = [float(len(learners[lid])) for lid in sorted(learners)]
        rho_ref = spearman_rho_brute(n_events, recalls)
        assert stats["n_events"][0] == pytest.approx(rho_ref, abs=1e-12)

    def test_trace_alignment_enforced(self, tmp_path):
        ds, traces = self.dataset_and_traces()
        # analyze refuses fewer than 3 learners before it reads the events, so
        # learners b and c, copies of a, carry the reports past that check.
        for lid in ("b", "c"):
            ds.learners[lid] = [EngagementEvent(lid, ev.order_index, ev.topics, ev.label)
                                for ev in ds.learners["a"]]
            traces[lid] = traces["a"]
        events = tmp_path / "events.csv"
        save_events(ds, events)
        sr = tmp_path / "sr.csv"
        sr.write_text("topic_a,topic_b,metric,value\n1,2,w2v,0.5\n")
        digest = hashlib.sha256(events.read_bytes()).hexdigest()
        spec = RunSpec(events, sr_table_path=sr)

        def report_with(learner_id, trace):
            learners = [{"learner_id": lid, "predictions": [p for p, _ in t],
                         "labels": [l for _, l in t]}
                        for lid, t in [(learner_id, trace), ("b", traces["b"]), ("c", traces["c"])]]
            path = tmp_path / f"report_{learner_id}_{len(trace)}.json"
            path.write_text(json.dumps({"manifest": {"inputs": {"data": digest}},
                                        "models": [{"model_id": "m", "learners": learners}]}))
            return path

        with pytest.raises(DataError, match="trace has 9 entries for 10 events"):
            analyze_run([report_with("a", traces["a"][:-1])], spec, tmp_path / "short")
        with pytest.raises(DataError, match="not in the data"):
            analyze_run([report_with("ghost", traces["a"])], spec, tmp_path / "ghost")
