import hashlib
import itertools
import random
import re
from unittest.mock import patch

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import semlearn.relatedness
from semlearn.data import DataError, EngagementEvent, split_learners
from semlearn.relatedness import (
    LearnerTopicGraph,
    SRTable,
    avg_connectedness,
    build_topic_graph,
    load_sr_table,
    min_cut_set_size,
    related_seen_topics,
)
from semlearn.relatedness import _disjoint_paths, _split_arcs
from semlearn.semantic import OMEGA_SIZES

from oracles import (
    connected_brute,
    local_connectivity_brute,
    related_seen_brute,
    session_edges_brute,
    sr_rows_reference,
    vertex_connectivity_brute,
)
from synthetic import BLANK_LINES, random_sessions, random_sr_table, write_sr_csv


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n")
    return path


# Spellings that int() reads as the same id.
ID_SPELLINGS = ("{}", "0{}", "+{}", " {}", "{} ")
SR_IDS = (0, 7, 300, 4096)


@st.composite
def sr_file_lines(draw):
    """A long- or wide-format SR file's lines: spellings of one id mixed, duplicate
    pairs, self-pairs, zeros, other metrics, out-of-range values, bad rows, and
    empty or whitespace-only lines anywhere, before the header too."""
    long_format = draw(st.booleans())
    spelled_id = st.builds(str.format, st.sampled_from(ID_SPELLINGS), st.sampled_from(SR_IDS))
    value = st.one_of(st.just(0.0), st.floats(0.0, 1.0), st.floats(-2.0, 3.0)).map(repr)
    if long_format:
        header = "topic_a,topic_b,metric,value"
        metric = st.sampled_from(["w2v", " W2V", "mw", "Mw "])
        cells = st.tuples(spelled_id, spelled_id, metric, value)
        bad_rows = ["7,x,w2v,0.5", "7,8,mw,abc", "7,8", "7,8,w2v,0.5,junk"]
    else:
        header = "topic_a,topic_b,mw,w2v"
        cells = st.tuples(spelled_id, spelled_id, value, value)
        bad_rows = ["7,x,0.1,0.5", "7,8,0.1,abc", "7,8", "7,8,0.1", "7,8,0.1,0.5,junk"]
    rows = [",".join(row) for row in draw(st.lists(cells, min_size=1, max_size=40))]
    for bad in draw(st.lists(st.sampled_from(bad_rows), max_size=2)):
        rows.insert(draw(st.integers(0, len(rows))), bad)
    lines = [header, *rows]
    for blank in draw(st.lists(st.sampled_from(BLANK_LINES), max_size=3)):
        lines.insert(draw(st.integers(0, len(lines))), blank)
    return lines


class TestLoadSrTable:
    def test_long_format_symmetric(self, tmp_path):
        path = write_lines(tmp_path / "sr.csv", ["topic_a,topic_b,metric,value", "1,2,w2v,0.8"])
        table = load_sr_table(path, "w2v")
        assert table.neighbours.get(2, {}).get(1, 0.0) == 0.8
        assert table.neighbours.get(1, {}).get(2, 0.0) == 0.8

    def test_unlisted_pair_is_zero(self, tmp_path):
        path = write_lines(tmp_path / "sr.csv", ["topic_a,topic_b,metric,value", "1,2,w2v,0.8"])
        table = load_sr_table(path, "w2v")
        assert table.neighbours.get(1, {}).get(999, 0.0) == 0.0

    def test_topic_is_not_its_own_neighbour(self, tmp_path):
        path = write_lines(tmp_path / "sr.csv", ["topic_a,topic_b,metric,value", "1,2,w2v,0.8"])
        assert 7 not in load_sr_table(path, "w2v").neighbours.get(7, {})

    def test_last_write_wins_on_duplicates(self, tmp_path):
        path = write_lines(
            tmp_path / "sr.csv",
            ["topic_a,topic_b,metric,value", "1,2,w2v,0.8", "2,1,w2v,0.7"],
        )
        table = load_sr_table(path, "w2v")
        assert table.neighbours.get(1, {}).get(2, 0.0) == 0.7

    def test_values_clamped(self, tmp_path):
        path = write_lines(
            tmp_path / "sr.csv",
            ["topic_a,topic_b,metric,value", "1,2,w2v,1.7", "1,3,w2v,-0.2"],
        )
        table = load_sr_table(path, "w2v")
        assert table.neighbours.get(1, {}).get(2, 0.0) == 1.0
        assert table.neighbours.get(1, {}).get(3, 0.0) == 0.0

    def test_unknown_metric_lists_available(self, tmp_path):
        path = write_lines(
            tmp_path / "sr.csv", ["topic_a,topic_b,metric,value", "1,2,w2v,0.8", "1,3,mw,0.5"]
        )
        with pytest.raises(DataError, match="mw"):
            load_sr_table(path, "pmi")

    def test_wide_format(self, tmp_path):
        path = write_lines(
            tmp_path / "sr.csv",
            ["topic_a,topic_b,mw,w2v,pmi,lm,jaccard,cp,ba", "1,2,0.1,0.2,0.3,0.4,0.5,0.6,0.7"],
        )
        assert load_sr_table(path, "pmi").neighbours.get(1, {}).get(2, 0.0) == 0.3
        assert load_sr_table(path, "ba").neighbours.get(2, {}).get(1, 0.0) == 0.7

    @pytest.mark.parametrize(
        "lines",
        [["topic_a,topic_b,metric,value"],
         ["topic_a,topic_b,w2v,mw"],
         # Self-pairs only; the long file holds both metrics so that either is present.
         ["topic_a,topic_b,metric,value", "1,1,w2v,0.8", "2,02,mw,0.5"],
         ["topic_a,topic_b,w2v,mw", "1,1,0.8,0.1", " 3,3,0.2,0.4"]],
    )
    @pytest.mark.parametrize("metric", ["w2v", "mw"])
    def test_header_without_pairs_loads_as_no_pairs(self, tmp_path, caplog, lines, metric):
        # Long or wide, with no rows or only self-pairs: no pair, and one warning naming the metric.
        path = write_lines(tmp_path / "sr.csv", lines)
        table = load_sr_table(path, metric)
        assert (len(table), table.neighbours) == (0, {})
        assert caplog.messages == [f"{path}: no {metric} pair loaded"]

    @pytest.mark.parametrize("metric", ["w2v", "pmi"])
    def test_zero_byte_file_loads_as_no_pairs(self, tmp_path, caplog, metric):
        path = tmp_path / "sr.csv"
        path.write_bytes(b"")
        table = load_sr_table(path, metric)
        assert (len(table), table.metric) == (0, metric)
        assert caplog.messages == [f"{path}: no {metric} pair loaded"]

    @pytest.mark.parametrize(
        "header, row",
        [("topic_a,topic_b,metric,value", "1,2,w2v,0.8"),
         ("topic_a,topic_b,w2v,mw", "1,2,0.8,0.1")],
    )
    def test_empty_lines_before_the_header_are_skipped(self, tmp_path, header, row):
        path = write_lines(tmp_path / "sr.csv", ["", "\r", header, row])
        assert load_sr_table(path, "w2v").neighbours == {1: {2: 0.8}, 2: {1: 0.8}}
        # A file of only empty lines loads like a zero-byte one, under any metric.
        path.write_text("\n\n")
        assert len(load_sr_table(path, "pmi")) == 0

    def test_wide_format_unknown_metric(self, tmp_path):
        path = write_lines(tmp_path / "sr.csv", ["topic_a,topic_b,mw", "1,2,0.1"])
        with pytest.raises(DataError, match="available: mw"):
            load_sr_table(path, "w2v")

    @pytest.mark.parametrize("header", ["topic_a,topic_b,w2v,W2V", "topic_a,topic_b,w2v,mw,w2v"])
    @pytest.mark.parametrize("metric", ["w2v", "mw"])
    def test_wide_header_naming_a_metric_twice_is_refused(self, tmp_path, header, metric):
        # The bad row is never read: the header alone is refused.
        path = write_lines(tmp_path / "sr.csv", [header, "1,2,0.1,0.2,0.3", "not,a,row"])
        with pytest.raises(DataError, match=re.escape(f"{path}: SR header names 'w2v' more than once")):
            load_sr_table(path, metric)

    def test_wide_header_naming_no_metric_is_refused(self, tmp_path):
        path = write_lines(tmp_path / "sr.csv", ["topic_a,topic_b", "1,2"])
        with pytest.raises(DataError, match=re.escape(f"{path}: SR header names no metric")):
            load_sr_table(path, "w2v")

    @pytest.mark.parametrize("header", ["topic_a,topic_b,metric,value", "topic_a,topic_b,w2v"])
    def test_leading_byte_order_mark_is_skipped(self, tmp_path, header):
        # Excel's "CSV UTF-8" export starts the file with one.
        row = "1,2,w2v,0.8" if header.endswith("value") else "1,2,0.8"
        path = tmp_path / "sr.csv"
        path.write_bytes(b"\xef\xbb\xbf" + f"{header}\n{row}\n".encode())
        assert load_sr_table(path, "w2v").neighbours == {1: {2: 0.8}, 2: {1: 0.8}}

    @pytest.mark.parametrize("good_rows", [0, 1000])
    def test_bytes_that_are_not_utf8_are_a_data_error_naming_the_file(self, tmp_path, good_rows):
        rows = [f"1,{b},w2v,0.5" for b in range(2, good_rows + 2)]
        path = write_lines(tmp_path / "sr.csv", ["topic_a,topic_b,metric,value", *rows])
        path.write_bytes(path.read_bytes() + b"1,0,w\xff2v,0.5\n")
        with pytest.raises(DataError, match=re.escape(f"cannot read SR table {path}: 'utf-8'")):
            load_sr_table(path, "w2v")

    def test_directory_is_a_data_error_naming_it(self, tmp_path):
        with pytest.raises(DataError, match=re.escape(f"cannot read SR table {tmp_path}")):
            load_sr_table(tmp_path, "w2v")

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize(
        "lines",
        [
            ["topic_a,topic_b,metric,value", "1,2,w2v,0.5", "1,3,w2v,{}"],
            ["topic_a,topic_b,w2v", "1,2,0.5", "1,3,{}"],
        ],
        ids=["long", "wide"],
    )
    def test_non_finite_value_is_error(self, tmp_path, lines, value):
        path = write_lines(tmp_path / "sr.csv", [line.format(value) for line in lines])
        with pytest.raises(DataError, match=r"sr\.csv:3: relatedness must be finite"):
            load_sr_table(path, "w2v")

    # sha256 of what the pair-keyed table wrote: the neighbour rows write the same bytes.
    WRITTEN = {
        "long": "97b1345b7d1289ee32bf5cd447912a093d7d66b9d23d9d360916de23826a9f74",
        "wide": "05678a983fa37470bcc7b9713a9c8aa60c6796861e2cf7919aa12e9af80e612f",
    }

    @pytest.mark.parametrize("fmt", ["long", "wide"])
    def test_written_table_round_trips(self, tmp_path, fmt):
        table = random_sr_table(seed=3)
        table.set(40, 41, 0.0)
        table.set(3, 3, 0.5)
        path = tmp_path / "sr.csv"
        write_sr_csv(table, path, fmt)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == self.WRITTEN[fmt]
        loaded = load_sr_table(path, "w2v")
        assert loaded.neighbours == table.neighbours
        assert len(loaded) == len(table) == 111

    def test_bad_row_is_error(self, tmp_path):
        path = write_lines(
            tmp_path / "sr.csv", ["topic_a,topic_b,metric,value", "1,two,w2v,0.8"]
        )
        with pytest.raises(DataError, match="sr.csv:2"):
            load_sr_table(path, "w2v")

    @pytest.mark.parametrize(
        "header, row, reason",
        [("topic_a,topic_b,metric,value", "1,2,w2v,0.5,junk", "expected 4 columns, got 5"),
         ("topic_a,topic_b,metric,value", "1,2,w2v", "expected 4 columns, got 3"),
         ("topic_a,topic_b,mw,w2v", "1,2,0.5", "expected 4 columns, got 3"),
         ("topic_a,topic_b,mw,w2v", "1,2,0.5,0.6,junk", "expected 4 columns, got 5")],
    )
    @pytest.mark.parametrize("metric", ["mw", "w2v"])
    def test_row_holds_exactly_its_headers_cells(self, tmp_path, header, row, reason, metric):
        # A cell too many or too few is an error under any metric, whether or not the
        # row holds the metric's value.
        path = write_lines(tmp_path / "sr.csv", [header, row])
        with pytest.raises(DataError, match=re.escape(f"{path}:2: bad SR row: {reason}")):
            load_sr_table(path, metric)

    @settings(max_examples=300, deadline=None)
    @given(lines=sr_file_lines())
    def test_matches_reference_parser(self, tmp_path_factory, lines):
        path = write_lines(tmp_path_factory.mktemp("sr") / "sr.csv", lines)
        try:
            expected, duplicates, clamped, available = sr_rows_reference(path, "w2v")
        except ValueError as bad:
            line_no, exc = bad.args
            with pytest.raises(DataError) as err:
                load_sr_table(path, "w2v")
            assert str(err.value) == f"{path}:{line_no}: bad SR row: {exc}"
            return
        if "w2v" not in available:
            with pytest.raises(DataError, match="metric 'w2v' not present"):
                load_sr_table(path, "w2v")
            return
        with patch.object(semlearn.relatedness.log, "warning") as warning:
            table = load_sr_table(path, "w2v")
        # Row order and key order too, not only dict equality.
        assert [(a, list(row.items())) for a, row in table.neighbours.items()] == [
            (a, list(row.items())) for a, row in expected.items()
        ]
        assert len(table) == sum(map(len, expected.values())) // 2
        warnings = [call.args[0] % call.args[1:] for call in warning.call_args_list]
        assert warnings == [
            *([f"{path}: no w2v pair loaded"] if not expected else []),
            *([f"{path}: {duplicates} duplicate pair(s), last value kept"] if duplicates else []),
            *([f"{path}: {clamped} value(s) outside [0,1] clamped"] if clamped else []),
        ]

    def test_each_id_is_one_object(self, tmp_path):
        # Each id spelling is parsed once, so the table holds one int object
        # per id rather than one per cell.
        lines = ["topic_a,topic_b,metric,value"] + [
            f"{1000 + i},{2000 + j},w2v,0.5" for i in range(5) for j in range(5)
        ]
        table = load_sr_table(write_lines(tmp_path / "sr.csv", lines), "w2v")
        ids = [*table.neighbours, *(b for row in table.neighbours.values() for b in row)]
        assert len({id(topic) for topic in ids}) == len(set(ids)) == 10

    @settings(max_examples=50)
    @given(
        rows=st.lists(
            st.tuples(
                st.integers(0, 30), st.integers(0, 30), st.floats(0.01, 1.0, allow_nan=False)
            ),
            min_size=1,
            max_size=40,
        )
    )
    def test_symmetry_holds_for_every_loaded_pair(self, tmp_path_factory, rows):
        path = tmp_path_factory.mktemp("sr") / "sr.csv"
        lines = ["topic_a,topic_b,metric,value"] + [
            f"{a},{b},w2v,{value}" for a, b, value in rows
        ]
        table = load_sr_table(write_lines(path, lines), "w2v")
        neighbours = table.neighbours
        for a, b, _ in rows:
            assert neighbours.get(a, {}).get(b, 0.0) == neighbours.get(b, {}).get(a, 0.0)


class TestRelatedSeenTopics:
    def table(self):
        t = SRTable(metric="w2v")
        t.set(100, 1, 0.9)
        t.set(100, 2, 0.2)
        return t

    def test_top_one(self):
        assert related_seen_topics(self.table(), 100, {1, 2, 3}, k=1) == [(1, 0.9)]

    def test_all(self):
        assert related_seen_topics(self.table(), 100, {1, 2, 3}, k=None) == [(1, 0.9), (2, 0.2)]

    def test_tie_breaks_to_lower_topic_id(self):
        t = SRTable(metric="w2v")
        t.set(100, 7, 0.5)
        t.set(100, 4, 0.5)
        assert related_seen_topics(t, 100, {4, 7}, k=1) == [(4, 0.5)]

    def test_zero_related_excluded(self):
        assert related_seen_topics(SRTable("w2v"), 100, {1, 2, 3}, k=None) == []

    @settings(max_examples=50)
    @given(st.integers(1, 9))
    def test_finite_k_is_prefix_of_all(self, k):
        rng = random.Random(k)
        t = SRTable(metric="w2v")
        seen = set(range(20))
        for topic in seen:
            if rng.random() < 0.7:
                t.set(99, topic, round(rng.uniform(0.1, 1.0), 2))
        full = related_seen_topics(t, 99, seen, k=None)
        assert related_seen_topics(t, 99, seen, k=k) == full[:k]


def graph_from_edges(edges, extra_nodes=()):
    nodes = {v for e in edges for v in e} | set(extra_nodes)
    return LearnerTopicGraph(nodes=frozenset(nodes), edges=frozenset(edges))


class TestGraphAnalytics:
    def test_triangle_avg_degree(self):
        g = graph_from_edges([(1, 2), (2, 3), (1, 3)])
        assert avg_connectedness(g) == 2.0

    def test_path_avg_degree(self):
        g = graph_from_edges([(1, 2), (2, 3)])
        assert avg_connectedness(g) == pytest.approx(4.0 / 3.0)

    def test_empty_graph(self):
        assert avg_connectedness(LearnerTopicGraph(frozenset(), frozenset())) == 0.0

    def test_random_graph_matches_degree_recount(self):
        rng = random.Random(5)
        nodes = list(range(10))
        edges = [(a, b) for a, b in itertools.combinations(nodes, 2) if rng.random() < 0.3]
        g = graph_from_edges(edges, extra_nodes=nodes)
        degree = {v: 0 for v in nodes}
        for a, b in edges:
            degree[a] += 1
            degree[b] += 1
        assert avg_connectedness(g) == pytest.approx(sum(degree.values()) / 10)

    def test_complete_graph_connectivity(self):
        g = graph_from_edges(list(itertools.combinations(range(4), 2)))
        assert min_cut_set_size(g) == 3

    def test_path_has_cut_vertex(self):
        assert min_cut_set_size(graph_from_edges([(1, 2), (2, 3)])) == 1

    def test_disconnected_is_zero(self):
        assert min_cut_set_size(graph_from_edges([(1, 2)], extra_nodes=[9])) == 0

    def test_single_node_is_zero(self):
        assert min_cut_set_size(LearnerTopicGraph(frozenset([1]), frozenset())) == 0

    def test_matches_brute_force_on_random_graphs(self):
        rng = random.Random(11)
        checked = 0
        while checked < 60:
            n = rng.randint(2, 8)
            nodes = list(range(n))
            edges = [
                (a, b) for a, b in itertools.combinations(nodes, 2) if rng.random() < 0.45
            ]
            g = graph_from_edges(edges, extra_nodes=nodes)
            got = min_cut_set_size(g)
            from oracles import connected_brute

            if not connected_brute(nodes, edges):
                assert got == 0
            else:
                assert got == vertex_connectivity_brute(nodes, edges)
            checked += 1

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000))
    def test_adding_edges_never_decreases_connectivity(self, seed):
        rng = random.Random(seed)
        n = rng.randint(3, 7)
        nodes = list(range(n))
        all_pairs = list(itertools.combinations(nodes, 2))
        rng.shuffle(all_pairs)
        base = all_pairs[: rng.randint(1, len(all_pairs))]
        extra = base + all_pairs[len(base) : len(base) + rng.randint(0, len(all_pairs) - len(base))]
        k_base = min_cut_set_size(graph_from_edges(base, extra_nodes=nodes))
        k_more = min_cut_set_size(graph_from_edges(extra, extra_nodes=nodes))
        assert k_more >= k_base


def cycle(n):
    return [(i, (i + 1) % n) for i in range(n)]


def star(leaves):
    return [(0, i) for i in range(1, leaves + 1)]


def complete_on(nodes):
    return list(itertools.combinations(nodes, 2))


def cliques_sharing(shared, only_a, only_b):
    """Cliques S+A and S+B over disjoint A, B that meet in the ``shared`` vertices S."""
    s = list(range(shared))
    a = list(range(shared, shared + only_a))
    b = list(range(shared + only_a, shared + only_a + only_b))
    return complete_on(s + a) + complete_on(s + b)


def min_degree(edges):
    degree = {}
    for a, b in edges:
        degree[a] = degree.get(a, 0) + 1
        degree[b] = degree.get(b, 0) + 1
    return min(degree.values())


def relabelled(edges, seed):
    """The same graph on scattered, shuffled topic ids."""
    nodes = sorted({v for e in edges for v in e})
    ids = random.Random(seed).sample(range(10_000), len(nodes))
    label = dict(zip(nodes, ids))
    return [(min(label[a], label[b]), max(label[a], label[b])) for a, b in edges]


@pytest.fixture
def flow_calls(monkeypatch):
    """The arguments of every ``_disjoint_paths`` call made during the test."""
    calls, real = [], semlearn.relatedness._disjoint_paths
    monkeypatch.setattr(
        semlearn.relatedness, "_disjoint_paths", lambda *args: calls.append(args) or real(*args)
    )
    return calls


@pytest.fixture
def split_calls(monkeypatch):
    """The adjacency lists of every ``_split_arcs`` call made during the test."""
    calls, real = [], semlearn.relatedness._split_arcs
    monkeypatch.setattr(
        semlearn.relatedness, "_split_arcs", lambda adjacent: calls.append(adjacent) or real(adjacent)
    )
    return calls


class TestVertexConnectivity:
    """min_cut_set_size against brute force, planted families and networkx."""

    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(2, 10), data=st.data())
    def test_matches_brute_force_up_to_ten_nodes(self, n, data):
        nodes = list(range(n))
        pairs = complete_on(nodes)
        keep = data.draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
        edges = [pair for pair, kept in zip(pairs, keep) if kept]
        want = vertex_connectivity_brute(nodes, edges) if connected_brute(nodes, edges) else 0
        assert min_cut_set_size(graph_from_edges(edges, extra_nodes=nodes)) == want

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(2, 9), data=st.data())
    def test_local_flow_matches_brute_force(self, n, data):
        # Every local connectivity, not only the minimum that κ keeps: a
        # search that misreads the residual graph can miss the minimum pair.
        pairs = complete_on(range(n))
        keep = data.draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
        edges = [pair for pair, kept in zip(pairs, keep) if kept]
        adjacent = [set() for _ in range(n)]
        for a, b in edges:
            adjacent[a].add(b)
            adjacent[b].add(a)
        arcs = _split_arcs(adjacent)
        cutoff = data.draw(st.integers(0, n))
        for s, t in itertools.permutations(range(n), 2):
            if t not in adjacent[s]:
                want = min(local_connectivity_brute(range(n), edges, s, t), cutoff)
                assert _disjoint_paths(*arcs, 2 * s + 1, 2 * t, cutoff) == want

    @pytest.mark.parametrize("n", [3, 4, 5, 12, 40])
    def test_cycle_is_two(self, n):
        assert min_cut_set_size(graph_from_edges(relabelled(cycle(n), n))) == 2

    @pytest.mark.parametrize("leaves", [1, 2, 5, 30])
    def test_star_is_one(self, leaves):
        assert min_cut_set_size(graph_from_edges(relabelled(star(leaves), leaves))) == 1

    @pytest.mark.parametrize("n", [2, 3, 6, 15])
    def test_complete_graph_is_n_minus_one(self, n):
        assert min_cut_set_size(graph_from_edges(relabelled(complete_on(range(n)), n))) == n - 1

    @pytest.mark.parametrize(
        "shared, only_a, only_b", [(1, 1, 1), (1, 4, 6), (2, 3, 3), (3, 5, 4), (5, 6, 8)]
    )
    def test_cliques_sharing_c_vertices_is_c(self, shared, only_a, only_b):
        edges = cliques_sharing(shared, only_a, only_b)
        assert min_cut_set_size(graph_from_edges(relabelled(edges, shared))) == shared

    def test_min_degree_vertex_off_the_cut(self):
        # Every A-only vertex has the minimum degree 3 + 3 - 1 = 5, and the
        # only minimum cut is the 3 shared vertices, which it is not in.
        edges = cliques_sharing(3, 3, 6)
        assert min_degree(edges) == 5
        assert min_cut_set_size(graph_from_edges(relabelled(edges, 7))) == 3

    def test_min_degree_vertex_on_every_cut(self):
        # Two K_6 joined by the edge a0-b0 and by v, which has degree 4, the
        # minimum, and lies on every 2-vertex cut ({v, a0} and {v, b0}). Its
        # local connectivity to any non-neighbour is 3, so only a pair of v's
        # neighbours (a1 and b1: a1-v-b1 and a1-a0-b0-b1) brings k down to 2.
        a, b, v = list(range(6)), list(range(6, 12)), 12
        edges = complete_on(a) + complete_on(b) + [(a[0], b[0])]
        edges += [(a[1], v), (a[2], v), (b[1], v), (b[2], v)]
        assert min_degree(edges) == 4
        assert min_cut_set_size(graph_from_edges(relabelled(edges, 8))) == 2

    def test_matches_networkx_on_random_graphs(self):
        nx = pytest.importorskip("networkx")
        rng = random.Random(2024)
        for _ in range(30):
            n = rng.randint(20, 80)
            p = rng.uniform(0.03, 0.3)
            edges = [pair for pair in complete_on(range(n)) if rng.random() < p]
            g = nx.Graph()
            g.add_nodes_from(range(n))
            g.add_edges_from(edges)
            got = min_cut_set_size(graph_from_edges(edges, extra_nodes=range(n)))
            assert got == nx.node_connectivity(g)

    def test_certified_vertices_need_no_flow(self, flow_calls, split_calls):
        # K_30 plus v joined to 4 of its vertices: v has the minimum degree 4,
        # and every other K_30 vertex has those 4 known neighbours, so no
        # flow is needed from v, and v's neighbours are pairwise adjacent.
        # Without a flow the node-split graph is never built.
        edges = complete_on(range(30)) + [(k, 30) for k in range(4)]
        assert min_cut_set_size(graph_from_edges(relabelled(edges, 30))) == 4
        assert len(flow_calls) == 0
        assert len(split_calls) == 0

    def test_flow_budget_on_the_analyze_benchmark_graphs(self, flow_calls, split_calls):
        # The 60 test learners of corpus B, as the analyze benchmark splits
        # them. One flow per non-neighbour and per neighbour pair made 2,562
        # calls here; the certification pass makes 142. Each graph builds
        # its node-split graph once, and only if it needs a flow.
        table = random_sr_table(seed=1, topic_pool=2000, n_pairs=200_000)
        sessions = random_sessions(
            n_learners=200, seed=2, topic_pool=2000, max_events=40, max_topics=5
        )
        learners = split_learners(sessions, 0.7, 42).test_ids()
        graphs = [build_topic_graph(sessions.learners[lid], table) for lid in learners]
        assert len(graphs) == 60
        kappas = []
        for graph in graphs:
            flows, splits = len(flow_calls), len(split_calls)
            kappas.append(min_cut_set_size(graph))
            assert len(split_calls) - splits == (len(flow_calls) > flows)
        assert sum(kappas) == 65
        assert len(flow_calls) <= 200
        assert len(split_calls) < len(graphs)

    @settings(max_examples=60, deadline=None)
    @given(
        separator=st.integers(1, 6),
        slack=st.integers(1, 3),
        low_side=st.sampled_from(["a", "b", "separator"]),
        full_separator=st.booleans(),
        seed=st.integers(0, 10_000),
    )
    def test_planted_separator_matches_networkx(
        self, separator, slack, low_side, full_separator, seed
    ):
        # Blocks A and B meet only through the separator S. One vertex on
        # low_side keeps separator + slack edges and so has the minimum
        # degree; with slack 1 and S joined to all of A and B, each vertex
        # beyond S has exactly k - 1 neighbours known to the source phase.
        nx = pytest.importorskip("networkx")
        rng = random.Random(seed)
        size_a = rng.randint(max(separator + slack + 3, 6), 25)
        size_b = rng.randint(max(separator + slack + 3, 6), 25)
        a = list(range(size_a))
        b = list(range(size_a, size_a + size_b))
        sep = list(range(size_a + size_b, size_a + size_b + separator))
        p = rng.uniform(0.7, 1.0)
        edges = [e for e in complete_on(a) + complete_on(b) if rng.random() < p]
        edges += [e for e in complete_on(sep) if rng.random() < 0.5]
        for x in sep:
            for side in (a, b):
                reach = side if full_separator else rng.sample(side, rng.randint(1, len(side)))
                edges += [(min(x, y), max(x, y)) for y in reach]
        low = rng.choice({"a": a, "b": b, "separator": sep}[low_side])
        touching = [e for e in edges if low in e]
        dropped = set(rng.sample(touching, max(len(touching) - separator - slack, 0)))
        edges = [e for e in edges if e not in dropped]
        assume(separator < min_degree(edges))
        g = nx.Graph()
        g.add_edges_from(edges)
        got = min_cut_set_size(graph_from_edges(relabelled(edges, seed)))
        assert got == nx.node_connectivity(g)


class TestBuildTopicGraph:
    def test_zero_valued_pair_is_no_edge(self):
        t = SRTable(metric="w2v")
        t.set(1, 2, 0.5)
        t.set(2, 3, 0.0)
        g = build_topic_graph([EngagementEvent("a", 0, ((1, 0.5), (2, 0.5), (3, 0.5)), 1)], t)
        assert g.nodes == frozenset({1, 2, 3})
        assert g.edges == frozenset({(1, 2)})

    def test_from_events(self):
        t = SRTable(metric="w2v")
        t.set(1, 2, 0.9)
        events = [
            EngagementEvent("a", 0, ((1, 0.5), (2, 0.5)), 1),
            EngagementEvent("a", 1, ((3, 0.5),), -1),
        ]
        g = build_topic_graph(events, t)
        assert g.nodes == frozenset({1, 2, 3})
        assert g.edges == frozenset({(1, 2)})


class TestRowWalksMatchOracles:
    """Neighbour-row walks agree with brute-force scans over a reference pair map."""

    @settings(max_examples=150, deadline=None)
    @given(
        writes=st.lists(
            st.tuples(
                st.integers(0, 12),
                st.integers(0, 12),
                st.sampled_from([0.0, 0.25, 0.5, 1.0]) | st.floats(0.0, 1.0),
            ),
            max_size=60,
        ),
        seen=st.sets(st.integers(0, 12)),
        session=st.lists(st.sets(st.integers(0, 12), min_size=1, max_size=5), min_size=1, max_size=6),
    )
    def test_related_seen_topics_and_graph_edges(self, writes, seen, session):
        table = SRTable(metric="w2v")
        pairs = {}
        for a, b, value in writes:
            table.set(a, b, value)
            if a != b:
                pairs[frozenset((a, b))] = value

        def relatedness(a, b):
            return 1.0 if a == b else pairs.get(frozenset((a, b)), 0.0)

        pool = range(13)
        assert len(table) == len(pairs)
        assert all(
            table.neighbours.get(a, {}).get(b, 0.0) == relatedness(a, b)
            for a in pool for b in pool if a != b
        )
        assert all(a not in table.neighbours.get(a, {}) for a in pool)
        for target in pool:
            for k in OMEGA_SIZES:
                assert related_seen_topics(table, target, seen, k) == related_seen_brute(
                    relatedness, target, seen, k
                )
        events = [
            EngagementEvent("a", i, tuple((t, 0.5) for t in sorted(topics)), 1)
            for i, topics in enumerate(session)
        ]
        graph = build_topic_graph(events, table)
        topics = set().union(*session)
        assert graph.nodes == frozenset(topics)
        assert graph.edges == session_edges_brute(relatedness, topics)
