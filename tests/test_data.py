import csv
import json
import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semlearn.data import (
    MAX_TOPICS_PER_EVENT,
    DataError,
    Dataset,
    EngagementEvent,
    load_events,
    save_events,
    split_learners,
)
from semlearn.relatedness import load_sr_table

from oracles import events_reference
from synthetic import BLANK_LINES, random_sessions

# Spellings that int() reads as the same id.
ID_SPELLINGS = ("{}", "0{}", "+{}", " {}", "{} ")
EVENT_IDS = (0, 7, 300, 4096, 70000)


@st.composite
def event_rows(draw):
    """Well-formed (learner, order, label, [(id cell, depth)]) rows, ids spelled several
    ways, depths partly outside [0, 1]."""
    keys = draw(
        st.lists(st.tuples(st.sampled_from("abc"), st.integers(0, 30)), min_size=1,
                 max_size=30, unique=True)
    )
    rows = []
    for learner, order in keys:
        ids = draw(st.lists(st.sampled_from(EVENT_IDS), min_size=1, max_size=5, unique=True))
        topics = [
            (draw(st.sampled_from(ID_SPELLINGS)).format(t), draw(st.floats(-0.5, 1.5)))
            for t in ids
        ]
        rows.append((learner, order, draw(st.sampled_from([0, 1])), topics))
    return rows


def write_events(path, rows):
    """CSV or JSON lines by suffix; in JSON a plain decimal spelling is written as a number."""
    if path.suffix == ".csv":
        lines = ["learner_id,order_index,label,topics"] + [
            f"{learner},{order},{label}," + ";".join(f"{cell}:{depth!r}" for cell, depth in topics)
            for learner, order, label, topics in rows
        ]
    else:
        lines = [
            json.dumps({
                "learner_id": learner, "order_index": order, "label": label,
                "topics": [[int(c) if c == str(int(c)) else c, d] for c, d in topics],
            })
            for learner, order, label, topics in rows
        ]
    path.write_text("\n".join(lines) + "\n")
    return path


class TestLoadCsv:
    def test_three_rows_one_learner(self, tmp_events_csv):
        path = tmp_events_csv(
            [
                "alice,0,1,10:0.5",
                "alice,1,0,11:0.25;12:0.75",
                "alice,2,1,10:1.0",
            ]
        )
        ds = load_events(path)
        assert len(ds.learners) == 1
        assert [e.label for e in ds.learners["alice"]] == [1, -1, 1]
        assert ds.learners["alice"][1].topics == ((11, 0.25), (12, 0.75))

    def test_empty_file_gives_empty_dataset(self, tmp_events_csv):
        ds = load_events(tmp_events_csv([]))
        assert len(ds.learners) == 0
        assert ds.ingest.rows_read == 0

    def test_five_topics_preserved_in_file_order(self, tmp_events_csv):
        topics = ";".join(f"{t}:0.3" for t in (5, 3, 9, 1, 7))
        ds = load_events(tmp_events_csv([f"bob,0,1,{topics}"]))
        assert [t for t, _ in ds.learners["bob"][0].topics] == [5, 3, 9, 1, 7]

    def test_rows_sorted_by_order_index(self, tmp_events_csv):
        path = tmp_events_csv(["a,2,1,1:0.5", "a,0,0,2:0.5", "a,1,1,3:0.5"])
        ds = load_events(path)
        assert [e.order_index for e in ds.learners["a"]] == [0, 1, 2]

    def test_duplicate_learner_order_is_hard_error(self, tmp_events_csv):
        path = tmp_events_csv(["a,0,1,1:0.5", "a,0,0,2:0.5"])
        with pytest.raises(DataError, match="duplicate"):
            load_events(path)

    def test_malformed_rows_counted_with_first_line(self, tmp_events_csv):
        path = tmp_events_csv(
            [
                "a,0,1,1:0.5",
                "a,1,7,1:0.5",  # bad label
                "a,2,1,1:0.5;1:0.6",  # duplicate topic in event
                "a,3,1,1:0.5",
            ]
        )
        ds = load_events(path)
        assert ds.ingest.malformed_rows == 2
        assert ds.ingest.first_malformed_line == 3
        assert [e.order_index for e in ds.learners["a"]] == [0, 3]

    @pytest.mark.parametrize("row", ["a,1,1", "a,1,1,3:0.5,x"])
    def test_row_without_four_cells_is_malformed(self, tmp_events_csv, row):
        ds = load_events(tmp_events_csv(["a,0,1,3:0.5", row]))
        assert (ds.ingest.rows_read, ds.ingest.malformed_rows) == (2, 1)
        assert ds.ingest.first_malformed_line == 3
        assert "expected 4 columns" in ds.ingest.first_malformed_reason

    def test_depth_clamped_with_counter(self, tmp_events_csv):
        ds = load_events(tmp_events_csv(["a,0,1,1:1.5;2:-0.25"]))
        assert ds.learners["a"][0].topics == ((1, 1.0), (2, 0.0))
        assert ds.ingest.clamped_depths == 2

    def test_empty_topics_dropped_with_counter(self, tmp_events_csv):
        ds = load_events(tmp_events_csv(["a,0,1,", "a,1,1,5:0.5"]))
        assert ds.ingest.dropped_empty_topic_events == 1
        assert len(ds.learners["a"]) == 1

    def test_too_many_topics_is_malformed(self, tmp_events_csv):
        topics = ";".join(f"{t}:0.1" for t in range(11))
        ds = load_events(tmp_events_csv([f"a,0,1,{topics}", "a,1,1,1:0.2"]))
        assert ds.ingest.malformed_rows == 1

    def test_top_topics_truncation(self, tmp_events_csv):
        topics = ";".join(f"{t}:0.1" for t in range(8))
        ds = load_events(tmp_events_csv([f"a,0,1,{topics}"]), top_topics=3)
        assert [t for t, _ in ds.learners["a"][0].topics] == [0, 1, 2]

    @pytest.mark.parametrize(
        "topics",
        [
            ";".join(f"{t}:0.1" for t in range(11)),
            "1:0.5;2:0.5;2:0.25",
            "1:0.5;2:nan",
        ],
        ids=["eleven topics", "repeated id", "nan depth"],
    )
    def test_row_malformed_past_the_top_topics_is_malformed(self, tmp_events_csv, topics):
        path = tmp_events_csv([f"a,0,1,{topics}", "a,1,1,1:0.2"])
        for ds in (load_events(path), load_events(path, top_topics=1)):
            assert (ds.ingest.malformed_rows, ds.n_events) == (1, 1)

    @pytest.mark.parametrize("k", [0, -1])
    def test_top_topics_below_one_is_value_error(self, tmp_events_csv, k):
        with pytest.raises(ValueError, match="top_topics must be >= 1"):
            load_events(tmp_events_csv(["a,0,1,1:0.5;2:0.5"]), top_topics=k)

    def test_missing_file(self, tmp_path):
        path = tmp_path / "nope.csv"
        with pytest.raises(DataError, match=re.escape(f"cannot read event file {path}")):
            load_events(path)

    def test_wrong_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("user,idx,y,topics\na,0,1,1:0.5\n")
        with pytest.raises(DataError, match="header"):
            load_events(path)

    def test_empty_lines_before_the_header_are_skipped(self, tmp_path, tmp_events_csv):
        plain = tmp_events_csv(["a,0,1,1:0.5", "b,0,0,2:0.25"])
        padded = tmp_path / "padded.csv"
        padded.write_bytes(b"\n\r\n" + plain.read_bytes())
        assert load_events(padded) == load_events(plain)
        only_empty_lines = tmp_path / "empty.csv"
        only_empty_lines.write_text("\n\n")
        ds = load_events(only_empty_lines)
        assert (len(ds.learners), ds.ingest.rows_read) == (0, 0)


# A record of each CSV input, the second spelling holding a quoted cell that
# spans two physical lines.
EVENT_RECORDS = ("a,{i},1,1:0.5", 'a,{i},1,"1:0.5;\n2:0.25"')
SR_RECORDS = ("{i},{j},w2v,0.5", '"{i}\n",{j},w2v,0.5')


class TestRowLineIsWhereItsRecordEnds:
    """A row named in a message is named by the physical line its record ends on,
    also after a record that spans two lines."""

    def test_duplicate_key(self, tmp_events_csv):
        path = tmp_events_csv(['a,0,1,"1:0.5;\n2:0.25"', "a,1,1,1:0.5", "a,0,1,1:0.5"])
        with pytest.raises(DataError, match=re.escape(f"{path}:5: duplicate")):
            load_events(path)

    def test_first_malformed_row(self, tmp_events_csv):
        path = tmp_events_csv(['a,0,1,"1:0.5;\n2:0.25"', "a,1,7,1:0.5"])
        ds = load_events(path)
        assert ds.learners["a"][0].topics == ((1, 0.5), (2, 0.25))
        assert (ds.ingest.malformed_rows, ds.ingest.first_malformed_line) == (1, 4)

    def test_non_finite_relatedness(self, tmp_path):
        path = tmp_path / "sr.csv"
        path.write_text('topic_a,topic_b,metric,value\n1,2,"w2v\n",0.5\n3,4,w2v,nan\n')
        with pytest.raises(DataError, match=re.escape(f"{path}:4: relatedness must be finite")):
            load_sr_table(path, "w2v")

    @settings(max_examples=100, deadline=None)
    @given(
        shapes=st.lists(st.tuples(st.booleans(), st.booleans()), min_size=1, max_size=12),
        data=st.data(),
        table=st.booleans(),
    )
    def test_any_line_after_multi_line_records(self, tmp_path_factory, shapes, data, table):
        # shapes: per good record, whether it spans two lines and whether a
        # blank line follows it; the bad record goes in at a drawn position.
        records, header = (SR_RECORDS, "topic_a,topic_b,metric,value") if table else (
            EVENT_RECORDS, "learner_id,order_index,label,topics")
        bad = "1,2,w2v,nan" if table else "a,999,7,1:0.5"
        good = [
            records[two_lines].format(i=i, j=i + 100) + "\n" + "\n" * blank
            for i, (two_lines, blank) in enumerate(shapes)
        ]
        bad_at = data.draw(st.integers(0, len(good)))
        through_bad = header + "\n" + "".join(good[:bad_at]) + bad + "\n"
        text, line = through_bad + "".join(good[bad_at:]), through_bad.count("\n")
        path = tmp_path_factory.mktemp("lines") / "input.csv"
        path.write_text(text)
        if table:
            with pytest.raises(DataError, match=re.escape(f"{path}:{line}: relatedness")):
                load_sr_table(path, "w2v")
        else:
            assert load_events(path).ingest.first_malformed_line == line


def good_row_then(path, field, value):
    """A JSON-lines file: one good row, then one whose ``field`` is spelled ``value``."""
    cells = {"topic": "3", "order_index": "1", "label": "1", field: value}
    path.write_text(
        '{"learner_id": "a", "order_index": 0, "label": 1, "topics": [[3, 0.5]]}\n'
        f'{{"learner_id": "a", "order_index": {cells["order_index"]}, '
        f'"label": {cells["label"]}, "topics": [[{cells["topic"]}, 0.5]]}}\n'
    )
    return path


class TestLoadJsonl:
    def test_roundtrip_fields(self, tmp_path):
        path = tmp_path / "events.jsonl"
        rows = [
            {"learner_id": "a", "order_index": 0, "label": 1, "topics": [[3, 0.5], [4, 0.1]]},
            {"learner_id": "a", "order_index": 1, "label": 0, "topics": [[3, 0.9]]},
        ]
        path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        ds = load_events(path)
        assert ds.learners["a"][0].topics == ((3, 0.5), (4, 0.1))
        assert ds.learners["a"][1].label == -1

    def test_malformed_json_line_counted(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text(
            '{"learner_id": "a", "order_index": 0, "label": 1, "topics": [[3, 0.5]]}\n'
            "{not json}\n"
        )
        ds = load_events(path)
        assert ds.ingest.malformed_rows == 1
        assert ds.n_events == 1

    def test_blank_lines_before_the_first_object(self, tmp_path):
        path = tmp_path / "events.txt"
        path.write_text(
            '\n  \n{"learner_id": "a", "order_index": 0, "label": 1, "topics": [[3, 0.5]]}\n'
            "{not json}\n"
        )
        ds = load_events(path)
        assert ds.learners["a"][0].topics == ((3, 0.5),)
        assert ds.ingest.first_malformed_line == 4

    @pytest.mark.parametrize("field", ["topic", "order_index", "label"])
    @pytest.mark.parametrize("number", ["1e400", "Infinity", "-1e400"])
    def test_infinite_number_is_a_malformed_row(self, tmp_path, field, number):
        # json reads these as float infinities, and int() of one overflows.
        path = good_row_then(tmp_path / "events.jsonl", field, number)
        ds = load_events(path)
        assert (ds.ingest.rows_read, ds.ingest.malformed_rows) == (2, 1)
        assert ds.ingest.first_malformed_line == 2
        expected, _, dropped = events_reference(path)
        assert dropped == 1
        assert [(e.learner_id, e.order_index, e.label, e.topics) for e in ds.learners["a"]] == expected

    def test_too_deeply_nested_line_is_a_malformed_row(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text(
            '{"learner_id": "a", "order_index": 0, "label": 1, "topics": [[3, 0.5]]}\n'
            '{"learner_id": ' + "[" * 100_000 + "\n"
        )
        ds = load_events(path)
        assert (ds.ingest.rows_read, ds.ingest.malformed_rows) == (2, 1)
        assert ds.ingest.first_malformed_line == 2

    @pytest.mark.parametrize("row", ["a,1,1,1e400:0.5", "a,1e400,1,3:0.5", "a,1,1e400,3:0.5"])
    def test_csv_spelling_of_1e400_is_a_malformed_row(self, tmp_events_csv, row):
        ds = load_events(tmp_events_csv(["a,0,1,3:0.5", row]))
        assert (ds.ingest.rows_read, ds.ingest.malformed_rows) == (2, 1)
        assert ds.ingest.first_malformed_line == 3


    @pytest.mark.parametrize("field,value", [
        ("order_index", "1.9"), ("label", "0.9"), ("topic", "true"), ("topic", "2.7"),
    ])
    def test_value_its_csv_twin_rejects_is_a_malformed_row(self, tmp_path, field, value):
        # int() of these JSON values would give 1, 0, 1 and 2; their CSV cells do not parse.
        ds = load_events(good_row_then(tmp_path / "events.jsonl", field, value))
        assert (ds.ingest.rows_read, ds.ingest.malformed_rows) == (2, 1)
        assert ds.ingest.first_malformed_line == 2

    def test_learner_id_that_is_neither_string_nor_integer_is_a_malformed_row(self, tmp_path):
        path = tmp_path / "events.jsonl"
        ids = ["null", '["a"]', "3.5", "true", '{"x": 1}', '"ok"', "7"]
        path.write_text("".join(
            f'{{"learner_id": {lid}, "order_index": 0, "label": 1, "topics": [[3, 0.5]]}}\n'
            for lid in ids
        ))
        ds = load_events(path)
        assert sorted(ds.learners) == ["7", "ok"]
        assert (ds.ingest.malformed_rows, ds.ingest.first_malformed_line) == (5, 1)
        assert "learner_id must be a string or an integer" in ds.ingest.first_malformed_reason

    @pytest.mark.parametrize("topics", [
        # Each pair is one id cell and one depth cell: a ";" or ":" splits nothing.
        [[1, "0.5;2:0.7"]], [[1, "0.5:0.7"]], [["1;2", 0.5]], [["1:2", 0.5]],
        # Unpacking "30" would give the pair ("3", "0").
        ["30"], {"30": 0.5}, "30", [[3, 0.5], "71"],
    ])
    def test_topics_that_are_not_id_and_depth_pairs_are_a_malformed_row(self, tmp_path, topics):
        path = tmp_path / "events.jsonl"
        path.write_text(
            json.dumps({"learner_id": "a", "order_index": 0, "label": 1, "topics": topics})
            + "\n"
        )
        ds = load_events(path)
        assert (ds.ingest.rows_read, ds.ingest.malformed_rows, ds.n_events) == (1, 1, 0)


# JSON values for one cell, each also written as its str() in the CSV twin.
ODD_INTEGERS = st.one_of(
    st.integers(-2, 2), st.booleans(), st.sampled_from([0.0, 1.0, 2.0, 1.9, 0.9, 2.7])
)
WITH_SEPARATOR = st.sampled_from(["1;2", "1:2", "a;b:c"])


@st.composite
def json_value_rows(draw):
    """Rows of JSON values, (learner, order, label, [(topic id, depth)]); about one cell
    in six is a value other than a plain integer (or number, for a depth)."""

    def cell(plain, odd):
        return draw(odd if draw(st.integers(0, 5)) == 0 else plain)

    integer = st.one_of(st.integers(0, 999), st.integers(0, 999).map(str))
    depth = st.one_of(st.floats(-0.5, 1.5), st.integers(0, 1))
    odd_depth = st.one_of(st.sampled_from(["0", "0.5", "1e-3"]), st.integers(2, 3), st.booleans())
    # Only a string or an integer learner id has a CSV twin; any other JSON value
    # is a malformed row (TestLoadJsonl).
    odd_learner = st.one_of(st.integers(-2, 2), WITH_SEPARATOR)
    return [
        (
            cell(st.sampled_from(["a", "b"]), odd_learner),
            cell(integer, st.one_of(ODD_INTEGERS, WITH_SEPARATOR)),
            cell(st.sampled_from([0, 1, "0", "1"]), st.one_of(ODD_INTEGERS, WITH_SEPARATOR)),
            [(cell(integer, ODD_INTEGERS), cell(depth, odd_depth))
             for _ in range(draw(st.integers(0, 4)))],
        )
        for _ in range(draw(st.integers(1, 12)))
    ]


def load_outcome(path):
    """The loaded (learner, order, label, topics) rows and counters, or DataError."""
    try:
        ds = load_events(path)
    except DataError:
        return DataError
    report = ds.ingest
    return (
        [(e.learner_id, e.order_index, e.label, e.topics) for lid in sorted(ds.learners)
         for e in ds.learners[lid]],
        (report.malformed_rows, report.clamped_depths, report.dropped_empty_topic_events),
    )


class TestOneGrammar:
    @settings(max_examples=200, deadline=None)
    @given(rows=json_value_rows())
    def test_json_values_load_as_their_csv_cells(self, tmp_path_factory, rows):
        folder = tmp_path_factory.mktemp("grammar")
        jsonl, csv_path = folder / "events.jsonl", folder / "events.csv"
        jsonl.write_text("".join(
            json.dumps({"learner_id": l, "order_index": o, "label": b, "topics": topics}) + "\n"
            for l, o, b, topics in rows
        ))
        with open(csv_path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["learner_id", "order_index", "label", "topics"])
            for l, o, b, topics in rows:
                writer.writerow([l, o, b, ";".join(f"{t}:{d}" for t, d in topics)])
        assert load_outcome(jsonl) == load_outcome(csv_path)


@pytest.mark.parametrize("suffix", [".csv", ".jsonl"])
@pytest.mark.parametrize("depth", [math.nan, math.inf])
def test_non_finite_depth_is_a_malformed_row(tmp_path, suffix, depth):
    rows = [("a", 0, 1, [("3", 0.5)]), ("a", 1, 1, [("3", depth)])]
    ds = load_events(write_events(tmp_path / f"events{suffix}", rows))
    assert (ds.ingest.rows_read, ds.ingest.malformed_rows) == (2, 1)
    assert ds.ingest.first_malformed_reason == f"non-finite depth {depth}"


# A row whose learner id holds a byte that is not UTF-8, per event format.
NOT_UTF8_ROW = {
    ".csv": b"b\xff,0,1,3:0.5\n",
    ".jsonl": b'{"learner_id": "b\xff", "order_index": 0, "label": 1, "topics": [[3, 0.5]]}\n',
}


@pytest.mark.parametrize("suffix", [".csv", ".jsonl"])
@pytest.mark.parametrize("good_rows", [0, 1000])
def test_bytes_that_are_not_utf8_are_a_data_error_naming_the_file(tmp_path, suffix, good_rows):
    # After 1000 good rows the bad byte lies past what the format sniff decodes.
    rows = [("a", order, 1, [("3", 0.5)]) for order in range(good_rows)]
    path = write_events(tmp_path / f"events{suffix}", rows)
    path.write_bytes(path.read_bytes() + NOT_UTF8_ROW[suffix])
    with pytest.raises(DataError, match=re.escape(f"cannot read event file {path}: 'utf-8'")):
        load_events(path)


@pytest.mark.parametrize("suffix", [".csv", ".jsonl"])
def test_leading_byte_order_mark_is_skipped(tmp_path, suffix):
    # Excel's "CSV UTF-8" export starts the file with one.
    rows = [("a", 0, 1, [("3", 0.5)]), ("b", 0, 0, [("4", 0.25)])]
    plain = write_events(tmp_path / f"plain{suffix}", rows)
    marked = tmp_path / f"marked{suffix}"
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    loaded = load_events(marked)
    assert loaded == load_events(plain) and loaded.n_events == 2


def test_directory_is_a_data_error_naming_it(tmp_path):
    with pytest.raises(DataError, match=re.escape(f"cannot read event file {tmp_path}")):
        load_events(tmp_path)


class TestMatchesReferenceParser:
    @settings(max_examples=200, deadline=None)
    @given(rows=event_rows(), suffix=st.sampled_from([".csv", ".jsonl"]), data=st.data())
    def test_events_match(self, tmp_path_factory, rows, suffix, data):
        path = write_events(tmp_path_factory.mktemp("events") / f"events{suffix}", rows)
        # Empty or whitespace-only lines anywhere, before the CSV header too.
        lines = path.read_text().splitlines()
        for blank in data.draw(st.lists(st.sampled_from(BLANK_LINES), max_size=3)):
            lines.insert(data.draw(st.integers(0, len(lines))), blank)
        path.write_text("\n".join(lines) + "\n")
        expected, clamped, dropped = events_reference(path)
        ds = load_events(path)
        loaded = [
            (ev.learner_id, ev.order_index, ev.label, ev.topics)
            for lid in sorted(ds.learners)
            for ev in ds.learners[lid]
        ]
        assert loaded == expected
        assert (ds.ingest.malformed_rows, ds.ingest.clamped_depths) == (dropped, clamped)

    @pytest.mark.parametrize("suffix", [".csv", ".jsonl"])
    def test_each_topic_id_is_one_object(self, tmp_path, suffix):
        # Each id is parsed once, so the events share one int object per id.
        rows = [("a", i, 1, [("1000", 0.5), ("2000", 0.5)]) for i in range(5)]
        ds = load_events(write_events(tmp_path / f"events{suffix}", rows))
        ids = [topic for ev in ds.learners["a"] for topic, _ in ev.topics]
        assert len({id(topic) for topic in ids}) == len(set(ids)) == 2


@st.composite
def many_topic_rows(draw):
    """Rows of 1-12 topics, ids repeating within a row now and then, and about one
    depth in eight not finite; the finite depths lie partly outside [0, 1]."""
    keys = draw(
        st.lists(st.tuples(st.sampled_from("ab"), st.integers(0, 20)), min_size=1,
                 max_size=12, unique=True)
    )

    def depth():
        if draw(st.integers(0, 7)) == 0:
            return draw(st.sampled_from([math.nan, math.inf, -math.inf]))
        return draw(st.floats(-0.5, 1.5))

    return [
        (learner, order, draw(st.sampled_from([0, 1])),
         [(str(draw(st.integers(0, 40))), depth()) for _ in range(draw(st.integers(1, 12)))])
        for learner, order in keys
    ]


class TestTopTopics:
    @settings(max_examples=200, deadline=None)
    @given(
        rows=many_topic_rows(),
        suffix=st.sampled_from([".csv", ".jsonl"]),
        k=st.integers(1, MAX_TOPICS_PER_EVENT),
    )
    def test_cuts_each_event_of_the_rows_loaded_whole(self, tmp_path_factory, rows, suffix, k):
        path = write_events(tmp_path_factory.mktemp("events") / f"events{suffix}", rows)
        whole, cut = load_events(path), load_events(path, top_topics=k)
        # The same rows are malformed, and the depths clamped count whole rows.
        assert cut.ingest == whole.ingest
        assert {lid: [(e.order_index, e.label, e.topics[:k]) for e in events]
                for lid, events in whole.learners.items()} == {
            lid: [(e.order_index, e.label, e.topics) for e in events]
            for lid, events in cut.learners.items()
        }


class TestRoundTrip:
    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_save_then_load_equal(self, tmp_path, fmt):
        ds = random_sessions(n_learners=8, seed=3)
        path = tmp_path / f"events.{fmt}"
        save_events(ds, path, fmt=fmt)
        back = load_events(path)
        assert back == Dataset(learners=ds.learners)

    def test_unknown_format_is_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unknown event format 'tsv'"):
            save_events(random_sessions(n_learners=2, seed=3), tmp_path / "events.tsv", fmt="tsv")

    @pytest.mark.parametrize("fmt,misnamed", [("jsonl", "events.csv"), ("csv", "events.jsonl")])
    def test_format_comes_from_the_content_not_the_name(self, tmp_path, fmt, misnamed):
        ds = random_sessions(n_learners=8, seed=3)
        named, misnamed = tmp_path / f"events.{fmt}", tmp_path / misnamed
        save_events(ds, named, fmt=fmt)
        save_events(ds, misnamed, fmt=fmt)
        assert load_events(misnamed) == load_events(named) == Dataset(learners=ds.learners)


class TestSplitLearners:
    def test_deterministic_seven_three(self):
        ds = random_sessions(n_learners=10, seed=1)
        a = split_learners(ds, 0.7, seed=42)
        b = split_learners(ds, 0.7, seed=42)
        assert len(a.train_ids()) == 7
        assert len(a.test_ids()) == 3
        assert a.split == b.split

    def test_two_learners_half(self):
        ds = random_sessions(n_learners=2, seed=1)
        out = split_learners(ds, 0.5, seed=0)
        assert len(out.train_ids()) == 1
        assert len(out.test_ids()) == 1

    def test_partition_on_large_cohort(self):
        learners = {f"u{i}": [EngagementEvent(f"u{i}", 0, ((1, 0.5),), 1)] for i in range(20000)}
        ds = Dataset(learners=learners)
        out = split_learners(ds, 0.7, seed=9)
        train, test = set(out.train_ids()), set(out.test_ids())
        assert len(train) == 14000
        assert len(test) == 6000
        assert train | test == set(learners)
        assert train & test == set()

    def test_different_seeds_differ(self):
        ds = random_sessions(n_learners=50, seed=1)
        assert split_learners(ds, 0.7, seed=1).split != split_learners(ds, 0.7, seed=2).split

    def test_rejects_bad_fraction(self):
        ds = random_sessions(n_learners=4, seed=1)
        with pytest.raises(ValueError):
            split_learners(ds, 1.0, seed=0)

    def test_rejects_single_learner(self):
        ds = random_sessions(n_learners=1, seed=1)
        with pytest.raises(DataError):
            split_learners(ds, 0.5, seed=0)
