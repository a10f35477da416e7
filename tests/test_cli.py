import argparse
import ast
import csv
import hashlib
import importlib
import json
import math
import multiprocessing
import os
import re
import subprocess
import sys
from collections import Counter
from dataclasses import asdict, fields, replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import semlearn
from semlearn import evaluation, runs
from semlearn.cli import _parser, _spec, main
from semlearn.data import save_events, split_learners
from semlearn.novel import (
    MAX_DEPTH_SKILL_LEVEL, MAX_DRAW_MARGIN_EPS, MAX_DYNAMICS_TAU, ModelConfig, update,
)
from semlearn.runs import (
    RunSpec, analyze_run, evaluate_run, load_grid, select_top_learners, tune_run,
)
from semlearn.semantic import PropagationConfig

from synthetic import clustered_corpus, random_sessions, random_sr_table, write_sr_csv

# The next float past each ModelConfig bound.
PAST_THE_BOUNDS = [
    {"beta": math.nextafter(5.56268464626801e-309, 0.0)},
    {"beta": math.nextafter(1.7976931348623151e308, math.inf)},
    {"draw_margin_eps": math.nextafter(MAX_DRAW_MARGIN_EPS, math.inf)},
    {"dynamics_tau": math.nextafter(MAX_DYNAMICS_TAU, math.inf)},
    {"depth_skill_level": math.nextafter(MAX_DEPTH_SKILL_LEVEL, math.inf)},
    {"depth_skill_level": math.nextafter(-MAX_DEPTH_SKILL_LEVEL, -math.inf)},
]


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """A small clustered corpus on disk: events CSV, SR CSV, zero-SR CSV."""
    root = tmp_path_factory.mktemp("corpus")
    ds, table = clustered_corpus(n_learners=24, seed=13, clusters_per_learner=2)
    events = root / "events.csv"
    save_events(ds, events)
    sr = root / "sr.csv"
    write_sr_csv(table, sr)
    zero_sr = root / "zero_sr.csv"
    zero_sr.write_text("topic_a,topic_b,metric,value\n0,1,w2v,0\n")
    return {"events": events, "sr": sr, "zero_sr": zero_sr, "dataset": ds}


@pytest.fixture(autouse=True)
def _in_tmp_path(tmp_path, monkeypatch):
    """Each test runs in its own directory: a command given no --out-dir creates its
    default one under the working directory before it reads any input."""
    monkeypatch.chdir(tmp_path)


def digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run(args):
    return main([str(a) for a in args])


# Refused by the option parser, before the event file (missing here) is read.
BAD_SPLIT_OPTIONS = [
    ("--top-learners", "0"),
    ("--top-learners", "-3"),
    ("--train-fraction", "0"),
    ("--train-fraction", "1"),
    ("--train-fraction", "1.5"),
    ("--train-fraction", "nan"),
]


def write_unreadable(path, kind):
    """Leave ``path`` missing, holding bad or too deep JSON, an integer too long to
    read, or bytes that are not UTF-8, or a directory."""
    if kind == "not JSON":
        path.write_text('{"beta": [1.0]')
    elif kind == "not UTF-8":
        path.write_bytes(b'{"beta": [1.0], "\xff": [1]}')
    elif kind == "nested too deep":
        path.write_text("[" * 100_000)
    elif kind == "too many digits":
        path.write_text('{"beta": [1' + "0" * 5000 + "]}")
    elif kind == "directory":
        path.mkdir()
    return path


_DATA_OPTIONS = ["--data", "--top-topics", "--sr-table", "--sr-metric"]
_RUN_OPTIONS = [*_DATA_OPTIONS, "--omega", "--config", "--seed", "--train-fraction",
                "--top-learners", "--workers", "--model", "--out-dir"]
COMMAND_OPTIONS = {
    "evaluate": [*_RUN_OPTIONS, "--compare"],
    "tune": [*_RUN_OPTIONS, "--grid"],
    "analyze": [*_DATA_OPTIONS, "--out-dir"],
    "validate-data": _DATA_OPTIONS,
}


class TestCommandLineContract:
    def test_help_lists_every_command(self, capsys):
        assert run(["--help"]) == 0
        out = capsys.readouterr().out
        for command in COMMAND_OPTIONS:
            assert command in out

    @pytest.mark.parametrize("command", sorted(COMMAND_OPTIONS))
    def test_command_help_lists_every_option(self, capsys, command):
        assert run([command, "--help"]) == 0
        out = capsys.readouterr().out
        for option in COMMAND_OPTIONS[command]:
            assert option in out, option

    def test_every_command_prints_the_same_input_option_lines(self, capsys, monkeypatch):
        # Each option's help line and the help text under it, declared once for all commands.
        monkeypatch.setenv("COLUMNS", "80")

        def option_lines(command):
            assert run([command, "--help"]) == 0
            lines = capsys.readouterr().out.splitlines()
            starts = [i for i, line in enumerate(lines) if line.startswith("  --sr-")]
            return [lines[i:i + 2] for i in starts]

        lines = {command: option_lines(command) for command in COMMAND_OPTIONS}
        assert [[line.strip() for line in pair] for pair in lines["evaluate"]] == [
            ["--sr-table SR_TABLE_PATH", "Relatedness CSV."],
            ["--sr-metric {mw,w2v,pmi,lm,jaccard,cp,ba}",
             f"default: {PropagationConfig.sr_metric}"],
        ]
        assert all(found == lines["evaluate"] for found in lines.values()), lines

    @pytest.mark.parametrize("args", [[], ["no-such-command"], ["evaluate"]])
    def test_missing_command_or_required_option_is_usage_error(self, args):
        assert run(args) == 1

    def test_tune_semantic_without_sr_table_is_usage_error_before_loading(self, tmp_path):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"beta": [1.0]}))
        # The data file does not exist: loading it would exit 2.
        assert run(["tune", "--model", "semantic-truelearn", "--data", tmp_path / "missing.csv",
                    "--grid", grid]) == 1


    # Every input is missing: reading any of them would exit 2.
    @pytest.mark.parametrize("command", ["evaluate", "tune", "analyze"])
    def test_out_dir_that_cannot_be_created_is_usage_error_before_loading(
        self, tmp_path, capsys, command
    ):
        missing = tmp_path / "missing"
        inputs = {
            "evaluate": ["--data", missing],
            "tune": ["--data", missing, "--grid", missing],
            "analyze": [missing, "--data", missing, "--sr-table", missing],
        }[command]
        blocker = tmp_path / "file"
        blocker.write_text("")
        for out_dir in (blocker, blocker / "sub"):
            assert run([command, *inputs, "--out-dir", out_dir]) == 1
            assert f"error: cannot create output directory {out_dir}: " in (
                capsys.readouterr().err
            )


    # An output path that is a directory: writing the file fails after the replay.
    @pytest.mark.parametrize("command,name", [
        ("evaluate", "report.json"), ("evaluate", "summary.csv"), ("tune", "best_config.json"),
    ])
    def test_output_file_that_cannot_be_written_exits_one(
        self, corpus, tmp_path, capsys, command, name
    ):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"beta": [1.0]}))
        out_dir = tmp_path / "out"
        (out_dir / name).mkdir(parents=True)
        extra = ["--grid", grid] if command == "tune" else []
        assert run([command, "--data", corpus["events"], *extra, "--out-dir", out_dir]) == 1
        last = capsys.readouterr().err.splitlines()[-1]
        assert last.startswith("error: ") and str(out_dir / name) in last


class TestEvaluateCommand:
    def test_baseline_smoke(self, corpus, tmp_path):
        out = tmp_path / "base"
        assert run(["evaluate", "--model", "truelearn-novel", "--data", corpus["events"],
                    "--out-dir", out]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["models"][0]["model_id"] == "truelearn-novel"
        assert report["models"][0]["learners"]
        summary = (out / "summary.csv").read_text().splitlines()
        assert summary[0].startswith("# manifest_digest=")
        assert summary[1] == "Algorithm,SR Metric,Prec.,Rec.,F1"

    def test_compare_appends_t_test(self, corpus, tmp_path):
        out = tmp_path / "cmp"
        assert run(["evaluate", "--model", "semantic-truelearn", "--data", corpus["events"],
                    "--sr-table", corpus["sr"], "--sr-metric", "w2v", "--omega", "all",
                    "--compare", "--out-dir", out]) == 0
        report = json.loads((out / "report.json").read_text())
        assert [m["model_id"] for m in report["models"]] == [
            "truelearn-novel", "semantic-truelearn",
        ]
        assert set(report["comparison"]["metrics"]) == {"precision", "recall", "f1"}
        assert len((out / "summary.csv").read_text().splitlines()) == 4

    def test_determinism_across_runs_and_workers(self, corpus, tmp_path):
        args = ["evaluate", "--data", corpus["events"], "--sr-table", corpus["sr"],
                "--compare", "--seed", "7"]
        outs = []
        for name, workers in (("a", 1), ("b", 2), ("c", 3)):
            out = tmp_path / name
            assert run(args + ["--workers", workers, "--out-dir", out]) == 0
            outs.append((digest(out / "report.json"), digest(out / "summary.csv")))
        assert outs[0] == outs[1] == outs[2]

    def test_semantic_without_sr_table_is_usage_error(self, corpus):
        assert run(["evaluate", "--model", "semantic-truelearn",
                    "--data", corpus["events"]]) == 1

    def test_missing_data_file_is_data_error(self, tmp_path):
        assert run(["evaluate", "--data", tmp_path / "missing.csv"]) == 2

    def test_compare_with_one_test_learner_is_data_error_before_replay(
        self, corpus, tmp_path, capsys, monkeypatch
    ):
        def replay_cohort(*args, **kwargs):
            raise AssertionError("a learner was replayed")

        monkeypatch.setattr(runs, "replay_cohort", replay_cohort)
        # Two learners split 1/1 at the default train fraction.
        split = ["--data", corpus["events"], "--top-learners", "2"]
        assert run(["evaluate", "--compare", "--sr-table", corpus["sr"], *split,
                    "--out-dir", tmp_path / "cmp"]) == 2
        assert "the split has 1 test learner(s)" in capsys.readouterr().err
        monkeypatch.undo()
        assert run(["evaluate", *split, "--out-dir", tmp_path / "base"]) == 0

    def test_unknown_flag_is_usage_error(self, corpus):
        assert run(["evaluate", "--data", corpus["events"], "--bogus"]) == 1

    @pytest.mark.parametrize("workers", [0, -1])
    def test_workers_below_one_is_usage_error_before_loading(self, tmp_path, workers):
        assert run(["evaluate", "--data", tmp_path / "missing.csv", "--workers", workers]) == 1

    @pytest.mark.parametrize("option,value", BAD_SPLIT_OPTIONS)
    def test_bad_split_option_is_usage_error_before_loading(self, tmp_path, option, value):
        assert run(["evaluate", "--data", tmp_path / "missing.csv", option, value]) == 1

    def test_config_file_applies(self, corpus, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"beta": 1.0, "draw_margin_eps": 0.6}))
        out = tmp_path / "cfg_run"
        assert run(["evaluate", "--data", corpus["events"], "--config", cfg_path,
                    "--out-dir", out]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["manifest"]["model_config"]["beta"] == 1.0

    def test_non_finite_config_is_usage_error_before_loading(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text('{"beta": NaN}')
        # The data file does not exist: loading it would exit 2.
        assert run(["evaluate", "--data", tmp_path / "missing.csv",
                    "--config", cfg_path]) == 1

    @pytest.mark.parametrize("values", PAST_THE_BOUNDS)
    def test_config_past_a_bound_is_usage_error_before_loading(self, tmp_path, capsys, values):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(values))
        assert run(["evaluate", "--data", tmp_path / "missing.csv",
                    "--config", cfg_path]) == 1
        assert f"{next(iter(values))} must" in capsys.readouterr().err

    def test_integer_too_large_for_a_float_is_usage_error_before_loading(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text('{"beta": 1' + "0" * 400 + "}")
        assert run(["evaluate", "--data", tmp_path / "missing.csv",
                    "--config", cfg_path]) == 1
        assert "beta must be finite" in capsys.readouterr().err

    def test_unknown_config_key_is_usage_error_before_loading(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"betta": 1.0}))
        assert run(["evaluate", "--data", tmp_path / "missing.csv",
                    "--config", cfg_path]) == 1
        assert "error: unknown config keys: ['betta']" in capsys.readouterr().err

    def test_config_that_is_not_an_object_is_data_error_before_loading(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text("[1.0]")
        assert run(["evaluate", "--data", tmp_path / "missing.csv",
                    "--config", cfg_path]) == 2
        assert f"config file {cfg_path} must hold a JSON object" in capsys.readouterr().err

    def test_config_that_is_not_utf8_is_data_error_before_loading(self, tmp_path, capsys):
        cfg_path = write_unreadable(tmp_path / "cfg.json", "not UTF-8")
        assert run(["evaluate", "--data", tmp_path / "missing.csv",
                    "--config", cfg_path]) == 2
        assert f"cannot read config file {cfg_path}" in capsys.readouterr().err

    @pytest.mark.parametrize("content", ['{"beta": "a"}', '{"beta": true}', '{"beta": null}'])
    def test_non_numeric_config_is_usage_error_before_loading(self, tmp_path, content):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(content)
        assert run(["evaluate", "--data", tmp_path / "missing.csv",
                    "--config", cfg_path]) == 1

    @pytest.mark.parametrize("content", ['{"omega_size": 1.0}', '{"omega_size": true}'])
    def test_non_integer_omega_size_is_usage_error_before_loading(self, tmp_path, content):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(content)
        assert run(["evaluate", "--model", "semantic-truelearn", "--data", tmp_path / "missing.csv",
                    "--sr-table", tmp_path / "missing_sr.csv", "--config", cfg_path]) == 1

    def test_top_learners_subsetting(self, corpus, tmp_path):
        out = tmp_path / "top"
        assert run(["evaluate", "--data", corpus["events"], "--top-learners", "10",
                    "--train-fraction", "0.5", "--out-dir", out]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["n_test_learners"] == 5


class TestOmegaSweep:
    def test_five_distinct_reports_and_single_pair_collapse(self, tmp_path):
        # SR table with exactly one related pair: every omega gives identical output
        ds, _ = clustered_corpus(n_learners=12, seed=29, clusters_per_learner=2)
        events = tmp_path / "events.csv"
        save_events(ds, events)
        sr = tmp_path / "sr.csv"
        sr.write_text("topic_a,topic_b,metric,value\n100,101,w2v,0.9\n")
        report_digests = {}
        trace_blobs = set()
        for omega in ("1", "3", "5", "10", "all"):
            out = tmp_path / f"omega_{omega}"
            assert run(["evaluate", "--model", "semantic-truelearn",
                        "--data", events, "--sr-table", sr, "--omega", omega,
                        "--out-dir", out]) == 0
            report = json.loads((out / "report.json").read_text())
            report_digests[omega] = digest(out / "report.json")
            trace_blobs.add(json.dumps(report["models"][0]["learners"], sort_keys=True))
        assert len(report_digests) == 5
        # manifests differ (omega is recorded) but the replay outputs agree
        assert len(trace_blobs) == 1


class TestTuneCommand:
    def test_single_point_grid_returned(self, corpus, tmp_path):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"draw_margin_eps": [0.6], "beta": [1.0]}))
        out = tmp_path / "tune1"
        assert run(["tune", "--data", corpus["events"], "--grid", grid,
                    "--out-dir", out]) == 0
        best = json.loads((out / "best_config.json").read_text())
        assert best["config"]["draw_margin_eps"] == 0.6
        assert best["config"]["beta"] == 1.0

    def test_two_point_grid_picks_better(self, corpus, tmp_path):
        # On the clustered corpus beta=1.0/eps=0.6 separates engagement far
        # better than a tiny margin does.
        grid = tmp_path / "grid.json"
        grid.write_text(
            json.dumps({"beta": [1.0], "beta_perf": [0.25], "draw_margin_eps": [0.01, 0.6]})
        )
        out = tmp_path / "tune2"
        assert run(["tune", "--data", corpus["events"], "--grid", grid,
                    "--out-dir", out]) == 0
        best = json.loads((out / "best_config.json").read_text())
        assert best["config"]["draw_margin_eps"] == 0.6

    def test_tie_keeps_first_grid_point(self, corpus, tmp_path):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"dynamics_tau": [0.25, 0.25]}))
        out = tmp_path / "tune3"
        assert run(["tune", "--data", corpus["events"], "--grid", grid,
                    "--out-dir", out]) == 0
        rows = (out / "tuning_results.csv").read_text().splitlines()
        selected = [r for r in rows if r.endswith(",yes")]
        assert len(selected) == 1
        assert selected[0].startswith("0,")

    def test_semantic_tune_bytes_at_any_worker_count(self, corpus, tmp_path):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"draw_margin_eps": [0.01, 0.6]}))
        outs = []
        for workers in (1, 2, 3):
            out = tmp_path / f"w{workers}"
            assert run(["tune", "--model", "semantic-truelearn", "--data", corpus["events"],
                        "--sr-table", corpus["sr"], "--grid", grid, "--workers", workers,
                        "--out-dir", out]) == 0
            outs.append((digest(out / "best_config.json"), digest(out / "tuning_results.csv")))
        assert outs[0] == outs[1] == outs[2]

    def test_empty_grid_is_error(self, corpus, tmp_path):
        grid = tmp_path / "grid.json"
        grid.write_text("{}")
        assert run(["tune", "--data", corpus["events"], "--grid", grid]) == 2

    @pytest.mark.parametrize(
        "kind", ["missing", "not JSON", "nested too deep", "too many digits", "not UTF-8",
                 "directory"]
    )
    def test_unreadable_grid_is_data_error_before_loading(self, tmp_path, capsys, kind):
        grid = write_unreadable(tmp_path / "grid.json", kind)
        # The data file does not exist: loading it would fail with another message.
        assert run(["tune", "--data", tmp_path / "missing.csv", "--grid", grid]) == 2
        assert f"data error: cannot read grid file {grid}: " in capsys.readouterr().err

    @pytest.mark.parametrize("values", [[], 0.5, "0.5"])
    def test_grid_entry_that_is_not_a_non_empty_list_is_data_error_before_loading(
        self, tmp_path, capsys, values
    ):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"beta": values}))
        assert run(["tune", "--data", tmp_path / "missing.csv", "--grid", grid]) == 2
        assert "grid entry 'beta' must be a non-empty list" in capsys.readouterr().err

    @pytest.mark.parametrize("values", [["a"], [0.5, True]])
    def test_non_numeric_grid_value_is_usage_error_before_loading(self, tmp_path, values):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"beta": values}))
        assert run(["tune", "--data", tmp_path / "missing.csv", "--grid", grid]) == 1

    @pytest.mark.parametrize("values", PAST_THE_BOUNDS)
    def test_grid_point_past_a_bound_is_usage_error_before_loading(self, tmp_path, capsys, values):
        grid = tmp_path / "grid.json"
        # The first point, the default, is valid: the one past the bound is refused.
        grid.write_text(json.dumps({name: [getattr(ModelConfig(), name), value]
                                    for name, value in values.items()}))
        assert run(["tune", "--data", tmp_path / "missing.csv", "--grid", grid]) == 1
        assert f"{next(iter(values))} must" in capsys.readouterr().err

    def test_integer_too_large_for_a_float_is_usage_error_before_loading(self, tmp_path, capsys):
        grid = tmp_path / "grid.json"
        grid.write_text('{"beta": [0.5, 1' + "0" * 400 + "]}")
        assert run(["tune", "--data", tmp_path / "missing.csv", "--grid", grid]) == 1
        assert "beta must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("workers", [0, -1])
    def test_workers_below_one_is_usage_error_before_loading(self, tmp_path, workers):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"beta": [1.0]}))
        args = ["tune", "--data", tmp_path / "missing.csv", "--grid", grid, "--workers", workers]
        assert run(args) == 1

    @pytest.mark.parametrize("option,value", BAD_SPLIT_OPTIONS)
    def test_bad_split_option_is_usage_error_before_loading(self, tmp_path, option, value):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"beta": [1.0]}))
        args = ["tune", "--data", tmp_path / "missing.csv", "--grid", grid, option, value]
        assert run(args) == 1

    def test_config_is_the_base_of_every_grid_point(self, corpus, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"beta": 7.0, "draw_margin_eps": 0.3}))
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"draw_margin_eps": [0.01, 0.6]}))
        out = tmp_path / "tune_cfg"
        assert run(["tune", "--data", corpus["events"], "--grid", grid, "--config", cfg_path,
                    "--out-dir", out]) == 0
        rows = list(csv.DictReader(
            line for line in (out / "tuning_results.csv").read_text().splitlines()
            if not line.startswith("#")
        ))
        # The config sets beta everywhere; the grid's key overrides its margin.
        assert [(row["beta"], row["draw_margin_eps"]) for row in rows] == [
            ("7.0", "0.01"), ("7.0", "0.6"),
        ]
        assert json.loads((out / "best_config.json").read_text())["config"]["beta"] == 7.0

    @pytest.mark.parametrize("content", ['{"beta": "a"}', '{"no_such_key": 1.0}'])
    def test_bad_config_is_usage_error_before_loading(self, tmp_path, content):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(content)
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"draw_margin_eps": [0.6]}))
        assert run(["tune", "--data", tmp_path / "missing.csv", "--grid", grid,
                    "--config", cfg_path]) == 1

    # The event file is missing: reading it would exit 2.
    @pytest.mark.parametrize(
        "grid,key", [({"omega_size": [1, 3]}, "omega_size"), ({"betta": [1.0]}, "betta")]
    )
    def test_grid_key_that_is_not_a_model_key_is_usage_error_before_loading(
        self, tmp_path, capsys, grid, key
    ):
        grid_path = tmp_path / "grid.json"
        grid_path.write_text(json.dumps(grid))
        assert run(["tune", "--data", tmp_path / "missing.csv", "--grid", grid_path]) == 1
        assert f"config keys: [{key!r}]" in capsys.readouterr().err

    def test_load_grid_order(self, tmp_path):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"beta": [0.5, 1.0], "dynamics_tau": [0.0, 0.1]}))
        configs = load_grid(grid)
        assert [(c.beta, c.dynamics_tau) for c in configs] == [
            (0.5, 0.0), (0.5, 0.1), (1.0, 0.0), (1.0, 0.1),
        ]


class TestAnalyzeCommand:
    def test_two_reports_produce_tables(self, corpus, tmp_path):
        base_out = tmp_path / "base"
        sem_out = tmp_path / "sem"
        assert run(["evaluate", "--data", corpus["events"], "--out-dir", base_out]) == 0
        assert run(["evaluate", "--model", "semantic-truelearn", "--data", corpus["events"],
                    "--sr-table", corpus["sr"], "--out-dir", sem_out]) == 0
        out = tmp_path / "analysis"
        assert run(["analyze", base_out / "report.json", sem_out / "report.json",
                    "--data", corpus["events"], "--sr-table", corpus["sr"],
                    "--out-dir", out]) == 0
        srocc_rows = (out / "srocc.csv").read_text().splitlines()
        assert srocc_rows[1] == "# graph_features=full_session"
        assert srocc_rows[2] == "feature,truelearn-novel,semantic-truelearn"
        assert len(srocc_rows) == 3 + 6  # digest, metadata, header, six features
        recall_rows = (out / "recall_by_event.csv").read_text().splitlines()
        assert recall_rows[1] == "# recall=cumulative"
        assert recall_rows[2] == "n,recall_truelearn-novel,recall_semantic-truelearn"
        assert len(recall_rows) > 3

    def test_without_sr_table_is_usage_error_after_the_reports_are_read(
        self, corpus, tmp_path, capsys
    ):
        base_out = tmp_path / "base"
        assert run(["evaluate", "--data", corpus["events"], "--out-dir", base_out]) == 0
        capsys.readouterr()
        # The data file does not exist: loading it would exit 2.
        missing = tmp_path / "missing.csv"
        assert run(["analyze", base_out / "report.json", "--data", missing]) == 1
        assert "needs an SR table (--sr-table)" in capsys.readouterr().err
        # A report that is not one is read first, and refused as data.
        assert run(["analyze", missing, "--data", missing]) == 2

    def test_single_report(self, corpus, tmp_path):
        base_out = tmp_path / "base"
        assert run(["evaluate", "--data", corpus["events"], "--out-dir", base_out]) == 0
        out = tmp_path / "analysis"
        assert run(["analyze", base_out / "report.json", "--data", corpus["events"],
                    "--sr-table", corpus["sr"], "--out-dir", out]) == 0
        assert (out / "srocc.csv").read_text().splitlines()[2] == "feature,truelearn-novel"

    def test_report_from_other_dataset_refused(self, corpus, tmp_path):
        other = random_sessions(n_learners=12, seed=99)
        other_events = tmp_path / "other.csv"
        save_events(other, other_events)
        other_out = tmp_path / "other_run"
        assert run(["evaluate", "--data", other_events, "--out-dir", other_out]) == 0
        assert run(["analyze", other_out / "report.json", "--data", corpus["events"],
                    "--sr-table", corpus["sr"], "--out-dir", tmp_path / "x"]) == 2

    @pytest.mark.parametrize("content", [{"foo": 1}, [1, 2], "no learners"])
    def test_file_that_is_not_a_report_refused(self, corpus, tmp_path, content):
        if content == "no learners":
            content = {
                "manifest": {"inputs": {"data": digest(corpus["events"])}},
                "models": [{"model_id": "truelearn-novel", "learners": []}],
            }
        report = tmp_path / "report.json"
        report.write_text(json.dumps(content))
        assert run(["analyze", report, "--data", corpus["events"],
                    "--sr-table", corpus["sr"], "--out-dir", tmp_path / "x"]) == 2

    def test_mismatched_learner_sets_refused(self, corpus, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        assert run(["evaluate", "--data", corpus["events"], "--seed", "1", "--out-dir", a]) == 0
        assert run(["evaluate", "--data", corpus["events"], "--seed", "2", "--out-dir", b]) == 0
        assert run(["analyze", a / "report.json", b / "report.json",
                    "--data", corpus["events"], "--sr-table", corpus["sr"],
                    "--out-dir", tmp_path / "y"]) == 2

    @pytest.mark.parametrize("change", ["truncate", "unknown_learner"])
    def test_report_that_does_not_fit_the_data_is_data_error(self, corpus, tmp_path, change):
        base_out = tmp_path / "base"
        assert run(["evaluate", "--data", corpus["events"], "--out-dir", base_out]) == 0
        report = json.loads((base_out / "report.json").read_text())
        learner = report["models"][0]["learners"][0]
        if change == "truncate":
            learner["predictions"].pop()
            learner["labels"].pop()
        else:
            learner["learner_id"] = "not-in-the-data"
        edited = tmp_path / "edited.json"
        edited.write_text(json.dumps(report))
        assert run(["analyze", edited, "--data", corpus["events"],
                    "--sr-table", corpus["sr"], "--out-dir", tmp_path / "x"]) == 2

    @pytest.mark.parametrize(
        "change", ["no_predictions", "not_a_list", "unequal", "zero", "listed_twice"]
    )
    def test_malformed_learner_entry_is_data_error_before_loading(
        self, corpus, tmp_path, capsys, change
    ):
        base_out = tmp_path / "base"
        assert run(["evaluate", "--data", corpus["events"], "--out-dir", base_out]) == 0
        capsys.readouterr()
        report = json.loads((base_out / "report.json").read_text())
        learner = report["models"][0]["learners"][1]
        if change == "no_predictions":
            del learner["predictions"]
        elif change == "not_a_list":
            learner["predictions"] = 5
        elif change == "unequal":
            learner["labels"].pop()
        elif change == "listed_twice":
            report["models"][0]["learners"].append(dict(learner))
        else:
            learner["predictions"][0] = 0
        edited = tmp_path / "edited.json"
        edited.write_text(json.dumps(report))
        # The SR table does not exist: the entry must be refused before it is read.
        assert run(["analyze", edited, "--data", corpus["events"],
                    "--sr-table", tmp_path / "missing.csv", "--out-dir", tmp_path / "x"]) == 2
        err = capsys.readouterr().err
        assert "data error:" in err
        assert f"learner {learner['learner_id']!r}" in err

    @pytest.mark.parametrize(
        "change,message",
        [
            ("drop_one", "reports cover different learner sets"),
            ("keep_two", "reports cover 2 learner(s); analyze needs at least 3"),
        ],
        ids=["drop_one", "keep_two"],
    )
    def test_reports_unfit_for_analysis_are_data_error_before_loading(
        self, corpus, tmp_path, capsys, change, message
    ):
        base_out = tmp_path / "base"
        assert run(["evaluate", "--data", corpus["events"], "--out-dir", base_out]) == 0
        capsys.readouterr()
        report = json.loads((base_out / "report.json").read_text())
        reports = [tmp_path / "edited.json"]
        if change == "drop_one":
            report["models"][0]["learners"].pop()
            reports.insert(0, base_out / "report.json")
        else:
            for entry in report["models"]:
                entry["learners"] = entry["learners"][:2]
        reports[-1].write_text(json.dumps(report))
        # The SR table does not exist: the reports must be refused before it is read.
        assert run(["analyze", *reports, "--data", corpus["events"],
                    "--sr-table", tmp_path / "missing.csv", "--out-dir", tmp_path / "x"]) == 2
        err = capsys.readouterr().err
        assert "data error:" in err
        assert message in err

    @pytest.mark.parametrize("model_id", [None, ["truelearn-novel"]])
    def test_model_entry_without_string_id_is_data_error_before_loading(
        self, corpus, tmp_path, capsys, model_id
    ):
        base_out = tmp_path / "base"
        assert run(["evaluate", "--data", corpus["events"], "--out-dir", base_out]) == 0
        capsys.readouterr()
        report = json.loads((base_out / "report.json").read_text())
        if model_id is None:
            del report["models"][0]["model_id"]
        else:
            report["models"][0]["model_id"] = model_id
        edited = tmp_path / "edited.json"
        edited.write_text(json.dumps(report))
        assert run(["analyze", edited, "--data", corpus["events"],
                    "--sr-table", tmp_path / "missing.csv", "--out-dir", tmp_path / "x"]) == 2
        assert "no string model_id" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "learners,message",
        [
            (None, "cannot read report"),
            ({"a": 1}, "learners must be a list"),
            ([{"predictions": [1], "labels": [1]}], "no string learner_id"),
        ],
    )
    def test_unreadable_report_or_entry_is_data_error_before_loading(
        self, corpus, tmp_path, capsys, learners, message
    ):
        report = tmp_path / "report.json"  # not written when learners is None
        if learners is not None:
            report.write_text(json.dumps({
                "manifest": {"inputs": {"data": digest(corpus["events"])}},
                "models": [{"model_id": "truelearn-novel", "learners": learners}],
            }))
        assert run(["analyze", report, "--data", corpus["events"],
                    "--sr-table", tmp_path / "missing.csv", "--out-dir", tmp_path / "x"]) == 2
        assert message in capsys.readouterr().err

    def test_report_that_is_not_utf8_is_data_error_before_loading(self, corpus, tmp_path, capsys):
        report = write_unreadable(tmp_path / "report.json", "not UTF-8")
        assert run(["analyze", report, "--data", corpus["events"],
                    "--sr-table", tmp_path / "missing.csv", "--out-dir", tmp_path / "x"]) == 2
        assert f"cannot read report {report}" in capsys.readouterr().err

    def test_same_model_reports_keep_their_own_columns(self, corpus, tmp_path):
        # Two baseline reports with different configs share one model id;
        # each column must read what analyzing its report alone reads.
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"beta": 1.0, "beta_perf": 0.25, "draw_margin_eps": 0.6}))
        reports = []
        for name, config in (("default", []), ("tuned", ["--config", cfg_path])):
            assert run(["evaluate", "--data", corpus["events"], *config,
                        "--out-dir", tmp_path / name]) == 0
            reports.append(tmp_path / name / "report.json")

        def tables(paths, out):
            assert run(["analyze", *paths, "--data", corpus["events"],
                        "--sr-table", corpus["sr"], "--out-dir", out]) == 0
            return [
                [line.split(",") for line in (out / name).read_text().splitlines()[2:]]
                for name in ("srocc.csv", "recall_by_event.csv")
            ]

        both = tables(reports, tmp_path / "both")
        alone = [tables([path], tmp_path / f"alone{i}") for i, path in enumerate(reports)]
        assert alone[0][1] != alone[1][1]
        for table, first, second in zip(both, alone[0], alone[1]):
            assert [row[:2] for row in table] == first
            assert [[row[0], row[2]] for row in table] == second

    def test_fewer_than_three_learners_is_data_error(self, corpus, tmp_path, capsys):
        base_out = tmp_path / "base"
        assert run(["evaluate", "--data", corpus["events"], "--out-dir", base_out]) == 0
        report = json.loads((base_out / "report.json").read_text())
        del report["models"][0]["learners"][2:]
        edited = tmp_path / "edited.json"
        edited.write_text(json.dumps(report))
        assert run(["analyze", edited, "--data", corpus["events"],
                    "--sr-table", corpus["sr"], "--out-dir", tmp_path / "x"]) == 2
        assert "reports cover 2 learner(s)" in capsys.readouterr().err

    def test_graph_features_computed_once_per_learner(self, corpus, tmp_path, monkeypatch):
        base_out = tmp_path / "base"
        cmp_out = tmp_path / "cmp"
        assert run(["evaluate", "--data", corpus["events"], "--out-dir", base_out]) == 0
        assert run(["evaluate", "--compare", "--data", corpus["events"],
                    "--sr-table", corpus["sr"], "--out-dir", cmp_out]) == 0
        calls = {"build_topic_graph": [], "min_cut_set_size": []}
        for name in calls:
            real = getattr(evaluation, name)

            def counted(graph_input, *args, _real=real, _name=name, **kwargs):
                calls[_name].append(graph_input)
                return _real(graph_input, *args, **kwargs)

            monkeypatch.setattr(evaluation, name, counted)
        analyze_run([base_out / "report.json", cmp_out / "report.json"],
                    RunSpec(corpus["events"], sr_table_path=corpus["sr"]), tmp_path / "analysis")
        learners = json.loads((base_out / "report.json").read_text())["models"][0]["learners"]
        graph_learners = [events[0].learner_id for events in calls["build_topic_graph"]]
        assert sorted(graph_learners) == sorted(entry["learner_id"] for entry in learners)
        assert len(calls["min_cut_set_size"]) == len(learners)


class TestValidateData:
    def test_clean_file(self, corpus, capsys):
        assert run(["validate-data", "--data", corpus["events"],
                    "--sr-table", corpus["sr"]]) == 0
        out = capsys.readouterr().out
        assert "learners: 24" in out
        assert "malformed rows: 0" in out

    def test_malformed_rows_reported(self, tmp_path, capsys):
        path = tmp_path / "events.csv"
        path.write_text("learner_id,order_index,label,topics\na,0,1,1:0.5\na,1,9,1:0.5\n")
        assert run(["validate-data", "--data", path]) == 0
        assert "malformed rows: 1" in capsys.readouterr().out

    def test_infinite_json_number_is_a_malformed_row(self, tmp_path, capsys):
        path = tmp_path / "events.jsonl"
        path.write_text(
            '{"learner_id": "a", "order_index": 0, "label": 1, "topics": [[1, 0.5]]}\n'
            '{"learner_id": "a", "order_index": 1, "label": 1, "topics": [[1e400, 0.5]]}\n'
        )
        assert run(["validate-data", "--data", path]) == 0
        out = capsys.readouterr().out
        assert "malformed rows: 1" in out
        assert "first at line 2" in out

    def test_sr_coverage_counts_event_topics_with_a_row(self, tmp_path, capsys):
        path = tmp_path / "events.csv"
        path.write_text("learner_id,order_index,label,topics\na,0,1,1:0.5;2:0.5\na,1,1,3:0.5\n")
        sr = tmp_path / "sr.csv"
        sr.write_text("topic_a,topic_b,metric,value\n1,2,w2v,0.5\n2,9,w2v,0.5\n")
        assert run(["validate-data", "--data", path, "--sr-table", sr]) == 0
        assert "sr coverage: 2 of 3 event topics have a relatedness row" in (
            capsys.readouterr().out
        )
        # Topic 2 is cut by --top-topics, so only topics 1 and 3 are counted.
        assert run(["validate-data", "--data", path, "--sr-table", sr, "--top-topics", 1]) == 0
        assert "sr coverage: 1 of 2 event topics have a relatedness row" in (
            capsys.readouterr().out
        )

    def test_top_topics_loads_the_same_rows(self, tmp_path, capsys):
        eleven = ";".join(f"{t}:0.5" for t in range(11))
        path = tmp_path / "events.csv"
        path.write_text(
            "learner_id,order_index,label,topics\n"
            f"a,0,1,1:0.5\na,1,1,{eleven}\na,2,0,1:0.5;2:0.5;2:0.5\na,3,1,1:0.5;2:nan\n"
            "b,0,1,3:0.5;4:0.5\n"
        )

        def counts(*options):
            assert run(["validate-data", "--data", path, *options]) == 0
            return [line for line in capsys.readouterr().out.splitlines()
                    if line.startswith(("events:", "malformed rows:"))]

        assert counts() == counts("--top-topics", 1) == ["events: 2", "malformed rows: 3"]

    def test_long_sr_header_without_rows_is_a_table_with_no_pairs(self, corpus, tmp_path, capsys):
        sr = tmp_path / "sr.csv"
        sr.write_text("topic_a,topic_b,metric,value\n")
        assert run(["validate-data", "--data", corpus["events"], "--sr-table", sr]) == 0
        assert "sr pairs (w2v): 0" in capsys.readouterr().out

    def test_duplicate_key_exits_two(self, tmp_path):
        path = tmp_path / "events.csv"
        path.write_text("learner_id,order_index,label,topics\na,0,1,1:0.5\na,0,1,2:0.5\n")
        assert run(["validate-data", "--data", path]) == 2

    def test_non_finite_relatedness_exits_two(self, corpus, tmp_path, capsys):
        sr = tmp_path / "sr.csv"
        sr.write_text("topic_a,topic_b,metric,value\n1,2,w2v,nan\n")
        assert run(["validate-data", "--data", corpus["events"], "--sr-table", sr]) == 2
        assert "sr.csv:2: relatedness must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["events.csv", "events.jsonl"])
    def test_wrong_event_header_exits_two(self, tmp_path, capsys, name):
        path = tmp_path / name
        path.write_text("user,idx,y,topics\na,0,1,1:0.5\n")
        assert run(["validate-data", "--data", path]) == 2
        assert "expected header" in capsys.readouterr().err

    def test_sr_header_without_topic_columns_exits_two(self, corpus, tmp_path, capsys):
        sr = tmp_path / "sr.csv"
        sr.write_text("a,b,metric,value\n1,2,w2v,0.5\n")
        assert run(["validate-data", "--data", corpus["events"], "--sr-table", sr]) == 2
        assert "SR header must start with topic_a,topic_b" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["missing", "not UTF-8", "directory"])
    def test_unreadable_event_file_exits_two(self, tmp_path, capsys, kind):
        path = write_unreadable(tmp_path / "events.csv", kind)
        assert run(["validate-data", "--data", path]) == 2
        assert f"data error: cannot read event file {path}: " in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["missing", "not UTF-8", "directory"])
    def test_unreadable_sr_table_exits_two(self, corpus, tmp_path, capsys, kind):
        sr = write_unreadable(tmp_path / "sr.csv", kind)
        assert run(["validate-data", "--data", corpus["events"], "--sr-table", sr]) == 2
        assert f"data error: cannot read SR table {sr}: " in capsys.readouterr().err

    # A cell one character over the csv module's limit, in the header or in a row.
    @pytest.mark.parametrize("line_no", [1, 3])
    def test_event_cell_over_the_csv_field_limit_exits_two(self, tmp_path, capsys, line_no):
        lines = ["learner_id,order_index,label,topics", "a,0,1,1:0.5", "a,1,1,1:0.5"]
        lines[line_no - 1] += "x" * csv.field_size_limit()
        path = tmp_path / "events.csv"
        path.write_text("\n".join(lines) + "\n")
        assert run(["validate-data", "--data", path]) == 2
        assert f"data error: {path}:{line_no}: field larger than field limit" in (
            capsys.readouterr().err
        )

    @pytest.mark.parametrize("line_no", [1, 3])
    def test_sr_cell_over_the_csv_field_limit_exits_two(self, corpus, tmp_path, capsys, line_no):
        lines = ["topic_a,topic_b,metric,value", "0,1,w2v,0.5", "1,2,w2v,0.5"]
        lines[line_no - 1] += "x" * csv.field_size_limit()
        sr = tmp_path / "sr.csv"
        sr.write_text("\n".join(lines) + "\n")
        assert run(["validate-data", "--data", corpus["events"], "--sr-table", sr]) == 2
        assert f"data error: {sr}:{line_no}: field larger than field limit" in (
            capsys.readouterr().err
        )

    def test_csv_error_is_a_data_error_in_evaluate_and_tune(self, corpus, tmp_path, capsys):
        path = tmp_path / "events.csv"
        path.write_text(corpus["events"].read_text() + "x" * (csv.field_size_limit() + 1))
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"beta": [1.0]}))
        for command in (["evaluate"], ["tune", "--grid", grid]):
            assert run([*command, "--data", path, "--out-dir", tmp_path / "out"]) == 2
            assert "field larger than field limit" in capsys.readouterr().err

    def test_table_is_read_before_the_events_as_in_evaluate(self, tmp_path, capsys):
        # Both inputs are bad: every command reports the table's error, and validate-data
        # prints no event line before it.
        events = tmp_path / "events.csv"
        events.write_text("user,idx,y,topics\na,0,1,1:0.5\n")
        sr = tmp_path / "sr.csv"
        sr.write_text("topic_a,topic_b,metric,value\n1,2,w2v,nan\n")
        for command in (["validate-data"], ["evaluate", "--compare", "--out-dir", tmp_path / "out"]):
            assert run([*command, "--data", events, "--sr-table", sr]) == 2
            captured = capsys.readouterr()
            assert "sr.csv:2: relatedness must be finite" in captured.err, command
            assert captured.out == ""

    @pytest.mark.parametrize("k", ["0", "-1"])
    def test_top_topics_below_one_is_usage_error(self, corpus, k):
        assert run(["validate-data", "--data", corpus["events"], "--top-topics", k]) == 1
        assert run(["evaluate", "--data", corpus["events"], "--top-topics", k]) == 1


# The input files each command reads; evaluate and tune run with --config.
COMMAND_INPUTS = {
    "evaluate": ("events", "sr", "config"),
    "tune": ("events", "sr", "config", "grid"),
    "analyze": ("events", "sr", "report"),
    "validate-data": ("events", "sr"),
}
FUZZ_RUNS = [(command, name) for command, names in COMMAND_INPUTS.items() for name in names]


@pytest.fixture(scope="module")
def fuzz_inputs(tmp_path_factory):
    """Tiny valid inputs: events in both formats, with an evaluate --compare report
    of each, a long and a wide table, a config and a grid."""
    root = tmp_path_factory.mktemp("fuzz_inputs")
    dataset = random_sessions(n_learners=6, seed=1, topic_pool=6, min_events=2, max_events=4)
    table = random_sr_table(seed=1, topic_pool=6, n_pairs=8)
    for fmt in ("long", "wide"):
        write_sr_csv(table, root / f"sr.{fmt}", fmt)
    (root / "config.json").write_text(json.dumps({"draw_margin_eps": 0.6, "omega_size": 3}))
    (root / "grid.json").write_text(json.dumps({"draw_margin_eps": [0.3, 0.6]}))
    for fmt in ("csv", "jsonl"):
        save_events(dataset, root / f"events.{fmt}", fmt=fmt)
        files = {"events": root / f"events.{fmt}", "sr": root / "sr.long",
                 "config": root / "config.json", "out": root / fmt}
        assert run(fuzz_args("evaluate", files)) == 0
    return root


def fuzz_args(command, files):
    """``command``'s arguments, reading ``files`` and writing under ``files["out"]``."""
    inputs = ["--data", files["events"], "--sr-table", files["sr"], "--out-dir", files["out"]]
    if command == "evaluate":
        return ["evaluate", "--compare", *inputs, "--config", files["config"],
                "--train-fraction", "0.5"]
    if command == "tune":
        return ["tune", "--model", "semantic-truelearn", *inputs, "--config", files["config"],
                "--grid", files["grid"], "--train-fraction", "0.5"]
    if command == "analyze":
        return ["analyze", files["report"], *inputs]
    return ["validate-data", *inputs[:4]]


# A byte put in by an edit: half the time one the formats give meaning to.
FUZZ_BYTE = st.one_of(st.sampled_from(b',;:"{}[]\n0123456789.-e'), st.integers(0, 255))


def mutate(data: bytes, edits) -> bytes:
    """``data`` with each (offset, bytes cut, bytes put in) edit applied in turn."""
    for at, cut, blob in edits:
        at %= len(data) + 1
        data = data[:at] + blob + data[at + cut:]
    return data


@settings(max_examples=300, deadline=None)
@given(
    run_and_input=st.sampled_from(FUZZ_RUNS),
    event_fmt=st.sampled_from(["csv", "jsonl"]),
    sr_fmt=st.sampled_from(["long", "wide"]),
    edits=st.lists(
        st.tuples(st.integers(0, 2**16), st.integers(0, 2),
                  st.lists(FUZZ_BYTE, max_size=2).map(bytes)),
        min_size=1, max_size=3,
    ),
)
def test_mutated_input_exits_with_a_known_code(
    tmp_path_factory, fuzz_inputs, run_and_input, event_fmt, sr_fmt, edits
):
    command, mutated = run_and_input
    folder = tmp_path_factory.mktemp("fuzz")
    files = {"out": folder / "out"}
    for name, valid in [
        ("events", fuzz_inputs / f"events.{event_fmt}"),
        ("sr", fuzz_inputs / f"sr.{sr_fmt}"),
        ("config", fuzz_inputs / "config.json"),
        ("grid", fuzz_inputs / "grid.json"),
        ("report", fuzz_inputs / event_fmt / "report.json"),
    ]:
        data = valid.read_bytes()
        files[name] = folder / valid.name
        files[name].write_bytes(mutate(data, edits) if name == mutated else data)
    # No exception escapes main. A bad config or grid value is a usage error (1);
    # whatever is wrong with an events, table or report file is a data error (2).
    code = run(fuzz_args(command, files))
    assert code in ((0, 2) if mutated in ("events", "sr", "report") else (0, 1, 2))


def modules_loaded_by(code):
    """The modules in ``sys.modules`` after ``code`` runs in a fresh interpreter."""
    src = str(Path(semlearn.__file__).resolve().parents[1])
    script = f"{code}\nimport sys\nprint(' '.join(sys.modules))"
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, check=True).stdout
    return set(out.splitlines()[-1].split())


def test_cli_import_does_not_load_scipy_stats():
    assert "scipy.stats" not in modules_loaded_by("import semlearn.cli")


def test_cli_import_does_not_load_networkx():
    assert "networkx" not in modules_loaded_by("import semlearn.cli")


def test_cli_import_loads_neither_numpy_nor_scipy():
    loaded = modules_loaded_by("import semlearn.cli")
    assert "numpy" not in loaded and "scipy" not in loaded


def test_cli_import_does_not_load_click():
    loaded = modules_loaded_by("import semlearn.cli")
    assert not any(name == "click" or name.startswith("click.") for name in loaded)


def pyproject_project():
    """The ``[project]`` table of the pyproject.toml beside the source tree."""
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(semlearn.__file__).resolve().parents[2] / "pyproject.toml"
    if not pyproject.is_file():
        pytest.skip("pyproject.toml is not beside the source tree")
    with open(pyproject, "rb") as fh:
        return tomllib.load(fh)["project"]


def requirement_names(specs):
    return {re.match(r"[A-Za-z0-9_.-]+", spec).group(0).lower() for spec in specs}


def top_level_imports(paths):
    """The top-level modules that the files import, also inside functions (ast.walk
    reaches those) and through ``pytest.importorskip("name")``."""
    imported = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and node.func.attr == "importorskip"):
                imported.add(node.args[0].value.split(".")[0])
    return imported


def test_third_party_imports_are_the_declared_dependencies():
    declared = requirement_names(pyproject_project()["dependencies"])
    imported = top_level_imports(Path(semlearn.__file__).resolve().parent.glob("*.py"))
    assert imported - sys.stdlib_module_names - {"semlearn"} == declared


def test_test_suite_imports_are_declared_dependencies_or_test_extras():
    project = pyproject_project()
    declared = requirement_names(
        project["dependencies"] + project["optional-dependencies"]["test"]
    )
    tests = Path(__file__).resolve().parent
    local = {path.stem for path in tests.glob("*.py")}
    imported = top_level_imports(tests.glob("*.py"))
    assert imported - sys.stdlib_module_names - local - {"semlearn"} <= declared


# Definitions kept although nothing in src/semlearn refers to them, each with its reason.
UNREFERENCED_ALLOWED = {
    "_Parser.error": "argparse calls it on a bad command line",
    "multiply": "Gaussian algebra the acceptance tests pin",
    "divide": "Gaussian algebra the acceptance tests pin",
    "save_events": "the acceptance tests write corpora with it",
    "srocc_exact_permutation": "acceptance criterion 5 checks its p against oracles.spearman_exact_permutation_p",
    "predict": "the README's pure read; perfbench/tracer.py wraps it by name",
    "SRTable.set": "the README's way to build a table in code; the acceptance tests use it",
}


def test_every_definition_is_referenced_in_the_package():
    # A reference is a name or an attribute: imports (the re-exports in
    # __init__.py) and strings (docstrings, __all__) do not count, and
    # neither does a definition's use of itself. A definition in a class body
    # is reached only through an attribute (x.set): a bare name, such as the
    # builtin set(...), does not reach SRTable.set.
    package = Path(semlearn.__file__).resolve().parent
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in package.glob("*.py")]

    def used(node):
        # Keyed by (name, whether it is an attribute).
        return Counter(
            (n.attr, True) if isinstance(n, ast.Attribute) else (n.id, False)
            for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))
        )

    references = sum(map(used, trees), Counter())
    owner = {
        child: node.name
        for tree in trees for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
        for child in node.body
    }

    def reached(counts, node):
        return counts[node.name, True] + (0 if node in owner else counts[node.name, False])
    unreferenced = sorted(
        f"{owner[node]}.{node.name}" if node in owner else node.name
        for tree in trees for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))  # language hooks
        and reached(references, node) == reached(used(node), node)
    )
    assert unreferenced == sorted(UNREFERENCED_ALLOWED)


def test_cli_import_does_not_load_the_process_pool():
    # A pool is started only by a replay at more than one worker.
    assert "concurrent.futures.process" not in modules_loaded_by("import semlearn.cli")


def test_analyze_and_validate_data_load_neither_numpy_nor_scipy(corpus, tmp_path):
    base_out = tmp_path / "base"
    assert run(["evaluate", "--data", corpus["events"], "--out-dir", base_out]) == 0
    commands = [
        ["analyze", base_out / "report.json", "--data", corpus["events"],
         "--sr-table", corpus["sr"], "--out-dir", tmp_path / "analysis"],
        ["validate-data", "--data", corpus["events"], "--sr-table", corpus["sr"]],
    ]
    for args in commands:
        loaded = modules_loaded_by(
            f"from semlearn.cli import main\nassert main({[str(a) for a in args]!r}) == 0"
        )
        assert "numpy" not in loaded and "scipy" not in loaded, args[0]
    assert (tmp_path / "analysis" / "srocc.csv").exists()


def test_pool_parent_loads_scipy_before_forking(corpus):
    # The workers fork from the parent and inherit scipy.special from it
    # instead of each importing it again.
    loaded = modules_loaded_by(
        "from semlearn.data import load_events\n"
        "from semlearn.novel import ModelConfig\n"
        "from semlearn.runs import replay_cohort\n"
        f"ds = load_events({str(corpus['events'])!r})\n"
        "replay_cohort(ds, sorted(ds.learners)[:4], [(ModelConfig(), None)], workers=2)"
    )
    assert "scipy.special" in loaded


@pytest.mark.parametrize("command", ["evaluate", "tune"])
def test_a_command_starts_one_pool(corpus, tmp_path, monkeypatch, command):
    # One work item is one learner under every model or grid point.
    starts = []
    real = runs.ProcessPoolExecutor

    def counted(**kwargs):
        starts.append(kwargs)
        return real(**kwargs)

    monkeypatch.setattr(runs, "ProcessPoolExecutor", counted)
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"draw_margin_eps": [0.01, 0.6]}))
    args = {
        "evaluate": ["evaluate", "--compare"],
        "tune": ["tune", "--model", "semantic-truelearn", "--grid", grid],
    }[command]
    assert run([*args, "--data", corpus["events"], "--sr-table", corpus["sr"], "--workers", 2,
                "--out-dir", tmp_path / "out"]) == 0
    assert len(starts) == 1


def test_pool_is_no_larger_than_the_learners_replayed(corpus, tmp_path, monkeypatch):
    requested = []
    real = runs.ProcessPoolExecutor

    def recorded(max_workers, **kwargs):
        # Note the request, but start no more than 2 processes.
        requested.append(max_workers)
        return real(max_workers=min(max_workers, 2), **kwargs)

    monkeypatch.setattr(runs, "ProcessPoolExecutor", recorded)
    outs = {}
    for workers in (64, 1):
        outs[workers] = tmp_path / f"w{workers}"
        assert run(["evaluate", "--data", corpus["events"], "--workers", workers,
                    "--out-dir", outs[workers]]) == 0
    n_test = json.loads((outs[64] / "report.json").read_text())["n_test_learners"]
    assert len(requested) == 1 and 2 <= requested[0] <= n_test
    assert digest(outs[64] / "report.json") == digest(outs[1] / "report.json")


@pytest.mark.parametrize("method", multiprocessing.get_all_start_methods())
def test_replay_bytes_under_every_start_method(corpus, tmp_path, monkeypatch, method):
    # A forked worker inherits the parent's modules and variants; a spawned
    # or forkserver one imports semlearn and unpickles the variants afresh.
    starts = []
    real = runs.ProcessPoolExecutor

    def with_method(**kwargs):
        starts.append(method)
        return real(mp_context=multiprocessing.get_context(method), **kwargs)

    args = ["evaluate", "--compare", "--data", corpus["events"], "--sr-table", corpus["sr"],
            "--seed", 7]
    assert run([*args, "--workers", 1, "--out-dir", tmp_path / "serial"]) == 0
    monkeypatch.setattr(runs, "ProcessPoolExecutor", with_method)
    assert run([*args, "--workers", 2, "--out-dir", tmp_path / method]) == 0
    assert starts == [method]
    assert digest(tmp_path / method / "report.json") == digest(tmp_path / "serial" / "report.json")


def test_setup_probe_reports_its_stages(corpus):
    # perfbench/setup_probe.py times setup through these runs attributes and
    # Dataset methods; a rename here would stop the probe.
    probe = Path(__file__).resolve().parents[1] / "perfbench" / "setup_probe.py"
    if not probe.is_file():
        pytest.skip("perfbench/ is not beside the tests")
    src = str(Path(semlearn.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, str(probe), "--data", str(corpus["events"]),
         "--sr-table", str(corpus["sr"]), "--split"],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, check=True,
    ).stdout
    result = json.loads(out.splitlines()[-1])
    assert set(result) == {"import_s", "load_events_s", "load_sr_table_s", "split_learners_s",
                           "n_events", "train_events", "test_events"}
    assert result["n_events"] == corpus["dataset"].n_events
    assert result["train_events"] + result["test_events"] == result["n_events"]


def test_benchmark_tracer_finds_what_it_wraps(corpus, tmp_path):
    # perfbench/tracer.py replaces module attributes by name and reads
    # replay_cohort's workers by keyword; a rename here silently empties a metric.
    tracer_path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    if not tracer_path.is_file():
        pytest.skip("perfbench/ is not beside the tests")
    args = ["evaluate", "--compare", "--workers", "2", "--data", str(corpus["events"]),
            "--sr-table", str(corpus["sr"]), "--out-dir", str(tmp_path / "out")]
    script = (
        "import importlib, json, sys\n"
        f"sys.path.insert(0, {str(tracer_path.parent)!r})\n"
        "import tracer\n"
        "names = [*tracer.RUNS_SPANS, *tracer.STEP_SPANS, ('semlearn.runs', 'ProcessPoolExecutor')]\n"
        "missing = [n for n in names if not hasattr(importlib.import_module(n[0]), n[1])]\n"
        "t = tracer.Tracer()\n"
        "tracer.install(t, 'runs')\n"
        "from semlearn.cli import main\n"
        f"code = main({args!r})\n"
        "replays = list(t.name_id).count(t.names.index('runs.replay_cohort'))\n"
        "print(json.dumps({'missing': missing, 'code': code, 'replays': replays,\n"
        "                  'counters': t.counters}))\n"
    )
    src = str(Path(semlearn.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, check=True).stdout
    result = json.loads(out.splitlines()[-1])
    assert result["missing"] == []
    assert result["code"] == 0
    assert result["replays"] == 1
    assert result["counters"]["runs.pool_starts"] == 1
    assert "runs.replay_cohort.parallel_s" in result["counters"]


def test_benchmark_workloads_match_the_seed_one_reference(tmp_path, monkeypatch):
    # perfbench/run.py's byte-identity check, in process at one worker: every input
    # and every command's outputs against seed 1 of perfbench/reference.json.
    bench = Path(__file__).resolve().parents[1] / "perfbench"
    if not (bench / "run.py").is_file():
        pytest.skip("perfbench/ is not beside the tests")
    pytest.importorskip("numpy")
    monkeypatch.syspath_prepend(str(bench))
    bench_run = importlib.import_module("run")
    monkeypatch.setattr(bench_run, "OUT", tmp_path)  # inputs are written here, not in perfbench/
    reference = bench_run.load_reference("full", 1)
    inputs = bench_run.make_inputs(1, "full")
    assert {key: digest(path) for key, path in inputs.items()} == reference["inputs"]
    for name, workload in bench_run.WORKLOADS.items():
        work = tmp_path / name
        commands = workload.prepare(inputs, work)
        commands["outputs"] = workload.command(inputs, work, work / "outputs", 1)
        for key, command in commands.items():
            assert run(command.args) == 0, (name, key)
            written = {output: digest(work / key / output) for output in command.outputs}
            assert written == reference[name][key], (name, key)


class TestRunHelpers:
    def test_select_top_learners_tie_break(self):
        ds = random_sessions(n_learners=6, seed=2, min_events=3, max_events=3)
        subset = select_top_learners(ds, 4)
        assert sorted(subset.learners) == sorted(ds.learners)[:4]

    def test_select_top_learners_below_one_is_rejected(self):
        with pytest.raises(ValueError, match="top_learners must be >= 1, got 0"):
            select_top_learners(random_sessions(n_learners=3, seed=2), 0)

    def test_evaluate_run_report_embeds_manifest_digest(self, corpus, tmp_path):
        out = evaluate_run(RunSpec(corpus["events"], seed=3), tmp_path / "api_run")
        report = out["report_obj"]
        assert report["manifest_digest"]
        assert report["manifest"]["inputs"]["data"]

    def test_traces_share_the_four_outcome_objects(self, corpus):
        ds = split_learners(corpus["dataset"], 0.7, 42)
        cfg = ModelConfig()
        expected = {}
        for lid in ds.test_ids():
            model = {}
            expected[lid] = [(update(model, ev, cfg)[1], ev.label) for ev in ds.learners[lid]]
        for workers in (1, 2):
            [traces] = runs.replay_cohort(ds, ds.test_ids(), [(cfg, None)], workers=workers)
            assert traces == expected
            # Pickle keeps shared objects shared within one returned chunk of learners.
            assert len({id(outcome) for trace in traces.values() for outcome in trace}) <= 4

    @pytest.mark.parametrize(
        "model,message", [("semantic-truelearn", "needs an SR table"), ("bogus", "unknown model")]
    )
    def test_model_is_checked_before_the_data_is_read(self, tmp_path, model, message):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"beta": [1.0]}))
        missing = tmp_path / "missing.csv"
        with pytest.raises(ValueError, match=message):
            evaluate_run(RunSpec(missing), tmp_path / "out", model)
        with pytest.raises(ValueError, match=message):
            tune_run(RunSpec(missing), grid, tmp_path / "out", model)


def canonical_digest(manifest):
    """The sha256 of a manifest's canonical JSON, computed here rather than by RunManifest."""
    canonical = json.dumps(manifest, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


MODEL_CONFIG = {"beta": 0.5, "beta_perf": 0.5, "decision_threshold": 0.5,
                "depth_skill_level": 0.0, "draw_margin_eps": 0.3, "dynamics_tau": 0.0}
COMPARE_OPTIONS = ["--seed", "7", "--omega", "3", "--train-fraction", "0.6",
                   "--top-learners", "20", "--sr-metric", "w2v"]
COMPARE_CONFIG = {"draw_margin_eps": 0.6, "mixing_mode": "inverse_standard_error"}


class TestManifests:
    """The four commands' manifests as literals, so that no change to how they are built
    moves a byte. Input digests depend on where the corpus lies: only their names are pinned."""

    def check(self, manifest, digest, expected):
        assert {**manifest, "inputs": sorted(manifest["inputs"])} == expected
        assert digest == canonical_digest(manifest)

    def test_evaluate_baseline(self, corpus, tmp_path):
        assert run(["evaluate", "--data", corpus["events"], "--out-dir", tmp_path]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        self.check(report["manifest"], report["manifest_digest"], {
            "command": "evaluate", "inputs": ["data"], "model_config": MODEL_CONFIG,
            "models": ["truelearn-novel"], "outputs": ["report.json", "summary.csv"],
            "package_version": "0.1.0", "propagation_config": None, "seed": 42,
            "top_learners": None, "train_fraction": 0.7,
        })

    def test_evaluate_compare(self, corpus, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(COMPARE_CONFIG))
        assert run(["evaluate", "--compare", "--data", corpus["events"], "--sr-table", corpus["sr"],
                    "--config", cfg, *COMPARE_OPTIONS, "--out-dir", tmp_path / "out"]) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        self.check(report["manifest"], report["manifest_digest"], {
            "command": "evaluate", "inputs": ["data", "sr_table"],
            "model_config": {**MODEL_CONFIG, "draw_margin_eps": 0.6},
            "models": ["truelearn-novel", "semantic-truelearn"],
            "outputs": ["report.json", "summary.csv"], "package_version": "0.1.0",
            "propagation_config": {"mixing_mode": "inverse_standard_error", "omega_size": 3,
                                   "sr_metric": "w2v", "variance_source": "source_skill"},
            "seed": 7, "top_learners": 20, "train_fraction": 0.6,
        })

    def test_tune(self, corpus, tmp_path):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"draw_margin_eps": [0.01, 0.6]}))
        assert run(["tune", "--model", "semantic-truelearn", "--data", corpus["events"],
                    "--sr-table", corpus["sr"], "--grid", grid, "--out-dir", tmp_path / "out"]) == 0
        best = json.loads((tmp_path / "out" / "best_config.json").read_text())
        self.check(best["manifest"], best["manifest_digest"], {
            "command": "tune", "inputs": ["data", "grid", "sr_table"],
            "model_config": {**MODEL_CONFIG, "draw_margin_eps": 0.6},
            "models": ["semantic-truelearn"],
            "outputs": ["best_config.json", "tuning_results.csv"], "package_version": "0.1.0",
            "propagation_config": {"mixing_mode": "semantic_relatedness", "omega_size": None,
                                   "sr_metric": "w2v", "variance_source": "source_skill"},
            "seed": 42, "top_learners": None, "train_fraction": 0.7,
        })

    @pytest.mark.parametrize("command, written", [
        ("evaluate", "report.json"), ("tune", "best_config.json"),
    ])
    def test_top_topics_is_recorded_when_set(self, corpus, tmp_path, command, written):
        # Manifests without the key, every one above included, mean no truncation.
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"beta": [0.5]}))
        grid_args = ["--grid", grid] if command == "tune" else []
        assert run([command, "--data", corpus["events"], *grid_args, "--top-topics", 1,
                    "--out-dir", tmp_path / "out"]) == 0
        out = json.loads((tmp_path / "out" / written).read_text())
        assert out["manifest"]["top_topics"] == 1
        assert out["manifest_digest"] == canonical_digest(out["manifest"])

    def test_analyze(self, corpus, tmp_path):
        # analyze writes only the digest, so the test rebuilds the manifest it stands for.
        report = tmp_path / "base" / "report.json"
        assert run(["evaluate", "--data", corpus["events"], "--out-dir", report.parent]) == 0
        assert run(["analyze", report, "--data", corpus["events"], "--sr-table", corpus["sr"],
                    "--out-dir", tmp_path / "out"]) == 0
        manifest = {
            "command": "analyze",
            "inputs": {"data": digest(corpus["events"]), "sr_table": digest(corpus["sr"]),
                       "report_0": digest(report)},
            "model_config": {}, "models": ["truelearn-novel"],
            "outputs": ["srocc.csv", "recall_by_event.csv"], "package_version": "0.1.0",
            "propagation_config": None, "seed": None, "top_learners": None,
            "train_fraction": None,
        }
        for name in manifest["outputs"]:
            first_line = (tmp_path / "out" / name).read_text().splitlines()[0]
            assert first_line == f"# manifest_digest={canonical_digest(manifest)}"

    def test_analyze_records_top_topics(self, corpus, tmp_path):
        report = tmp_path / "base" / "report.json"
        assert run(["evaluate", "--data", corpus["events"], "--out-dir", report.parent]) == 0
        first_lines = set()
        for name, top_topics in [("all", []), ("top1", ["--top-topics", 1])]:
            assert run(["analyze", report, "--data", corpus["events"], "--sr-table", corpus["sr"],
                        *top_topics, "--out-dir", tmp_path / name]) == 0
            first_lines.add((tmp_path / name / "srocc.csv").read_text().splitlines()[0])
        assert len(first_lines) == 2

    def test_cli_and_evaluate_run_write_the_same_report(self, corpus, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(COMPARE_CONFIG))
        assert run(["evaluate", "--compare", "--data", corpus["events"], "--sr-table", corpus["sr"],
                    "--config", cfg, *COMPARE_OPTIONS, "--out-dir", tmp_path / "cli"]) == 0
        spec = RunSpec(
            corpus["events"], corpus["sr"], ModelConfig(draw_margin_eps=0.6),
            PropagationConfig(omega_size=3, mixing_mode="inverse_standard_error"),
            seed=7, train_fraction=0.6, top_learners=20,
        )
        evaluate_run(spec, tmp_path / "api", compare=True)
        assert (tmp_path / "cli" / "report.json").read_bytes() == (
            tmp_path / "api" / "report.json"
        ).read_bytes()


# RunSpec fields that change a run's outputs but not its manifest, each with its reason.
# Recording them changes every output digest, perfbench/reference.json included.
MANIFEST_GAPS = {
    "analyze sr_metric": "analyze records its inputs' digests only, not the metric of the table",
}

# Run-command options that are not RunSpec fields, each with where it goes instead.
RUN_ARGUMENTS = {
    "workers": "the pool size; outputs are the same bytes at any worker count",
    "model": "the model evaluate or tune replays, recorded as the manifest's models",
    "compare": "evaluate replays both models, recorded as the manifest's models",
    "out_dir": "where the outputs go",
    "grid_path": "tune's grid, recorded as its input digest",
    "reports": "analyze's reports, recorded as its input digests",
    "config_path": "feeds model_config and propagation_config",
    "omega": "feeds propagation_config",
    "sr_metric": "feeds propagation_config",
}


def two_metric_table(corpus, tmp_path):
    """One file, two tables: every w2v pair of the corpus, and one mw pair."""
    table = tmp_path / "two_metrics.csv"
    lines = corpus["sr"].read_text().splitlines()
    a, b, _, _ = lines[1].split(",")
    table.write_text("\n".join([*lines, f"{a},{b},mw,0.5"]) + "\n")
    return table


class TestRunSpec:
    def test_every_run_option_is_a_spec_field_or_a_listed_argument(self):
        commands = next(
            action for action in _parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        ).choices
        spec_fields = {f.name for f in fields(RunSpec)}
        dests = {
            action.dest for name in ("evaluate", "tune", "analyze")
            for action in commands[name]._actions if action.dest != "help"
        }
        assert dests - spec_fields == set(RUN_ARGUMENTS)
        # The configs come from --config, --omega and --sr-metric, the rest by name.
        assert spec_fields - dests == {"model_config", "propagation_config"}

    def test_every_spec_field_is_recorded_or_a_listed_gap(self, corpus, tmp_path):
        twin = tmp_path / "events.jsonl"  # the same events in other bytes
        save_events(corpus["dataset"], twin, "jsonl")
        variants = {
            "data_path": twin,
            "sr_table_path": corpus["zero_sr"],
            "model_config": ModelConfig(beta=1.0),
            "propagation_config": PropagationConfig(omega_size=3),
            "seed": 7,
            "train_fraction": 0.5,
            "top_learners": 20,
            "top_topics": 1,
        }
        assert set(variants) == {f.name for f in fields(RunSpec)}

        def manifest_digest(name, spec):
            out = evaluate_run(spec, tmp_path / name, compare=True)
            return out["report_obj"]["manifest_digest"]

        base = RunSpec(corpus["events"], corpus["sr"])
        base_digest = manifest_digest("base", base)
        for field_name, value in variants.items():
            varied = manifest_digest(field_name, replace(base, **{field_name: value}))
            assert (varied != base_digest) == (field_name not in MANIFEST_GAPS), field_name

    @pytest.mark.parametrize("flags, expected", [
        ({}, PropagationConfig("mw", 3)),
        ({"sr_metric": "w2v"}, PropagationConfig("w2v", 3)),
        ({"omega": "all"}, PropagationConfig("mw", None)),
        ({"sr_metric": "w2v", "omega": "all"}, PropagationConfig("w2v", None)),
    ])
    def test_flags_lay_over_the_config_keys(self, corpus, tmp_path, flags, expected):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"sr_metric": "mw", "omega_size": 3}))
        assert _spec(cfg, data_path=corpus["events"], **flags).propagation_config == expected
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"beta": [0.5]}))
        args = ["--model", "semantic-truelearn", "--data", corpus["events"], "--config", cfg,
                "--sr-table", two_metric_table(corpus, tmp_path)]
        for name, value in flags.items():
            args += [f"--{name.replace('_', '-')}", value]
        for command, extra, written in [
            ("evaluate", [], "report.json"), ("tune", ["--grid", grid], "best_config.json"),
        ]:
            assert run([command, *args, *extra, "--out-dir", tmp_path / command]) == 0
            manifest = json.loads((tmp_path / command / written).read_text())["manifest"]
            assert manifest["propagation_config"] == asdict(expected)

    def test_analyze_sr_metric_is_a_listed_gap(self, corpus, tmp_path):
        assert "analyze sr_metric" in MANIFEST_GAPS
        report = tmp_path / "base" / "report.json"
        assert run(["evaluate", "--data", corpus["events"], "--out-dir", report.parent]) == 0
        table = two_metric_table(corpus, tmp_path)
        digests = set()
        for metric in ("w2v", "mw"):
            out = tmp_path / metric
            assert run(["analyze", report, "--data", corpus["events"], "--sr-table", table,
                        "--sr-metric", metric, "--out-dir", out]) == 0
            digests.add((out / "srocc.csv").read_text().splitlines()[0])
        assert len(digests) == 1
