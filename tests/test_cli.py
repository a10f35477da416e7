import hashlib
import json

import pytest

from semlearn.cli import main
from semlearn.data import save_events
from semlearn.runs import evaluate_run, load_grid, select_top_learners

from synthetic import clustered_corpus, random_sessions, write_sr_csv


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


def digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run(args):
    return main([str(a) for a in args])


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

    def test_unknown_flag_is_usage_error(self, corpus):
        assert run(["evaluate", "--data", corpus["events"], "--bogus"]) == 1

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

    def test_empty_grid_is_error(self, corpus, tmp_path):
        grid = tmp_path / "grid.json"
        grid.write_text("{}")
        assert run(["tune", "--data", corpus["events"], "--grid", grid]) == 2

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

    def test_duplicate_key_exits_two(self, tmp_path):
        path = tmp_path / "events.csv"
        path.write_text("learner_id,order_index,label,topics\na,0,1,1:0.5\na,0,1,2:0.5\n")
        assert run(["validate-data", "--data", path]) == 2


class TestRunHelpers:
    def test_select_top_learners_tie_break(self):
        ds = random_sessions(n_learners=6, seed=2, min_events=3, max_events=3)
        subset = select_top_learners(ds, 4)
        assert subset.learner_ids() == sorted(ds.learner_ids())[:4]

    def test_evaluate_run_report_embeds_manifest_digest(self, corpus, tmp_path):
        out = evaluate_run(corpus["events"], tmp_path / "api_run", seed=3)
        report = out["report_obj"]
        assert report["manifest_digest"]
        assert report["manifest"]["inputs"]["data"]
