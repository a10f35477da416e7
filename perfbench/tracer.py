"""Run one ``semlearn`` CLI command in this process with its layers traced.

Usage::

    python3 perfbench/tracer.py --level full|runs --out SPANS.npz -- <cli args...>

The library is not edited. The module attributes that callers resolve at
call time are replaced by wrappers that record one span per call (name,
start, end, parent span) in memory, and a few counters read from the calls'
arguments and return values. Everything is written to ``--out`` when the
command ends.

``--level runs`` wraps only the run-level functions of ``semlearn.runs``;
its overhead is negligible, so it is used to time ``replay_cohort`` at two
workers. Spans do not come back from forked pool workers, so per-event
layers are traced only at one worker (``--level full``).
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import pickle
import sys
import time
from array import array
from pathlib import Path

import numpy as np

# (module, attribute) -> span name. Names use the module that defines the
# function; the attribute replaced is the one its caller looks up.
RUNS_SPANS = {
    ("semlearn.runs", "load_events"): "data.load_events",
    ("semlearn.runs", "load_sr_table"): "relatedness.load_sr_table",
    ("semlearn.runs", "split_learners"): "data.split_learners",
    ("semlearn.runs", "replay_cohort"): "runs.replay_cohort",
    ("semlearn.runs", "score_learner"): "evaluation.score_learner",
    ("semlearn.runs", "aggregate"): "evaluation.aggregate",
    ("semlearn.runs", "paired_t_test_one_tailed"): "evaluation.paired_t_test_one_tailed",
    ("semlearn.runs", "write_json_report"): "runs.write_json_report",
    ("semlearn.runs", "session_feature_table"): "evaluation.session_feature_table",
    ("semlearn.runs", "session_feature_srocc"): "evaluation.session_feature_srocc",
    ("semlearn.runs", "recall_by_event_index"): "evaluation.recall_by_event_index",
}
STEP_SPANS = {
    ("semlearn.novel", "predict"): "novel.predict",
    ("semlearn.novel", "update"): "novel.update",
    ("semlearn.novel", "truncated_moments_within"): "gaussians.truncated_moments",
    ("semlearn.novel", "truncated_moments_above"): "gaussians.truncated_moments",
    ("semlearn.semantic", "propagate_prior"): "semantic.propagate_prior",
    ("semlearn.semantic", "related_seen_topics"): "relatedness.related_seen_topics",
    ("semlearn.evaluation", "build_topic_graph"): "relatedness.build_topic_graph",
    ("semlearn.evaluation", "min_cut_set_size"): "relatedness.min_cut_set_size",
}


class Tracer:
    """Spans kept in flat arrays, so millions of calls stay small in memory."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack: list[int] = []
        self.counters: dict[str, float] = {}
        self.graphs: list[dict] = []
        self.graph_owner: dict[int, tuple[object, str]] = {}

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def wrap(self, module, attr: str, name: str, observe=None) -> None:
        fn = getattr(module, attr)
        nid = self._name_ids.setdefault(name, len(self._name_ids))
        if nid == len(self.names):
            self.names.append(name)
        stack, start, end, parent, name_id = self._stack, self.start, self.end, self.parent, self.name_id
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                start[idx] = t0
                stack.pop()
            if observe is not None:
                observe(args, kwargs, result, end[idx] - t0)
            return result

        setattr(module, attr, traced)

    def dump(self, path: Path, extra: dict) -> None:
        np.savez(
            path,
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int32),
        )
        meta = {"names": self.names, "counters": self.counters, "graphs": self.graphs, **extra}
        path.with_suffix(".json").write_text(json.dumps(meta, indent=1), encoding="utf-8")


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _observers(tracer: Tracer) -> dict[str, object]:
    """Counters taken at the span boundaries, keyed by span name."""

    def load_events(args, kwargs, dataset, seconds):
        tracer.count("data.rows_read", dataset.ingest.rows_read if dataset.ingest else dataset.n_events)

    def replay_cohort(args, kwargs, traces, seconds):
        if _arg(args, kwargs, 6, "workers", 1) > 1:
            tracer.count("runs.replay_cohort.parallel_s", seconds)
        else:
            tracer.count("runs.replay_cohort.serial_s", seconds)

    def write_json_report(args, kwargs, result, seconds):
        tracer.count("runs.report_bytes", Path(_arg(args, kwargs, 1, "path")).stat().st_size)

    def related_seen_topics(args, kwargs, neighbours, seconds):
        tracer.count("relatedness.seen_probed", len(_arg(args, kwargs, 2, "seen")))
        tracer.count("relatedness.neighbours_returned", len(neighbours))

    def propagate_prior(args, kwargs, prior, seconds):
        default_variance = _arg(args, kwargs, 4, "default_variance")
        if prior.mean == 0.0 and prior.variance == default_variance:
            tracer.count("semantic.fallbacks")

    def truncated_moments(args, kwargs, vw, seconds):
        v, w = vw
        if w == 1.0 or (v == 0.0 and w == 0.0):
            tracer.count("gaussians.saturated")

    def build_topic_graph(args, kwargs, graph, seconds):
        events = list(args[0])
        learner = events[0].learner_id if events and hasattr(events[0], "learner_id") else ""
        # Keep the graph alive so its id cannot be reused before the
        # connectivity call that follows looks it up.
        tracer.graph_owner[id(graph)] = (graph, learner)

    def min_cut_set_size(args, kwargs, kappa, seconds):
        graph = _arg(args, kwargs, 0, "graph")
        _, learner = tracer.graph_owner.pop(id(graph), (None, ""))
        tracer.graphs.append(
            {
                "learner": learner,
                "nodes": len(graph.nodes),
                "edges": len(graph.edges),
                "kappa": int(kappa),
                "seconds": seconds,
            }
        )

    return {
        "data.load_events": load_events,
        "runs.replay_cohort": replay_cohort,
        "runs.write_json_report": write_json_report,
        "relatedness.related_seen_topics": related_seen_topics,
        "semantic.propagate_prior": propagate_prior,
        "gaussians.truncated_moments": truncated_moments,
        "relatedness.build_topic_graph": build_topic_graph,
        "relatedness.min_cut_set_size": min_cut_set_size,
    }


def install(tracer: Tracer, level: str) -> None:
    runs = importlib.import_module("semlearn.runs")
    observers = _observers(tracer)
    spans = dict(RUNS_SPANS)
    if level == "full":
        spans.update(STEP_SPANS)
    for (module_name, attr), name in spans.items():
        tracer.wrap(importlib.import_module(module_name), attr, name, observers.get(name))

    real_replay = runs.replay_cohort

    def replay_cohort(dataset, learner_ids, *args, **kwargs):
        # Pickled size of the items a pool ships, measured outside the span.
        if _arg(args, kwargs, 4, "workers", 1) > 1:
            size = sum(len(pickle.dumps((lid, dataset.learners[lid]))) for lid in learner_ids)
            tracer.count("runs.items_pickled_bytes", size)
        return real_replay(dataset, learner_ids, *args, **kwargs)

    runs.replay_cohort = replay_cohort

    real_pool = runs.ProcessPoolExecutor

    def process_pool(*args, **kwargs):
        tracer.count("runs.pool_starts")
        return real_pool(*args, **kwargs)

    runs.ProcessPoolExecutor = process_pool


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--level", choices=("full", "runs"), required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    t0 = time.perf_counter()
    cli = importlib.import_module("semlearn.cli")
    import_s = time.perf_counter() - t0
    tracer = Tracer()
    install(tracer, args.level)
    t1 = time.perf_counter()
    code = cli.main(cli_args)
    main_s = time.perf_counter() - t1
    tracer.dump(args.out, {"import_s": import_s, "main_s": main_s, "exit_code": code})
    return code


if __name__ == "__main__":
    sys.exit(main())
