"""The semlearn benchmark: three CLI workloads, end to end and layer by layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

``--trace 0`` runs the workload's command again and again, one fresh
process at a time from a single closed-loop caller, for ``--seconds``
seconds, and reports the end-to-end metrics. ``--trace 1`` runs it once
untraced and once more under ``tracer.py`` and reports the per-layer
metrics. Every output file is digested and checked. The last line of
standard output is one JSON object; the lines before it and the file under
``perfbench/out/results/`` hold the same metrics with sample counts,
the machine and library versions, and the input digests.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from importlib.metadata import PackageNotFoundError, version
from pathlib import Path
from typing import Callable

import numpy as np

import corpus

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
OUT = BENCH / "out"
REFERENCE = BENCH / "reference.json"

# The default seed gives the corpora the workloads were chosen on:
# corpus A and table T drawn with seed 1, corpus B with seed 2. Any other
# seed relabels their topics and redraws their values (corpus.relabel).
DEFAULT_SEED = 1
SHAPES = {
    "full": {
        "a": dict(n_learners=400, topic_pool=2000, max_events=200, max_topics=5),
        "b": dict(n_learners=200, topic_pool=2000, max_events=40, max_topics=5),
        "t": dict(topic_pool=2000, n_pairs=200000),
    },
    "tiny": {
        "a": dict(n_learners=24, topic_pool=150, max_events=30, max_topics=5),
        "b": dict(n_learners=20, topic_pool=150, max_events=12, max_topics=5),
        "t": dict(topic_pool=150, n_pairs=2000),
    },
}
GRID_JSON = '{"beta": [0.25, 0.5, 1.0, 2.0], "draw_margin_eps": [0.3, 0.6]}'
GRID_POINTS = 8
ANALYZED_MODEL_ENTRIES = 3  # base report: 1 model, compare report: 2

# Fresh interpreters per sample: setup_s is the median of this many.
SETUP_SAMPLES = 3
PROCESS_TIMEOUT_S = 170.0

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "events_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}
# failed_frac is printed and saved with these but is not on the
# result line: it is 0 on a correct program, and attempted/failed carry it there.

PER_LAYER_UNITS = {
    "cli.import_s": "s",
    "data.load_events.s": "s",
    "data.load_events.rows_per_s": "1/s",
    "relatedness.load_sr_table.s": "s",
    "relatedness.related_seen_topics.calls": "count",
    "relatedness.related_seen_topics.self_us": "us/call",
    "relatedness.probe_hit_frac": "fraction",
    "semantic.propagate_prior.calls": "count",
    "semantic.propagate_prior.self_us": "us/call",
    "semantic.fallback_frac": "fraction",
    "novel.predict.calls": "count",
    "novel.predict.self_us": "us/call",
    "novel.update.calls": "count",
    "novel.update.self_us": "us/call",
    "novel.step_us_per_event": "us/event",
    "gaussians.truncated_moments.calls": "count",
    "gaussians.truncated_moments.self_us": "us/call",
    "gaussians.saturated_frac": "fraction",
    "runs.replay_cohort.calls": "count",
    "runs.replay_cohort.s": "s",
    "runs.pool_starts": "count",
    "runs.items_pickled_mb": "MB",
    "runs.parallel_eff": "fraction",
    "relatedness.build_topic_graph.calls": "count",
    "relatedness.build_topic_graph.self_s": "s",
    "relatedness.min_cut_set_size.calls": "count",
    "relatedness.min_cut_set_size.self_s": "s",
    "relatedness.min_cut_set_size.max_graph_s": "s",
    "evaluation.graph_reuse_frac": "fraction",
    "evaluation.scoring.s": "s",
    "evaluation.recall_by_event_index.s": "s",
    "evaluation.session_feature_srocc.s": "s",
    "runs.write_json_report.s": "s",
    "runs.report_mb": "MB",
    "trace.overhead_frac": "fraction",
}


class BenchError(Exception):
    """The benchmark cannot run here (missing sources, a set-up step failed)."""


# --- inputs -------------------------------------------------------------


def file_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def make_inputs(seed: int, shape: str) -> dict[str, Path]:
    """Write the seed's corpora once per checkout; later runs reuse them."""
    dims = SHAPES[shape]
    folder = OUT / "inputs" / f"{shape}-seed{seed}"
    folder.mkdir(parents=True, exist_ok=True)
    paths = {
        "events_a": folder / "events_a.csv",
        "events_b": folder / "events_b.csv",
        "sr": folder / "sr.csv",
        "grid": folder / "grid.json",
    }
    if not all(path.exists() for path in paths.values()):
        sessions = [
            corpus.random_sessions(seed=DEFAULT_SEED, **dims["a"]),
            corpus.random_sessions(seed=DEFAULT_SEED + 1, **dims["b"]),
        ]
        tables = [corpus.random_sr_table(seed=DEFAULT_SEED, **dims["t"])]
        if seed != DEFAULT_SEED:
            sessions, tables = corpus.relabel(sessions, tables, seed, dims["t"]["topic_pool"])
        corpus.write_events_csv(sessions[0], paths["events_a"])
        corpus.write_events_csv(sessions[1], paths["events_b"])
        corpus.write_sr_csv(tables[0], paths["sr"])
        paths["grid"].write_text(GRID_JSON, encoding="utf-8")
    return paths


# --- workloads ----------------------------------------------------------


@dataclass
class Command:
    """One CLI invocation: its arguments and the files it writes under out_dir."""

    args: list[str]
    outputs: list[str]


@dataclass
class Workload:
    name: str
    why: str
    # inputs -> arguments of setup_probe.py
    probe: Callable[[dict], list[str]]
    # (inputs, work dir) -> {key: command} producing the workload's own inputs
    prepare: Callable[[dict, Path], dict[str, Command]]
    # (inputs, work dir, out dir, workers) -> the timed command
    command: Callable[[dict, Path, Path, int], Command]
    workers: int
    # probe counts -> events the timed command predicts or featurises
    work: Callable[[dict], int]


def _compare(inputs, work, out, workers):
    return Command(
        ["evaluate", "--compare", "--omega", "all", "--workers", str(workers),
         "--data", str(inputs["events_a"]), "--sr-table", str(inputs["sr"]), "--out-dir", str(out)],
        ["report.json", "summary.csv"],
    )


def _tune(inputs, work, out, workers):
    return Command(
        ["tune", "--model", "truelearn-novel", "--workers", str(workers),
         "--data", str(inputs["events_a"]), "--grid", str(inputs["grid"]), "--out-dir", str(out)],
        ["best_config.json", "tuning_results.csv"],
    )


def _analyze_prepare(inputs, work):
    data, sr = str(inputs["events_b"]), str(inputs["sr"])
    return {
        "base": Command(
            ["evaluate", "--model", "truelearn-novel", "--data", data, "--out-dir", str(work / "base")],
            ["report.json", "summary.csv"],
        ),
        "cmp": Command(
            ["evaluate", "--compare", "--data", data, "--sr-table", sr, "--sr-metric", "w2v",
             "--omega", "all", "--out-dir", str(work / "cmp")],
            ["report.json", "summary.csv"],
        ),
    }


def _analyze(inputs, work, out, workers):
    return Command(
        ["analyze", str(work / "base" / "report.json"), str(work / "cmp" / "report.json"),
         "--data", str(inputs["events_b"]), "--sr-table", str(inputs["sr"]), "--out-dir", str(out)],
        ["srocc.csv", "recall_by_event.csv"],
    )


WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            name="compare-omega-all",
            why="the paper's headline run; prior propagation dominates it",
            probe=lambda i: ["--data", str(i["events_a"]), "--sr-table", str(i["sr"]), "--split"],
            prepare=lambda i, w: {},
            command=_compare,
            workers=1,
            work=lambda c: 2 * c["test_events"],
        ),
        Workload(
            name="tune-baseline-w2",
            why="per-event step and the process pool, with no propagation and no graphs",
            probe=lambda i: ["--data", str(i["events_a"]), "--split"],
            prepare=lambda i, w: {},
            command=_tune,
            workers=2,
            work=lambda c: GRID_POINTS * c["train_events"],
        ),
        Workload(
            name="analyze-readme",
            why="topic-graph build and vertex connectivity dominate it",
            probe=lambda i: ["--data", str(i["events_b"]), "--sr-table", str(i["sr"])],
            prepare=_analyze_prepare,
            command=_analyze,
            workers=1,
            work=lambda c: ANALYZED_MODEL_ENTRIES * c["test_events"],
        ),
    ]
}


# --- processes ----------------------------------------------------------


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


@dataclass
class Proc:
    exit_code: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    log: Path


def run_process(argv: list[str], log: Path) -> Proc:
    """Run to completion; rusage from wait4 covers the process and every child it reaped."""
    with open(log, "wb") as fh:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=fh, stderr=subprocess.STDOUT)
        timer = threading.Timer(PROCESS_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(
        exit_code=proc.returncode,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        log=log,
    )


def cli_argv(args: list[str]) -> list[str]:
    return [sys.executable, "-m", "semlearn.cli", *args]


def traced_argv(level: str, spans: Path, args: list[str]) -> list[str]:
    return [sys.executable, str(BENCH / "tracer.py"), "--level", level, "--out", str(spans), "--", *args]


@dataclass
class Outcome:
    proc: Proc
    ok: bool


class Checker:
    """Digests every invocation's outputs and holds them to one expected set per command.

    The expected set is the recorded reference when this seed has one;
    otherwise the first set seen, so every later invocation must agree with it.
    """

    def __init__(self, reference: dict | None):
        self.expected = dict(reference or {})
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def run(self, key: str, argv: list[str], command: Command, out: Path) -> Outcome:
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        proc = run_process(argv, out.parent / f"{out.name}.log")
        digests = {
            name: file_digest(out / name) for name in command.outputs if (out / name).exists()
        }
        self.attempted += 1
        ok = proc.exit_code == 0 and len(digests) == len(command.outputs)
        if ok:
            expected = self.expected.setdefault(key, digests)
            ok = digests == expected
        if not ok:
            self.failed += 1
            tail = proc.log.read_text(errors="replace").strip().splitlines()[-3:]
            self.problems.append(f"{key}: exit {proc.exit_code}, digests {digests}; log tail {tail}")
        return Outcome(proc, ok)


# --- environment --------------------------------------------------------


def environment() -> dict:
    cpu_model = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    versions = {}
    for package in ("numpy", "scipy", "networkx", "click"):
        try:
            versions[package] = version(package)
        except PackageNotFoundError:
            versions[package] = None
    git_sha = None
    if (ROOT / ".git").exists():
        try:
            git_sha = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, check=True
            ).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "semlearn").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        **versions,
        "git_sha": git_sha,
        "src_sha256": src.hexdigest(),
    }


# --- measurement --------------------------------------------------------


def metric(value, unit, samples):
    return {"value": value, "unit": unit, "samples": samples}


def setup_probes(workload: Workload, inputs, work: Path, samples: int) -> tuple[list[float], dict]:
    walls, counts = [], {}
    for i in range(samples):
        log = work / f"probe{i}.log"
        proc = run_process([sys.executable, str(BENCH / "setup_probe.py"), *workload.probe(inputs)], log)
        if proc.exit_code != 0:
            raise BenchError(f"set-up probe failed: {log.read_text(errors='replace')[-2000:]}")
        walls.append(proc.wall_s)
        counts = json.loads(log.read_text().strip().splitlines()[-1])
    return walls, counts


def prepare(workload: Workload, inputs, work: Path, checker: Checker) -> None:
    for key, command in workload.prepare(inputs, work).items():
        outcome = checker.run(key, cli_argv(command.args), command, work / key)
        if not outcome.ok:
            raise BenchError(f"set-up command {key} failed: {checker.problems[-1]}")


def measure(workload: Workload, inputs, work: Path, seconds: float, checker: Checker) -> tuple[dict, dict]:
    probe_walls, counts = setup_probes(workload, inputs, work, SETUP_SAMPLES)
    if workload.workers > 1 and "outputs" not in checker.expected:
        # With no recorded reference, one worker defines the expected bytes,
        # so the timed runs also check the any-worker-count invariant.
        command = workload.command(inputs, work, work / "w1", 1)
        checker.run("outputs", cli_argv(command.args), command, work / "w1")
    walls, cpus, rss = [], [], []
    deadline = time.perf_counter() + seconds
    while not walls or time.perf_counter() + statistics.median(walls) <= deadline:
        out = work / f"run{len(walls)}"
        command = workload.command(inputs, work, out, workload.workers)
        outcome = checker.run("outputs", cli_argv(command.args), command, out)
        walls.append(outcome.proc.wall_s)
        cpus.append(outcome.proc.cpu_s)
        rss.append(outcome.proc.peak_rss_mb)
        shutil.rmtree(out, ignore_errors=True)
    n = len(walls)
    return {
        "wall_s": metric(statistics.median(walls), "s", n),
        "setup_s": metric(statistics.median(probe_walls), "s", len(probe_walls)),
        "events_per_s": metric(workload.work(counts) / statistics.median(walls), "1/s", n),
        "cpu_s": metric(statistics.median(cpus), "s", n),
        "peak_rss_mb": metric(statistics.median(rss), "MB", n),
        "failed_frac": metric(checker.failed / checker.attempted, "fraction", checker.attempted),
    }, {"walls": walls, "cpus": cpus, "rss": rss, "probe_walls": probe_walls, "counts": counts}


@dataclass
class Spans:
    """One traced invocation: per-name call counts, total and self seconds."""

    calls: dict[str, int]
    total_s: dict[str, float]
    self_s: dict[str, float]
    max_s: dict[str, float]
    meta: dict

    @classmethod
    def load(cls, path: Path) -> "Spans":
        arrays = np.load(path)
        meta = json.loads(path.with_suffix(".json").read_text(encoding="utf-8"))
        name_id, parent = arrays["name_id"], arrays["parent"]
        duration = arrays["end"] - arrays["start"]
        child = np.zeros_like(duration)
        nested = parent >= 0
        np.add.at(child, parent[nested], duration[nested])
        own = duration - child
        calls, total, self_s, max_s = {}, {}, {}, {}
        for nid, name in enumerate(meta["names"]):
            mask = name_id == nid
            calls[name] = int(mask.sum())
            total[name] = float(duration[mask].sum())
            self_s[name] = float(own[mask].sum())
            max_s[name] = float(duration[mask].max()) if calls[name] else 0.0
        return cls(calls, total, self_s, max_s, meta)

    def counter(self, key: str) -> float:
        return self.meta["counters"].get(key, 0)

    def per_call_us(self, name: str) -> float:
        calls = self.calls.get(name, 0)
        return 1e6 * self.self_s.get(name, 0.0) / calls if calls else 0.0


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def trace(workload: Workload, inputs, work: Path, checker: Checker) -> tuple[dict, dict]:
    """One untraced run, one with run-level spans, one with every layer's spans.

    Spans do not come back from pool workers, so the run with every layer's
    spans uses one worker; a workload that uses more also gets an untraced
    and a run-level run at one worker, to compare against.
    """

    def invoke(key, workers, level=None):
        out = work / key
        command = workload.command(inputs, work, out, workers)
        spans_path = work / f"{key}.npz"
        argv = cli_argv(command.args) if level is None else traced_argv(level, spans_path, command.args)
        outcome = checker.run("outputs", argv, command, out)
        return outcome, (Spans.load(spans_path) if level is not None and outcome.ok else None)

    untraced, _ = invoke("untraced", workload.workers)
    _, run_level = invoke("runs", workload.workers, "runs")
    untraced_serial, serial = untraced, run_level
    if workload.workers > 1:
        untraced_serial, _ = invoke("untraced_w1", 1)
        _, serial = invoke("runs_w1", 1, "runs")
    full_outcome, full = invoke("full", 1, "full")
    if full is None or run_level is None or serial is None:
        raise BenchError("a traced run failed: " + "; ".join(checker.problems))

    calls = full.calls
    m = {
        "cli.import_s": full.meta["import_s"],
        "data.load_events.s": run_level.total_s.get("data.load_events", 0.0),
        "data.load_events.rows_per_s": ratio(run_level.counter("data.rows_read"), run_level.total_s.get("data.load_events", 0.0)),
        "relatedness.load_sr_table.s": run_level.total_s.get("relatedness.load_sr_table", 0.0),
        "relatedness.related_seen_topics.calls": calls.get("relatedness.related_seen_topics", 0),
        "relatedness.related_seen_topics.self_us": full.per_call_us("relatedness.related_seen_topics"),
        "relatedness.probe_hit_frac": ratio(
            full.counter("relatedness.neighbours_returned"), full.counter("relatedness.seen_probed")
        ),
        "semantic.propagate_prior.calls": calls.get("semantic.propagate_prior", 0),
        "semantic.propagate_prior.self_us": full.per_call_us("semantic.propagate_prior"),
        "semantic.fallback_frac": ratio(full.counter("semantic.fallbacks"), calls.get("semantic.propagate_prior", 0)),
        "novel.predict.calls": calls.get("novel.predict", 0),
        "novel.predict.self_us": full.per_call_us("novel.predict"),
        "novel.update.calls": calls.get("novel.update", 0),
        "novel.update.self_us": full.per_call_us("novel.update"),
        "novel.step_us_per_event": 1e6 * ratio(
            full.total_s.get("novel.predict", 0.0) + full.total_s.get("novel.update", 0.0),
            calls.get("novel.predict", 0),
        ),
        "gaussians.truncated_moments.calls": calls.get("gaussians.truncated_moments", 0),
        "gaussians.truncated_moments.self_us": full.per_call_us("gaussians.truncated_moments"),
        "gaussians.saturated_frac": ratio(full.counter("gaussians.saturated"), calls.get("gaussians.truncated_moments", 0)),
        "runs.replay_cohort.calls": run_level.calls.get("runs.replay_cohort", 0),
        "runs.replay_cohort.s": run_level.total_s.get("runs.replay_cohort", 0.0),
        "runs.pool_starts": run_level.counter("runs.pool_starts"),
        "runs.items_pickled_mb": run_level.counter("runs.items_pickled_bytes") / 1e6,
        "runs.parallel_eff": ratio(
            serial.counter("runs.replay_cohort.serial_s"),
            workload.workers * run_level.counter("runs.replay_cohort.parallel_s"),
        ),
        "relatedness.build_topic_graph.calls": calls.get("relatedness.build_topic_graph", 0),
        "relatedness.build_topic_graph.self_s": full.self_s.get("relatedness.build_topic_graph", 0.0),
        "relatedness.min_cut_set_size.calls": calls.get("relatedness.min_cut_set_size", 0),
        "relatedness.min_cut_set_size.self_s": full.self_s.get("relatedness.min_cut_set_size", 0.0),
        "relatedness.min_cut_set_size.max_graph_s": full.max_s.get("relatedness.min_cut_set_size", 0.0),
        "evaluation.graph_reuse_frac": ratio(
            len({g["learner"] for g in full.meta["graphs"]}), calls.get("relatedness.build_topic_graph", 0)
        ),
        "evaluation.scoring.s": sum(
            run_level.total_s.get(name, 0.0)
            for name in ("evaluation.score_learner", "evaluation.aggregate", "evaluation.paired_t_test_one_tailed")
        ),
        "evaluation.recall_by_event_index.s": run_level.total_s.get("evaluation.recall_by_event_index", 0.0),
        "evaluation.session_feature_srocc.s": run_level.total_s.get("evaluation.session_feature_srocc", 0.0),
        "runs.write_json_report.s": run_level.total_s.get("runs.write_json_report", 0.0),
        "runs.report_mb": run_level.counter("runs.report_bytes") / 1e6,
        "trace.overhead_frac": full_outcome.proc.wall_s / untraced_serial.proc.wall_s - 1.0,
    }
    metrics = {name: metric(value, PER_LAYER_UNITS[name], 1) for name, value in m.items()}
    for name in ("relatedness.related_seen_topics", "semantic.propagate_prior", "novel.predict",
                 "novel.update", "gaussians.truncated_moments"):
        metrics[f"{name}.self_us"]["samples"] = calls.get(name, 0)
    raw = {
        "graphs": full.meta["graphs"],
        "walls": {"untraced": untraced.proc.wall_s, "untraced_w1": untraced_serial.proc.wall_s,
                  "full": full_outcome.proc.wall_s},
    }
    return metrics, raw


# --- entry point --------------------------------------------------------


def load_reference(shape: str, seed: int) -> dict:
    if shape != "full" or not REFERENCE.exists():
        return {}
    recorded = json.loads(REFERENCE.read_text(encoding="utf-8"))
    return recorded.get("seeds", {}).get(str(seed), {})


def run_workload(name: str, seed: int, seconds: float, traced: bool, shape: str) -> dict:
    workload = WORKLOADS[name]
    reference = load_reference(shape, seed)
    inputs = make_inputs(seed, shape)
    input_digests = {key: file_digest(path) for key, path in inputs.items()}
    problems = []
    if reference and reference["inputs"] != input_digests:
        problems.append(f"inputs differ from the reference: {input_digests}")
    work = OUT / "work" / f"{name}-{shape}-seed{seed}-trace{int(traced)}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    checker = Checker(reference.get(name))
    prepare(workload, inputs, work, checker)
    if traced:
        metrics, raw = trace(workload, inputs, work, checker)
    else:
        metrics, raw = measure(workload, inputs, work, seconds, checker)
    problems += checker.problems
    result = {
        "workload": name,
        "why": workload.why,
        "seed": seed,
        "shape": shape,
        "trace": int(traced),
        "seconds": seconds,
        "environment": environment(),
        "inputs": input_digests,
        "outputs": checker.expected,
        "reference_known": bool(reference),
        "correct": not problems,
        "problems": problems,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": metrics,
        "raw": raw,
    }
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{name}-{shape}-seed{seed}-trace{int(traced)}"
    (results / f"{stem}.json").write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    if traced and raw["graphs"]:
        with open(results / f"{stem}-graphs.csv", "w", encoding="utf-8") as fh:
            fh.write("learner,nodes,edges,kappa,seconds\n")
            for g in raw["graphs"]:
                fh.write(f"{g['learner']},{g['nodes']},{g['edges']},{g['kappa']},{g['seconds']:.6f}\n")
    shutil.rmtree(work, ignore_errors=True)
    return result


def print_result(result: dict) -> None:
    env = result["environment"]
    print(f"# {result['workload']}  seed={result['seed']} shape={result['shape']} trace={result['trace']}")
    print(
        f"#   {env['cpu_model']} nproc={env['nproc']} python={env['python']} numpy={env['numpy']} "
        f"scipy={env['scipy']} networkx={env['networkx']} git={env['git_sha']} src={env['src_sha256'][:12]}"
    )
    print("#   inputs: " + " ".join(f"{k}={v[:12]}" for k, v in result["inputs"].items()))
    for name, m in result["metrics"].items():
        print(f"  {name:<44} {m['value']:>14.6g} {m['unit']:<9} n={m['samples']}")
    for problem in result["problems"]:
        print(f"  PROBLEM {problem}")


def result_line(result: dict) -> dict:
    names = PER_LAYER_UNITS if result["trace"] else END_TO_END_UNITS
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": result["metrics"][name]["value"], "unit": result["metrics"][name]["unit"]}
            for name in names
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny corpora, for the smoke check")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "semlearn" / "cli.py").is_file():
        print(f"error: no semlearn sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    shape = "tiny" if args.tiny else "full"
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = [run_workload(n, args.seed, args.seconds, bool(args.trace), shape) for n in names]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for result in results:
        print_result(result)
    if len(results) == 1:
        print(json.dumps(result_line(results[0])))
    else:
        print(json.dumps({r["workload"]: result_line(r) for r in results}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
