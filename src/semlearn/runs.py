"""Run orchestration: replay cohorts, grid tuning, analysis, and report files.

Every run writes a manifest (config snapshot, input digests, seed) into its
outputs, and one function, ``_manifest``, builds it for every command.
Rerunning with the same inputs and seed reproduces every file byte-for-byte,
at any worker count. Reports carry no timestamps for that reason.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import json
import logging
import math
from dataclasses import asdict, dataclass, replace
from pathlib import Path

from . import __version__
from .data import Dataset, DataError, load_events, read_json, split_learners
from .evaluation import (
    SESSION_FEATURES,
    Trace,
    aggregate,
    paired_t_test_one_tailed,
    recall_by_event_index,
    session_feature_table,
    session_feature_srocc,
    score_learner,
)
from .gaussians import _special
from .novel import ModelConfig, replay_session
from .relatedness import SRTable, load_sr_table
from .semantic import PropagationConfig, SemanticPropagator

log = logging.getLogger(__name__)

MODEL_BASELINE = "truelearn-novel"
MODEL_SEMANTIC = "semantic-truelearn"
MODELS = (MODEL_BASELINE, MODEL_SEMANTIC)

SIGNIFICANCE_LEVEL = 0.01

REPORT_FILENAME = "report.json"
SUMMARY_FILENAME = "summary.csv"
BEST_CONFIG_FILENAME = "best_config.json"
TUNING_FILENAME = "tuning_results.csv"
SROCC_FILENAME = "srocc.csv"
RECALL_SERIES_FILENAME = "recall_by_event.csv"


def file_digest(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _manifest(command, models, inputs, outputs, spec) -> tuple[dict, str]:
    """A run's manifest, everything needed to reproduce its outputs byte-identically,
    and its digest: the sha256 of its canonical JSON, so key order reaches no output.

    analyze replays nothing, so of its spec it records only ``top_topics``,
    beside its inputs' digests.
    """
    replayed = None if command == "analyze" else spec
    manifest = {
        "command": command,
        "models": models,
        "inputs": inputs,
        "outputs": outputs,
        "model_config": asdict(replayed.model_config) if replayed else {},
        "propagation_config": (
            asdict(replayed.propagation_config) if replayed and MODEL_SEMANTIC in models else None
        ),
        "seed": replayed and replayed.seed,
        "train_fraction": replayed and replayed.train_fraction,
        "top_learners": replayed and replayed.top_learners,
        "package_version": __version__,
    }
    if spec.top_topics is not None:  # absent: no truncation, as in older manifests
        manifest["top_topics"] = spec.top_topics
    canonical = json.dumps(manifest, sort_keys=True, separators=(",", ":"))
    return manifest, hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def select_top_learners(dataset: Dataset, n: int) -> Dataset:
    """Keep the n learners with the most events; ties break by learner id."""
    if n < 1:
        raise ValueError(f"top_learners must be >= 1, got {n}")
    ranked = sorted(dataset.learners, key=lambda lid: (-len(dataset.learners[lid]), lid))
    keep = set(ranked[:n])
    return Dataset(
        learners={lid: evs for lid, evs in dataset.learners.items() if lid in keep},
        ingest=dataset.ingest,
    )


@dataclass(frozen=True)
class RunSpec:
    """The settings that shape a run's outputs, built once per run.

    ``_manifest`` records every field in the evaluate and tune manifests, the
    paths as their files' digests and ``top_topics`` only when it is set;
    analyze's manifest records the paths and ``top_topics``.
    """

    data_path: str | Path
    sr_table_path: str | Path | None = None
    model_config: ModelConfig = ModelConfig()
    propagation_config: PropagationConfig = PropagationConfig()
    seed: int = 42
    train_fraction: float = 0.7
    top_learners: int | None = None
    top_topics: int | None = None


def prepare_run(
    spec: RunSpec, *, needs_table: bool, split: bool
) -> tuple[Dataset, SRTable | None, dict[str, str]]:
    """Load a run's inputs: (dataset, table, input digests).

    With ``needs_table`` the relatedness table loads, under the spec's metric,
    before the events; otherwise the table is None. A needed table with no
    path is a ValueError, raised before any file is read. With ``split`` the
    spec's seed and train fraction split the learners, after keeping its
    ``top_learners`` most active ones.
    """
    table = None
    if needs_table:
        if spec.sr_table_path is None:
            raise ValueError("the semantic model, like analyze, needs an SR table (--sr-table)")
        table = load_sr_table(spec.sr_table_path, spec.propagation_config.sr_metric)

    dataset = load_events(spec.data_path, top_topics=spec.top_topics)
    if spec.top_learners is not None:
        dataset = select_top_learners(dataset, spec.top_learners)
    if split:
        dataset = split_learners(dataset, spec.train_fraction, spec.seed)

    inputs = {"data": file_digest(spec.data_path)}
    if needs_table:
        inputs["sr_table"] = file_digest(spec.sr_table_path)
    return dataset, table, inputs


def _make_out_dir(out_dir) -> Path:
    """``out_dir``, created if missing; a path that cannot be a directory is a ValueError."""
    out_dir = Path(out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ValueError(f"cannot create output directory {out_dir}: {exc}") from exc
    return out_dir


# --- cohort replay (cross-learner parallel, per-learner sequential) ---


def _propagator_type(model_id: str):
    """The propagator class a model replays with, None for the baseline; ValueError if unknown."""
    if model_id not in MODELS:
        raise ValueError(f"unknown model {model_id!r}; expected one of {MODELS}")
    return SemanticPropagator if model_id == MODEL_SEMANTIC else None


_WORKER_VARIANTS = []


def _init_worker(variants):
    global _WORKER_VARIANTS
    _WORKER_VARIANTS = variants


def _replay_one(events):
    return [replay_session(events, cfg, propagator) for cfg, propagator in _WORKER_VARIANTS]


def ProcessPoolExecutor(**kwargs):
    """concurrent.futures' process pool, imported only where one starts (about 15 ms).

    It stays a module attribute under the class's name, so a profiler can wrap it.
    """
    from concurrent.futures import ProcessPoolExecutor as executor

    return executor(**kwargs)


def replay_cohort(
    dataset: Dataset,
    learner_ids: list[str],
    variants: list[tuple[ModelConfig, SemanticPropagator | None]],
    workers: int = 1,
) -> list[dict[str, Trace]]:
    """Replay each listed learner's session under every (config, propagator) variant.

    One work item is one learner under every variant, so a call starts at
    most one pool, of no more workers than learners. Returns one
    {learner: trace} per variant, in sorted learner order, identical at any
    worker count.
    """
    learner_ids = sorted(learner_ids)
    sessions = [dataset.learners[lid] for lid in learner_ids]
    # Import scipy.special here, before any worker forks: workers inherit it
    # instead of each importing it again, and no replayed event pays for it.
    _special()
    workers = min(workers, len(sessions))
    if workers <= 1:
        rows = [[replay_session(events, cfg, p) for cfg, p in variants] for events in sessions]
    else:
        with ProcessPoolExecutor(
            max_workers=workers, initializer=_init_worker, initargs=(variants,)
        ) as pool:
            rows = list(pool.map(_replay_one, sessions, chunksize=16))
    return [
        {lid: row[index] for lid, row in zip(learner_ids, rows)} for index in range(len(variants))
    ]


# --- evaluate ---


def _model_report(model_id: str, traces: dict[str, Trace], propagation) -> dict:
    """One model's report entry, its learners in sorted order; ``propagation`` is
    None for a model that does not propagate."""
    scores = [score_learner(lid, trace) for lid, trace in sorted(traces.items())]
    precision, recall, f1 = aggregate(scores)
    return {
        "model_id": model_id,
        "sr_metric": propagation and propagation.sr_metric,
        "omega": propagation and (propagation.omega_size or "all"),
        "weighted": {"precision": precision, "recall": recall, "f1": f1},
        "learners": [
            {
                **asdict(s),
                "predictions": [p for p, _ in traces[s.learner_id]],
                "labels": [l for _, l in traces[s.learner_id]],
            }
            for s in scores
        ],
    }


def write_json_report(obj: dict, path: Path) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _write_csv(path: Path, digest: str, header: list[str], rows, *notes: str) -> None:
    """A CSV table under '# ' lines: the manifest digest, then any notes."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        for line in [f"manifest_digest={digest}", *notes]:
            fh.write(f"# {line}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def evaluate_run(
    spec: RunSpec, out_dir, model: str = MODEL_BASELINE, *, compare=False, workers=1
) -> dict:
    """Replay the test split under one model (or both with compare) and write reports."""
    out_dir = _make_out_dir(out_dir)
    models = [MODEL_BASELINE, MODEL_SEMANTIC] if compare else [model]
    kinds = [_propagator_type(mid) for mid in models]
    dataset, table, inputs = prepare_run(spec, needs_table=any(kinds), split=True)
    test_ids = dataset.test_ids()
    if compare and len(test_ids) < 2:
        raise DataError(
            f"the split has {len(test_ids)} test learner(s); "
            "the paired t-test of --compare needs at least 2"
        )

    cfg = spec.model_config
    traces = replay_cohort(
        dataset,
        test_ids,
        [(cfg, kind(table, spec.propagation_config, cfg) if kind else None) for kind in kinds],
        workers=workers,
    )
    entries = [
        _model_report(mid, column, spec.propagation_config if kind else None)
        for mid, kind, column in zip(models, kinds, traces)
    ]

    comparison = None
    if compare:
        baseline, candidate = (entry["learners"] for entry in entries)
        comparison = {"baseline": models[0], "candidate": models[1], "metrics": {}}
        for metric in ("precision", "recall", "f1"):
            # Both entries list the same test learners in sorted order.
            t, p = paired_t_test_one_tailed(
                [s[metric] for s in baseline], [s[metric] for s in candidate]
            )
            comparison["metrics"][metric] = {"t": t, "p": p}

    manifest, digest = _manifest(
        "evaluate", models, inputs, [REPORT_FILENAME, SUMMARY_FILENAME], spec
    )
    report = {
        "manifest": manifest,
        "manifest_digest": digest,
        "n_test_learners": len(test_ids),
        "models": entries,
        "comparison": comparison,
    }

    report_path, summary_path = out_dir / REPORT_FILENAME, out_dir / SUMMARY_FILENAME
    write_json_report(report, report_path)
    _write_csv(
        summary_path,
        digest,
        ["Algorithm", "SR Metric", "Prec.", "Rec.", "F1"],
        (
            [e["model_id"], e["sr_metric"] or "-", *(f"{x:.4f}" for x in e["weighted"].values())]
            for e in entries
        ),
    )
    return {"report": report_path, "summary": summary_path, "report_obj": report}


# --- tune ---


def load_grid(path, base: ModelConfig = ModelConfig()) -> list[ModelConfig]:
    """Expand a JSON grid file ({param: [values...]}) over ``base``, in file order."""
    defaults = asdict(base)
    grid = read_json(path, "grid file")
    if not isinstance(grid, dict) or not grid:
        raise DataError(f"{path}: grid file must be a non-empty JSON object")
    names = list(grid)
    value_lists = []
    for name in names:
        values = grid[name]
        if not isinstance(values, list) or not values:
            raise DataError(f"{path}: grid entry {name!r} must be a non-empty list")
        value_lists.append(values)
    configs = []
    for combo in itertools.product(*value_lists):
        configs.append(ModelConfig.from_dict({**defaults, **dict(zip(names, combo))}))
    return configs


def tune_run(spec: RunSpec, grid_path, out_dir, model: str = MODEL_BASELINE, *, workers=1) -> dict:
    """Grid-search hyperparameters on the train split, selecting by weighted F1.

    Ties keep the earliest grid point. Writes the chosen config and the full
    per-point results table. The spec's model config is the base of every
    grid point.
    """
    out_dir = _make_out_dir(out_dir)
    kind = _propagator_type(model)
    configs = load_grid(grid_path, spec.model_config)
    dataset, table, inputs = prepare_run(spec, needs_table=kind is not None, split=True)

    traces = replay_cohort(
        dataset,
        dataset.train_ids(),
        [(cfg, kind(table, spec.propagation_config, cfg) if kind else None) for cfg in configs],
        workers=workers,
    )
    weighted = []
    for index, (cfg, by_learner) in enumerate(zip(configs, traces)):
        weighted.append(aggregate([score_learner(lid, trace) for lid, trace in by_learner.items()]))
        log.info("grid point %d: F1=%.4f %s", index, weighted[-1][2], asdict(cfg))
    # max keeps the first of equal F1s, so ties go to the earliest grid point.
    best_index = max(range(len(configs)), key=lambda i: weighted[i][2])
    best_cfg, best_f1 = configs[best_index], weighted[best_index][2]

    inputs["grid"] = file_digest(grid_path)
    manifest, digest = _manifest(
        "tune",
        [model],
        inputs,
        [BEST_CONFIG_FILENAME, TUNING_FILENAME],
        replace(spec, model_config=best_cfg),
    )
    best_path, tuning_path = out_dir / BEST_CONFIG_FILENAME, out_dir / TUNING_FILENAME
    write_json_report(
        {"manifest_digest": digest, "manifest": manifest, "config": asdict(best_cfg)}, best_path
    )
    param_names = sorted(asdict(configs[0]))
    _write_csv(
        tuning_path,
        digest,
        ["grid_index", *param_names, "Prec.", "Rec.", "F1", "selected"],
        (
            [
                index,
                *[getattr(cfg, name) for name in param_names],
                *(f"{x:.4f}" for x in weighted[index]),
                "yes" if index == best_index else "",
            ]
            for index, cfg in enumerate(configs)
        ),
    )
    return {"best_config": best_cfg, "best_f1": best_f1, "paths": [best_path, tuning_path]}


# --- analyze ---


def _load_report(path) -> tuple[str, list[tuple[str, dict[str, Trace]]]]:
    """An evaluate report's data digest and (model_id, traces) per model entry, or DataError."""
    report = read_json(path, "report")
    try:
        data_digest = report["manifest"]["inputs"]["data"]
        entries = [(entry["learners"], entry.get("model_id")) for entry in report["models"]]
    except (KeyError, TypeError) as exc:
        raise DataError(f"{path} is not an evaluate report ({exc!r})") from exc
    if not entries or not all(learners for learners, _ in entries):
        raise DataError(f"{path}: report has no learners to analyze")
    columns = []
    for learners, model_id in entries:
        if not isinstance(model_id, str):
            raise DataError(f"{path}: a model entry has no string model_id")
        if not isinstance(learners, list):
            raise DataError(f"{path}: a model's learners must be a list")
        traces: dict[str, Trace] = {}
        for entry in learners:
            learner_id = entry.get("learner_id") if isinstance(entry, dict) else None
            if not isinstance(learner_id, str):
                raise DataError(f"{path}: a learner entry has no string learner_id")
            predictions, labels = entry.get("predictions"), entry.get("labels")
            if not (
                _is_trace_column(predictions)
                and _is_trace_column(labels)
                and len(predictions) == len(labels)
            ):
                raise DataError(
                    f"{path}: learner {learner_id!r}: predictions and labels must be "
                    "equal-length lists of 1 or -1"
                )
            if learner_id in traces:
                raise DataError(f"{path}: {model_id}: learner {learner_id!r} is listed twice")
            traces[learner_id] = list(zip(predictions, labels))
        columns.append((model_id, traces))
    return data_digest, columns


def _is_trace_column(values) -> bool:
    # type() rather than isinstance(): JSON true is a bool, which equals 1.
    return isinstance(values, list) and all(type(x) is int and x in (1, -1) for x in values)


def _significant_rho(rho: float, p: float) -> str:
    return f"{rho:.4f}" if not math.isnan(rho) and p < SIGNIFICANCE_LEVEL else ""


def analyze_run(report_paths, spec: RunSpec, out_dir) -> dict:
    """Emit the SROCC feature table and recall-by-event series for given reports.

    Of the spec, analyze reads the two paths, the metric and ``top_topics``.

    All reports must come from the same dataset (digest check), cover the
    same learner set, and hold one trace entry per event of each learner.
    Session features are model-independent, so they are computed once.
    """
    out_dir = _make_out_dir(out_dir)
    reports = [_load_report(p) for p in report_paths]
    # One column per model entry, in report order: a repeated model id keeps its own.
    columns = [column for _, entries in reports for column in entries]
    learner_ids = sorted(columns[0][1])
    if any(traces.keys() != columns[0][1].keys() for _, traces in columns[1:]):
        raise DataError("reports cover different learner sets; refusing to analyze")
    if len(learner_ids) < 3:
        raise DataError(f"reports cover {len(learner_ids)} learner(s); analyze needs at least 3")
    dataset, table, inputs = prepare_run(spec, needs_table=True, split=False)
    for path, (data_digest, _) in zip(report_paths, reports):
        if data_digest != inputs["data"]:
            raise DataError(
                f"{path}: report was produced from a different dataset "
                "(data digest mismatch)"
            )
    for lid in learner_ids:
        events = dataset.learners.get(lid)
        if events is None:
            raise DataError(f"reports name learner {lid!r}, who is not in the data")
        for model_id, traces in columns:
            if len(traces[lid]) != len(events):
                raise DataError(
                    f"{model_id}: learner {lid!r}: trace has {len(traces[lid])} entries "
                    f"for {len(events)} events"
                )

    features = session_feature_table(dataset, learner_ids, table)
    sroccs = [
        session_feature_srocc(
            features, [score_learner(lid, traces[lid]).recall for lid in learner_ids]
        )
        for _, traces in columns
    ]
    # Every trace matches its learner's events (checked above), so the series align.
    series = [recall_by_event_index(traces) for _, traces in columns]
    model_ids = [mid for mid, _ in columns]

    inputs.update({f"report_{i}": file_digest(p) for i, p in enumerate(report_paths)})
    _, digest = _manifest(
        "analyze", model_ids, inputs, [SROCC_FILENAME, RECALL_SERIES_FILENAME], spec
    )
    srocc_path, series_path = out_dir / SROCC_FILENAME, out_dir / RECALL_SERIES_FILENAME
    _write_csv(
        srocc_path,
        digest,
        ["feature", *model_ids],
        (
            [feature, *(_significant_rho(*column[feature]) for column in sroccs)]
            for feature in SESSION_FEATURES
        ),
        "graph_features=full_session",
    )
    _write_csv(
        series_path,
        digest,
        ["n", *[f"recall_{mid}" for mid in model_ids]],
        ([row[0][0], *(f"{recall:.6f}" for _, recall in row)] for row in zip(*series)),
        "recall=cumulative",
    )
    return {"srocc": srocc_path, "recall_series": series_path}
