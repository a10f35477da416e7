"""Run orchestration: replay cohorts, grid tuning, analysis, and report files.

Every run writes a manifest (config snapshot, input digests, seed) into its
outputs; rerunning with the same inputs and seed reproduces every file
byte-for-byte, at any worker count. Reports carry no timestamps for that
reason.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import json
import logging
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

from . import __version__
from .data import Dataset, DataError, load_events, split_learners
from .evaluation import (
    LearnerScore,
    SESSION_FEATURES,
    Trace,
    aggregate,
    paired_t_test_one_tailed,
    recall_by_event_index,
    session_feature_table,
    session_feature_srocc,
    score_learner,
)
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


@dataclass
class RunManifest:
    """Everything needed to reproduce a run's outputs byte-identically.

    Serialized with sorted keys, so field order does not reach any output.
    """

    command: str
    models: list[str]
    inputs: dict[str, str]  # input name -> sha256
    outputs: list[str]
    model_config: dict = field(default_factory=dict)
    propagation_config: dict | None = None
    seed: int | None = None
    train_fraction: float | None = None
    top_learners: int | None = None
    package_version: str = __version__

    def digest(self) -> str:
        canonical = json.dumps(asdict(self), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


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


def prepare_run(
    data_path,
    *,
    needs_table: bool,
    sr_table_path=None,
    sr_metric: str | None = None,
    prop_cfg: PropagationConfig | None = None,
    split: tuple[float, int] | None = None,
    top_learners: int | None = None,
    data_format: str = "auto",
    top_topics: int | None = None,
) -> tuple[Dataset, SRTable | None, PropagationConfig | None, dict[str, str]]:
    """Load a run's inputs: (dataset, table, prop_cfg, input digests).

    With ``needs_table``, ``sr_metric`` overrides the propagation config's
    metric and the relatedness table loads before the events; otherwise
    table and prop_cfg are None. ``split`` is (train_fraction, seed), applied
    after keeping the ``top_learners`` most active learners.
    """
    if needs_table:
        if sr_table_path is None:
            raise DataError("the semantic model needs --sr-table before any replay can start")
        prop_cfg = prop_cfg or PropagationConfig()
        if sr_metric is not None:
            prop_cfg = replace(prop_cfg, sr_metric=sr_metric)
        table = load_sr_table(sr_table_path, prop_cfg.sr_metric)
    else:
        table, prop_cfg = None, None

    dataset = load_events(data_path, fmt=data_format, top_topics=top_topics)
    if top_learners is not None:
        dataset = select_top_learners(dataset, top_learners)
    if split is not None:
        dataset = split_learners(dataset, *split)

    inputs = {"data": file_digest(data_path)}
    if needs_table:
        inputs["sr_table"] = file_digest(sr_table_path)
    return dataset, table, prop_cfg, inputs


# --- cohort replay (cross-learner parallel, per-learner sequential) ---

_WORKER_REPLAYER = None


def _build_replayer(model_id, base_cfg, table, prop_cfg):
    if model_id == MODEL_BASELINE:
        return lambda events: replay_session(events, base_cfg)
    if model_id == MODEL_SEMANTIC:
        if table is None or prop_cfg is None:
            raise ValueError("semantic model needs an SR table and a propagation config")
        propagator = SemanticPropagator(table, prop_cfg, base_cfg)
        return lambda events: replay_session(events, base_cfg, propagator)
    raise ValueError(f"unknown model {model_id!r}; expected one of {MODELS}")


def _init_worker(model_id, base_cfg, table, prop_cfg):
    global _WORKER_REPLAYER
    _WORKER_REPLAYER = _build_replayer(model_id, base_cfg, table, prop_cfg)


def _replay_one(item):
    learner_id, events = item
    return learner_id, _WORKER_REPLAYER(events)


def replay_cohort(
    dataset: Dataset,
    learner_ids: list[str],
    model_id: str,
    base_cfg: ModelConfig,
    table: SRTable | None = None,
    prop_cfg: PropagationConfig | None = None,
    workers: int = 1,
) -> dict[str, Trace]:
    """Replay each listed learner's session independently.

    Output is assembled in sorted learner order, so it is identical at any
    worker count.
    """
    items = [(lid, dataset.learners[lid]) for lid in sorted(learner_ids)]
    if workers <= 1:
        replayer = _build_replayer(model_id, base_cfg, table, prop_cfg)
        return {lid: replayer(events) for lid, events in items}
    with ProcessPoolExecutor(
        max_workers=workers,
        initializer=_init_worker,
        initargs=(model_id, base_cfg, table, prop_cfg),
    ) as pool:
        return dict(pool.map(_replay_one, items, chunksize=16))


# --- evaluate ---


@dataclass
class ModelResult:
    model_id: str
    sr_metric: str | None
    omega: int | None  # None = all (when sr_metric set), irrelevant otherwise
    scores: list[LearnerScore]
    weighted: tuple[float, float, float]


def _run_model(dataset, learner_ids, model_id, base_cfg, table, prop_cfg, workers):
    traces = replay_cohort(dataset, learner_ids, model_id, base_cfg, table, prop_cfg, workers)
    scores = [score_learner(lid, trace) for lid, trace in traces.items()]
    semantic = model_id == MODEL_SEMANTIC
    return ModelResult(
        model_id=model_id,
        sr_metric=table.metric if semantic else None,
        omega=prop_cfg.omega_size if semantic else None,
        scores=scores,
        weighted=aggregate(scores),
    )


def _model_report(result: ModelResult) -> dict:
    precision, recall, f1 = result.weighted
    return {
        "model_id": result.model_id,
        "sr_metric": result.sr_metric,
        "omega": "all" if result.sr_metric and result.omega is None else result.omega,
        "weighted": {"precision": precision, "recall": recall, "f1": f1},
        "learners": [
            {
                "learner_id": s.learner_id,
                "n_events": s.n_events,
                "precision": s.precision,
                "recall": s.recall,
                "f1": s.f1,
                "predictions": [p for p, _ in s.trace],
                "labels": [l for _, l in s.trace],
            }
            for s in sorted(result.scores, key=lambda s: s.learner_id)
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
    data_path,
    out_dir,
    model: str = MODEL_BASELINE,
    *,
    sr_table_path=None,
    sr_metric: str | None = None,
    base_cfg: ModelConfig | None = None,
    prop_cfg: PropagationConfig | None = None,
    seed: int = 42,
    train_fraction: float = 0.7,
    top_learners: int | None = None,
    compare: bool = False,
    workers: int = 1,
    data_format: str = "auto",
    top_topics: int | None = None,
) -> dict:
    """Replay the test split under one model (or both with compare) and write reports."""
    base_cfg = base_cfg or ModelConfig()
    models = [MODEL_BASELINE, MODEL_SEMANTIC] if compare else [model]
    dataset, table, prop_cfg, inputs = prepare_run(
        data_path,
        needs_table=MODEL_SEMANTIC in models,
        sr_table_path=sr_table_path,
        sr_metric=sr_metric,
        prop_cfg=prop_cfg,
        split=(train_fraction, seed),
        top_learners=top_learners,
        data_format=data_format,
        top_topics=top_topics,
    )
    test_ids = dataset.test_ids()

    results = [
        _run_model(dataset, test_ids, mid, base_cfg, table, prop_cfg, workers)
        for mid in models
    ]

    comparison = None
    if compare:
        baseline, candidate = results
        comparison = {"baseline": baseline.model_id, "candidate": candidate.model_id, "metrics": {}}
        for metric in ("precision", "recall", "f1"):
            # Both score lists follow the same test learners in sorted order.
            t, p = paired_t_test_one_tailed(
                [getattr(s, metric) for s in baseline.scores],
                [getattr(s, metric) for s in candidate.scores],
            )
            comparison["metrics"][metric] = {"t": t, "p": p}

    manifest = RunManifest(
        command="evaluate",
        models=models,
        model_config=asdict(base_cfg),
        propagation_config=asdict(prop_cfg) if prop_cfg else None,
        seed=seed,
        train_fraction=train_fraction,
        top_learners=top_learners,
        inputs=inputs,
        outputs=[REPORT_FILENAME, SUMMARY_FILENAME],
    )
    digest = manifest.digest()
    report = {
        "manifest": asdict(manifest),
        "manifest_digest": digest,
        "n_test_learners": len(test_ids),
        "models": [_model_report(r) for r in results],
        "comparison": comparison,
    }

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    report_path = out_dir / REPORT_FILENAME
    summary_path = out_dir / SUMMARY_FILENAME
    write_json_report(report, report_path)
    _write_csv(
        summary_path,
        digest,
        ["Algorithm", "SR Metric", "Prec.", "Rec.", "F1"],
        ([r.model_id, r.sr_metric or "-", *(f"{x:.4f}" for x in r.weighted)] for r in results),
    )
    return {"report": report_path, "summary": summary_path, "report_obj": report}


# --- tune ---


def load_grid(path) -> list[ModelConfig]:
    """Expand a JSON grid file ({param: [values...]}) into configs, in file order."""
    with open(path, encoding="utf-8") as fh:
        grid = json.load(fh)
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
        configs.append(ModelConfig.from_dict(dict(zip(names, combo))))
    return configs


def tune_run(
    data_path,
    grid_path,
    out_dir,
    model: str = MODEL_BASELINE,
    *,
    sr_table_path=None,
    sr_metric: str | None = None,
    prop_cfg: PropagationConfig | None = None,
    seed: int = 42,
    train_fraction: float = 0.7,
    top_learners: int | None = None,
    workers: int = 1,
    data_format: str = "auto",
    top_topics: int | None = None,
) -> dict:
    """Grid-search hyperparameters on the train split, selecting by weighted F1.

    Ties keep the earliest grid point. Writes the chosen config and the full
    per-point results table.
    """
    configs = load_grid(grid_path)
    dataset, table, prop_cfg, inputs = prepare_run(
        data_path,
        needs_table=model == MODEL_SEMANTIC,
        sr_table_path=sr_table_path,
        sr_metric=sr_metric,
        prop_cfg=prop_cfg,
        split=(train_fraction, seed),
        top_learners=top_learners,
        data_format=data_format,
        top_topics=top_topics,
    )
    train_ids = dataset.train_ids()

    weighted = []
    for index, cfg in enumerate(configs):
        weighted.append(_run_model(dataset, train_ids, model, cfg, table, prop_cfg, workers).weighted)
        log.info("grid point %d: F1=%.4f %s", index, weighted[-1][2], asdict(cfg))
    # max keeps the first of equal F1s, so ties go to the earliest grid point.
    best_index = max(range(len(configs)), key=lambda i: weighted[i][2])
    best_cfg, best_f1 = configs[best_index], weighted[best_index][2]

    inputs["grid"] = file_digest(grid_path)
    manifest = RunManifest(
        command="tune",
        models=[model],
        model_config=asdict(best_cfg),
        propagation_config=asdict(prop_cfg) if prop_cfg else None,
        seed=seed,
        train_fraction=train_fraction,
        top_learners=top_learners,
        inputs=inputs,
        outputs=[BEST_CONFIG_FILENAME, TUNING_FILENAME],
    )
    digest = manifest.digest()

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    best_path = out_dir / BEST_CONFIG_FILENAME
    tuning_path = out_dir / TUNING_FILENAME
    write_json_report(
        {"manifest_digest": digest, "manifest": asdict(manifest), "config": asdict(best_cfg)},
        best_path,
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


def _load_report(path) -> dict:
    """Read an evaluate report; anything else is a data error."""
    try:
        with open(path, encoding="utf-8") as fh:
            report = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise DataError(f"cannot read report {path}: {exc}") from exc
    try:
        report["manifest"]["inputs"]["data"]
        learner_lists = [entry["learners"] for entry in report["models"]]
    except (KeyError, TypeError) as exc:
        raise DataError(f"{path} is not an evaluate report ({exc!r})") from exc
    if not learner_lists or not all(learner_lists):
        raise DataError(f"{path}: report has no learners to analyze")
    return report


def _significant_rho(rho: float, p: float) -> str:
    return f"{rho:.4f}" if not math.isnan(rho) and p < SIGNIFICANCE_LEVEL else ""


def _traces_from_report(model_entry: dict) -> dict[str, Trace]:
    return {
        learner["learner_id"]: list(zip(learner["predictions"], learner["labels"]))
        for learner in model_entry["learners"]
    }


def analyze_run(
    report_paths,
    data_path,
    sr_table_path,
    out_dir,
    sr_metric: str = "w2v",
    data_format: str = "auto",
    top_topics: int | None = None,
) -> dict:
    """Emit the SROCC feature table and recall-by-event series for given reports.

    All reports must come from the same dataset (digest check) and cover the
    same learner set.
    """
    reports = [_load_report(p) for p in report_paths]
    dataset, table, _, inputs = prepare_run(
        data_path,
        needs_table=True,
        sr_table_path=sr_table_path,
        sr_metric=sr_metric,
        data_format=data_format,
        top_topics=top_topics,
    )
    for path, report in zip(report_paths, reports):
        if report["manifest"]["inputs"]["data"] != inputs["data"]:
            raise DataError(
                f"{path}: report was produced from a different dataset "
                "(data digest mismatch)"
            )

    models: list[tuple[str, dict[str, Trace]]] = []
    for report in reports:
        for entry in report["models"]:
            models.append((entry["model_id"], _traces_from_report(entry)))
    learner_sets = [set(traces) for _, traces in models]
    if any(s != learner_sets[0] for s in learner_sets[1:]):
        raise DataError("reports cover different learner sets; refusing to analyze")

    srocc_by_model = {}
    series_by_model = {}
    max_n = max(len(t) for _, traces in models for t in traces.values())
    for model_id, traces in models:
        rows = session_feature_table(dataset, traces, table)
        srocc_by_model[model_id] = session_feature_srocc(rows)
        series_by_model[model_id] = dict(recall_by_event_index(traces, max_n))

    inputs.update({f"report_{i}": file_digest(p) for i, p in enumerate(report_paths)})
    manifest = RunManifest(
        command="analyze",
        models=[mid for mid, _ in models],
        inputs=inputs,
        outputs=[SROCC_FILENAME, RECALL_SERIES_FILENAME],
    )
    digest = manifest.digest()

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    srocc_path = out_dir / SROCC_FILENAME
    series_path = out_dir / RECALL_SERIES_FILENAME
    model_ids = [mid for mid, _ in models]
    _write_csv(
        srocc_path,
        digest,
        ["feature", *model_ids],
        (
            [feature, *(_significant_rho(*srocc_by_model[mid][feature]) for mid in model_ids)]
            for feature in SESSION_FEATURES
        ),
        "graph_features=full_session",
    )
    # Every model's traces align with the dataset's events (checked by
    # session_feature_table), so each series covers positions 1..max_n.
    _write_csv(
        series_path,
        digest,
        ["n", *[f"recall_{mid}" for mid in model_ids]],
        ([n, *(f"{series_by_model[mid][n]:.6f}" for mid in model_ids)] for n in range(1, max_n + 1)),
        "recall=cumulative",
    )
    return {"srocc": srocc_path, "recall_series": series_path}
