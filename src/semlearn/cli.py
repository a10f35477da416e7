"""Command-line entry point: evaluate, tune, analyze, validate-data.

Exit codes: 0 success, 1 usage error, 2 data error.
"""

from __future__ import annotations

import json
import logging
import sys
from dataclasses import fields

import click

from .data import DataError, load_events
from .novel import ModelConfig
from .relatedness import METRICS, load_sr_table
from .runs import MODELS, MODEL_SEMANTIC, analyze_run, evaluate_run, tune_run
from .semantic import PropagationConfig

_OMEGA_CHOICES = ("1", "3", "5", "10", "all")


def _load_config_file(path) -> dict:
    if path is None:
        return {}
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise DataError(f"cannot read config file {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise DataError(f"config file {path} must hold a JSON object")
    return raw


def _build_configs(config_path, sr_metric, omega):
    """Merge config file with CLI overrides into (ModelConfig, PropagationConfig)."""
    raw = _load_config_file(config_path)
    model_keys = {f.name for f in fields(ModelConfig)}
    prop_keys = {f.name for f in fields(PropagationConfig)}
    unknown = set(raw) - model_keys - prop_keys
    if unknown:
        raise click.UsageError(f"unknown config keys: {sorted(unknown)}")
    base_cfg = ModelConfig.from_dict({k: v for k, v in raw.items() if k in model_keys})
    prop_raw = {k: v for k, v in raw.items() if k in prop_keys}
    if sr_metric is not None:
        prop_raw["sr_metric"] = sr_metric
    if omega is not None:
        prop_raw["omega_size"] = None if omega == "all" else int(omega)
    prop_cfg = PropagationConfig.from_dict(prop_raw)
    return base_cfg, prop_cfg


def _open_unit_interval(ctx, param, value):
    """A float strictly between 0 and 1; NaN fails the comparison too."""
    if not 0.0 < value < 1.0:
        raise click.BadParameter(f"{value} is not in the open range (0, 1)")
    return value


def _options(*options):
    """Apply click options in the order listed."""

    def decorate(fn):
        for option in reversed(options):
            fn = option(fn)
        return fn

    return decorate


_data_options = _options(
    click.option("--data", "data_path", required=True, help="Event log (CSV or JSONL)."),
    click.option(
        "--data-format",
        type=click.Choice(["auto", "csv", "jsonl"]),
        default="auto",
        show_default=True,
    ),
    click.option("--top-topics", type=click.IntRange(min=1), help="Keep only the first K topics per event."),
)

_common_options = _options(
    _data_options,
    click.option("--sr-table", "sr_table_path", default=None, help="Relatedness CSV."),
    click.option("--sr-metric", type=click.Choice(METRICS), default=None),
    click.option("--omega", type=click.Choice(_OMEGA_CHOICES), default=None),
    click.option("--config", "config_path", default=None, help="JSON config file."),
    click.option("--seed", type=int, default=42, show_default=True),
    click.option("--train-fraction", type=float, default=0.7, show_default=True, callback=_open_unit_interval),
    click.option("--top-learners", type=click.IntRange(min=1), help="Keep the N most active learners."),
    click.option("--workers", type=click.IntRange(min=1), default=1, show_default=True),
)


@click.group()
def cli():
    """Engagement prediction from evolving Gaussian skill beliefs."""


@cli.command("evaluate")
@_common_options
@click.option("--model", type=click.Choice(MODELS), default=MODELS[0], show_default=True)
@click.option("--compare", is_flag=True, help="Run both models and append a paired t-test.")
@click.option("--out-dir", default="runs/evaluate", show_default=True)
def cmd_evaluate(config_path, sr_metric, omega, model, compare, **common):
    """Replay test-split learners sequentially and write JSON + CSV reports."""
    base_cfg, prop_cfg = _build_configs(config_path, sr_metric, omega)
    if (compare or model == MODEL_SEMANTIC) and common["sr_table_path"] is None:
        raise click.UsageError("--sr-table is required for the semantic model")
    out = evaluate_run(
        model=model, compare=compare, base_cfg=base_cfg, prop_cfg=prop_cfg, **common
    )
    for entry in out["report_obj"]["models"]:
        weighted = entry["weighted"]
        click.echo(
            f"{entry['model_id']}: precision={weighted['precision']:.4f} "
            f"recall={weighted['recall']:.4f} f1={weighted['f1']:.4f}"
        )
    comparison = out["report_obj"]["comparison"]
    if comparison:
        for metric, stats in comparison["metrics"].items():
            click.echo(f"paired t-test ({metric}): t={stats['t']:.4f} p={stats['p']:.6g}")
    click.echo(f"wrote {out['report']} and {out['summary']}")


@cli.command("tune")
@_common_options
@click.option("--model", type=click.Choice(MODELS), default=MODELS[0], show_default=True)
@click.option("--grid", "grid_path", required=True, help="JSON grid file ({param: [values...]}).")
@click.option("--out-dir", default="runs/tune", show_default=True)
def cmd_tune(config_path, sr_metric, omega, model, **common):
    """Grid-search hyperparameters on the train split; select by weighted F1."""
    base_cfg, prop_cfg = _build_configs(config_path, sr_metric, omega)
    if model == MODEL_SEMANTIC and common["sr_table_path"] is None:
        raise click.UsageError("--sr-table is required for the semantic model")
    out = tune_run(model=model, base_cfg=base_cfg, prop_cfg=prop_cfg, **common)
    click.echo(f"best F1 {out['best_f1']:.4f} with config {out['best_config']}")
    for path in out["paths"]:
        click.echo(f"wrote {path}")


@cli.command("analyze")
@click.argument("reports", nargs=-1, required=True)
@_data_options
@click.option("--sr-table", "sr_table_path", required=True)
@click.option("--sr-metric", type=click.Choice(METRICS), default="w2v", show_default=True)
@click.option("--out-dir", default="runs/analyze", show_default=True)
def cmd_analyze(reports, **options):
    """Emit the per-feature SROCC table and recall-by-event series for evaluate reports."""
    out = analyze_run(list(reports), **options)
    click.echo(f"wrote {out['srocc']} and {out['recall_series']}")


@cli.command("validate-data")
@_data_options
@click.option("--sr-table", "sr_table_path", default=None)
@click.option("--sr-metric", type=click.Choice(METRICS), default="w2v", show_default=True)
def cmd_validate_data(data_path, data_format, sr_table_path, sr_metric, top_topics):
    """Load inputs, print ingestion diagnostics, and exit nonzero on hard errors."""
    dataset = load_events(data_path, fmt=data_format, top_topics=top_topics)
    report = dataset.ingest
    click.echo(f"learners: {dataset.n_learners}")
    click.echo(f"events: {dataset.n_events}")
    click.echo(f"rows read: {report.rows_read}")
    click.echo(f"malformed rows: {report.malformed_rows}")
    if report.first_malformed_line is not None:
        click.echo(
            f"  first at line {report.first_malformed_line}: {report.first_malformed_reason}"
        )
    click.echo(f"depths clamped: {report.clamped_depths}")
    click.echo(f"empty-topic events dropped: {report.dropped_empty_topic_events}")
    if sr_table_path is not None:
        table = load_sr_table(sr_table_path, sr_metric)
        click.echo(f"sr pairs ({table.metric}): {len(table)}")


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    try:
        cli.main(args=argv, standalone_mode=False)
    except click.exceptions.Exit as exc:
        return exc.exit_code
    except click.ClickException as exc:
        exc.show(file=sys.stderr)
        return 1
    except click.Abort:
        click.echo("aborted", err=True)
        return 1
    except DataError as exc:
        click.echo(f"data error: {exc}", err=True)
        return 2
    except ValueError as exc:
        click.echo(f"error: {exc}", err=True)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
