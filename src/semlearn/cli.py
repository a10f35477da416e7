"""Command-line entry point: evaluate, tune, analyze, validate-data.

Exit codes: 0 success, 1 usage error or an output that cannot be written,
2 data error.
"""

from __future__ import annotations

import argparse
import logging
import sys
from dataclasses import fields

from .data import DataError, read_json
from .novel import ModelConfig
from .relatedness import METRICS
from .runs import MODELS, OUTPUTS, RunSpec, analyze_run, evaluate_run, prepare_run, tune_run
from .semantic import OMEGA_SIZES, PropagationConfig

_OMEGA_CHOICES = tuple(str(size or "all") for size in OMEGA_SIZES)
_DEFAULT = "default: %(default)s"


def _spec(config_path=None, omega=None, sr_metric=None, **options) -> RunSpec:
    """A command's RunSpec: the --config keys, then --omega and --sr-metric laid over
    them, then the remaining options by their RunSpec field names."""
    raw = {} if config_path is None else read_json(config_path, "config file")
    if not isinstance(raw, dict):
        raise DataError(f"config file {config_path} must hold a JSON object")
    prop = {f.name: raw.pop(f.name) for f in fields(PropagationConfig) if f.name in raw}
    if omega is not None:
        prop["omega_size"] = int(omega) if omega.isdigit() else omega
    if sr_metric is not None:
        prop["sr_metric"] = sr_metric
    if prop.get("omega_size") == "all":
        prop["omega_size"] = None
    # ModelConfig.from_dict refuses the keys left that are not model keys, as in a grid.
    cfg = ModelConfig.from_dict(raw)
    return RunSpec(model_config=cfg, propagation_config=PropagationConfig(**prop), **options)


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on a usage error; here 2 means a data error.
    def error(self, message):
        self.print_usage(sys.stderr)
        raise ValueError(f"{self.prog}: {message}")


def int_at_least(low: int):
    """An argparse type: an int no less than ``low``."""

    def integer(text: str) -> int:  # argparse's errors name it: "invalid integer value"
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"{value} is not >= {low}")
        return value

    return integer


def fraction(text: str) -> float:
    """A float strictly between 0 and 1; NaN fails the comparison too."""
    value = float(text)
    if not 0.0 < value < 1.0:
        raise argparse.ArgumentTypeError(f"{value} is not in the open range (0, 1)")
    return value


def cmd_evaluate(out_dir, model, compare, workers, **settings):
    """Replay test-split learners sequentially and write JSON + CSV reports."""
    out = evaluate_run(_spec(**settings), out_dir, model, compare=compare, workers=workers)
    for entry in out["report_obj"]["models"]:
        weighted = entry["weighted"]
        print(
            f"{entry['model_id']}: precision={weighted['precision']:.4f} "
            f"recall={weighted['recall']:.4f} f1={weighted['f1']:.4f}"
        )
    comparison = out["report_obj"]["comparison"]
    if comparison:
        for metric, stats in comparison["metrics"].items():
            print(f"paired t-test ({metric}): t={stats['t']:.4f} p={stats['p']:.6g}")
    print(f"wrote {out['report']} and {out['summary']}")


def cmd_tune(grid_path, out_dir, model, workers, **settings):
    """Grid-search hyperparameters on the train split; select by weighted F1."""
    out = tune_run(_spec(**settings), grid_path, out_dir, model, workers=workers)
    print(f"best F1 {out['best_f1']:.4f} with config {out['best_config']}")
    for path in out["paths"]:
        print(f"wrote {path}")


def cmd_analyze(reports, out_dir, **settings):
    """Emit the per-feature SROCC table and recall-by-event series for evaluate reports."""
    out = analyze_run(reports, _spec(**settings), out_dir)
    print(f"wrote {out['srocc']} and {out['recall_series']}")


def cmd_validate_data(**settings):
    """Load inputs, print ingestion diagnostics, and exit nonzero on hard errors."""
    spec = _spec(**settings)
    dataset, table, _ = prepare_run(spec, needs_table=spec.sr_table_path is not None, split=False)
    report = dataset.ingest
    print(f"learners: {len(dataset.learners)}")
    print(f"events: {dataset.n_events}")
    print(f"rows read: {report.rows_read}")
    print(f"malformed rows: {report.malformed_rows}")
    if report.first_malformed_line is not None:
        print(f"  first at line {report.first_malformed_line}: {report.first_malformed_reason}")
    print(f"depths clamped: {report.clamped_depths}")
    print(f"empty-topic events dropped: {report.dropped_empty_topic_events}")
    if table is not None:
        print(f"sr pairs ({table.metric}): {len(table)}")
        topics = {t for events in dataset.learners.values() for e in events for t, _ in e.topics}
        covered = len(topics & table.neighbours.keys())
        print(f"sr coverage: {covered} of {len(topics)} event topics have a relatedness row")


def _parser() -> _Parser:
    data = _Parser(add_help=False)
    data.add_argument("--data", dest="data_path", required=True, help="Event log (CSV or JSONL).")
    data.add_argument("--top-topics", type=int_at_least(1), help="Keep the first K topics per event.")
    data.add_argument("--sr-table", dest="sr_table_path", help="Relatedness CSV.")
    # No argparse default here or for --omega: _spec lays a given one over the --config keys.
    data.add_argument("--sr-metric", choices=METRICS, help=f"default: {PropagationConfig.sr_metric}")

    run = _Parser(add_help=False, parents=[data])
    omega = PropagationConfig.omega_size or "all"
    run.add_argument("--omega", choices=_OMEGA_CHOICES, help=f"default: {omega}")
    run.add_argument("--config", dest="config_path", help="JSON config file.")
    run.add_argument("--seed", type=int_at_least(0), default=RunSpec.seed, help=_DEFAULT)
    run.add_argument("--train-fraction", type=fraction, default=RunSpec.train_fraction, help=_DEFAULT)
    run.add_argument("--top-learners", type=int_at_least(1), help="Keep the N most active learners.")
    run.add_argument("--workers", type=int_at_least(1), default=1, help=_DEFAULT)
    run.add_argument("--model", choices=MODELS, default=MODELS[0], help=_DEFAULT)

    parser = _Parser(
        prog="semlearn", description="Engagement prediction from evolving Gaussian skill beliefs."
    )
    commands = parser.add_subparsers(title="commands", required=True, metavar="COMMAND")

    def command(name, fn, parents):
        sub = commands.add_parser(
            name, parents=parents, help=fn.__doc__, description=fn.__doc__, allow_abbrev=False
        )
        sub.set_defaults(command=fn)
        if name in OUTPUTS:
            sub.add_argument("--out-dir", default=f"runs/{name}", help=_DEFAULT)
        return sub

    evaluate = command("evaluate", cmd_evaluate, [run])
    evaluate.add_argument(
        "--compare", action="store_true", help="Run both models and append a paired t-test."
    )
    tune = command("tune", cmd_tune, [run])
    tune.add_argument(
        "--grid", dest="grid_path", required=True, help="JSON grid file ({param: [values...]})."
    )
    analyze = command("analyze", cmd_analyze, [data])
    analyze.add_argument("reports", nargs="+", metavar="REPORT")
    command("validate-data", cmd_validate_data, [data])
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    try:
        options = vars(_parser().parse_args(argv))
        options.pop("command")(**options)
    except SystemExit as exc:  # only --help exits, after printing the help
        return exc.code
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    # OSError: an output file that cannot be written (inputs are DataErrors).
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
