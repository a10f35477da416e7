"""Time what one CLI invocation pays before its first replay or graph.

Usage::

    python3 perfbench/setup_probe.py --data EVENTS.csv [--sr-table SR.csv] [--split]

In a fresh interpreter: import ``semlearn.cli``, then the workload's
``load_events``, ``load_sr_table`` and ``split_learners``, called through
``semlearn.runs`` as the commands call them. Prints one JSON line with the
stage times and, untimed, the event counts of the train/test split the
commands use (seed 42, train fraction 0.7).
"""

import argparse
import importlib
import json
import time

T0 = time.perf_counter()
importlib.import_module("semlearn.cli")
IMPORT_S = time.perf_counter() - T0

SPLIT_SEED = 42
TRAIN_FRACTION = 0.7


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--data", required=True)
    parser.add_argument("--sr-table")
    parser.add_argument("--split", action="store_true", help="time split_learners too")
    args = parser.parse_args()
    runs = importlib.import_module("semlearn.runs")

    out = {"import_s": IMPORT_S}
    t = time.perf_counter()
    dataset = runs.load_events(args.data)
    out["load_events_s"] = time.perf_counter() - t
    if args.sr_table:
        t = time.perf_counter()
        runs.load_sr_table(args.sr_table, "w2v")
        out["load_sr_table_s"] = time.perf_counter() - t
    t = time.perf_counter()
    dataset = runs.split_learners(dataset, TRAIN_FRACTION, SPLIT_SEED)
    if args.split:
        out["split_learners_s"] = time.perf_counter() - t
    out["n_events"] = dataset.n_events
    out["train_events"] = sum(len(dataset.learners[lid]) for lid in dataset.train_ids())
    out["test_events"] = sum(len(dataset.learners[lid]) for lid in dataset.test_ids())
    print(json.dumps(out))


if __name__ == "__main__":
    main()
