"""Record the reference digests of every input and output file, per seed.

Usage (from the repository root)::

    python3 perfbench/record_reference.py SEED [SEED ...]

Runs each workload's commands once per seed on the current sources and
merges the sha256 digests into ``perfbench/reference.json``, which
``run.py`` checks every timed and traced invocation against. The tune
workload is run at one worker and at its own worker count, and the two must
agree byte for byte before anything is recorded. Record again only when a
change alters the outputs on purpose.
"""

from __future__ import annotations

import json
import shutil
import sys

import run


def record(seed: int) -> dict:
    inputs = run.make_inputs(seed, "full")
    entry = {"inputs": {key: run.file_digest(path) for key, path in inputs.items()}}
    work = run.OUT / "record" / f"seed{seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    for name, workload in run.WORKLOADS.items():
        checker = run.Checker(None)
        run.prepare(workload, inputs, work, checker)
        for workers in sorted({1, workload.workers}):
            out = work / f"{name}-w{workers}"
            command = workload.command(inputs, work, out, workers)
            checker.run("outputs", run.cli_argv(command.args), command, out)
        if checker.failed:
            raise SystemExit(f"seed {seed}, {name}: " + "; ".join(checker.problems))
        entry[name] = checker.expected
    shutil.rmtree(work, ignore_errors=True)
    return entry


def main(argv: list[str]) -> int:
    if not argv:
        print(__doc__, file=sys.stderr)
        return 1
    recorded = {"seeds": {}}
    if run.REFERENCE.exists():
        recorded = json.loads(run.REFERENCE.read_text(encoding="utf-8"))
    for seed in map(int, argv):
        recorded["seeds"][str(seed)] = record(seed)
        recorded["seeds"] = dict(sorted(recorded["seeds"].items(), key=lambda kv: int(kv[0])))
        run.REFERENCE.write_text(json.dumps(recorded, indent=1) + "\n", encoding="utf-8")
        print(f"recorded seed {seed}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
