"""Smoke check of the benchmark itself, on tiny corpora (about a minute).

Usage (from the repository root)::

    python3 perfbench/smoke.py

For every workload of ``run.py`` (also one that ``BENCHMARK.json`` does not
list) it runs ``run.py`` untraced and traced and checks that
both finish correct with no failed invocation, that tracing leaves every
output digest unchanged, and that each metric of ``BENCHMARK.json`` (plus
``failed_frac``) is emitted with its unit and a sample count. It also checks
that the benchmark refuses to run in a directory that holds only
``BENCHMARK.json`` and the benchmark's own files.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import run

SEED = 3


def invoke(root, *args) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), *args],
        cwd=root, capture_output=True, text=True, timeout=600,
    )


def check_workload(name: str, spec: dict) -> list[str]:
    problems = []
    results = {}
    for traced in (0, 1):
        proc = invoke(run.ROOT, "--workload", name, "--seed", str(SEED), "--seconds", "1",
                      "--trace", str(traced), "--tiny")
        if proc.returncode != 0:
            return [f"{name} trace={traced}: exit {proc.returncode}: {proc.stderr[-500:]}"]
        line = json.loads(proc.stdout.strip().splitlines()[-1])
        expected = {m["name"]: m["unit"] for m in spec["per_layer" if traced else "end_to_end"]}
        if set(line) != {"correct", "attempted", "failed", "metrics"}:
            problems.append(f"{name} trace={traced}: result keys {sorted(line)}")
        if not line["correct"] or line["failed"] or line["attempted"] < 1:
            problems.append(f"{name} trace={traced}: not correct: {line}")
        if {k: v["unit"] for k, v in line["metrics"].items()} != expected:
            problems.append(f"{name} trace={traced}: result-line metrics differ from BENCHMARK.json")
        saved = json.loads(
            (run.OUT / "results" / f"{name}-tiny-seed{SEED}-trace{traced}.json").read_text()
        )
        wanted = dict(expected, **({} if traced else {"failed_frac": "fraction"}))
        for metric, unit in wanted.items():
            got = saved["metrics"].get(metric)
            if got is None or got["unit"] != unit or not isinstance(got.get("samples"), int):
                problems.append(f"{name} trace={traced}: {metric} missing unit or sample count: {got}")
        results[traced] = saved
    if results[0]["outputs"] != results[1]["outputs"]:
        problems.append(f"{name}: traced digests differ from untraced ones")
    return problems


def check_refuses_without_sources() -> list[str]:
    bare = run.OUT / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(run.BENCH, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = invoke(bare, "--workload", "compare-omega-all", "--seed", "1", "--seconds", "1", "--trace", "0")
    shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"without sources: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}"]
    return []


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems = check_refuses_without_sources()
    for name in run.WORKLOADS:
        problems += check_workload(name, spec)
    for problem in problems:
        print(f"FAIL {problem}")
    print("smoke check " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
