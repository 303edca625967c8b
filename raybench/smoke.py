"""Smoke test of the benchmark itself, at tiny sizes.

    python3 raybench/smoke.py

For each workload, runs raybench/run.py untraced and traced and fails if a
correctness gate fails, a run fails, or a metric named in BENCHMARK.json is
missing, has the wrong unit, or reads 0 on a layer the workload enters
(the shuffle, which only extract_heavy runs, must read 0 on extract_flagship).
Then checks that the command refuses to run, without printing a result,
in a directory that holds only BENCHMARK.json and raybench/.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("extract_flagship", "extract_heavy", "daily_increment")


def _run(cwd: str, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "raybench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def _check(workload: str, trace: int, bench: dict, layers: dict) -> list:
    proc = _run(ROOT, workload, trace)
    tag = f"{workload} trace={trace}"
    if proc.returncode != 0:
        return [f"{tag}: exit {proc.returncode}\n{proc.stderr[-3000:]}"]
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    errors = []
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{tag}: result keys {sorted(res)}")
    if res["correct"] is not True or res["failed"] != 0 or res["attempted"] < 1:
        errors.append(f"{tag}: correct={res['correct']} attempted={res['attempted']} "
                      f"failed={res['failed']}\n{proc.stderr[-3000:]}")
    declared = bench["per_layer" if trace else "end_to_end"]
    got = res["metrics"]
    if sorted(got) != sorted(m["name"] for m in declared):
        errors.append(f"{tag}: metrics {sorted(got)} != BENCHMARK.json")
        return errors
    for m in declared:
        if got[m["name"]]["unit"] != m["unit"]:
            errors.append(f"{tag}: {m['name']} unit {got[m['name']]['unit']}")
    if not trace:
        for name in ("docs_per_s", "setup_s", "peak_rss_mb", "written_mb"):
            if not got[name]["value"] > 0:
                errors.append(f"{tag}: {name} = {got[name]['value']}")
        if got["correct_rate"]["value"] != 1.0:
            errors.append(f"{tag}: correct_rate = {got['correct_rate']['value']}")
        return errors
    # only extract_heavy has documents past the size threshold, so only it
    # shuffles; trace.overhead_s is a difference and may read anything
    shuffle = ("pipelines.extract.shuffle.wall_s", "pipelines.extract.shuffle.mb")
    entered = [n for layer in layers["layers"] if workload in layer["workloads"]
               for n in layer["metrics"] if n != "trace.overhead_s"]
    errors += [f"{tag}: {n} = 0" for n in entered if got[n]["value"] == 0
               and not (workload == "extract_flagship" and n in shuffle)]
    if workload == "extract_flagship":
        errors += [f"{tag}: {n} = {got[n]['value']}" for n in shuffle if got[n]["value"] != 0]
    ratio = got["kernel.phase_sum_ratio"]["value"]
    if workload != "daily_increment" and not 0.95 <= ratio <= 1.05:
        errors.append(f"{tag}: kernel.phase_sum_ratio = {ratio}")
    return errors


def _check_bare(scratch: str) -> list:
    """Without the program beside it, the command must fail, printing no result."""
    bare = os.path.join(scratch, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(os.path.join(ROOT, "raybench"), os.path.join(bare, "raybench"),
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    try:
        proc = _run(bare, "extract_flagship", 0)
    finally:
        shutil.rmtree(bare)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        return [f"bare checkout: exit {proc.returncode}, stdout {proc.stdout[-500:]!r}"]
    return []


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    with open(os.path.join(ROOT, "raybench", "layers.json")) as f:
        layers = json.load(f)
    errors = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            errors += _check(workload, trace, bench, layers)
    errors += _check_bare(os.path.join(ROOT, "raybench", ".work"))
    for e in errors:
        print("FAIL", e)
    print("smoke:", "FAILED" if errors else "ok")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
