"""Benchmark command: one workload, one seed, one local Ray session.

    python3 raybench/run.py --workload extract_flagship --seed 1 --seconds 15 --trace 0

Run from the root of a checkout. The run

1. builds the seeded inputs and their Ray-free references, or reuses the
   copy cached under raybench/.work/inputs;
2. starts one local Ray session sized to ``nproc`` and warms it with one
   small run of the workload (``setup_s``);
3. runs the workload in a closed loop, one iteration after the other,
   while another iteration as long as the last one still fits in
   ``--seconds``, and at least ``MIN_ITERATIONS`` times, checking every
   output;
4. with ``--trace 1``, runs one more iteration with spans around the calls
   into each layer, plus single-process kernel and stage probes, and
   reports the per-layer metrics instead of the end-to-end ones.

Host probes (CPU loop, allocation, load average) are taken before and after
and printed in a report line; the last line of stdout is the result.
Metric names and units come from BENCHMARK.json; which layers each
workload enters comes from raybench/layers.json. A layer the workload does
not enter reports 0.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK = os.path.join(ROOT, "raybench", ".work")
# docs_per_s is the median over iterations, so every run needs a few
MIN_ITERATIONS = 3
WORKLOADS = ("extract_flagship", "extract_heavy", "daily_increment")


def _parse(argv) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs, for raybench/smoke.py")
    return ap.parse_args(argv)


def _spec() -> tuple:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    with open(os.path.join(ROOT, "raybench", "layers.json")) as f:
        layers = json.load(f)
    return bench, layers


def _nproc() -> int:
    """CPUs as ``nproc`` counts them: it honours OMP_NUM_THREADS, which
    pins the session to one CPU on hosts that set it."""
    try:
        return int(subprocess.run(["nproc"], capture_output=True, text=True,
                                  timeout=10).stdout)
    except (OSError, ValueError, subprocess.SubprocessError):
        return len(os.sched_getaffinity(0))


def _iterate(wl, seconds: float, min_iters: int) -> tuple:
    """Closed loop: (completed iterations, attempted, failed)."""
    done, attempted, failed = [], 0, 0
    start = time.perf_counter()
    elapsed = last = 0.0
    while attempted < min_iters or elapsed + last <= seconds:
        attempted += 1
        t0 = time.perf_counter()
        try:
            done.append(wl.iteration())
        except Exception:  # a failed iteration is counted, the run goes on
            failed += 1
            traceback.print_exc(file=sys.stderr)
            if not done and failed >= min_iters:
                break  # nothing works: stop instead of burning the clock
        last = time.perf_counter() - t0
        elapsed = time.perf_counter() - start
    return done, attempted, failed


def _end_to_end(iters: list, setup_s: float, peak_rss: int) -> dict:
    steps = [s for it in iters for s in it]
    checked = sum(s.checked for s in steps)
    return {
        # one sample per iteration: its docs over its summed step wall
        "docs_per_s": statistics.median(
            sum(s.docs for s in it) / sum(s.wall_s for s in it) for it in iters) if iters else 0.0,
        "setup_s": setup_s,
        "correct_rate": sum(s.matched for s in steps) / checked if checked else 0.0,
        "peak_rss_mb": peak_rss / 1e6,
        "written_mb": statistics.median(sum(s.bytes for s in it) / len(it) for it in iters) / 1e6
        if iters else 0.0,
    }


def _traced(wl, iters: list, cpus: int, tracer) -> tuple:
    """One traced iteration and the layer metrics it yields."""
    with tracer.span("trace.iteration"):
        steps = wl.iteration(tracer)
    traced_wall = sum(s.wall_s for s in steps)
    metrics = wl.layer_metrics(tracer, steps, cpus)
    metrics.update({
        "storage.bytes_written": sum(s.bytes for s in steps),
        "storage.files_written": sum(s.files for s in steps),
        "trace.wall_s": traced_wall,
        "trace.overhead_s": traced_wall - statistics.median(
            sum(s.wall_s for s in it) for it in iters),
        "trace.spans": len(tracer.spans),
    })
    return steps, metrics


def _layer_values(layers: dict, workload: str, measured: dict, names: list) -> dict:
    """Every per-layer metric: measured where the workload enters the
    layer, 0 where it does not. A missing measurement is a bug."""
    entered = {m for layer in layers["layers"] if workload in layer["workloads"]
               for m in layer["metrics"]}
    missing = entered - measured.keys()
    if missing:
        raise KeyError(f"layer metrics not measured: {sorted(missing)}")
    return {n: float(measured[n]) if n in entered else 0.0 for n in names}


def run(args) -> dict:
    from raybench import host, inputs
    from raybench.layers import Tracer
    from raybench.workloads import Daily, Extraction

    bench, layers = _spec()
    sizes = (inputs.SMOKE_SIZES if args.smoke else inputs.SIZES)[args.workload]
    cpus = _nproc()
    report = {"workload": args.workload, "seed": args.seed, "cpus": cpus,
              "sizes": vars(sizes), "host_before": host.host_probes()}
    input_dir, report["inputs"] = inputs.prepare(
        os.path.join(WORK, "inputs"), args.workload, args.seed, sizes)
    run_dir = os.path.join(WORK, "run", f"{args.workload}-{os.getpid()}")
    cls = Daily if args.workload == "daily_increment" else Extraction
    wl = cls(input_dir, run_dir)
    tracer = Tracer()
    attempted = failed = 0
    iters, metrics = [], {}
    try:
        t0 = time.perf_counter()
        with host.ray_session(os.path.join(WORK, "ray"), cpus):
            init_s = time.perf_counter() - t0
            try:
                wl.warm_up()
            except Exception:
                attempted, failed = 1, 1
                traceback.print_exc(file=sys.stderr)
            setup_s = time.perf_counter() - t0
            with host.PeakRss() as rss:
                iters, n, bad = _iterate(wl, args.seconds, MIN_ITERATIONS)
            attempted, failed = attempted + n, failed + bad
            if args.trace and iters:
                attempted += 1
                try:
                    steps, measured = _traced(wl, iters, cpus, tracer)
                    metrics = _layer_values(layers, args.workload, measured,
                                            [m["name"] for m in bench["per_layer"]])
                    iters = iters + [steps]
                except Exception:
                    failed += 1
                    traceback.print_exc(file=sys.stderr)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    e2e = _end_to_end(iters, setup_s, rss.peak)
    if not args.trace:
        metrics = e2e
    report.update({"init_s": init_s, "iterations": [[s.wall_s for s in it] for it in iters],
                   "end_to_end": e2e, "host_after": host.host_probes()})
    os.makedirs(os.path.join(WORK, "reports"), exist_ok=True)
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    with open(os.path.join(WORK, "reports", f"{tag}.json"), "w") as f:
        json.dump(report, f, indent=1)
    if args.trace:
        tracer.write(os.path.join(WORK, "reports", f"{tag}.spans.json"))
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    print(json.dumps({"report": report}))
    return {
        "correct": failed == 0 and bool(iters) and e2e["correct_rate"] == 1.0
        and len(metrics) == len(bench["per_layer" if args.trace else "end_to_end"]),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def main(argv=None) -> int:
    args = _parse(argv)
    os.chdir(ROOT)  # Ray workers import pdftext_ray from the driver's cwd
    sys.path[0] = ROOT
    try:
        import pdftext_ray  # noqa: F401  (also pins BLAS threads before numpy loads)
    except ImportError as e:
        print(f"raybench: cannot import the program from {ROOT}: {e}", file=sys.stderr)
        return 2
    result = run(args)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
