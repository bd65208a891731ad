"""seqtag benchmark: one workload, one seed, one measuring window.

    python3 perfbench/run.py --workload train-mtl --seed 1 --seconds 20 --trace 0

Run from the repository root; the program is imported from ``src/``.
With ``--trace 0`` the last stdout line is a JSON object with the
end-to-end metrics of ``BENCHMARK.json``; with ``--trace 1`` it holds
the per-layer metrics of a traced run. Earlier lines give the metrics
under the workload's own names, sample counts and the machine context.
Inputs are generated from ``--seed`` under ``.perfbench_work/``, which
is removed at the end except for ``results.jsonl`` and the last trace.
Exit codes: 0 valid result, 1 an output check failed, 2 the program
cannot be imported.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORK = ROOT / ".perfbench_work"


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, ``q`` in (0, 100]."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def context(samples) -> dict:
    """Facts stored next to every result; nothing is gated on them."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = "unknown"
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=30,
        )
        commit = done.stdout.strip() or commit
    src_lines = sum(
        1
        for path in (ROOT / "src").rglob("*.py")
        for line in path.read_text(encoding="utf-8").splitlines()
        if line.strip()
    )
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {
            k: os.environ[k]
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
            if k in os.environ
        }
        or "default",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "commit": commit,
        "src_nonblank_lines": src_lines,
        "host_chunk_ms": statistics.median(s.chunk_s for s in samples) * 1e3,
    }


def measure(workload, probe, seconds: float, tracer=None) -> list:
    """Call ``run_once`` until ``seconds`` have passed, at least once.
    With a tracer, each call is a run of its own inside a root span."""
    from perfbench.layers import ROOT

    samples = []
    deadline = time.perf_counter() + seconds
    while not samples or time.perf_counter() < deadline:
        probe.reset()
        if tracer is None:
            samples.append(workload.run_once(probe))
            continue
        tracer.run = len(samples)
        root = tracer.begin(ROOT)
        samples.append(workload.run_once(probe))
        tracer.end(root)
    return samples


def _same_count(series: list[list], what: str) -> None:
    """Every call does identical work, so it sets the same marks."""
    from perfbench.workloads import CheckFailed

    counts = {len(s) for s in series}
    if len(counts) != 1:
        raise CheckFailed(f"calls made different numbers of {what}: {sorted(counts)}")


def median_seconds(samples) -> float:
    """Host-corrected time of the timed region, each piece at its median
    over the calls. Every call does identical work, so a piece differs
    between calls only by what the correction missed; the median drops
    a piece's slow repeats without favouring its fast ones."""
    _same_count([s.pieces for s in samples], "marked pieces")
    return sum(statistics.median(repeats) for repeats in zip(*(s.pieces for s in samples)))


def throughput(samples) -> float:
    return samples[0].tokens / median_seconds(samples)


def item_latencies(samples) -> list[float]:
    """Host-corrected ``predict_labels`` latencies, each prediction at
    its median over the calls (every call makes the same predictions)."""
    _same_count([s.latencies_ms for s in samples], "predictions")
    return [statistics.median(repeats) for repeats in zip(*(s.latencies_ms for s in samples))]


def end_to_end(samples) -> tuple[dict, list[str]]:
    from perfbench.hostclock import NOMINAL_S

    latencies = item_latencies(samples)
    metrics = {
        "tok_s": (throughput(samples), "tok/s"),
        "sentence_ms_p50": (percentile(latencies, 50), "ms"),
        "sentence_ms_p90": (percentile(latencies, 90), "ms"),
        "setup_s": (statistics.median(s.setup_s for s in samples), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "accuracy": (samples[0].accuracy, "ratio"),
    }
    units = sum(s.units for s in samples)
    raw_s = statistics.median(s.raw_seconds for s in samples)
    notes = [
        f"calls {len(samples)}: host-corrected tok/s "
        + " ".join(f"{s.tokens / s.seconds:.1f}" for s in samples),
        f"raw tok_s {samples[0].tokens / raw_s:.4f} tok/s (wall clock, median call {raw_s:.4f} s)",
        f"predict_labels samples {len(latencies)} per call, each at its median "
        f"over {len(samples)} calls",
        f"sentence_ms_p99 {percentile(latencies, 99):.4f} ms",
        f"failed_share {sum(s.failed for s in samples) / units} of {units} units",
        f"units_per_min {60 * samples[0].units / median_seconds(samples):.4f}"
        " (on search: search_runs_per_min)",
        f"{len(samples[0].pieces)} pieces per call, host chunk "
        f"{statistics.median(s.chunk_s for s in samples) * 1e3:.4f} ms "
        f"(nominal {NOMINAL_S * 1e3} ms)",
    ]
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    try:
        from perfbench import layers, workloads
        from perfbench.trace import Patches, Tracer
    except ImportError as err:
        print(f"error: cannot import the program: {err}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    os.environ.pop("SEQTAG_RESULTS", None)

    definitions = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    layer_units = {m["name"]: m["unit"] for m in definitions["per_layer"]}
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    patches = Patches()
    try:
        workload = workloads.WORKLOADS[args.workload].make()
        workload.prepare(work, args.seed)
        probe = workloads.Probe()
        probe.install(patches)
        if not args.trace:
            samples = measure(workload, probe, args.seconds)
            metrics, notes = end_to_end(samples)
        else:
            # untraced calls first, then traced ones: their ratio is the overhead
            plain = measure(workload, probe, args.seconds / 2)
            tracer = Tracer()
            layers.install(tracer, patches)
            probe.tracer = tracer
            traced = measure(workload, probe, args.seconds / 2, tracer)
            tracer.write(WORK / f"trace-{args.workload}-{args.seed}.jsonl")
            samples = plain + traced
            values = layers.layer_metrics(tracer, len(traced), sum(s.tokens for s in traced))
            values["trace.overhead"] = throughput(traced) / throughput(plain)
            metrics = {k: {"value": values[k], "unit": u} for k, u in layer_units.items()}
            notes = [f"untraced calls {len(plain)}", f"traced calls {len(traced)}"]
        correct = True
        try:
            workload.check(samples)
            failed = sum(s.failed for s in samples)
            if failed:
                raise workloads.CheckFailed(f"{failed} failed units")
        except workloads.CheckFailed as err:
            correct = False
            notes.append(f"CHECK FAILED: {err}")
    except workloads.CheckFailed as err:
        print(f"error: output check failed: {err}", file=sys.stderr)
        return 1
    finally:
        patches.restore()
        shutil.rmtree(work, ignore_errors=True)

    result = {
        "correct": correct,
        "attempted": sum(s.units for s in samples),
        "failed": sum(s.failed for s in samples),
        "metrics": metrics,
    }
    facts = context(samples)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace, **result}
    with open(WORK / "results.jsonl", "a", encoding="utf-8") as out:
        out.write(json.dumps({**record, "context": facts}) + "\n")
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for line in notes:
        print(line)
    for name, metric in metrics.items():
        print(f"{name} {metric['value']} {metric['unit']}")
    print("context " + json.dumps(facts))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
