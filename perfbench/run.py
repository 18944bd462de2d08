"""The repository benchmark: one command, three seeded workloads, two modes.

Run from the repository root::

    python3 perfbench/run.py --workload slab-push --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing installed;
``--trace 1`` is a separate run that wraps each layer's entry points (see
``perfbench/layers.py``), reports per-layer self time as a share of the
traced wall time plus counts, and reports the tracing overhead against
untraced passes made in the same run. Both modes run the workload's
correctness gates outside every timed span and exit 1 when one fails.

Standard output carries a human-readable report, then one ``record`` line
(provenance, parameters and every named metric), then, as its last line,
the result object ``{"correct", "attempted", "failed", "metrics"}``. Each
record is also appended to ``perfbench/out/trajectory.jsonl``; a traced run
writes its spans to ``perfbench/out/spans-<workload>-<seed>.jsonl``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Any

# Whether NumPy's madvise(MADV_HUGEPAGE) gets huge pages depends on how
# fragmented the machine's memory is at that moment; with it on, peak RSS
# jumps by ~25% and speed by ~20% between otherwise identical runs. Pinned
# off before NumPy is imported, so every run measures the same configuration.
os.environ["NUMPY_MADVISE_HUGEPAGE"] = "0"

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3

#: Traced passes per traced run, so pass layers outweigh the one traced set-up.
MIN_TRACED_PASSES = 2


def _peak_rss_bytes() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


def _git(*args: str) -> str | None:
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), *args],
            capture_output=True,
            text=True,
            timeout=30,
            check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def provenance(workload: Any, seed: int, seconds: int, trace: int) -> dict[str, Any]:
    """Where a record came from: code, toolchain, machine and inputs."""
    import numpy

    top = _git("rev-parse", "--show-toplevel")
    in_repo = top is not None and Path(top).resolve() == ROOT
    status = _git("status", "--porcelain", "--untracked-files=no") if in_repo else None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return {
        "git_sha": _git("rev-parse", "HEAD") if in_repo else None,
        "git_dirty": (bool(status) if status is not None else None),
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "numpy_madvise_hugepage": os.environ["NUMPY_MADVISE_HUGEPAGE"],
        "utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "params": workload.params,
    }


def _timed_setup(workload: Any, seed: int, samples: list[float]) -> Any:
    gc.collect()
    start = time.perf_counter()
    state = workload.setup(seed)
    samples.append(time.perf_counter() - start)
    return state


def _checks(workload: Any, state: Any, passes: list[Any]) -> list[tuple[str, bool]]:
    if not passes:
        return [("completed_a_pass", False)]
    try:
        return workload.checks(state, passes)
    except Exception:  # a gate that crashes is a failed gate
        traceback.print_exc()
        return [("checks_ran", False)]


def measure(workload: Any, seed: int, seconds: int) -> dict[str, Any]:
    """Untraced run: set-ups, timed passes, then the correctness gates."""
    baseline = _peak_rss_bytes()
    setups: list[float] = []
    passes: list[Any] = []
    failed_ops = 0
    state = None
    measured = 0.0
    # Peak RSS after the first set-up and pass: later set-ups rebuild the
    # same state, and whether the allocator reuses or grows then varied
    # from run to run by ~50% of the total on slab-push.
    peak: int | None = None
    try:
        # Set-ups interleave with the first passes, so both are sampled
        # across the whole run rather than in two separate stretches.
        while len(setups) < SETUP_REPEATS or measured < seconds:
            if len(setups) < SETUP_REPEATS:
                state = None
                state = _timed_setup(workload, seed, setups)
            passes.append(workload.run_pass(state, stamps=True))
            measured += passes[-1].wall_s
            if peak is None:
                peak = _peak_rss_bytes()
    except Exception:  # count the failed operation and report it
        traceback.print_exc()
        failed_ops += 1
    if peak is None:
        peak = _peak_rss_bytes()
    checks = _checks(workload, state, passes)
    samples = [s for p in passes for s in p.op_s]
    named = workload.summary(state, passes) if passes else {}
    return {
        "setups": setups,
        "passes": passes,
        "checks": checks,
        "failed_ops": failed_ops,
        "rss_growth": peak - baseline,
        "op_samples": samples,
        "named": named,
    }


def trace_run(workload: Any, seed: int, seconds: int) -> dict[str, Any]:
    """Traced run: alternate untraced and traced passes, then the gates."""
    from layers import Tracer

    tracer = Tracer()
    plain: list[Any] = []
    traced: list[Any] = []
    failed_ops = 0
    state = None
    try:
        start = time.perf_counter()
        while len(traced) < MIN_TRACED_PASSES or time.perf_counter() - start < seconds:
            if not plain:
                gc.collect()
                state = workload.setup(seed)
            plain.append(workload.run_pass(state, stamps=False))
            if not traced:
                state = None
                gc.collect()
            with tracer.installed():
                if not traced:
                    state = workload.setup(seed)
                traced.append(workload.run_pass(state, stamps=False))
    except Exception:  # count the failed operation and report it
        traceback.print_exc()
        failed_ops += 1
    checks = _checks(workload, state, traced or plain)
    return {
        "tracer": tracer,
        "plain": plain,
        "traced": traced,
        "checks": checks,
        "failed_ops": failed_ops,
    }


def _metric(value: float, unit: str) -> dict[str, Any]:
    return {"value": value, "unit": unit}


def end_to_end(workload: Any, result: dict[str, Any]) -> dict[str, dict[str, Any]]:
    passes = result["passes"]
    return {
        "setup_s": _metric(statistics.median(result["setups"]), "s"),
        "throughput_per_s": _metric(
            sum(p.work for p in passes) / sum(p.wall_s for p in passes), "1/s"
        ),
        "rss_bytes_per_node": _metric(result["rss_growth"] / workload.n, "B"),
    }


def per_layer(result: dict[str, Any]) -> dict[str, dict[str, Any]]:
    tracer = result["tracer"]
    traced = result["traced"]
    wall = tracer.wall_s
    metrics: dict[str, dict[str, Any]] = {}
    for group, seconds in tracer.group_self_s().items():
        metrics[f"{group}.self_pct"] = _metric(100.0 * seconds / wall, "%")
    metrics["unattributed.self_pct"] = _metric(100.0 * tracer.unattributed_s / wall, "%")
    metrics["trace.wall_s"] = _metric(wall, "s")
    plain_s = statistics.median(p.wall_s for p in result["plain"])
    traced_s = statistics.median(p.wall_s for p in traced)
    metrics["trace.overhead_pct"] = _metric(100.0 * (traced_s / plain_s - 1.0), "%")

    k = len(traced)
    facts = traced[-1].facts
    rounds = traced[-1].ops if "engine_events" in facts else 0
    counts = {
        "sim.messages.float_repr_values": tracer.item_count("sim.messages.float_repr") // k,
        "sim.messages.encoded_size_calls": tracer.count("sim.messages.encoded_size") // k,
        "sim.simnet.delivery_groups_per_round": (
            tracer.count("sim.simnet.deliver_batch") / k / rounds if rounds else 0
        ),
        "sim.simnet.send_calls": tracer.count("sim.simnet.send") // k,
        "sim.engine.events": facts.get("engine_events", 0),
        "sim.engine.heap_peak": facts.get("heap_peak", 0),
        "core.service.parent_calls": tracer.count("core.service.parent") // k,
        "chord.block.key_parents_calls": tracer.count("chord.block.key_parents") // k,
        "telemetry.hotspot.bulk_rows": (
            tracer.item_count("telemetry.hotspot.send_bulk")
            + tracer.item_count("telemetry.hotspot.receive_bulk")
        )
        // k,
        "telemetry.hotspot.scalar_calls": (
            tracer.count("telemetry.hotspot.send") + tracer.count("telemetry.hotspot.receive")
        )
        // k,
        "chord.incremental.finger_updates": facts.get("finger_updates", 0),
        "chord.incremental.parent_updates": facts.get("parent_updates", 0),
        "chord.incremental.rebuilt_keys": facts.get("rebuilt_keys", 0),
    }
    for name, value in counts.items():
        metrics[name] = _metric(value, "count")
    return metrics


def latency_summary(samples: list[float]) -> dict[str, tuple[float, str]]:
    """Median op latency, the highest percentile with at least ten samples
    beyond it, and the sample count."""
    out: dict[str, tuple[float, str]] = {
        "op_samples": (len(samples), "count"),
        "op_p50_ms": (statistics.median(samples) * 1e3, "ms"),
    }
    for level in (99.9, 99.0, 95.0, 90.0, 75.0):
        if len(samples) * (100.0 - level) / 100.0 >= 10:
            cut = statistics.quantiles(samples, n=1000, method="inclusive")
            out[f"op_p{level:g}_ms"] = (cut[round(level * 10) - 1] * 1e3, "ms")
            break
    return out


def _print_table(title: str, rows: dict[str, tuple[float, str]]) -> None:
    print(title)
    for name, (value, unit) in rows.items():
        print(f"  {name:<44} {value:>16.6g} {unit}")


def report_trace(result: dict[str, Any]) -> dict[str, Any]:
    """Print per-span and per-layer tables; return them for the record."""
    tracer = result["tracer"]
    wall = tracer.wall_s
    print(f"traced wall {wall:.4f} s over {len(result['traced'])} traced pass(es)")
    print(f"  {'span':<36} {'calls':>9} {'items':>10} {'busy_s':>10} {'self_s':>10}")
    spans = tracer.table()
    for row in spans:
        print(
            f"  {row['span']:<36} {row['calls']:>9} {row['items']:>10} "
            f"{row['busy_s']:>10.4f} {row['self_s']:>10.4f}"
        )
    groups = tracer.group_self_s()
    total = sum(groups.values()) + tracer.unattributed_s
    print(f"  {'unattributed':<36} {'':>9} {'':>10} {'':>10} {tracer.unattributed_s:>10.4f}")
    print(f"  self times + unattributed = {total:.4f} s; traced wall = {wall:.4f} s")
    return {
        "spans": spans,
        "layer_self_s": groups,
        "unattributed_s": tracer.unattributed_s,
        "wall_s": wall,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    if args.workload not in workloads.NAMES:
        parser.error(f"--workload must be one of {', '.join(workloads.NAMES)}")
    workload = workloads.make(args.workload)
    record = provenance(workload, args.seed, args.seconds, args.trace)
    print(f"workload {workload.name} seed {args.seed} params {json.dumps(workload.params)}")

    if args.trace:
        result = trace_run(workload, args.seed, args.seconds)
        ops = sum(p.ops for p in result["plain"] + result["traced"])
        metrics = per_layer(result) if result["traced"] and result["plain"] else {}
        record["trace_report"] = report_trace(result)
        spans_path = OUT / f"spans-{workload.name}-{args.seed}.jsonl"
        result["tracer"].write_spans(spans_path, {"workload": workload.name, "seed": args.seed})
    else:
        result = measure(workload, args.seed, args.seconds)
        ops = sum(p.ops for p in result["passes"])
        metrics = end_to_end(workload, result) if result["passes"] else {}
        if result["op_samples"]:
            result["named"].update(latency_summary(result["op_samples"]))
        record["setup_samples"] = result["setups"]
        _print_table("named metrics", result["named"])

    checks = result["checks"]
    failed = result["failed_ops"] + sum(not ok for _, ok in checks)
    attempted = ops + len(checks) + result["failed_ops"]
    for name, ok in checks:
        if not ok:
            print(f"check FAILED: {name}")
    print(f"checks {len(checks) - sum(not ok for _, ok in checks)}/{len(checks)} passed")
    print(f"  {'failed_ratio':<44} {failed / attempted:>16.6g} ratio")
    _print_table("metrics", {k: (v["value"], v["unit"]) for k, v in metrics.items()})

    record.update(
        {
            "checks": {name: ok for name, ok in checks},
            "failed_ratio": failed / attempted,
            "named": result.get("named", {}),
            "metrics": metrics,
        }
    )
    OUT.mkdir(parents=True, exist_ok=True)
    with (OUT / "trajectory.jsonl").open("a", encoding="utf-8") as log:
        log.write(json.dumps(record, default=str) + "\n")
    print("record " + json.dumps({k: v for k, v in record.items() if k != "trace_report"}, default=str))

    correct = failed == 0 and bool(metrics)
    print(
        json.dumps(
            {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
