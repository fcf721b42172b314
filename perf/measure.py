"""One measured run of one workload: the phases in order, then the metrics.

``--trace 0`` is the end-to-end run: set-up three times, the full timed
phase, the lifecycle tail, every oracle.  ``--trace 1`` is the per-layer
run: the same phases at a fifth of the blocks, once untraced and once with
the benchmark's span wrappers installed, then the probes.  End-to-end
numbers only ever come from the untraced run.

Metrics are returned as ``{name: value}``; their units are declared once, in
``BENCHMARK.json``, and a name's suffix says what the value was scaled to.
"""

from __future__ import annotations

import os
import shutil
import statistics
from dataclasses import dataclass, field

from perf import calib, estimator, harness, probes, tracing, workloads
from perf.estimator import Series
from perf.harness import ratio

#: end-to-end latency metric -> (op kind, scale from seconds)
LATENCY_METRICS = {
    "update_p50_ms": ("update", 1e3),
    "point_read_p50_us": ("point_read", 1e6),
    "members_read_p50_ms": ("members_read", 1e3),
    "write_visible_p50_ms": ("write_visible", 1e3),
}


@dataclass
class Run:
    """What the phases of one run leave behind for the metrics."""

    spec: workloads.Spec
    tally: harness.Tally = field(default_factory=harness.Tally)
    setups: list[float] = field(default_factory=list)
    series: dict[str, Series] = field(default_factory=dict)
    traced_series: dict[str, Series] = field(default_factory=dict)
    samples: list[float] = field(default_factory=list)
    #: (calibrated seconds, shards rewritten, incremental?) per between-block checkpoint
    checkpoints: list[tuple[float, int, bool]] = field(default_factory=list)
    band_samples: list[float] = field(default_factory=list)
    timed_metrics: dict[str, float] = field(default_factory=dict)
    core: dict[str, float] | None = None
    gates: dict = field(default_factory=dict)
    tail: dict = field(default_factory=dict)


def background_work(run: Run, stack: harness.Stack, workdir):
    """What runs between blocks, outside every segment.

    On ``durable_writes``: a checkpoint every few blocks, full the first time
    and incremental after.  On the lazy workload: a count of the tuples inside
    the water band, the ones a read must still classify.
    """
    spec = run.spec

    def between(index: int) -> bool:
        worked = False
        if not spec.eager:
            band = harness.band_tuples_now(stack.engine_conn)
            if band is not None:
                run.band_samples.append(band)
                worked = True
        if spec.checkpoint_every and (index + 1) % spec.checkpoint_every == 0:
            number = len(run.checkpoints)
            option = " WITH (incremental = true)" if number else ""
            seconds, cursor = harness.timed(
                lambda: stack.client.execute(
                    f"CHECKPOINT VIEW v TO '{workdir / f'cycle-{number}'}'{option}"
                )
            )
            row = cursor.fetchall()[0]
            run.tally.disk_bytes += row["bytes"]
            run.checkpoints.append((seconds, row["shards_written"], bool(number)))
            worked = True
        return worked

    return between


def run_workload(spec: workloads.Spec, seed: int, seconds: float, trace: bool) -> dict:
    """Run every phase; returns metrics, diagnostics, op counts and problems."""
    blocks = spec.blocks(seconds)
    if trace:
        blocks = max(2, blocks // 5)
    inputs = workloads.make_inputs(spec, seed, blocks * (2 if trace else 1))
    workdir = harness.OUT_DIR / f"work-{spec.name}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    run = Run(spec)
    tally = run.tally
    stack = None
    tracer = tracing.Tracer() if trace else None
    try:
        for repeat in range(1 if trace else spec.setup_repeats):
            if stack is not None:
                stack.close()
            elapsed, stack = harness.timed(
                lambda repeat=repeat: harness.build_stack(
                    spec, inputs, workdir / "wal", None if repeat else tally
                )
            )
            run.setups.append(elapsed)
        harness.settle()

        # ---- timed phase -------------------------------------------------------------
        between = background_work(run, stack, workdir)
        metrics_before = harness.system_metrics(stack.engine_conn)
        core_before = harness.core_counters(stack.engine_conn)
        run.series = {kind: Series() for kind, _ in spec.mix}
        run.samples = harness.run_blocks(
            stack.client, spec, inputs.blocks[:blocks], run.series, tally, None, between
        )
        if trace:
            run.traced_series = {kind: Series() for kind, _ in spec.mix}
            tracer.install()
            traced_blocks = inputs.blocks[blocks:]
            run.samples += harness.run_blocks(
                stack.client, spec, traced_blocks, run.traced_series, tally, tracer, between
            )
            tracer.remove()
        metrics_after = harness.system_metrics(stack.engine_conn)
        run.timed_metrics = {
            name: value - metrics_before.get(name, 0.0) for name, value in metrics_after.items()
        }
        core_after = harness.core_counters(stack.engine_conn)
        if core_before is not None and core_after is not None:
            run.core = {name: core_after[name] - core_before[name] for name in core_after}
            run.core["band_tuples_per_update"] = (
                statistics.mean(run.band_samples)
                if run.band_samples
                else ratio(run.core["tuples_reclassified"], run.core["updates"])
            )
        run.gates = harness.validity(spec, inputs, harness.contents(stack.client), run.core)
        if spec.wire:
            harness.wire_oracle(stack, inputs, tally)

        collected = probes.Probes()
        if trace:
            # While the view is still as the timed phase had it (the tail serves it).
            probes.in_process(collected, stack.engine_conn, spec, inputs)
            probes.observability(collected, spec, inputs)
            tracer.install()

        # ---- lifecycle tail and the from-scratch oracle --------------------------------
        run.tail = harness.lifecycle_tail(spec, stack, inputs, workdir, tally)
        if trace:
            tracer.remove()
        reference = harness.naive_reference(spec, inputs)
        tally.attempted += 1
        tally.fail(
            harness.mismatches(reference, run.tail["final_contents"]),
            "view differs from the from-scratch naive reference",
        )

        result = {
            "attempted": tally.attempted,
            "failed": tally.failed,
            "problems": tally.problems + run.gates["failures"],
            "digest": inputs.digest,
            "blocks": blocks,
        }
        if not trace:
            result["metrics"] = end_to_end(run)
            result["raw"] = raw_diagnostics(run)
            return result

        probes.served(collected, stack.engine_conn, inputs)
        probes.wire(collected, stack, inputs)
        probes.recovery_inputs(collected, run.tail["crash"])
        analysis = tracer.analyse()
        tracer.write(harness.OUT_DIR / f"trace-{spec.name}.json", analysis)
        final_metrics = harness.system_metrics(stack.engine_conn)
        result["metrics"] = per_layer(run, final_metrics, tracer, analysis, collected.values)
        result["raw"] = {}
        result["analysis"] = analysis
        result["missing"] = analysis["missing"] + collected.missing
        return result
    finally:
        if tracer is not None:
            tracer.remove()
        if stack is not None:
            stack.close()
        shutil.rmtree(workdir, ignore_errors=True)


def end_to_end(run: Run) -> dict[str, float]:
    series = run.series
    metrics = {
        "setup_s": statistics.median(run.setups),
        "ops_per_s": estimator.throughput(list(series.values())),
    }
    for name, (kind, scale) in LATENCY_METRICS.items():
        metrics[name] = series[kind].calibrated() * scale
    metrics["checkpoint_s"] = run.tail["checkpoint_s"]
    metrics["recovery_s"] = run.tail["recovery_s"]
    metrics["disk_bytes_per_user_byte"] = run.tally.disk_bytes / run.tally.user_bytes
    metrics["peak_rss_mib"] = harness.peak_rss_mib()
    return metrics


def raw_diagnostics(run: Run) -> dict[str, tuple[float, str]]:
    """The same latencies with no blocks and no calibration, and the run's speed."""
    raw = {
        f"raw.{name}": (run.series[kind].raw() * scale, name.rpartition("_")[2])
        for name, (kind, scale) in LATENCY_METRICS.items()
    }
    raw["raw.timed_phase_s"] = (
        sum(sum(s.latencies) for one in run.series.values() for s in one.segments),
        "s",
    )
    raw["raw.calib_us"] = (statistics.median(run.samples), "us")
    return raw


def median_or_zero(values: list[float]) -> float:
    """A metric whose spans or samples are absent (layer bypassed, name gone) reads 0."""
    return statistics.median(values) if values else 0.0


def per_layer(run: Run, final: dict, tracer, analysis: dict, probed: dict) -> dict[str, float]:
    """Every per-layer metric: probes, span medians, and the program's own counters."""
    speed = calib.REF_US / statistics.median(run.samples)

    def span(suffix: str, scale: float) -> float:
        return median_or_zero(tracer.durations(suffix)) * speed * scale

    timed = run.timed_metrics.get
    hits, misses = timed("db.buffer.hits_total", 0.0), timed("db.buffer.misses_total", 0.0)
    plan_hits = timed("connection.*.plan_cache.hits_total", 0.0)
    plan_misses = timed("connection.*.plan_cache.misses_total", 0.0)
    cache_hits = final.get("serve.v.cache.hits_total", 0.0)
    cache_misses = final.get("serve.v.cache.misses_total", 0.0)
    core = run.core or dict.fromkeys(
        harness.CORE_COUNTERS + ("disk_served", "band_tuples_per_update"), 0.0
    )
    incrementals = [entry for entry in run.checkpoints if entry[2]]
    untraced = estimator.throughput(list(run.series.values()))
    traced = estimator.throughput(list(run.traced_series.values()))
    op_seconds = analysis["op_seconds"]
    inside = sum(share * op_seconds[kind] for kind, share in analysis["attributed_share"].items())
    metrics = {
        "db.buffer_pool_hit_ratio": ratio(hits, hits + misses),
        "connection.plan_cache_hit_ratio": ratio(plan_hits, plan_hits + plan_misses),
        "learn.sgd_step_us": span("SGDTrainer.absorb", 1e6),
        "learn.accuracy": run.gates["accuracy"],
        "learn.positive_fraction": run.gates["positive_fraction"],
        "core.apply_model_ms": span("Maintainer.apply_model", 1e3)
        or span("Maintainer.apply_model_batch", 1e3),
        "core.reorganize_ms": span("EntityStore.reorganize", 1e3),
        "core.update_p99_ms": run.series["update"].calibrated_percentile(99) * 1e3,
        "core.read_single_us": span("Maintainer.read_single", 1e6)
        or span("ViewMaintainer.read_many", 1e6),
        "core.read_all_members_ms": span("Maintainer.read_all_members", 1e3),
        "core.band_tuples_per_update": core["band_tuples_per_update"],
        "core.reorganizations_total": core["reorganizations"],
        "core.tuples_reclassified_total": core["tuples_reclassified"],
        "core.sim_s_per_update": ratio(
            core["simulated_update_seconds"] + core["simulated_reorganization_seconds"],
            core["updates"],
        ),
        "core.epsmap_hit_ratio": ratio(core["epsmap_hits"], core["single_reads"]),
        "core.disk_lookups_per_read": ratio(core["disk_served"], core["single_reads"]),
        "serve.batcher_wait_us": max(
            0.0, span("ReadBatcher.read", 1e6) - span("ShardSet.read_batch", 1e6)
        ),
        "serve.avg_read_batch": final.get("serve.v.batcher.avg_batch", 0.0),
        "serve.cache_hit_ratio": ratio(cache_hits, cache_hits + cache_misses),
        "serve.enqueue_us": span("MaintenanceWorker.enqueue", 1e6),
        "serve.avg_write_batch": final.get("serve.v.maintenance.avg_ops_per_batch", 0.0),
        "serve.epochs_published_total": final.get("serve.v.epochs_published_total", 0.0),
        "persist.wal_append_us": span("WriteAheadLog.append", 1e6),
        "persist.wal_bytes_per_op": ratio(
            timed("serve.v.wal.appended_bytes", 0.0), timed("serve.v.wal.appends_total", 0.0)
        ),
        "persist.snapshot_encode_ms": span("ShardState.to_document", 1e3),
        "persist.checkpoint_write_ms": span("write_shard_state", 1e3),
        "persist.checkpoint_bytes": float(run.tail["checkpoint_bytes"]),
        "persist.incr_checkpoint_ms": median_or_zero([entry[0] for entry in incrementals]) * 1e3,
        "persist.incr_shards_rewritten": median_or_zero([entry[1] for entry in incrementals]),
        "persist.load_checkpoint_ms": span("load_checkpoint", 1e3),
        "persist.import_state_ms": span("ShardSet.restore", 1e3),
        "persist.wal_replay_ms": span("_replay_post_checkpoint", 1e3),
        "bench.calib_us": statistics.median(run.samples),
        "bench.calib_spread": estimator.spread(run.samples),
        "bench.pinned": float(harness.pinned()),
        "bench.trace_overhead_ratio": untraced / traced,
        "bench.attributed_share": ratio(inside, sum(op_seconds.values())),
    }
    metrics.update(probed)  # probes are named after the metric they measure
    return metrics
