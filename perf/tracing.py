"""Benchmark-owned spans around the program's public entry points.

The program is not edited: :class:`Tracer` replaces each name in
:data:`TRACE_POINTS` with a timing wrapper for the length of a traced run
and puts the original back afterwards.  A span is
``[name, layer, start_ns, end_ns, thread, parent]``; ``parent`` comes from a
per-thread stack.  With one closed-loop client, work on another thread (the
wire handler, the maintenance worker, a shard) belongs to the client op that
is open while it runs; what runs between ops is ``background``.

A name that no longer resolves — a later refactor renamed it, and later
changes may not edit ``perf/`` — is listed under ``missing`` with count 0.
It never fails a run and never touches an end-to-end number, which come
from the untraced run.
"""

from __future__ import annotations

import functools
import heapq
import importlib
import inspect
import json
import threading
import time
from collections import defaultdict
from pathlib import Path

#: dotted name -> layer.  Class methods are patched on the class; module
#: functions are patched in the module that *calls* them (a ``from x import
#: f`` binding is what the caller sees).
TRACE_POINTS: dict[str, str] = {
    "repro.connection.Cursor.execute": "connection",
    "repro.db.sql.executor.SQLExecutor.execute": "db",
    "repro.features.tfidf.TfIdfBagOfWords.compute_feature": "features",
    "repro.learn.sgd.SGDTrainer.absorb": "learn",
    "repro.core.maintainers.hazy.HazyEagerMaintainer.apply_model": "core",
    "repro.core.maintainers.hazy.HazyEagerMaintainer.apply_model_batch": "core",
    "repro.core.maintainers.hazy.HazyEagerMaintainer.read_single": "core",
    "repro.core.maintainers.hazy.HazyEagerMaintainer.read_all_members": "core",
    "repro.core.maintainers.hazy.HazyLazyMaintainer.apply_model": "core",
    "repro.core.maintainers.hazy.HazyLazyMaintainer.read_single": "core",
    "repro.core.maintainers.hazy.HazyLazyMaintainer.read_all_members": "core",
    "repro.core.maintainers.base.ViewMaintainer.read_many": "core",
    "repro.core.stores.mainmemory.InMemoryEntityStore.reorganize": "core",
    "repro.core.stores.hybrid.HybridEntityStore.reorganize": "core",
    "repro.serve.batcher.ReadBatcher.read": "serve",
    "repro.serve.sharding.ShardSet.read_batch": "serve",
    "repro.serve.sharding.ShardSet.all_members": "serve",
    "repro.serve.maintenance.MaintenanceWorker.enqueue": "serve",
    "repro.serve.server.ViewServer.publish_epoch": "serve",
    "repro.serve.server.ViewServer.checkpoint": "serve",
    "repro.serve.server.ViewServer.restore": "serve",
    "repro.serve.server.ViewServer.replay_wal": "serve",
    "repro.core.engine.HazyEngine._replay_post_checkpoint": "persist",
    "repro.persist.wal.WriteAheadLog.append": "persist",
    "repro.persist.snapshot.ShardState.to_document": "persist",
    "repro.serve.server.write_shard_state": "persist",
    "repro.persist.checkpoint.load_checkpoint": "persist",
    "repro.serve.sharding.ShardSet.restore": "persist",
    "repro.net.admission.AdmissionController.admit": "net",
    "repro.net.server.read_frame": "net",
    "repro.net.server.write_frame": "net",
    "repro.net.client.read_frame": "net",
    "repro.net.client.write_frame": "net",
}

OP_LAYER = "op"
BACKGROUND = "background"


def resolve(dotted: str):
    """``(owner, attribute)`` for a dotted name, or None when it no longer exists."""
    parts = dotted.split(".")
    for split in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:split]))
        except ImportError:
            continue
        try:
            for part in parts[split:-1]:
                owner = getattr(owner, part)
            inspect.getattr_static(owner, parts[-1])
        except AttributeError:
            return None
        return owner, parts[-1]
    return None


class Tracer:
    """Installs span wrappers, keeps spans in memory, analyses them at the end."""

    def __init__(self, points: dict[str, str] | None = None) -> None:
        self.points = dict(TRACE_POINTS if points is None else points)
        self.spans: list[list] = []
        self.missing: list[str] = []
        self._stacks = threading.local()
        self._originals: list[tuple[object, str, object]] = []

    # -- install / remove ----------------------------------------------------------------

    def install(self) -> None:
        for dotted, layer in self.points.items():
            target = resolve(dotted)
            if target is None:
                self.missing.append(dotted)
                continue
            owner, attribute = target
            original = inspect.getattr_static(owner, attribute)
            self._originals.append((owner, attribute, original))
            setattr(owner, attribute, self._wrap(dotted, layer, original))

    def remove(self) -> None:
        for owner, attribute, original in reversed(self._originals):
            setattr(owner, attribute, original)
        self._originals.clear()

    def _wrap(self, name: str, layer: str, original):
        if isinstance(original, (classmethod, staticmethod)):
            return type(original)(self._wrap(name, layer, original.__func__))
        short = name.removeprefix("repro.")
        if not inspect.isgeneratorfunction(original) and inspect.isgeneratorfunction(
            inspect.unwrap(original)
        ):
            # A @contextmanager: the span covers entering it (the wait for a
            # slot), not the body, which has spans of its own.
            @functools.wraps(original)
            def entering(*args, **kwargs):
                return _TimedEntry(self, short, layer, original(*args, **kwargs))

            return entering

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = self.begin(short, layer)
            try:
                return original(*args, **kwargs)
            finally:
                self.end(span)

        return traced

    # -- recording -----------------------------------------------------------------------

    def begin(self, name: str, layer: str = OP_LAYER) -> list:
        """Open a span on this thread; the returned record is the token for :meth:`end`."""
        try:
            stack = self._stacks.stack
        except AttributeError:
            stack = self._stacks.stack = []
        span = [name, layer, 0, 0, threading.get_ident(), stack[-1] if stack else None]
        stack.append(span)
        self.spans.append(span)
        span[2] = time.perf_counter_ns()
        return span

    def end(self, span: list) -> None:
        span[3] = time.perf_counter_ns()
        self._stacks.stack.pop()

    def indexed(self) -> list[list]:
        """The spans with ``parent`` as an index into the list (-1 for none)."""
        position = {id(span): index for index, span in enumerate(self.spans)}
        return [
            span[:5] + [position[id(span[5])] if span[5] is not None else -1]
            for span in self.spans
        ]

    # -- analysis ------------------------------------------------------------------------

    def durations(self, suffix: str) -> list[float]:
        """Seconds of every finished span whose name ends with ``suffix``."""
        return [
            (end - start) / 1e9
            for name, _, start, end, _, _ in self.spans
            if end and name.endswith(suffix)
        ]

    def analyse(self) -> dict[str, object]:
        """Self time per op kind and layer, and the share of op time inside layers.

        One sweep over span starts and ends.  At any instant the *active*
        span is the most recently started one still open, on whatever thread:
        on one thread that is ordinary self time (a child starts after its
        parent); across threads it follows the hand-off (the client blocked
        in ``read_frame`` started before the handler's ``execute``, which
        started before the maintenance worker's ``apply_model``).  Every
        instant of an op is charged to exactly one layer, so the layers of an
        op sum to the op's time; ``bench`` is what no layer span covers.
        """
        spans = [span for span in self.spans if span[3]]
        events = sorted(
            [(span[2], 1, index) for index, span in enumerate(spans)]
            + [(span[3], 0, index) for index, span in enumerate(spans)]
        )
        table: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        open_spans: list[tuple[int, int]] = []  # heap of (-start, index)
        closed: set[int] = set()
        op = None
        previous = events[0][0] if events else 0
        for instant, starting, index in events:
            while open_spans and open_spans[0][1] in closed:
                heapq.heappop(open_spans)
            if open_spans and instant > previous:
                active = spans[open_spans[0][1]]
                kind = spans[op][0] if op is not None else BACKGROUND
                table[kind]["bench" if active[1] == OP_LAYER else active[1]] += instant - previous
            previous = instant
            if starting:
                heapq.heappush(open_spans, (-instant, index))
                if spans[index][1] == OP_LAYER:
                    op = index
            else:
                closed.add(index)
                if index == op:
                    op = None
        counts: dict[str, int] = defaultdict(int)
        for span in spans:
            counts[span[0]] += 1
        totals = {kind: sum(layers.values()) for kind, layers in table.items()}
        return {
            "self_seconds": {
                kind: {layer: ns / 1e9 for layer, ns in sorted(layers.items())}
                for kind, layers in sorted(table.items())
            },
            "op_seconds": {
                kind: ns / 1e9 for kind, ns in sorted(totals.items()) if kind != BACKGROUND
            },
            "attributed_share": {
                kind: 1.0 - table[kind]["bench"] / ns
                for kind, ns in sorted(totals.items())
                if kind != BACKGROUND
            },
            "span_counts": dict(sorted(counts.items())),
            "missing": sorted(set(self.missing)),
        }

    def write(self, path: Path, analysis: dict[str, object]) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            json.dump(
                {
                    "columns": ["name", "layer", "start_ns", "end_ns", "thread", "parent"],
                    "analysis": analysis,
                    "spans": self.indexed(),
                },
                handle,
            )


class _TimedEntry:
    """Wraps a context manager so that entering it is one span."""

    def __init__(self, tracer: Tracer, name: str, layer: str, manager) -> None:
        self._tracer, self._name, self._layer, self._manager = tracer, name, layer, manager

    def __enter__(self):
        span = self._tracer.begin(self._name, self._layer)
        try:
            return self._manager.__enter__()
        finally:
            self._tracer.end(span)

    def __exit__(self, *exc_info):
        return self._manager.__exit__(*exc_info)
