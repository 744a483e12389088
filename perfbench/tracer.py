"""Spans and counters around the program's public module functions.

The benchmark installs these wrappers from its own files; nothing in the
program changes. A target that a later version of the program no longer has
is reported as absent instead of failing the run.
"""
import inspect
import itertools
import os
import sys
import threading
import time
from importlib import import_module
from pathlib import Path

# (module, attribute or Class.method, span name). Spans nest per thread.
SPAN_TARGETS = [
    ("morphsuite.suite", "ingest", "suite.ingest"),
    ("morphsuite.suite", "build_suite", "suite.build_suite"),
    ("morphsuite.derive", "candidate_pool", "derive.candidate_pool"),
    ("morphsuite.derive", "select_negatives", "derive.select_negatives"),
    ("morphsuite.nonce", "make_nonce", "nonce.make_nonce"),
    ("morphsuite.prompts", "load_templates", "prompts.load_templates"),
    ("morphsuite.prompts", "render_suite", "prompts.render_suite"),
    ("morphsuite.client", "evaluate_rows", "client.evaluate_rows"),
    ("morphsuite.client", "complete", "client.complete"),
    ("morphsuite.client", "ResponseCache.get", "client.ResponseCache.get"),
    ("morphsuite.client", "ResponseCache.put", "client.ResponseCache.put"),
    ("morphsuite.metrics", "stratify_report", "metrics.stratify_report"),
    ("morphsuite.jsonl", "write_jsonl", "jsonl.write_jsonl"),
    ("morphsuite.jsonl", "write_json", "jsonl.write_json"),
    ("morphsuite.jsonl", "read_jsonl", "jsonl.read_jsonl"),
]
# Counted, not timed: a span per edit-distance call would cost more than the call.
COUNT_TARGETS = [("morphsuite.derive", "levenshtein", "distance.calls")]


class Tracer:
    """In-memory spans (id, parent id, name, thread, start, end) and counters."""

    def __init__(self):
        self.spans = []
        self.counts = {}
        self.latencies_ms = []
        self.absent = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self.main_thread = threading.get_ident()

    def add(self, name, value):
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + value

    def _enter(self):
        stack = self._local.__dict__.setdefault("stack", [])
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        return span_id, parent, time.perf_counter()

    def _exit(self, name, span_id, parent, start):
        end = time.perf_counter()
        self._local.stack.pop()
        self.spans.append((span_id, parent, name, threading.get_ident(), start, end))
        return end - start

    def wrap(self, name, fn, after=None):
        def traced(*args, **kwargs):
            span_id, parent, start = self._enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = self._exit(name, span_id, parent, start)
            if after is not None:
                after(self, result, args, duration)
            return result

        traced.__wrapped__ = fn
        return traced

    def wrap_generator(self, name, fn):
        """Time each step of a generator function as its own span."""
        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                span_id, parent, start = self._enter()
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    self._exit(name, span_id, parent, start)
                yield item

        traced.__wrapped__ = fn
        return traced

    def wrap_counter(self, name, fn):
        self.counts.setdefault(name, 0)

        def counted(*args, **kwargs):
            self.add(name, 1)
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted


def _after_build(tracer, result, args, duration):
    instances, _ = result
    tracer.add("suite.instances", len(instances))
    tracer.add("suite.skipped", len(list(args[0])) - len(instances))


def _after_pool(tracer, result, args, duration):
    tracer.add("derive.candidates", len(result[0]))


def _after_select(tracer, result, args, duration):
    tracer.add("derive.negatives", len(result))


def _after_nonce(tracer, result, args, duration):
    tracer.add("nonce.attempts", result.attempts)


def _after_render(tracer, result, args, duration):
    tracer.add("prompts.rendered", len(result))
    tracer.add("prompts.chars", sum(len(row["prompt"]) for row in result))


def _after_complete(tracer, result, args, duration):
    if not result.cached:
        tracer.latencies_ms.append(duration * 1000.0)


def _after_cache_get(tracer, result, args, duration):
    tracer.add("client.cache_hits" if result is not None else "client.cache_misses", 1)


def _after_write(tracer, result, args, duration):
    tracer.add("jsonl.bytes_written", os.path.getsize(Path(args[0])))


AFTER = {
    "suite.build_suite": _after_build,
    "derive.candidate_pool": _after_pool,
    "derive.select_negatives": _after_select,
    "nonce.make_nonce": _after_nonce,
    "prompts.render_suite": _after_render,
    "client.complete": _after_complete,
    "client.ResponseCache.get": _after_cache_get,
    "jsonl.write_jsonl": _after_write,
    "jsonl.write_json": _after_write,
}


def _resolve(module_name, attr):
    """(owner object, attribute name, current value), or None when absent."""
    try:
        owner = import_module(module_name)
    except ImportError:
        return None
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    value = getattr(owner, leaf, None)
    if value is None or not callable(value):
        return None
    return owner, leaf, value


def _rebind(original, replacement):
    """Point every morphsuite module global bound to original at replacement,
    so names imported with ``from x import f`` are traced too."""
    for name, module in list(sys.modules.items()):
        if name != "morphsuite" and not name.startswith("morphsuite."):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, replacement)


def install(tracer):
    """Wrap every target that exists and record the rest in tracer.absent.

    Returns what uninstall() needs to put the originals back.
    """
    installed = []
    for module_name, attr, name in SPAN_TARGETS + COUNT_TARGETS:
        found = _resolve(module_name, attr)
        if found is None:
            tracer.absent.append(name)
            continue
        owner, leaf, original = found
        if (module_name, attr, name) in COUNT_TARGETS:
            wrapped = tracer.wrap_counter(name, original)
        elif inspect.isgeneratorfunction(original):
            wrapped = tracer.wrap_generator(name, original)
        else:
            wrapped = tracer.wrap(name, original, AFTER.get(name))
        setattr(owner, leaf, wrapped)
        if inspect.ismodule(owner):
            _rebind(original, wrapped)
        installed.append((owner, leaf, original, wrapped))
    return installed


def uninstall(installed):
    for owner, leaf, original, wrapped in reversed(installed):
        setattr(owner, leaf, original)
        if inspect.ismodule(owner):
            _rebind(wrapped, original)
