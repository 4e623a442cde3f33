"""In-memory span tracer that times calls into ``hqc`` from outside the package.

A span is (name, start, end, parent), recorded when a wrapped function is
entered and left. Wrapping replaces a module-level name in every ``hqc``
module that binds it; Python looks globals up at call time, so internal
callers go through the wrapper too and nothing under ``src/`` changes.

Each thread owns a span buffer and a parent stack, so the spans that the
sweep's worker threads record nest under the chunk that caused them. Spans
stay in memory (compact ``array`` columns) until :meth:`Tracer.save`.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from array import array
from dataclasses import dataclass
from functools import cached_property

import numpy as np


class _ThreadSpans:
    """Span columns of one thread; only that thread appends to them."""

    __slots__ = ("thread", "name", "parent", "start", "end", "stack", "errors", "attrs")

    def __init__(self, thread: int) -> None:
        self.thread = thread
        self.name = array("i")
        self.parent = array("i")  # index into this buffer, -1 for a root
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.errors: dict[int, str] = {}  # span index -> exception type name
        self.attrs: dict[int, dict] = {}  # span index -> annotations


@dataclass(frozen=True)
class SpanTable:
    """All spans of a run as flat numpy columns (one row per span)."""

    names: list[str]
    name: np.ndarray
    parent: np.ndarray  # global row index, -1 for a root
    thread: np.ndarray
    start: np.ndarray
    end: np.ndarray
    errors: dict[int, str]
    attrs: dict[int, dict]
    main_thread: int

    @cached_property
    def duration(self) -> np.ndarray:
        return self.end - self.start

    @cached_property
    def self_time(self) -> np.ndarray:
        """Duration minus the time covered by child spans (same thread, so disjoint)."""
        out = self.duration.copy()
        has_parent = self.parent >= 0
        np.add.at(out, self.parent[has_parent], -self.duration[has_parent])
        return out

    def rows(self, span_name: str) -> np.ndarray:
        if span_name not in self.names:
            return np.zeros(0, dtype=np.int64)
        return np.nonzero(self.name == self.names.index(span_name))[0]


class Tracer:
    """Records spans for the functions it patches into ``hqc`` modules."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._buffers: list[_ThreadSpans] = []
        self._names: list[str] = []
        self._patches: list[tuple[object, str, object]] = []
        self.absent: list[str] = []

    def _spans(self) -> _ThreadSpans:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = _ThreadSpans(threading.get_ident())
            with self._lock:
                self._buffers.append(buf)
            self._local.buf = buf
        return buf

    def _name_id(self, name: str) -> int:
        with self._lock:
            if name not in self._names:
                self._names.append(name)
            return self._names.index(name)

    def wrap(self, span_name: str, fn):
        """``fn`` wrapped so that every call records one span."""
        nid = self._name_id(span_name)
        spans_of = self._spans
        clock = time.perf_counter

        def traced(*args, **kwargs):
            buf = spans_of()
            idx = len(buf.name)
            buf.name.append(nid)
            buf.parent.append(buf.stack[-1] if buf.stack else -1)
            buf.end.append(0.0)
            buf.stack.append(idx)
            buf.start.append(clock())
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                buf.errors[idx] = type(exc).__name__
                raise
            finally:
                buf.end[idx] = clock()
                buf.stack.pop()

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", span_name)
        return traced

    def annotate(self, **values) -> None:
        """Attach values to the innermost open span of the calling thread."""
        buf = self._spans()
        buf.attrs.setdefault(buf.stack[-1], {}).update(values)

    def patch(self, target: str, span_name: str, decorate=None) -> None:
        """Trace ``target`` ("module.attr") wherever an ``hqc`` module binds it.

        ``decorate(original)`` may return a replacement to trace instead of
        the original (to annotate its span). A target that no longer
        exists is recorded in :attr:`absent` and skipped.
        """
        module_name, _, attr = target.rpartition(".")
        original = getattr(sys.modules.get(module_name), attr, None)
        if not callable(original):
            self.absent.append(target)
            return
        traced = self.wrap(span_name, decorate(original) if decorate else original)
        for name, module in list(sys.modules.items()):
            if (name == "hqc" or name.startswith("hqc.")) and getattr(module, attr, None) is original:
                self._patches.append((module, attr, original))
                setattr(module, attr, traced)

    def unpatch(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def table(self) -> SpanTable:
        with self._lock:
            buffers = list(self._buffers)
            names = list(self._names)
        offsets = np.cumsum([0] + [len(b.name) for b in buffers])
        parent = []
        errors: dict[int, str] = {}
        attrs: dict[int, dict] = {}
        for off, buf in zip(offsets, buffers):
            p = np.frombuffer(buf.parent, dtype=np.int32).astype(np.int64)
            parent.append(np.where(p >= 0, p + off, -1))
            errors.update({int(off) + i: e for i, e in buf.errors.items()})
            attrs.update({int(off) + i: a for i, a in buf.attrs.items()})

        def column(field: str, dtype) -> np.ndarray:
            parts = [np.frombuffer(getattr(b, field), dtype=dtype) for b in buffers]
            return np.concatenate(parts) if parts else np.zeros(0, dtype=dtype)

        return SpanTable(
            names=names,
            name=column("name", np.int32),
            parent=np.concatenate(parent) if parent else np.zeros(0, dtype=np.int64),
            thread=np.concatenate([np.full(len(b.name), b.thread, dtype=np.int64) for b in buffers])
            if buffers
            else np.zeros(0, dtype=np.int64),
            start=column("start", np.float64),
            end=column("end", np.float64),
            errors=errors,
            attrs=attrs,
            main_thread=threading.main_thread().ident,
        )

    def save(self, path: str) -> None:
        """Write every span recorded so far to one ``.npz`` file."""
        t = self.table()
        np.savez(
            path,
            name=t.name,
            parent=t.parent,
            thread=t.thread,
            start=t.start,
            end=t.end,
            names=np.array(t.names),
            extra=np.array(json.dumps({"errors": t.errors, "attrs": t.attrs, "absent": self.absent}, default=float)),
        )
