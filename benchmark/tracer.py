"""Spans recorded from outside the program, around calls into its modules.

A `Tracer` replaces a module attribute (a function binding, or a method on a
class) with a wrapper that opens a span for every call and then calls the
original. Spans nest through a per-thread stack, so every span knows the span
that caused it, and metrics can attribute one function to its callers: the
LM solves inside PnP are told apart from the one inside the refinement by
their ancestors, not by the function name.

The wrappers pass every argument through and return the original's result
unchanged, so a traced run computes exactly what an untraced one does. A
binding that does not exist is recorded as absent instead of raising, so the
benchmark keeps running when a later version of the program renames or
deletes a function; the metrics that depend on it then read 0.
"""

from __future__ import annotations

import contextlib
import functools
import threading
import time


class Span:
    __slots__ = ("name", "start", "end", "parent", "attrs")

    def __init__(self, name, start, parent):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent  # enclosing Span, or None for a root span
        self.attrs = {}

    @property
    def duration(self):
        return self.end - self.start

    def ancestors(self):
        node = self.parent
        while node is not None:
            yield node
            node = node.parent

    def has_ancestor(self, name):
        return any(a.name == name for a in self.ancestors())


class Tracer:
    """Span recorder plus the wrappers that feed it.

    `clock` is injectable so tests can drive a fake time source.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.absent = []
        self.hook_errors = []
        self._local = threading.local()
        self._installed = []  # (owner, attribute, original) in install order

    # -- recording ---------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name):
        stack = self._stack()
        span = Span(name, self.clock(), stack[-1] if stack else None)
        stack.append(span)
        return span

    def finish(self, span):
        span.end = self.clock()
        stack = self._stack()
        if not stack or stack[-1] is not span:
            raise RuntimeError(f"span {span.name!r} closed out of order")
        stack.pop()
        self.spans.append(span)

    @contextlib.contextmanager
    def span(self, name):
        """Record one span around a block."""
        span = self.begin(name)
        try:
            yield span
        finally:
            self.finish(span)

    # -- wrapping ----------------------------------------------------------

    def wrap(self, owner, attribute, name, before=None, after=None):
        """Time every call of `owner.attribute` as a span called `name`.

        `before(span, args, kwargs)` may return replacement (args, kwargs);
        `after(span, args, kwargs, result)` records attributes on the span.
        Returns False, and records the binding as absent, when `owner` has no
        such attribute.
        """
        original = getattr(owner, attribute, None)
        if original is None or not callable(original):
            self.absent.append(f"{getattr(owner, '__name__', owner)}.{attribute}")
            return False
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with tracer.span(name) as span:
                if before is not None:
                    args, kwargs = tracer._hook(before, (args, kwargs), span,
                                                args, kwargs)
                result = original(*args, **kwargs)
                if after is not None:
                    tracer._hook(after, None, span, args, kwargs, result)
                return result

        # a method looked up on its class comes back as a plain function,
        # so the wrapper binds to instances exactly like the original did
        setattr(owner, attribute, traced)
        self._installed.append((owner, attribute, original))
        return True

    def _hook(self, hook, fallback, *args):
        """Run a recording hook; a hook that no longer fits the program's
        signatures is noted instead of breaking the call it observes."""
        try:
            return hook(*args)
        except Exception as exc:  # recording must never change the program
            self.hook_errors.append(f"{hook.__name__}: {exc!r}")
            return fallback

    def traced_callable(self, fn, name):
        """A wrapper for a callable passed as an argument (not a binding)."""
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def restore(self):
        """Put every wrapped binding back, newest first."""
        while self._installed:
            owner, attribute, original = self._installed.pop()
            setattr(owner, attribute, original)

    # -- queries -----------------------------------------------------------

    def select(self, name, under=None):
        """Spans called `name`, optionally only those below a span `under`."""
        return [s for s in self.spans if s.name == name
                and (under is None or s.has_ancestor(under))]

    def total(self, name, under=None):
        return sum(s.duration for s in self.select(name, under))

    def count(self, name, under=None):
        return len(self.select(name, under))

    def attr_sum(self, name, key, under=None):
        return sum(s.attrs.get(key, 0) for s in self.select(name, under))

    def children(self, span):
        return [s for s in self.spans if s.parent is span]

    def self_time(self, span):
        """Duration minus that of its direct child spans. Children share
        their parent's thread and stack, so they never overlap."""
        return span.duration - sum(c.duration for c in self.children(span))

    def total_self(self, name, under=None):
        return sum(self.self_time(s) for s in self.select(name, under))

