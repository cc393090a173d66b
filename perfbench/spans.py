"""Span recorder and self-time reducer for the traced benchmark run.

A span covers one call into a layer.  The recorder keeps a stack of
open spans and reduces each one as it closes: its duration is added to
the layer's inclusive time, its duration minus the time covered by its
child spans to the layer's self time, and its duration to the parent's
child time.  Nothing per span is kept after it closes, so a run with
millions of per-ACK spans stays small.

With a root span around the whole traced region, the self times of all
layers (the root's own self time being the unattributed remainder) add
up to the root's duration exactly, up to float rounding.

:class:`Patcher` installs wrappers on classes and modules and restores
the original attributes afterwards, so the program itself is never
edited and an untraced run in the same process is unaffected.
"""

from __future__ import annotations

import time
from collections import defaultdict
from functools import wraps
from typing import Any, Callable, Dict, List


class SpanRecorder:
    """Exclusive-time accounting over nested spans.

    ``clock`` is the time source (process CPU seconds by default, so
    the split adds up to the run's CPU time; tests pass a fake clock).
    """

    def __init__(self, clock: Callable[[], float] = time.process_time) -> None:
        self.clock = clock
        self.self_time: Dict[str, float] = defaultdict(float)
        self.inclusive: Dict[str, float] = defaultdict(float)
        #: Spans opened per label (a call nested directly inside a span
        #: of the same layer is not a new span and is not counted).
        self.calls: Dict[str, int] = defaultdict(int)
        #: Inclusive time of transparent timers (see :meth:`timed`).
        self.timers: Dict[str, float] = defaultdict(float)
        self._stack: List[list] = []

    @property
    def depth(self) -> int:
        return len(self._stack)

    def enter(self, layer: str) -> None:
        self._stack.append([layer, self.clock(), 0.0])

    def exit(self) -> None:
        layer, start, child = self._stack.pop()
        duration = self.clock() - start
        self.self_time[layer] += duration - child
        self.inclusive[layer] += duration
        if self._stack:
            self._stack[-1][2] += duration

    def span(self, fn: Callable, layer: str, label: str) -> Callable:
        """Wrap ``fn`` so each call runs inside a ``layer`` span."""
        stack = self._stack
        calls = self.calls
        enter = self.enter
        exit_ = self.exit

        @wraps(fn)
        def wrapper(*args, **kwargs):
            if stack and stack[-1][0] == layer:
                return fn(*args, **kwargs)
            calls[label] += 1
            enter(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_()

        return wrapper

    def class_span(self, fn: Callable, prefix: str) -> Callable:
        """Wrap a method so its span's layer is ``prefix`` plus the
        class name of the instance it runs on (a method inherited by a
        subclass is charged to the subclass)."""
        stack = self._stack
        calls = self.calls
        enter = self.enter
        exit_ = self.exit
        names: Dict[type, str] = {}

        @wraps(fn)
        def wrapper(self_, *args, **kwargs):
            cls = type(self_)
            layer = names.get(cls)
            if layer is None:
                layer = names[cls] = prefix + cls.__name__
            if stack and stack[-1][0] == layer:
                return fn(self_, *args, **kwargs)
            calls[layer] += 1
            enter(layer)
            try:
                return fn(self_, *args, **kwargs)
            finally:
                exit_()

        return wrapper

    def timed(self, fn: Callable, label: str) -> Callable:
        """Wrap ``fn`` in a transparent timer: its inclusive time is
        recorded under ``label`` but it opens no span, so it moves no
        time between layers."""
        clock = self.clock
        timers = self.timers

        @wraps(fn)
        def wrapper(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                timers[label] += clock() - start

        return wrapper


class Patcher:
    """Replace attributes on classes/modules and put them back.

    :meth:`restore` leaves every owner exactly as it was: an attribute
    that was inherited (absent from the owner's own ``__dict__``) is
    deleted again rather than pinned to the inherited value.
    """

    _MISSING = object()

    def __init__(self) -> None:
        self._saved: List[tuple] = []

    def patch(self, owner: Any, name: str, make: Callable[[Any], Any]) -> None:
        """Set ``owner.name`` to ``make(current value)``."""
        own = vars(owner).get(name, self._MISSING)
        current = getattr(owner, name)
        self._saved.append((owner, name, own))
        setattr(owner, name, make(current))

    @property
    def patched(self) -> List[tuple]:
        """``(owner, name)`` pairs currently patched."""
        return [(owner, name) for owner, name, _ in self._saved]

    def restore(self) -> None:
        while self._saved:
            owner, name, own = self._saved.pop()
            if own is self._MISSING:
                delattr(owner, name)
            else:
                setattr(owner, name, own)
