"""Span tracer that wraps zenojump's functions from outside the package.

``from .x import y`` binds ``y`` separately in every importing module, so a
function is wrapped at every ``zenojump`` module attribute that holds it, not
only where it is defined.  Each call of a wrapped function records a span:
name, start, end, parent span, thread and run id.  The parent stack is kept
per thread, because the CLI's ``ThreadPoolExecutor`` workers do not inherit
the caller's context; a span opened on a thread with an empty stack takes the
current run's root span as parent.

The innermost functions (``eigh``, ``matrix_exp_unitary``) run hundreds of
thousands of times per sweep, so they are *leaves*: instead of a span, each
call adds its count and duration to the span that is open on its thread.  A
leaf called inside another leaf (``eigh`` inside ``matrix_exp_unitary``) is
counted but does not add to the parent's covered time, which would count the
same interval twice.

Spans stay in memory until the run ends; ``dump`` writes them as JSON lines.
"""

from __future__ import annotations

import itertools
import json
import sys
import threading
import time

#: (defining module, function name, recorded as a leaf)
TARGETS = (
    ("zenojump.config", "load_config", False),
    ("zenojump.cli", "_run_point", False),
    ("zenojump.cli", "_compare_point", False),
    ("zenojump.models", "spin_chain_frame", False),
    ("zenojump.models", "time_independent_frame", False),
    ("zenojump.decomposition", "track_frame", False),
    ("zenojump.decomposition", "adiabaticity_report", False),
    ("zenojump.jump", "general_jump", False),
    ("zenojump.compare", "compare_jump", False),
    ("zenojump.propagators", "exact_propagator", False),
    ("zenojump.operators", "eigh", True),
    ("zenojump.operators", "matrix_exp_unitary", True),
)
#: the sweep-point functions, whose threads are the CLI's workers
POINT_TARGETS = tuple(t for t in TARGETS if t[1] in ("_run_point", "_compare_point"))
#: methods wrapped on their class: (module, class, method)
METHOD_TARGETS = (("zenojump.cli", "ResultTable", "csv_text"),)


class Span:
    """One call of a wrapped function, or a run's root."""

    __slots__ = ("id", "name", "site", "run", "thread", "parent", "start", "end",
                 "leaves", "leaf_time", "steps")

    def __init__(self, id, name, site, run, thread, parent, start, end=None):
        self.id = id
        self.name = name
        self.site = site
        self.run = run
        self.thread = thread
        self.parent = parent
        self.start = start
        self.end = end
        #: leaf site -> [calls, seconds] of leaf calls made while this span was open
        self.leaves: dict[str, list] = {}
        #: seconds covered by outermost leaf calls
        self.leaf_time = 0.0
        #: ``steps_used`` of the returned value, when it has one
        self.steps = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}


class Tracer:
    """Installs span-recording wrappers and holds the spans they record."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.root: Span | None = None
        #: every wrapped binding, ``module.attr``, -> the span or leaf name it records
        self.sites: dict[str, str] = {}
        self._ids = itertools.count()
        self._local = threading.local()
        self._root_lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self, targets=TARGETS, method_targets=METHOD_TARGETS) -> None:
        """Wrap every ``zenojump`` module binding of each target function."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "zenojump" or n.startswith("zenojump."))]
        for module_name, attr, leaf in targets:
            original = getattr(sys.modules[module_name], attr)
            name = f"{module_name.split('.')[-1]}.{attr}"
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        site = f"{module.__name__}.{key}"
                        self._patch(module, key, self._wrap(original, name, site, leaf))
        for module_name, cls_name, attr in method_targets:
            cls = getattr(sys.modules[module_name], cls_name)
            original = getattr(cls, attr)
            site = f"{module_name}.{cls_name}.{attr}"
            name = f"{module_name.split('.')[-1]}.{cls_name}.{attr}"
            self._patch(cls, attr, self._wrap(original, name, site, False))

    def restore(self) -> None:
        """Put every original binding back."""
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    def _patch(self, owner, key, wrapper) -> None:
        self._patches.append((owner, key, getattr(owner, key)))
        setattr(owner, key, wrapper)

    # -- recording ----------------------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            self._local.leaf_depth = 0
        return stack

    def _wrap(self, fn, name: str, site: str, leaf: bool):
        tracer = self
        self.sites[site] = name

        if leaf:
            def wrapper(*args, **kwargs):
                stack = tracer._stack()
                depth = tracer._local.leaf_depth
                tracer._local.leaf_depth = depth + 1
                start = tracer.clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    elapsed = tracer.clock() - start
                    tracer._local.leaf_depth = depth
                    tracer._add_leaf(stack[-1] if stack else None, site, elapsed, depth == 0)
        else:
            def wrapper(*args, **kwargs):
                stack = tracer._stack()
                parent = stack[-1] if stack else tracer.root
                span = Span(next(tracer._ids), name, site,
                            parent.run if parent is not None else None,
                            threading.get_ident(),
                            parent.id if parent is not None else None,
                            tracer.clock())
                stack.append(span)
                try:
                    result = fn(*args, **kwargs)
                    span.steps = getattr(result, "steps_used", None)
                    return result
                finally:
                    span.end = tracer.clock()
                    stack.pop()
                    tracer.spans.append(span)

        wrapper.__wrapped__ = fn
        return wrapper

    def _add_leaf(self, span: Span | None, site: str, elapsed: float, outermost: bool) -> None:
        if span is None:
            span = self.root
            if span is None:
                return
            with self._root_lock:
                self._count_leaf(span, site, elapsed, outermost)
        else:
            self._count_leaf(span, site, elapsed, outermost)

    @staticmethod
    def _count_leaf(span: Span, site: str, elapsed: float, outermost: bool) -> None:
        entry = span.leaves.setdefault(site, [0, 0.0])
        entry[0] += 1
        entry[1] += elapsed
        if outermost:
            span.leaf_time += elapsed

    def call(self, name: str, run: str, fn, *args):
        """Call ``fn(*args)`` inside a root span for run ``run``."""
        self.root = Span(next(self._ids), name, name, run, threading.get_ident(), None,
                         self.clock())
        stack = self._stack()
        stack.append(self.root)
        try:
            return fn(*args)
        finally:
            self.root.end = self.clock()
            stack.pop()
            self.spans.append(self.root)
            self.root = None

    def site_calls(self) -> dict[str, int]:
        """Calls that went through each wrapped binding."""
        calls = dict.fromkeys(self.sites, 0)
        for span in self.spans:
            if span.site in calls:
                calls[span.site] += 1
            for site, (n, _secs) in span.leaves.items():
                calls[site] += n
        return calls

    def leaf_totals(self, span: Span) -> dict[str, list]:
        """Leaf name -> [calls, seconds] recorded on ``span``."""
        totals: dict[str, list] = {}
        for site, (n, secs) in span.leaves.items():
            entry = totals.setdefault(self.sites[site], [0, 0.0])
            entry[0] += n
            entry[1] += secs
        return totals

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in sorted(self.spans, key=lambda s: s.start):
                fh.write(json.dumps(span.as_dict()) + "\n")


def covered(intervals, start: float, end: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[start, end]``."""
    total = 0.0
    reach = start
    for a, b in sorted((max(a, start), min(b, end)) for a, b in intervals):
        if b <= reach:
            continue
        total += b - max(a, reach)
        reach = b
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the time its child spans and leaf calls cover.

    Children on other threads may overlap each other, so their union counts,
    not their sum.  Leaf calls run on the span's own thread while it is the
    innermost open span, so they never overlap its child spans.
    """
    children: dict[int, list] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {s.id: s.duration - covered(children.get(s.id, ()), s.start, s.end) - s.leaf_time
            for s in spans}
