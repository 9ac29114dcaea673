"""In-memory span recorder for the traced benchmark run.

The tracer replaces chosen functions and methods with thin wrappers that
record one span per call: name, start, end, parent span, operation id, a
failure flag and an optional value taken from the call's result.  Spans
stay in a list until the run ends.  ``uninstall`` puts every original
object back, so code that runs after it (and untraced runs, which never
install a tracer) executes the program unmodified.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import time
from collections import Counter

# Indices into a span record (a list, for cheap appends on the hot path).
NAME, START, END, PARENT, OP, FAILED, VALUE = range(7)


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.calls: Counter = Counter()      # counter-only boundaries
        self.totals: Counter = Counter()     # summed values of those
        self.op = 0                          # id of the current operation
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- installing ---------------------------------------------------------

    def _make_wrapper(self, fn, name, value, span):
        spans, stack, clock = self.spans, self._stack, self.clock

        if not span:
            @functools.wraps(fn)
            def counter(*args, **kwargs):
                result = fn(*args, **kwargs)
                self.calls[name] += 1
                if value is not None:
                    self.totals[name] += value(args, kwargs, result)
                return result

            return counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            rec = [label, 0.0, 0.0, stack[-1] if stack else -1, self.op, False, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec[FAILED] = True
                raise
            finally:
                rec[END] = clock()
                stack.pop()
            if value is not None:
                rec[VALUE] = value(args, kwargs, result)
            return result

        return wrapper

    def wrap(self, owner, attr: str, name, value=None, span: bool = True) -> None:
        """Replace ``owner.attr`` by a recording wrapper.

        ``name`` is the span name, or a callable ``(args, kwargs) -> name``.
        ``value(args, kwargs, result)`` attaches a number to the span.  With
        ``span=False`` the call is only counted and its value summed.
        """
        fn = inspect.getattr_static(owner, attr)
        wrapper = self._make_wrapper(fn, name, value, span)
        self._patches.append((owner, attr, fn))
        setattr(owner, attr, wrapper)

    def wrap_function(self, fn, modules, name, value=None) -> None:
        """Wrap a module-level function everywhere it is bound by name.

        ``from x import f`` copies the binding, so each module in
        ``modules`` that holds ``fn`` gets the same wrapper.
        """
        wrapper = self._make_wrapper(fn, name, value, True)
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if obj is fn:
                    self._patches.append((module, attr, fn))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results ------------------------------------------------------------

    def write(self, path: str) -> None:
        """Write every span as a gzipped CSV row, at the end of the run."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("id,name,start_s,end_s,parent,op,failed,value\n")
            for i, s in enumerate(self.spans):
                value = "" if s[VALUE] is None else repr(s[VALUE])
                fh.write(
                    f"{i},{s[NAME]},{s[START]!r},{s[END]!r},{s[PARENT]},"
                    f"{s[OP]},{int(s[FAILED])},{value}\n"
                )


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it its children cover.

    Children are merged as intervals clipped to the parent, so overlapping
    or out-of-order children are not subtracted twice.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s[PARENT] >= 0:
            children.setdefault(s[PARENT], []).append((s[START], s[END]))
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, s[START]), min(hi, s[END])
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((s[END] - s[START]) - covered)
    return out


def has_ancestor(spans: list[list], index: int, names: set[str]) -> bool:
    parent = spans[index][PARENT]
    while parent >= 0:
        if spans[parent][NAME] in names:
            return True
        parent = spans[parent][PARENT]
    return False
