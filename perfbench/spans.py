"""Spans recorded from outside the package.

`Tracer.install` replaces the public names that one package module takes
from another (for example `census.canonical_code`, `cli.is_normal`,
`counting.commuting_order_p_counts`) and some `TruncSeries` methods with
wrappers that record a span per call; `Tracer.remove` puts the originals
back.  A span is (name, start, end, parent, op, size): `parent` indexes the
enclosing span or is -1, `op` identifies the benchmark op, and `size` is a
count measured at the boundary (arcs, classes, items yielded).  Spans are
named after the module that defines the function, so `cli.is_normal` and
`census.is_normal` both record `diagram.is_normal`.

Everything runs in one thread, so no span ever waits for another; time
waited is zero by construction and is not reported.
"""

from __future__ import annotations

from collections import defaultdict
from time import perf_counter


def _arcs_of_arg(args, result):
    return args[0].n


def _arcs_of_result(args, result):
    return result[0].n


def _classes_of_report(args, result):
    return result.unpointed_classes


class Tracer:
    """Records spans in memory; one instance per traced run."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._saved = []
        self.op = None

    # -- recording ---------------------------------------------------------

    def _open(self):
        stack = self._stack
        parent = stack[-1] if stack else -1
        index = len(self.spans)
        self.spans.append(None)
        stack.append(index)
        return index, parent

    def _close(self, index, name, parent, start, end, size):
        self._stack.pop()
        self.spans[index] = (name, start, end, parent, self.op, size)

    def call(self, name, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span called `name`."""
        return self.wrap(name, fn)(*args, **kwargs)

    def wrap(self, name, fn, size=None):
        """`fn` recording a span per call; `size(args, result)` gives the
        span's size."""
        def wrapper(*args, **kwargs):
            index, parent = self._open()
            start = perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                n = size(args, result) if size and result is not None else 0
                self._close(index, name, parent, start, end, n)
        wrapper.__wrapped__ = fn
        return wrapper

    def wrap_generator(self, name, fn):
        """One span per resumption of the generator (time inside next());
        size is 1 for a resumption that yielded an item."""
        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            while True:
                index, parent = self._open()
                start = perf_counter()
                try:
                    item = next(gen)
                except StopIteration:
                    self._close(index, name, parent, start, perf_counter(), 0)
                    return
                except BaseException:
                    self._close(index, name, parent, start, perf_counter(), 0)
                    raise
                self._close(index, name, parent, start, perf_counter(), 1)
                yield item
        wrapper.__wrapped__ = fn
        return wrapper

    # -- patching ----------------------------------------------------------

    def install(self, package) -> None:
        cli, census, counting = package.cli, package.census, package.counting
        series = package.series
        targets = [
            (cli, "main", "cli.main", None),
            (cli, "parse_diagram_text", "diagram.parse_diagram_text", _arcs_of_result),
            (cli, "canonical_code", "diagram.canonical_code", _arcs_of_arg),
            (cli, "is_normal", "diagram.is_normal", None),
            (cli, "automorphism_order", "diagram.automorphism_order", None),
            (cli, "pointed_morphism", "diagram.pointed_morphism", None),
            (cli, "pointed_morphism_conflict", "diagram.pointed_morphism_conflict", None),
            (census, "enumerate_size", "census.enumerate_size", _classes_of_report),
            (census, "Diagram", "diagram.Diagram", None),
            (census, "canonical_code", "diagram.canonical_code", _arcs_of_arg),
            (census, "canonical_representative", "diagram.canonical_representative", None),
            (census, "is_normal", "diagram.is_normal", None),
            (counting, "subgroup_series", "counting.subgroup_series", None),
            (counting, "conjugacy_class_series", "counting.conjugacy_class_series", None),
            (counting, "commuting_order_p_counts", "cycleindex.commuting_order_p_counts", None),
            (counting, "moebius_sieve", "series.moebius_sieve", None),
            (series.TruncSeries, "log", "series.TruncSeries.log", None),
            (series.TruncSeries, "integer_coefficients",
             "series.TruncSeries.integer_coefficients", None),
        ]
        try:
            for owner, attr, name, size in targets:
                original = owner.__dict__[attr]
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original, size))
            original = census.pointed_structures
            self._saved.append((census, "pointed_structures", original))
            census.pointed_structures = self.wrap_generator("census.pointed_structures", original)
        except BaseException:
            self.remove()
            raise

    def remove(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def self_times(spans) -> list:
    """Each span's duration minus the part of its interval that its child
    spans cover (children are clipped to the parent and merged first)."""
    children = defaultdict(list)
    for i, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(i)
    out = []
    for i, (_, start, end, *_rest) in enumerate(spans):
        covered = 0.0
        lo = hi = None
        for c in sorted(children.get(i, ()), key=lambda c: spans[c][1]):
            c_start, c_end = max(spans[c][1], start), min(spans[c][2], end)
            if c_end <= c_start:
                continue
            if hi is None or c_start > hi:
                if hi is not None:
                    covered += hi - lo
                lo, hi = c_start, c_end
            else:
                hi = max(hi, c_end)
        if hi is not None:
            covered += hi - lo
        out.append((end - start) - covered)
    return out


def summarize(spans, selfs) -> dict:
    """Per span name: total self time, number of spans, total size."""
    out = defaultdict(lambda: {"self_s": 0.0, "calls": 0, "size": 0})
    for (name, _, _, _, _, size), s in zip(spans, selfs):
        entry = out[name]
        entry["self_s"] += s
        entry["calls"] += 1
        entry["size"] += size
    return out
