"""Layer trace built from outside the package.

Each hexknot module calls its sibling layers through names it imported
at load time. A Tracer swaps those names for timing shims, so the trace
needs no change to the package. Every call through a shim records one
span: its name, start, end and the span that was open when it started.
A layer's self time is its span time minus the time of its child spans.

A shim target that no longer exists (merged away, renamed) is recorded
as absent and skipped; the traced run still completes.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter
from contextlib import contextmanager

# (module, attribute, span name). The span is named after the module
# that defines the function; the target is the caller's imported name.
TARGETS = (
    ("hexknot.measure", "sample_action_batch", "action_angle.sample_action_batch"),
    ("hexknot.measure", "sample_angles_batch", "action_angle.sample_angles_batch"),
    ("hexknot.measure", "class_masks", "trefoil_predicates.class_masks"),
    ("hexknot.measure", "passes_window_filters",
     "trefoil_predicates.passes_window_filters"),
    ("hexknot.measure", "build_hexagon", "action_angle.build_hexagon"),
    ("hexknot.measure", "classify_batch", "invariants.classify_batch"),
    ("hexknot.trefoil_predicates", "nine_functions", "trefoil_predicates.nine_functions"),
    ("hexknot.invariants", "crossing_signs", "geom.crossing_signs"),
    ("hexknot.invariants", "is_embedded", "action_angle.is_embedded"),
    ("hexknot.invariants", "curl", "invariants.curl"),
    ("hexknot.action_angle", "segment_distances", "geom.segment_distances"),
    ("hexknot.cli", "sample_coordinate_stream", "measure.sample_coordinate_stream"),
    ("hexknot.cli", "build_hexagon", "action_angle.build_hexagon"),
    ("hexknot.cli", "classify_batch", "invariants.classify_batch"),
    ("hexknot.cli", "is_interior", "action_angle.is_interior"),
)

# Spans whose target yields: each next() is timed, not the creation.
GENERATORS = frozenset({"measure.sample_coordinate_stream"})


def _philox_position(rng):
    """64-bit words drawn so far from a Philox generator, or None when
    the generator is not Philox (the count is then reported absent)."""
    try:
        state = rng.bit_generator.state
        counter = sum(int(w) << (64 * i) for i, w in enumerate(state["state"]["counter"]))
        return 4 * counter + int(state["buffer_pos"])
    except (AttributeError, KeyError, TypeError):
        return None


def _count_draws(counts, before, args, out):
    after = _philox_position(args[0]) if args else None
    if before is None or after is None:
        return
    counts["action_angle.sample_action_batch.drawn"] += (after - before) // 3
    counts["action_angle.sample_action_batch.accepted"] += len(out)


def _count_codes(counts, before, args, out):
    codes = out.ravel()
    counts["invariants.classify_batch.trefoils"] += int(((codes >= 1) & (codes <= 4)).sum())
    counts["invariants.classify_batch.degenerate"] += int((codes == 5).sum())


def _count_hits(counts, before, args, out):
    counts["trefoil_predicates.class_masks.hits"] += int(sum(m.sum() for m in out.values()))


# span name -> (read before the call, tally after it); outside the span.
COUNTERS = {
    "action_angle.sample_action_batch": (lambda args: _philox_position(args[0]) if args else None,
                                         _count_draws),
    "invariants.classify_batch": (None, _count_codes),
    "trefoil_predicates.class_masks": (None, _count_hits),
}


class Tracer:
    """In-memory span recorder with install/restore of the shims."""

    def __init__(self, targets=TARGETS):
        self.targets = tuple(targets)
        self.spans = []          # [name, start_ns, end_ns, parent index]
        self.counts = Counter()
        self.absent = []         # "module.attribute" targets not found
        self._stack = []

    @contextmanager
    def span(self, name):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = [name, time.perf_counter_ns(), None, parent]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record[2] = time.perf_counter_ns()
            self._stack.pop()

    def _shim(self, name, fn):
        before_fn, after_fn = COUNTERS.get(name, (None, None))

        if name in GENERATORS:
            def shim(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    with self.span(name):
                        try:
                            item = next(it)
                        except StopIteration:
                            return
                    yield item
            return shim

        def shim(*args, **kwargs):
            before = before_fn(args) if before_fn else None
            with self.span(name):
                out = fn(*args, **kwargs)
            if after_fn:
                after_fn(self.counts, before, args, out)
            return out
        return shim

    @contextmanager
    def installed(self):
        """Swap every present target for its shim; restore on exit."""
        saved = []
        absent = []
        try:
            for module_name, attr, name in self.targets:
                try:
                    module = importlib.import_module(module_name)
                    original = getattr(module, attr)
                except (ImportError, AttributeError):
                    absent.append(f"{module_name}.{attr}")
                    continue
                saved.append((module, attr, original))
                setattr(module, attr, self._shim(name, original))
            self.absent = absent
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def absent_spans(self):
        """Span names none of whose targets exist."""
        present = {name for m, a, name in self.targets if f"{m}.{a}" not in self.absent}
        return sorted({name for _, _, name in self.targets} - present)

    def summary(self):
        """name -> {"calls", "total_ns", "self_ns"} over closed spans."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                child_ns[parent] += end - start
        out = {}
        for (name, start, end, _), children in zip(self.spans, child_ns):
            agg = out.setdefault(name, {"calls": 0, "total_ns": 0, "self_ns": 0})
            agg["calls"] += 1
            agg["total_ns"] += end - start
            agg["self_ns"] += end - start - children
        return out
