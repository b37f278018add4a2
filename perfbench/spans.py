"""Spans recorded from outside the program, and their self times.

A traced run replaces public functions of the `nrpa` modules with wrappers
that open and close a span around the original call, and hands the model
`TimedStore` proxies in place of its `ProfileStore`s. Nothing inside the
package changes. Spans stay in memory as `[name, start, end, parent]` lists
(parent is an index into the list, -1 for a root) and are written out when
the run ends.
"""

import time
from contextlib import contextmanager

from nrpa import checkpoint, data, evaluation, model, training


class Tracer:
    def __init__(self):
        self.spans = []
        self._open = []

    def open(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._open.pop()

    def wrap(self, fn, name, side_arg=None):
        """`fn` inside a span; with side_arg, the positional argument at
        that index is appended to the span name."""
        def traced(*args, **kwargs):
            idx = self.open(name if side_arg is None else f"{name}.{args[side_arg]}")
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)
        return traced

    @contextmanager
    def patched(self):
        """Every traced public function replaced by its span wrapper."""
        targets = [
            (data, "parse_reviews", "data.parse", None),
            (data, "prepare_dataset", "data.prepare_dataset", None),
            (data, "save_prepared", "data.save_prepared", None),
            (data, "load_prepared", "data.load_prepared", None),
            (data, "build_profiles", "data.build_profiles", None),
            (model, "init_params", "model.init_params", None),
            (model, "predict_batch", "model.predict_batch", None),
            (model, "encode_side_batch", "model.encode_side", 1),
            (model, "forward", "model.forward", None),
            (training, "backward", "training.backward", None),
            (training, "adam_step", "training.adam_step", None),
            (evaluation, "evaluate", "evaluation.evaluate", None),
            (checkpoint, "save_params", "checkpoint.save", None),
            (checkpoint, "load_params", "checkpoint.load", None),
        ]
        saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _, _ in targets]
        # a classmethod is replaced through its class; restoring puts the
        # original descriptor back
        adam = training.AdamState
        saved.append((adam, "for_params", adam.__dict__["for_params"]))
        try:
            for owner, attr, name, side_arg in targets:
                setattr(owner, attr, self.wrap(getattr(owner, attr), name, side_arg))
            adam.for_params = staticmethod(self.wrap(adam.for_params, "training.adam_init"))
            yield self
        finally:
            for owner, attr, original in saved:
                setattr(owner, attr, original)


class TimedStore:
    """A `ProfileStore` whose `gather` is a span. Each gather's output is
    kept by reference in `log`, so counts are taken after the spans close."""

    def __init__(self, store, tracer: Tracer, side: str):
        self._store = store
        self._tracer = tracer
        self.side = side
        self.log = []

    def gather(self, owners, exclude_partner=None):
        idx = self._tracer.open("data.gather")
        try:
            out = self._store.gather(owners, exclude_partner)
        finally:
            self._tracer.close(idx)
        self.log.append(out)
        return out

    def __getattr__(self, attr):
        return getattr(self._store, attr)


def self_times(spans) -> list:
    """Each span's duration minus the union of its children's intervals,
    clipped to the span."""
    children = [[] for _ in spans]
    for idx, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            children[parent].append(idx)
    out = []
    for (_, start, end, _), kids in zip(spans, children):
        covered, reach = 0.0, start
        for c_start, c_end in sorted((spans[k][1], spans[k][2]) for k in kids):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((end - start) - covered)
    return out


def roots(spans) -> list:
    """Index of each span's root; parents always precede their children."""
    out = []
    for idx, (_, _, _, parent) in enumerate(spans):
        out.append(idx if parent < 0 else out[parent])
    return out


def totals_by_root(spans, root_name: str):
    """For each root span named root_name: (root index, {name: (self time,
    calls)}) over the spans beneath it, the root included."""
    selfs = self_times(spans)
    groups = {}
    for idx, root in enumerate(roots(spans)):
        if spans[root][0] != root_name:
            continue
        by_name = groups.setdefault(root, {})
        s, n = by_name.get(spans[idx][0], (0.0, 0))
        by_name[spans[idx][0]] = (s + selfs[idx], n + 1)
    return sorted(groups.items())
