"""Tracing from outside the library: wrap its public functions, record spans.

The tracer replaces each traced function in every ``subspace_products``
module that holds it (``from .linalg import span`` makes a separate binding in
``products`` and ``search``), and methods on their class.  Leaving the
tracer's context puts the originals back; ``bindings_intact`` checks that
every binding holds its original again.

Each traced call records a span (id, name, start, end, parent id, time spent
in traced children); self time is duration minus that child time.  Functions
called below the pair level -- ``ExtensionField.mul``, ``product_dim_capped``
and each step of ``enumerate_subspaces`` -- are aggregated into call counts
and summed time instead, so tracing them does not flood memory.
"""

from __future__ import annotations

import functools
import sys
import time

from subspace_products import cli, fields, groups, linalg, products, search
from subspace_products.search import MuResult

# (owner, attribute, span name); owner is a module or a class.
SPANS = (
    (cli, "main", "cli.main"),
    (fields.ExtensionField, "__init__", "fields.build"),
    (linalg, "span", "linalg.span"),
    (search, "mu_exact", "search.mu_exact"),
    (search, "mu_randomized", "search.mu_randomized"),
    (search, "random_subspace", "search.random_subspace"),
    (products, "product_span", "products.product_span"),
    (products, "stabilizer", "products.stabilizer"),
    (products, "kneser_check", "products.kneser_check"),
    (products, "optimal_pair", "products.optimal_pair"),
    (groups, "builtin_group", "groups.builtin_group"),
    (groups, "mu_group_exact", "groups.mu_group_exact"),
    (groups, "mu_group_randomized", "groups.mu_group_randomized"),
)
AGGREGATES = (
    (fields.ExtensionField, "mul", "fields.mul"),
    (search, "product_dim_capped", "search.product_dim_capped"),
)
GENERATORS = (
    (search, "enumerate_subspaces", "search.enumerate_subspaces"),
)
_DONE = object()


def _bindings(owner, attr):
    """Every (namespace, attr) that holds the original of owner.attr."""
    original = getattr(owner, attr)
    if isinstance(owner, type):
        return original, [owner]
    holders = [mod for name, mod in sorted(sys.modules.items())
               if name.split(".")[0] == "subspace_products"
               and getattr(mod, attr, None) is original]
    return original, holders


def _snapshot():
    return {(holder, attr): original
            for owner, attr, _ in SPANS + AGGREGATES + GENERATORS
            for original, holders in [_bindings(owner, attr)]
            for holder in holders}


_ORIGINALS = _snapshot()


def bindings_intact() -> bool:
    """True when every traced binding holds the function it held at import."""
    return all(getattr(holder, attr) is original
               for (holder, attr), original in _ORIGINALS.items())


class Aggregate:
    __slots__ = ("calls", "self_s", "cap_returns")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.cap_returns = 0


class Tracer:
    """Use as a context manager: wrappers are installed on entry and the
    originals restored on exit, even if the traced code raises."""

    def __init__(self):
        self.spans: list[tuple] = []          # (id, name, start, end, parent, child_s)
        self.aggregates: dict[str, Aggregate] = {}
        self.pairs: dict[str, int] = {}       # layer -> sum of MuResult.pairs_examined
        self._stack = [[0, 0.0]]              # [span id, child seconds]; 0 is the root
        self._next_id = 1
        self._patched: list[tuple] = []       # (holder, attr, original)

    def __enter__(self):
        for owner, attr, name in SPANS:
            self._patch(owner, attr, self._span_wrapper(name, getattr(owner, attr)))
        for owner, attr, name in AGGREGATES:
            self._patch(owner, attr, self._aggregate_wrapper(name, getattr(owner, attr)))
        for owner, attr, name in GENERATORS:
            self._patch(owner, attr, self._generator_wrapper(name, getattr(owner, attr)))
        return self

    def __exit__(self, *exc):
        for holder, attr, original in reversed(self._patched):
            setattr(holder, attr, original)
        return False

    def _patch(self, owner, attr, wrapper):
        original, holders = _bindings(owner, attr)
        for holder in holders:
            self._patched.append((holder, attr, original))
            setattr(holder, attr, wrapper)

    # -- wrappers ---------------------------------------------------------------

    def _span_wrapper(self, name, fn):
        spans, stack, pairs, clock = self.spans, self._stack, self.pairs, time.perf_counter
        layer = name.split(".")[0]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1][0]
            frame = [sid, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                stack[-1][1] += t1 - t0
                spans.append((sid, name, t0, t1, parent, frame[1]))
            if isinstance(result, MuResult):
                pairs[layer] = pairs.get(layer, 0) + result.pairs_examined
            return result

        return wrapper

    def _aggregate_wrapper(self, name, fn):
        agg = self.aggregates.setdefault(name, Aggregate())
        stack, clock = self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args):
            frame = [stack[-1][0], 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args)
            finally:
                dt = clock() - t0
                stack.pop()
                stack[-1][1] += dt
                agg.calls += 1
                agg.self_s += dt - frame[1]
            # product_dim_capped(field, arows, brows, cap) returning cap is a cap exit.
            if len(args) == 4 and result == args[3]:
                agg.cap_returns += 1
            return result

        return wrapper

    def _generator_wrapper(self, name, fn):
        agg = self.aggregates.setdefault(name, Aggregate())
        stack, clock = self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            agg.calls += 1
            it = fn(*args, **kwargs)
            while True:
                t0 = clock()
                item = next(it, _DONE)
                dt = clock() - t0
                stack[-1][1] += dt
                agg.self_s += dt
                if item is _DONE:
                    return
                yield item

        return wrapper

    def call(self, name, fn):
        """Run fn() inside a span of its own, e.g. one per benchmark task."""
        return self._span_wrapper(name, fn)()

    # -- summaries --------------------------------------------------------------

    def span_totals(self) -> dict[str, tuple[int, float]]:
        """name -> (calls, self seconds), for spans and aggregates alike."""
        out: dict[str, list] = {}
        for _, name, t0, t1, _, child in self.spans:
            entry = out.setdefault(name, [0, 0.0])
            entry[0] += 1
            entry[1] += t1 - t0 - child
        for name, agg in self.aggregates.items():
            out[name] = [agg.calls, agg.self_s]
        return {name: (calls, self_s) for name, (calls, self_s) in sorted(out.items())}

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, t0, t1, parent, child in self.spans:
                fh.write(f'{{"id": {sid}, "name": "{name}", "start": {t0!r}, "end": {t1!r}, '
                         f'"parent": {parent}, "self_s": {t1 - t0 - child!r}}}\n')
