"""Per-layer spans and counters, recorded from outside the program.

The layers are the modules of ``cwtower``.  ``Tracer.install`` replaces a
layer function by a timing wrapper in every ``cwtower`` namespace that
holds it: the modules bind names with ``from .x import y``, so
``cwtower.cli.load_tower`` and ``cwtower.textio.load_tower`` are separate
references to one function, and both must be wrapped.  ``uninstall`` puts
the originals back, so untimed code and untraced passes run the program
unchanged.

A span records name, start, end, parent span and operation id.  Spans are
kept in memory and written out when the benchmark ends.  A layer's self
time is its busy time minus the time covered by its child spans.  Hot
leaves are counted, not timed.
"""

from __future__ import annotations

import json
import os
import sys
from collections import Counter
from time import perf_counter

import numpy as np

# Functions timed as spans, named "<module>.<function>".
SPANS = {
    "cli": ("main",),
    "homsearch": ("enumerate_maps", "enumerate_squares", "square_commutes"),
    "colimits": ("attach_cells", "stage_zero"),
    "factorization": ("build_tower", "induced_tower_map", "check_intersection",
                      "check_subcomplex", "compose_tower_maps"),
    "textio": ("save_tower", "load_tower", "parse_sset", "parse_smap",
               "format_sset", "format_smap"),
    "homology": ("homology", "chain_complex", "smith_normal_form",
                 "induced_homology_map", "connectivity_report"),
    "core": ("compose", "validate", "map_errors", "subcomplex", "boundary_inclusion"),
}

# Hot leaves, counted only.  ``face`` is counted only where the search
# calls it, not inside core's own validation; the others in every
# namespace that holds them.
COUNTED = (("homsearch", "face", "homsearch.face_calls", False),
           ("textio", "format_square", "textio.format_square.calls", True),
           ("textio", "parse_square", "textio.parse_square.calls", True))

# The per-layer metrics reported by a traced run, with their units; these
# are the ``per_layer`` entries of BENCHMARK.json.  Times and counts are
# per pass.
PER_LAYER = (
    ("homsearch.enumerate_maps.calls", "count"), ("homsearch.enumerate_maps.busy_s", "s"),
    ("homsearch.maps_out", "count"), ("homsearch.face_calls", "count"),
    ("homsearch.enumerate_squares.calls", "count"),
    ("homsearch.enumerate_squares.busy_s", "s"), ("homsearch.enumerate_squares.self_s", "s"),
    ("homsearch.squares_out", "count"), ("homsearch.attach_maps_out", "count"),
    ("homsearch.square_yield", "ratio"),
    ("homsearch.square_commutes.calls", "count"), ("homsearch.square_commutes.busy_s", "s"),
    ("core.boundary_inclusion.calls", "count"),
    ("colimits.attach_cells.calls", "count"), ("colimits.attach_cells.busy_s", "s"),
    ("colimits.attach_cells.self_s", "s"), ("colimits.cells_attached", "count"),
    ("factorization.build_tower.calls", "count"), ("factorization.build_tower.busy_s", "s"),
    ("factorization.build_tower.self_s", "s"),
    ("factorization.induced_tower_map.calls", "count"),
    ("factorization.induced_tower_map.busy_s", "s"),
    ("factorization.induced_tower_map.self_s", "s"),
    ("factorization.check_intersection.busy_s", "s"),
    ("textio.format_square.calls", "count"),
    ("textio.save_tower.calls", "count"), ("textio.save_tower.busy_s", "s"),
    ("textio.bytes_written", "count"),
    ("textio.load_tower.calls", "count"), ("textio.load_tower.busy_s", "s"),
    ("textio.load_tower.self_s", "s"), ("textio.parse_sset.busy_s", "s"),
    ("textio.parse_smap.busy_s", "s"), ("textio.parse_square.calls", "count"),
    ("textio.bytes_read", "count"),
    ("homology.smith_normal_form.calls", "count"), ("homology.smith_normal_form.busy_s", "s"),
    ("homology.snf_entries", "count"),
    ("homology.chain_complex.calls", "count"), ("homology.chain_complex.busy_s", "s"),
    ("homology.induced_homology_map.calls", "count"),
    ("homology.induced_homology_map.busy_s", "s"),
    ("homology.induced_homology_map.self_s", "s"),
    ("homology.connectivity_report.busy_s", "s"),
    ("core.compose.calls", "count"), ("core.compose.busy_s", "s"),
    ("core.validate.calls", "count"), ("core.validate.busy_s", "s"),
    ("cli.main.calls", "count"), ("cli.main.self_s", "s"),
    ("trace.wall_s", "s"), ("trace.overhead_s", "s"),
)

# Counters that must repeat exactly between passes and between runs.
EXACT = ("homsearch.maps_out", "homsearch.attach_maps_out", "homsearch.squares_out",
         "homsearch.face_calls", "colimits.cells_attached", "textio.format_square.calls",
         "textio.parse_square.calls", "textio.bytes_written", "textio.bytes_read",
         "homology.snf_entries", "core.boundary_inclusion.calls")


def _is_boundary(K):
    """True for the boundary of Delta^n: n + 1 vertices, dimensions 0..n-1."""
    return len(K.counts) >= 1 and K.counts[0] == len(K.counts) + 1


class Tracer:
    def __init__(self):
        self.spans = []          # (name, start, end, parent index, op id)
        self.stats = {}          # name -> [calls, busy, self]
        self.counts = Counter()
        self.written = []        # tower directories saved during the op
        self._stack = []         # [span index, child time, name]
        self._op = None
        self._patches = []
        self._build_patches()

    # -- installation --------------------------------------------------

    def _build_patches(self):
        mods = [m for name, m in sorted(sys.modules.items())
                if m is not None and (name == "cwtower" or name.startswith("cwtower."))]

        def patch(short, fname, wrap, everywhere=True):
            home = sys.modules["cwtower." + short]
            orig = getattr(home, fname)
            wrapper = wrap(orig)
            for m in mods if everywhere else [home]:
                if getattr(m, fname, None) is orig:
                    self._patches.append((m, fname, orig, wrapper))

        for short, names in SPANS.items():
            for fname in names:
                patch(short, fname, lambda fn: self._span(f"{short}.{fname}", fn))
        for short, fname, metric, everywhere in COUNTED:
            patch(short, fname, lambda fn: self._counter(f"{short}.{fname}", metric, fn),
                  everywhere)

    def install(self):
        for m, fname, _, wrapper in self._patches:
            setattr(m, fname, wrapper)

    def uninstall(self):
        for m, fname, orig, _ in self._patches:
            setattr(m, fname, orig)

    # -- wrappers --------------------------------------------------------

    def _span(self, name, fn):
        stack, spans, stats = self._stack, self.spans, self.stats
        before = _BEFORE.get(name)
        after = _AFTER.get(name)

        def wrapper(*args, **kwargs):
            if before is not None:
                before(self, args)
            parent = stack[-1] if stack else None
            frame = [len(spans), 0.0, name]
            spans.append(None)
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                st = stats.get(name)
                if st is None:
                    st = stats[name] = [0, 0.0, 0.0]
                st[0] += 1
                st[1] += dur
                st[2] += dur - frame[1]
                if parent is not None:
                    parent[1] += dur
                spans[frame[0]] = (name, t0, t1, parent[0] if parent else -1, self._op)
            if after is not None:
                after(self, args, result, parent)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counter(self, name, metric, fn):
        counts = self.counts
        measure = _BEFORE.get(name)

        def wrapper(*args, **kwargs):
            counts[metric] += 1
            if measure is not None:
                measure(self, args)
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- passes and operations ---------------------------------------------

    def begin_op(self, op_id):
        self._op = op_id

    def end_op(self):
        for path in self.written:
            for dirpath, _, files in os.walk(path):
                self.counts["textio.bytes_written"] += sum(
                    os.path.getsize(os.path.join(dirpath, f)) for f in files)
        self.written.clear()
        self._op = None

    def reset(self):
        self.spans.clear()
        self.stats.clear()
        self.counts.clear()

    def metrics(self):
        """Per-layer metrics of everything recorded since the last reset."""
        m = {}
        for name, (calls, busy, own) in self.stats.items():
            m[f"{name}.calls"] = calls
            m[f"{name}.busy_s"] = busy
            m[f"{name}.self_s"] = own
        m.update(self.counts)
        base = m.get("homsearch.attach_maps_out", 0)
        m["homsearch.square_yield"] = m.get("homsearch.squares_out", 0) / base if base else 0.0
        return m


def write_spans(spans, path):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        for name, t0, t1, parent, op in spans:
            fh.write(json.dumps({"name": name, "start": t0, "end": t1,
                                 "parent": parent, "op": op}) + "\n")


# Work counters read from arguments and results at layer boundaries.

def _bytes_in(tr, args):
    tr.counts["textio.bytes_read"] += len(args[0])


def _snf_entries(tr, args):
    m, n = np.shape(args[0])
    tr.counts["homology.snf_entries"] += m * n


def _saved(tr, args, result, parent):
    tr.written.append(args[1])


def _maps_out(tr, args, result, parent):
    tr.counts["homsearch.maps_out"] += len(result)
    if parent is not None and parent[2] == "homsearch.enumerate_squares" and _is_boundary(args[0]):
        tr.counts["homsearch.attach_maps_out"] += len(result)


def _squares_out(tr, args, result, parent):
    tr.counts["homsearch.squares_out"] += len(result)


def _cells_attached(tr, args, result, parent):
    tr.counts["colimits.cells_attached"] += len(args[1])


_BEFORE = {"textio.parse_sset": _bytes_in, "textio.parse_smap": _bytes_in,
           "textio.parse_square": _bytes_in, "homology.smith_normal_form": _snf_entries}
_AFTER = {"textio.save_tower": _saved, "homsearch.enumerate_maps": _maps_out,
          "homsearch.enumerate_squares": _squares_out,
          "colimits.attach_cells": _cells_attached}
