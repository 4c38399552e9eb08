"""The benchmark's hooks into the program still resolve.

``perfbench/`` looks functions up by name from outside the package: the
tracer wraps every ``SPANS`` and ``COUNTED`` name, and the structural
check imports from ``cwtower``.  A rename or deletion in ``src`` would
break the traced benchmark, so it fails here first.
"""

import os
import sys

import pytest

import cwtower.cli  # noqa: F401  (the tracer patches every loaded cwtower module)
from cwtower import boundary_simplex, cw_tower, save_tower

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


@pytest.fixture(scope="module")
def perfbench():
    sys.path.insert(0, PERFBENCH)
    try:
        import checks
        import tracing
        yield tracing, checks
    finally:
        sys.path.remove(PERFBENCH)


def test_tracer_finds_every_layer(perfbench):
    tracing, _ = perfbench
    tracer = tracing.Tracer()  # getattr on every SPANS and COUNTED name
    patched = {(m.__name__.split(".")[-1], name) for m, name, _, _ in tracer._patches}
    for short, names in tracing.SPANS.items():
        for name in names:
            assert (short, name) in patched, f"{short}.{name}"
    for short, name, _, _ in tracing.COUNTED:
        assert (short, name) in patched, f"{short}.{name}"


def test_structural_check_runs(perfbench, tmp_path):
    from cwtower import load_tower, map_errors, square_commutes, validate  # noqa: F401

    _, checks = perfbench
    save_tower(cw_tower(boundary_simplex(2), 2), tmp_path / "t")
    assert checks.structural_problems(str(tmp_path / "t"), [3, 6, 36]) == []


def test_argument_hooks_count_exactly(perfbench, tmp_path):
    # the counters read positional arguments: attach_cells' row (args[1]),
    # save_tower's directory (args[1]) and the parsed text (args[0])
    from cwtower import format_sset
    from cwtower.cli import main

    tracing, _ = perfbench
    circle, out = tmp_path / "circle.sset", tmp_path / "t"
    circle.write_text(format_sset(boundary_simplex(2)))
    counts = []
    for argv in (["build", str(circle), "--out", str(out), "--max-dim", "2"],
                 ["homology", str(out), "--stage", "2"]):
        tracer = tracing.Tracer()
        tracer.install()
        try:
            tracer.begin_op(0)
            assert main(argv) == 0
            tracer.end_op()
        finally:
            tracer.uninstall()
        counts.append(tracer.counts)
    size = sum(p.stat().st_size for p in out.iterdir())
    assert size == 14_991
    for c, read, written in zip(counts, (214, 237), (size, 0)):
        assert c["colimits.cells_attached"] == c["homsearch.squares_out"] == 42
        assert c["textio.bytes_read"] == read
        assert c["textio.bytes_written"] == written


def test_surface_the_benchmark_reads():
    # the tracer counts calls of homsearch.face by name, and the structural
    # check reads squares one by one: facets a tuple of ints, squares hashable
    from cwtower import AttachmentSquare, homsearch

    assert callable(homsearch.face)
    row = cw_tower(boundary_simplex(2), 2).squares[2]
    sq = row[3]
    assert isinstance(sq, AttachmentSquare)
    assert type(sq.facets) is tuple and all(type(x) is int for x in sq.facets)
    assert type(sq.top) is int
    assert {sq: 1}[row[3]] == 1 and hash(sq) == hash(row[3:4][0])
