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
