"""The functions the benchmark tracer wraps exist in the program.

``bench/tracer.py`` wraps functions of ``strandcheck`` by module and
name. A span whose every target is gone reports ``null`` for its
per-layer metrics, so a rename or a move must update the tracer too.
"""

import importlib.util
import inspect
import sys
from pathlib import Path

import strandcheck.cli  # noqa: F401  (loads every module a command uses)
from strandcheck import rewrite

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_span_resolves():
    tracer = _load_tracer()
    unresolved = {
        f"{mod}.{path}": span for mod, path, span, _ in tracer.TARGETS
        if tracer._resolve(sys.modules.get(mod), path) is None
    }
    spans = {span for _, _, span, _ in tracer.TARGETS}
    dead = sorted(span for span in spans
                  if all(f"{mod}.{path}" in unresolved
                         for mod, path, s, _ in tracer.TARGETS if s == span))
    assert not dead, f"spans with no function left: {dead} ({unresolved})"


def test_blocks_at_is_a_generator_function():
    """The tracer counts the yields of ``_blocks_at`` and the extractions
    made while it runs. A plain function that returned a generator would
    leave those spans empty, and ``rewrite.presentations_tried`` and
    ``rewrite.extract_ok_ratio`` would silently read 0."""
    assert inspect.isgeneratorfunction(rewrite._blocks_at)
