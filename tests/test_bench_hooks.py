"""The traced benchmark run wraps program functions by module and name.

A rename or deletion of one of them would otherwise show only in a traced
benchmark run; here it fails when the tracer installs its wrappers.
"""

import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def load_spans(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look it up
    spec.loader.exec_module(module)
    return module


def test_tracer_install_wraps_and_uninstall_restores(monkeypatch):
    tracer = load_spans(monkeypatch).Tracer("tier1")
    try:
        tracer.install()
        patches = list(tracer._patches)
        replaced = [getattr(owner, attr) is not original for owner, attr, original in patches]
    finally:
        tracer.uninstall()
    assert patches and all(replaced)
    assert not tracer.active
    for owner, attr, original in patches:
        assert getattr(owner, attr) is original, f"{owner.__name__}.{attr} not restored"
