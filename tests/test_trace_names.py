"""The traced benchmark run wraps library functions by name; every name it
lists must still resolve, or ``perfbench/run.py --trace 1`` breaks."""

import inspect
import os
import types

import pytest

TRACE = os.path.join(os.path.dirname(__file__), "..", "perfbench", "trace.py")


@pytest.fixture(scope="module")
def trace():
    # running the module body defines the tables; only trace.main installs
    # wrappers.  exec rather than import, so no bytecode lands in perfbench/
    module = types.ModuleType("perfbench_trace")
    with open(TRACE) as fh:
        exec(compile(fh.read(), TRACE, "exec"), module.__dict__)
    return module


def test_spans_resolve(trace):
    names = set()
    for module, attr in trace.SPANS:
        assert callable(getattr(module, attr, None)), (module.__name__, attr)
        names.add("%s.%s" % (module.__name__.split(".")[-1], attr))
    assert set(trace.RECOMPUTED) <= names


def test_counted_methods_resolve(trace):
    for cls, attr, _ in trace.COUNTED:
        assert attr in cls.__dict__, (cls.__name__, attr)


def test_cli_entry_points(trace):
    from hodgegauge import cli

    assert set(cli._HANDLERS) == {
        "validate", "split", "connect", "holonomy", "roundtrip", "rees", "ext"
    }
    params = list(inspect.signature(cli._process_one).parameters)
    assert params == ["command", "path", "flags"]
    for exc in trace.DOCUMENTED:
        assert issubclass(exc, Exception)
