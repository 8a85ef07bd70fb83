"""The benchmark tracer names functions of wittpolar by string; each name
must still resolve, or every traced benchmark run breaks."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "benchmark" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_target_resolves(tracer):
    assert tracer.TARGETS
    for modname, attr, _how in tracer.TARGETS:
        obj = importlib.import_module("wittpolar." + modname)
        for part in attr.split("."):
            assert hasattr(obj, part), f"wittpolar.{modname}.{attr}"
            obj = getattr(obj, part)
        assert callable(obj), f"wittpolar.{modname}.{attr}"


def test_every_verify_suite_resolves(tracer):
    from wittpolar import verify
    assert set(tracer.VERIFY_SUITES) <= set(verify.SUITES)
