"""The traced benchmark run wraps qpvqe functions by name; each must exist.

``bench/tracer.py`` is read by path and executed without importing it as
a package, so this check leaves the benchmark's files untouched.
"""

import importlib
import os
import runpy

import pytest

import qpvqe

TRACER = runpy.run_path(os.path.join(os.path.dirname(__file__), "..",
                                     "bench", "tracer.py"))
WRAPPED = list(TRACER["SPANS"]) + [(module, attribute) for module, attribute, _
                                   in TRACER["COUNTED"]]


@pytest.mark.parametrize("module_name", TRACER["MODULES"])
def test_traced_module_is_a_package_attribute(module_name):
    importlib.import_module(f"qpvqe.{module_name}")
    assert hasattr(qpvqe, module_name)


@pytest.mark.parametrize("module_name, attribute", WRAPPED,
                         ids=[f"{m}.{a}" for m, a in WRAPPED])
def test_traced_name_resolves(module_name, attribute):
    owner = importlib.import_module(f"qpvqe.{module_name}")
    for part in attribute.split("."):
        owner = getattr(owner, part)
    assert callable(owner)
