"""Every name the benchmark harness wraps still resolves.

``planbench/layers.py`` times the program from outside by replacing the
functions in ``FUNCTIONS`` and the methods in ``METHODS`` (looked up in
``cls.__dict__``).  A rename there would otherwise surface only in a
traced benchmark run.
"""

from __future__ import annotations

import importlib

import pytest

from planbench.layers import FUNCTIONS, IMPORTS, METHODS


@pytest.mark.parametrize("module", IMPORTS)
def test_harness_imports_resolve(module):
    importlib.import_module(module)


@pytest.mark.parametrize("layer", sorted(FUNCTIONS))
def test_wrapped_function_resolves(layer):
    module, attr = FUNCTIONS[layer]
    assert callable(getattr(importlib.import_module(module), attr))


@pytest.mark.parametrize("layer", sorted(METHODS))
def test_wrapped_method_is_defined_on_its_class(layer):
    module, cls_name, attr = METHODS[layer]
    cls = getattr(importlib.import_module(module), cls_name)
    assert attr in cls.__dict__  # what the harness replaces
    raw = cls.__dict__[attr]
    assert callable(getattr(raw, "__func__", raw))
