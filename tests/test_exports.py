"""The package's public names: every exported name resolves, the retired
one-profile API stays gone, and the names bench/tracer.py wraps exist."""

import importlib
import pkgutil

import pytest

import granulex

MODULES = sorted(m.name for m in pkgutil.iter_modules(granulex.__path__))

# The K x M profile class and the one-profile combiner views that the
# (n, K, M) batch kernels replaced.
RETIRED = {
    "MetaProfile",
    "column_sample",
    "ClassMembershipVector",
    "_decide",
    "fixed_rule_classify",
    "dt_classify",
    "granular_classify",
    "ncm",
}

# Module attributes the bench tracer replaces by name.
TRACED = [
    ("training", "fit"),
    ("evaluation", "fit"),
    ("training", "granular_intervals"),
    ("combiners", "granular_intervals"),
    ("combiners", "construct_granule"),
]


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"granulex.{name}")
    exported = getattr(module, "__all__", [])
    assert [n for n in exported if not hasattr(module, n)] == []
    assert RETIRED.isdisjoint(exported)
    assert RETIRED.isdisjoint(vars(module))


def test_package_names_resolve():
    public = [n for n in dir(granulex) if not n.startswith("_")]
    assert all(getattr(granulex, n) is not None for n in public)
    assert RETIRED.isdisjoint(public)


@pytest.mark.parametrize("module, attr", TRACED)
def test_traced_attributes_exist(module, attr):
    assert callable(getattr(importlib.import_module(f"granulex.{module}"), attr))
