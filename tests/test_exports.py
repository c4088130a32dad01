"""The package's public names: every exported name resolves, the retired
one-profile API and per-kind tables stay gone, and the names bench/tracer.py
wraps exist.  The tests' oracles import nothing of the package."""

import ast
import importlib
import pkgutil
import sys
from pathlib import Path

import pytest

import granulex

MODULES = sorted(m.name for m in pkgutil.iter_modules(granulex.__path__))

# The K x M profile class and the one-profile combiner views that the
# (n, K, M) batch kernels replaced, the per-kind declarations that the
# one `learners._KINDS` table replaced, the model-record key lists that
# `FittedClassifier.from_state` replaced, the dtype-tagged array writer and
# reader of model format 2, and the batched fold fitters that
# became the logistic and tree kinds' one fitter; and the one-alpha pick,
# membership and alpha-curve wrappers over the granular combiner's
# bounds, de-granulation and error-curve entries; and the JSON object and
# number checks that metadata's `_check_object`, `_is_int` and `_is_number`
# replaced; and the per-rest class check that fit_folds' one pass over all
# rests replaced; and knn's shared predictor and the state wrapper that
# each kind's one predictor over models and the model's own `present` and
# `n_features` replaced; and the Python-loop median and score that
# restated what prepare_samples computes, now in tests/oracles.py, with the
# sample check of construct_granule, which the batch kernel's replaced.
RETIRED = {
    "_FITTERS",
    "_PREDICTORS",
    "KINDS",
    "_predict_fisher",
    "_predict_perceptron",
    "MetaProfile",
    "column_sample",
    "ClassMembershipVector",
    "_decide",
    "STATE_KEYS",
    "_jsonable",
    "_decode_array",
    "_CLASSIFIER_KEYS",
    "fixed_rule_classify",
    "dt_classify",
    "granular_classify",
    "ncm",
    "_fit_logistic_folds",
    "_fit_tree_folds",
    "pick_bounds",
    "granular_ncm_batch",
    "granular_ncm_sweep",
    "alpha_error_curves",
    "_alpha_errors",
    "_check_tree",
    "_tree_row",
    "_TREE",
    "_require_keys",
    "_finite_real",
    "_is_str",
    "_is_names",
    "_check_ensemble",
    "_present",
    "_predict_knn_shared",
    "_fitted",
    "median_of",
    "evidence_score",
    "_check_sample",
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


def test_oracles_import_only_numpy_and_the_standard_library():
    """An oracle that calls the package would agree with it by construction."""
    tree = ast.parse(Path(__file__).with_name("oracles.py").read_text())
    imported = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names]
    imported += [node.module or "." for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom)]
    allowed = sys.stdlib_module_names | {"numpy"}
    assert imported and [m for m in imported if m.split(".")[0] not in allowed] == []
