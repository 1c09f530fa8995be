"""The benchmark under bench/ hooks functions of this package by name.

bench/ is frozen (its metrics must stay comparable across changes) and
its own tests run outside this suite, so these checks keep a refactor
here from silently unhooking a span, a counter or the set-up timer.
bench/tracer.py is parsed, not imported.
"""

import ast
import importlib
import inspect
import os

import pytest

TRACER = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "bench", "tracer.py")


def _spans() -> dict:
    with open(TRACER) as f:
        tree = ast.parse(f.read())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "SPANS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("bench/tracer.py no longer defines SPANS")


def _function(module: str, name: str):
    return getattr(importlib.import_module(f"noisytrain.{module}"), name)


@pytest.mark.parametrize("module,name", sorted(_spans()))
def test_traced_function_exists(module, name):
    assert callable(_function(module, name))


# functions bench/child.py and bench/tracer.py wrap outside SPANS
@pytest.mark.parametrize("module,name", [
    ("model", "forward_logits"), ("model", "forward_softmax"),
    ("kernel", "matmul"), ("experiment", "warmup_train"),
])
def test_hooked_function_exists(module, name):
    assert callable(_function(module, name))


def test_matrix_init_is_hookable():
    from noisytrain.kernel import Matrix
    assert "__init__" in vars(Matrix)


# (module, function, position, name) of every argument the tracer reads
@pytest.mark.parametrize("module,name,pos,arg", [
    ("kernel", "backward", 0, "tape"), ("kernel", "matmul", 0, "a"),
    ("kernel", "matmul", 1, "b"), ("model", "forward_softmax", 1, "x"),
    ("model", "forward_logits", 2, "tape"),
    ("selection", "export_selection_csv", 3, "path"),
    ("runner", "write_metrics_csv", 1, "path"), ("runner", "_write_json", 1, "path"),
])
def test_traced_argument_positions(module, name, pos, arg):
    assert list(inspect.signature(_function(module, name)).parameters)[pos] == arg


def test_setup_timer_hook_is_reached():
    # child.py replaces experiment.warmup_train; run() must look it up at call time
    from noisytrain import experiment
    assert "warmup_train" in experiment.run.__code__.co_names


def test_counted_attributes_exist():
    from noisytrain.kernel import GradientTape
    from noisytrain.training import HalfEpochRecord
    assert isinstance(GradientTape().num_records, int)
    assert "degenerate" in HalfEpochRecord.__dataclass_fields__
