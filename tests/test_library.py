"""Library-wide checks, read from the source of ``src/noisytrain``.

Every public top-level function and class of the library has a user.

A name counts as used when another library module imports it or reads it
as ``module.name``, when its own module uses it outside its definition,
when ``noisytrain.__all__`` exports it, or when the benchmark (read as
text under ``bench/``, not imported) names it: the tracer and the bench
child hook some functions by name.

Every random substream tag is a named module-level constant (``_S_*`` or
``_STREAM_*``), and no two tags in the library share a value, so no two
generators derived from the same seed coincide.

Evaluation (``metrics``) imports nothing from ``training`` and uses no
augmentation: it reads predictions, it does not make training inputs.
Selection (``selection``) imports nothing from ``model`` or ``training``:
it reads predictions and runs no network.  Predictions and targets are
plain arrays, so ``selection``, ``metrics`` and ``experiment`` import
nothing from ``kernel``: only the modules that run a network or record
on the tape know its types.

The checked ``Matrix(...)`` constructor, a copy and a finiteness scan,
is called only where ``data.make_gaussian_blobs`` draws a dataset: a
caller's ``separation`` can overflow its scaled means.  Every other array
the library makes, or has already scanned, is wrapped (``kernel.wrap``).

A network carries only what a checkpoint and a resume need: its arch,
seed, parameters and SGD velocity row, and no cached state.

Importing the package before numpy sets the BLAS thread variables to 1
before any module loads numpy; importing it after numpy leaves the
environment exactly as it was, so a caller's later child processes (a
benchmark's host-speed probe) keep their thread count.
"""

import ast
import dataclasses
import json
import os
import re
import subprocess
import sys

import noisytrain
from noisytrain.model import NetworkParams

SRC = os.path.dirname(noisytrain.__file__)
BENCH = os.path.join(os.path.dirname(os.path.dirname(SRC)), "bench")


def _names(node, modules: set) -> set:
    """Names a node uses: bare names, ``module.name`` for a library module, imports."""
    used = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            used.add(sub.id)
        elif (isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name)
                and sub.value.id in modules):
            used.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            used.update(alias.name for alias in sub.names)
    return used


def _bench_text() -> str:
    parts = []
    for root, _, files in os.walk(BENCH):
        for fname in sorted(files):
            if fname.endswith((".py", ".json")):
                with open(os.path.join(root, fname)) as f:
                    parts.append(f.read())
    return "\n".join(parts)


def _trees() -> dict:
    trees = {}
    for fname in sorted(os.listdir(SRC)):
        if fname.endswith(".py"):
            with open(os.path.join(SRC, fname)) as f:
                trees[fname] = ast.parse(f.read())
    return trees


def test_every_public_name_has_a_user():
    trees = _trees()
    bench = _bench_text()
    modules = {fname[:-3] for fname in trees}
    unused = []
    for fname, tree in trees.items():
        elsewhere = set().union(*(_names(t, modules)
                                  for other, t in trees.items() if other != fname))
        for top in tree.body:
            if not isinstance(top, (ast.FunctionDef, ast.ClassDef)) or top.name.startswith("_"):
                continue
            own = set().union(*(_names(t, modules) for t in tree.body if t is not top))
            if not (top.name in elsewhere or top.name in own or top.name in noisytrain.__all__
                    or re.search(rf"\b{top.name}\b", bench)):
                unused.append(f"{fname[:-3]}.{top.name}")
    assert not unused, f"public names nothing uses: {unused}"


def test_substream_tags_are_named_and_distinct():
    tags, bare = {}, []
    for fname, tree in _trees().items():
        for top in tree.body:
            if (isinstance(top, ast.Assign) and isinstance(top.value, ast.Constant)
                    and type(top.value.value) is int):
                for target in top.targets:
                    if isinstance(target, ast.Name) and re.fullmatch(r"_(S|STREAM)_\w+", target.id):
                        tags.setdefault(top.value.value, []).append(f"{fname[:-3]}.{target.id}")
        for call in ast.walk(tree):
            if (isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)
                    and call.func.attr == "default_rng" and call.args
                    and isinstance(call.args[0], ast.List)):
                bare += [f"{fname[:-3]}:{e.lineno}" for e in call.args[0].elts
                         if isinstance(e, ast.Constant)]
    assert len(tags) >= 10, tags   # data 5, training 4, model 1
    assert not {v: names for v, names in tags.items() if len(names) > 1}
    assert not bare, f"default_rng seeded with an unnamed tag at {bare}"


def test_metrics_does_not_reach_into_training():
    with open(os.path.join(SRC, "metrics.py")) as f:
        tree = ast.parse(f.read())
    imported = [node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    assert "training" not in imported, "metrics imports from training"
    augmentation = {"AugmentationSpec", "weak_augment", "strong_augment"}
    assert not augmentation & _names(tree, set()), "metrics uses augmentation"


def test_selection_reads_predictions_and_runs_no_network():
    with open(os.path.join(SRC, "selection.py")) as f:
        tree = ast.parse(f.read())
    imported = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert not imported & {"model", "training"}, "selection imports from model or training"


def test_readers_of_predictions_import_nothing_from_kernel():
    trees = _trees()
    for fname in ("selection.py", "metrics.py", "experiment.py"):
        imports = [node for node in ast.walk(trees[fname])
                   if isinstance(node, (ast.Import, ast.ImportFrom))]
        modules = [(getattr(node, "module", None) or "").split(".")[-1] for node in imports]
        names = [alias.name.split(".")[-1] for node in imports for alias in node.names]
        assert "kernel" not in modules + names, f"{fname} imports from kernel"


def test_network_holds_only_checkpoint_and_resume_state():
    assert [f.name for f in dataclasses.fields(NetworkParams)] == \
        ["arch", "seed", "params", "velocity"]


def test_checked_matrices_are_built_only_from_generated_data():
    sites = []
    for fname, tree in _trees().items():
        for top in tree.body:
            for call in ast.walk(top):
                if isinstance(call, ast.Call) and (
                        isinstance(call.func, ast.Name) and call.func.id == "Matrix"
                        or isinstance(call.func, ast.Attribute) and call.func.attr == "Matrix"):
                    sites.append(f"{fname[:-3]}.{getattr(top, 'name', call.lineno)}")
    assert sites == ["data.make_gaussian_blobs"], sites


def _fresh_interpreter(code: str, **blas_vars) -> list:
    """Run ``code`` in a new Python with only ``blas_vars`` of the BLAS
    thread variables set; it prints JSON of what it saw."""
    env = {k: v for k, v in os.environ.items() if k not in noisytrain._BLAS_THREAD_VARS}
    env.update(blas_vars, PYTHONPATH=os.path.dirname(SRC))
    proc = subprocess.run([sys.executable, "-c", code, json.dumps(noisytrain._BLAS_THREAD_VARS)],
                          env=env, capture_output=True, text=True, timeout=60, check=True)
    return json.loads(proc.stdout)


def test_import_pins_one_blas_thread_before_numpy_loads():
    at_numpy, after = _fresh_interpreter("""
import json, os, sys
names = json.loads(sys.argv[1])
seen = []
class FirstNumpyImport:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and not seen:
            seen.append({k: os.environ.get(k) for k in names})
sys.meta_path.insert(0, FirstNumpyImport())
import noisytrain
print(json.dumps([seen, {k: os.environ.get(k) for k in names}]))
""", OPENBLAS_NUM_THREADS="2")   # a caller's thread count gives way too
    one = dict.fromkeys(noisytrain._BLAS_THREAD_VARS, "1")
    assert at_numpy == [one]   # numpy loaded after the pin, not before
    assert after == one


def test_import_after_numpy_leaves_the_environment_alone():
    before, after = _fresh_interpreter("""
import json, os
before = dict(os.environ)
import numpy
import noisytrain
print(json.dumps([before, dict(os.environ)]))
""")
    assert after == before
