"""Every public top-level function and class of the library has a user.

A name counts as used when another library module imports it or reads it
as ``module.name``, when its own module uses it outside its definition,
when ``noisytrain.__all__`` exports it, or when the benchmark (read as
text under ``bench/``, not imported) names it: the tracer and the bench
child hook some functions by name.
"""

import ast
import os
import re

import noisytrain

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


def test_every_public_name_has_a_user():
    trees = {}
    for fname in sorted(os.listdir(SRC)):
        if fname.endswith(".py"):
            with open(os.path.join(SRC, fname)) as f:
                trees[fname] = ast.parse(f.read())
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
