"""Every top-level function, class and method in `src/dgkunneth` has a caller
there or is exported in `dgkunneth.__all__`.

A caller is a use of the name (a bare name or an attribute) outside the
definition's own body, found with `ast`; dunder methods are called by the
language and are left out.  A definition that only code outside `src/`
calls is on `OUTSIDE_CALLERS`, with that caller: a file, whose text must
still name the definition.  The list may only shrink: when its caller
goes, the definition goes too.
"""
import ast
import pathlib
import re
import time
from collections import Counter

import dgkunneth

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "dgkunneth"

OUTSIDE_CALLERS = {
    "suite.plain_kunneth_checks": "perfbench/workloads.py verify_pass",
    "suite.derived_kunneth_checks": "perfbench/workloads.py verify_pass",
    "suite.functoriality_pair_checks": "perfbench/workloads.py verify_pass",
    "linalg.left_inverse": "perfbench/tracer.py LAYERS",
    "resolve.cohomology_dim": "perfbench/workloads.py",
    "resolve.SemiFreeResolution.generator_count": "perfbench/tracer.py",
    "genlab.simple_module_dual_numbers": "scripts/export_examples.py",
    "serialize.module_file_to_json": "scripts/export_examples.py",
}


def _used_names(node) -> Counter:
    return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def _definitions(module: str, tree):
    """(qualified name, node) of each top-level definition and method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield f"{module}.{node.name}", node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                    yield f"{module}.{node.name}.{item.name}", item


def uncalled():
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    used = sum((_used_names(tree) for tree in trees.values()), Counter())
    exported = set(dgkunneth.__all__)
    out = set()
    for module, tree in trees.items():
        for qualname, node in _definitions(module, tree):
            if node.name in exported or used[node.name] > _used_names(node)[node.name]:
                continue
            out.add(qualname)
    return out


def test_every_definition_has_a_caller_in_src_or_is_exported():
    t0 = time.perf_counter()
    found = uncalled()
    assert time.perf_counter() - t0 < 1
    assert found - set(OUTSIDE_CALLERS) == set(), "no caller in src/ and not exported"
    # a definition that gained a caller in src/ leaves the list
    assert set(OUTSIDE_CALLERS) - found == set()
    # the pair commands read a report's shrunk_instance through it
    assert "serialize.instance_from_json" not in OUTSIDE_CALLERS


def test_every_outside_caller_still_names_its_definition():
    # the first word of each entry is the calling file: once it stops using
    # the name, the definition has no caller left and must go
    gone = [qualname for qualname, caller in OUTSIDE_CALLERS.items()
            if not re.search(rf"\b{qualname.rsplit('.', 1)[1]}\b",
                             (ROOT / caller.split()[0]).read_text())]
    assert gone == [], "the outside caller no longer names these definitions"
