"""Every top-level function and class of ``src/ringlab`` is used by other
``src/`` code, or is listed here with the reason it stays.

A change that leaves a helper with no caller in ``src/`` fails this test
until it deletes the helper or lists it below.
"""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "ringlab"

#: (module, name) -> why it stays although no other src/ code refers to it
UNREFERENCED = {
    ("extractor", "branch_log"): "the scalar form of the branch selection, which the tests call",
    ("merotoy", "amplitude_pairing"): "the rank-one set, kept for ROADMAP items 11 and 29",
    ("merotoy", "cauchy_residue"): "the rank-one set, kept for ROADMAP items 11 and 29",
    ("merotoy", "rank_one_residue"): "the rank-one set, kept for ROADMAP items 11 and 29",
    ("paramap", "invert_data"): "ringbench's TARGETS trace it",
    ("signal_model", "sample_scene"): "ringbench's TARGETS trace it",
}


def unreferenced() -> set:
    """(module, name) of each top-level def or class that no src/ code names
    outside its own body, as a Name, an attribute or an import."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    defs = {(module, node.name): node for module, tree in trees.items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}
    named = set()

    def visit(node, inside):
        if isinstance(node, ast.Name) and node.id != inside:
            named.add(node.id)
        elif isinstance(node, ast.Attribute) and node.attr != inside:
            named.add(node.attr)
        elif isinstance(node, ast.alias):
            named.add(node.name)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    for tree in trees.values():
        for top in tree.body:  # a def's or class's own body does not count
            visit(top, getattr(top, "name", None))
    return {key for key in defs if key[1] not in named}


def test_unreferenced_definitions_are_listed():
    assert unreferenced() == set(UNREFERENCED)
