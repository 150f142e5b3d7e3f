"""AST traversal: ``Node.walk`` visits in pre-order, at any depth."""

from dataclasses import fields
from pathlib import Path

import pytest

from repro.addons import CORPUS
from repro.js import ast, node_count, parse, parse_with_recovery

REPO = Path(__file__).resolve().parents[2]


def _recursive_preorder(node):
    """The reference walk: plain recursion over every child field."""
    yield node
    for f in fields(node):
        if f.name == "position":
            continue
        value = getattr(node, f.name)
        for item in value if isinstance(value, (list, tuple)) else (value,):
            if isinstance(item, ast.Node):
                yield from _recursive_preorder(item)


def _programs() -> dict[str, ast.Program]:
    programs = {f"corpus/{spec.name}": parse(spec.source()) for spec in CORPUS}
    for path in sorted((REPO / "examples").rglob("*.js")):
        program, _ = parse_with_recovery(path.read_text(encoding="utf-8"))
        programs[f"examples/{path.relative_to(REPO / 'examples').as_posix()}"] = program
    return programs


PROGRAMS = _programs()


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_walk_matches_recursive_preorder(name):
    program = PROGRAMS[name]
    walked = list(program.walk())
    reference = list(_recursive_preorder(program))
    assert len(walked) == len(reference) == node_count(program)
    assert all(a is b for a, b in zip(walked, reference))


def test_node_count_on_a_deeply_nested_array():
    # Deeper than Python's default recursion limit allows a recursive
    # walk to go; the parser copes, so the walk must too.
    depth = 5000
    program = parse("var a = " + "[" * depth + "1" + "]" * depth + ";")
    # Program, declaration, declarator, identifier, the arrays, the 1.
    assert node_count(program) == depth + 4
