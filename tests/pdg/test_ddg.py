"""Unit tests for DDG construction and annotations."""

import pytest

from repro.analysis import ReadWriteSets, analyze
from repro.ir import lower
from repro.js import parse
from repro.pdg import ICFG, Annotation, build_icfg, build_pdg
from repro.pdg.ddg import build_ddg


def ddg_of(source, k=1):
    program = lower(parse(source), event_loop=False)
    result = analyze(program, k=k)
    icfg = build_icfg(result)
    ddg = build_ddg(result, icfg, ReadWriteSets(result))
    return program, ddg


def line_edge(program, ddg, source_line, target_line):
    annotations = set()
    for (source, target), annotation in ddg.edges.items():
        if (
            program.stmts[source].line == source_line
            and program.stmts[target].line == target_line
        ):
            annotations.add(annotation)
    return annotations


class TestBasicDataDependence:
    def test_def_use_chain_strong(self):
        program, ddg = ddg_of("var x = 1;\nvar y = x;")
        assert line_edge(program, ddg, 1, 2) == {Annotation.DATA_STRONG}

    def test_no_edge_without_flow(self):
        program, ddg = ddg_of("var x = 1;\nvar y = 2;")
        assert not line_edge(program, ddg, 1, 2)

    def test_killed_definition_has_no_edge(self):
        program, ddg = ddg_of("var x = 1;\nx = 2;\nvar y = x;")
        assert not line_edge(program, ddg, 1, 3)
        assert line_edge(program, ddg, 2, 3) == {Annotation.DATA_STRONG}

    def test_conditional_overwrite_demotes_to_weak(self):
        program, ddg = ddg_of(
            "var x = 1;\nif (Math.random()) x = 2;\nvar y = x;"
        )
        assert line_edge(program, ddg, 1, 3) == {Annotation.DATA_WEAK}
        assert line_edge(program, ddg, 2, 3) == {Annotation.DATA_STRONG}

    def test_property_flow_strong_on_singleton_exact(self):
        program, ddg = ddg_of("var o = {};\no.p = 'v';\nvar x = o.p;")
        assert Annotation.DATA_STRONG in line_edge(program, ddg, 2, 3)

    def test_property_flow_weak_on_unknown_name(self):
        program, ddg = ddg_of(
            "var o = {};\no.p = 'v';\nvar x = o[unknownKey()];"
        )
        assert Annotation.DATA_WEAK in line_edge(program, ddg, 2, 3)

    def test_property_flow_weak_on_summarized_object(self):
        program, ddg = ddg_of(
            "var o;\nwhile (Math.random()) o = {};\no.p = 'v';\nvar x = o.p;"
        )
        edge = line_edge(program, ddg, 3, 4)
        assert edge and Annotation.DATA_STRONG not in edge


class TestInterproceduralDataDependence:
    def test_argument_to_parameter_use(self):
        program, ddg = ddg_of(
            "function f(a) { send(a); }\nvar secret = taint();\nf(secret);"
        )
        # secret def (line 2) -> call (line 3) -> param use in f (line 1).
        assert line_edge(program, ddg, 2, 3)
        assert line_edge(program, ddg, 3, 1)

    def test_return_value_flow(self):
        program, ddg = ddg_of(
            "function get() { return 'v'; }\nvar x = get();"
        )
        # return (line 1) writes %ret which the call (line 2) reads.
        assert line_edge(program, ddg, 1, 2)

    def test_global_side_effect_through_call(self):
        program, ddg = ddg_of(
            "var g;\nfunction set() { g = 'v'; }\nset();\nvar x = g;"
        )
        assert line_edge(program, ddg, 2, 4)

    def test_heap_side_effect_through_call(self):
        program, ddg = ddg_of(
            "var box = {};\nfunction fill(b) { b.v = 's'; }\nfill(box);\nvar x = box.v;"
        )
        assert line_edge(program, ddg, 2, 4)


class TestThrowCatchDataDependence:
    def test_thrown_value_to_catch(self):
        program, ddg = ddg_of(
            "try {\nthrow 'payload';\n} catch (e) { use(e); }"
        )
        assert line_edge(program, ddg, 2, 3)

    def test_unrelated_trys_not_connected(self):
        program, ddg = ddg_of(
            "try { throw 'a'; } catch (e) {}\ntry { f(); } catch (e2) { use(e2); }"
        )
        assert not line_edge(program, ddg, 1, 2)


class TestLoopCarriedDependence:
    def test_loop_carried_update(self):
        program, ddg = ddg_of(
            "var s = '';\nwhile (Math.random()) {\ns = s + 'x';\n}\nsend(s);"
        )
        # The loop body reads its own previous iteration's write.
        assert line_edge(program, ddg, 3, 3)
        assert line_edge(program, ddg, 3, 5)

    def test_init_demoted_by_loop_write(self):
        program, ddg = ddg_of(
            "var s = 'init';\nwhile (Math.random()) {\ns = s + 'x';\n}\nsend(s);"
        )
        assert line_edge(program, ddg, 1, 5) == {Annotation.DATA_WEAK}


def test_edges_do_not_depend_on_icfg_node_order():
    # Facts are kept only at chain heads; the projection rebuilds a
    # chain member's facts from its predecessor's when the predecessor
    # comes first in node order, and from the chain head otherwise.
    # Reversed, the order puts every member before its predecessor.
    program = lower(parse(
        "var s = 'a';\nwhile (Math.random()) {\n"
        "if (s) { s = s + 'x'; } else { s = 'y'; }\n}\nvar t = s;\nsend(t);"
    ), event_loop=False)
    result = analyze(program)
    icfg = build_icfg(result)
    forward = build_ddg(result, icfg, ReadWriteSets(result)).edges
    icfg.nodes.reverse()
    assert build_ddg(result, icfg, ReadWriteSets(result)).edges == forward
    assert Annotation.DATA_STRONG in forward.values()
    assert Annotation.DATA_WEAK in forward.values()


def test_a_cycle_of_chain_links_gets_a_head():
    # Every node of this two-node cycle continues the other's chain, so
    # no node starts a chain until the DDG cuts the cycle.
    program = lower(parse("var x = 1;\nvar y = x;"), event_loop=False)
    result = analyze(program)
    write_x, read_x = (
        node for node in result.states
        if program.stmts[node[0]].line in (1, 2)
        and type(program.stmts[node[0]]).__name__ == "AssignStmt"
    )
    icfg = ICFG(nodes=[write_x, read_x], succs={write_x: [read_x], read_x: [write_x]})
    ddg = build_ddg(result, icfg, ReadWriteSets(result))
    assert ddg.edges == {(write_x[0], read_x[0]): Annotation.DATA_STRONG}
