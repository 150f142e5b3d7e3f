"""Tests for the context-sensitive interprocedural CFG."""

import pytest

from repro.analysis import analyze
from repro.ir import lower
from repro.ir.nodes import CallStmt, EntryStmt, ExitStmt
from repro.js import parse
from repro.pdg import build_icfg, cyclic_statements


def icfg_of(source, k=1, event_loop=False):
    program = lower(parse(source), event_loop=event_loop)
    result = analyze(program, k=k)
    return program, result, build_icfg(result)


def find(program, stmt_type, predicate=lambda s: True):
    for sid in sorted(program.stmts):
        stmt = program.stmts[sid]
        if isinstance(stmt, stmt_type) and predicate(stmt):
            return stmt
    raise AssertionError(f"no {stmt_type.__name__}")


class TestStructure:
    def test_nodes_cover_reachable_statements(self):
        program, result, icfg = icfg_of("var x = 1; var y = x;")
        sids = {sid for (sid, _ctx) in icfg.nodes}
        assert program.main.entry.sid in sids
        assert program.main.exit.sid in sids

    def test_call_detours_through_callee(self):
        program, result, icfg = icfg_of(
            "function f() { return 1; } var x = f();"
        )
        call = find(program, CallStmt)
        entry = program.functions[1].entry
        call_nodes = [n for n in icfg.nodes if n[0] == call.sid]
        assert call_nodes
        for node in call_nodes:
            succs = icfg.successors(node)
            assert any(s[0] == entry.sid for s in succs)
            # Known single closure callee: no direct fallthrough.
            assert all(
                program.owner[s[0]] != 0 or s[0] == entry.sid for s in succs
            )

    def test_return_edges_to_call_successors(self):
        program, result, icfg = icfg_of(
            "function f() { return 1; } var x = f(); var y = x;"
        )
        exit_stmt = program.functions[1].exit
        exit_nodes = [n for n in icfg.nodes if n[0] == exit_stmt.sid]
        assert exit_nodes
        assert any(icfg.successors(n) for n in exit_nodes)

    def test_native_call_keeps_direct_edge(self):
        program, result, icfg = icfg_of("var r = Math.random(); var y = r;")
        call = find(
            program, CallStmt, lambda s: True
        )
        call_nodes = [n for n in icfg.nodes if n[0] == call.sid]
        for node in call_nodes:
            assert icfg.successors(node)


class TestCycles:
    def test_loop_is_cyclic(self):
        program, result, icfg = icfg_of("while (Math.random()) { f(); }")
        cyclic = cyclic_statements(icfg)
        assert cyclic

    def test_straight_line_acyclic(self):
        program, result, icfg = icfg_of("var x = 1; var y = x;")
        assert not cyclic_statements(icfg)

    def test_recursion_is_cyclic(self):
        program, result, icfg = icfg_of(
            "function f(n) { if (n > 0) f(n - 1); } f(3);"
        )
        cyclic = cyclic_statements(icfg)
        body_sids = {s.sid for s in program.functions[1].statements}
        assert cyclic & body_sids

    def test_event_handlers_are_cyclic(self):
        # The event loop's self-edge puts handler bodies on a cycle: the
        # source of the paper's handler amplification.
        source = """
        window.addEventListener("load", function (e) { var x = 1; }, false);
        """
        program = lower(parse(source), event_loop=True)
        from repro.browser import BrowserEnvironment

        result = analyze(program, BrowserEnvironment())
        icfg = build_icfg(result)
        cyclic = cyclic_statements(icfg)
        handler_fid = max(program.functions)
        handler_sids = {s.sid for s in program.functions[handler_fid].statements}
        assert cyclic & handler_sids

    def test_two_sequential_calls_no_spurious_cycle(self):
        # With k=1, two different call sites get distinct contexts, so the
        # classic unrealizable-path cycle through the callee must not
        # appear (it would wrongly amplify the callee's control edges).
        program, result, icfg = icfg_of(
            "function f(a) { return a; } var x = f(1); var y = f(2);",
            k=1,
        )
        cyclic = cyclic_statements(icfg)
        callee_sids = {s.sid for s in program.functions[1].statements}
        assert not (cyclic & callee_sids)

    def test_context_insensitive_has_spurious_cycle(self):
        # Documenting the flip side: with k=0 the unrealizable path is
        # real in the abstraction (both call sites share one context).
        program, result, icfg = icfg_of(
            "function f(a) { return a; } var x = f(1); var y = f(2);",
            k=0,
        )
        cyclic = cyclic_statements(icfg)
        callee_sids = {s.sid for s in program.functions[1].statements}
        assert cyclic & callee_sids
