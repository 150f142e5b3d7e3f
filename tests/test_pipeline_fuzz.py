"""Pipeline fuzzing: random programs through every phase.

These are the "does the compiler fall over" properties:

- printer round-trip: printing a random AST and re-parsing yields a
  structurally identical AST;
- total pipeline: parse -> lower -> analyze -> PDG -> signature runs to
  completion on arbitrary generated programs (soundness of the harness
  itself — no crashes, no missing transfer functions, CFGs well formed);
- basic well-formedness invariants of the IR and PDG hold for arbitrary
  inputs.
"""

import pytest
from hypothesis import HealthCheck, given, settings

from repro.analysis import analyze
from repro.faults import Budget
from repro.ir import lower
from repro.ir.nodes import EdgeKind, ExitStmt
from repro.js import parse
from repro.js.printer import print_program
from repro.pdg import build_pdg
from repro.signatures import infer_signature
from repro.browser import mozilla_spec

from tests.js.strategies import programs
from tests.js.test_printer import strip_positions

_SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


class TestPrinterFuzz:
    @_SETTINGS
    @given(programs())
    def test_printer_roundtrip_on_random_asts(self, program):
        # Raw generated ASTs may be normalized once by printing (e.g. a
        # dangling-else consequent gains braces), so the property is that
        # one print/parse trip reaches a fixpoint: printing the reparsed
        # tree and parsing again is the identity.
        printed = print_program(program)
        normalized = parse(printed)
        reprinted = print_program(normalized)
        again = parse(reprinted)
        assert strip_positions(again) == strip_positions(normalized), printed


class TestPipelineFuzz:
    @_SETTINGS
    @given(programs())
    def test_lowering_produces_wellformed_ir(self, program):
        printed = print_program(program)
        ir = lower(parse(printed), event_loop=False)
        for function in ir.functions.values():
            assert function.statements, function.name
            assert isinstance(function.exit, ExitStmt)
            for stmt in function.statements:
                for edge in stmt.edges:
                    target = ir.stmts[edge.target]
                    # Intraprocedural edges stay within the function.
                    assert ir.owner[target.sid] == function.fid

    @_SETTINGS
    @given(programs(max_statements=4))
    def test_full_pipeline_never_crashes(self, program):
        printed = print_program(program)
        ir = lower(parse(printed), event_loop=False)
        result = analyze(ir, budget=Budget(max_steps=120_000))
        pdg = build_pdg(result)
        detail = infer_signature(result, pdg, mozilla_spec())
        assert detail.signature is not None

    @_SETTINGS
    @given(programs(max_statements=4))
    def test_pdg_edges_reference_known_statements(self, program):
        printed = print_program(program)
        ir = lower(parse(printed), event_loop=False)
        result = analyze(ir, budget=Budget(max_steps=120_000))
        pdg = build_pdg(result)
        for (source, target) in pdg.edges:
            assert source in ir.stmts and target in ir.stmts
