"""The context-sensitive interprocedural CFG.

Nodes are ``(statement id, context)`` pairs that the base analysis found
reachable; edges are

- the intraprocedural FULL-view edges (implicit-exception edges filtered
  by the analysis's ``throwing`` set), within one context,
- call edges: call statement -> callee entry under the pushed context,
- return edges: callee exit -> the call statement's SEQ successors under
  the caller context.

Calls with known callees do *not* fall through directly — flow must pass
through the callee — except when the call may also dispatch to a native
or stay unresolved, in which case the direct successor edge is kept.

This graph is what the paper calls "a context-sensitive interprocedural
control flow graph (CFG), with one node per statement per context". The
DDG's reaching-definitions run over it, and its cycles (loops, recursion,
and the event loop) define the ``amp`` annotation of Section 3.1.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.contexts import Context
from repro.analysis.interpreter import AnalysisResult
from repro.ir.cfg import Mode, statement_successors
from repro.ir.nodes import CallStmt, ConstructStmt, EdgeKind, EventLoopStmt

Node = tuple[int, Context]


@dataclass
class ICFG:
    """Materialized interprocedural CFG."""

    nodes: list[Node]
    #: Adjacency in insertion order (downstream determinism), with no
    #: duplicate edges. Every node in it is the very tuple in ``nodes``.
    succs: dict[Node, list[Node]] = field(default_factory=dict)

    def successors(self, node: Node) -> list[Node]:
        return self.succs.get(node, [])


def build_icfg(result: AnalysisResult) -> ICFG:
    """Assemble the ICFG from the base analysis result."""
    program = result.program
    nodes = list(result.states.keys())
    # Each node's own tuple, so the adjacency lists share them.
    node_of = {node: node for node in nodes}
    icfg = ICFG(nodes=nodes)
    # Edge membership, for O(1) duplicate suppression; needed only while
    # the graph is built.
    edges: set[tuple[Node, Node]] = set()

    def add_edge(source: Node, target: Node) -> None:
        edge = (source, target)
        if edge not in edges:
            edges.add(edge)
            icfg.succs.setdefault(source, []).append(target)

    for node in nodes:
        sid, context = node
        stmt = program.stmts[sid]

        is_call = isinstance(stmt, (CallStmt, ConstructStmt, EventLoopStmt))
        callees = result.call_edges.get(node, set()) if is_call else set()

        # A call with closure callees detours through them; it keeps its
        # direct successor edges only if it may also run natively (or was
        # unresolved), or is the event loop (handlers may not fire).
        keep_direct = (
            not is_call
            or not callees
            or isinstance(stmt, EventLoopStmt)
            or sid in result.unknown_callees
            or bool(result.callee_native_tags(sid))
        )
        if keep_direct:
            for target in statement_successors(stmt, Mode.FULL, result.throwing):
                target_node = node_of.get((target, context))
                if target_node is not None:
                    add_edge(node, target_node)
        else:
            # Even with a mandatory detour, implicit-exception edges fire
            # before the call (callee may not be a function).
            for edge in stmt.edges:
                if edge.kind is EdgeKind.IMPLICIT and sid in result.throwing:
                    target_node = node_of.get((edge.target, context))
                    if target_node is not None:
                        add_edge(node, target_node)

        for fid, callee_context in callees:
            entry_node = node_of.get(
                (program.functions[fid].entry.sid, callee_context)
            )
            if entry_node is not None:
                add_edge(node, entry_node)
            exit_node = node_of.get((program.functions[fid].exit.sid, callee_context))
            if exit_node is not None:
                # Returns resume at the call's normal (SEQ) successors.
                for edge in stmt.edges:
                    if edge.kind is EdgeKind.SEQ:
                        return_node = node_of.get((edge.target, context))
                        if return_node is not None:
                            add_edge(exit_node, return_node)
    return icfg


def cyclic_statements(icfg: ICFG) -> set[int]:
    """Statement ids contained in some ICFG cycle — loops, recursion, or
    the event loop. These are the sources whose control edges the CDG
    construction amplifies (stage 4 of Section 3.3)."""
    from repro.ir.cfg import nodes_in_cycles

    # nodes_in_cycles works over hashable node ids; map Node <-> int.
    index_of = {node: index for index, node in enumerate(icfg.nodes)}
    succs = {
        index_of[node]: [index_of[t] for t in targets if t in index_of]
        for node, targets in icfg.succs.items()
    }
    cyclic = nodes_in_cycles(list(index_of.values()), succs)
    return {icfg.nodes[index][0] for index in cyclic}
