"""Per-statement read/write sets (Section 3.2's analysis input).

For every reachable ``(statement, context)`` pair this module computes

- ``ReadVar`` / ``WriteVar``: variables (as ``(scope, name)`` keys) the
  statement may read/write, each qualified strong (definite) or weak;
- ``ReadProp`` / ``WriteProp``: ``(object address, abstract property
  name)`` pairs, where the name is an element of the prefix string domain
  and the strong qualification requires a singleton address *and* an
  exact name (the paper's "single concrete memory location" criterion).

Interprocedural flow is encoded through two synthetic variables per
function: a call statement *writes* the callee's parameters and *reads*
its ``%ret`` slot; ``return`` writes ``%ret``. ``throw`` writes and
``catch`` reads the per-function ``%exc`` slot. This gives the DDG its
parameter/return/exception data edges with no special cases.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from types import MappingProxyType

from repro.analysis import builtins
from repro.analysis.contexts import Context
from repro.analysis.interpreter import (
    RETURN_SLOT,
    AnalysisResult,
    channel_slot,
    exception_slot,
)
from repro.domains import prefix as prefix_domain
from repro.domains.prefix import Prefix
from repro.domains.state import State, VarKey
from repro.domains.values import AbstractValue
from repro.ir.nodes import (
    AllocStmt,
    EdgeKind,
    AssignStmt,
    Atom,
    AtomRhs,
    BinOpRhs,
    BranchStmt,
    CallStmt,
    CatchStmt,
    ClosureStmt,
    ConstructStmt,
    DeletePropStmt,
    EventLoopStmt,
    ForInNextStmt,
    LoadPropStmt,
    ReturnStmt,
    StorePropStmt,
    ThrowStmt,
    UnOpRhs,
    Var,
)


@dataclass(frozen=True, slots=True)
class PropAccess:
    """One (object, property) access with its strength."""

    address: int
    name: Prefix
    strong: bool


#: The shared empty containers an :class:`RWSet` starts with: most
#: nodes touch few locations, so a set gets its own dict or list only on
#: its first add of that kind.
_NO_VARS: Mapping[VarKey, bool] = MappingProxyType({})
_NO_PROPS: Sequence[PropAccess] = ()


class RWSet:
    """Read/write sets of one (statement, context)."""

    __slots__ = ("read_vars", "write_vars", "read_props", "write_props")

    def __init__(self) -> None:
        self.read_vars: Mapping[VarKey, bool] = _NO_VARS
        self.write_vars: Mapping[VarKey, bool] = _NO_VARS
        self.read_props: Sequence[PropAccess] = _NO_PROPS
        self.write_props: Sequence[PropAccess] = _NO_PROPS

    def add_read_var(self, key: VarKey, strong: bool) -> None:
        if self.read_vars is _NO_VARS:
            self.read_vars = {}
        self.read_vars[key] = self.read_vars.get(key, True) and strong

    def add_write_var(self, key: VarKey, strong: bool) -> None:
        if self.write_vars is _NO_VARS:
            self.write_vars = {}
        self.write_vars[key] = self.write_vars.get(key, True) and strong

    def add_read_prop(self, access: PropAccess) -> None:
        if self.read_props is _NO_PROPS:
            self.read_props = []
        self.read_props.append(access)

    def add_write_prop(self, access: PropAccess) -> None:
        if self.write_props is _NO_PROPS:
            self.write_props = []
        self.write_props.append(access)


class ReadWriteSets:
    """Computes and caches RWSets from the base analysis result."""

    def __init__(self, result: AnalysisResult):
        self.result = result
        self.program = result.program
        self.multi_instance = result.multi_instance
        #: A salvaged (budget-tripped) analysis abandoned fixpoint work,
        #: so its states may under-approximate: no access may claim a
        #: strong (definite, killing) qualification. All-weak sets keep
        #: every potential dependence edge alive — the over-approximate
        #: direction (DESIGN.md, "Failure modes and degradation
        #: semantics").
        self.degraded = result.degraded
        self._cache: dict[tuple[int, Context], RWSet] = {}

    # ------------------------------------------------------------------
    # Public interface

    def of(self, sid: int, context: Context) -> RWSet:
        key = (sid, context)
        cached = self._cache.get(key)
        if cached is None:
            cached = self.compute(sid, context)
            self._cache[key] = cached
        return cached

    # ------------------------------------------------------------------
    # Strength rules

    def _strong_var(self, var_scope: int, sid: int) -> bool:
        if self.degraded:
            return False
        if var_scope == -1:  # global
            return True
        return (
            var_scope == self.program.owner[sid]
            and var_scope not in self.multi_instance
        )

    def _prop_accesses(
        self, state: State, base: AbstractValue, name: Prefix
    ) -> list[PropAccess]:
        addresses = sorted(base.addresses)
        exact = name.concrete() is not None
        single = len(addresses) == 1
        accesses = []
        for address in addresses:
            strong = (
                not self.degraded
                and single and exact and state.heap.is_singleton(address)
            )
            accesses.append(PropAccess(address, name, strong))
        return accesses

    # ------------------------------------------------------------------
    # Computation

    def compute(self, sid: int, context: Context) -> RWSet:
        """The sets of one node, not cached: for a caller that reads each
        node once (the DDG), so a whole program's sets never coexist."""
        rw = RWSet()
        state = self.result.states.get((sid, context))
        if state is None:
            return rw
        stmt = self.program.stmts[sid]
        fid = self.program.owner[sid]

        def read_atom(atom: Atom | None) -> AbstractValue:
            if atom is None:
                return AbstractValue()
            if isinstance(atom, Var):
                rw.add_read_var(
                    (atom.scope, atom.name), self._strong_var(atom.scope, sid)
                )
            return self.result.atom_value(sid, context, atom)

        def write_var(var: Var) -> None:
            rw.add_write_var(
                (var.scope, var.name), self._strong_var(var.scope, sid)
            )

        def write_exception_slots(weak_only: bool = True) -> None:
            """Record the %exc writes of a (possibly) throwing statement,
            one per reachable handler. Uncaught exceptions write nothing
            (termination, out of scope)."""
            kinds = (EdgeKind.IMPLICIT,) if weak_only else (EdgeKind.JUMP,)
            for edge in stmt.edges:
                if edge.kind in kinds:
                    rw.add_write_var(
                        (fid, exception_slot(edge.target)),
                        False if weak_only else self._strong_var(fid, sid),
                    )

        if isinstance(stmt, AssignStmt):
            rhs = stmt.rhs
            if isinstance(rhs, AtomRhs):
                read_atom(rhs.atom)
            elif isinstance(rhs, BinOpRhs):
                read_atom(rhs.left)
                read_atom(rhs.right)
            elif isinstance(rhs, UnOpRhs):
                read_atom(rhs.operand)
            write_var(stmt.target)

        elif isinstance(stmt, LoadPropStmt):
            base = read_atom(stmt.obj)
            name = read_atom(stmt.prop).to_property_name()
            for access in self._prop_accesses(state, base, name):
                rw.add_read_prop(access)
            write_var(stmt.target)
            if sid in self.result.throwing:
                write_exception_slots()

        elif isinstance(stmt, StorePropStmt):
            base = read_atom(stmt.obj)
            name = read_atom(stmt.prop).to_property_name()
            read_atom(stmt.value)
            for access in self._prop_accesses(state, base, name):
                rw.add_write_prop(access)
            if sid in self.result.throwing:
                write_exception_slots()

        elif isinstance(stmt, DeletePropStmt):
            base = read_atom(stmt.obj)
            name = read_atom(stmt.prop).to_property_name()
            for access in self._prop_accesses(state, base, name):
                rw.add_write_prop(access)
            if sid in self.result.throwing:
                write_exception_slots()

        elif isinstance(stmt, (AllocStmt, ClosureStmt)):
            write_var(stmt.target)

        elif isinstance(stmt, (CallStmt, ConstructStmt)):
            self._compute_call(stmt, sid, context, state, rw, read_atom, write_var)

        elif isinstance(stmt, BranchStmt):
            read_atom(stmt.condition)

        elif isinstance(stmt, ReturnStmt):
            read_atom(stmt.value)
            rw.add_write_var(
                (fid, RETURN_SLOT), self._strong_var(fid, sid)
            )

        elif isinstance(stmt, ThrowStmt):
            read_atom(stmt.value)
            write_exception_slots(weak_only=False)

        elif isinstance(stmt, CatchStmt):
            rw.add_read_var(
                (fid, exception_slot(sid)), self._strong_var(fid, sid)
            )
            write_var(stmt.target)

        elif isinstance(stmt, ForInNextStmt):
            base = read_atom(stmt.obj)
            for address in sorted(base.addresses):
                rw.add_read_prop(PropAccess(address, prefix_domain.TOP, False))
            write_var(stmt.target)

        elif isinstance(stmt, EventLoopStmt):
            self._compute_event_loop(sid, state, rw)

        return rw

    def _compute_call(self, stmt, sid, context, state, rw, read_atom, write_var):
        callee = read_atom(stmt.callee)
        this_value = read_atom(stmt.this) if getattr(stmt, "this", None) is not None else AbstractValue()
        arg_values = [read_atom(arg) for arg in stmt.args]
        if stmt.target is not None:
            write_var(stmt.target)
        if sid in self.result.throwing:
            fid = self.program.owner[sid]
            for edge in stmt.edges:
                if edge.kind is EdgeKind.IMPLICIT:
                    rw.add_write_var((fid, exception_slot(edge.target)), False)

        # Closure callees: the call writes params/this and reads %ret.
        callee_fids = {
            fid
            for (node_sid, node_ctx), targets in self.result.call_edges.items()
            if node_sid == sid and node_ctx == context
            for fid, _ in targets
        }
        single_callee = len(callee_fids) == 1
        for callee_fid in sorted(callee_fids):
            strong = single_callee and callee_fid not in self.multi_instance
            function = self.program.functions[callee_fid]
            for param in function.params:
                rw.add_write_var((callee_fid, param), strong)
            rw.add_write_var((callee_fid, "this"), strong)
            rw.add_read_var((callee_fid, RETURN_SLOT), strong)

        # Native callees: apply declared heap effects.
        effects: set[str] = set()
        for tag in self.result.callee_native_tags(sid):
            effects |= builtins.NATIVE_EFFECTS.get(tag, frozenset())
        if sid in self.result.unknown_callees:
            effects |= builtins.UNKNOWN_CALL_EFFECTS
        if effects:
            self._apply_native_effects(
                effects, state, this_value, arg_values, rw
            )

    def _apply_native_effects(self, effects, state, this_value, arg_values, rw):
        def weak_accesses(value: AbstractValue) -> list[PropAccess]:
            return [
                PropAccess(address, prefix_domain.TOP, False)
                for address in sorted(value.addresses)
            ]

        if "read_this_props" in effects:
            for access in weak_accesses(this_value):
                rw.add_read_prop(access)
        if "write_this_props" in effects:
            for access in weak_accesses(this_value):
                rw.add_write_prop(access)
        if "read_arg_props" in effects or "write_arg_props" in effects:
            for arg in arg_values:
                if "read_arg_props" in effects:
                    for access in weak_accesses(arg):
                        rw.add_read_prop(access)
                if "write_arg_props" in effects:
                    for access in weak_accesses(arg):
                        rw.add_write_prop(access)
        for effect in effects:
            # A message-channel write: the stub joins its payload into the
            # channel, modeled as a weak write of the channel's synthetic
            # global slot (the matching read happens at every event loop
            # that dispatches the channel — see _compute_event_loop).
            if effect.startswith("chan_w:"):
                channel = effect[len("chan_w:"):]
                rw.add_write_var((-1, channel_slot(channel)), False)

    def _compute_event_loop(self, sid, state, rw):
        # Everything the loop dispatches — legacy DOM handlers plus this
        # loop's channel handlers — gets weak param/this writes; channel
        # dispatch additionally reads each dispatched channel's payload
        # slot, which is what carries a sender's data into the handler.
        dispatched = self.result.loop_dispatches.get(sid)
        handlers = dispatched if dispatched is not None else self.result.handlers
        for address in sorted(handlers.addresses):
            if not state.heap.contains(address):
                continue
            for fid in sorted(state.heap.get(address).closures):
                function = self.program.functions[fid]
                for param in function.params:
                    rw.add_write_var((fid, param), False)
                rw.add_write_var((fid, "this"), False)
        for channel in sorted(self.result.loop_channels.get(sid, ())):
            rw.add_read_var((-1, channel_slot(channel)), False)
