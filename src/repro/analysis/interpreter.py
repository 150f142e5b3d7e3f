"""The flow- and context-sensitive abstract interpreter (the JSAI role).

A worklist fixpoint over ``(statement, context)`` pairs. Each pair has an
*input* abstract state; processing a statement applies its transfer
function and propagates the result along the statement's CFG edges:

- SEQ edges carry normal flow,
- JUMP edges carry returns (to the function exit) and throws (to the
  innermost handler),
- IMPLICIT edges carry the state at a potential implicit exception
  (property access on undefined/null, call of a non-function) — and the
  statements for which this actually fires are recorded in ``throwing``,
  which later prunes the stage-3 CDG (Section 3.3),
- calls flow into callee entries under a pushed context; function exits
  flow back to every recorded return site.

The analysis computes exactly what the paper's PDG construction consumes:
a context-sensitive interprocedural CFG (statement × context reachability
plus call/return edges) and, via :mod:`repro.analysis.readwrite`, the
per-statement read/write sets with strong/weak qualification.

The synthetic event loop statement dispatches, non-deterministically, to
every handler registered through the browser stubs — the paper's
treatment of the addon event-driven execution model.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from repro.analysis import builtins, transfer
from repro.analysis.contexts import EMPTY_CONTEXT, CallSiteSensitivity, Context
from repro.analysis.environment import DefaultEnvironment, Environment, NativeCall
from repro.analysis.wto import build_schedule
from repro.domains import values as values_domain
from repro.domains.objects import AbstractObject, function_object, interned_object
from repro.domains.pmap import drop_merge_memo
from repro.domains.state import COPIES, State
from repro.domains.values import AbstractValue
from repro.faults import Budget, Degradation, FailureKind
from repro.perf import Counters
from repro.ir.nodes import (
    AllocStmt,
    AssignStmt,
    Atom,
    AtomRhs,
    BinOpRhs,
    BranchStmt,
    CallStmt,
    CatchStmt,
    ClosureStmt,
    Const,
    ConstructStmt,
    DeletePropStmt,
    EdgeKind,
    EntryStmt,
    EventLoopStmt,
    ExitStmt,
    ForInNextStmt,
    LoadPropStmt,
    NopStmt,
    ProgramIR,
    ReturnStmt,
    Rhs,
    Stmt,
    StorePropStmt,
    ThrowStmt,
    UnOpRhs,
    Var,
)

#: Analysis-internal variable name for the per-function return slot.
RETURN_SLOT = "%ret"


def channel_slot(channel: str) -> str:
    """The synthetic global variable carrying a message channel's payload.

    Channel writes (``chrome.runtime.sendMessage`` et al.) are modeled as
    weak writes of this variable via the ``chan_w:<channel>`` native
    effect; every event loop that dispatches the channel's handlers reads
    it. That single shared variable is what gives the data-dependence
    pass its cross-component edges."""
    return f"%channel:{channel}"


def exception_slot(handler_sid: int) -> str:
    """The analysis-internal variable carrying the in-flight exception
    for one specific catch handler. Keeping the slot per-handler (rather
    than per-function) prevents spurious data edges between unrelated
    try blocks."""
    return f"%exc@{handler_sid}"

Node = tuple[int, Context]


class AnalysisBudgetExceeded(RuntimeError):
    """A cooperative analysis budget (steps, wall clock, or abstract
    states) tripped and salvage mode was not enabled. Carries the
    taxonomy kind so callers can report it without string matching."""

    def __init__(self, message: str, kind: FailureKind = FailureKind.BUDGET_STEPS):
        super().__init__(message)
        self.kind = kind


@dataclass
class AnalysisResult:
    """Everything downstream phases need from the base analysis."""

    program: ProgramIR
    #: Input abstract state per (statement id, context).
    states: dict[Node, State]
    #: (call sid, caller ctx) -> {(callee fid, callee ctx)}.
    call_edges: dict[Node, set[tuple[int, Context]]]
    #: (callee fid, callee ctx) -> {(call sid, caller ctx)}.
    return_sites: dict[tuple[int, Context], set[Node]]
    #: Statements that may raise an implicit exception.
    throwing: frozenset[int]
    #: Call statements whose callee the analysis could not resolve at all.
    unknown_callees: frozenset[int]
    #: Joined value of all registered event handlers.
    handlers: AbstractValue
    #: Functions that may have several simultaneously live frames
    #: (recursion): their locals never admit strong updates.
    multi_instance: frozenset[int]
    #: (tag, statement id) diagnostics raised by native stubs — e.g.
    #: dynamic-code patterns like a string argument to setTimeout
    #: (restricted by the vetting policy, Section 2).
    diagnostics: frozenset[tuple[str, int]]
    sensitivity: CallSiteSensitivity
    #: Hot-path observability: fixpoint steps, states created, joins, ...
    #: Pure reporting — never consulted by the analysis itself.
    counters: Counters = field(default_factory=Counters)
    #: Budget trips recorded by salvage mode; empty for a clean run.
    #: A degraded result is still usable, but downstream phases must
    #: treat it conservatively (all-weak read/write sets, signature
    #: widened to ⊤ over the spec) — see DESIGN.md.
    degradations: tuple[Degradation, ...] = ()
    #: Statements whose fixpoint work was abandoned when a budget
    #: tripped (their input states may under-approximate).
    unsettled: frozenset[int] = frozenset()
    #: Event-loop sid -> joined value of every handler dispatched there
    #: (legacy DOM handlers plus channel handlers). The read/write pass
    #: derives the loop's param/this writes from this.
    loop_dispatches: dict[int, AbstractValue] = field(default_factory=dict)
    #: Event-loop sid -> message channels whose handlers dispatch there.
    #: Drives the channel-payload reads in the read/write pass and the
    #: ``ChannelSource`` spec matcher.
    loop_channels: dict[int, frozenset[str]] = field(default_factory=dict)

    @property
    def degraded(self) -> bool:
        return bool(self.degradations)

    # The spec matchers interrogate the result once per source/sink/API
    # matcher; these lazily built indexes replace their repeated scans of
    # the full ``states`` map. ``states`` is never mutated after
    # construction, so the memoization is safe.
    _contexts_index: dict[int, list[Context]] | None = field(
        default=None, init=False, repr=False, compare=False
    )
    _type_index: dict[type, list[Node]] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def _sid_contexts(self) -> dict[int, list[Context]]:
        if self._contexts_index is None:
            index: dict[int, list[Context]] = {}
            for (sid, ctx) in self.states:
                index.setdefault(sid, []).append(ctx)
            self._contexts_index = index
        return self._contexts_index

    def contexts(self, sid: int) -> list[Context]:
        return self._sid_contexts().get(sid, [])

    def reachable(self, sid: int) -> bool:
        return sid in self._sid_contexts()

    def nodes_of_type(self, *stmt_types: type) -> list[Node]:
        """All ``(sid, context)`` nodes whose statement is exactly one of
        the given IR classes (IR statements do not subclass each other),
        in deterministic statement order."""
        if self._type_index is None:
            index: dict[type, list[Node]] = {}
            for node in sorted(self.states):
                index.setdefault(type(self.program.stmts[node[0]]), []).append(node)
            self._type_index = index
        if len(stmt_types) == 1:
            return self._type_index.get(stmt_types[0], [])
        nodes: list[Node] = []
        for stmt_type in stmt_types:
            nodes.extend(self._type_index.get(stmt_type, []))
        return nodes

    def in_state(self, sid: int, context: Context) -> State:
        return self.states[(sid, context)]

    def atom_value(self, sid: int, context: Context, atom: Atom) -> AbstractValue:
        """The value of ``atom`` in the input state of (sid, context)."""
        state = self.states.get((sid, context))
        if state is None:
            return values_domain.BOTTOM
        return _eval_atom(atom, state)

    def atom_value_joined(self, sid: int, atom: Atom) -> AbstractValue:
        """The value of ``atom`` at ``sid``, joined over all contexts."""
        result = values_domain.BOTTOM
        for context in self.contexts(sid):
            result = result.join(self.atom_value(sid, context, atom))
        return result

    def callee_functions(self, sid: int) -> set[int]:
        """All IR functions a call statement may invoke (any context)."""
        fids: set[int] = set()
        for (node_sid, _ctx), targets in self.call_edges.items():
            if node_sid == sid:
                fids.update(fid for fid, _ in targets)
        return fids

    def callee_native_tags(self, sid: int) -> set[str]:
        """Native tags a call statement may invoke (any context)."""
        stmt = self.program.stmts[sid]
        if not isinstance(stmt, (CallStmt, ConstructStmt)):
            return set()
        tags: set[str] = set()
        for context in self.contexts(sid):
            state = self.states[(sid, context)]
            callee = _eval_atom(stmt.callee, state)
            for address in callee.addresses:
                if state.heap.contains(address):
                    native = state.heap.get(address).native
                    if native is not None:
                        tags.add(native)
        return tags


def _eval_atom(atom: Atom, state: State) -> AbstractValue:
    if isinstance(atom, Const):
        return values_domain.from_constant(atom.value)
    assert isinstance(atom, Var)
    return state.read_var(atom)


def _has_normal_continuation(base: AbstractValue) -> bool:
    """A property access continues normally unless the base can only be
    undefined or null."""
    return bool(base.addresses) or (
        not base.boolean.is_bottom
        or not base.number.is_bottom
        or not base.string.is_bottom
    )


class Interpreter:
    """Runs the abstract interpretation to a fixpoint."""

    def __init__(
        self,
        program: ProgramIR,
        environment: Environment | None = None,
        k: int = 1,
        max_steps: int = 400_000,
        budget: Budget | None = None,
        salvage: bool = False,
        widen_after: int = 512,
    ):
        self.program = program
        self.environment = environment or DefaultEnvironment()
        self.sensitivity = CallSiteSensitivity(k)
        #: The cooperative budget; ``max_steps`` is the legacy spelling
        #: of a steps-only budget and is ignored when ``budget`` is given.
        self.budget = budget if budget is not None else Budget(max_steps=max_steps)
        self.max_steps = self.budget.max_steps
        #: With ``salvage`` on, a tripped budget degrades the run (see
        #: :meth:`_salvage`) instead of raising AnalysisBudgetExceeded.
        self.salvage = salvage
        self.degradations: list[Degradation] = []
        self.unsettled: set[int] = set()
        self.natives = dict(builtins.NATIVE_TABLE)
        self.natives.update(self.environment.natives)

        #: Weak topological order of the static flow graph: each pending
        #: node is scheduled by its component's rank, so inner cyclic
        #: components stabilize before their results propagate outward.
        self.schedule = build_schedule(program)
        self._rank = self.schedule.rank
        #: Per-loop-head widening: after this many growing joins at one
        #: (head, context) node, the join is widened. High enough that
        #: ordinary programs converge well below it — widening is a
        #: termination safeguard, not a precision policy.
        self.widen_after = widen_after
        self._head_joins: dict[Node, int] = {}

        self.states: dict[Node, State] = {}
        self.worklist: list[tuple[int, int, Context]] = []  # heapq by (rank, sid, context)
        self.on_worklist: set[Node] = set()
        self.call_edges: dict[Node, set[tuple[int, Context]]] = {}
        self.return_sites: dict[tuple[int, Context], set[Node]] = {}
        self.throwing: set[int] = set()
        self.unknown_callees: set[int] = set()
        self.handler_value: AbstractValue = values_domain.BOTTOM
        #: (channel, registering component or None) -> joined handler value.
        self.channel_handlers: dict[tuple[str, str | None], AbstractValue] = {}
        #: channel -> joined payload of every write observed so far.
        self.channel_payloads: dict[str, AbstractValue] = {}
        #: Event-loop sid -> joined dispatched handler value / channels.
        self.loop_dispatches: dict[int, AbstractValue] = {}
        self.loop_channels: dict[int, set[str]] = {}
        self.diagnostics: set[tuple[str, int]] = set()
        self._eventloop_nodes: set[Node] = set()
        self._stub_addresses: dict[tuple[int, int], int] = {}
        self._next_stub_address = -1_000_000
        self._call_graph: dict[int, set[int]] = {}
        self._multi_instance: set[int] = set()
        #: Compiled transfer closures, one per statement id, filled
        #: lazily by :meth:`_process` on first visit.
        self._compiled: dict[int, object] = {}
        self.counters = Counters()

    # ------------------------------------------------------------------
    # Services used by native stubs

    def alloc_at(self, sid: int, salt: int, obj: AbstractObject, state: State) -> int:
        """Allocate an object on behalf of a native stub, with a stable
        address derived from the call site (so the fixpoint converges)."""
        key = (sid, salt)
        address = self._stub_addresses.get(key)
        if address is None:
            address = self._next_stub_address
            self._next_stub_address -= 1
            self._stub_addresses[key] = address
        state.heap.allocate(address, obj)
        return address

    def report_diagnostic(self, tag: str, sid: int) -> None:
        """Record a stub-raised vetting diagnostic (e.g. dynamic code)."""
        self.diagnostics.add((tag, sid))

    def register_event_handler(self, value: AbstractValue) -> None:
        """Record a handler value registered via addEventListener-style
        stubs; re-examines the event loop when the set grows."""
        joined = self.handler_value.join(value)
        if joined != self.handler_value:
            self.handler_value = joined
            for node in self._eventloop_nodes:
                self._enqueue(node)

    def register_channel_handler(
        self, channel: str, value: AbstractValue, sid: int
    ) -> None:
        """Record a message handler registered on ``channel`` (e.g. by
        ``chrome.runtime.onMessage.addListener``). The handler is keyed
        by the *component* whose code registered it, so each component's
        event loop dispatches only its own handlers; re-examines the
        event loops when the set grows."""
        key = (channel, self.program.component_of(sid))
        existing = self.channel_handlers.get(key, values_domain.BOTTOM)
        joined = existing.join(value)
        if joined != existing:
            self.channel_handlers[key] = joined
            for node in self._eventloop_nodes:
                self._enqueue(node)

    def channel_write(self, channel: str, value: AbstractValue) -> None:
        """Join ``value`` into a channel's abstract payload (e.g. the
        message argument of ``chrome.runtime.sendMessage``); re-examines
        the event loops when the payload grows."""
        existing = self.channel_payloads.get(channel, values_domain.BOTTOM)
        joined = existing.join(value)
        if joined != existing:
            self.channel_payloads[channel] = joined
            for node in self._eventloop_nodes:
                self._enqueue(node)

    # ------------------------------------------------------------------
    # Fixpoint driver

    def run(self) -> AnalysisResult:
        # The merge memo pins the trie nodes it keys on: scope it to this run.
        try:
            copies_before = COPIES.value
            initial = State()
            builtins.install(initial)
            self.environment.setup(initial, self)
            entry = self.program.main.entry
            self._propagate(entry.sid, EMPTY_CONTEXT, initial)

            meter = self.budget.start()
            steps = 0
            processed = 0
            while self.worklist:
                steps += 1
                tripped = meter.check(steps, len(self.states))
                if tripped is not None:
                    if not self.salvage:
                        raise AnalysisBudgetExceeded(meter.describe(tripped), kind=tripped)
                    self._salvage(tripped, meter.describe(tripped))
                    break
                # Process in weak topological order: a pending node inside an
                # inner cyclic component sorts before everything downstream
                # of the component, so the cycle iterates to stabilization
                # before its results propagate outward. Rank ties (same
                # component, or components the graph does not order) fall
                # back to statement order, matching the previous scheduling.
                _rank, sid, context = heapq.heappop(self.worklist)
                node = (sid, context)
                self.on_worklist.discard(node)
                self._process(node)
                processed += 1

            self.counters["fixpoint_steps"] = steps
            # Visits served by an already-compiled transfer closure (every
            # visit after a statement's first).
            self.counters["closure_cache_hits"] = processed - len(self._compiled)
            self.counters["analysis_nodes"] = len(self.states)
            self.counters["states_created"] = COPIES.value - copies_before
            # All state copies share structure (O(1) persistent-map copies).
            self.counters["shared_copies"] = COPIES.value - copies_before
            self.counters["wto_components"] = self.schedule.components
            self.counters["widening_points"] = self.schedule.cyclic_components
            return AnalysisResult(
                program=self.program,
                states=self.states,
                call_edges=self.call_edges,
                return_sites=self.return_sites,
                throwing=frozenset(self.throwing),
                unknown_callees=frozenset(self.unknown_callees),
                handlers=self.handler_value,
                multi_instance=frozenset(self._multi_instance),
                diagnostics=frozenset(self.diagnostics),
                sensitivity=self.sensitivity,
                counters=self.counters,
                degradations=tuple(self.degradations),
                unsettled=frozenset(self.unsettled),
                loop_dispatches=dict(self.loop_dispatches),
                loop_channels={
                    sid: frozenset(channels)
                    for sid, channels in self.loop_channels.items()
                },
            )
        finally:
            drop_merge_memo()
            # The compiled closures capture bound methods of ``self``:
            # dropping them breaks that reference cycle, so reference
            # counting frees the run's working set (no cyclic garbage).
            self._compiled.clear()

    def _salvage(self, kind: FailureKind, detail: str) -> None:
        """Finish a budget-tripped run in a usable, flagged form.

        The states computed so far are a *prefix* of the fixpoint (joins
        are monotone, so every stored state under-approximates the true
        fixpoint state). Salvage records which statements still had
        pending work, marks every function multi-instance (so no local
        write is ever treated as a strong kill downstream), and flags
        the result degraded. Soundness is restored one level up: a
        degraded result's read/write sets are all-weak and its signature
        is widened to ⊤ over the security spec, which over-approximates
        whatever the abandoned fixpoint work could have contributed (see
        DESIGN.md, "Failure modes and degradation semantics")."""
        self.degradations.append(Degradation(kind=kind, detail=detail))
        self.unsettled.update(sid for sid, _ctx in self.on_worklist)
        self._multi_instance.update(self.program.functions)
        self.counters.bump("salvaged_worklist_nodes", len(self.on_worklist))
        self.worklist.clear()
        self.on_worklist.clear()

    def _enqueue(self, node: Node) -> None:
        if node not in self.on_worklist:
            self.on_worklist.add(node)
            sid, context = node
            heapq.heappush(self.worklist, (self._rank.get(sid, 0), sid, context))

    def _propagate(self, sid: int, context: Context, state: State) -> None:
        self.counters.bump("propagations")
        node = (sid, context)
        existing = self.states.get(node)
        if existing is None:
            self.states[node] = state
            self._enqueue(node)
            return
        # join_changed reports growth explicitly (the fixpoint test) and
        # may hand back an equal state whose trie has adopted the
        # incoming side's nodes — storing it either way is what makes
        # the next join along this edge short-circuit on node identity.
        merged, changed = existing.join_changed(state)
        if changed and sid in self.schedule.heads:
            # Per-loop-head widening: a head whose state keeps growing
            # past its join budget is widened so the cycle stabilizes.
            count = self._head_joins.get(node, 0) + 1
            self._head_joins[node] = count
            if count >= self.widen_after:
                merged = existing.widen(merged)
                self.counters.bump("widenings")
        if merged is not existing:
            self.states[node] = merged
        if changed:
            self.counters.bump("state_joins")
            self._enqueue(node)

    # ------------------------------------------------------------------
    # Statement dispatch: compiled transfer closures

    def _process(self, node: Node) -> None:
        # Each statement's transfer function is compiled once, on first
        # visit, into a closure with everything per-visit dispatch used
        # to redo — node-type tests, atom/constant resolution, edge
        # target lists, copy-or-not, write strength — resolved up front.
        # Every later visit (the overwhelming majority under a fixpoint)
        # is a dict hit plus a direct call; ``closure_cache_hits``
        # reports exactly those.
        sid, context = node
        run = self._compiled.get(sid)
        if run is None:
            run = self._compile(self.program.stmts[sid])
            self._compiled[sid] = run
        run(context, self.states[node])

    def _compile(self, stmt: Stmt):
        """Build the transfer closure for one statement. The closures
        mirror the former ``_do_*`` methods exactly — same evaluation
        order, same copy discipline (statements that mutate state work
        on a private copy; read-only ones use the stored state as-is)."""
        stype = type(stmt)
        propagate = self._propagate

        if stype is AssignStmt:
            eval_rhs = self._compile_rhs(stmt.rhs)
            write = self._compile_var_write(stmt.target, stmt.sid)
            flow = self._compile_flow(stmt, EdgeKind.SEQ)

            def run(context: Context, state: State) -> None:
                state = state.copy()
                write(state, eval_rhs(state))
                flow(context, state)

            return run

        if stype is LoadPropStmt:
            read_obj = self._compile_atom(stmt.obj)
            read_prop = self._compile_atom(stmt.prop)
            write = self._compile_var_write(stmt.target, stmt.sid)
            flow = self._compile_flow(stmt, EdgeKind.SEQ)
            throw = self._compile_implicit_throw(stmt)
            method_lookup = self._object_method_lookup
            primitive_member = self._primitive_member

            def run(context: Context, state: State) -> None:
                state = state.copy()
                obj = read_obj(state)
                if obj.may_throw_on_property_access():
                    throw(context, state)
                name = read_prop(state).to_property_name()
                value = values_domain.BOTTOM
                if obj.addresses:
                    value = value.join(state.heap.read(obj.addresses, name))
                    value = value.join(method_lookup(state, obj, name))
                value = value.join(primitive_member(obj, name))
                if not _has_normal_continuation(obj):
                    # Base can only be undefined/null. In real JS this
                    # throws; in practice it usually means an unmodeled
                    # host API, so we keep the analysis going with an
                    # unknown result (the implicit throw is recorded).
                    value = value.join(builtins.unknown_value())
                write(state, value)
                flow(context, state)

            return run

        if stype is StorePropStmt:
            read_obj = self._compile_atom(stmt.obj)
            read_prop = self._compile_atom(stmt.prop)
            read_value = self._compile_atom(stmt.value)
            flow = self._compile_flow(stmt, EdgeKind.SEQ)
            throw = self._compile_implicit_throw(stmt)

            def run(context: Context, state: State) -> None:
                state = state.copy()
                obj = read_obj(state)
                if obj.may_throw_on_property_access():
                    throw(context, state)
                name = read_prop(state).to_property_name()
                value = read_value(state)
                if obj.addresses:
                    state.heap.write(obj.addresses, name, value)
                # Continue even when the base can only be undefined/null:
                # usually an unmodeled host API (the throw is recorded).
                flow(context, state)

            return run

        if stype is DeletePropStmt:
            read_obj = self._compile_atom(stmt.obj)
            read_prop = self._compile_atom(stmt.prop)
            flow = self._compile_flow(stmt, EdgeKind.SEQ)
            throw = self._compile_implicit_throw(stmt)

            def run(context: Context, state: State) -> None:
                state = state.copy()
                obj = read_obj(state)
                if obj.may_throw_on_property_access():
                    throw(context, state)
                name = read_prop(state).to_property_name()
                if obj.addresses:
                    state.heap.delete(obj.addresses, name)
                flow(context, state)

            return run

        if stype is AllocStmt or stype is ClosureStmt:
            if stype is AllocStmt:
                obj = interned_object(AbstractObject(kind=stmt.kind))
            else:
                obj = function_object(stmt.function_id)
            address = stmt.sid
            addr_value = values_domain.from_addresses(address)
            write = self._compile_var_write(stmt.target, stmt.sid)
            flow = self._compile_flow(stmt, EdgeKind.SEQ)

            def run(context: Context, state: State) -> None:
                state = state.copy()
                state.heap.allocate(address, obj)
                write(state, addr_value)
                flow(context, state)

            return run

        if stype is BranchStmt:
            read_cond = self._compile_atom(stmt.condition)
            targets = tuple(
                e.target for e in stmt.edges if e.kind is EdgeKind.SEQ
            )
            if len(targets) == 1:
                only = targets[0]

                def run(context: Context, state: State) -> None:
                    condition = read_cond(state)
                    if condition.may_be_truthy() or condition.may_be_falsy():
                        propagate(only, context, state)

                return run

            first, second = targets[0], targets[1]
            truthy_first = stmt.truthy_first

            def run(context: Context, state: State) -> None:
                condition = read_cond(state)
                may_true = condition.may_be_truthy()
                may_false = condition.may_be_falsy()
                if may_true if truthy_first else may_false:
                    propagate(first, context, state)
                if may_false if truthy_first else may_true:
                    propagate(second, context, state)

            return run

        if stype is ReturnStmt:
            fid = self.program.owner[stmt.sid]
            read_value = (
                self._compile_atom(stmt.value) if stmt.value is not None else None
            )
            write = self._compile_var_write(Var(RETURN_SLOT, fid), stmt.sid)
            flow = self._compile_flow(stmt, EdgeKind.JUMP)

            def run(context: Context, state: State) -> None:
                state = state.copy()
                value = (
                    read_value(state) if read_value is not None
                    else values_domain.UNDEF
                )
                write(state, value)
                flow(context, state)

            return run

        if stype is ThrowStmt:
            fid = self.program.owner[stmt.sid]
            read_value = self._compile_atom(stmt.value)
            handlers = tuple(
                (e.target, self._compile_var_write(
                    Var(exception_slot(e.target), fid), stmt.sid
                ))
                for e in stmt.edges
                if e.kind is EdgeKind.JUMP
            )

            def run(context: Context, state: State) -> None:
                value = read_value(state)
                for target, write in handlers:  # empty => uncaught
                    out = state.copy()
                    write(out, value)
                    propagate(target, context, out)

            return run

        if stype is CatchStmt:
            fid = self.program.owner[stmt.sid]
            exc_var = Var(exception_slot(stmt.sid), fid)
            write = self._compile_var_write(stmt.target, stmt.sid)
            flow = self._compile_flow(stmt, EdgeKind.SEQ)

            def run(context: Context, state: State) -> None:
                state = state.copy()
                value = state.read_var(exc_var)
                if value.is_bottom or value.may_undef:
                    value = value.join(builtins.ERROR_VALUE)
                write(state, value)
                flow(context, state)

            return run

        if stype is ForInNextStmt:
            write = self._compile_var_write(stmt.target, stmt.sid)
            flow = self._compile_flow(stmt, EdgeKind.SEQ)

            def run(context: Context, state: State) -> None:
                # The loop variable is some enumerable property name.
                state = state.copy()
                write(state, values_domain.ANY_STRING)
                flow(context, state)

            return run

        if stype is CallStmt or stype is ConstructStmt:
            do_call = self._do_call

            def run(context: Context, state: State, _stmt=stmt) -> None:
                do_call(_stmt, context, state)

            return run

        if stype is EventLoopStmt:
            do_event_loop = self._do_event_loop

            def run(context: Context, state: State, _stmt=stmt) -> None:
                do_event_loop(_stmt, context, state)

            return run

        if stype is ExitStmt:
            do_exit = self._do_exit

            def run(context: Context, state: State, _stmt=stmt) -> None:
                do_exit(_stmt, context, state)

            return run

        if stype is EntryStmt or stype is NopStmt:
            # break/continue lower to NopStmts whose only real edge is a
            # JUMP to the loop exit/header — follow those too.
            targets = tuple(
                e.target
                for e in stmt.edges
                if e.kind in (EdgeKind.SEQ, EdgeKind.JUMP)
            )

            def run(context: Context, state: State) -> None:
                for target in targets:
                    propagate(target, context, state)

            return run

        raise TypeError(f"unhandled statement {stmt!r}")  # pragma: no cover

    def _compile_atom(self, atom: Atom):
        """An evaluator closure for one atom: constants resolve to their
        abstract value now; variables to a prebuilt environment key."""
        if isinstance(atom, Const):
            value = values_domain.from_constant(atom.value)
            return lambda state, _value=value: _value
        assert isinstance(atom, Var)
        key = (atom.scope, atom.name)

        def read(state: State, _key=key):
            value = state.vars.get(_key)
            # Never assigned: undefined (hoisted local / missing global).
            return values_domain.UNDEF if value is None else value

        return read

    def _compile_rhs(self, rhs: Rhs):
        if isinstance(rhs, AtomRhs):
            return self._compile_atom(rhs.atom)
        if isinstance(rhs, BinOpRhs):
            left = self._compile_atom(rhs.left)
            right = self._compile_atom(rhs.right)
            operator = rhs.operator
            binary_op = transfer.binary_op
            return lambda state: binary_op(operator, left(state), right(state))
        assert isinstance(rhs, UnOpRhs)
        operand = self._compile_atom(rhs.operand)
        operator = rhs.operator
        unary_op = transfer.unary_op
        return lambda state: unary_op(operator, operand(state))

    def _compile_var_write(self, var: Var, sid: int):
        """A writer closure with the static part of the strong/weak
        decision resolved now (see :meth:`_strong_var`); only the
        multi-instance test — which evolves as the call graph is
        discovered — stays a runtime check."""
        if var.scope == -1:  # GLOBAL_SCOPE: always strong
            return lambda state, value, _var=var: state.write_var(_var, value, True)
        if var.scope != self.program.owner[sid]:
            # Captured outer local: other frames may be live — weak.
            return lambda state, value, _var=var: state.write_var(_var, value, False)
        multi_instance = self._multi_instance  # live set, mutated in place

        def write(state: State, value, _var=var, _scope=var.scope):
            state.write_var(_var, value, _scope not in multi_instance)

        return write

    def _compile_flow(self, stmt: Stmt, kind: EdgeKind):
        targets = tuple(e.target for e in stmt.edges if e.kind is kind)
        propagate = self._propagate
        if len(targets) == 1:
            only = targets[0]
            return lambda context, state: propagate(only, context, state)

        def flow(context: Context, state: State) -> None:
            for target in targets:
                propagate(target, context, state)

        return flow

    def _compile_implicit_throw(self, stmt: Stmt):
        """The compiled form of :meth:`_record_implicit_throw`: handler
        targets and their exception-slot writers are resolved once."""
        sid = stmt.sid
        throwing = self.throwing
        targets = tuple(
            e.target for e in stmt.edges if e.kind is EdgeKind.IMPLICIT
        )
        if not targets:
            def record(context: Context, state: State) -> None:
                throwing.add(sid)  # uncaught: termination, out of scope

            return record
        fid = self.program.owner[sid]
        handlers = tuple(
            (target, self._compile_var_write(
                Var(exception_slot(target), fid), sid
            ))
            for target in targets
        )
        propagate = self._propagate
        error_value = builtins.ERROR_VALUE

        def record(context: Context, state: State) -> None:
            throwing.add(sid)
            for target, write in handlers:
                exc_state = state.copy()
                write(exc_state, error_value)
                propagate(target, context, exc_state)

        return record

    # ------------------------------------------------------------------
    # Flow helpers

    def _flow_seq(self, stmt: Stmt, context: Context, state: State) -> None:
        targets = [e.target for e in stmt.edges if e.kind is EdgeKind.SEQ]
        self._flow_to(targets, context, state)

    def _flow_to(self, targets: list[int], context: Context, state: State) -> None:
        # One state object may flow to several targets unchanged: once a
        # state is propagated it is never mutated in place (every
        # mutating transfer works on a private copy), so sharing it
        # across successor nodes is safe and saves a copy per extra
        # target.
        for target in targets:
            self._propagate(target, context, state)

    def _record_implicit_throw(self, stmt: Stmt, context: Context, state: State) -> None:
        self.throwing.add(stmt.sid)
        targets = [e.target for e in stmt.edges if e.kind is EdgeKind.IMPLICIT]
        if not targets:
            return  # uncaught: termination, out of scope
        fid = self.program.owner[stmt.sid]
        for target in targets:
            exc_state = state.copy()
            slot = Var(exception_slot(target), fid)
            exc_state.write_var(
                slot, builtins.ERROR_VALUE, strong=self._strong_var(slot, stmt.sid)
            )
            self._propagate(target, context, exc_state)

    def _strong_var(self, var: Var, sid: int) -> bool:
        """A variable write is strong (kills the old value) when the
        variable's abstract location stands for one concrete location:
        globals always; locals of the executing function unless that
        function may have several live frames (recursion)."""
        if var.scope == -1:  # GLOBAL_SCOPE
            return True
        return (
            var.scope == self.program.owner[sid]
            and var.scope not in self._multi_instance
        )

    def _note_call_edge(self, caller_fid: int, callee_fid: int) -> None:
        """Track the call graph; mark functions on call-graph cycles as
        multi-instance (their frames may coexist, so writes go weak)."""
        edges = self._call_graph.setdefault(caller_fid, set())
        if callee_fid in edges:
            return
        edges.add(callee_fid)
        # Does callee reach caller? Then the new edge closes a cycle.
        seen: set[int] = set()
        stack = [callee_fid]
        while stack:
            fid = stack.pop()
            if fid in seen:
                continue
            seen.add(fid)
            if fid == caller_fid:
                # Everything on a path callee ->* caller is in the cycle;
                # conservatively mark the whole reachable set.
                self._multi_instance.update(seen)
                return
            stack.extend(self._call_graph.get(fid, ()))

    # ------------------------------------------------------------------
    # Transfer functions

    def _eval(self, atom: Atom, state: State) -> AbstractValue:
        return _eval_atom(atom, state)

    def _object_method_lookup(self, state, obj_value, name):
        """Built-in methods on plain objects and arrays, looked up when an
        exact property name misses the object's own properties."""
        concrete = name.concrete()
        if concrete is None:
            return values_domain.BOTTOM
        result = values_domain.BOTTOM
        for address in obj_value.addresses:
            if not state.heap.contains(address):
                continue
            heap_obj = state.heap.get(address)
            if any(prop == concrete for prop, _ in heap_obj.properties):
                continue
            method_address = None
            if heap_obj.kind == "array":
                method_address = builtins.array_method_address(concrete)
            if method_address is None:
                method_address = builtins.object_method_address(concrete)
            if method_address is not None:
                result = result.join(values_domain.from_addresses(method_address))
        return result

    def _primitive_member(self, obj_value, name):
        """Property reads on primitives: string methods and length;
        number/boolean properties are (soundly) undefined."""
        result = values_domain.BOTTOM
        if not obj_value.number.is_bottom or not obj_value.boolean.is_bottom:
            result = result.join(values_domain.UNDEF)
        if obj_value.string.is_bottom:
            return result
        concrete = name.concrete()
        if concrete is None:
            return result.join(builtins.unknown_value())
        if concrete == "length":
            text = obj_value.string.concrete()
            if text is not None:
                return result.join(values_domain.from_constant(float(len(text))))
            return result.join(values_domain.ANY_NUMBER)
        address = builtins.string_method_address(concrete)
        if address is not None:
            return result.join(values_domain.from_addresses(address))
        return result.join(values_domain.UNDEF)

    # ------------------------------------------------------------------
    # Calls

    def _do_call(self, stmt: CallStmt | ConstructStmt, context: Context, state: State) -> None:
        callee = self._eval(stmt.callee, state)
        is_construct = isinstance(stmt, ConstructStmt)
        this_value = (
            self._eval(stmt.this, state)
            if not is_construct and stmt.this is not None
            else self.environment.global_this(state)
        )
        args = [self._eval(arg, state) for arg in stmt.args]

        native_result = values_domain.BOTTOM
        ran_native = False
        # Any primitive component (incl. undefined/null) means the callee
        # may not be callable: a potential implicit TypeError.
        may_be_nonfunction = callee.may_be_non_object()
        # The post-call state is only materialized when something (a
        # native stub, an unresolved callee) actually writes into it:
        # calls that resolve purely to closures skip the copy entirely.
        out_state: State | None = None

        for address in sorted(callee.addresses):
            if not state.heap.contains(address):
                continue
            heap_obj = state.heap.get(address)
            if heap_obj.closures:
                for fid in sorted(heap_obj.closures):
                    self._enter_function(
                        fid, stmt, context, state, this_value, args, is_construct
                    )
            elif heap_obj.native is not None and heap_obj.native in self.natives:
                if out_state is None:
                    out_state = state.copy()
                call = NativeCall(
                    interpreter=self,
                    state=out_state,
                    stmt=stmt,
                    context=context,
                    this=this_value,
                    args=args,
                    is_construct=is_construct,
                )
                native_result = native_result.join(self.natives[heap_obj.native](call))
                ran_native = True
            else:
                may_be_nonfunction = True  # plain object called

        if not callee.addresses:
            # Entirely unresolved callee (unmodeled global API): keep the
            # analysis going with an unknown result, and report it.
            self.unknown_callees.add(stmt.sid)
            ran_native = True
            if out_state is None:
                out_state = state.copy()
            if is_construct:
                address = self.alloc_at(
                    stmt.sid, salt=0, obj=interned_object(AbstractObject()),
                    state=out_state,
                )
                native_result = native_result.join(values_domain.from_addresses(address))
            else:
                native_result = native_result.join(builtins.unknown_value())

        if may_be_nonfunction:
            self._record_implicit_throw(stmt, context, state)

        if ran_native:
            if stmt.target is not None:
                out_state.write_var(
                    stmt.target,
                    native_result,
                    self._strong_var(stmt.target, stmt.sid),
                )
            self._flow_seq(stmt, context, out_state)

    def _enter_function(
        self,
        fid: int,
        call_stmt: Stmt,
        caller_context: Context,
        state: State,
        this_value: AbstractValue,
        args: list[AbstractValue],
        is_construct: bool,
    ) -> None:
        callee_context = self.sensitivity.push(caller_context, call_stmt.sid)
        self._note_call_edge(self.program.owner[call_stmt.sid], fid)
        self.call_edges.setdefault((call_stmt.sid, caller_context), set()).add(
            (fid, callee_context)
        )
        self._register_return_site(fid, callee_context, call_stmt.sid, caller_context)

        function = self.program.functions[fid]
        entry_state = state.copy()
        if is_construct:
            entry_state.heap.allocate(call_stmt.sid, interned_object(AbstractObject()))
            this_value = values_domain.from_addresses(call_stmt.sid)
        strong = fid not in self._multi_instance
        for index, param in enumerate(function.params):
            value = args[index] if index < len(args) else values_domain.UNDEF
            entry_state.write_var(Var(param, fid), value, strong)
        entry_state.write_var(Var("this", fid), this_value, strong)
        entry_state.write_var(Var(RETURN_SLOT, fid), values_domain.UNDEF, strong)
        self._propagate(function.entry.sid, callee_context, entry_state)

    def _register_return_site(
        self, fid: int, callee_context: Context, call_sid: int, caller_context: Context
    ) -> None:
        sites = self.return_sites.setdefault((fid, callee_context), set())
        site = (call_sid, caller_context)
        if site in sites:
            return
        sites.add(site)
        # If the callee exit has already been analyzed, flow its current
        # state back to the new site immediately.
        exit_sid = self.program.functions[fid].exit.sid
        exit_state = self.states.get((exit_sid, callee_context))
        if exit_state is not None:
            self._return_to(call_sid, caller_context, fid, exit_state.copy())

    def _do_exit(self, stmt: ExitStmt, context: Context, state: State) -> None:
        for call_sid, caller_context in self.return_sites.get(
            (stmt.function_id, context), set()
        ):
            self._return_to(call_sid, caller_context, stmt.function_id, state.copy())

    def _return_to(
        self, call_sid: int, caller_context: Context, fid: int, state: State
    ) -> None:
        call_stmt = self.program.stmts[call_sid]
        target = getattr(call_stmt, "target", None)
        if target is not None:
            result = state.read_var(Var(RETURN_SLOT, fid))
            if isinstance(call_stmt, ConstructStmt):
                # `new` evaluates to the fresh object unless the body
                # returned an object.
                result = values_domain.from_addresses(call_sid).join(
                    AbstractValue(addresses=result.addresses)
                )
            state.write_var(target, result, self._strong_var(target, call_sid))
        targets = [e.target for e in call_stmt.edges if e.kind is EdgeKind.SEQ]
        self._flow_to(targets, caller_context, state)

    # ------------------------------------------------------------------
    # Event loop

    def _do_event_loop(self, stmt: EventLoopStmt, context: Context, state: State) -> None:
        self._eventloop_nodes.add((stmt.sid, context))
        event = self.environment.event_value(state)
        this_value = self.environment.global_this(state)
        # Legacy DOM-style handlers dispatch at every loop (an
        # over-approximation for multi-component extensions; their
        # registrations are not component-scoped).
        dispatched = self.handler_value
        for address in sorted(self.handler_value.addresses):
            if not state.heap.contains(address):
                continue
            heap_obj = state.heap.get(address)
            for fid in sorted(heap_obj.closures):
                self._enter_function(
                    fid, stmt, context, state, this_value, [event],
                    is_construct=False,
                )
        # Channel handlers dispatch only at their own component's loop
        # (``None`` on either side means "unscoped": dispatch anywhere).
        channels = self.loop_channels.setdefault(stmt.sid, set())
        for (channel, component), value in sorted(
            self.channel_handlers.items(),
            key=lambda item: (item[0][0], item[0][1] or ""),
        ):
            if (
                component is not None
                and stmt.component is not None
                and component != stmt.component
            ):
                continue
            if not value.addresses:
                continue
            channels.add(channel)
            args = self._channel_args(channel, state)
            for address in sorted(value.addresses):
                if not state.heap.contains(address):
                    continue
                for fid in sorted(state.heap.get(address).closures):
                    self._enter_function(
                        fid, stmt, context, state, this_value, args,
                        is_construct=False,
                    )
            dispatched = dispatched.join(value)
        self.loop_dispatches[stmt.sid] = self.loop_dispatches.get(
            stmt.sid, values_domain.BOTTOM
        ).join(dispatched)
        self._flow_seq(stmt, context, state)

    def _channel_args(self, channel: str, state: State) -> list[AbstractValue]:
        """The argument vector for handlers dispatched on ``channel``.

        Handlers always dispatch, even when no in-extension write reached
        the channel: the environment's payload models the *external*
        sender (another extension, a web page via externally_connectable),
        which is attacker-controlled. Environments may refine the vector
        (duck-typed ``channel_args``); the default passes the payload."""
        payload = self.channel_payloads.get(channel, values_domain.BOTTOM)
        shape = getattr(self.environment, "channel_args", None)
        if shape is not None:
            return shape(channel, payload, state)
        return [payload]


def analyze(
    program: ProgramIR,
    environment: Environment | None = None,
    k: int = 1,
    max_steps: int = 400_000,
    budget: Budget | None = None,
    salvage: bool = False,
) -> AnalysisResult:
    """Run the base analysis (phase P1 of the paper's pipeline).

    ``budget`` bounds the fixpoint cooperatively (steps, wall clock,
    abstract states); ``max_steps`` is the legacy steps-only spelling.
    With ``salvage`` a tripped budget yields a degraded result instead
    of raising :class:`AnalysisBudgetExceeded`.
    """
    return Interpreter(
        program, environment, k=k, max_steps=max_steps,
        budget=budget, salvage=salvage,
    ).run()
