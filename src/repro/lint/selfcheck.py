"""The lattice-law sanitizer: ``addon-sig selfcheck``.

The whole pipeline rests on its abstract domains behaving like the
lattices the paper's proofs assume: ``leq`` a partial order, ``join`` a
least upper bound, ``meet`` a greatest lower bound, transfer functions
monotone. A silent violation in any of them corrupts every signature
downstream without ever raising — the kind of bug only a law checker
catches.

This module enumerates a small, deterministic element set for each
domain (prefix strings, booleans, numbers, the reduced-product values,
the k-bounded string-set extension, and the machine state itself —
environment + heap over their persistent maps) and checks every law on every
element/pair/triple (for the large closed-under-join values domain,
triples range over the base generators). It runs in about a second, as a CLI
subcommand (``addon-sig selfcheck``) and as a pytest suite
(``pytest -m lint tests/lint/test_selfcheck.py``).

Domain-specific notes:

- **numbers** — two NaN constants are semantically equal but ``==``
  -unequal (IEEE NaN); the check uses the domain's own constant
  equality so antisymmetry is judged semantically.
- **stringset** — elements are enumerated as singletons: the bounded
  join deliberately collapses sets over budget (a widening), and the
  lattice laws are only promised below the bound.
- **state** — elements deliberately include copy-on-write aliases
  (states built by ``copy()`` + mutation, sharing trie nodes with their
  ancestors), so the laws exercise the persistent maps' shared-subtree
  short-circuits, not just structurally independent states; equality is
  semantic (an absent variable is an implicit bottom binding).
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

from repro.domains import bools, numbers, values
from repro.domains import prefix as prefix_domain
from repro.domains.objects import AbstractObject
from repro.domains.state import State
from repro.domains.stringset import StringSet
from repro.ir.nodes import GLOBAL_SCOPE, Var


@dataclass
class DomainCheck:
    """The sanitizer's verdict for one domain."""

    domain: str
    elements: int
    checks: int = 0
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def render(self) -> str:
        status = "ok" if self.ok else f"{len(self.violations)} violation(s)"
        lines = [
            f"{self.domain:<12} {self.elements:>3} elements,"
            f" {self.checks:>6} checks: {status}"
        ]
        lines.extend(f"    {violation}" for violation in self.violations)
        return "\n".join(lines)


@dataclass(frozen=True)
class Transfer:
    """One transfer function to check for monotonicity.

    ``arity`` 1 or 2; ``out_leq`` compares outputs (defaults to the
    domain's own ``leq`` — override for functions into another domain,
    e.g. ``to_property_name`` maps values into the prefix domain).
    """

    name: str
    fn: Callable
    arity: int = 1
    out_leq: Callable | None = None


class _LawChecker:
    """Checks the lattice laws over one enumerated element set."""

    def __init__(
        self,
        name: str,
        elements: Sequence,
        *,
        leq: Callable,
        join: Callable,
        meet: Callable | None = None,
        eq: Callable | None = None,
        bottom=None,
        top=None,
        transfers: Sequence[Transfer] = (),
        probes: Sequence | None = None,
    ):
        self.result = DomainCheck(domain=name, elements=len(elements))
        self.elements = list(elements)
        #: The third loop variable of the O(n³) laws (transitivity,
        #: associativity, least/greatest bounds, binary monotonicity)
        #: ranges over this set — defaults to all elements; large
        #: domains pass their base generators to keep the run fast
        #: while every *pair* is still checked exhaustively.
        self.probes = list(probes) if probes is not None else self.elements
        self.leq = leq
        self.join = join
        self.meet = meet
        self.eq = eq if eq is not None else (lambda a, b: a == b)
        self.bottom = bottom
        self.top = top
        self.transfers = transfers

    def _fail(self, law: str, detail: str) -> None:
        self.result.violations.append(f"{law}: {detail}")

    def _assert(self, condition: bool, law: str, detail: str) -> None:
        self.result.checks += 1
        if not condition:
            self._fail(law, detail)

    def run(self) -> DomainCheck:
        self._check_order()
        self._check_join()
        if self.meet is not None:
            self._check_meet()
        self._check_extremes()
        for transfer in self.transfers:
            self._check_monotone(transfer)
        return self.result

    # ------------------------------------------------------------------

    def _check_order(self) -> None:
        for a in self.elements:
            self._assert(self.leq(a, a), "reflexivity", f"{a} ⋢ {a}")
        for a in self.elements:
            for b in self.elements:
                if self.leq(a, b) and self.leq(b, a):
                    self._assert(
                        self.eq(a, b), "antisymmetry",
                        f"{a} ⊑ {b} ⊑ {a} but {a} ≠ {b}",
                    )
        for a in self.elements:
            for b in self.elements:
                if not self.leq(a, b):
                    continue
                for c in self.probes:
                    if self.leq(b, c):
                        self._assert(
                            self.leq(a, c), "transitivity",
                            f"{a} ⊑ {b} ⊑ {c} but {a} ⋢ {c}",
                        )

    def _check_join(self) -> None:
        for a in self.elements:
            self._assert(
                self.eq(self.join(a, a), a), "join-idempotence",
                f"{a} ⊔ {a} ≠ {a}",
            )
        for a in self.elements:
            for b in self.elements:
                ab = self.join(a, b)
                self._assert(
                    self.eq(ab, self.join(b, a)), "join-commutativity",
                    f"{a} ⊔ {b} ≠ {b} ⊔ {a}",
                )
                self._assert(
                    self.leq(a, ab) and self.leq(b, ab), "join-upper-bound",
                    f"{a} ⊔ {b} = {ab} is not above both operands",
                )
                for c in self.probes:
                    if self.leq(a, c) and self.leq(b, c):
                        self._assert(
                            self.leq(ab, c), "join-least",
                            f"{ab} = {a} ⊔ {b} ⋢ upper bound {c}",
                        )
        for a in self.elements:
            for b in self.elements:
                for c in self.probes:
                    self._assert(
                        self.eq(
                            self.join(self.join(a, b), c),
                            self.join(a, self.join(b, c)),
                        ),
                        "join-associativity",
                        f"({a} ⊔ {b}) ⊔ {c} ≠ {a} ⊔ ({b} ⊔ {c})",
                    )

    def _check_meet(self) -> None:
        assert self.meet is not None
        for a in self.elements:
            self._assert(
                self.eq(self.meet(a, a), a), "meet-idempotence",
                f"{a} ⊓ {a} ≠ {a}",
            )
        for a in self.elements:
            for b in self.elements:
                ab = self.meet(a, b)
                self._assert(
                    self.eq(ab, self.meet(b, a)), "meet-commutativity",
                    f"{a} ⊓ {b} ≠ {b} ⊓ {a}",
                )
                self._assert(
                    self.leq(ab, a) and self.leq(ab, b), "meet-lower-bound",
                    f"{a} ⊓ {b} = {ab} is not below both operands",
                )
                for c in self.probes:
                    if self.leq(c, a) and self.leq(c, b):
                        self._assert(
                            self.leq(c, ab), "meet-greatest",
                            f"lower bound {c} ⋢ {ab} = {a} ⊓ {b}",
                        )

    def _check_extremes(self) -> None:
        if self.bottom is not None:
            for a in self.elements:
                self._assert(
                    self.leq(self.bottom, a), "bottom-least",
                    f"⊥ ⋢ {a}",
                )
        if self.top is not None:
            for a in self.elements:
                self._assert(
                    self.leq(a, self.top), "top-greatest",
                    f"{a} ⋢ ⊤",
                )

    def _check_monotone(self, transfer: Transfer) -> None:
        out_leq = transfer.out_leq if transfer.out_leq is not None else self.leq
        law = f"monotonicity[{transfer.name}]"
        if transfer.arity == 1:
            for a in self.elements:
                for b in self.elements:
                    if self.leq(a, b):
                        self._assert(
                            out_leq(transfer.fn(a), transfer.fn(b)), law,
                            f"{a} ⊑ {b} but f({a}) ⋢ f({b})",
                        )
            return
        for a in self.elements:
            for b in self.elements:
                if not self.leq(a, b):
                    continue
                for c in self.probes:
                    self._assert(
                        out_leq(transfer.fn(a, c), transfer.fn(b, c)), law,
                        f"{a} ⊑ {b} but f({a},{c}) ⋢ f({b},{c})",
                    )
                    self._assert(
                        out_leq(transfer.fn(c, a), transfer.fn(c, b)), law,
                        f"{a} ⊑ {b} but f({c},{a}) ⋢ f({c},{b})",
                    )


# ----------------------------------------------------------------------
# Element enumerations (deterministic; small but corner-heavy)


def _prefix_elements() -> list[prefix_domain.Prefix]:
    return [
        prefix_domain.BOTTOM,
        prefix_domain.TOP,
        prefix_domain.exact(""),  # the empty *exact* string ≠ ⊤
        prefix_domain.exact("a"),
        prefix_domain.exact("b"),
        prefix_domain.exact("ab"),
        prefix_domain.prefix("a"),
        prefix_domain.prefix("b"),
        prefix_domain.prefix("ab"),
        prefix_domain.exact("http://a.example/"),
        prefix_domain.prefix("http://"),
    ]


def _bool_elements() -> list[bools.AbstractBool]:
    return [bools.BOTTOM, bools.TRUE, bools.FALSE, bools.TOP]


def _number_elements() -> list[numbers.AbstractNumber]:
    return [
        numbers.BOTTOM,
        numbers.TOP,
        numbers.constant(0.0),
        numbers.constant(1.0),
        numbers.constant(-1.0),
        numbers.constant(2.5),
        numbers.constant(float("nan")),
    ]


def _number_eq(a: numbers.AbstractNumber, b: numbers.AbstractNumber) -> bool:
    """Semantic equality: NaN constants are one element of the domain
    even though ``==`` on the dataclass says otherwise (IEEE NaN)."""
    if a.tag != b.tag:
        return False
    if a.concrete() is None:
        return True
    concrete_b = b.concrete()
    return concrete_b is not None and numbers._same_constant(a.value, b.value)


def _value_base() -> list[values.AbstractValue]:
    return [
        values.BOTTOM,
        values.UNDEF,
        values.NULL,
        values.ANY_STRING,
        values.ANY_NUMBER,
        values.ANY_BOOL,
        values.from_constant(True),
        values.from_constant(1.0),
        values.from_constant("a"),
        values.from_constant("ab"),
        values.from_addresses(1),
        values.from_addresses(2),
    ]


def _value_elements(base: list[values.AbstractValue]) -> list[values.AbstractValue]:
    # Close once under pairwise join to get mixed-type elements
    # (string|number, object|undefined, ...) without a combinatorial
    # blowup; dedupe preserving deterministic order.
    seen: list[values.AbstractValue] = []
    for element in base + [a.join(b) for a in base for b in base]:
        if element not in seen:
            seen.append(element)
    return seen


def _stringset_elements() -> list[StringSet]:
    # Singletons only: the bounded join is a widening above the bound,
    # where the pure lattice laws are deliberately forfeited.
    return [
        StringSet.bottom(),
        StringSet.top(),
        StringSet.exact(""),
        StringSet.exact("a"),
        StringSet.exact("b"),
        StringSet.exact("ab"),
        StringSet.prefix("a"),
        StringSet.prefix("http://"),
    ]


def _keyvalue_elements():
    """The resolution lattice of :mod:`repro.lint.keys`:
    every enumerated ``StringSet`` crossed with both ``surely_string``
    flags (``True`` is the more precise claim, so ``True ⊑ False``)."""
    from repro.lint.keys import RESOLUTION_BOUND, KeyValue

    sets = [
        StringSet.bottom(RESOLUTION_BOUND),
        StringSet.top(RESOLUTION_BOUND),
        StringSet.exact("", RESOLUTION_BOUND),
        StringSet.exact("a", RESOLUTION_BOUND),
        StringSet.exact("b", RESOLUTION_BOUND),
        StringSet.exact("ab", RESOLUTION_BOUND),
        StringSet.prefix("a", RESOLUTION_BOUND),
        StringSet.prefix("http://", RESOLUTION_BOUND),
    ]
    return [
        KeyValue(tostr=tostr, surely_string=surely)
        for tostr in sets
        for surely in (True, False)
    ]


def _state_elements() -> list[State]:
    """Small, corner-heavy machine states — several built as COW aliases
    of one another (``copy()`` + mutation), so join/leq run against
    states that literally share persistent-map nodes."""
    x = Var("x", GLOBAL_SCOPE)
    y = Var("y", GLOBAL_SCOPE)
    one = values.from_constant(1.0)
    two = values.from_constant(2.0)

    bottom = State()
    x_one = State()
    x_one.write_var(x, one)
    x_two = State()
    x_two.write_var(x, two)
    x_num = State()
    x_num.write_var(x, values.ANY_NUMBER)

    # COW aliases: grown from x_one's trie, sharing its nodes.
    xy = x_one.copy()
    xy.write_var(y, values.from_constant("a"))
    xy_wide = xy.copy()
    xy_wide.write_var(y, values.ANY_STRING)

    heap_single = State()
    heap_single.heap.allocate(1, AbstractObject())
    heap_summary = heap_single.copy()
    heap_summary.heap.allocate(1, AbstractObject())  # loses singleton-ness
    heap_grown = heap_single.copy()
    heap_grown.heap.allocate(2, AbstractObject())
    heap_grown.write_var(x, one)

    return [
        bottom, x_one, x_two, x_num, xy, xy_wide,
        heap_single, heap_summary, heap_grown,
    ]


def _state_eq(a: State, b: State) -> bool:
    """Semantic state equality: an absent variable entry means "never
    assigned", i.e. an implicit bottom — so explicit-bottom bindings
    (joins can produce them) compare equal to absence, and trie shape
    never matters."""
    def normal(state: State):
        return (
            {
                key: value
                for key, value in state.vars.items()
                if not value.is_bottom
            },
            state.heap.objects,
            state.heap.singletons,
        )

    return normal(a) == normal(b)


def _state_copy_strong_write(state: State) -> State:
    out = state.copy()
    out.write_var(Var("x", GLOBAL_SCOPE), values.ANY_NUMBER, strong=True)
    return out


def _state_copy_weak_write(state: State) -> State:
    # Weak-writes a variable no enumerated element binds: the lattice
    # order reads an absent binding as bottom while the machine reads it
    # as ``undefined``, so a weak write is only monotone across states
    # that agree on whether the variable was ever assigned — which is
    # the only situation the interpreter compares (same program point,
    # same hoisted declarations).
    out = state.copy()
    out.write_var(Var("z", GLOBAL_SCOPE), values.ANY_NUMBER, strong=False)
    return out


def _state_copy_alloc(state: State) -> State:
    out = state.copy()
    out.heap.allocate(9, AbstractObject())
    return out


def _implies(a: bool, b: bool) -> bool:
    return (not a) or b


# ----------------------------------------------------------------------
# Entry points


def run_selfcheck() -> list[DomainCheck]:
    """Check every registered abstract domain; returns one verdict per
    domain (violations listed, never raised)."""
    checks = [
        _LawChecker(
            "prefix",
            _prefix_elements(),
            leq=prefix_domain.Prefix.leq,
            join=prefix_domain.Prefix.join,
            meet=prefix_domain.Prefix.meet,
            bottom=prefix_domain.BOTTOM,
            top=prefix_domain.TOP,
            transfers=[
                Transfer("concat", prefix_domain.Prefix.concat, arity=2),
            ],
        ),
        _LawChecker(
            "bools",
            _bool_elements(),
            leq=bools.AbstractBool.leq,
            join=bools.AbstractBool.join,
            meet=bools.AbstractBool.meet,
            bottom=bools.BOTTOM,
            top=bools.TOP,
            transfers=[Transfer("negate", bools.AbstractBool.negate)],
        ),
        _LawChecker(
            "numbers",
            _number_elements(),
            leq=numbers.AbstractNumber.leq,
            join=numbers.AbstractNumber.join,
            meet=numbers.AbstractNumber.meet,
            eq=_number_eq,
            bottom=numbers.BOTTOM,
            top=numbers.TOP,
            transfers=[
                Transfer(
                    "add",
                    lambda a, b: numbers.binary_op("+", a, b),
                    arity=2,
                    out_leq=lambda a, b: numbers.AbstractNumber.leq(a, b)
                    or _number_eq(a, b),
                ),
                Transfer(
                    "mul",
                    lambda a, b: numbers.binary_op("*", a, b),
                    arity=2,
                    out_leq=lambda a, b: numbers.AbstractNumber.leq(a, b)
                    or _number_eq(a, b),
                ),
            ],
        ),
        _LawChecker(
            "values",
            _value_elements(value_base := _value_base()),
            probes=value_base,
            leq=values.AbstractValue.leq,
            join=values.AbstractValue.join,
            # The reduced product defines no meet; join/order suffice
            # for the interpreter.
            bottom=values.BOTTOM,
            transfers=[
                Transfer(
                    "to_property_name",
                    values.AbstractValue.to_property_name,
                    out_leq=prefix_domain.Prefix.leq,
                ),
                Transfer(
                    "without_addresses", values.AbstractValue.without_addresses
                ),
                Transfer(
                    "restricted_to_objects",
                    values.AbstractValue.restricted_to_objects,
                ),
                Transfer(
                    "may_be_truthy",
                    values.AbstractValue.may_be_truthy,
                    out_leq=_implies,
                ),
                Transfer(
                    "may_be_falsy",
                    values.AbstractValue.may_be_falsy,
                    out_leq=_implies,
                ),
            ],
        ),
        _LawChecker(
            "state",
            _state_elements(),
            leq=State.leq,
            join=State.join,
            eq=_state_eq,
            # The empty state is bottom; there is no finite top (the
            # address space is unbounded) and no meet.
            bottom=State(),
            transfers=[
                Transfer("copy", State.copy),
                Transfer("copy+strong-write", _state_copy_strong_write),
                Transfer("copy+weak-write", _state_copy_weak_write),
                Transfer("copy+alloc", _state_copy_alloc),
            ],
        ),
        _LawChecker(
            "stringset",
            _stringset_elements(),
            leq=StringSet.leq,
            join=StringSet.join,
            meet=StringSet.meet,
            bottom=StringSet.bottom(),
            top=StringSet.top(),
            transfers=[
                Transfer("concat", StringSet.concat, arity=2),
                Transfer(
                    "collapse",
                    StringSet.collapse,
                    out_leq=prefix_domain.Prefix.leq,
                ),
            ],
        ),
    ]
    from repro.lint.keys import (
        KEY_BOTTOM,
        KEY_TOP,
        KeyValue,
        key_plus,
    )

    checks.append(
        _LawChecker(
            "keyvalue",
            _keyvalue_elements(),
            leq=KeyValue.leq,
            join=KeyValue.join,
            meet=KeyValue.meet,
            bottom=KEY_BOTTOM,
            top=KEY_TOP,
            transfers=[
                # The resolver treats `+` as concatenation when either
                # side is surely a string: the fixpoint's soundness
                # needs that evaluation monotone in both operands.
                Transfer("key_plus", key_plus, arity=2),
            ],
        )
    )
    return [checker.run() for checker in checks]


def render_selfcheck(results: list[DomainCheck]) -> str:
    lines = [result.render() for result in results]
    total_checks = sum(result.checks for result in results)
    bad = [result.domain for result in results if not result.ok]
    if bad:
        lines.append(
            f"FAILED: lattice-law violations in {', '.join(bad)} "
            f"({total_checks} checks total)"
        )
    else:
        lines.append(
            f"all {len(results)} domains satisfy their lattice laws "
            f"({total_checks} checks)"
        )
    return "\n".join(lines)
