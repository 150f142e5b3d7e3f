"""A persistent hash-trie map with structure-sharing lattice helpers.

The interpreter threads one abstract state per ``(statement, context)``
node and copies it at every branch; with plain dicts each copy and each
join walks the whole state, which makes the fixpoint quadratic in
program size. :class:`PMap` replaces those dicts with a hash-array-mapped
trie (32-way branching on 5-bit hash chunks, path copying on update):

- ``set`` copies only the O(log n) path to the changed leaf, so a state
  "copy plus one write" allocates a handful of nodes instead of a full
  dict;
- :meth:`merge` and :meth:`leq` recurse structurally and *short-circuit
  on shared subtrees* — two maps that descend from a common ancestor
  agree on most of their nodes, and identical nodes (``a is b``) need no
  work at all. A merge that adds nothing returns ``self`` (the same
  object), preserving the identity-based "nothing changed" fixpoint test
  used throughout the domains.

The value-level combine/compare functions are passed in by the caller
(:mod:`repro.domains.state`, :mod:`repro.domains.heap`), so this module
stays lattice-agnostic. Hashes are masked to 32 bits (max trie depth 7);
full-hash collisions are handled by dedicated collision nodes, so the
map is correct for any hashable keys.
"""

from __future__ import annotations

import weakref
from typing import Any, Callable, Iterator

_BITS = 5
_MASK = 31
_HASH_MASK = 0xFFFFFFFF

_SENTINEL = object()


class _BitmapNode:
    """Interior (and root) node: up to 32 slots, present slots flagged in
    ``bitmap``. A slot is either a ``(key, value)`` 2-tuple (leaf entry)
    or a child node. Weakly referenceable, so a merge memo entry can
    go as soon as one of its operand nodes does."""

    __slots__ = ("bitmap", "items", "__weakref__")

    def __init__(self, bitmap: int, items: list) -> None:
        self.bitmap = bitmap
        self.items = items


class _CollisionNode:
    """All entries whose keys share one full 32-bit hash."""

    __slots__ = ("hash", "pairs")

    def __init__(self, hash_: int, pairs: tuple) -> None:
        self.hash = hash_
        self.pairs = pairs


_EMPTY_ROOT = _BitmapNode(0, [])

# Memo table for structural merge, keyed on the identities of the
# operand nodes: ``(id(a), id(b), combine)``. States at a fixpoint are
# re-joined with the same operands every round (the stored trie and the
# incoming trie stabilize to fixed objects even when they do not
# literally share nodes), so caching per node pair turns those
# re-verification walks into O(1) lookups — and, because the memo works
# per subtree, a merge after a localized change only re-walks the
# changed region.
#
# The memo holds only live facts. An entry keeps a weak reference to
# each operand, and the first operand to die removes the entry
# (:func:`_forget`): a dead node can never be an operand again, so no
# later merge could hit it, and most operands are transient tries that
# die within a few steps. Weak references are cleared before a node's
# memory can be reused, so a live key can never name a different node
# pair. A result that *is* one of the operands is stored as a marker,
# not as a reference, so the memo never keeps an operand alive. The
# value is ``(result, changed, ref_a, ref_b)``. Since dead entries go at
# once, the live ones stay far below ``_MEMO_LIMIT`` on every measured
# program (at most 20,747, on ``flat256``); the limit is only a memory
# bound, and a memo that reaches it is cleared. Never a correctness
# issue — only a perf miss. Each analysis builds fresh tries, so no
# entry can hit in a later one: analyses drop the memo when they end
# (:func:`drop_merge_memo`).
_MERGE_MEMO: dict = {}
# Live entries at most. A sweep of 2^10..2^17 (DESIGN.md, "State
# representation: memo lifetime") found no smaller size that saves
# memory without costing P1 time.
_MEMO_LIMIT = 1 << 17

#: Memo results standing for the merge's own ``a`` / ``b`` operand.
_RESULT_A = object()
_RESULT_B = object()


class _OperandRef(weakref.ref):
    """A memo entry's weak reference to one operand; ``key`` names the
    entry its death removes."""

    __slots__ = ("key",)
    key: tuple


def _forget(ref: _OperandRef) -> None:
    """Weak-reference callback: an operand died, so its entry can never
    hit again. The entry owns both references, so only the first
    operand to die gets here."""
    _MERGE_MEMO.pop(ref.key, None)


def drop_merge_memo() -> None:
    """Forget every memoized merge."""
    _MERGE_MEMO.clear()


def _key_hash(key: Any) -> int:
    return hash(key) & _HASH_MASK


def _entries(slot) -> Iterator[tuple]:
    """All (key, value) pairs under a slot, in trie order."""
    if type(slot) is tuple:
        yield slot
    elif type(slot) is _CollisionNode:
        yield from slot.pairs
    else:
        for child in slot.items:
            yield from _entries(child)


_FLIPPED_COMBINES: dict = {}


def _combine_flipped(combine):
    """``combine`` with its arguments swapped, cached per function so
    grafting a leaf into the other side's subtree (which reverses the
    existing/incoming roles) keeps the caller's argument order."""
    flipped = _FLIPPED_COMBINES.get(combine)
    if flipped is None:
        def flipped(existing, incoming, _combine=combine):
            return _combine(incoming, existing)

        _FLIPPED_COMBINES[combine] = flipped
    return flipped


def _pair_node(shift: int, h1: int, leaf1: tuple, h2: int, leaf2: tuple):
    """The smallest subtree holding two leaves with distinct keys."""
    if h1 == h2:
        return _CollisionNode(h1, (leaf1, leaf2))
    f1 = (h1 >> shift) & _MASK
    f2 = (h2 >> shift) & _MASK
    if f1 == f2:
        return _BitmapNode(1 << f1, [_pair_node(shift + _BITS, h1, leaf1, h2, leaf2)])
    if f1 < f2:
        return _BitmapNode((1 << f1) | (1 << f2), [leaf1, leaf2])
    return _BitmapNode((1 << f1) | (1 << f2), [leaf2, leaf1])


def _set_merged(slot, shift: int, h: int, key, value, combine):
    """Insert ``key`` under ``slot``; on conflict store
    ``combine(existing, value)``. Returns ``(slot', added)`` where
    ``added`` counts new keys; ``slot' is slot`` means nothing changed."""
    kind = type(slot)
    if kind is tuple:
        k, v = slot
        if k == key:
            merged = combine(v, value)
            if merged is v:
                return slot, 0
            return (key, merged), 0
        return _pair_node(shift, _key_hash(k), slot, h, (key, value)), 1
    if kind is _CollisionNode:
        if slot.hash != h:
            lifted = _BitmapNode(1 << ((slot.hash >> shift) & _MASK), [slot])
            return _set_merged(lifted, shift, h, key, value, combine)
        for index, (k, v) in enumerate(slot.pairs):
            if k == key:
                merged = combine(v, value)
                if merged is v:
                    return slot, 0
                pairs = list(slot.pairs)
                pairs[index] = (key, merged)
                return _CollisionNode(h, tuple(pairs)), 0
        return _CollisionNode(h, slot.pairs + ((key, value),)), 1
    bitmap = slot.bitmap
    bit = 1 << ((h >> shift) & _MASK)
    index = (bitmap & (bit - 1)).bit_count()
    if not bitmap & bit:
        items = list(slot.items)
        items.insert(index, (key, value))
        return _BitmapNode(bitmap | bit, items), 1
    child = slot.items[index]
    new_child, added = _set_merged(child, shift + _BITS, h, key, value, combine)
    if new_child is child:
        return slot, 0
    items = list(slot.items)
    items[index] = new_child
    return _BitmapNode(bitmap, items), added


def _merge(a, b, shift: int, combine):
    """Merge slot ``b`` into slot ``a`` (values combined with
    ``combine(a_value, b_value)`` on shared keys). Returns
    ``(merged, changed)`` where ``changed`` means the merged content
    strictly exceeds ``a``'s — the semantic "did the join add anything"
    test the fixpoint loop needs.

    Node reuse is deliberate and asymmetric: when the result equals both
    sides, the *b* node is returned (*adoption*). The stored state at a
    CFG node is repeatedly re-joined with states derived from its
    predecessors; adopting the incoming side's nodes makes the stored
    trie converge to literal sharing with those predecessors, so the
    next round's merge short-circuits on ``a is b`` instead of walking
    two equal-but-disjoint trees forever."""
    if a is b:
        return a, False
    type_a = type(a)
    type_b = type(b)
    if type_a is tuple and type_b is tuple:
        if a[0] == b[0]:
            av = a[1]
            bv = b[1]
            merged = combine(av, bv)
            if merged is av:
                # Interchangeable leaves (interning made equal values
                # identical): prefer b's tuple — adoption.
                return (b, False) if bv is av else (a, False)
            if merged is bv:
                return b, True
            return (a[0], merged), True
        return _pair_node(shift, _key_hash(a[0]), a, _key_hash(b[0]), b), True
    if type_a is _BitmapNode and type_b is _BitmapNode:
        memo_key = (id(a), id(b), combine)
        hit = _MERGE_MEMO.get(memo_key)
        if hit is not None:
            result = hit[0]
            if result is _RESULT_A:
                return a, hit[1]
            if result is _RESULT_B:
                return b, hit[1]
            return result, hit[1]
        abm = a.bitmap
        bbm = b.bitmap
        union = abm | bbm
        items = []
        changed = False
        keep_a = True  # every produced slot is a's own slot
        adopt_b = union == bbm  # candidate: every produced slot is b's
        remaining = union
        while remaining:
            bit = remaining & -remaining
            remaining ^= bit
            if abm & bit:
                slot_a = a.items[(abm & (bit - 1)).bit_count()]
                if bbm & bit:
                    slot_b = b.items[(bbm & (bit - 1)).bit_count()]
                    merged, child_changed = _merge(
                        slot_a, slot_b, shift + _BITS, combine
                    )
                    if child_changed:
                        changed = True
                    if merged is not slot_a:
                        keep_a = False
                    if adopt_b and merged is not slot_b:
                        adopt_b = False
                    items.append(merged)
                else:
                    adopt_b = False
                    items.append(slot_a)
            else:
                keep_a = False
                changed = True
                items.append(b.items[(bbm & (bit - 1)).bit_count()])
        if keep_a:
            result = a
            stored = _RESULT_A
        elif adopt_b:
            result = b
            stored = _RESULT_B
        else:
            result = stored = _BitmapNode(union, items)
        if len(_MERGE_MEMO) >= _MEMO_LIMIT:
            _MERGE_MEMO.clear()
        ref_a = _OperandRef(a, _forget)
        ref_a.key = memo_key
        ref_b = _OperandRef(b, _forget)
        ref_b.key = memo_key
        _MERGE_MEMO[memo_key] = (stored, changed, ref_a, ref_b)
        return result, changed
    if type_a is tuple and type_b is _BitmapNode:
        # Single leaf vs subtree: graft the leaf into b's structure
        # instead of rebuilding b entry by entry — b keeps its nodes
        # (adoption), and since b holds at least two keys the result
        # always exceeds the one-key side.
        result, _added = _set_merged(
            b, shift, _key_hash(a[0]), a[0], a[1], _combine_flipped(combine)
        )
        return result, True
    # Remaining mixed shapes (collision nodes and their lifts) are rare:
    # fold b's entries in one by one. ``_set_merged`` is
    # identity-preserving, so "result moved" is exactly "content grew".
    result = a
    for key, value in _entries(b):
        result, _added = _set_merged(
            result, shift, _key_hash(key), key, value, combine
        )
    return result, result is not a


def _get_in(slot, shift: int, h: int, key, default):
    while True:
        kind = type(slot)
        if kind is tuple:
            return slot[1] if slot[0] == key else default
        if kind is _CollisionNode:
            for k, v in slot.pairs:
                if k == key:
                    return v
            return default
        bitmap = slot.bitmap
        bit = 1 << ((h >> shift) & _MASK)
        if not bitmap & bit:
            return default
        slot = slot.items[(bitmap & (bit - 1)).bit_count()]
        shift += _BITS


def _leq(a, b, shift: int, leq_values, absent_ok) -> bool:
    """Is every entry of ``a`` bounded by ``b``? ``leq_values(va, vb)``
    compares shared keys; ``absent_ok(va)`` rules on keys ``b`` lacks.
    Shared subtrees compare in O(1)."""
    if a is b:
        return True
    if type(a) is _BitmapNode and type(b) is _BitmapNode:
        abm = a.bitmap
        bbm = b.bitmap
        remaining = abm
        while remaining:
            bit = remaining & -remaining
            remaining ^= bit
            slot_a = a.items[(abm & (bit - 1)).bit_count()]
            if bbm & bit:
                if not _leq(
                    slot_a,
                    b.items[(bbm & (bit - 1)).bit_count()],
                    shift + _BITS,
                    leq_values,
                    absent_ok,
                ):
                    return False
            elif not all(absent_ok(value) for _key, value in _entries(slot_a)):
                return False
        return True
    for key, value in _entries(a):
        bound = _get_in(b, shift, _key_hash(key), key, _SENTINEL)
        if bound is _SENTINEL:
            if not absent_ok(value):
                return False
        elif bound is not value and not leq_values(value, bound):
            return False
    return True


class PMap:
    """An immutable map. All "mutators" return a new map sharing
    structure with the old one; an update that changes nothing returns
    ``self`` itself, so callers can use ``is`` as their change test."""

    __slots__ = ("_root", "_size")

    def __init__(self, _root=_EMPTY_ROOT, _size: int | None = 0) -> None:
        self._root = _root
        # ``None`` = not yet counted (merge results defer the count: most
        # are never asked for their length).
        self._size = _size

    @classmethod
    def from_dict(cls, mapping: dict) -> "PMap":
        result = cls()
        for key, value in mapping.items():
            result = result.set(key, value)
        return result

    # -- reads ---------------------------------------------------------

    def get(self, key, default=None):
        return _get_in(self._root, 0, _key_hash(key), key, default)

    def __getitem__(self, key):
        value = _get_in(self._root, 0, _key_hash(key), key, _SENTINEL)
        if value is _SENTINEL:
            raise KeyError(key)
        return value

    def __contains__(self, key) -> bool:
        return _get_in(self._root, 0, _key_hash(key), key, _SENTINEL) is not _SENTINEL

    def __len__(self) -> int:
        if self._size is None:
            self._size = sum(1 for _ in _entries(self._root))
        return self._size

    def __iter__(self):
        for key, _value in _entries(self._root):
            yield key

    def keys(self):
        return iter(self)

    def items(self) -> Iterator[tuple]:
        return _entries(self._root)

    def values(self):
        for _key, value in _entries(self._root):
            yield value

    def to_dict(self) -> dict:
        return dict(_entries(self._root))

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if isinstance(other, PMap):
            if len(self) != len(other):
                return False
            other = other.to_dict()
        if isinstance(other, dict):
            if len(other) != len(self):
                return False
            return all(
                other.get(key, _SENTINEL) == value for key, value in self.items()
            )
        return NotImplemented

    def __hash__(self):  # pragma: no cover - maps are not hashed
        raise TypeError("PMap is not hashable")

    def __repr__(self) -> str:
        return f"PMap({self.to_dict()!r})"

    # -- updates -------------------------------------------------------

    def set(self, key, value) -> "PMap":
        root, added = _set_merged(
            self._root, 0, _key_hash(key), key, value, _replace
        )
        if root is self._root:
            return self
        size = None if self._size is None else self._size + added
        return PMap(root, size)

    def merge_changed(self, other: "PMap", combine: Callable) -> tuple["PMap", bool]:
        """Join-style merge: keys of both maps, shared keys combined via
        ``combine(self_value, other_value)``. Returns ``(merged,
        changed)`` — ``changed`` is the semantic "did ``other`` add
        anything" test. Even when nothing changed, the returned map may
        be a *different object* whose trie has adopted ``other``'s nodes
        (see :func:`_merge`); callers that keep the result make future
        merges against ``other``-derived maps O(shared prefix)."""
        if self._root is other._root:
            return self, False
        root, changed = _merge(self._root, other._root, 0, combine)
        if root is self._root:
            return self, changed
        if root is other._root:
            return other, changed
        return PMap(root, None), changed

    def merge(self, other: "PMap", combine: Callable) -> "PMap":
        """:meth:`merge_changed` under the classic identity contract:
        returns ``self`` (the same object) when ``other`` adds
        nothing."""
        merged, changed = self.merge_changed(other, combine)
        return merged if changed else self

    def leq(self, other: "PMap", leq_values: Callable, absent_ok: Callable) -> bool:
        return _leq(self._root, other._root, 0, leq_values, absent_ok)


def _replace(_old, new):
    return new


EMPTY = PMap()
