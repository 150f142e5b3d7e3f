"""Signature diffing: classify what an addon update changed.

The paper's vetting workflow (Section 4) checks a signature once at
first submission and then *re*-checks it on every update. At that point
the interesting question is never "what is the signature?" but "what
changed since the version I approved?". :func:`diff_signatures` answers
it by classifying every entry of the new signature against the approved
one under the signature lattice order (:func:`repro.signatures.compare
.entry_covers`), never under string equality:

- **unchanged** — the exact entry is already in the approved signature;
- **narrowed** — same source/sink (or API), but the new claim sits
  strictly *below* the approved one (weaker flow type, or a prefix
  domain with ``new ⊑ old`` — e.g. ``stats...`` tightened to
  ``stats.example.com``): the update claims less than what was already
  approved;
- **widened** — same source/sink, but the new claim is *not covered* by
  the approved one (stronger flow type, ``old ⊑ new`` in the prefix
  lattice, or an incomparable domain such as ``a.com`` → ``b.com``):
  the approval does not extend to it;
- **new-flow** — a source/sink (or API) pair the approved signature
  never mentioned;
- **removed-flow** — an approved source/sink pair the update no longer
  exhibits.

The verdict is the vetting-queue routing decision: ``approve`` when
nothing widened and nothing is new (the approved review still covers
every claim), ``re-review`` otherwise — with the widened/new entries
listed so the reviewer can ask for :func:`repro.signatures.explain
.explain_flow` witnesses.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.signatures.compare import classify_entry_change, entry_key
from repro.signatures.signature import Entry, FlowEntry, Signature

#: The closed set of change classes, in display order.
CHANGE_KINDS = ("unchanged", "narrowed", "widened", "new-flow", "removed-flow")

#: Change classes that invalidate a previous approval.
REVIEW_KINDS = frozenset({"widened", "new-flow"})


@dataclass(frozen=True)
class EntryChange:
    """One classified entry change between two signature versions."""

    kind: str
    old: Entry | None = None
    new: Entry | None = None

    @property
    def needs_review(self) -> bool:
        return self.kind in REVIEW_KINDS

    def render(self) -> str:
        if self.kind == "unchanged":
            assert self.new is not None
            return f"unchanged:    {self.new.render()}"
        if self.kind == "new-flow":
            assert self.new is not None
            return f"new-flow:     {self.new.render()}"
        if self.kind == "removed-flow":
            assert self.old is not None
            return f"removed-flow: {self.old.render()}"
        assert self.old is not None and self.new is not None
        return (
            f"{self.kind}:{' ' * (13 - len(self.kind) - 1)}"
            f"{self.old.render()}  =>  {self.new.render()}"
        )

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "old": self.old.render() if self.old is not None else None,
            "new": self.new.render() if self.new is not None else None,
        }


@dataclass
class SignatureDiff:
    """The full classification of one version-to-version signature change."""

    changes: list[EntryChange] = field(default_factory=list)

    def of_kind(self, kind: str) -> list[EntryChange]:
        return [change for change in self.changes if change.kind == kind]

    @property
    def counts(self) -> dict[str, int]:
        counts = {kind: 0 for kind in CHANGE_KINDS}
        for change in self.changes:
            counts[change.kind] += 1
        return counts

    @property
    def review_entries(self) -> list[Entry]:
        """The new-version entries a reviewer must look at (widened or
        brand new), in deterministic order."""
        entries = [
            change.new
            for change in self.changes
            if change.needs_review and change.new is not None
        ]
        return sorted(entries, key=lambda entry: entry.render())

    @property
    def review_flows(self) -> list[FlowEntry]:
        return [e for e in self.review_entries if isinstance(e, FlowEntry)]

    @property
    def verdict(self) -> str:
        """``approve`` when the previous approval still covers every
        claim of the new signature; ``re-review`` otherwise."""
        return "re-review" if any(c.needs_review for c in self.changes) else "approve"

    def render(self) -> str:
        lines = [f"diff verdict: {self.verdict}"]
        for kind in CHANGE_KINDS:
            for change in sorted(
                self.of_kind(kind), key=lambda c: c.render()
            ):
                lines.append(f"  {change.render()}")
        return "\n".join(lines)

    def to_json(self) -> dict:
        return {
            "verdict": self.verdict,
            "counts": self.counts,
            "changes": [change.to_json() for change in self.changes],
        }


def diff_signatures(old: Signature, new: Signature) -> SignatureDiff:
    """Classify every entry change from ``old`` (the approved version's
    signature) to ``new`` (the update's), under the default flow-type
    lattice.

    Prefix-domain network entries are compared under the prefix order
    ``⊑`` via :func:`repro.signatures.compare.entry_covers` — never
    under string equality — so a domain generalized from
    ``stats.example.com`` to ``stats...`` is a *widening* of the same
    entry, not a removal plus a new flow.
    """
    old_by_key: dict[tuple, set[Entry]] = {}
    for entry in old.entries:
        old_by_key.setdefault(entry_key(entry), set()).add(entry)
    new_keys: set[tuple] = set()

    changes: list[EntryChange] = []
    for entry in sorted(new.entries, key=lambda e: e.render()):
        key = entry_key(entry)
        new_keys.add(key)
        previous = old_by_key.get(key)
        if not previous:
            changes.append(EntryChange(kind="new-flow", new=entry))
            continue
        kind = classify_entry_change(previous, entry)
        counterpart = _closest(previous, entry)
        changes.append(EntryChange(kind=kind, old=counterpart, new=entry))

    for key, previous in sorted(old_by_key.items()):
        if key in new_keys:
            continue
        for entry in sorted(previous, key=lambda e: e.render()):
            changes.append(EntryChange(kind="removed-flow", old=entry))
    return SignatureDiff(changes=changes)


def _closest(candidates: set[Entry], entry: Entry) -> Entry:
    """The old-version entry to display against ``entry``: itself when
    unchanged, else a covering entry when one exists, else any same-key
    entry (deterministically the first in render order)."""
    from repro.signatures.compare import entry_covers

    if entry in candidates:
        return entry
    ordered = sorted(candidates, key=lambda e: e.render())
    for candidate in ordered:
        if entry_covers(candidate, entry):
            return candidate
    return ordered[0]
