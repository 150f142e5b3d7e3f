"""``repro.corpusgen``: the seeded, verdict-carrying addon generator.

Emits store-scale corpora — single-file addons and multi-file
WebExtension bundles — where **every addon ships with its expected
verdict**: the exact signature the pipeline must infer for it. That
turns throughput benchmarks into soundness checks: the fleet harness
(:mod:`repro.corpusgen.fleet`) vets thousands of generated addons and
requires zero signature mismatches while it measures addons/s, cache,
prefilter and incremental hit rates, and peak RSS.

Generation is **deterministic per (seed, index)**: addon ``i`` of seed
``s`` is the same bytes on every machine and under any sharding, so a
mismatch in a fleet run is reproducible from its name alone.

Two mutation families refine a generated blueprint:

- **verdict-preserving** (``rename`` fresh identifiers, ``dead-code``
  churn, ``reorder`` of independent fragments) — the expected signature
  is *bit-identical* after the mutation (hypothesis-proven in
  ``tests/corpusgen``);
- **verdict-changing** (``inject-flow``, ``remove-flow``, and for
  bundles ``add-guard`` / ``strip-guard``) — each is tagged with its
  expected signature delta, and :func:`generate_updates` pairs an old
  and new version to derive the expected differential-vetting
  classification (``approve-fast``/``approve`` for preserving or
  narrowing mutations, ``re-review`` for widening ones).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace

from repro.corpusgen.fragments import (
    BENIGN_KINDS,
    FLOW_KINDS,
    FRAGMENTS,
    BundleTemplate,
    FragmentInstance,
    build_fragment,
    dead_code_block,
)

#: Identifier stems for generated names; the per-blueprint counter makes
#: every drawn name unique, so fragments can never capture each other's
#: variables (the composition property rests on this).
_NAME_STEMS = ("acc", "buf", "reg", "mix", "tot", "aux", "seq", "box")

#: Sink hosts; the path suffix keeps every domain prefix distinct.
_SINK_HOSTS = (
    "https://stats.corpus.example/v%d?u=",
    "https://collect.corpus.example/r%d?d=",
    "https://sink.corpus.example/x%d?p=",
    "https://beacon.corpus.example/b%d?q=",
)

#: Diffvet classifications a mutation class may legitimately produce.
PRESERVING_VERDICTS = ("approve", "approve-fast")
NARROWING_VERDICTS = ("approve",)
WIDENING_VERDICTS = ("re-review",)

#: The fast lane's default cost gate (see ``repro.batch``); update-chain
#: bases are padded past it so certification is attempted — which is
#: what lets a 1k fleet finally amortize the certificate's cost.
_GATE_CHARS = 4096


# ----------------------------------------------------------------------
# Blueprints


@dataclass(frozen=True)
class Blueprint:
    """The mutable-by-replacement recipe for one single-file addon."""

    fragments: tuple[FragmentInstance, ...]
    #: Interleaved dead-code blocks (position ``i`` renders before
    #: fragment ``i``; the tail block renders last).
    dead: tuple[str, ...]
    next_id: int  #: name-counter high-water mark (rename draws above it)

    def render(self) -> str:
        pieces: list[str] = []
        for index, fragment in enumerate(self.fragments):
            if index < len(self.dead):
                pieces.append(self.dead[index])
            pieces.append(fragment.text)
        pieces.extend(self.dead[len(self.fragments):])
        return "".join(pieces)

    def expected_entries(self) -> tuple[str, ...]:
        return tuple(
            sorted({entry for f in self.fragments for entry in f.entries})
        )


@dataclass(frozen=True)
class GeneratedAddon:
    """One generated addon and its expected verdict."""

    name: str
    kind: str  #: ``single`` | ``bundle``
    source: str
    #: The exact ``Signature.render()`` text the pipeline must produce.
    expected_signature: str
    expected_entries: tuple[str, ...]
    seed: int
    index: int
    fragments: tuple[str, ...]
    mutations: tuple[str, ...] = ()
    dynamic: bool = False  #: contains dynamic code (prefilter-refused)


@dataclass(frozen=True)
class GeneratedUpdate:
    """An old/new version pair with its expected diffvet classification."""

    name: str
    old_source: str
    new_source: str
    old_expected: str
    new_expected: str
    mutation: str
    #: The acceptable ``diff_verdict`` values for this mutation class.
    expected_verdicts: tuple[str, ...]
    kind: str = "single"


def expected_signature_text(entries: tuple[str, ...]) -> str:
    """Entries -> the canonical ``Signature.render()`` text."""
    return "\n".join(sorted(entries))


# ----------------------------------------------------------------------
# Drawing helpers


class _Names:
    """A unique-name tap over a blueprint's counter."""

    def __init__(self, rng: random.Random, start: int = 0) -> None:
        self.rng = rng
        self.counter = start

    def draw(self, count: int) -> tuple[str, ...]:
        drawn = []
        for _ in range(count):
            stem = self.rng.choice(_NAME_STEMS)
            drawn.append(f"{stem}{self.counter}")
            self.counter += 1
        return tuple(drawn)


def _draw_domain(rng: random.Random) -> str:
    return rng.choice(_SINK_HOSTS) % rng.randrange(1000)


def _draw_fragment(
    rng: random.Random, names: _Names, kinds: tuple[str, ...],
    present_groups: set[str],
) -> FragmentInstance | None:
    """Draw one fragment whose conflict group is compatible with what
    the blueprint already holds (location writers never meet location
    readers — or each other)."""
    allowed = []
    for kind in kinds:
        group = FRAGMENTS[kind][0].group
        if group == "location-write" and (
            "location-write" in present_groups or "location-read" in present_groups
        ):
            continue
        if group == "location-read" and "location-write" in present_groups:
            continue
        allowed.append(kind)
    if not allowed:
        return None
    kind = rng.choice(allowed)
    spec = FRAGMENTS[kind][0]
    return build_fragment(
        kind,
        names.draw(spec.arity),
        _draw_domain(rng) if spec.needs_domain else None,
    )


def _draw_blueprint(
    rng: random.Random,
    *,
    allow_dynamic: bool = True,
    min_flows: int = 0,
    pad_to: int = 0,
) -> Blueprint:
    """Draw one single-file blueprint: 1-4 fragments plus dead weight."""
    names = _Names(rng)
    flow_pool = tuple(
        k for k in FLOW_KINDS if allow_dynamic or not FRAGMENTS[k][0].dynamic
    )
    flow_count = max(min_flows, rng.choice((0, 0, 1, 1, 2, 3)))
    benign_count = rng.randrange(0 if flow_count else 1, 3)
    fragments: list[FragmentInstance] = []
    groups: set[str] = set()
    for _ in range(flow_count):
        fragment = _draw_fragment(rng, names, flow_pool, groups)
        if fragment is None:
            continue
        fragments.append(fragment)
        if fragment.group:
            groups.add(fragment.group)
    for _ in range(benign_count):
        fragment = _draw_fragment(rng, names, BENIGN_KINDS, groups)
        if fragment is not None:
            fragments.append(fragment)
    rng.shuffle(fragments)
    dead = [
        dead_code_block(names.draw(2), rng.randrange(10_000))
        for _ in range(rng.randrange(0, 3))
    ]
    # Analysis-heavy padding: alternate benign loops (which cost the
    # interpreter fixpoint iterations while parsing stays linear) with
    # dead-weight blocks (churn material). Loop-dominated bases make
    # full re-analysis decisively more expensive than the certificate's
    # two-parse cost — measured ~120ms saved per certificate hit vs
    # ~21ms per miss — which is what lets the fast lane amortize at
    # fleet scale (pure straight-line padding breaks even at best).
    # Rendering concatenates every piece, so a running length stands in
    # for re-rendering the base per block.
    length = sum(len(f.text) for f in fragments) + sum(map(len, dead)) if pad_to else 0
    toggle = False
    while length < pad_to:
        if toggle:
            dead.append(dead_code_block(names.draw(2), rng.randrange(10_000)))
            length += len(dead[-1])
        else:
            fragments.append(build_fragment("benign-loop", names.draw(2), None))
            length += len(fragments[-1].text)
        toggle = not toggle
    # Padded (update-chain) bases guarantee a non-empty dead-block
    # *tail*: with len(dead) > len(fragments) the trailing blocks render
    # after every fragment, giving tail-only dead-code churn (see
    # :func:`mutate_dead_code`) a certifiable place to land.
    while pad_to and len(dead) <= len(fragments):
        dead.append(dead_code_block(names.draw(2), rng.randrange(10_000)))
    return Blueprint(tuple(fragments), tuple(dead), names.counter)


# ----------------------------------------------------------------------
# Verdict-preserving mutations (bit-identical expected signature)


def mutate_rename(blueprint: Blueprint, rng: random.Random) -> Blueprint:
    """Re-draw every generator-owned identifier (fresh unique names).

    Signature-preserving because generated names never reach the spec
    surface: sources, sinks, and domains are untouched."""
    names = _Names(rng, start=blueprint.next_id)
    renamed = tuple(
        build_fragment(f.kind, names.draw(len(f.names)), f.domain)
        for f in blueprint.fragments
    )
    dead = tuple(
        dead_code_block(names.draw(2), rng.randrange(10_000))
        for _ in blueprint.dead
    )
    return Blueprint(renamed, dead, names.counter)


def mutate_dead_code(blueprint: Blueprint, rng: random.Random) -> Blueprint:
    """Churn the dead-weight blocks: add one, drop one, or rewrite one —
    always in the *tail* region (blocks rendering after every fragment).

    Signature-preserving because dead blocks touch only their own fresh
    names and never call anything. Tail-only because
    :meth:`Blueprint.render` interleaves dead blocks by index (block
    ``i`` renders before fragment ``i``): adding or dropping a block
    there moves every later block next to a different fragment. The
    change-surface certificate aligns top-level statements with
    :class:`difflib.SequenceMatcher`, and across such a shift the
    alignment reports fragments as changed; the padding fragments are
    loops, so the certificate (soundly) refuses. Tail churn leaves every
    earlier statement in place, so the changed region is straight-line
    dead code, which is what makes churn-only update pairs
    certifiable."""
    names = _Names(rng, start=blueprint.next_id)
    dead = list(blueprint.dead)
    tail_start = len(blueprint.fragments)
    tail = len(dead) - tail_start
    action = rng.choice(("add", "drop", "rewrite")) if tail > 0 else "add"
    if action == "add":
        dead.append(dead_code_block(names.draw(2), rng.randrange(10_000)))
    elif action == "drop":
        dead.pop(tail_start + rng.randrange(tail))
    else:
        dead[tail_start + rng.randrange(tail)] = dead_code_block(
            names.draw(2), rng.randrange(10_000)
        )
    return Blueprint(blueprint.fragments, tuple(dead), names.counter)


def mutate_reorder(blueprint: Blueprint, rng: random.Random) -> Blueprint:
    """Shuffle the independent top-level fragments.

    Signature-preserving because fragments are name-isolated and the
    generator never co-locates location writers with location readers
    (the one ordering-sensitive pair)."""
    fragments = list(blueprint.fragments)
    rng.shuffle(fragments)
    return replace(blueprint, fragments=tuple(fragments))


PRESERVING_MUTATIONS = {
    "rename": mutate_rename,
    "dead-code": mutate_dead_code,
    "reorder": mutate_reorder,
}


# ----------------------------------------------------------------------
# Verdict-changing mutations (tagged signature delta)


@dataclass(frozen=True)
class Delta:
    """A verdict-changing mutation's outcome: the new blueprint plus the
    exact entries it added/removed (the expected signature delta)."""

    blueprint: Blueprint
    added: tuple[str, ...]
    removed: tuple[str, ...]
    mutation: str


def mutate_inject_flow(
    blueprint: Blueprint, rng: random.Random, *, allow_dynamic: bool = True
) -> Delta | None:
    """Append a fresh source->sink flow; the delta is its entries."""
    names = _Names(rng, start=blueprint.next_id)
    groups = {f.group for f in blueprint.fragments if f.group}
    pool = tuple(
        k for k in FLOW_KINDS if allow_dynamic or not FRAGMENTS[k][0].dynamic
    )
    fragment = _draw_fragment(rng, names, pool, groups)
    if fragment is None:
        return None
    before = set(blueprint.expected_entries())
    mutated = Blueprint(
        blueprint.fragments + (fragment,), blueprint.dead, names.counter
    )
    added = tuple(sorted(set(mutated.expected_entries()) - before))
    return Delta(mutated, added, (), "inject-flow")


def mutate_remove_flow(blueprint: Blueprint, rng: random.Random) -> Delta | None:
    """Drop one flow fragment; the delta is whatever entries vanish
    (computed set-wise: another fragment may pin the same entry)."""
    flow_positions = [
        index for index, f in enumerate(blueprint.fragments) if f.entries
    ]
    if not flow_positions:
        return None
    position = rng.choice(flow_positions)
    before = set(blueprint.expected_entries())
    fragments = (
        blueprint.fragments[:position] + blueprint.fragments[position + 1:]
    )
    mutated = replace(blueprint, fragments=fragments)
    removed = tuple(sorted(before - set(mutated.expected_entries())))
    return Delta(mutated, (), removed, "remove-flow")


# ----------------------------------------------------------------------
# Corpus generation


def _rng_for(seed: int, index: int, salt: str = "") -> random.Random:
    return random.Random(f"corpusgen:{seed}:{index}:{salt}")


def _generate_single(seed: int, index: int) -> GeneratedAddon:
    rng = _rng_for(seed, index)
    blueprint = _draw_blueprint(rng)
    mutations: list[str] = []
    for _ in range(rng.randrange(0, 3)):
        name = rng.choice(sorted(PRESERVING_MUTATIONS))
        blueprint = PRESERVING_MUTATIONS[name](blueprint, rng)
        mutations.append(name)
    entries = blueprint.expected_entries()
    return GeneratedAddon(
        name=f"gen-{seed}-{index:05d}",
        kind="single",
        source=blueprint.render(),
        expected_signature=expected_signature_text(entries),
        expected_entries=entries,
        seed=seed,
        index=index,
        fragments=tuple(f.kind for f in blueprint.fragments),
        mutations=tuple(mutations),
        dynamic=any(f.dynamic for f in blueprint.fragments),
    )


def _draw_bundle(rng: random.Random, name: str) -> BundleTemplate:
    # 0.4 keeps the fleet's benign fraction (and with it the prefilter
    # hit-rate floor the bench gates on) just above one third at scale.
    benign = rng.random() < 0.4
    names = _Names(rng, start=500)
    extra = tuple(
        "var %s = %d;\n" % (names.draw(1)[0], rng.randrange(50))
        for _ in range(rng.randrange(0, 3))
    )
    padding = []
    for path in ("bg.js", "c0.js"):
        if rng.random() < 0.5:
            padding.append((path, dead_code_block(names.draw(2), rng.randrange(10_000))))
    return BundleTemplate(
        domain=_draw_domain(rng),
        guarded=(not benign) and rng.random() < 0.5,
        extra_content=extra,
        padding=tuple(padding),
        benign=benign,
        name=name,
    )


def _generate_bundle(seed: int, index: int) -> GeneratedAddon:
    rng = _rng_for(seed, index, "bundle")
    name = f"gen-{seed}-{index:05d}"
    template = _draw_bundle(rng, name)
    entries = tuple(sorted(template.entries()))
    return GeneratedAddon(
        name=name,
        kind="bundle",
        source=template.to_source(),
        expected_signature=expected_signature_text(entries),
        expected_entries=entries,
        seed=seed,
        index=index,
        fragments=("bundle-benign",) if template.benign else (
            ("bundle-cookie-exfil-guarded",)
            if template.guarded else ("bundle-cookie-exfil",)
        ),
        mutations=(),
    )


def generate_addon(
    seed: int, index: int, *, bundle_fraction: float = 0.25
) -> GeneratedAddon:
    """Addon ``index`` of seed ``seed`` — deterministic, shard-stable."""
    rng = _rng_for(seed, index, "route")
    if rng.random() < bundle_fraction:
        return _generate_bundle(seed, index)
    return _generate_single(seed, index)


def generate_corpus(
    count: int, seed: int = 0, *, bundle_fraction: float = 0.25
) -> list[GeneratedAddon]:
    """The fleet corpus: ``count`` addons, deterministic in ``seed``."""
    return [
        generate_addon(seed, index, bundle_fraction=bundle_fraction)
        for index in range(count)
    ]


# ----------------------------------------------------------------------
# Update chains


def _update_single(seed: int, index: int) -> GeneratedUpdate:
    rng = _rng_for(seed, index, "update")
    # Dynamic code is kept out of the base so the change-surface
    # certificate is attemptable; the base is padded past the cost gate
    # so certification is *attempted* (amortization at scale).
    blueprint = _draw_blueprint(
        rng, allow_dynamic=False, min_flows=1, pad_to=_GATE_CHARS + 256
    )
    old_entries = blueprint.expected_entries()
    # Weighted like a store's update stream: most updates are
    # non-semantic churn (build noise, dead weight, moved statements),
    # which is also what makes the change-surface certificate pay for
    # itself at fleet scale — a uniform mix under-certifies and the
    # fast lane loses its wall delta.
    mutation = rng.choice(
        ("dead-code", "dead-code", "dead-code", "reorder", "reorder",
         "rename", "inject-flow", "remove-flow")
    )
    if mutation in PRESERVING_MUTATIONS:
        mutated = PRESERVING_MUTATIONS[mutation](blueprint, rng)
        new_entries = mutated.expected_entries()
        # Whether the change-surface certificate fires (approve-fast) or
        # refuses and re-analysis approves depends on what the mutation
        # touched; both are correct for a preserving pair. The check is
        # that re-review never appears.
        expected = PRESERVING_VERDICTS
    elif mutation == "inject-flow":
        delta = mutate_inject_flow(blueprint, rng, allow_dynamic=False)
        if delta is None or not delta.added:  # nothing injectable: narrow
            return _fallback_remove(seed, index, blueprint, rng)
        mutated, new_entries = delta.blueprint, delta.blueprint.expected_entries()
        expected = WIDENING_VERDICTS
    else:
        delta = mutate_remove_flow(blueprint, rng)
        if delta is None:
            return _fallback_remove(seed, index, blueprint, rng)
        mutated, new_entries = delta.blueprint, delta.blueprint.expected_entries()
        expected = NARROWING_VERDICTS if delta.removed else PRESERVING_VERDICTS
    return GeneratedUpdate(
        name=f"gen-up-{seed}-{index:05d}",
        old_source=blueprint.render(),
        new_source=mutated.render(),
        old_expected=expected_signature_text(old_entries),
        new_expected=expected_signature_text(new_entries),
        mutation=mutation,
        expected_verdicts=expected,
    )


def _fallback_remove(
    seed: int, index: int, blueprint: Blueprint, rng: random.Random
) -> GeneratedUpdate:
    """Degenerate draw: fall back to a guaranteed dead-code churn pair."""
    mutated = mutate_dead_code(blueprint, rng)
    entries = blueprint.expected_entries()
    return GeneratedUpdate(
        name=f"gen-up-{seed}-{index:05d}",
        old_source=blueprint.render(),
        new_source=mutated.render(),
        old_expected=expected_signature_text(entries),
        new_expected=expected_signature_text(entries),
        mutation="dead-code",
        expected_verdicts=PRESERVING_VERDICTS,
    )


def _update_bundle(seed: int, index: int) -> GeneratedUpdate:
    """A guard-toggle bundle update: the fast lane refuses bundles, so
    the classification comes from the full signature diff — adding the
    sender guard narrows every flow (approve), stripping it widens them
    back (re-review)."""
    rng = _rng_for(seed, index, "update-bundle")
    name = f"gen-up-{seed}-{index:05d}"
    unguarded = BundleTemplate(domain=_draw_domain(rng), guarded=False, name=name)
    guarded = replace(unguarded, guarded=True)
    add_guard = rng.random() < 0.5
    old, new = (unguarded, guarded) if add_guard else (guarded, unguarded)
    return GeneratedUpdate(
        name=name,
        old_source=old.to_source(),
        new_source=new.to_source(),
        old_expected=expected_signature_text(old.entries()),
        new_expected=expected_signature_text(new.entries()),
        mutation="add-guard" if add_guard else "strip-guard",
        expected_verdicts=(
            NARROWING_VERDICTS if add_guard else WIDENING_VERDICTS
        ),
        kind="bundle",
    )


def generate_updates(
    count: int, seed: int = 0, *, bundle_fraction: float = 0.2
) -> list[GeneratedUpdate]:
    """``count`` update pairs with expected diffvet classifications."""
    updates = []
    for index in range(count):
        rng = _rng_for(seed, index, "update-route")
        if rng.random() < bundle_fraction:
            updates.append(_update_bundle(seed, index))
        else:
            updates.append(_update_single(seed, index))
    return updates
