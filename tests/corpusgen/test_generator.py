"""The verdict-carrying generator's core promises.

Every addon the generator emits *is* its own test oracle: the expected
signature rides along, so these suites hold the real pipeline to it —
per-fragment (each template's pinned entries), per-corpus (a seeded
sample vets to exactly the expected signatures), and per-mutation (the
hypothesis properties: verdict-preserving mutations are bit-identical,
injected flows surface at the expected flow type).
"""

import hashlib
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import diff_vet, vet
from repro.corpusgen import (
    BENIGN_KINDS,
    DYNAMIC_SURFACE_KINDS,
    FLOW_KINDS,
    FRAGMENTS,
    PRESERVING_MUTATIONS,
    build_fragment,
    expected_signature_text,
    generate_addon,
    generate_corpus,
    generate_updates,
    mutate_inject_flow,
    mutate_remove_flow,
)
from repro.corpusgen.generator import Blueprint, _draw_blueprint
from repro.js import parse
from repro.lint.surface import nodes_surface

pytestmark = pytest.mark.fleet

_SETTINGS = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _vetted(source: str) -> str:
    return vet(source).signature.render()


# ----------------------------------------------------------------------
# Fragment templates: each one's pinned entries are what the pipeline
# actually infers for it, in isolation.


@pytest.mark.parametrize(
    "kind",
    sorted(FLOW_KINDS) + sorted(BENIGN_KINDS) + sorted(DYNAMIC_SURFACE_KINDS),
)
def test_fragment_template_matches_pipeline(kind):
    spec = FRAGMENTS[kind][0]
    names = tuple(f"frag{i}" for i in range(spec.arity))
    fragment = build_fragment(
        kind, names, "https://pin.example/p?x=" if spec.needs_domain else None
    )
    assert _vetted(fragment.text) == expected_signature_text(fragment.entries)


def _benign_instance(kind):
    spec = FRAGMENTS[kind][0]
    return build_fragment(
        kind, tuple(f"benign{i}" for i in range(spec.arity)), None
    )


def test_benign_fragments_are_prefiltered():
    for kind in sorted(BENIGN_KINDS):
        report = vet(_benign_instance(kind).text, prefilter=True)
        assert report.prefiltered, kind
        assert report.signature.render() == ""


def test_constant_computed_fragment_needs_resolution_to_prefilter():
    # benign-table's obj[key] sites are provably constant: the plain
    # scan refuses them as dynamic, and only the prefilter's resolver
    # lets it skip the addon — with the full analysis's signature.
    text = _benign_instance("benign-table").text
    assert nodes_surface([parse(text)]).dynamic_properties
    on = vet(text, prefilter=True)
    assert on.prefiltered
    assert on.counters["resolved_sites"] > 0
    off = vet(text, prefilter=False)
    assert on.signature.render() == off.signature.render() == ""


def test_dynamic_surface_fragments_stay_out_of_the_fast_lane():
    for kind in sorted(DYNAMIC_SURFACE_KINDS):
        report = vet(_benign_instance(kind).text, prefilter=True)
        assert not report.prefiltered, kind
        assert report.signature.render() == ""


# ----------------------------------------------------------------------
# Corpus determinism and soundness on a seeded sample.


def test_corpus_is_deterministic():
    first = generate_corpus(30, seed=7)
    second = generate_corpus(30, seed=7)
    assert [a.source for a in first] == [a.source for a in second]
    assert [a.expected_signature for a in first] == [
        a.expected_signature for a in second
    ]


def test_corpus_varies_with_seed():
    assert {a.source for a in generate_corpus(10, seed=1)} != {
        a.source for a in generate_corpus(10, seed=2)
    }


def test_addon_generation_is_shard_stable():
    corpus = generate_corpus(12, seed=3)
    # Generating addon i directly equals slicing it out of the corpus:
    # shards can split a fleet without re-deriving neighbours.
    assert generate_addon(3, 7).source == corpus[7].source


@pytest.mark.slow
def test_seeded_sample_vets_to_expected_signatures():
    for addon in generate_corpus(25, seed=11):
        assert _vetted(addon.source) == addon.expected_signature, addon.name


def test_corpus_mixes_singles_and_bundles():
    kinds = {a.kind for a in generate_corpus(40, seed=0)}
    assert kinds == {"single", "bundle"}


# ----------------------------------------------------------------------
# Hypothesis: verdict-preserving mutations are bit-identical.


@given(
    seed=st.integers(0, 10_000),
    mutation=st.sampled_from(sorted(PRESERVING_MUTATIONS)),
)
@_SETTINGS
def test_preserving_mutation_keeps_signature_bit_identical(seed, mutation):
    rng = random.Random(f"prop:{seed}")
    blueprint = _draw_blueprint(rng)
    before = _vetted(blueprint.render())
    assert before == expected_signature_text(blueprint.expected_entries())
    mutated = PRESERVING_MUTATIONS[mutation](blueprint, rng)
    assert _vetted(mutated.render()) == before


@given(seed=st.integers(0, 10_000))
@_SETTINGS
def test_injected_flow_appears_at_expected_type(seed):
    rng = random.Random(f"inject:{seed}")
    blueprint = _draw_blueprint(rng)
    delta = mutate_inject_flow(blueprint, rng)
    if delta is None:
        return  # conflict groups left nothing injectable
    vetted = set(_vetted(delta.blueprint.render()).splitlines())
    for entry in delta.added:
        # The tagged delta entry carries the expected flow type
        # (e.g. "url -type1-> send(...)"): it must appear verbatim.
        assert entry in vetted


@given(seed=st.integers(0, 10_000))
@_SETTINGS
def test_removed_flow_entries_vanish(seed):
    rng = random.Random(f"remove:{seed}")
    blueprint = _draw_blueprint(rng, min_flows=1)
    delta = mutate_remove_flow(blueprint, rng)
    assert delta is not None
    vetted = set(_vetted(delta.blueprint.render()).splitlines())
    for entry in delta.removed:
        assert entry not in vetted


# ----------------------------------------------------------------------
# Update chains: expected diffvet classifications hold.


@pytest.mark.slow
def test_update_pairs_classify_as_expected():
    for update in generate_updates(8, seed=5):
        report = diff_vet(update.old_source, update.new_source)
        assert report.verdict in update.expected_verdicts, (
            update.name, update.mutation, report.verdict,
        )


def test_updates_are_deterministic():
    first = generate_updates(6, seed=9)
    second = generate_updates(6, seed=9)
    assert [(u.old_source, u.new_source) for u in first] == [
        (u.old_source, u.new_source) for u in second
    ]


def test_update_mutations_cover_both_directions():
    mutations = {u.mutation for u in generate_updates(40, seed=0)}
    assert "inject-flow" in mutations  # widening must be represented
    assert mutations & {"rename", "dead-code", "reorder"}  # and preserving


# ----------------------------------------------------------------------
# Byte identity and linear-time padding.

#: sha256 of ``repr`` over the generator's output, recorded before
#: update-base padding became linear: the generator must keep drawing
#: from the RNG in the same order, so every addon and update pair stays
#: byte-identical.
_OUTPUT_DIGESTS = {
    ("updates", 0): "7f2a7e7165864680ed0d0cdb9423e48996649383955ce458a2d18eb4a845c159",
    ("updates", 1): "81f38468d6e6982b5f363b80ecfc915b5de2edd9099ef0dfe719e46313b17312",
    ("corpus", 0): "53a3ec61040f655b8aa13121e6ceeb21fa5ccae91734557c810f6add6869ab72",
    ("corpus", 1): "66d07300eeab78c2b75e05d0641b5f0cc824e546f0072ab45c2409631401cd78",
}


@pytest.mark.parametrize("kind, seed", sorted(_OUTPUT_DIGESTS))
def test_generated_output_is_byte_identical(kind, seed):
    output = (
        generate_updates(300, seed) if kind == "updates"
        else generate_corpus(400, seed)
    )
    digest = hashlib.sha256(repr(output).encode("utf-8")).hexdigest()
    assert digest == _OUTPUT_DIGESTS[kind, seed]


def test_update_generation_renders_each_version_once(monkeypatch):
    # Padding tracks the base's length as it grows instead of
    # re-rendering it per block: one render for the old version and one
    # for the new.
    calls = 0
    render = Blueprint.render

    def counting_render(self):
        nonlocal calls
        calls += 1
        return render(self)

    monkeypatch.setattr(Blueprint, "render", counting_render)
    updates = generate_updates(100, seed=0)
    assert calls <= 2 * len(updates)
