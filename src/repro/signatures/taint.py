"""A VEX-style explicit-taint baseline.

The paper's related work discusses VEX (Bandhakavi et al., USENIX
Security 2010): a static taint analysis for Firefox addons that tracks
*explicit* (data) flows only. This module implements that baseline on
top of our PDG so the two approaches can be compared head to head:

- :func:`infer_taint_signature` runs the same source/sink matching but
  propagates only along data edges (``datastrong``/``dataweak``), like a
  classic taint tracker;
- everything reachable purely implicitly (conditionals, exceptions —
  the paper's type3..type8 flows) is invisible to it.

The ``benchmarks/test_baseline_taint.py`` comparison reproduces the
paper's implicit argument for full dependence tracking: on our corpus
the taint baseline misses every implicit leak the signature analysis
reports (HyperTranslate's key flow, GoogleTransliterate's url leak, and
covert channels generally).
"""

from __future__ import annotations

from repro.analysis.interpreter import AnalysisResult
from repro.pdg.annotations import Annotation
from repro.pdg.graph import PDG
from repro.signatures.flowtypes import DEFAULT_LATTICE, FlowType
from repro.signatures.inference import InferenceDetail, flow_types_from
from repro.signatures.signature import ApiEntry, Entry, FlowEntry, Signature
from repro.signatures.spec import SecuritySpec

#: The only annotations a taint tracker follows.
_TAINT_EDGES = frozenset({Annotation.DATA_STRONG, Annotation.DATA_WEAK})


def _data_only_pdg(pdg: PDG) -> PDG:
    """A view of the PDG with every control edge removed."""
    restricted = PDG(program=pdg.program, cyclic=set(pdg.cyclic))
    for (source, target), annotations in pdg.edges.items():
        kept = annotations & _TAINT_EDGES
        if kept:
            restricted.edges[(source, target)] = kept
    return restricted


def infer_taint_signature(
    result: AnalysisResult,
    pdg: PDG,
    spec: SecuritySpec,
) -> InferenceDetail:
    """The explicit-only baseline: identical interface to
    :func:`repro.signatures.inference.infer_signature`, but flows exist
    only along data edges, so every reported flow is type1 or type2."""
    data_pdg = _data_only_pdg(pdg)
    entries: dict[Entry, set[int]] = {}
    source_statements: dict[str, set[int]] = {}

    network_sinks = [
        (sink, sink.matching_statements(result)) for sink in spec.sinks
    ]

    sinks_with_flows: set[int] = set()
    grouped: dict[tuple, tuple[set, set]] = {}
    for source in spec.sources:
        sids = source.matching_statements(result)
        source_statements.setdefault(source.name, set()).update(sids)
        if not sids:
            continue
        flow = flow_types_from(data_pdg, sids, DEFAULT_LATTICE)
        for sink, matches in network_sinks:
            for sink_sid, domain in matches.items():
                if sink_sid in sids:
                    continue
                types = flow.get(sink_sid)
                if not types:
                    continue
                sinks_with_flows.add(sink_sid)
                bucket = grouped.setdefault(
                    (source.name, sink.name, domain), (set(), set())
                )
                bucket[0].update(types)
                bucket[1].add(sink_sid)
    for (source_name, sink_name, domain), (types, hit_sids) in grouped.items():
        for flow_type in DEFAULT_LATTICE.max(types):
            assert flow_type in (FlowType.TYPE1, FlowType.TYPE2)
            entry = FlowEntry(source_name, flow_type, sink_name, domain)
            entries.setdefault(entry, set()).update(hit_sids)

    flow_covered = {
        (entry.sink, entry.domain)
        for entry in entries
        if isinstance(entry, FlowEntry)
    }
    for sink, matches in network_sinks:
        for sink_sid, domain in matches.items():
            if sink_sid in sinks_with_flows:
                continue
            if (sink.name, domain) in flow_covered:
                continue
            entry = ApiEntry(sink.name, domain)
            entries.setdefault(entry, set()).add(sink_sid)

    for api in spec.apis:
        for sid in api.matching_statements(result):
            entries.setdefault(ApiEntry(api.name), set()).add(sid)

    return InferenceDetail(
        signature=Signature(entries=frozenset(entries)),
        provenance=entries,
        source_statements=source_statements,
    )


def implicit_only_flows(
    full: Signature, taint: Signature
) -> frozenset[FlowEntry]:
    """The flows the signature analysis reports that the taint baseline
    misses — by construction, exactly the implicit ones."""
    return frozenset(full.flows - taint.flows)
