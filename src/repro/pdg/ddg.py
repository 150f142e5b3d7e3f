"""The annotated data dependence graph (Section 3.2).

The paper's definitions, restated operationally:

- ``v1 --datastrong--> v2`` iff v1 writes a location, v2 *definitely*
  reads that exact location (singleton, exact property name, strong on
  both sides), and on *no* CFG path between them could the value have
  been overwritten;
- ``v1 --dataweak--> v2`` iff v2 *possibly* reads what v1 wrote and on at
  least one path the value survives (only weak overwrites in between).

We compute this with a reaching-definitions analysis over the
context-sensitive ICFG where every flowing definition carries two bits:

- ``reaches`` — the value may survive to this point on some path (a
  *strong exact* overwrite clears it on that path: the value is gone);
- ``clean`` — *no* path from the definition to this point contains any
  overlapping write at all. Note the paper's datastrong condition
  quantifies over **all** CFG paths ("no statement v3 along any path"),
  so even a path on which the value was strongly killed demotes the
  surviving copies to weak; this is why killed definitions keep flowing
  with ``reaches=False, clean=False`` instead of being dropped.

GEN enters as ``(reaches=True, clean=True)``; joins OR the reaches bits
and AND the clean bits. At a use, a definition with ``reaches`` yields an
edge: ``datastrong`` when write and read are both strong, the locations
agree exactly, and ``clean`` holds; ``dataweak`` otherwise.
Statement-level edges are the projection over contexts, with
``datastrong`` only if every context instance is strong (the paper's
"definitely" quantifies over all executions).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.interpreter import AnalysisResult
from repro.analysis.readwrite import PropAccess, ReadWriteSets, RWSet
from repro.domains.state import VarKey
from repro.pdg.annotations import Annotation
from repro.pdg.icfg import ICFG, Node

#: A definition: the defining ICFG node plus the location it writes.
#: Locations: ("var", scope, name) or ("prop", address, Prefix).
DefLocation = tuple
Definition = tuple[Node, DefLocation]


@dataclass
class DDGResult:
    """Statement-level data dependence edges."""

    edges: dict[tuple[int, int], Annotation]

    def annotation(self, source: int, target: int) -> Annotation | None:
        return self.edges.get((source, target))


def _definitions_of(node: Node, rw: RWSet) -> list[tuple[DefLocation, bool]]:
    """(location, strong) pairs this node writes."""
    out: list[tuple[DefLocation, bool]] = []
    for key, strong in rw.write_vars.items():
        out.append((("var", key[0], key[1]), strong))
    for access in rw.write_props:
        out.append((("prop", access.address, access.name), access.strong))
    return out


def _uses_of(rw: RWSet) -> list[tuple[DefLocation, bool]]:
    out: list[tuple[DefLocation, bool]] = []
    for key, strong in rw.read_vars.items():
        out.append((("var", key[0], key[1]), strong))
    for access in rw.read_props:
        out.append((("prop", access.address, access.name), access.strong))
    return out


def _locations_overlap(write: DefLocation, read: DefLocation) -> bool:
    if write[0] != read[0]:
        return False
    if write[0] == "var":
        return write[1] == read[1] and write[2] == read[2]
    # Properties: same address and non-bottom name meet (the ⋒ operator).
    if write[1] != read[1]:
        return False
    return write[2].overlaps(read[2])


def _locations_exact_match(write: DefLocation, read: DefLocation) -> bool:
    """The singleton-intersection condition for datastrong."""
    if write[0] != read[0] or write[0] == "var":
        return _locations_overlap(write, read)
    return (
        write[1] == read[1]
        and write[2].concrete() is not None
        and write[2] == read[2]
    )


def _bucket_of(location: DefLocation):
    """Coarse index so overlap checks only scan plausible candidates:
    vars can only overlap the identical key; props can only overlap
    same-address props."""
    if location[0] == "var":
        return location
    return ("prop", location[1])


def build_ddg(
    result: AnalysisResult, icfg: ICFG, rw_sets: ReadWriteSets
) -> DDGResult:
    """Run the reaching-definitions fixpoint and project edges.

    The fixpoint is bit-packed: every definition instance gets a bit
    position, each node's facts are two Python ints (``reach``: the value
    may survive to here on some path; ``taint``: some path from the
    definition to here contains an overlapping write), and joins are
    bitwise ORs. Both bits are monotone per instance, and a statement
    re-executing re-GENs its own definitions (reach set, taint cleared) —
    the statement-instance semantics discussed in the module docstring.
    A definition yields an edge at a use iff its reach bit is set;
    the edge is datastrong iff additionally its taint bit is clear and
    the write/read/location strength conditions hold.
    """
    nodes = icfg.nodes

    # ------------------------------------------------------------------
    # Enumerate definitions: bit index per (node, location). A node's
    # definitions take one contiguous range of indices, so its GEN mask
    # is rebuilt from that range when needed rather than stored at the
    # width of every definition.
    def_nodes: list[Node] = []
    def_locations: list[DefLocation] = []
    def_strong: list[bool] = []
    gen_range: dict[Node, tuple[int, int]] = {}
    defs_by_bucket: dict[object, list[int]] = {}

    for node in nodes:
        rw = rw_sets.of(node[0], node[1])
        first = len(def_nodes)
        for location, strong in _definitions_of(node, rw):
            defs_by_bucket.setdefault(_bucket_of(location), []).append(
                len(def_nodes)
            )
            def_nodes.append(node)
            def_locations.append(location)
            def_strong.append(strong)
        if len(def_nodes) > first:
            gen_range[node] = (first, len(def_nodes))

    # ------------------------------------------------------------------
    # Per-node kill and taint masks, from the node's writes. Definitions
    # made by any context of the node's own statement are left out (the
    # same-statement supersede rule).
    kill_mask: dict[Node, int] = {}
    taint_mask: dict[Node, int] = {}
    for node in nodes:
        rw = rw_sets.of(node[0], node[1])
        writes = _definitions_of(node, rw)
        if not writes:
            continue
        sid = node[0]
        kills = 0
        taints = 0
        for location, strong in writes:
            exact = location[0] == "var" or location[2].concrete() is not None
            for index in defs_by_bucket.get(_bucket_of(location), ()):
                if def_nodes[index][0] == sid:
                    continue
                other = def_locations[index]
                if not _locations_overlap(other, location):
                    continue
                taints |= 1 << index
                if (
                    strong
                    and exact
                    and _locations_exact_match(other, location)
                    and _locations_exact_match(location, other)
                ):
                    kills |= 1 << index
        if kills:
            kill_mask[node] = kills
        if taints:
            taint_mask[node] = taints

    # ------------------------------------------------------------------
    # Fixpoint: facts at node entry as (reach, taint) int pair.
    import heapq

    reach_in: dict[Node, int] = {node: 0 for node in nodes}
    taint_in: dict[Node, int] = {node: 0 for node in nodes}
    worklist = list(nodes)
    heapq.heapify(worklist)
    queued = set(nodes)
    while worklist:
        node = heapq.heappop(worklist)
        queued.discard(node)
        reach = reach_in[node]
        taint = taint_in[node]
        span = gen_range.get(node)
        gen = ((1 << (span[1] - span[0])) - 1) << span[0] if span else 0
        if gen or node in kill_mask or node in taint_mask:
            present = reach | taint
            taint = taint | (taint_mask.get(node, 0) & present)
            reach = reach & ~kill_mask.get(node, 0)
            # Re-GEN own definitions: pristine again.
            reach |= gen
            taint &= ~gen
        for successor in icfg.successors(node):
            new_reach = reach_in[successor] | reach
            new_taint = taint_in[successor] | taint
            if new_reach != reach_in[successor] or new_taint != taint_in[successor]:
                reach_in[successor] = new_reach
                taint_in[successor] = new_taint
                if successor not in queued:
                    queued.add(successor)
                    heapq.heappush(worklist, successor)

    # ------------------------------------------------------------------
    # Project edges: instance level first, then statement level.
    strong_pairs: set[tuple[int, int]] = set()
    weak_pairs: set[tuple[int, int]] = set()
    for node in nodes:
        uses = _uses_of(rw_sets.of(node[0], node[1]))
        if not uses:
            continue
        reach = reach_in[node]
        if not reach:
            continue
        taint = taint_in[node]
        for use_location, read_strong in uses:
            for index in defs_by_bucket.get(_bucket_of(use_location), ()):
                bit = 1 << index
                if not (reach & bit):
                    continue
                def_location = def_locations[index]
                if not _locations_overlap(def_location, use_location):
                    continue
                is_strong = (
                    not (taint & bit)
                    and def_strong[index]
                    and read_strong
                    and _locations_exact_match(def_location, use_location)
                    and _locations_exact_match(use_location, def_location)
                )
                pair = (def_nodes[index][0], node[0])
                if is_strong:
                    strong_pairs.add(pair)
                else:
                    weak_pairs.add(pair)

    edges: dict[tuple[int, int], Annotation] = {}
    for pair in strong_pairs:
        if pair not in weak_pairs:
            edges[pair] = Annotation.DATA_STRONG
    for pair in weak_pairs:
        edges[pair] = Annotation.DATA_WEAK
    return DDGResult(edges=edges)
