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

import heapq
from array import array
from dataclasses import dataclass

from repro.analysis.interpreter import AnalysisResult
from repro.analysis.readwrite import ReadWriteSets, RWSet
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
    position, a node's facts are two Python ints (``reach``: the value
    may survive to here on some path; ``taint``: some path from the
    definition to here contains an overlapping write), and joins are
    bitwise ORs. Both bits are monotone per instance, and a statement
    re-executing re-GENs its own definitions (reach set, taint cleared) —
    the statement-instance semantics discussed in the module docstring.
    A definition yields an edge at a use iff its reach bit is set;
    the edge is datastrong iff additionally its taint bit is clear and
    the write/read/location strength conditions hold.

    Facts as wide as all definitions are the bulk of this pass's memory,
    so they are stored only where flow joins or splits. The ICFG is cut
    into *chains*: a node whose only predecessor has it as its only
    successor continues that predecessor's chain. Facts are kept at
    chain heads; the fixpoint runs each chain start to end in one visit,
    and the projection rebuilds a member's facts from its predecessor's.
    The transfer functions are monotone, so the fixpoint is the same
    least one whatever the order chains are visited in.
    """
    nodes = icfg.nodes
    count = len(nodes)
    index_of = {node: index for index, node in enumerate(nodes)}
    succs = [[index_of[target] for target in icfg.successors(node)] for node in nodes]
    del index_of

    # ------------------------------------------------------------------
    # Enumerate definitions and uses, one read/write set at a time. A
    # node's definitions take the index range ``def_start[i]`` to
    # ``def_start[i + 1]`` (so its GEN mask is rebuilt from the range),
    # and its uses the range ``use_start[i]`` to ``use_start[i + 1]``.
    def_sids: list[int] = []
    def_locations: list[DefLocation] = []
    def_strong: list[bool] = []
    def_start = array("q", [0])
    defs_by_bucket: dict[object, list[int]] = {}
    use_locations: list[DefLocation] = []
    use_strong: list[bool] = []
    use_start = array("q", [0])
    for node in nodes:
        rw = rw_sets.compute(node[0], node[1])
        for location, strong in _definitions_of(node, rw):
            defs_by_bucket.setdefault(_bucket_of(location), []).append(
                len(def_sids)
            )
            def_sids.append(node[0])
            def_locations.append(location)
            def_strong.append(strong)
        def_start.append(len(def_sids))
        for location, strong in _uses_of(rw):
            use_locations.append(location)
            use_strong.append(strong)
        use_start.append(len(use_locations))

    # ------------------------------------------------------------------
    # Kill and taint masks, from each node's writes. Definitions made by
    # any context of the node's own statement are left out (the
    # same-statement supersede rule). Kills are a subset of taints, and
    # both are stored shifted down to their lowest bit: ``(low, kill,
    # taint)`` with the masks ``kill << low`` and ``taint << low``.
    effects: dict[int, tuple[int, int, int]] = {}
    for index in range(count):
        first, end = def_start[index], def_start[index + 1]
        if first == end:
            continue
        sid = def_sids[first]
        kills = 0
        taints = 0
        for position in range(first, end):
            location = def_locations[position]
            strong = def_strong[position]
            exact = location[0] == "var" or location[2].concrete() is not None
            for other_index in defs_by_bucket.get(_bucket_of(location), ()):
                if def_sids[other_index] == sid:
                    continue
                other = def_locations[other_index]
                if not _locations_overlap(other, location):
                    continue
                taints |= 1 << other_index
                if (
                    strong
                    and exact
                    and _locations_exact_match(other, location)
                    and _locations_exact_match(location, other)
                ):
                    kills |= 1 << other_index
        if taints:
            low = (taints & -taints).bit_length() - 1
            effects[index] = (low, kills >> low, taints >> low)

    def transfer(index: int, reach: int, taint: int) -> tuple[int, int]:
        """A node's exit facts from its entry facts."""
        effect = effects.get(index)
        if effect is not None:
            low, kill, taints = effect
            taint |= (taints << low) & (reach | taint)
            reach &= ~(kill << low)
        first, end = def_start[index], def_start[index + 1]
        if first != end:
            # Re-GEN own definitions: pristine again.
            gen = ((1 << (end - first)) - 1) << first
            reach |= gen
            taint &= ~gen
        return reach, taint

    # ------------------------------------------------------------------
    # Chains: ``chain_next[i]`` is the node continuing i's chain, or -1.
    pred_count = [0] * count
    for targets in succs:
        for target in targets:
            pred_count[target] += 1
    chain_next = [-1] * count
    chain_prev = [-1] * count
    for index, targets in enumerate(succs):
        if len(targets) == 1:
            target = targets[0]
            if target != index and pred_count[target] == 1:
                chain_next[index] = target
                chain_prev[target] = index
    # A cycle made only of chain links has no head yet: cut it at its
    # first node in node order.
    on_chain = bytearray(count)
    for index in range(count):
        if chain_prev[index] < 0:
            member = index
            while member >= 0:
                on_chain[member] = 1
                member = chain_next[member]
    for index in range(count):
        if not on_chain[index]:
            chain_next[chain_prev[index]] = -1
            chain_prev[index] = -1
            member = index
            while member >= 0:
                on_chain[member] = 1
                member = chain_next[member]
    del on_chain, pred_count
    heads = [index for index in range(count) if chain_prev[index] < 0]
    # Heads are visited in node order, ``(sid, context)``, as nodes were
    # before chains. A weak topological order of the chain graph was no
    # faster (``chain128``: 0.33 s against 0.30 s).
    rank = {
        head: position
        for position, head in enumerate(sorted(heads, key=nodes.__getitem__))
    }

    # ------------------------------------------------------------------
    # Fixpoint over chains: facts at chain-head entry as (reach, taint).
    reach_in = [0] * count
    taint_in = [0] * count
    head_at = {rank[head]: head for head in heads}
    worklist = sorted(head_at)
    queued = bytearray(count)
    for head in heads:
        queued[head] = 1
    while worklist:
        head = head_at[heapq.heappop(worklist)]
        queued[head] = 0
        reach = reach_in[head]
        taint = taint_in[head]
        index = head
        while True:
            reach, taint = transfer(index, reach, taint)
            following = chain_next[index]
            if following < 0:
                break
            index = following
        for successor in succs[index]:
            new_reach = reach_in[successor] | reach
            new_taint = taint_in[successor] | taint
            if new_reach != reach_in[successor] or new_taint != taint_in[successor]:
                reach_in[successor] = new_reach
                taint_in[successor] = new_taint
                if not queued[successor]:
                    queued[successor] = 1
                    heapq.heappush(worklist, rank[successor])
    del worklist, queued, head_at, rank

    # ------------------------------------------------------------------
    # Project edges: instance level first, then statement level. Nodes
    # are visited in ICFG order, so the edges come out in the same order
    # as from a fact per node. A chain member's entry facts are its
    # predecessor's exit facts, kept until the member is reached; the
    # predecessor comes first in ICFG order whenever the fixpoint
    # reached the member through it, and ``_facts_at`` covers the rest.
    strong_pairs: set[tuple[int, int]] = set()
    weak_pairs: set[tuple[int, int]] = set()
    pending: dict[int, tuple[int, int]] = {}
    for index, node in enumerate(nodes):
        if chain_prev[index] < 0:
            reach, taint = reach_in[index], taint_in[index]
        elif index in pending:
            reach, taint = pending.pop(index)
        else:
            reach, taint = _facts_at(index, chain_prev, reach_in, taint_in, transfer)
        following = chain_next[index]
        if following > index:
            pending[following] = transfer(index, reach, taint)
        if not reach:
            continue
        for position in range(use_start[index], use_start[index + 1]):
            use_location = use_locations[position]
            read_strong = use_strong[position]
            for def_index in defs_by_bucket.get(_bucket_of(use_location), ()):
                bit = 1 << def_index
                if not (reach & bit):
                    continue
                def_location = def_locations[def_index]
                if not _locations_overlap(def_location, use_location):
                    continue
                is_strong = (
                    not (taint & bit)
                    and def_strong[def_index]
                    and read_strong
                    and _locations_exact_match(def_location, use_location)
                    and _locations_exact_match(use_location, def_location)
                )
                pair = (def_sids[def_index], node[0])
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


def _facts_at(index, chain_prev, reach_in, taint_in, transfer) -> tuple[int, int]:
    """A chain member's entry facts, rebuilt from its chain head."""
    members = []
    while chain_prev[index] >= 0:
        index = chain_prev[index]
        members.append(index)
    reach, taint = reach_in[index], taint_in[index]
    for member in reversed(members):
        reach, taint = transfer(member, reach, taint)
    return reach, taint
