"""The annotated Program Dependence Graph: DDG ∪ CDG.

Nodes are IR statements; each edge carries one annotation from the
grammar of Section 3.1. The PDG also keeps the statement -> source line
mapping so results can be reported in terms of the addon's source (and so
the Figure 1/2 reproduction can check edges by line number).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.interpreter import AnalysisResult
from repro.analysis.readwrite import ReadWriteSets
from repro.ir.nodes import ProgramIR
from repro.pdg.annotations import Annotation
from repro.pdg.cdg import build_cdg
from repro.pdg.ddg import build_ddg
from repro.pdg.icfg import build_icfg, cyclic_statements


#: Every distinct annotation set, once: an edge's set is one of these,
#: shared by every edge that carries it. A program's thousands of edges
#: use a handful of sets, and a set of its own per edge was the bulk of
#: a big PDG.
_ANNOTATION_SETS: dict[frozenset[Annotation], frozenset[Annotation]] = {}
_NO_ANNOTATIONS: frozenset[Annotation] = frozenset()


@dataclass
class PDG:
    """The annotated program dependence graph."""

    program: ProgramIR
    #: (source sid, target sid) -> annotations (an edge pair may carry
    #: both a data and a control annotation).
    edges: dict[tuple[int, int], frozenset[Annotation]] = field(
        default_factory=dict
    )
    #: Statement ids on an ICFG cycle (used by amplification; exposed for
    #: diagnostics and tests).
    cyclic: set[int] = field(default_factory=set)

    # Lazily built adjacency views, shared by ``successors``, the
    # flow-type fixpoint (one build serves every source), reachability,
    # and slicing. Pure memoization of ``edges``: ``add_edge``
    # invalidates both, so the indexes can never go stale.
    _successor_index: dict[int, list[tuple[int, frozenset[Annotation]]]] | None = (
        field(default=None, init=False, repr=False, compare=False)
    )
    _predecessor_index: dict[int, list[tuple[int, frozenset[Annotation]]]] | None = (
        field(default=None, init=False, repr=False, compare=False)
    )

    def add_edge(self, source: int, target: int, annotation: Annotation) -> None:
        key = (source, target)
        annotations = self.edges.get(key, _NO_ANNOTATIONS)
        if annotation not in annotations:
            grown = annotations | {annotation}
            self.edges[key] = _ANNOTATION_SETS.setdefault(grown, grown)
        self._successor_index = None
        self._predecessor_index = None

    def successor_index(self) -> dict[int, list[tuple[int, frozenset[Annotation]]]]:
        """source sid -> [(target sid, annotations)], built once and
        cached until the edge set changes."""
        if self._successor_index is None:
            index: dict[int, list[tuple[int, frozenset[Annotation]]]] = {}
            for (source, target), annotations in self.edges.items():
                index.setdefault(source, []).append((target, annotations))
            self._successor_index = index
        return self._successor_index

    def predecessor_index(self) -> dict[int, list[tuple[int, frozenset[Annotation]]]]:
        """target sid -> [(source sid, annotations)]; the backward-slice
        counterpart of :meth:`successor_index`."""
        if self._predecessor_index is None:
            index: dict[int, list[tuple[int, frozenset[Annotation]]]] = {}
            for (source, target), annotations in self.edges.items():
                index.setdefault(target, []).append((source, annotations))
            self._predecessor_index = index
        return self._predecessor_index

    def successors(self, sid: int) -> list[tuple[int, frozenset[Annotation]]]:
        return self.successor_index().get(sid, [])

    def predecessors(self, sid: int) -> list[tuple[int, frozenset[Annotation]]]:
        return self.predecessor_index().get(sid, [])

    def annotations(self, source: int, target: int) -> frozenset[Annotation]:
        return self.edges.get((source, target), _NO_ANNOTATIONS)

    # ------------------------------------------------------------------
    # Line-level views (for reproducing Figure 2 and for reporting)

    def line_of(self, sid: int) -> int:
        return self.program.stmts[sid].line

    def line_edges(self) -> dict[tuple[int, int], set[Annotation]]:
        """Edges projected onto source lines; self-loops and synthetic
        statements (line 0: entry/exit markers) dropped."""
        projected: dict[tuple[int, int], set[Annotation]] = {}
        for (source, target), annotations in self.edges.items():
            line_pair = (self.line_of(source), self.line_of(target))
            if line_pair[0] == line_pair[1] or 0 in line_pair:
                continue
            projected.setdefault(line_pair, set()).update(annotations)
        return projected

    def line_annotations(self, source_line: int, target_line: int) -> set[Annotation]:
        result: set[Annotation] = set()
        for (source, target), annotations in self.edges.items():
            if self.line_of(source) == source_line and self.line_of(target) == target_line:
                result.update(annotations)
        return result

    def reachable_from(
        self, sources: set[int], allowed: frozenset[Annotation]
    ) -> set[int]:
        """Statements reachable from ``sources`` using only edges whose
        annotation set intersects ``allowed``."""
        seen = set(sources)
        stack = list(sources)
        adjacency = self.successor_index()
        while stack:
            node = stack.pop()
            for successor, annotations in adjacency.get(node, ()):
                if successor not in seen and annotations & allowed:
                    seen.add(successor)
                    stack.append(successor)
        return seen

    # ------------------------------------------------------------------
    # Export

    def to_dot(self, include_isolated: bool = False) -> str:
        """Graphviz rendering (data edges solid, control edges dashed,
        amplified edges bold)."""
        lines = ["digraph pdg {", "  node [shape=box, fontname=monospace];"]
        used: set[int] = set()
        for (source, target) in self.edges:
            used.add(source)
            used.add(target)
        sids = self.program.stmts.keys() if include_isolated else sorted(used)
        for sid in sids:
            stmt = self.program.stmts[sid]
            label = f"{sid}: line {stmt.line}\\n{type(stmt).__name__}"
            lines.append(f'  n{sid} [label="{label}"];')
        for (source, target), annotations in sorted(self.edges.items()):
            for annotation in sorted(annotations, key=lambda a: a.value):
                style = "solid" if annotation.is_data else "dashed"
                weight = ", penwidth=2" if annotation.is_amplified else ""
                lines.append(
                    f'  n{source} -> n{target} '
                    f'[label="{annotation}", style={style}{weight}];'
                )
        lines.append("}")
        return "\n".join(lines)


def build_pdg(result: AnalysisResult) -> PDG:
    """Phase P2: construct the annotated PDG from the base analysis."""
    icfg = build_icfg(result)
    pdg = PDG(program=result.program, cyclic=cyclic_statements(icfg))
    for (source, target), annotation in build_ddg(
        result, icfg, ReadWriteSets(result)
    ).edges.items():
        pdg.add_edge(source, target, annotation)
    # The ICFG and the DDG's working set go before the CDG is built.
    del icfg
    cdg = build_cdg(result, cyclic_sids=pdg.cyclic)
    for (source, target), annotation in cdg.edges.items():
        pdg.add_edge(source, target, annotation)
    return pdg
