"""Table 1 reproduction: the benchmark suite.

The paper's Table 1 lists each addon's name, listed purpose, category,
size (Rhino AST nodes), and download count. We regenerate the table with
our frontend's AST node count as the size metric (the direct analogue of
the Rhino count) side by side with the paper's numbers; download counts
are carried from the paper (they are repository metadata, not
measurable from code).

Run: ``python -m repro.evaluation.table1``
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.addons import CORPUS, AddonSpec
from repro.evaluation.tables import format_count, render_table
from repro.js import node_count, parse


@dataclass
class Table1Row:
    spec: AddonSpec
    measured_ast_nodes: int


def compute_table1() -> list[Table1Row]:
    """Parse every corpus addon and measure its size."""
    return [
        Table1Row(spec=spec, measured_ast_nodes=node_count(parse(spec.source())))
        for spec in CORPUS
    ]


def render_table1(rows: list[Table1Row]) -> str:
    return render_table(
        headers=[
            "Addon Name", "Listed Purpose", "Cat.",
            "Size (ours)", "Size (paper)", "# Downloads (paper)",
        ],
        rows=[
            [
                row.spec.name,
                row.spec.purpose,
                row.spec.category,
                format_count(row.measured_ast_nodes),
                format_count(row.spec.paper_ast_nodes),
                format_count(row.spec.paper_downloads),
            ]
            for row in rows
        ],
        title="Table 1: benchmark addons",
    )


def main() -> None:
    print(render_table1(compute_table1()))


if __name__ == "__main__":
    main()
