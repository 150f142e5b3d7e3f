"""The evaluation harness: Table 1, Table 2, and figure reproductions.

The re-exports resolve on first access (:mod:`repro.lazy`), so the
service load generator imports :mod:`repro.evaluation.scaling` without
loading the analyzer the tables and figures run.
"""

from repro.lazy import lazy_exports

_EXPORTS = {
    "compute_table1": "repro.evaluation.table1",
    "render_table1": "repro.evaluation.table1",
    "Table1Row": "repro.evaluation.table1",
    "compute_table2": "repro.evaluation.table2",
    "render_table2": "repro.evaluation.table2",
    "Table2Row": "repro.evaluation.table2",
    "compute_diff_rows": "repro.evaluation.table2",
    "render_diff_table": "repro.evaluation.table2",
    "DiffRow": "repro.evaluation.table2",
    "PhaseTimes": "repro.perf",
    "FIGURE1_PROGRAM": "repro.evaluation.figures",
    "FIGURE2_EXPECTED": "repro.evaluation.figures",
    "check_figure2": "repro.evaluation.figures",
    "figure2_edges": "repro.evaluation.figures",
    "figure4_lattice": "repro.evaluation.figures",
    "render_figure2": "repro.evaluation.figures",
    "render_figure4": "repro.evaluation.figures",
    "render_report": "repro.evaluation.report",
    "run_bench": "repro.evaluation.bench",
    "render_bench": "repro.evaluation.bench",
    "run_scaling": "repro.evaluation.scaling",
    "render_scaling": "repro.evaluation.scaling",
    "check_regression": "repro.evaluation.scaling",
    "synthesize_flat": "repro.evaluation.scaling",
    "synthesize_chain": "repro.evaluation.scaling",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
