"""Flow-insensitive whole-program pre-analysis.

Cheap passes that run between parsing and lowering, in the spirit of
JSAI's specialization pre-passes:

- **computed-property resolution** — a constant-string lattice over
  :mod:`repro.domains.stringset` resolves ``obj[k]`` sites to finite
  name sets where provable, so the relevance prefilter only refuses on
  the truly dynamic residue;
- **points-to / call graph** — Andersen-style name-binding constraints
  give a callee set per call site and an entry-reachable function set
  (lint rules CG001/CG002, counters);
- the program set's **surface**, scanned once and handed to the
  prefilter with the resolution folded in.

See DESIGN.md §5j for the constraint rules and the soundness argument.
"""

from repro.preanalysis.callgraph import CallGraph, CallSite, FunctionInfo, build_callgraph
from repro.preanalysis.constants import (
    KEY_BOTTOM,
    KEY_TOP,
    KEY_UNDEFINED,
    ConstantStringEnv,
    KeyValue,
    environment_global_names,
    key_plus,
    key_string,
    solve_environment,
)
from repro.preanalysis.pipeline import (
    Preanalysis,
    Resolution,
    preanalyze,
    resolve_computed_sites,
)

__all__ = [
    "KEY_BOTTOM",
    "KEY_TOP",
    "KEY_UNDEFINED",
    "CallGraph",
    "CallSite",
    "ConstantStringEnv",
    "FunctionInfo",
    "KeyValue",
    "Preanalysis",
    "Resolution",
    "build_callgraph",
    "environment_global_names",
    "key_plus",
    "key_string",
    "preanalyze",
    "resolve_computed_sites",
    "solve_environment",
]
