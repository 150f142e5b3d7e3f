"""Flow-insensitive whole-program analyses over parsed programs.

Cheap passes in the spirit of JSAI's specialization pre-passes, each
run only by the consumer that needs it — none sits on every vet:

- **computed-property resolution** — a constant-string lattice over
  :mod:`repro.domains.stringset` resolves ``obj[k]`` sites to finite
  name sets where provable. The relevance prefilter
  (:func:`repro.lint.surface.decide_relevance`) calls it only when
  computed sites alone would refuse the fast lane, so it refuses only
  on the truly dynamic residue;
- **points-to / call graph** — Andersen-style name-binding constraints
  give a callee set per call site and an entry-reachable function set,
  for the lint rules CG001/CG002 only.

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
from repro.preanalysis.pipeline import Resolution, resolve_computed_sites

__all__ = [
    "KEY_BOTTOM",
    "KEY_TOP",
    "KEY_UNDEFINED",
    "CallGraph",
    "CallSite",
    "ConstantStringEnv",
    "FunctionInfo",
    "KeyValue",
    "Resolution",
    "build_callgraph",
    "environment_global_names",
    "key_plus",
    "key_string",
    "resolve_computed_sites",
    "solve_environment",
]
