"""Empty; kept importable for the benchmark's tracer.

The two analyses this package held live next to their only users: the
computed-key resolver in :mod:`repro.lint.keys` and the call graph in
:mod:`repro.lint.callgraph`. ``bench/tracing.py`` still imports this
package and :mod:`repro.preanalysis.pipeline` for its ``preanalysis.*``
targets, and a traced run stops on a module it cannot import (a missing
attribute only reads as zero). Delete both modules once those targets
are re-pointed.
"""
