"""Empty; see :mod:`repro.preanalysis`."""
