"""Long-horizon soak observatory: seeded chaos arms, streaming segments.

:class:`~repro.obs.soak.runner.SoakRunner` drives a seeded cluster
workload for hours of sim time with the full observability stack (and the
SLO engine of :mod:`repro.obs.slo`) attached, rotating bounded dump
segments (:mod:`repro.obs.dump`) into a directory that the ``report`` /
``audit`` / ``slo`` consoles aggregate.  Run one from the shell with
``python -m repro.obs soak``.
"""

from repro.obs.soak.runner import ARMS, SUMMARY_NAME, SoakRunner

__all__ = ["ARMS", "SUMMARY_NAME", "SoakRunner"]
