"""The name of the sweep's statistics kernel, recorded in run provenance.

The kernel itself is :func:`hqc.montecarlo.sweep_stats`; numpy is the only
implementation.
"""

ACTIVE_KERNEL = "numpy"
