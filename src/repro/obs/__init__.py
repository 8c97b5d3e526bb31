"""Timeline observability for the simulated runtime.

Two pillars over the perf stack's books:

* :mod:`repro.obs.trace` — lower virtual-clock timelines (live worlds,
  measured replays, step-schedule replays) to Chrome Trace Event
  JSON viewable in Perfetto / ``chrome://tracing``;
* :mod:`repro.obs.commvol` — reconcile communication volume per
  ``op × phase × link`` across the analytic schedule, the simulated
  clock and the measured traffic log, gating exact wire-byte agreement.

Submodule attributes resolve lazily (PEP 562) so ``python -m
repro.obs.trace`` runs without the package import pre-loading the very
module runpy is about to execute.
"""

from importlib import import_module

__all__ = [
    "CommVolumeReport",
    "VolumeBucket",
    "comm_volume_report",
    "chrome_trace",
    "export_trace",
    "validate_trace",
]

_EXPORTS = {
    "CommVolumeReport": "commvol",
    "VolumeBucket": "commvol",
    "comm_volume_report": "commvol",
    "chrome_trace": "trace",
    "export_trace": "trace",
    "validate_trace": "trace",
}


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{module}", __name__), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
