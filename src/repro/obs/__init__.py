"""Observability: structured tracing, machine perf counters, profiling.

R2C's argument is quantitative — compile-time, run-time, and entropy
measurements (Section 6) — so the reproduction carries a first-class
observability layer instead of ad-hoc ``perf_counter`` calls:

* :mod:`repro.obs.tracing` — zero-dependency structured spans with a
  thread-safe in-process collector and Chrome ``trace_event`` export,
  threaded through the compiler pipeline, the toolchain frontend, and
  the experiment engine.
* :mod:`repro.obs.counters` — :class:`PerfCounters`, the machine-level
  counter structure both execution backends fill byte-identically.
* :mod:`repro.obs.profiler` — per-RIP/per-function cycle attribution
  with folded-stack (flamegraph) output, driven off the CPU trace hook
  so it works on either backend and through BTRA-displaced frames.
* :func:`provenance` — where an artifact came from (commit, command,
  interpreter, host), embedded by the fleet and lockstep artifacts.  The
  repo benchmark itself is ``perfbench/`` (see ``perfbench/README.md``).

Everything here is strictly passive: enabling tracing or attaching a
profiler never changes :class:`~repro.machine.cpu.ExecutionResult`,
faults, or final ``rip`` (a property test enforces this), and with
tracing *disabled* the instrumentation costs one flag check per phase.
"""

import os
import sys
from typing import Dict, Optional, Sequence

from repro.obs.counters import PerfCounters, UNTAGGED_TAG
from repro.obs.profiler import CycleProfiler
from repro.obs.tracing import (
    TraceCollector,
    enable_tracing,
    get_collector,
    recent_span_names,
    span,
    trace_capture,
    tracing_enabled,
)

__all__ = [
    "CycleProfiler",
    "PerfCounters",
    "TraceCollector",
    "UNTAGGED_TAG",
    "enable_tracing",
    "get_collector",
    "provenance",
    "recent_span_names",
    "span",
    "trace_capture",
    "tracing_enabled",
]


#: The repository root when running from a source checkout.
_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "..", ".."))


def _git(*args: str) -> Optional[str]:
    import subprocess

    try:
        done = subprocess.run(
            ["git", "-C", _ROOT, *args], capture_output=True, text=True, timeout=20
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout if done.returncode == 0 else None


def _cpu_model() -> str:
    import platform

    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def provenance(argv: Sequence[str]) -> Dict[str, object]:
    """Where an artifact came from: code, command, interpreter and host.

    The git fields are ``None`` outside a source checkout (git is only
    asked about this checkout itself, never an enclosing repository).
    """
    import datetime

    sha = dirty = None
    if os.path.isdir(os.path.join(_ROOT, ".git")):
        head = _git("rev-parse", "HEAD")
        status = _git("status", "--porcelain", "--untracked-files=no")
        sha = head.strip() if head else None
        dirty = bool(status.strip()) if status is not None else None
    return {
        "git_sha": sha,
        "git_dirty": dirty,
        "argv": list(argv),
        "python": sys.version.split()[0],
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"
        ),
    }
