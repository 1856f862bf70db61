"""Decode-kernel tiers for the bulk readers, and the decode checkpoint hook.

The ``read_many_*`` bulk readers in :mod:`repro.bits.codes` decode a
homogeneous run of codes on one of two interchangeable kernel tiers:

``table``
    The inlined pure-Python 16-bit table loop of
    :func:`repro.bits.codes._read_many_table`.  The production tier and
    the default.
``scalar``
    One scalar ``read_*`` call per code.  The reference tier: trivially
    correct, used as the oracle of the table-vs-scalar differential tests
    (``tests/test_decode_kernels.py``).

Both tiers consume exactly the same bits and return exactly the same
values on every stream, including the exception raised and the cursor
position reached on a truncated stream.  Choosing a tier therefore only
ever changes speed, never answers.  :func:`set_kernel` is the only way to
choose one; tests and ``benchmarks/bench_hotpath.py`` use it.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.errors import CodecDomainError

__all__ = [
    "TIER_TABLE",
    "TIER_SCALAR",
    "TIERS",
    "NUMPY_MIN_RUN",
    "set_kernel",
    "get_kernel",
    "kernel_info",
    "CheckpointHook",
    "set_checkpoint_hook",
    "get_checkpoint_hook",
]

TIER_TABLE = "table"
TIER_SCALAR = "scalar"

#: The selectable tiers, production tier first.
TIERS = (TIER_TABLE, TIER_SCALAR)

#: Run length (in codes) from which a vectorised decode would start to pay
#: off: a vectorised decode costs a fixed ~25 array operations, which the
#: per-code table loop undercuts on shorter runs (measured break-even on
#: small gap codes).  No tier uses it; it is reported by
#: :func:`kernel_info` so run-length statistics can be read against it.
NUMPY_MIN_RUN = 256

_override: str = TIER_TABLE


def set_kernel(name: str) -> None:
    """Set the process-wide decode tier: ``"table"`` or ``"scalar"``.

    Applies to every subsequent bulk read in the process; a test forcing
    a tier must restore the previous one (see the ``decode_kernel``
    fixture in tests/test_decode_kernels.py).  Any other value raises
    :class:`repro.errors.CodecDomainError`.
    """
    global _override
    if name not in TIERS:
        raise CodecDomainError(
            f"unknown decode kernel {name!r}; expected one of {TIERS}"
        )
    _override = name


def get_kernel() -> str:
    """The current tier: one of :data:`TIERS`."""
    return _override


def kernel_info() -> Dict[str, object]:
    """Introspection snapshot: current tier, the tiers, the crossover.

    Surfaced by ``CompressedChronoGraph.decode_kernel_info`` and the
    segmented store so operators can confirm which tier a deployment is
    actually running.
    """
    return {
        "override": _override,
        "tiers": TIERS,
        "numpy_min_run": NUMPY_MIN_RUN,
    }


#: Ambient decode checkpoint installed by :mod:`repro.runtime.context`.
#:
#: Called by the bulk readers as ``hook(work)``: it charges ``work`` decode
#: units against the active :class:`repro.runtime.context.QueryContext` (if
#: any), raises the typed interruption errors when the deadline, cancel
#: flag or work budget says stop, and returns the preferred chunk stride in
#: codes (``> 0``) while a context is active -- or ``0`` when the calling
#: thread has no active context, telling the reader to take its zero
#: overhead path.  Living here (rather than in ``repro.runtime``) keeps
#: :mod:`repro.bits` free of upward imports: the runtime layer registers
#: itself while at least one query context is active on any thread, and
#: removes itself when the last deactivates -- so when the hook is
#: ``None`` the bulk readers know no thread anywhere is governed and skip
#: even the thread-local poll.
CheckpointHook = Callable[[int], int]

_checkpoint_hook: Optional[CheckpointHook] = None


def set_checkpoint_hook(hook: Optional[CheckpointHook]) -> None:
    """Install (or with ``None``, remove) the ambient decode checkpoint.

    Intended for :mod:`repro.runtime.context`, which registers its
    thread-local poll while any query context is active; tests may swap
    in their own hook to observe checkpoint cadence.
    """
    global _checkpoint_hook
    _checkpoint_hook = hook


def get_checkpoint_hook() -> Optional[CheckpointHook]:
    """The installed ambient decode checkpoint, or ``None``."""
    return _checkpoint_hook
