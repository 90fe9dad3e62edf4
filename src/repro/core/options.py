"""Execution options: one object for every per-run knob.

:class:`ExecutionOptions` carries how a run behaves: attribute expansion,
the memory budget, the pull-mode read size and tracing.  Where the
output goes is a sink (:mod:`repro.pipeline.sinks`), how a feed is framed
is an argument of ``open_feed``, and compile-time choices (projection,
simplifications, safety) stay parameters of
:meth:`~repro.core.session.FluxSession.prepare` because they select *which
plan* is built, not how a run executes it.

Options are immutable; derive variants with :meth:`ExecutionOptions.replace`
or build one from per-call keyword overrides with
:func:`ExecutionOptions.from_kwargs`.

.. note:: Import-layering constraint: :mod:`repro.engine.engine` imports
   this module while the rest of :mod:`repro.core` imports the engine, so
   this module must never import from ``repro.core`` or ``repro.engine``
   (only leaf modules such as :mod:`repro.xmlstream`) -- anything more
   would close an import cycle at package-import time.
"""

from __future__ import annotations

from dataclasses import dataclass, replace as _dc_replace
from typing import Optional

from repro.xmlstream.source import DEFAULT_CHUNK_SIZE


@dataclass(frozen=True)
class ExecutionOptions:
    """Per-run execution knobs, shared by every public execution path.

    Parameters
    ----------
    expand_attrs:
        Apply the paper's attribute-to-subelement expansion to the input.
    memory_budget:
        Hard cap, in bytes, on resident buffered memory (see
        :mod:`repro.storage`); ``None`` keeps all buffers on the heap.
    chunk_size:
        Largest byte chunk a pull run reads from its document source and
        feeds the scanner.
    trace:
        Request per-run stage tracing (:mod:`repro.obs`): the result gains a
        ``trace`` report with the per-stage time/bytes/events breakdown and
        the span tree.  ``None`` (the default) defers to the ``REPRO_TRACE``
        environment variable (``1`` forces on, ``0`` forces off).  Tracing
        never changes output bytes or the
        logical buffering peaks -- the conformance oracle asserts this.
    """

    expand_attrs: bool = False
    memory_budget: Optional[int] = None
    chunk_size: int = DEFAULT_CHUNK_SIZE
    trace: Optional[bool] = None

    def __post_init__(self) -> None:
        if self.memory_budget is not None and self.memory_budget <= 0:
            raise ValueError(f"memory_budget must be positive, got {self.memory_budget}")
        if self.chunk_size <= 0:
            raise ValueError(f"chunk_size must be positive, got {self.chunk_size}")

    def replace(self, **changes) -> "ExecutionOptions":
        """A copy with the given fields changed (validation re-runs)."""
        return _dc_replace(self, **changes)

    @classmethod
    def from_kwargs(
        cls, base: Optional["ExecutionOptions"] = None, **kwargs
    ) -> "ExecutionOptions":
        """Build options from keyword overrides on top of a base.

        ``None``-valued keywords mean "not given, inherit from the base",
        so an override can set a budget but never lift one.  Neither can a
        full ``ExecutionOptions`` passed to a run of a budgeted session: the
        session lends its budget to every run whose options set none
        (:meth:`~repro.core.session.FluxSession._resolve_options`).
        """
        base = base if base is not None else DEFAULT_OPTIONS
        changes = {key: value for key, value in kwargs.items() if value is not None}
        return base.replace(**changes) if changes else base


#: The defaults every session starts from.
DEFAULT_OPTIONS = ExecutionOptions()
