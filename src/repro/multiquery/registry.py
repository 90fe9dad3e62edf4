"""The query registry: N compiled plans for one DTD.

A :class:`QueryRegistry` is the compile-time half of multi-query execution:
queries are registered once (parse -> normalize -> schedule -> compile,
exactly the :class:`~repro.engine.engine.FluxEngine` path) and the resulting
plans and projection automata are held together with the merged union
filter (:meth:`QueryRegistry.fanout`), so that
:class:`~repro.multiquery.engine.MultiQueryEngine` can drive every plan
from one shared document pass.

Every entry keeps its full single-query engine, so the same compiled plan
can also be run solo -- the multi-query tests compare a shared pass against
exactly these engines.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, Optional, Tuple, Union

from repro.dtd.schema import DTD
from repro.engine.engine import FluxEngine, ensure_rooted
from repro.engine.plan import QueryPlan
from repro.flux.ast import FluxExpr
from repro.obs.metrics import global_registry
from repro.pipeline.fanout import DynamicFanout
from repro.pipeline.projection import ProjectionSpec
from repro.xquery.ast import XQExpr

#: Anything `FluxEngine` accepts as a query.
QuerySource = Union[str, XQExpr, FluxExpr]

# Process-wide registry-mutation telemetry (:mod:`repro.obs`): bumped once
# per registration change, so cost is nil.
_metrics = global_registry()
_REGISTERED = _metrics.counter(
    "repro.registry.registered.total", "Queries registered into query registries"
)
_UNREGISTERED = _metrics.counter(
    "repro.registry.unregistered.total", "Queries unregistered from query registries"
)


@dataclass
class RegisteredQuery:
    """One compiled query held by a registry."""

    name: str
    index: int
    engine: FluxEngine = field(repr=False)

    @property
    def plan(self) -> QueryPlan:
        """The compiled executor plan."""
        return self.engine.plan

    @property
    def projection_spec(self) -> Optional[ProjectionSpec]:
        """The query's projection automaton; ``None`` when it filters nothing."""
        return self.engine.projection_spec


class QueryRegistry:
    """Compiles and holds N queries against one shared DTD.

    Registration order is preserved; the entry ``index`` is the query's
    position in every per-run structure (membership masks, sub-batch lists,
    result mappings).  ``version`` increments on every registration
    change; :meth:`fanout`, the union filter derived from the entries, is
    rebuilt only when it moved.
    """

    def __init__(
        self,
        dtd: DTD,
        *,
        root_element: Optional[str] = None,
        projection: bool = True,
    ):
        self.dtd = ensure_rooted(dtd, root_element)
        self.projection = projection
        self.version = 0
        self._entries: Dict[str, RegisteredQuery] = {}
        self._fanout: Tuple[int, Optional[DynamicFanout]] = (-1, None)

    # ------------------------------------------------------------ registration

    def register(
        self,
        name: str,
        query: QuerySource,
        *,
        projection: Optional[bool] = None,
        apply_simplifications: bool = True,
        require_safe: bool = True,
    ) -> RegisteredQuery:
        """Compile ``query`` and hold it under ``name``.

        ``projection`` overrides the registry default for this one query
        (its component of the merged filter is then pinned to keep-all).
        """
        if name in self._entries:
            raise ValueError(f"query {name!r} is already registered")
        engine = FluxEngine(
            query,
            self.dtd,
            projection=self.projection if projection is None else projection,
            apply_simplifications=apply_simplifications,
            require_safe=require_safe,
        )
        entry = RegisteredQuery(name=name, index=len(self._entries), engine=engine)
        self._entries[name] = entry
        self.version += 1
        _REGISTERED.inc()
        return entry

    def register_engine(self, name: str, engine: FluxEngine) -> RegisteredQuery:
        """Hold an already-compiled engine under ``name``.

        This is how the session layer shares its plan cache with multi-query
        execution: :meth:`~repro.core.session.FluxSession.prepare_many`
        obtains (possibly cached) engines and registers them here without
        recompiling.  The engine must have been compiled against this
        registry's rooted DTD.
        """
        if name in self._entries:
            raise ValueError(f"query {name!r} is already registered")
        # Compare by content fingerprint, not object identity: a shared
        # plan cache legitimately hands one session an engine compiled by
        # another session over an equal (but distinct) DTD object.
        if engine.dtd.fingerprint() != self.dtd.fingerprint():
            raise ValueError(
                f"engine for {name!r} was compiled against a different DTD"
            )
        entry = RegisteredQuery(name=name, index=len(self._entries), engine=engine)
        self._entries[name] = entry
        self.version += 1
        _REGISTERED.inc()
        return entry

    def unregister(self, name: str) -> RegisteredQuery:
        """Remove the query registered under ``name``; returns its entry.

        Later entries shift down to keep indices dense (an index is a
        position in per-run structures -- membership masks, sub-batch
        lists -- which are rebuilt from the bumped ``version`` anyway).
        Buffers and governor charges are strictly per *run*, released when
        each pass finishes, so unregistration never leaves dangling bytes:
        the registry holds compiled plans only.
        """
        try:
            entry = self._entries.pop(name)
        except KeyError:
            raise KeyError(
                f"no query registered under {name!r}; registered: {sorted(self._entries)}"
            ) from None
        for survivor in self._entries.values():
            if survivor.index > entry.index:
                survivor.index -= 1
        self.version += 1
        _UNREGISTERED.inc()
        return entry

    # ----------------------------------------------------------------- access

    def fanout(self) -> DynamicFanout:
        """The union automaton of the current query set, one slot per entry.

        Attached once per ``version`` and shared by every pass -- and every
        engine -- over this registry.  Built aside and published whole, so
        a concurrent pass sees the previous fanout or the new one, never a
        half-attached one.
        """
        version, fanout = self._fanout
        if version != self.version:
            version, fanout = self.version, DynamicFanout()
            for entry in self._entries.values():
                fanout.attach(entry.projection_spec)
            self._fanout = (version, fanout)
        return fanout

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def __iter__(self) -> Iterator[RegisteredQuery]:
        return iter(self._entries.values())

    @property
    def names(self) -> tuple:
        """Registered query names, in registration order."""
        return tuple(self._entries)

    def get(self, name: str) -> RegisteredQuery:
        """The entry registered under ``name``."""
        try:
            return self._entries[name]
        except KeyError:
            raise KeyError(
                f"no query registered under {name!r}; registered: {sorted(self._entries)}"
            ) from None
