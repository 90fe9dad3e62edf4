"""The hub's union automaton is :class:`repro.pipeline.fanout.DynamicFanout`."""

from repro.pipeline.fanout import DynamicFanout

__all__ = ["DynamicFanout"]
