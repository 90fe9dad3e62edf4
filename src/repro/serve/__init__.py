"""repro.serve: the streaming subscription server.

The pub/sub composition of everything the engine already does one piece at
a time: clients register prepared queries as **subscriptions** over a live
document feed; every stream chunk flows through one shared projecting
byte scan however many subscriptions are live;
per-subscription results stream back through bounded queues with explicit
slow-consumer policies.  The query set is *mutable mid-stream*: the union
projection automaton grows by delta-merge and shrinks by tombstoning
(:class:`repro.pipeline.fanout.DynamicFanout`), so churn never recompiles the surviving
queries and never perturbs in-flight documents.

Layers, bottom up:

* :mod:`repro.serve.fanout` -- re-exports the incremental union automaton,
* :mod:`repro.serve.hub` -- the synchronous engine core: subscriptions,
  boundary churn, bounded delivery, governor fairness,
* :mod:`repro.serve.protocol` -- the NDJSON wire format,
* :mod:`repro.serve.server` / :mod:`repro.serve.client` -- the asyncio
  TCP front-end and its blocking client (``repro serve`` /
  ``repro subscribe``).
"""

from repro.serve.fanout import DynamicFanout
from repro.serve.hub import (
    DEFAULT_MAX_QUEUE,
    POLICIES,
    Subscription,
    SubscriptionHub,
    SubscriptionResult,
)
from repro.serve.client import SubscribeClient
from repro.serve.server import ServeServer, serve_ticker

__all__ = [
    "DEFAULT_MAX_QUEUE",
    "DynamicFanout",
    "POLICIES",
    "ServeServer",
    "SubscribeClient",
    "Subscription",
    "SubscriptionHub",
    "SubscriptionResult",
    "serve_ticker",
]
