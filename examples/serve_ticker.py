"""The subscription server: many live queries over one shared stream.

A feed (``examples/feed_ticker.py``) is one query over an endless stream.
A *subscription server* (:mod:`repro.serve`) is N of them at once: clients
register prepared queries as subscriptions over a live document feed, every
stream chunk flows through **one** shared projecting scan however many
subscriptions are live, and per-subscription results
stream back over NDJSON-on-TCP through bounded queues.

The query set is mutable mid-stream: this example starts a server
self-feeding the XMark auction ticker, connects one subscriber before the
feed starts and a second one *mid-feed*, and shows

* both subscribers receiving results byte-identical to solo runs of their
  query over the regenerated tick documents,
* the late joiner starting exactly at the next document boundary -- no
  partial documents, no replay,
* the incremental-fanout guarantee: churn never re-merged the union
  projection automaton (``recompiles`` stays 0).

Run with::

    python examples/serve_ticker.py          # 30 tick documents
    python examples/serve_ticker.py 60       # a longer feed
"""

import sys
import threading

from repro import FluxSession
from repro.serve import SubscribeClient, SubscriptionHub, ServeServer
from repro.xmark.dtd import xmark_dtd
from repro.xmark.queries import BENCHMARK_QUERIES
from repro.xmark.ticker import ticker_document

CHUNK_BYTES = 2039  # a prime: boundaries drift through markup and ticks alike
SCALE = 0.01
JOIN_AFTER = 5  # the second subscriber appears after this many results


def subscriber(port: int, query: str, name: str, frames: list, joined: threading.Event):
    """One client connection: subscribe, then collect result frames."""
    with SubscribeClient("127.0.0.1", port, timeout=60) as client:
        client.subscribe(query, name=name)
        client.expect("subscribed")
        joined.set()
        for frame in client.frames():
            if frame.get("event") == "result":
                frames.append(frame)
            elif frame.get("event") == "eof":
                return


def main() -> None:
    documents = int(sys.argv[1]) if len(sys.argv) > 1 else 30

    # A client-fed server: this process plays both roles, so the feed can
    # wait for the subscribers deterministically (a wall-clock feed would
    # race them; see `repro serve` for the self-feeding variant).
    server = ServeServer(SubscriptionHub(xmark_dtd())).start()
    print(f"subscription server on 127.0.0.1:{server.port}")

    early_frames, late_frames = [], []
    early_up, late_up = threading.Event(), threading.Event()
    early = threading.Thread(
        target=subscriber,
        args=(server.port, "Q1", "early", early_frames, early_up),
        daemon=True,
    )
    early.start()
    early_up.wait(timeout=30)

    feeder = SubscribeClient("127.0.0.1", server.port, timeout=60)
    late = None
    for index in range(documents):
        if index == JOIN_AFTER:
            late = threading.Thread(
                target=subscriber,
                args=(server.port, "Q13", "late", late_frames, late_up),
                daemon=True,
            )
            late.start()
            late_up.wait(timeout=30)  # subscribed: next boundary is theirs
        feeder.send({"op": "feed", "data": ticker_document(index, scale=SCALE)})
    feeder.send({"op": "finish"})
    early.join(timeout=120)
    late.join(timeout=120)
    feeder.close()

    progress = server.hub.progress()
    server.stop()

    # Oracle: solo runs over independently regenerated tick documents.
    session = FluxSession(xmark_dtd())
    q1 = session.prepare(BENCHMARK_QUERIES["Q1"])
    solo_q1 = [q1.execute(ticker_document(i, scale=SCALE)).output for i in range(documents)]
    q13 = session.prepare(BENCHMARK_QUERIES["Q13"])
    late_first = late_frames[0]["document"] if late_frames else None
    solo_q13 = [
        q13.execute(ticker_document(i, scale=SCALE)).output
        for i in range(late_first or 0, documents)
    ]

    early_identical = [f["output"] for f in early_frames] == solo_q1
    late_identical = [f["output"] for f in late_frames] == solo_q13
    fanout = progress["fanout"]
    print(f"documents served            : {progress['documents_completed']}")
    print(f"early subscriber (Q1)       : {len(early_frames)} results, docs 0..{documents - 1}")
    print(
        f"late subscriber  (Q13)      : {len(late_frames)} results, "
        f"joined at document {late_first} (a boundary, never mid-document)"
    )
    print(f"early byte-identical to solo runs: {early_identical}")
    print(f"late byte-identical to solo runs : {late_identical}")
    print(
        f"union automaton: attaches={fanout['attaches']} "
        f"detaches={fanout['detaches']} recompiles={fanout['recompiles']} "
        f"(churn never re-merges)"
    )


if __name__ == "__main__":
    main()
