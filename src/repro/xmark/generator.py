"""Deterministic XMark-like data generator.

The original experiments used the XMark ``xmlgen`` tool (V 0.96) to produce
5/10/50/100 MB documents.  ``xmlgen`` is a C program we cannot ship, so this
module implements a generator that

* produces documents valid with respect to the adapted DTD of
  :mod:`repro.xmark.dtd` (attributes already converted to subelements),
* is fully deterministic for a given seed and configuration, so benchmark
  runs are repeatable,
* streams its output as text chunks, so arbitrarily large documents can be
  generated without holding them in memory,
* follows the rough XMark proportions between people, items and auctions and
  reuses person ids in closed auctions, so the join queries (8 and 11)
  produce non-trivial results.

Scale is controlled either directly through :class:`XMarkConfig` or through
:func:`config_for_scale`, where scale ``1.0`` is about 0.62 MB of XML text
(621,685 bytes at seed 97) and size grows linearly with scale.
"""

from __future__ import annotations

import io
import random
from dataclasses import dataclass
from typing import Iterator, List

_WORDS = (
    "stream schema buffer query event handler order constraint projection "
    "auction bidder seller gold silver amber quartz willow harbor meadow "
    "crimson copper ledger parcel antique vintage rare mint boxed sealed "
    "signed limited edition catalogue shipping international courier "
    "payment creditcard cash wire transfer money order personal check"
).split()

_FIRST_NAMES = (
    "Ada Alan Barbara Carl Dana Edsger Frances Grace Hedy Ivan John Katherine "
    "Leslie Margaret Niklaus Olga Peter Quentin Radia Stephen Tim Ursula "
    "Vint Wendy Xavier Yvonne Zhores"
).split()

_LAST_NAMES = (
    "Lovelace Turing Liskov Gauss Scott Dijkstra Allen Hopper Lamarr Sutherland "
    "Backus Johnson Lamport Hamilton Wirth Ladyzhenskaya Naur Stafford Perlman "
    "Cook BernersLee Franklin Cerf Carlson Serra Brill Alferov"
).split()

_CITIES = (
    "Vienna Munich Berlin Cairo Sydney Toronto Lisbon Oslo Prague Kyoto "
    "Auckland Santiago Montevideo Nairobi Reykjavik Ljubljana"
).split()

_COUNTRIES = (
    "Austria Germany Egypt Australia Canada Portugal Norway Czechia Japan "
    "NewZealand Chile Uruguay Kenya Iceland Slovenia"
).split()

_CONTINENTS = ("africa", "asia", "australia", "europe", "namerica", "samerica")


@dataclass(frozen=True)
class XMarkConfig:
    """Size knobs of the generated document."""

    people: int = 120
    items_per_region: int = 12
    open_auctions: int = 60
    closed_auctions: int = 60
    categories: int = 10
    seed: int = 42
    description_sentences: int = 2
    mails_per_item: int = 1

    def scaled(self, factor: float) -> "XMarkConfig":
        """A configuration scaled by ``factor`` (counts rounded, at least 1)."""

        def scale(value: int) -> int:
            return max(1, int(round(value * factor)))

        return XMarkConfig(
            people=scale(self.people),
            items_per_region=scale(self.items_per_region),
            open_auctions=scale(self.open_auctions),
            closed_auctions=scale(self.closed_auctions),
            categories=scale(self.categories),
            seed=self.seed,
            description_sentences=self.description_sentences,
            mails_per_item=self.mails_per_item,
        )


def config_for_scale(scale: float, *, seed: int = 42) -> XMarkConfig:
    """Configuration whose document is about ``0.62 * scale`` MB of XML."""
    base = XMarkConfig(
        people=300,
        items_per_region=60,
        open_auctions=220,
        closed_auctions=220,
        categories=20,
        seed=seed,
    )
    return base.scaled(scale)


class _Writer:
    """Accumulates markup and flushes fixed-size chunks."""

    def __init__(self, chunk_size: int = 64 * 1024):
        self._parts: List[str] = []
        self._size = 0
        self._chunk_size = chunk_size

    def tag(self, name: str, value: str) -> None:
        self.raw(f"<{name}>{value}</{name}>")

    def open(self, name: str) -> None:
        self.raw(f"<{name}>")

    def close(self, name: str) -> None:
        self.raw(f"</{name}>")

    def raw(self, text: str) -> None:
        self._parts.append(text)
        self._size += len(text)

    def flush_ready(self) -> bool:
        return self._size >= self._chunk_size

    def take(self) -> str:
        chunk = "".join(self._parts)
        self._parts = []
        self._size = 0
        return chunk


class _XMarkGenerator:
    """Stateful generator of one document."""

    def __init__(self, config: XMarkConfig):
        self.config = config
        self.random = random.Random(config.seed)
        self.item_count = 0

    # ------------------------------------------------------------- helpers

    def words(self, count: int) -> str:
        return " ".join(self.random.choice(_WORDS) for _ in range(count))

    def sentence(self) -> str:
        return self.words(self.random.randint(6, 14)).capitalize() + "."

    def person_name(self) -> str:
        return f"{self.random.choice(_FIRST_NAMES)} {self.random.choice(_LAST_NAMES)}"

    def money(self, low: float, high: float) -> str:
        return f"{self.random.uniform(low, high):.2f}"

    # ----------------------------------------------------------- structure

    def emit(self, writer: _Writer) -> Iterator[str]:
        config = self.config
        writer.open("site")

        # -- regions ------------------------------------------------------
        writer.open("regions")
        for continent in _CONTINENTS:
            writer.open(continent)
            for _ in range(config.items_per_region):
                self._emit_item(writer)
                if writer.flush_ready():
                    yield writer.take()
            writer.close(continent)
        writer.close("regions")
        yield writer.take()

        # -- categories / catgraph ---------------------------------------
        writer.open("categories")
        for index in range(max(1, config.categories)):
            writer.open("category")
            writer.tag("category_id", f"category{index}")
            writer.tag("name", self.words(2))
            writer.open("description")
            writer.tag("text", self.sentence())
            writer.close("description")
            writer.close("category")
        writer.close("categories")
        writer.open("catgraph")
        for index in range(max(0, config.categories - 1)):
            writer.open("edge")
            writer.tag("edge_from", f"category{index}")
            writer.tag("edge_to", f"category{(index + 1) % config.categories}")
            writer.close("edge")
        writer.close("catgraph")
        yield writer.take()

        # -- people --------------------------------------------------------
        writer.open("people")
        for index in range(config.people):
            self._emit_person(writer, index)
            if writer.flush_ready():
                yield writer.take()
        writer.close("people")
        yield writer.take()

        # -- open auctions -------------------------------------------------
        writer.open("open_auctions")
        for index in range(config.open_auctions):
            self._emit_open_auction(writer, index)
            if writer.flush_ready():
                yield writer.take()
        writer.close("open_auctions")
        yield writer.take()

        # -- closed auctions ----------------------------------------------
        writer.open("closed_auctions")
        for index in range(config.closed_auctions):
            self._emit_closed_auction(writer, index)
            if writer.flush_ready():
                yield writer.take()
        writer.close("closed_auctions")
        writer.close("site")
        yield writer.take()

    # ------------------------------------------------------------ elements

    def _emit_item(self, writer: _Writer) -> None:
        config = self.config
        index = self.item_count
        self.item_count += 1
        writer.open("item")
        writer.tag("item_id", f"item{index}")
        writer.tag("location", self.random.choice(_COUNTRIES))
        writer.tag("quantity", str(self.random.randint(1, 5)))
        writer.tag("name", self.words(3))
        writer.tag("payment", "creditcard")
        writer.open("description")
        writer.tag("text", " ".join(self.sentence() for _ in range(config.description_sentences)))
        writer.close("description")
        writer.tag("shipping", "international courier")
        for _ in range(self.random.randint(1, 2)):
            writer.open("incategory")
            writer.tag(
                "incategory_category",
                f"category{self.random.randrange(max(1, config.categories))}",
            )
            writer.close("incategory")
        writer.open("mailbox")
        for _ in range(config.mails_per_item):
            writer.open("mail")
            writer.tag("from", self.person_name())
            writer.tag("to", self.person_name())
            writer.tag("date", self._date())
            writer.tag("text", self.sentence())
            writer.close("mail")
        writer.close("mailbox")
        writer.close("item")

    def _emit_person(self, writer: _Writer, index: int) -> None:
        config = self.config
        name = self.person_name()
        has_income = self.random.random() < 0.6
        income = self.money(30000, 150000)
        writer.open("person")
        writer.tag("person_id", f"person{index}")
        if has_income:
            writer.tag("person_income", income)
        writer.tag("name", name)
        writer.tag("emailaddress", f"mailto:{name.replace(' ', '.').lower()}@example.org")
        if self.random.random() < 0.5:
            writer.tag("phone", f"+{self.random.randint(1, 99)} {self.random.randint(1000000, 9999999)}")
        if self.random.random() < 0.6:
            writer.open("address")
            writer.tag("street", f"{self.random.randint(1, 99)} {self.random.choice(_WORDS)} street")
            writer.tag("city", self.random.choice(_CITIES))
            writer.tag("country", self.random.choice(_COUNTRIES))
            writer.tag("zipcode", str(self.random.randint(10000, 99999)))
            writer.close("address")
        if self.random.random() < 0.3:
            writer.tag("homepage", f"http://example.org/~person{index}")
        if self.random.random() < 0.4:
            writer.tag("creditcard", " ".join(str(self.random.randint(1000, 9999)) for _ in range(4)))
        if self.random.random() < 0.8:
            writer.open("profile")
            if has_income:
                writer.tag("profile_income", income)
            for _ in range(self.random.randint(0, 3)):
                writer.open("interest")
                writer.tag(
                    "interest_category",
                    f"category{self.random.randrange(max(1, config.categories))}",
                )
                writer.close("interest")
            if self.random.random() < 0.5:
                writer.tag("education", self.random.choice(["High School", "College", "Graduate School"]))
            if self.random.random() < 0.5:
                writer.tag("gender", self.random.choice(["male", "female"]))
            writer.tag("business", self.random.choice(["Yes", "No"]))
            if self.random.random() < 0.5:
                writer.tag("age", str(self.random.randint(18, 90)))
            writer.close("profile")
        if self.random.random() < 0.3:
            writer.open("watches")
            for _ in range(self.random.randint(1, 3)):
                writer.open("watch")
                writer.tag(
                    "watch_open_auction",
                    f"open_auction{self.random.randrange(max(1, config.open_auctions))}",
                )
                writer.close("watch")
            writer.close("watches")
        writer.close("person")

    def _emit_open_auction(self, writer: _Writer, index: int) -> None:
        config = self.config
        writer.open("open_auction")
        writer.tag("open_auction_id", f"open_auction{index}")
        writer.tag("initial", self.money(1, 300))
        if self.random.random() < 0.4:
            writer.tag("reserve", self.money(100, 1000))
        for _ in range(self.random.randint(0, 3)):
            writer.open("bidder")
            writer.tag("date", self._date())
            writer.tag("time", self._time())
            writer.open("personref")
            writer.tag("personref_person", f"person{self.random.randrange(max(1, config.people))}")
            writer.close("personref")
            writer.tag("increase", self.money(1, 30))
            writer.close("bidder")
        writer.tag("current", self.money(10, 1500))
        writer.open("itemref")
        writer.tag("itemref_item", f"item{self.random.randrange(max(1, self.item_count))}")
        writer.close("itemref")
        writer.open("seller")
        writer.tag("seller_person", f"person{self.random.randrange(max(1, config.people))}")
        writer.close("seller")
        writer.tag("quantity", str(self.random.randint(1, 3)))
        writer.tag("type", self.random.choice(["Regular", "Featured"]))
        writer.open("interval")
        writer.tag("start", self._date())
        writer.tag("end", self._date())
        writer.close("interval")
        writer.close("open_auction")

    def _emit_closed_auction(self, writer: _Writer, index: int) -> None:
        config = self.config
        writer.open("closed_auction")
        writer.tag("closed_auction_id", f"closed_auction{index}")
        writer.open("seller")
        writer.tag("seller_person", f"person{self.random.randrange(max(1, config.people))}")
        writer.close("seller")
        writer.open("buyer")
        writer.tag("buyer_person", f"person{self.random.randrange(max(1, config.people))}")
        writer.close("buyer")
        writer.open("itemref")
        writer.tag("itemref_item", f"item{self.random.randrange(max(1, self.item_count))}")
        writer.close("itemref")
        writer.tag("price", self.money(10, 2000))
        writer.tag("date", self._date())
        writer.tag("quantity", str(self.random.randint(1, 3)))
        writer.tag("type", self.random.choice(["Regular", "Featured"]))
        if self.random.random() < 0.5:
            writer.open("annotation")
            writer.open("description")
            writer.tag("text", self.sentence())
            writer.close("description")
            writer.close("annotation")
        writer.close("closed_auction")

    def _date(self) -> str:
        return (
            f"{self.random.randint(1, 28):02d}/"
            f"{self.random.randint(1, 12):02d}/"
            f"{self.random.randint(1998, 2004)}"
        )

    def _time(self) -> str:
        return f"{self.random.randint(0, 23):02d}:{self.random.randint(0, 59):02d}:00"


# ---------------------------------------------------------------------------
# Public entry points


def iter_document_chunks(config: XMarkConfig) -> Iterator[str]:
    """Stream the document as text chunks (never holds the whole document)."""
    generator = _XMarkGenerator(config)
    writer = _Writer()
    for chunk in generator.emit(writer):
        if chunk:
            yield chunk


def generate_document(config: XMarkConfig) -> str:
    """Generate the whole document as a single string."""
    return "".join(iter_document_chunks(config))


def write_document(path, config: XMarkConfig) -> int:
    """Write the document to ``path``; returns the number of bytes written."""
    written = 0
    with open(path, "w", encoding="utf-8") as handle:
        for chunk in iter_document_chunks(config):
            handle.write(chunk)
            written += len(chunk)
    return written


def estimate_size_bytes(config: XMarkConfig) -> int:
    """Exact size of the document the configuration produces (generates it once)."""
    return sum(len(chunk) for chunk in iter_document_chunks(config))
