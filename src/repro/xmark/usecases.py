"""XMP use-case queries and bibliography DTDs (Sections 1 and 4.3).

The paper develops its running examples on the bibliography domain of the
W3C XML Query Use Cases: query Q1 (books after 1991 published by
Addison-Wesley), Q2 (flat title/author pairs) and a join query Q3 (authors of
articles co-authored by book editors).  This module provides those queries,
the DTD variants the paper contrasts (with and without order constraints),
and a small deterministic bibliography generator so that the examples and
the ablation benches have data to run on.
"""

from __future__ import annotations

import random
from typing import List

#: The weak DTD of Section 1: no order constraint between titles and authors.
BIB_DTD_UNORDERED = """
<!ELEMENT bib (book)*>
<!ELEMENT book (title|author)*>
<!ELEMENT title (#PCDATA)>
<!ELEMENT author (#PCDATA)>
"""

#: The XML Query Use Cases DTD of Section 1: titles precede authors.
BIB_DTD_USECASES = """
<!ELEMENT bib (book)*>
<!ELEMENT book (title,(author+|editor+),publisher,price)>
<!ELEMENT title (#PCDATA)>
<!ELEMENT author (#PCDATA)>
<!ELEMENT editor (#PCDATA)>
<!ELEMENT publisher (#PCDATA)>
<!ELEMENT price (#PCDATA)>
"""

#: The DTD used in Example 4.4 for the ordered case: authors precede titles.
BIB_DTD_ORDERED = """
<!ELEMENT bib (book)*>
<!ELEMENT book (author*,title*)>
<!ELEMENT title (#PCDATA)>
<!ELEMENT author (#PCDATA)>
"""

#: The mixed bibliography DTDs of Example 4.6 (books and articles).
BIB_ARTICLES_DTD_UNORDERED = """
<!ELEMENT bib (book|article)*>
<!ELEMENT book (title,(author+|editor+),publisher)>
<!ELEMENT article (title,author+,journal)>
<!ELEMENT title (#PCDATA)>
<!ELEMENT author (#PCDATA)>
<!ELEMENT editor (#PCDATA)>
<!ELEMENT publisher (#PCDATA)>
<!ELEMENT journal (#PCDATA)>
"""

BIB_ARTICLES_DTD_ORDERED = """
<!ELEMENT bib (book*,article*)>
<!ELEMENT book (title,(author+|editor+),publisher)>
<!ELEMENT article (title,author+,journal)>
<!ELEMENT title (#PCDATA)>
<!ELEMENT author (#PCDATA)>
<!ELEMENT editor (#PCDATA)>
<!ELEMENT publisher (#PCDATA)>
<!ELEMENT journal (#PCDATA)>
"""

#: DTD for the weak variant of XMP Q1 (Example 4.5): no order constraints.
BIB_Q1_DTD_UNORDERED = """
<!ELEMENT bib (book)*>
<!ELEMENT book (title|publisher|year)*>
<!ELEMENT title (#PCDATA)>
<!ELEMENT publisher (#PCDATA)>
<!ELEMENT year (#PCDATA)>
"""

#: DTD for the ordered variant of XMP Q1: publisher and year precede title.
BIB_Q1_DTD_ORDERED = """
<!ELEMENT bib (book)*>
<!ELEMENT book (publisher,year,title*)>
<!ELEMENT title (#PCDATA)>
<!ELEMENT publisher (#PCDATA)>
<!ELEMENT year (#PCDATA)>
"""

#: XMP Q1: books published by Addison-Wesley after 1991 (Example 4.2).
XMP_Q1 = """
<bib>
{ for $b in $ROOT/bib/book
  where $b/publisher = "Addison-Wesley" and $b/year > 1991
  return <book> {$b/year} {$b/title} </book> }
</bib>
"""

#: XMP Q2: flat list of title/author pairs (Example 4.4).
XMP_Q2 = """
<results>
{ for $b in $ROOT/bib/book return
  { for $t in $b/title return
    { for $a in $b/author return
      <result> {$t} {$a} </result> } } }
</results>
"""

#: XMP Q3: authors of articles co-authored by book editors (Example 4.6).
XMP_Q3 = """
<results>
{ for $bib in $ROOT/bib return
  { for $article in $bib/article return
    { for $book in $bib/book
      where $article/author = $book/editor
      return <result> {$article/author} </result> } } }
</results>
"""

#: The intro query of Section 1 (XMP Q3 of the use cases document).
XMP_INTRO = """
<results>
{ for $b in $ROOT/bib/book return
  <result> {$b/title} {$b/author} </result> }
</results>
"""

_PUBLISHERS = ("Addison-Wesley", "Morgan Kaufmann", "Springer", "OReilly")
_WORDS = (
    "data web streams queries processing advanced systems principles "
    "foundations networking algorithms semistructured compilers databases"
).split()
_AUTHORS = (
    "Stevens", "Abiteboul", "Buneman", "Suciu", "Ullman", "Widom", "Koch",
    "Scherzinger", "Schweikardt", "Stegmaier", "Garcia-Molina", "Vianu",
)


def generate_bibliography(
    books: int = 50,
    *,
    articles: int = 0,
    seed: int = 7,
    ordered: bool = True,
    authors_first: bool = False,
    max_authors: int = 3,
) -> str:
    """A deterministic bibliography document.

    ``ordered=True`` emits titles before authors (valid for the use-cases
    DTD); ``ordered=False`` interleaves them (valid only for the weak DTD);
    ``authors_first=True`` emits all authors before all titles (valid for the
    Example-4.4 DTD ``(author*, title*)``).  When ``articles`` is positive,
    the document also contains article elements and follows the Example-4.6
    schema (books before articles).
    """
    rng = random.Random(seed)
    parts: List[str] = ["<bib>"]
    for index in range(books):
        title = " ".join(rng.choice(_WORDS) for _ in range(3)).title()
        authors = [rng.choice(_AUTHORS) for _ in range(rng.randint(1, max_authors))]
        use_editor = articles > 0 and rng.random() < 0.5
        year = rng.randint(1985, 2004)
        publisher = rng.choice(_PUBLISHERS)
        parts.append("<book>")
        if articles > 0:
            # Example 4.6 schema: title, (author+ | editor+), publisher.
            parts.append(f"<title>{title}</title>")
            names = authors
            tag = "editor" if use_editor else "author"
            for name in names:
                parts.append(f"<{tag}>{name}</{tag}>")
            parts.append(f"<publisher>{publisher}</publisher>")
        elif authors_first:
            # Example 4.4's second DTD: (author*, title*).
            for name in authors:
                parts.append(f"<author>{name}</author>")
            parts.append(f"<title>{title}</title>")
            if rng.random() < 0.3:
                parts.append(f"<title>{title} (second edition)</title>")
        elif ordered:
            parts.append(f"<title>{title}</title>")
            for name in authors:
                parts.append(f"<author>{name}</author>")
            parts.append(f"<publisher>{publisher}</publisher>")
            parts.append(f"<price>{rng.randint(20, 90)}</price>")
        else:
            pieces = [f"<title>{title}</title>"] + [f"<author>{name}</author>" for name in authors]
            rng.shuffle(pieces)
            parts.extend(pieces)
        parts.append("</book>")
        __ = year
    for index in range(articles):
        title = " ".join(rng.choice(_WORDS) for _ in range(3)).title()
        parts.append("<article>")
        parts.append(f"<title>{title}</title>")
        for _ in range(rng.randint(1, max_authors)):
            parts.append(f"<author>{rng.choice(_AUTHORS)}</author>")
        parts.append(f"<journal>{rng.choice(_WORDS).title()} Journal</journal>")
        parts.append("</article>")
    parts.append("</bib>")
    return "".join(parts)


def generate_q1_bibliography(books: int = 50, *, seed: int = 7, ordered: bool = True) -> str:
    """Bibliography for the XMP-Q1 example (publisher/year/title books).

    ``ordered=True`` emits ``publisher, year, title*`` (valid for
    :data:`BIB_Q1_DTD_ORDERED`); ``ordered=False`` shuffles the children
    (valid only for the weak :data:`BIB_Q1_DTD_UNORDERED`).
    """
    rng = random.Random(seed)
    parts: List[str] = ["<bib>"]
    for _ in range(books):
        publisher = rng.choice(_PUBLISHERS)
        year = rng.randint(1985, 2004)
        titles = [
            " ".join(rng.choice(_WORDS) for _ in range(3)).title()
            for _ in range(rng.randint(1, 2))
        ]
        pieces = [f"<publisher>{publisher}</publisher>", f"<year>{year}</year>"]
        pieces += [f"<title>{title}</title>" for title in titles]
        if not ordered:
            rng.shuffle(pieces)
        parts.append("<book>" + "".join(pieces) + "</book>")
    parts.append("</bib>")
    return "".join(parts)
