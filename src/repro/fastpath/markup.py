"""String-level parsing the byte scanner defers to materialization.

The scanner walks bytes and leaves the decoded work for the spans that
survive projection: tag-body parsing (:func:`parse_tag_body`), entity and
character references (:func:`decode_entities`) and XML 1.0 line-end
normalisation (:func:`normalize_newlines`).  :func:`valid_name` is the
scanner's name rule.  This is engine code: the reference event stream
(:mod:`repro.xmlstream.parser`) is expat and shares none of it.
"""

from __future__ import annotations

import re

from repro.xmlstream.errors import XMLSyntaxError

_PREDEFINED_ENTITIES = {"lt": "<", "gt": ">", "amp": "&", "quot": '"', "apos": "'"}

#: A run of name characters: ``str.isalnum`` or ``_:.-``.
_NAME_RE = re.compile(r"[\w:.\-]+")
#: One attribute after its separating whitespace: ``name = "value"``.
_ATTRIBUTE_RE = re.compile(r"""\s+([\w:.\-]+)\s*=\s*(?:"([^"]*)"|'([^']*)')""")
#: Whitespace an attribute value normalises to a space (section 3.3.3), a
#: CR LF pair counting once (section 2.11).
_ATTRIBUTE_WHITESPACE_RE = re.compile(r"\r\n|[\t\n\r]")
#: An entity or character reference: its name runs to the next ``;``.
_REFERENCE_RE = re.compile(r"&([^;]*)(;?)")


def valid_name(name: str) -> bool:
    """Whether ``name`` is a well-formed tag name: a letter, ``_`` or ``:``
    followed by name characters."""
    return _NAME_RE.fullmatch(name) is not None and (name[0].isalpha() or name[0] in "_:")


def normalize_newlines(text: str) -> str:
    """Section 2.11: every CR LF pair and every lone CR becomes LF."""
    return text.replace("\r\n", "\n").replace("\r", "\n")


def parse_tag_body(raw_tag: str, here: int = 0):
    """Parse the inside of a start tag: ``name, [(attr, value), ...]``.

    Attribute values are normalised (literal tabs and line ends become
    spaces) before their references are decoded, so ``&#9;`` stays a tab.
    ``here`` is the offset reported in errors.
    """
    body = raw_tag.strip()
    match = _NAME_RE.match(body)
    if match is None or not valid_name(match.group()):
        raise XMLSyntaxError(f"malformed tag <{body}>", here)
    name = match.group()
    attributes = []
    end = match.end()
    while end < len(body):
        match = _ATTRIBUTE_RE.match(body, end)
        if match is None:
            raise XMLSyntaxError(f"malformed attribute in <{body}>", here)
        attribute, double, single = match.groups()
        value = double if double is not None else single
        if "\t" in value or "\n" in value or "\r" in value:
            value = _ATTRIBUTE_WHITESPACE_RE.sub(" ", value)
        attributes.append((attribute, decode_entities(value, here)))
        end = match.end()
    return name, attributes


def decode_entities(text: str, offset: int = 0) -> str:
    """Replace entity and character references in ``text``.

    Only the five predefined entities and numeric character references are
    supported; anything else raises :class:`XMLSyntaxError` at ``offset``
    plus the reference's index.
    """
    if "&" not in text:
        return text

    def resolve(match) -> str:
        name, semicolon = match.groups()
        at = offset + match.start()
        if not semicolon:
            raise XMLSyntaxError("unterminated entity reference", at)
        if name in _PREDEFINED_ENTITIES:
            return _PREDEFINED_ENTITIES[name]
        if name.startswith("#"):
            try:
                return chr(int(name[2:], 16) if name[1:2] in ("x", "X") else int(name[1:]))
            except ValueError:
                raise XMLSyntaxError(f"bad character reference &{name};", at) from None
        raise XMLSyntaxError(f"unknown entity &{name};", at)

    return _REFERENCE_RE.sub(resolve, text)


__all__ = ["decode_entities", "normalize_newlines", "parse_tag_body", "valid_name"]
