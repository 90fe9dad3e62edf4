"""Errors raised by the streaming XML substrate."""


class XMLSyntaxError(ValueError):
    """Raised when a parser or the scanner encounters malformed XML.

    The error carries the absolute byte offset at which the problem was
    detected, which is useful when debugging generated or hand-written test
    documents.
    """

    def __init__(self, message, offset=None):
        if offset is not None:
            message = f"{message} (at offset {offset})"
        super().__init__(message)
        self.offset = offset


class XMLWellFormednessError(XMLSyntaxError):
    """Raised when tags are not properly nested or the document is truncated."""
