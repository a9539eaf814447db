"""Source locations and the error hierarchy shared by every stage.

Exit-code conventions live in the CLI, but the split is decided here:
lexer and parser failures are LexError/ParseError, failures of the source
program are CheckError, and failures of generated output are VerifyError.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Union

# A message, or a function of no arguments that builds it when it is first
# read, so that a failure a caller catches and drops costs no printing.
Message = Union[str, Callable[[], str]]


class SourceSpan(NamedTuple):
    """Region of a source file.  Lines and columns are 1-based; the end is
    exclusive, so `nat` at 1:1 ends at column 4."""

    file: str
    line: int
    col: int
    end_line: int
    end_col: int

    def __str__(self) -> str:
        return f"{self.file}:{self.line}:{self.col}"


class LfrError(Exception):
    """Base class for reportable failures."""

    severity = "error"

    def __init__(self, message: Message, span: SourceSpan | None = None):
        super().__init__()
        self._message = message
        self.span = span

    @property
    def message(self) -> str:
        if not isinstance(self._message, str):
            self._message = self._message()
        return self._message

    def __str__(self) -> str:
        return self.message

    def format(self) -> str:
        if self.span is not None:
            return f"{self.span}: {self.severity}: {self.message}"
        return f"{self.severity}: {self.message}"


class LexError(LfrError):
    """Input could not be tokenized."""


class ParseError(LfrError):
    """Token stream does not match the grammar."""


class CheckError(LfrError):
    """The source signature is ill-formed (LF or refinement layer)."""


class VerifyError(LfrError):
    """Generated output failed re-verification; indicates a translator bug."""
