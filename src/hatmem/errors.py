"""Exception types shared across the package."""

from __future__ import annotations

from typing import Optional


class HatError(Exception):
    """Base class for every error raised by hatmem."""


class InvalidParameterError(HatError, ValueError):
    """A caller-supplied argument violates a precondition."""


class ContractViolationError(HatError):
    """An operation was invoked on an object that cannot support it."""


class NotFoundError(HatError, LookupError):
    """Lookup of a node, session, or file failed."""


class DocumentParseError(HatError, ValueError):
    """A persisted document or input record is malformed."""


class ConfigurationError(HatError):
    """Required configuration (credentials, gold data, ...) is missing."""


class _StagedError(HatError):
    """A failed chat call; `stage` names the kind of call (aggregate, agent,
    oracle or generate) when the request said so, and is None otherwise."""

    def __init__(self, message: str, stage: Optional[str] = None):
        super().__init__(message)
        self.stage = stage


class RemoteUnavailableError(_StagedError):
    """The chat endpoint kept failing after all retries."""


class ProtocolError(_StagedError):
    """The chat endpoint replied with a body we cannot interpret."""


class ActionParseError(HatError):
    """An agent reply contained no recognizable action token."""
