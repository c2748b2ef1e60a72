"""Aggregate functions that fold ordered child texts into one parent text.

Three kinds: `concat` (separator join), `truncate` (join then keep the first
B tokens), and `llm_persona` (persona-note summarization through the chat
client). Inputs always arrive oldest to newest. Deterministic kinds are pure
functions of the input list; the persona kind is pure given one answer per
request (see the `llm` module docstring). A tree never sends a lone summary
to be merged again (see `HatTree.flush`). `AGGREGATORS` (kind to class) is
the one list of kinds; each default is in its constructor alone.
"""

from __future__ import annotations

from inspect import signature
from typing import Optional

from .errors import ContractViolationError, InvalidParameterError
from .llm import ChatRequest, is_int, is_max_tokens
from .metrics import tokenize

# The name of the one persona prompt, recorded in every llm_persona spec.
PERSONA_TEMPLATE = "persona_v1"

_PERSONA_SYSTEM = """\
You keep condensed memory notes for a two-person conversation. Merge the
numbered passages into one short plain-text note that preserves every
concrete fact about either speaker: names, preferences, events, plans,
dates. Never invent a fact that is not in the passages. When passages
disagree, prefer the later one."""


def persona_prompt(children_texts: list[str]) -> list[dict]:
    """Two-message persona-merge conversation with numbered child blocks."""
    if not children_texts:
        raise ContractViolationError("persona_prompt needs at least one text")
    block = "\n".join(f"{i}. {text}" for i, text in enumerate(children_texts, start=1))
    return [{"role": "system", "content": _PERSONA_SYSTEM},
            {"role": "user", "content": f"Passages to merge:\n{block}"}]


class Aggregator:
    """Interface: subclasses define `kind`, `params()`, and `aggregate()`."""

    kind = ""

    def params(self) -> dict:
        raise NotImplementedError

    def spec(self) -> dict:
        """JSON-able identity of this aggregator, stored in tree documents."""
        return {"kind": self.kind, "params": self.params()}

    def aggregate(self, children_texts: list[str]) -> str:
        raise NotImplementedError

    def _check(self, children_texts: list[str]) -> None:
        if not children_texts:
            raise ContractViolationError("aggregate called with no children texts")


class ConcatAggregator(Aggregator):
    kind = "concat"

    def __init__(self, separator: str = "\n"):
        if not isinstance(separator, str):
            raise InvalidParameterError(f"concat separator must be a string, got {separator!r}")
        self.separator = separator

    def params(self) -> dict:
        return {"separator": self.separator}

    def aggregate(self, children_texts: list[str]) -> str:
        self._check(children_texts)
        return self.separator.join(children_texts)


class TruncateAggregator(Aggregator):
    kind = "truncate"

    def __init__(self, budget: int = 256):
        if not is_int(budget) or budget < 1:
            raise InvalidParameterError(f"truncate budget must be a positive integer, got {budget!r}")
        self.budget = budget

    def params(self) -> dict:
        return {"budget": self.budget}

    def aggregate(self, children_texts: list[str]) -> str:
        self._check(children_texts)
        tokens = tokenize(" ".join(children_texts))
        return " ".join(tokens[: self.budget])


class LlmPersonaAggregator(Aggregator):
    """Summarizes children into one persona note via the chat client.

    It sends `persona_prompt`, a system message asking for one short note
    that keeps every concrete fact, then the children as numbered passages;
    the stripped reply is the parent text. A client is optional so that
    serialized trees can be loaded for inspection without one; aggregating
    without one is a `ContractViolationError`, a caller's mistake rather
    than a remote failure. max_tokens is checked here, so that a bad spec or
    tree document fails to load, not at its first call. `params()` records
    the prompt's name, "persona_v1", and temperature 0.0, constants that no
    caller sets.
    """

    kind = "llm_persona"

    def __init__(self, client=None, max_tokens: Optional[int] = None):
        if not is_max_tokens(max_tokens):
            raise InvalidParameterError(
                f"persona max_tokens must be a positive integer or null, got {max_tokens!r}")
        self.client = client
        self.max_tokens = max_tokens

    def params(self) -> dict:
        params = {"template": PERSONA_TEMPLATE, "temperature": 0.0}
        if self.max_tokens is not None:
            params["max_tokens"] = self.max_tokens
        return params

    def aggregate(self, children_texts: list[str]) -> str:
        self._check(children_texts)
        if self.client is None:
            raise ContractViolationError("llm_persona aggregator has no chat client bound")
        request = ChatRequest(persona_prompt(children_texts), max_tokens=self.max_tokens,
                              stage="aggregate")
        return self.client.complete(request).content.strip()


AGGREGATORS = {cls.kind: cls for cls in (ConcatAggregator, TruncateAggregator, LlmPersonaAggregator)}


def aggregator_from_spec(kind: str, params: Optional[dict] = None, client=None) -> Aggregator:
    """Build an aggregator from its serialized (kind, params) identity, params as keywords."""
    if not isinstance(kind, str) or kind not in AGGREGATORS:
        raise InvalidParameterError(f"unknown aggregator kind {kind!r}")
    if params is not None and not isinstance(params, dict):
        raise InvalidParameterError(f"{kind} aggregator params must be an object, got {params!r}")
    params = dict(params or {})
    cls = AGGREGATORS[kind]
    if cls is LlmPersonaAggregator:
        template = params.pop("template", PERSONA_TEMPLATE)
        if template != PERSONA_TEMPLATE:
            raise InvalidParameterError(
                f"persona template must be one of {[PERSONA_TEMPLATE]}, got {template!r}")
        temperature = params.pop("temperature", 0)
        if type(temperature) not in (int, float) or temperature != 0:  # a bool is refused
            raise InvalidParameterError(f"persona temperature must be 0, got {temperature!r}")
    unknown = set(params) - (set(signature(cls).parameters) - {"client"})
    if unknown:
        raise InvalidParameterError(f"unknown {kind} aggregator params: {sorted(unknown)}")
    return cls(client, **params) if cls is LlmPersonaAggregator else cls(**params)
