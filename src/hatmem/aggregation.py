"""Aggregate functions that fold ordered child texts into one parent text.

Three kinds: `concat` (separator join), `truncate` (join then keep the first
B tokens), and `llm_persona` (persona-note summarization through the chat
client). Deterministic kinds are pure functions of the input list; the
persona kind is pure given a fixed mock transcript. Inputs always arrive
oldest to newest.

The persona kind sends `persona_prompt`: a system message asking for one
short note that keeps every concrete fact, then the children as numbered
passages under "Passages to merge:". Its reply, stripped of surrounding
whitespace, is the parent text.
"""

from __future__ import annotations

from typing import Optional

from .errors import ContractViolationError, InvalidParameterError
from .llm import ChatRequest, is_max_tokens, is_temperature
from .metrics import tokenize

DEFAULT_TRUNCATE_BUDGET = 256

# The name of the one persona prompt, kept in every llm_persona spec.
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

    def __init__(self, budget: int = DEFAULT_TRUNCATE_BUDGET):
        if not isinstance(budget, int) or isinstance(budget, bool) or budget < 1:
            raise InvalidParameterError(f"truncate budget must be a positive integer, got {budget!r}")
        self.budget = budget

    def params(self) -> dict:
        return {"budget": self.budget}

    def aggregate(self, children_texts: list[str]) -> str:
        self._check(children_texts)
        tokens = tokenize(" ".join(children_texts))
        return " ".join(tokens[: self.budget])


class LlmPersonaAggregator(Aggregator):
    """Summarizes children into persona notes via the chat client.

    A client is optional so that serialized trees can be loaded for
    inspection without one; aggregating without one is a
    `ContractViolationError`, a caller's mistake rather than a remote failure.
    The other parameters, the template name among them (only `persona_v1`,
    the name of `persona_prompt`), are checked here, so that a bad spec or
    tree document fails to load, not at its first call.
    """

    kind = "llm_persona"

    def __init__(self, client=None, template: str = PERSONA_TEMPLATE, temperature: float = 0.0,
                 max_tokens: Optional[int] = None):
        if template != PERSONA_TEMPLATE:
            raise InvalidParameterError(
                f"persona template must be one of {[PERSONA_TEMPLATE]}, got {template!r}")
        if not is_temperature(temperature):
            raise InvalidParameterError(
                f"persona temperature must be a finite number >= 0, got {temperature!r}")
        if not is_max_tokens(max_tokens):
            raise InvalidParameterError(
                f"persona max_tokens must be a positive integer or null, got {max_tokens!r}")
        self.client = client
        self.template = template
        self.temperature = temperature
        self.max_tokens = max_tokens

    def params(self) -> dict:
        # max_tokens is recorded only when set, so default specs stay as they were.
        params = {"template": self.template, "temperature": self.temperature}
        if self.max_tokens is not None:
            params["max_tokens"] = self.max_tokens
        return params

    def aggregate(self, children_texts: list[str]) -> str:
        self._check(children_texts)
        if self.client is None:
            raise ContractViolationError("llm_persona aggregator has no chat client bound")
        request = ChatRequest(
            model=self.client.model,
            messages=persona_prompt(children_texts),
            temperature=self.temperature,
            max_tokens=self.max_tokens,
            stage="aggregate",
        )
        return self.client.complete(request).content.strip()


def aggregator_from_spec(kind: str, params: Optional[dict] = None, client=None) -> Aggregator:
    """Build an aggregator from its serialized (kind, params) identity."""
    if params is not None and not isinstance(params, dict):
        raise InvalidParameterError(f"{kind} aggregator params must be an object, got {params!r}")
    params = dict(params or {})
    if kind == "concat":
        agg: Aggregator = ConcatAggregator(separator=params.pop("separator", "\n"))
    elif kind == "truncate":
        agg = TruncateAggregator(budget=params.pop("budget", DEFAULT_TRUNCATE_BUDGET))
    elif kind == "llm_persona":
        agg = LlmPersonaAggregator(
            client=client,
            template=params.pop("template", PERSONA_TEMPLATE),
            temperature=params.pop("temperature", 0.0),
            max_tokens=params.pop("max_tokens", None),
        )
    else:
        raise InvalidParameterError(f"unknown aggregator kind {kind!r}")
    if params:
        raise InvalidParameterError(f"unknown {kind} aggregator params: {sorted(params)}")
    return agg
