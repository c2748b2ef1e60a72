"""Aggregator behaviors: concat, truncate, persona via the chat client."""

from __future__ import annotations

import json
import os
from importlib import resources

import pytest

from conftest import ScriptedClient

from hatmem import (
    ConcatAggregator,
    HatTree,
    LlmPersonaAggregator,
    TruncateAggregator,
    aggregator_from_spec,
    mock_client,
    persona_prompt,
)
from hatmem.config import aggregator_from_config
from hatmem.errors import (
    ConfigurationError,
    ContractViolationError,
    DocumentParseError,
    InvalidParameterError,
    NotFoundError,
    RemoteUnavailableError,
)
from hatmem.metrics import tokenize
from hatmem.prompts import load_template, split_messages, template_names


class TestConcat:
    def test_join(self):
        assert ConcatAggregator(" | ").aggregate(["a", "b"]) == "a | b"

    def test_single_child_identity(self):
        assert ConcatAggregator(" | ").aggregate(["only"]) == "only"

    def test_empty_list_rejected(self):
        with pytest.raises(ContractViolationError):
            ConcatAggregator().aggregate([])

    def test_flat_join_equivalence_over_tree(self, rng):
        # Root text under concat equals one flat join of all leaves.
        for M in (2, 3, 5):
            leaves = [f"v{i}" for i in range(rng.randint(1, 40))]
            tree = HatTree(M, ConcatAggregator("; "))
            for text in leaves:
                tree.insert_leaf(text)
            assert tree.root_text() == "; ".join(leaves)


class TestTruncate:
    def test_keeps_first_budget_tokens(self):
        assert TruncateAggregator(budget=3).aggregate(["x y", "z w"]) == "x y z"

    def test_output_never_exceeds_budget(self, rng):
        agg = TruncateAggregator(budget=7)
        for _ in range(25):
            texts = [" ".join(f"w{rng.randint(0, 9)}" for _ in range(rng.randint(1, 6)))
                     for _ in range(rng.randint(1, 5))]
            assert len(tokenize(agg.aggregate(texts))) <= 7

    def test_default_budget(self):
        assert TruncateAggregator().budget == 256

    def test_rejects_bad_budget(self):
        for bad in (0, -1, 1.5, True):
            with pytest.raises(InvalidParameterError):
                TruncateAggregator(budget=bad)

    def test_empty_list_rejected(self):
        with pytest.raises(ContractViolationError):
            TruncateAggregator().aggregate([])


class TestPersonaPrompt:
    def test_single_child_single_block(self):
        messages = persona_prompt(["she likes tea"])
        assert len(messages) == 2
        assert messages[0]["role"] == "system"
        assert "1. she likes tea" in messages[1]["content"]
        assert "2." not in messages[1]["content"]

    def test_three_children_numbered_in_order(self):
        messages = persona_prompt(["one", "two", "three"])
        body = messages[1]["content"]
        assert body.index("1. one") < body.index("2. two") < body.index("3. three")

    def test_template_loads_unchanged(self):
        raw = load_template("persona_v1")
        assert raw == load_template("persona_v1")
        roles = [m["role"] for m in split_messages(raw)]
        assert roles == ["system", "user"]

    def test_empty_rejected(self):
        with pytest.raises(ContractViolationError):
            persona_prompt([])

    def test_shipped_template_names(self):
        assert template_names() == {"persona_v1", "response_v1", "sufficiency_v1",
                                    "traversal_agent_v1"}

    @pytest.mark.parametrize("kind", ["relative_path", "absolute_path", "unknown", "empty"])
    def test_only_shipped_templates_accepted(self, kind, tmp_path):
        # The path names point at a real template-shaped file outside the package.
        outside = tmp_path / "x"
        (tmp_path / "x.txt").write_text("[user]\nleaked {children_block}\n", encoding="utf-8")
        prompts_dir = str(resources.files("hatmem").joinpath("prompts"))
        name = {"relative_path": os.path.relpath(outside, prompts_dir),
                "absolute_path": str(outside), "unknown": "no_such_template", "empty": ""}[kind]
        with pytest.raises(NotFoundError):
            load_template(name)
        with pytest.raises(InvalidParameterError):
            LlmPersonaAggregator(mock_client(), template=name)
        spec = {"kind": "llm_persona", "params": {"template": name}}
        with pytest.raises(ConfigurationError):
            aggregator_from_config(None, {"aggregator": spec})
        tree = HatTree(2, LlmPersonaAggregator(mock_client()))
        tree.insert_leaf("he plays chess")
        doc = json.loads(tree.serialize())
        doc["aggregator"]["params"]["template"] = name
        with pytest.raises(DocumentParseError):
            HatTree.deserialize(json.dumps(doc))

    @pytest.mark.parametrize("name", ["response_v1", "sufficiency_v1"])
    def test_only_persona_templates_build_a_persona_aggregator(self, name):
        # Shipped templates, but their placeholders are not the persona prompt's.
        with pytest.raises(InvalidParameterError, match=r"\['persona_v1'\]"):
            LlmPersonaAggregator(mock_client(), template=name)
        spec = {"kind": "llm_persona", "params": {"template": name}}
        with pytest.raises(ConfigurationError):
            aggregator_from_config(None, {"aggregator": spec})
        tree = HatTree(2, LlmPersonaAggregator(mock_client()))
        tree.insert_leaf("he plays chess")
        doc = json.loads(tree.serialize())
        doc["aggregator"]["params"]["template"] = name
        with pytest.raises(DocumentParseError):
            HatTree.deserialize(json.dumps(doc))


class TestLlmPersona:
    def test_scripted_reply_is_stripped(self):
        client = ScriptedClient(["  merged persona  "])
        agg = LlmPersonaAggregator(client)
        assert agg.aggregate(["fact one", "fact two"]) == "merged persona"
        (request,) = client.requests
        assert request.messages == persona_prompt(["fact one", "fact two"])

    def test_mock_heuristic_preserves_text(self):
        agg = LlmPersonaAggregator(mock_client())
        merged = agg.aggregate(["he plays chess", "she grows roses"])
        assert "chess" in merged and "roses" in merged

    def test_remote_failure_aborts_insert_atomically(self):
        client = ScriptedClient([])

        def failing_complete(request):
            raise RemoteUnavailableError("endpoint down")

        client.complete = failing_complete
        tree = HatTree(2, LlmPersonaAggregator(client))
        with pytest.raises(RemoteUnavailableError):
            tree.insert_leaf("first turn")
        assert tree.leaf_count == 0
        assert tree.layers == []

    def test_no_client_bound(self):
        # A caller's mistake, not a remote failure: no endpoint was asked.
        with pytest.raises(ContractViolationError):
            LlmPersonaAggregator().aggregate(["text"])


class TestAggregatorSpecs:
    def test_roundtrip_all_kinds(self):
        for agg in (ConcatAggregator("##"), TruncateAggregator(9),
                    LlmPersonaAggregator(mock_client()),
                    LlmPersonaAggregator(mock_client(), max_tokens=64)):
            spec = agg.spec()
            rebuilt = aggregator_from_spec(spec["kind"], spec["params"], client=mock_client())
            assert rebuilt.spec() == spec

    def test_persona_max_tokens_survives_reload(self):
        assert "max_tokens" not in LlmPersonaAggregator().params()
        tree = HatTree(2, LlmPersonaAggregator(mock_client(), max_tokens=64))
        tree.insert_leaf("he plays chess")
        tree.insert_leaf("she grows roses")
        clone = HatTree.deserialize(tree.serialize())
        assert clone.aggregator.max_tokens == 64
        assert clone.serialize() == tree.serialize()

    @pytest.mark.parametrize("params", [
        {"temperature": "x"}, {"temperature": -1}, {"temperature": True}, {"template": 3},
        {"temperature": float("inf")}, {"temperature": float("-inf")}, {"temperature": float("nan")},
        {"max_tokens": "x"}, {"max_tokens": 0}, {"max_tokens": -5}, {"max_tokens": True},
    ], ids=lambda params: ",".join(f"{key}={value}" for key, value in params.items()))
    def test_bad_persona_params_rejected_on_load(self, params):
        with pytest.raises(InvalidParameterError):
            aggregator_from_spec("llm_persona", params, client=mock_client())
        tree = HatTree(2, LlmPersonaAggregator(mock_client()))
        tree.insert_leaf("he plays chess")
        doc = json.loads(tree.serialize())
        doc["aggregator"]["params"].update(params)
        # json writes a non-finite float as Infinity or NaN, which it reads back.
        with pytest.raises(DocumentParseError):
            HatTree.deserialize(json.dumps(doc))

    @pytest.mark.parametrize("separator", [5, None])
    def test_concat_separator_must_be_a_string(self, separator):
        with pytest.raises(InvalidParameterError, match="separator"):
            ConcatAggregator(separator)
        spec = {"kind": "concat", "params": {"separator": separator}}
        with pytest.raises(ConfigurationError):
            aggregator_from_config(None, {"aggregator": spec})
        tree = HatTree(2, ConcatAggregator())
        tree.insert_leaf("he plays chess")
        doc = json.loads(tree.serialize())
        doc["aggregator"]["params"]["separator"] = separator
        with pytest.raises(DocumentParseError):
            HatTree.deserialize(json.dumps(doc))

    def test_non_object_params_rejected(self):
        for params in ([1, 2], "x", 5):
            with pytest.raises(InvalidParameterError):
                aggregator_from_spec("concat", params)

    def test_unknown_kind_rejected(self):
        with pytest.raises(InvalidParameterError):
            aggregator_from_spec("magic", {})

    def test_unknown_params_rejected(self):
        with pytest.raises(InvalidParameterError):
            aggregator_from_spec("concat", {"budget": 3})
