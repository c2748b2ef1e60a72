"""Ingest, session snapshots, context strategies, response generation."""

from __future__ import annotations

import pytest

from conftest import (
    FailingAggregator,
    ScriptedAgent,
    ScriptedClient,
    SubstringOracle,
    TextSetOracle,
    ThreadLoggingAggregator,
)

from hatmem import (
    ChatReply,
    ConcatAggregator,
    DialogueTurn,
    LlmPersonaAggregator,
    TraversalAction as A,
    TraversalConfig,
    build_context,
    dump_report,
    end_session,
    generate_response,
    ingest_episode,
    ingest_turn,
    mock_client,
    new_memory,
    run_bench,
)
from hatmem.errors import (
    AggregationUnavailableError,
    ConfigurationError,
    GenerationUnavailableError,
    InvalidParameterError,
    NotFoundError,
    RemoteUnavailableError,
)
from hatmem.fixtures import PLANTED_TOKEN, planted_fact_episode, planted_fact_episodes


def turn(speaker: str, text: str, session: int = 1, index: int = 0) -> DialogueTurn:
    return DialogueTurn(speaker=speaker, text=text, session=session, turn_index=index)


def filled_state(memory_length: int = 2):
    state = new_memory(memory_length, ConcatAggregator("\n"))
    for i, (speaker, text) in enumerate([
        ("user", "my cat is named juniper"),
        ("assistant", "noted"),
        ("user", "i moved to a houseboat"),
        ("assistant", "that sounds damp"),
    ]):
        ingest_turn(state, turn(speaker, text, session=1, index=i))
    end_session(state, 1)
    for i, (speaker, text) in enumerate([
        ("user", "work got busy"),
        ("assistant", "take breaks"),
    ]):
        ingest_turn(state, turn(speaker, text, session=2, index=i))
    return state


class TestIngest:
    def test_leaf_text_and_meta(self):
        state = new_memory(2, ConcatAggregator())
        ingest_turn(state, turn("user", "hello", session=3, index=7))
        leaf = state.tree.leaves()[0]
        assert leaf.text == "user: hello"
        assert leaf.meta == {"speaker": "user", "session": 3, "turn_index": 7}

    def test_first_turn_depth_one(self):
        state = new_memory(2, ConcatAggregator())
        ingest_turn(state, turn("user", "hi"))
        assert state.tree.depth() == 1

    def test_five_turns_m2_depth_three(self):
        state = new_memory(2, ConcatAggregator())
        for i in range(5):
            ingest_turn(state, turn("user", f"turn {i}", index=i))
        assert state.tree.depth() == 3

    def test_ingest_defers_aggregation(self):
        state = new_memory(3, ConcatAggregator())
        for i in range(14):
            ingest_turn(state, turn("user", f"turn {i}", index=i))
        assert state.tree.agg_call_count == 0
        assert state.sessions == {1}

    def test_rejects_bad_turns(self):
        state = new_memory(2, ConcatAggregator())
        with pytest.raises(InvalidParameterError):
            ingest_turn(state, turn("narrator", "hi"))
        with pytest.raises(InvalidParameterError):
            ingest_turn(state, turn("user", ""))


class TestEndSession:
    def test_snapshot_is_flat_join(self):
        state = filled_state()
        snapshot = end_session(state, 2)
        leaves = [leaf.text for leaf in state.tree.leaves()]
        assert snapshot == "\n".join(leaves)
        assert state.session_snapshots[2] == snapshot

    def test_idempotent_without_new_turns(self):
        state = filled_state()
        assert end_session(state, 2) == end_session(state, 2)

    def test_unknown_session(self):
        state = filled_state()
        with pytest.raises(NotFoundError):
            end_session(state, 9)

    def test_failed_aggregation_records_no_snapshot(self):
        agg = FailingAggregator("\n", fail_after=0)
        state = new_memory(2, agg)
        for i in range(3):
            ingest_turn(state, turn("user", f"turn {i}", index=i))
        with pytest.raises(AggregationUnavailableError):
            end_session(state, 1)
        assert state.session_snapshots == {}
        agg.armed = False
        assert end_session(state, 1) == "user: turn 0\nuser: turn 1\nuser: turn 2"
        assert state.session_snapshots == {1: "user: turn 0\nuser: turn 1\nuser: turn 2"}

    def test_snapshots_contain_all_prior_sessions(self):
        episode = planted_fact_episode(1)
        state = ingest_episode(episode, 2, ConcatAggregator("\n"))
        for session in episode.sessions:
            snapshot = state.session_snapshots[session.number]
            for earlier in episode.sessions:
                if earlier.number <= session.number:
                    for t in earlier.turns:
                        assert t.text in snapshot

    def test_replay_is_deterministic(self):
        episode = planted_fact_episode(2)
        a = ingest_episode(episode, 3, ConcatAggregator("\n"))
        b = ingest_episode(episode, 3, ConcatAggregator("\n"))
        assert a.session_snapshots == b.session_snapshots
        assert a.tree.serialize() == b.tree.serialize()


class TestBuildContext:
    def test_all_context_is_full_join(self):
        state = filled_state()
        context = build_context(state, "q", "all_context")
        assert context == "\n".join(leaf.text for leaf in state.tree.leaves())

    def test_part_context_is_current_session_only(self):
        state = filled_state()
        context = build_context(state, "q", "part_context")
        assert context == "user: work got busy\nassistant: take breaks"
        assert "juniper" not in context

    def test_gold_memory_join_and_error(self):
        state = filled_state()
        assert build_context(state, "q", "gold_memory", gold=["fact a", "fact b"]) == "fact a\nfact b"
        with pytest.raises(ConfigurationError):
            build_context(state, "q", "gold_memory")

    def test_hat_agent_accept_returns_root(self):
        state = filled_state()
        context = build_context(state, "q", "hat_agent", agent=ScriptedAgent([A.ACCEPT]))
        assert context == state.tree.root_text()

    def test_hat_searches_need_oracle(self):
        state = filled_state()
        for strategy in ("hat_bfs", "hat_dfs"):
            with pytest.raises(ConfigurationError):
                build_context(state, "q", strategy)
        with pytest.raises(ConfigurationError):
            build_context(state, "q", "hat_agent")

    def test_unknown_strategy(self):
        with pytest.raises(InvalidParameterError):
            build_context(filled_state(), "q", "psychic")

    def test_empty_state_rejected(self):
        state = new_memory(2, ConcatAggregator())
        with pytest.raises(InvalidParameterError):
            build_context(state, "q", "all_context")

    def test_insufficient_falls_back_to_root_plus_newest(self):
        state = filled_state()
        expected = state.tree.root_text() + "\n" + state.tree.leaves()[-1].text
        context = build_context(state, "q", "hat_agent", agent=ScriptedAgent([A.REJECT]))
        assert context == expected

    def test_budget_exhaustion_falls_back_too(self):
        state = filled_state()
        expected = state.tree.root_text() + "\n" + state.tree.leaves()[-1].text
        agent = ScriptedAgent([A.DOWN, A.UP], cycle=True)
        context = build_context(state, "q", "hat_agent", agent=agent,
                                config=TraversalConfig(step_budget=4))
        assert context == expected

    def test_oracle_search_finds_named_node(self):
        state = filled_state()
        target = state.tree.node_at(1, 1).text
        context = build_context(state, "q", "hat_bfs", oracle=TextSetOracle({target}))
        assert context == target

    def test_planted_fact_split_between_strategies(self):
        from hatmem.bench import prepare_eval
        episode = planted_fact_episode(0)
        state, query, _reference, _gold = prepare_eval(episode, 2, ConcatAggregator("\n"))
        part = build_context(state, query.text, "part_context")
        assert PLANTED_TOKEN not in part
        found = build_context(state, query.text, "hat_bfs",
                              oracle=SubstringOracle(PLANTED_TOKEN))
        assert PLANTED_TOKEN in found


class TestGenerateResponse:
    def test_context_block_present_when_context_given(self):
        client = ScriptedClient(["fine"])
        generate_response("remembered stuff", "the question", client)
        content = client.requests[0].messages[-1]["content"]
        assert "MEMORY:\nremembered stuff" in content
        assert "USER MESSAGE: the question" in content

    def test_empty_context_omits_block(self):
        client = ScriptedClient(["fine"])
        generate_response("", "the question", client)
        content = client.requests[0].messages[-1]["content"]
        assert "MEMORY:" not in content
        assert content.startswith("USER MESSAGE:")

    def test_reply_stripped(self):
        client = ScriptedClient(["  spaced out  "])
        assert generate_response("ctx", "q", client) == "spaced out"

    def test_deterministic_under_mock(self):
        first = generate_response("user: my horse is grey", "what color is my horse?",
                                  mock_client())
        second = generate_response("user: my horse is grey", "what color is my horse?",
                                   mock_client())
        assert first == second == "my horse is grey"

    def test_remote_failure_wrapped(self):
        class DownClient:
            model = "m"

            def complete(self, request):
                raise RemoteUnavailableError("dead")

        with pytest.raises(GenerationUnavailableError):
            generate_response("ctx", "q", DownClient())


class TestRunBench:
    def test_report_bytes_identical_across_runs(self):
        reports, threads = [], set()
        for _ in range(2):
            client = mock_client()
            agg = ThreadLoggingAggregator(LlmPersonaAggregator(client, max_tokens=16))
            reports.append(dump_report(run_bench(planted_fact_episodes(3), agg, client)))
            threads.update(agg.threads)
        assert reports[0] == reports[1]
        assert len(threads) > 1  # flushes sent layers concurrently
