"""Ingest, session snapshots, context strategies, response generation."""

from __future__ import annotations

import gc
import hashlib
import random
import sys
import threading
import types
import weakref
from collections import Counter

import pytest

from conftest import (
    ClippingTransport,
    DownTransport,
    FailingAggregator,
    LoggingTransport,
    OracleAgent,
    ScriptedAgent,
    ScriptedClient,
    SubstringOracle,
    TextSetOracle,
    ThreadLoggingAggregator,
    assert_no_call_running,
)

from hatmem import (
    ChatReply,
    ConcatAggregator,
    DialogueTurn,
    Episode,
    HatTree,
    LlmAgent,
    LlmClient,
    LlmOracle,
    LlmPersonaAggregator,
    MemoryState,
    Session,
    TraversalAction as A,
    TraversalConfig,
    TruncateAggregator,
    build_context,
    dump_report,
    end_session,
    generate_response,
    ingest_episode,
    ingest_turn,
    ingest_turns,
    mock_client,
    new_memory,
    render_table,
    run_bench,
)
from hatmem.errors import (
    ConfigurationError,
    InvalidParameterError,
    NotFoundError,
    RemoteUnavailableError,
)
from hatmem import llm, tree as tree_module
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
        assert state.tree.layers[-1] == ["user: hello"]
        assert state.tree.leaf_sessions == [3]

    @pytest.mark.parametrize("session", ["1", True, 1.0], ids=["digit-string", "bool", "whole-float"])
    def test_session_that_is_not_an_integer_is_refused(self, session):
        state = new_memory(2, ConcatAggregator())
        ingest_turn(state, turn("user", "hello", session=1))
        with pytest.raises(InvalidParameterError):
            ingest_turn(state, turn("user", "again", session=session))
        assert state.tree.layers[-1] == ["user: hello"]
        assert state.tree.leaf_sessions == [1]
        assert set(state.tree.leaf_sessions) - {None} == {1}

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
        assert set(state.tree.leaf_sessions) - {None} == {1}

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
        assert snapshot == "\n".join(state.tree.layers[-1])
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
        with pytest.raises(RemoteUnavailableError):
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

    def test_leaf_appended_to_the_tree_is_seen(self):
        state = new_memory(2, ConcatAggregator("\n"))
        ingest_turn(state, turn("user", "early", session=1))
        state.tree.append_leaf("user: later", session=2)
        assert set(state.tree.leaf_sessions) - {None} == {1, 2}
        assert build_context(state, "q", "part_context") == "user: later"
        assert end_session(state, 2) == "user: early\nuser: later"
        assert state.session_snapshots == {2: "user: early\nuser: later"}


class TestIngestTurns:
    SESSIONS = [1, 1, 2, 3, 3]

    def turns(self):
        return [turn("user", f"s{s} t{i}", session=s, index=i) for i, s in enumerate(self.SESSIONS)]

    def test_ends_each_session_the_next_turn_leaves_and_the_last(self):
        state = new_memory(2, ConcatAggregator("\n"))
        ingest_turns(state, self.turns())
        assert state.session_snapshots == {1: "user: s1 t0\nuser: s1 t1",
                                           2: "user: s1 t0\nuser: s1 t1\nuser: s2 t2",
                                           3: "\n".join(f"user: s{s} t{i}"
                                                        for i, s in enumerate(self.SESSIONS))}

    def test_open_session_is_not_ended(self):
        state = new_memory(2, ConcatAggregator("\n"))
        ingest_turns(state, self.turns(), open_session=3)
        assert sorted(state.session_snapshots) == [1, 2]
        assert state.tree.leaf_count == 5
        state = new_memory(2, ConcatAggregator("\n"))
        ingest_turns(state, [])
        assert state.session_snapshots == {} and state.tree.leaf_count == 0

    def test_prepare_eval_snapshots_every_session_before_the_query(self):
        from hatmem.bench import prepare_eval
        for seed in range(3):
            episode = planted_fact_episode(seed)
            state, query, _reference, _gold = prepare_eval(episode, 3, ConcatAggregator("\n"))
            assert query.session == episode.sessions[-1].number > 1
            assert sorted(state.session_snapshots) == list(range(1, query.session))

    def test_ingest_episode_snapshots_every_session(self):
        episode = planted_fact_episode(1)
        state = ingest_episode(episode, 3, ConcatAggregator("\n"))
        assert sorted(state.session_snapshots) == [s.number for s in episode.sessions]
        assert state.session_snapshots[episode.sessions[-1].number] == state.tree.root_text()

    def test_ingest_episode_skips_a_session_without_turns(self):
        episode = Episode("gap", [Session(1, [turn("user", "hi")]), Session(2, [])])
        state = ingest_episode(episode, 2, ConcatAggregator("\n"))
        assert state.session_snapshots == {1: "user: hi"}


class TestBuildContext:
    def test_all_context_is_full_join(self):
        state = filled_state()
        context = build_context(state, "q", "all_context")
        assert context == "\n".join(state.tree.layers[-1])

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
        expected = state.tree.root_text() + "\n" + state.tree.layers[-1][-1]
        context = build_context(state, "q", "hat_agent", agent=ScriptedAgent([A.REJECT]))
        assert context == expected

    def test_budget_exhaustion_falls_back_too(self):
        state = filled_state()
        expected = state.tree.root_text() + "\n" + state.tree.layers[-1][-1]
        agent = ScriptedAgent([A.DOWN, A.UP], cycle=True)
        context = build_context(state, "q", "hat_agent", agent=agent,
                                config=TraversalConfig(step_budget=4))
        assert context == expected

    def test_oracle_search_finds_named_node(self):
        state = filled_state()
        target = state.tree.node_at(1, 1)
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


class TestStateAroundLoadedTree:
    def test_part_context_and_end_session_match_the_original_state(self):
        state = filled_state()
        loaded = MemoryState(tree=HatTree.deserialize(state.tree.serialize()))
        assert set(loaded.tree.leaf_sessions) - {None} == {1, 2}
        assert build_context(loaded, "q", "part_context") == build_context(state, "q", "part_context")
        for session in (1, 2):
            assert end_session(loaded, session) == end_session(state, session)
        assert loaded.session_snapshots == state.session_snapshots
        with pytest.raises(NotFoundError):
            end_session(loaded, 3)

    def test_part_context_needs_a_leaf_that_names_its_session(self):
        tree = HatTree(2, ConcatAggregator())
        tree.append_leaf("user: hi")
        for i in range(4):
            tree.append_leaf(f"t{i}")
        state = MemoryState(tree=HatTree.deserialize(tree.serialize()))
        assert set(state.tree.leaf_sessions) - {None} == set()
        with pytest.raises(InvalidParameterError):
            build_context(state, "q", "part_context")
        assert build_context(state, "q", "all_context") == "user: hi\nt0\nt1\nt2\nt3"

    def test_part_context_leaves_out_sessions_that_are_not_integers(self):
        tree = HatTree(2, ConcatAggregator())
        for i, session in enumerate([1, None, 1]):
            tree.append_leaf(f"t{i}", session=session)
        for session in (True, 1.0, "1"):
            with pytest.raises(InvalidParameterError):
                tree.append_leaf("t", session=session)
        state = MemoryState(tree=tree)
        assert set(state.tree.leaf_sessions) - {None} == {1}
        assert build_context(state, "q", "part_context") == "t0\nt2"
        # A session equal to 1 that is no integer names no session.
        for session in (True, 1.0):
            with pytest.raises(NotFoundError):
                end_session(state, session)
        assert state.session_snapshots == {}


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

        with pytest.raises(RemoteUnavailableError):
            generate_response("ctx", "q", DownClient())

    def test_exhausted_retries_name_the_generate_stage(self):
        client = LlmClient(DownTransport(), model="m", sleep=lambda _s: None)
        with pytest.raises(RemoteUnavailableError, match="generate call") as failure:
            generate_response("ctx", "q", client)
        assert failure.value.stage == "generate"


class TestReplyMemo:
    def test_repeated_reply_sends_one_request(self):
        client = ScriptedClient(["  first  ", "second"])
        assert generate_response("ctx", "q", client) == "first"
        assert generate_response("ctx", "q", client) == "first"
        assert len(client.requests) == 1
        assert generate_response("ctx", "another q", client) == "second"
        assert len(client.requests) == 2

    def test_second_client_asks_again(self):
        first, second = ScriptedClient(["one"]), ScriptedClient(["two"])
        assert generate_response("ctx", "q", first) == "one"
        assert generate_response("ctx", "q", second) == "two"
        assert len(first.requests) == len(second.requests) == 1

    def test_failed_reply_is_not_remembered(self):
        transport = DownTransport()
        client = LlmClient(transport, model="m", sleep=lambda _s: None)
        with pytest.raises(RemoteUnavailableError):
            generate_response("user: my horse is grey", "what color is my horse?", client)
        assert transport.calls == 3
        transport.down = False
        for _ in range(2):
            assert generate_response("user: my horse is grey", "what color is my horse?",
                                     client) == "my horse is grey"
        assert transport.calls == 4

    def test_client_with_only_model_and_complete(self):
        class Client:
            model = "m"
            requests = 0

            def complete(self, request):
                Client.requests += 1
                return ChatReply(content=f"reply {request.stage}")

        client = Client()
        for _ in range(2):
            assert generate_response("ctx", "q", client) == "reply generate"
        assert Client.requests == 1

    def test_client_without_weak_references_replies_without_a_memo(self):
        requests = []
        client = types.SimpleNamespace(
            model="m", complete=lambda request: requests.append(request) or ChatReply(content="r"))
        for _ in range(2):
            assert generate_response("ctx", "q", client) == "r"
        assert len(requests) == 2

    @pytest.mark.stress
    def test_memos_stay_whole_under_concurrent_replies(self):
        # More threads than cores make the first replies of fresh clients at
        # once, while short-lived clients come and go: a memo lost to a race
        # between two threads that both made one for the same client would
        # make the last pass ask again.
        class CountingClient:
            model = "m"

            def __init__(self):
                self.requests = 0
                self._lock = threading.Lock()

            def complete(self, request):
                with self._lock:
                    self.requests += 1
                return ChatReply(content=request.messages[-1]["content"].split()[-1])

        threads_n, questions = 16, [f"q{i}" for i in range(20)]
        rounds = [[CountingClient() for _ in range(4)] for _ in range(60)]
        barrier = threading.Barrier(threads_n, timeout=30)
        wrong = []

        def worker(seed):
            # Each thread asks its 5 questions of every client; together
            # they ask all 20 of every client.
            for shared in rounds:
                barrier.wait()
                for i in range(5 * len(shared)):
                    query = questions[(seed + i // len(shared)) % len(questions)]
                    for client in (shared[(seed + i) % len(shared)], CountingClient()):
                        if generate_response("", query, client) != query:
                            wrong.append(query)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(seed,)) for seed in range(threads_n)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []
        clients = [client for shared in rounds for client in shared]
        before = [client.requests for client in clients]
        for client in clients:
            for query in questions:
                generate_response("", query, client)
        assert [client.requests for client in clients] == before

    def test_dropped_client_frees_its_memo_without_a_collection(self):
        # A chat loop may make a client per conversation; its replies must
        # not outlive it, nor wait for a full collection to go.
        client = ScriptedClient(["one"])
        generate_response("ctx", "q", client)
        ref, memos = weakref.ref(client), len(llm._memos)
        gc.disable()
        try:
            del client
            assert ref() is None
            assert len(llm._memos) == memos - 1
        finally:
            gc.enable()


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

    @pytest.mark.parametrize("make, digest", [
        (lambda client: ConcatAggregator(),
         "ba396f42af4dc8e02e56ac67e7838f1d690c48ab58a3adbbcb7cea4649b6f734"),
        (lambda client: TruncateAggregator(16),
         "e972068fff49ff845d8732ae8de938b5aa6ffa210983f2f5d210f23b2bc59d99"),
        (lambda client: LlmPersonaAggregator(client, max_tokens=24),
         "0b228254342f513e3e37b936ee91d49921c299a35ed28ed7bc48726e50ad3be9"),
    ], ids=["concat", "truncate", "llm_persona"])
    def test_report_bytes_are_pinned(self, make, digest):
        # The same bytes on every supported Python: F1 means are summed exactly.
        client = mock_client()
        report = dump_report(run_bench(planted_fact_episodes(20), make(client), client))
        assert hashlib.sha256(report.encode("utf-8")).hexdigest() == digest

    def test_table_text_is_pinned(self):
        client = mock_client()
        report = run_bench(planted_fact_episodes(3), LlmPersonaAggregator(client), client)
        assert report["memory_fidelity"] is not None
        assert render_table(report) == (
            "strategy         BLEU-1   BLEU-2   DIST-1   DIST-2       F1\n"
            "-----------------------------------------------------------\n"
            "all_context      0.6364   0.5000   0.3333   0.3333   0.7000\n"
            "gold_memory      0.5000   0.3636   0.3333   0.3333   0.5714\n"
            "hat_agent        0.0435   0.0285   0.2420   0.3669   0.0828\n"
            "hat_bfs          0.0435   0.0285   0.2420   0.3669   0.0828\n"
            "hat_dfs          0.0435   0.0285   0.2420   0.3669   0.0828\n"
            "part_context     0.0000   0.0000   0.3333   0.3333   0.0000\n"
            "\n"
            "memory           0.0654   0.0305   0.2097   0.3119   0.1461\n")

    @pytest.mark.parametrize("make", [lambda client: LlmPersonaAggregator(client, max_tokens=24),
                                      lambda client: TruncateAggregator(16)],
                             ids=["llm_persona", "truncate"])
    def test_one_memo_serves_every_strategy(self, make):
        # hat_dfs reads hat_bfs's verdicts from the client's memo: each
        # strategy's rows are those it gets alone, for fewer requests.
        def bench(strategies):
            client = StageCountingClient(mock_client())
            report = run_bench(planted_fact_episodes(6), make(client), client, strategies=strategies)
            return report, client.calls

        both, calls = bench(["hat_bfs", "hat_dfs"])
        alone_oracle_calls = 0
        for name in ("hat_bfs", "hat_dfs"):
            alone, alone_calls = bench([name])
            assert dump_report(both["strategies"][name]) == dump_report(alone["strategies"][name])
            assert calls["aggregate"] == alone_calls["aggregate"]
            alone_oracle_calls += alone_calls["oracle"]
        assert calls["oracle"] < alone_oracle_calls

    def test_unknown_strategies_refused(self):
        with pytest.raises(InvalidParameterError, match=r"unknown strategies \['hat_ranked'\]"):
            run_bench(planted_fact_episodes(1), ConcatAggregator(), mock_client(),
                      strategies=["hat_bfs", "hat_ranked"])

    def test_no_episodes_refused(self):
        with pytest.raises(InvalidParameterError, match="^no episodes to benchmark$"):
            run_bench([], ConcatAggregator(), mock_client())

    def test_no_strategies_refused(self):
        with pytest.raises(InvalidParameterError, match="^no strategies to benchmark$"):
            run_bench(planted_fact_episodes(1), ConcatAggregator(), mock_client(), strategies=[])

    def test_repeated_strategies_refused(self):
        # Scored twice, a strategy's DISTINCT would count its replies twice.
        with pytest.raises(InvalidParameterError, match="repeat"):
            run_bench(planted_fact_episodes(1), ConcatAggregator(), mock_client(),
                      strategies=["hat_bfs", "hat_bfs"])

    def test_episode_whose_query_opens_its_only_session_is_named(self):
        lone = Episode("lone", [Session(1, [turn("user", "hi"), turn("assistant", "hello", index=1)])])
        episodes = [*planted_fact_episodes(1), lone]
        with pytest.raises(InvalidParameterError, match="^episode 'lone': no turns ingested yet$"):
            run_bench(episodes, ConcatAggregator(), mock_client())

    def test_episode_without_gold_is_named_under_gold_memory(self):
        episode = planted_fact_episode(0, episode_id="no-gold")
        for session in episode.sessions:
            session.gold_memory = []
        with pytest.raises(ConfigurationError, match="^episode 'no-gold-000': gold_memory strategy "
                                                     "requested but no gold memory provided$"):
            run_bench([episode], ConcatAggregator(), mock_client())
        report = run_bench([episode], ConcatAggregator(), mock_client(),
                           strategies=["all_context"])
        assert report["memory_fidelity"] is None


class StageCountingClient:
    """Forwards to a client and counts its calls by stage, under a lock."""

    def __init__(self, client):
        self._client = client
        self.model = client.model
        self.calls = Counter()
        self._lock = threading.Lock()

    def complete(self, request):
        with self._lock:
            self.calls[request.stage] += 1
        return self._client.complete(request)


class FailingJudge:
    """An oracle and an agent whose every call raises; calls are counted under a lock."""

    def __init__(self):
        self.asked = []
        self._lock = threading.Lock()

    def sufficient(self, node_text, query):
        with self._lock:
            self.asked.append(node_text)
        raise RemoteUnavailableError("judge down", stage="oracle")

    def propose_action(self, node_text, query, visited_path):
        return self.sufficient(node_text, query)


_NOUNS = ("cat", "boat", "violin", "garden", "bicycle", "teapot", "kite", "lamp")
_FILLER = ("the weather turned cold again", "work was long today", "I made soup for dinner",
           "we watched a film last night", "my neighbour is painting the fence",
           "traffic was slow this morning", "I finally fixed the squeaky door")
WALKS = ("hat_bfs", "hat_dfs", "hat_agent")


def chat_stream(seed: int, count: int = 30) -> list[str]:
    """Seeded user messages: a planted fact, a question about one, or filler."""
    rng = random.Random(seed)
    planted, messages = [], []
    for _ in range(count):
        roll = rng.random()
        if roll < 0.25 and len(planted) < len(_NOUNS):
            noun = _NOUNS[len(planted)]
            planted.append(noun)
            messages.append(f"My {noun} nickname is {noun}{rng.randrange(1000, 10000)}")
        elif roll < 0.55 and planted:
            messages.append(f"What is my {rng.choice(planted)} nickname?")
        else:
            messages.append(rng.choice(_FILLER))
    return messages


def converse(strategy: str, messages: list[str], flush_first: bool = False):
    """Contexts and per-stage calls of one conversation: each message is
    walked for, replied to, and both turns are appended (llm_persona, M=3)."""
    # Each call waits 0.5 ms, so that a flush and a walk overlap as they do
    # against a remote endpoint.
    client = StageCountingClient(LlmClient(ClippingTransport(delay_s=0.0005), "mock-chat"))
    state = new_memory(3, LlmPersonaAggregator(client, max_tokens=12))
    ingest_turn(state, turn("assistant", "Hello again, what is on your mind today?"))
    oracle, agent = LlmOracle(client), LlmAgent(client)
    config = TraversalConfig(step_budget=16)
    contexts = []
    for i, message in enumerate(messages):
        if flush_first:
            state.tree.flush()
        context = build_context(state, message, strategy, oracle=oracle, agent=agent, config=config)
        reply = generate_response(context, message, client)
        ingest_turn(state, turn("user", message, index=2 * i + 1))
        ingest_turn(state, turn("assistant", reply, index=2 * i + 2))
        contexts.append(context)
    return contexts, client.calls


def concat_state(texts, flushed: int) -> MemoryState:
    """Concat (M=3) memory over `texts`, flushed after the first `flushed` of them."""
    state = new_memory(3, ConcatAggregator(" | "))
    for i, text in enumerate(texts):
        if i == flushed:
            state.tree.flush()
        ingest_turn(state, turn(("user", "assistant")[i % 2], text, index=i))
    return state


@pytest.fixture
def fast_switching():
    """Switch threads every 10 µs, so that rare interleavings of flush and walk occur."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)


@pytest.fixture
def flush_threads(monkeypatch):
    """The threads `read_while_flushing` starts, in start order."""
    started = []

    class SpyThread(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(tree_module, "threading",
                        types.SimpleNamespace(Thread=SpyThread, Event=threading.Event))
    return started


@pytest.mark.stress
class TestWalkWhileFlushing:
    """A hat_* walk runs during the pending flush and keeps its result only
    when every text it read survived the flush."""

    @pytest.mark.parametrize("strategy", WALKS)
    def test_contexts_equal_those_of_flushing_first(self, strategy, flush_threads, fast_switching):
        messages = chat_stream(seed=23)
        contexts, calls = converse(strategy, messages)
        assert len(flush_threads) == len(messages)
        expected, expected_calls = converse(strategy, messages, flush_first=True)
        assert contexts == expected
        assert calls["aggregate"] == expected_calls["aggregate"]
        assert calls["generate"] == expected_calls["generate"]
        # A walk may ask about a text the flush then changes, never skip one.
        assert calls["oracle"] + calls["agent"] >= expected_calls["oracle"] + expected_calls["agent"]

    @pytest.mark.parametrize("strategy", WALKS)
    def test_two_runs_make_the_same_calls(self, strategy, fast_switching):
        messages = chat_stream(seed=19)
        assert converse(strategy, messages) == converse(strategy, messages)

    @pytest.mark.parametrize("strategy", WALKS)
    def test_a_flush_that_changes_the_root_walks_again(self, strategy):
        state = concat_state(["a", "b", "c"], flushed=2)
        old_root = "user: a | assistant: b"
        new_root = old_root + " | user: c"
        oracle = TextSetOracle({new_root})
        context = build_context(state, "q", strategy, oracle=oracle, agent=OracleAgent(oracle))
        assert context == new_root
        assert oracle.asked[0] == old_root  # the first walk, before the flush committed
        assert oracle.asked[-1] == new_root  # the second walk, on the flushed tree

    @pytest.mark.parametrize("strategy", WALKS)
    def test_a_new_root_layer_is_never_asked_about(self, strategy, flush_threads):
        state = concat_state(["a", "b", "c", "d"], flushed=3)
        assert state.tree.layers[0][0] is None
        oracle = TextSetOracle()
        context = build_context(state, "q", strategy, oracle=oracle,
                                agent=OracleAgent(oracle, [A.DOWN, A.RIGHT, A.RIGHT]))
        assert len(flush_threads) == 1
        assert oracle.asked and all(isinstance(text, str) for text in oracle.asked)
        reference = TextSetOracle()
        flushed = concat_state(["a", "b", "c", "d"], flushed=4)
        flushed.tree.flush()
        assert context == build_context(flushed, "q", strategy, oracle=reference,
                                        agent=OracleAgent(reference, [A.DOWN, A.RIGHT, A.RIGHT]))
        assert sorted(oracle.asked) == sorted(reference.asked)  # a wave asks in any order

    @pytest.mark.parametrize("strategy", WALKS)
    def test_nothing_pending_starts_no_thread(self, strategy, flush_threads):
        state = concat_state(["a", "b", "c", "d"], flushed=4)
        state.tree.flush()
        oracle = TextSetOracle()
        build_context(state, "q", strategy, oracle=oracle, agent=OracleAgent(oracle))
        assert flush_threads == []
        ingest_turn(state, turn("user", "e", index=4))
        build_context(state, "q", strategy, oracle=oracle, agent=OracleAgent(oracle))
        assert len(flush_threads) == 1 and not flush_threads[0].is_alive()

    @pytest.mark.parametrize("strategy", WALKS)
    def test_failed_flush_raises_and_commits_nothing(self, strategy, flush_threads, monkeypatch):
        monkeypatch.setattr(llm, "BACKOFF_S", 0.0)
        transport = LoggingTransport(delay_s=0.001)
        client = LlmClient(transport, "mock-chat")
        state = new_memory(3, LlmPersonaAggregator(client, max_tokens=12))
        for i, text in enumerate(["my kite is red", "nice", "it flies well", "good", "windy today"]):
            if i == 4:
                state.tree.flush()
            ingest_turn(state, turn(("user", "assistant")[i % 2], text, index=i))

        def record():
            tree = state.tree
            texts = [list(row) for row in tree.layers]
            return texts, tree.agg_call_count, tree.flushed_leaves

        before = record()
        transport.fail_on = "Passages to merge:"
        with pytest.raises(RemoteUnavailableError, match="aggregate call gave up") as caught:
            build_context(state, "What colour is my kite?", strategy,
                          oracle=LlmOracle(client), agent=LlmAgent(client))
        assert caught.value.stage == "aggregate"
        assert record() == before
        assert len(flush_threads) == 1 and not flush_threads[0].is_alive()
        assert_no_call_running(transport)

    @pytest.mark.parametrize("strategy", WALKS)
    def test_walk_error_on_unchanged_texts_is_raised_once(self, strategy):
        # Truncate(2) keeps the first two tokens, so the fifth leaf changes no text.
        state = new_memory(3, TruncateAggregator(2))
        for i, text in enumerate(["one two", "three four", "five six", "seven eight", "nine ten"]):
            if i == 4:
                state.tree.flush()
            ingest_turn(state, turn(("user", "assistant")[i % 2], text, index=i))
        judge = FailingJudge()
        with pytest.raises(RemoteUnavailableError, match="judge down"):
            build_context(state, "q", strategy, oracle=judge, agent=judge)
        assert judge.asked == ["user one"]
        # Three aggregations for the first four leaves, one for the fifth's parent.
        assert state.tree.flushed_leaves == 5 and state.tree.agg_call_count == 3 + 1

    @pytest.mark.parametrize("strategy", WALKS)
    def test_walk_error_on_a_changed_text_walks_again(self, strategy):
        state = concat_state(["a", "b", "c"], flushed=2)
        judge = FailingJudge()
        with pytest.raises(RemoteUnavailableError, match="judge down"):
            build_context(state, "q", strategy, oracle=judge, agent=judge)
        assert judge.asked == ["user: a | assistant: b", "user: a | assistant: b | user: c"]
