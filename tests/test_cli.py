"""The command-line surface, run in-process through `hatmem.cli.main`."""

from __future__ import annotations

import io
import json
import re

import pytest

from hatmem import (ConcatAggregator, HatTree, LlmPersonaAggregator, ingest_episode, llm,
                    mock_client, score_pairs)
from hatmem.cli import EXIT_DATA, EXIT_OK, EXIT_REMOTE, EXIT_USAGE, _client, build_parser, main
from hatmem.config import load_config_file
from hatmem.episodes import save_episodes
from hatmem.fixtures import planted_fact_episodes


@pytest.fixture
def episodes_file(tmp_path):
    path = tmp_path / "episodes.jsonl"
    save_episodes(path, planted_fact_episodes(1))
    return str(path)


def live_flags(server):
    return ["--endpoint", server.url, "--api-key", "k", "--model", "m"]


class TestExitCodes:
    def test_bench_and_chat_succeed_against_a_healthy_endpoint(self, chat_server, episodes_file,
                                                               monkeypatch, capsys):
        assert main(["bench", episodes_file, "--aggregator", "llm_persona",
                     *live_flags(chat_server)]) == EXIT_OK
        assert "hat_agent" in capsys.readouterr().out
        bench_calls = len(chat_server.seen)
        monkeypatch.setattr("sys.stdin", io.StringIO("I keep a zephyrite crystal.\n\n"
                                                     "Which crystal do I keep?\n"))
        assert main(["chat", *live_flags(chat_server)]) == EXIT_OK
        replies = [line for line in capsys.readouterr().out.splitlines()
                   if line.startswith("assistant: ")]
        assert len(replies) == 2 and "zephyrite" in replies[1]
        assert len(chat_server.seen) > bench_calls

    def test_exhausted_retries_exit_3_and_name_the_stage(self, chat_server, episodes_file,
                                                         monkeypatch, capsys):
        monkeypatch.setattr(llm, "BACKOFF_S", 0.0)
        chat_server.fallback = lambda payload: (503, "busy")
        assert main(["bench", episodes_file, "--strategy", "hat_bfs",
                     *live_flags(chat_server)]) == EXIT_REMOTE
        assert "oracle call gave up after 3 attempts" in capsys.readouterr().err
        # A first message has no memory to walk, so its first call is the reply.
        monkeypatch.setattr("sys.stdin", io.StringIO("hello\n"))
        assert main(["chat", *live_flags(chat_server)]) == EXIT_REMOTE
        assert "generate call gave up after 3 attempts" in capsys.readouterr().err
        assert len(chat_server.seen) == 6
        mock = llm.MockTransport()
        chat_server.fallback = lambda payload: (
            (503, "busy") if "Reply with exactly one action token." in
            payload["messages"][-1]["content"] else mock.send(payload))
        monkeypatch.setattr("sys.stdin", io.StringIO("hello\nhello again\n"))
        assert main(["chat", *live_flags(chat_server)]) == EXIT_REMOTE
        captured = capsys.readouterr()
        assert "agent call gave up after 3 attempts" in captured.err
        assert captured.out.count("assistant: ") == 1
        assert len(chat_server.seen) == 10

    def test_rejected_request_exits_3_and_names_the_stage(self, chat_server, episodes_file, capsys):
        chat_server.fallback = lambda payload: (400, {"error": "bad request"})
        assert main(["bench", episodes_file, "--strategy", "hat_bfs",
                     *live_flags(chat_server)]) == EXIT_REMOTE
        assert "oracle request rejected with HTTP 400" in capsys.readouterr().err
        assert len(chat_server.seen) == 1

    def test_bad_data_and_config_exit_2(self, tmp_path, episodes_file, capsys):
        not_json = tmp_path / "config.json"
        not_json.write_text("{endpoint: nowhere", encoding="utf-8")
        bad_spec = tmp_path / "spec.json"
        bad_spec.write_text(json.dumps({"aggregator": {"kind": "truncate", "params": {"budget": 0}}}),
                            encoding="utf-8")
        unknown_key = tmp_path / "unknown.json"
        unknown_key.write_text(json.dumps({"strategy": "hat_bfs", "memory_lenght": 9}), encoding="utf-8")
        not_persona = tmp_path / "persona.json"
        not_persona.write_text(json.dumps({"aggregator": {"kind": "llm_persona",
                                                          "params": {"template": "response_v1"}}}),
                               encoding="utf-8")
        hot_persona = tmp_path / "hot.json"
        hot_persona.write_text(json.dumps({"aggregator": {"kind": "llm_persona",
                                                          "params": {"temperature": 0.7}}}),
                               encoding="utf-8")
        not_object = tmp_path / "list.json"
        not_object.write_text(json.dumps(["endpoint", "nowhere"]), encoding="utf-8")
        repeated = tmp_path / "repeated.jsonl"
        save_episodes(repeated, planted_fact_episodes(1) * 2)
        list_pair = tmp_path / "list-pair.jsonl"
        list_pair.write_text('{"candidate": "a", "reference": "a"}\n["a", "a"]\n', encoding="utf-8")
        no_pairs = tmp_path / "no-pairs.jsonl"
        no_pairs.write_text("\n", encoding="utf-8")
        bad_tree = tmp_path / "bad.tree.json"
        bad_tree.write_text(json.dumps({"format": "hat-tree", "version": 2, "memory_length": 3,
                                        "layers": 7}), encoding="utf-8")
        cases = [(["bench", episodes_file, "--mock", "--config", str(not_json)], "not valid JSON"),
                 (["bench", episodes_file, "--mock", "--config", str(tmp_path / "absent.json")],
                  "cannot read config file"),
                 (["bench", episodes_file, "--mock", "--config", str(not_object)],
                  "must hold a JSON object"),
                 (["bench", episodes_file, "--mock", "--config", str(bad_spec)], "truncate budget"),
                 (["bench", episodes_file, "--mock", "--config", str(unknown_key)],
                  "unknown key 'strategy'; the keys read are endpoint, api_key, model, "
                  "memory_length, aggregator, budget"),
                 (["ingest", episodes_file, "--out", str(tmp_path / "out"), "--mock",
                   "--config", str(not_persona)],
                  "persona template must be one of ['persona_v1'], got 'response_v1'"),
                 (["bench", episodes_file, "--mock", "--config", str(hot_persona)],
                  "persona temperature must be 0, got 0.7"),
                 (["ingest", str(repeated), "--out", str(tmp_path / "out"), "--mock"],
                  "line 2: episode_id 'planted-fact-000' repeats line 1"),
                 (["bench", str(repeated), "--mock"],
                  "line 2: episode_id 'planted-fact-000' repeats line 1"),
                 (["bench", episodes_file, "--mock", "--strategy", "hat_bfs", "--strategy", "hat_bfs"],
                  "strategies repeat a name"),
                 (["inspect", str(bad_tree)], "layers must be"),
                 (["metrics", str(list_pair)],
                  "line 2: need an object with string candidate and reference"),
                 (["metrics", str(no_pairs)], "no pairs to score"),
                 (["bench", episodes_file, "--endpoint", "file:///x", "--api-key", "k",
                   "--model", "m"], "http:// or https://")]
        for argv, message in cases:
            assert main(argv) == EXIT_DATA, argv
            assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_deeply_nested_json_exits_2(self, tmp_path, episodes_file, capsys):
        nested = "[" * 100_000 + "]" * 100_000 + "\n"
        deep = tmp_path / "deep.jsonl"
        deep.write_text(nested, encoding="utf-8")
        cases = [(["metrics", str(deep)], "line 1: not valid JSON"),
                 (["bench", str(deep), "--mock"], "line 1: not valid JSON"),
                 (["bench", episodes_file, "--mock", "--config", str(deep)], "is not valid JSON"),
                 (["inspect", str(deep)], "not valid JSON")]
        for argv, message in cases:
            assert main(argv) == EXIT_DATA, argv
            assert message in capsys.readouterr().err

    def test_unknown_flag_exits_1(self, episodes_file):
        assert main(["bench", episodes_file, "--mock", "--no-such-flag"]) == EXIT_USAGE
        assert main(["bench", episodes_file, "--mock", "--agent", "llm"]) == EXIT_USAGE


class TestConfigFile:
    @pytest.mark.parametrize("command", ["ingest", "bench"])
    def test_memory_length_must_be_a_json_integer(self, command, tmp_path, episodes_file, capsys):
        out = tmp_path / "out"
        argv = {"ingest": ["ingest", episodes_file, "--out", str(out), "--mock"],
                "bench": ["bench", episodes_file, "--mock", "--strategy", "all_context"]}[command]
        for value, written in ((2.9, "2.9"), (True, "true"), ("3", '"3"')):
            config = tmp_path / "config.json"
            config.write_text(json.dumps({"memory_length": value}), encoding="utf-8")
            assert main([*argv, "--config", str(config)]) == EXIT_DATA
            assert f"config key 'memory_length' must be an integer, got {written}" \
                in capsys.readouterr().err
        assert not out.exists()

    def test_budget_must_be_a_json_integer(self, tmp_path, episodes_file, monkeypatch, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"budget": 0.5}), encoding="utf-8")
        assert main(["bench", episodes_file, "--mock", "--strategy", "hat_bfs",
                     "--config", str(config)]) == EXIT_DATA
        assert "config key 'budget' must be an integer, got 0.5" in capsys.readouterr().err
        monkeypatch.setattr("sys.stdin", io.StringIO("hello\n"))
        assert main(["chat", "--mock", "--config", str(config)]) == EXIT_DATA
        assert "config key 'budget' must be an integer, got 0.5" in capsys.readouterr().err

    def test_integer_settings_from_the_file_are_used(self, tmp_path, episodes_file, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"memory_length": 2, "budget": 1}), encoding="utf-8")
        out = tmp_path / "out"
        assert main(["ingest", episodes_file, "--out", str(out), "--mock",
                     "--config", str(config)]) == EXIT_OK
        (tree_file,) = out.glob("*.tree.json")
        assert HatTree.deserialize(tree_file.read_text(encoding="utf-8")).memory_length == 2
        report = tmp_path / "report.json"
        assert main(["bench", episodes_file, "--mock", "--strategy", "hat_bfs",
                     "--config", str(config), "--out", str(report)]) == EXIT_OK
        assert json.loads(report.read_text(encoding="utf-8"))["config"]["step_budget"] == 1

    @pytest.mark.parametrize("contents, flags, message", [
        ({"endpoint": 5, "api_key": "k", "model": "m"}, [],
         "config key 'endpoint' must be a string, got 5"),
        ({"model": 7}, ["--mock"], "config key 'model' must be a string, got 7"),
        ({"aggregator": {"kind": "truncate", "param": {"budget": 4}}}, ["--mock"],
         "config key 'aggregator' must be a kind string or an object with only the keys "
         'kind and params, got {"kind": "truncate", "param": {"budget": 4}}'),
    ], ids=["endpoint", "model", "aggregator"])
    def test_values_are_type_checked_when_the_file_is_read(self, contents, flags, message,
                                                           tmp_path, episodes_file, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(contents), encoding="utf-8")
        assert main(["bench", episodes_file, *flags, "--config", str(config)]) == EXIT_DATA
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("key, value, nested", [
        ("separator", " / ", '{"aggregator": {"kind": "concat", "params": {"separator": " / "}}}'),
        ("truncate_budget", 16, '{"aggregator": {"kind": "truncate", "params": {"budget": 16}}}'),
    ])
    def test_removed_flat_aggregator_keys_are_refused(self, key, value, nested, tmp_path,
                                                      episodes_file, capsys):
        # A flat aggregator key is an unknown key; its nested form is read.
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"aggregator": "concat", key: value}), encoding="utf-8")
        assert main(["bench", episodes_file, "--mock", "--config", str(config)]) == EXIT_DATA
        assert f"unknown key {key!r}" in capsys.readouterr().err
        config.write_text(nested, encoding="utf-8")
        assert load_config_file(str(config)) == json.loads(nested)


class TestClientSettings:
    """Endpoint, API key and model resolve as flag > environment > file."""

    SETTINGS = [("endpoint", "--endpoint", "HATMEM_ENDPOINT", "http://{}.invalid/v1"),
                ("api_key", "--api-key", "HATMEM_API_KEY", "{}-key"),
                ("model", "--model", "HATMEM_MODEL", "{}-model")]

    @staticmethod
    def resolved(client, key):
        return client.model if key == "model" else getattr(client.transport, key)

    @pytest.mark.parametrize("key, flag, env_key, shape", SETTINGS, ids=[row[0] for row in SETTINGS])
    def test_environment_beats_file_and_flag_beats_both(self, key, flag, env_key, shape,
                                                        monkeypatch):
        file_config = {k: s.format("file") for k, _, _, s in self.SETTINGS}
        for _, _, other, _ in self.SETTINGS:
            monkeypatch.delenv(other, raising=False)
        monkeypatch.setenv(env_key, shape.format("env"))
        parser = build_parser()
        args = parser.parse_args(["bench", "episodes.jsonl"])
        assert self.resolved(_client(args, file_config), key) == shape.format("env")
        args = parser.parse_args(["bench", "episodes.jsonl", flag, shape.format("flag")])
        assert self.resolved(_client(args, file_config), key) == shape.format("flag")

    def test_mock_model_from_environment_beats_file(self, monkeypatch):
        monkeypatch.setenv("HATMEM_MODEL", "env-model")
        args = build_parser().parse_args(["bench", "episodes.jsonl", "--mock"])
        assert _client(args, {"model": "file-model"}).model == "env-model"


class TestChat:
    @pytest.mark.parametrize("strategy", ["all_context", "part_context", "hat_bfs", "hat_dfs",
                                          "hat_agent"])
    def test_walk_never_finds_the_message_it_answers(self, strategy, monkeypatch, capsys):
        messages = ["My cat nickname is zorimu.", "What is my dog nickname?",
                    "What is my cat nickname?"]
        monkeypatch.setattr("sys.stdin", io.StringIO("".join(m + "\n" for m in messages)))
        assert main(["chat", "--mock", "--strategy", strategy]) == EXIT_OK
        replies = [line.removeprefix("assistant: ") for line in capsys.readouterr().out.splitlines()]
        assert len(replies) == len(messages)
        assert replies[0] == "I do not have that in my notes."
        assert all(reply != message for reply, message in zip(replies, messages))
        assert "zorimu" in replies[2]

    def test_gold_memory_is_refused_up_front(self, monkeypatch, capsys):
        # A chat has no dataset summaries, so gold_memory could never answer a second message.
        monkeypatch.setattr("sys.stdin", io.StringIO("hello\nwhat did I say?\n"))
        assert main(["chat", "--mock", "--strategy", "gold_memory"]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert "invalid choice: 'gold_memory'" in captured.err
        assert "assistant: " not in captured.out


class TestIngest:
    @pytest.mark.parametrize("bad_id", ["../escaped", "sub/id", "sub\\id", ".", ".."])
    def test_id_that_is_no_plain_file_name_is_refused_before_any_write(self, bad_id, tmp_path,
                                                                         capsys):
        good, bad = planted_fact_episodes(2)
        good.episode_id, bad.episode_id = "-", bad_id  # the good one is ingested first
        episodes = tmp_path / "episodes.jsonl"
        save_episodes(episodes, [bad, good])
        out = tmp_path / "trav" / "out"
        assert main(["ingest", str(episodes), "--out", str(out), "--mock"]) == EXIT_DATA
        assert f"episode_id {bad_id!r} is not a plain file name" in capsys.readouterr().err
        assert not (tmp_path / "trav").exists()

    def test_a_failed_run_writes_nothing(self, tmp_path, capsys):
        # The long id passes the plain-name check, but no file system takes
        # its file names; the episode sorted before it is ingested first.
        good, bad = planted_fact_episodes(2)
        bad.episode_id = "x" * 300
        episodes = tmp_path / "episodes.jsonl"
        save_episodes(episodes, [good, bad])
        out = tmp_path / "out"
        assert main(["ingest", str(episodes), "--out", str(out), "--mock"]) == EXIT_DATA
        assert "File name too long" in capsys.readouterr().err
        assert sorted(path.name for path in tmp_path.iterdir()) == ["episodes.jsonl", "out"]
        assert list(out.iterdir()) == []

    def test_persona_trees_match_an_ingest_through_the_mock_client(self, tmp_path, capsys):
        (episode,) = planted_fact_episodes(1)
        episodes = tmp_path / "episodes.jsonl"
        save_episodes(episodes, [episode])
        out = tmp_path / "out"
        assert main(["ingest", str(episodes), "--out", str(out), "--mock",
                     "--aggregator", "llm_persona"]) == EXIT_OK
        client = mock_client()
        state = ingest_episode(episode, 3, LlmPersonaAggregator(client))
        assert (out / f"{episode.episode_id}.tree.json").read_text(encoding="utf-8") \
            == state.tree.serialize()
        # The line counts the calls sent, not the texts set.
        assert client.transport.calls == state.tree.agg_call_count
        assert f"{state.tree.agg_call_count} aggregator calls" in capsys.readouterr().out

    def test_a_config_that_records_the_persona_template_loads(self, tmp_path, episodes_file):
        # The name every llm_persona spec records is accepted; the exit-2
        # cases above refuse any other.
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"aggregator": {"kind": "llm_persona",
                                                     "params": {"template": "persona_v1"}}}),
                          encoding="utf-8")
        for out, flags in (("by-config", ["--config", str(config)]),
                           ("by-flag", ["--aggregator", "llm_persona"])):
            assert main(["ingest", episodes_file, "--out", str(tmp_path / out), "--mock", *flags]) \
                == EXIT_OK
        by_config, by_flag = (sorted((tmp_path / out).iterdir()) for out in ("by-config", "by-flag"))
        assert [path.read_bytes() for path in by_config] == [path.read_bytes() for path in by_flag]


class TestMetrics:
    def test_scores_are_printed_and_written(self, tmp_path, capsys):
        pairs = [("the cat sat", "the cat sat down"), ("hello world", "hello there world")]
        pairs_file = tmp_path / "pairs.jsonl"
        pairs_file.write_text("".join(json.dumps({"candidate": c, "reference": r}) + "\n\n"
                                      for c, r in pairs), encoding="utf-8")
        out = tmp_path / "scores.json"
        assert main(["metrics", str(pairs_file), "--out", str(out)]) == EXIT_OK
        printed = capsys.readouterr().out
        assert json.loads(printed) == score_pairs(pairs)
        assert out.read_text(encoding="utf-8") == printed


class TestInspect:
    def test_prints_one_line_per_node(self, tmp_path, capsys):
        episodes = tmp_path / "episodes.jsonl"
        save_episodes(episodes, planted_fact_episodes(1))
        out_dir = tmp_path / "trees"
        assert main(["ingest", str(episodes), "--out", str(out_dir), "--mock"]) == EXIT_OK
        (tree_file,) = out_dir.glob("*.tree.json")
        capsys.readouterr()
        assert main(["inspect", str(tree_file), "--text-width", "20"]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        tree = HatTree.deserialize(tree_file.read_text(encoding="utf-8"))
        node_lines = [line for line in lines if line.startswith("  (")]
        positions = [(k, i) for k, row in enumerate(tree.layers) for i in range(len(row))]
        assert [tuple(map(int, re.match(r"  \((\d+),(\d+)\) text=", line).groups()))
                for line in node_lines] == positions
        assert f"leaf_count: {tree.leaf_count}" in lines

    def test_prints_a_repeated_text_in_full_at_every_node(self, tmp_path, capsys):
        tree = HatTree(3, ConcatAggregator())
        for text in ("hi", "hi", "bye", "hi"):
            tree.append_leaf(text)
        tree_file = tmp_path / "repeats.tree.json"
        tree_file.write_text(tree.serialize(), encoding="utf-8")
        # The document writes "hi" once, as a slice of its parent, and numbers
        # it at its three other nodes; "hi\nhi\nbye" and "bye" are slices too.
        assert json.loads(tree_file.read_text(encoding="utf-8"))["layers"] == [
            ["hi\nhi\nbye\nhi"], [[0, 9], [10, 12]], [2, 2, [6, 9], 2]]
        assert main(["inspect", str(tree_file)]) == EXIT_OK
        node_lines = [line for line in capsys.readouterr().out.splitlines()
                      if line.startswith("  (")]
        texts = [["hi\nhi\nbye\nhi"], ["hi\nhi\nbye", "hi"], ["hi", "hi", "bye", "hi"]]
        assert node_lines == [f"  ({k},{i}) text={text!r}"
                              for k, row in enumerate(texts) for i, text in enumerate(row)]
