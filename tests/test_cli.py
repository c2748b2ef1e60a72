"""The command-line surface, run in-process through `hatmem.cli.main`."""

from __future__ import annotations

import io
import json
import re

import pytest

from hatmem import HatTree, llm
from hatmem.cli import EXIT_DATA, EXIT_OK, EXIT_REMOTE, EXIT_USAGE, main
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
        monkeypatch.setattr("sys.stdin", io.StringIO("hello\n"))
        assert main(["chat", *live_flags(chat_server)]) == EXIT_REMOTE
        assert "agent call gave up after 3 attempts" in capsys.readouterr().err
        assert len(chat_server.seen) == 6

    def test_bad_data_and_config_exit_2(self, tmp_path, episodes_file, capsys):
        not_json = tmp_path / "config.json"
        not_json.write_text("{endpoint: nowhere", encoding="utf-8")
        bad_spec = tmp_path / "spec.json"
        bad_spec.write_text(json.dumps({"aggregator": {"kind": "truncate", "params": {"budget": 0}}}),
                            encoding="utf-8")
        bad_tree = tmp_path / "bad.tree.json"
        bad_tree.write_text(json.dumps({"format": "hat-tree", "version": 2, "memory_length": 3,
                                        "layers": 7}), encoding="utf-8")
        cases = [(["bench", episodes_file, "--mock", "--config", str(not_json)], "not valid JSON"),
                 (["bench", episodes_file, "--mock", "--config", str(bad_spec)], "truncate budget"),
                 (["inspect", str(bad_tree)], "layers must be"),
                 (["bench", episodes_file, "--endpoint", "file:///x", "--api-key", "k",
                   "--model", "m"], "http:// or https://")]
        for argv, message in cases:
            assert main(argv) == EXIT_DATA, argv
            assert message in capsys.readouterr().err

    def test_unknown_flag_exits_1(self, episodes_file):
        assert main(["bench", episodes_file, "--mock", "--no-such-flag"]) == EXIT_USAGE


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
