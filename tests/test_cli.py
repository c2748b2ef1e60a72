"""The command-line surface, run in-process through `hatmem.cli.main`."""

from __future__ import annotations

import re

from hatmem import HatTree
from hatmem.cli import EXIT_OK, main
from hatmem.episodes import save_episodes
from hatmem.fixtures import planted_fact_episodes


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
