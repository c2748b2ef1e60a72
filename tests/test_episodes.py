"""Episode schema parsing, the evaluation split, and the release converter."""

from __future__ import annotations

import json

import pytest

from hatmem import load_episodes, parse_episode, save_episodes
from hatmem.episodes import convert_msc_record, episode_to_dict, final_exchange
from hatmem.errors import DocumentParseError
from hatmem.fixtures import (
    PLANTED_QUERY,
    PLANTED_REFERENCE,
    planted_fact_episode,
)


def minimal_record(**overrides) -> dict:
    record = {
        "episode_id": "ep-1",
        "sessions": [
            {"turns": [{"speaker": "user", "text": "hi"},
                       {"speaker": "assistant", "text": "hello"}],
             "gold_memory": ["greeting exchanged"]},
            {"turns": [{"speaker": "user", "text": "back again"},
                       {"speaker": "assistant", "text": "welcome back"}]},
        ],
    }
    record.update(overrides)
    return record


class TestParsing:
    def test_positional_numbering(self):
        episode = parse_episode(minimal_record())
        assert [s.number for s in episode.sessions] == [1, 2]
        assert episode.sessions[0].turns[1].turn_index == 1
        assert episode.sessions[1].turns[0].session == 2
        assert episode.sessions[0].gold_memory == ["greeting exchanged"]
        assert episode.sessions[1].gold_memory == []

    def test_roundtrip_dict(self):
        episode = parse_episode(minimal_record())
        assert parse_episode(episode_to_dict(episode)) == episode

    def test_bad_speaker(self):
        record = minimal_record()
        record["sessions"][0]["turns"][0]["speaker"] = "narrator"
        with pytest.raises(DocumentParseError, match="speaker"):
            parse_episode(record)

    def test_empty_text(self):
        record = minimal_record()
        record["sessions"][1]["turns"][1]["text"] = ""
        with pytest.raises(DocumentParseError, match="text"):
            parse_episode(record)

    def test_missing_episode_id(self):
        with pytest.raises(DocumentParseError, match="episode_id"):
            parse_episode(minimal_record(episode_id=""))

    def test_gold_memory_type_checked(self):
        record = minimal_record()
        record["sessions"][0]["gold_memory"] = "not a list"
        with pytest.raises(DocumentParseError, match="gold_memory"):
            parse_episode(record)

    @pytest.mark.parametrize("record, message", [
        (["ep-1"], "episode record must be a JSON object"),
        (minimal_record(sessions=[]), "sessions must be a nonempty list"),
        (minimal_record(sessions=["hi"]), "session 1 must be an object"),
        (minimal_record(sessions=[{"turns": []}]), "session 1 needs a nonempty turns list"),
        (minimal_record(sessions=[{"turns": ["hi"]}]), "session 1 turn 0 must be an object"),
    ], ids=["list_record", "no_sessions", "string_session", "no_turns", "string_turn"])
    def test_rejects_records_of_the_wrong_shape(self, record, message):
        with pytest.raises(DocumentParseError, match=f"^line 3: .*{message}$"):
            parse_episode(record, line_no=3)


class TestFiles:
    def test_load_reports_line_numbers(self, tmp_path):
        path = tmp_path / "episodes.jsonl"
        path.write_text(json.dumps(minimal_record()) + "\n{broken\n", encoding="utf-8")
        with pytest.raises(DocumentParseError, match="line 2"):
            load_episodes(path)

    def test_deeply_nested_line_is_a_parse_error_with_its_line(self, tmp_path):
        path = tmp_path / "episodes.jsonl"
        path.write_text(json.dumps(minimal_record()) + "\n" + "[" * 100_000 + "]" * 100_000 + "\n",
                        encoding="utf-8")
        with pytest.raises(DocumentParseError, match="^line 2: not valid JSON"):
            load_episodes(path)

    def test_save_load_roundtrip(self, tmp_path):
        path = tmp_path / "episodes.jsonl"
        episodes = [planted_fact_episode(seed) for seed in range(3)]
        save_episodes(path, episodes)
        assert load_episodes(path) == episodes

    def test_repeated_episode_id_refused_with_both_lines(self, tmp_path):
        path = tmp_path / "episodes.jsonl"
        record = json.dumps(minimal_record())
        other = json.dumps(minimal_record(episode_id="ep-2"))
        path.write_text(f"{record}\n\n{other}\n{record}\n", encoding="utf-8")
        with pytest.raises(DocumentParseError, match="^line 4: episode_id 'ep-1' repeats line 1$"):
            load_episodes(path)

    def test_require_session_filter(self, tmp_path):
        path = tmp_path / "episodes.jsonl"
        short = parse_episode(minimal_record(episode_id="short"))
        long = planted_fact_episode(0)
        save_episodes(path, [short, long])
        kept = load_episodes(path, require_session=3)
        assert [e.episode_id for e in kept] == [long.episode_id]
        assert len(load_episodes(path)) == 2


class TestFinalExchange:
    def test_planted_fixture_split(self):
        episode = planted_fact_episode(0)
        query, reference, history = final_exchange(episode)
        assert query.text == PLANTED_QUERY
        assert reference.text == PLANTED_REFERENCE
        assert len(history) == 22
        assert all((t.session, t.turn_index) != (query.session, query.turn_index)
                   for t in history)

    def test_trailing_turns_excluded(self):
        record = minimal_record()
        record["sessions"][1]["turns"] = [
            {"speaker": "user", "text": "q1"},
            {"speaker": "assistant", "text": "a1"},
            {"speaker": "user", "text": "dangling"},
        ]
        query, reference, history = final_exchange(parse_episode(record))
        assert (query.text, reference.text) == ("q1", "a1")
        assert [t.text for t in history] == ["hi", "hello"]

    def test_no_exchange_rejected(self):
        record = minimal_record()
        record["sessions"][1]["turns"] = [{"speaker": "assistant", "text": "monologue"}]
        with pytest.raises(DocumentParseError, match="exchange"):
            final_exchange(parse_episode(record))


class TestConverter:
    def test_maps_release_shape(self):
        raw = {
            "metadata": {"initial_data_id": "msc-42"},
            "previous_dialogs": [
                {"dialog": [{"id": "Speaker 1", "text": "i like trains"},
                            {"id": "Speaker 2", "text": "me too"}],
                 "personas": [["I like trains."], ["I agree a lot."]]},
            ],
            "dialog": [{"id": "Speaker 1", "text": "remember my hobby?"},
                       {"id": "Speaker 2", "text": "trains"}],
        }
        episode = convert_msc_record(raw)
        assert episode.episode_id == "msc-42"
        assert len(episode.sessions) == 2
        assert episode.sessions[0].turns[0].speaker == "user"
        assert episode.sessions[0].turns[1].speaker == "assistant"
        assert episode.sessions[0].gold_memory == ["I like trains.", "I agree a lot."]
        assert episode.sessions[1].turns[1].text == "trains"

    def test_alternation_fallback_without_ids(self):
        raw = {"dialog": [{"text": "one"}, {"text": "two"}, {"text": "three"}]}
        episode = convert_msc_record(raw, episode_id="x")
        assert [t.speaker for t in episode.sessions[0].turns] == ["user", "assistant", "user"]

    def test_rejects_missing_text(self):
        with pytest.raises(DocumentParseError):
            convert_msc_record({"dialog": [{"id": "Speaker 1"}]}, episode_id="x")

    @pytest.mark.parametrize("record, message", [
        ({"dialog": ["hi"]}, "session 1 turn 0 must be a JSON object"),
        ({"metadata": ["msc-42"], "dialog": [{"text": "hi"}]}, "metadata must be a JSON object"),
        ({"previous_dialogs": ["hi"], "dialog": [{"text": "hi"}]},
         "previous_dialogs entry 0 must be a JSON object"),
        ({"dialog": "hi"}, "session 1 dialog must be a JSON array"),
        (["hi"], "record must be a JSON object"),
    ], ids=["string_turn", "list_metadata", "string_previous_dialog", "string_dialog", "list_record"])
    def test_rejects_wrong_json_types(self, record, message):
        with pytest.raises(DocumentParseError, match=message):
            convert_msc_record(record)

    def test_a_string_persona_group_is_one_gold_line(self):
        raw = {"dialog": [{"text": "hi"}], "personas": ["I like tea.", ["I have a cat.", "I run."]]}
        episode = convert_msc_record(raw, episode_id="x")
        assert episode.sessions[0].gold_memory == ["I like tea.", "I have a cat.", "I run."]

    def test_rejects_personas_that_are_not_a_list(self):
        with pytest.raises(DocumentParseError, match="personas must be a JSON array"):
            convert_msc_record({"dialog": [{"text": "hi"}], "personas": 5}, episode_id="x")

    @pytest.mark.parametrize("group", [5, {"a": 1}, None, True])
    def test_rejects_a_persona_that_is_neither_a_string_nor_a_list(self, group):
        raw = {"previous_dialogs": [{"dialog": [{"text": "hi"}], "personas": ["I like tea."]}],
               "dialog": [{"text": "hello"}], "personas": ["I like tea.", group]}
        with pytest.raises(DocumentParseError, match="'x': session 2 persona 1 must be a string"):
            convert_msc_record(raw, episode_id="x")

    @pytest.mark.parametrize("item", [None, 5, {"a": 1}, ["I swim."], True])
    def test_rejects_a_persona_list_item_that_is_not_a_string(self, item):
        raw = {"previous_dialogs": [{"dialog": [{"text": "hi"}], "personas": ["I like tea."]}],
               "dialog": [{"text": "hello"}], "personas": ["I like tea.", ["I run.", item]]}
        with pytest.raises(DocumentParseError, match="'x': session 2 persona 1 item 1 must be a string"):
            convert_msc_record(raw, episode_id="x")
