"""Multi-session chat records and their line-delimited JSON serialization.

One episode per line: {"episode_id": str, "sessions": [{"turns":
[{"speaker": "user"|"assistant", "text": str}], "gold_memory": [str]}]}.
Session numbers are positional, counted from 1; gold_memory is optional and
holds dataset-provided reference summaries for that session.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterator, Optional

from .errors import DocumentParseError

SPEAKERS = ("user", "assistant")


@dataclass
class DialogueTurn:
    speaker: str
    text: str
    session: int
    turn_index: int


@dataclass
class Session:
    number: int
    turns: list[DialogueTurn] = field(default_factory=list)
    gold_memory: list[str] = field(default_factory=list)


@dataclass
class Episode:
    episode_id: str
    sessions: list[Session] = field(default_factory=list)


def _fail(line_no: Optional[int], message: str):
    prefix = f"line {line_no}: " if line_no is not None else ""
    raise DocumentParseError(prefix + message)


def parse_episode(obj: dict, line_no: Optional[int] = None) -> Episode:
    if not isinstance(obj, dict):
        _fail(line_no, "episode record must be a JSON object")
    episode_id = obj.get("episode_id")
    if not isinstance(episode_id, str) or not episode_id:
        _fail(line_no, "episode_id must be a nonempty string")
    sessions_raw = obj.get("sessions")
    if not isinstance(sessions_raw, list) or not sessions_raw:
        _fail(line_no, f"episode {episode_id!r}: sessions must be a nonempty list")
    sessions = []
    for s_pos, session_raw in enumerate(sessions_raw, start=1):
        if not isinstance(session_raw, dict):
            _fail(line_no, f"episode {episode_id!r}: session {s_pos} must be an object")
        turns_raw = session_raw.get("turns")
        if not isinstance(turns_raw, list) or not turns_raw:
            _fail(line_no, f"episode {episode_id!r}: session {s_pos} needs a nonempty turns list")
        gold = session_raw.get("gold_memory", [])
        if not isinstance(gold, list) or not all(isinstance(g, str) for g in gold):
            _fail(line_no, f"episode {episode_id!r}: session {s_pos} gold_memory must be a list of strings")
        turns = []
        for t_pos, turn_raw in enumerate(turns_raw):
            if not isinstance(turn_raw, dict):
                _fail(line_no, f"episode {episode_id!r}: session {s_pos} turn {t_pos} must be an object")
            speaker = turn_raw.get("speaker")
            text = turn_raw.get("text")
            if speaker not in SPEAKERS:
                _fail(line_no, f"episode {episode_id!r}: session {s_pos} turn {t_pos} "
                               f"speaker must be one of {SPEAKERS}, got {speaker!r}")
            if not isinstance(text, str) or not text:
                _fail(line_no, f"episode {episode_id!r}: session {s_pos} turn {t_pos} "
                               "text must be a nonempty string")
            turns.append(DialogueTurn(speaker=speaker, text=text, session=s_pos, turn_index=t_pos))
        sessions.append(Session(number=s_pos, turns=turns, gold_memory=list(gold)))
    return Episode(episode_id=episode_id, sessions=sessions)


def episode_to_dict(episode: Episode) -> dict:
    return {
        "episode_id": episode.episode_id,
        "sessions": [
            {
                "turns": [{"speaker": t.speaker, "text": t.text} for t in s.turns],
                "gold_memory": list(s.gold_memory),
            }
            for s in episode.sessions
        ],
    }


def read_json_lines(path) -> Iterator[tuple[int, object]]:
    """(1-based line number, parsed value) for each nonblank line of a JSON-lines file."""
    with open(path, "r", encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                value = json.loads(line)
            except (ValueError, RecursionError) as exc:
                _fail(line_no, f"not valid JSON: {exc}")
            yield line_no, value


def load_episodes(path, require_session: Optional[int] = None) -> list[Episode]:
    """Parse an episodes file; errors carry 1-based line numbers.

    An episode_id may appear on one line only. require_session keeps only
    episodes that reach that session number.
    """
    episodes = []
    first_line: dict[str, int] = {}
    for line_no, obj in read_json_lines(path):
        episode = parse_episode(obj, line_no)
        if episode.episode_id in first_line:
            _fail(line_no, f"episode_id {episode.episode_id!r} repeats line "
                           f"{first_line[episode.episode_id]}")
        first_line[episode.episode_id] = line_no
        episodes.append(episode)
    if require_session is not None:
        episodes = [e for e in episodes if len(e.sessions) >= require_session]
    return episodes


def save_episodes(path, episodes: list[Episode]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for episode in episodes:
            handle.write(json.dumps(episode_to_dict(episode), sort_keys=True) + "\n")


def final_exchange(episode: Episode) -> tuple[DialogueTurn, DialogueTurn, list[DialogueTurn]]:
    """Evaluation split: (query, reference, history).

    The query is the last user turn of the final session that is directly
    followed by an assistant turn; that assistant turn is the reference.
    History is every turn before the query, across all sessions.
    """
    last = episode.sessions[-1]
    pair_at = None
    for i in range(len(last.turns) - 2, -1, -1):
        if last.turns[i].speaker == "user" and last.turns[i + 1].speaker == "assistant":
            pair_at = i
            break
    if pair_at is None:
        raise DocumentParseError(
            f"episode {episode.episode_id!r}: final session has no user/assistant exchange")
    query = last.turns[pair_at]
    reference = last.turns[pair_at + 1]
    history = [t for s in episode.sessions for t in s.turns
               if (t.session, t.turn_index) < (query.session, query.turn_index)]
    return query, reference, history


def convert_msc_record(obj: dict, episode_id: Optional[str] = None) -> Episode:
    """Best-effort converter for the public multi-session chat release format.

    Expects {"previous_dialogs": [{"dialog": [...], "personas"?}],
    "dialog": [...], "personas"?, "metadata"?: {"initial_data_id"?}} where a
    dialog entry is {"id"?: "Speaker 1"|"Speaker 2", "text": str}. Speakers
    map Speaker 1 -> user and Speaker 2 -> assistant; entries without an id
    alternate starting with user. Per-session personas, each a string or a
    list of strings, become gold_memory.
    """
    if not isinstance(obj, dict):
        raise DocumentParseError("record must be a JSON object")

    def expect(value, kind: type, what: str):
        # A missing or empty value counts as empty; any other value of the
        # wrong JSON type is refused here rather than failing on a lookup.
        if not value:
            return kind()
        if not isinstance(value, kind):
            raise DocumentParseError(f"{what} must be a JSON {'object' if kind is dict else 'array'}")
        return value

    if episode_id is None:
        episode_id = str(expect(obj.get("metadata"), dict, "metadata").get("initial_data_id") or "episode")

    def convert_session(number: int, dialog, personas) -> dict:
        turns = []
        where = f"episode {episode_id!r}: session {number}"
        for pos, entry in enumerate(expect(dialog, list, f"{where} dialog")):
            text = expect(entry, dict, f"{where} turn {pos}").get("text")
            if not isinstance(text, str) or not text:
                raise DocumentParseError(f"{where} turn {pos} has no text")
            speaker_id = str(entry.get("id", ""))
            if speaker_id.endswith("1"):
                speaker = "user"
            elif speaker_id.endswith("2"):
                speaker = "assistant"
            else:
                speaker = SPEAKERS[pos % 2]
            turns.append({"speaker": speaker, "text": text})
        gold = []
        for pos, group in enumerate(expect(personas, list, f"{where} personas")):
            if isinstance(group, str):
                group = [group]
            elif not isinstance(group, list):
                raise DocumentParseError(f"{where} persona {pos} must be a string or a JSON array")
            for item_pos, item in enumerate(group):
                if not isinstance(item, str):
                    raise DocumentParseError(f"{where} persona {pos} item {item_pos} must be a string")
            gold.extend(group)
        return {"turns": turns, "gold_memory": gold}

    sessions = []
    for k, prev in enumerate(expect(obj.get("previous_dialogs"), list, "previous_dialogs"), start=1):
        prev = expect(prev, dict, f"episode {episode_id!r}: previous_dialogs entry {k - 1}")
        sessions.append(convert_session(k, prev.get("dialog"), prev.get("personas")))
    sessions.append(convert_session(len(sessions) + 1, obj.get("dialog"), obj.get("personas")))
    return parse_episode({"episode_id": episode_id, "sessions": sessions})
