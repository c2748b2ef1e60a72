"""Synthetic episode generators for offline benchmarks, demos, and tests.

The planted-fact episode is the standard cross-session retrieval probe: a
unique token ("zephyrite") appears in exactly one session-1 turn, and the
final user turn asks for it. A current-session-only context can never
contain it; a whole-history walk can. Filler turns are drawn from fixed
pools with a seeded generator, so each seed gives one reproducible episode.
"""

from __future__ import annotations

import random

from .episodes import DialogueTurn, Episode, Session

PLANTED_FACT = "I keep a tiny zephyrite crystal on my desk at work."
PLANTED_TOKEN = "zephyrite"
PLANTED_QUERY = "Which crystal do I keep on my desk?"
PLANTED_REFERENCE = "You keep a tiny zephyrite crystal on your desk."

# None of the filler lines may mention the planted fact's subject.
_USER_FILLER = [
    "I went hiking along the river trail this morning.",
    "My sister is visiting next weekend.",
    "I finally finished reading that mystery novel.",
    "Work has been busy with the quarterly report.",
    "I tried a new pasta recipe last night.",
    "The garden tomatoes are ripening nicely.",
    "I signed up for a pottery class.",
    "We watched an old western movie yesterday.",
    "My neighbor adopted a retired racing dog.",
    "I fixed the squeaky hinge on the back gate.",
    "The farmers market had fresh peaches today.",
    "I am repainting the hallway this week.",
]

_ASSISTANT_FILLER = [
    "That sounds like a good way to spend the morning.",
    "I hope the visit goes well.",
    "Glad you enjoyed the ending.",
    "Busy stretches like that can be tiring.",
    "New recipes are always worth a try.",
    "Fresh tomatoes are hard to beat.",
    "Learning a craft is rewarding.",
    "Classic films hold up surprisingly well.",
    "That dog found a good home.",
    "Small repairs are satisfying.",
    "Peaches this time of year are wonderful.",
    "A fresh coat of paint changes a room.",
]


def planted_fact_episode(seed: int = 0, episode_id: str = "planted-fact") -> Episode:
    """Three sessions, eight turns each; see the module docstring."""
    rng = random.Random(seed)
    user_lines = rng.sample(_USER_FILLER, len(_USER_FILLER))
    assistant_lines = rng.sample(_ASSISTANT_FILLER, len(_ASSISTANT_FILLER))

    def take(lines: list[str]) -> str:
        return lines.pop()

    sessions = []
    for number in (1, 2, 3):
        turns = []
        for turn_index in range(8):
            speaker = "user" if turn_index % 2 == 0 else "assistant"
            if number == 1 and turn_index == 2:
                text = PLANTED_FACT
            elif number == 1 and turn_index == 3:
                text = "That sounds like a charming little keepsake."
            elif number == 3 and turn_index == 6:
                text = PLANTED_QUERY
            elif number == 3 and turn_index == 7:
                text = PLANTED_REFERENCE
            else:
                text = take(user_lines if speaker == "user" else assistant_lines)
            turns.append(DialogueTurn(speaker=speaker, text=text,
                                      session=number, turn_index=turn_index))
        gold = []
        if number == 1:
            gold = ["The user keeps a tiny zephyrite crystal on their desk at work."]
        elif number == 2:
            gold = ["The user and assistant talked about everyday plans and hobbies."]
        sessions.append(Session(number=number, turns=turns, gold_memory=gold))
    return Episode(episode_id=f"{episode_id}-{seed:03d}", sessions=sessions)


def planted_fact_episodes(count: int = 3) -> list[Episode]:
    return [planted_fact_episode(seed) for seed in range(count)]
