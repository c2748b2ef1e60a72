"""Seeded input generators for the benchmark workloads.

MSC, the paper's dataset, is not in the repository, so seeded synthetic
conversations stand in for it. Every generator takes the benchmark's seed and
returns plain data; the program only ever sees the generated turns. The same
seed gives the same inputs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

# Nouns a planted fact can be about. No filler line below uses any of them,
# nor the word "nickname", so a passage covers a fact query only when it
# holds that fact (or a reply that quoted it).
NOUNS = """
cat dog parrot hamster goldfish tortoise rabbit ferret pony canary
bicycle kayak canoe sailboat scooter motorbike tractor jeep van truck
guitar violin cello banjo ukulele trumpet flute drum harp piano
laptop camera telescope kettle toaster blender lamp clock radio printer
cactus fern bonsai orchid tulip sunflower ivy maple willow oak
backpack umbrella wallet helmet scarf jacket boots hat glove mug
""".split()

USER_FILLER = [
    "I went hiking along the river trail this morning.",
    "My sister is visiting next weekend.",
    "I finally finished reading that mystery novel.",
    "Work has been busy with the quarterly report.",
    "I tried a new pasta recipe last night.",
    "The garden tomatoes are ripening nicely.",
    "I signed up for a pottery class.",
    "We watched an old western movie yesterday.",
    "I fixed the squeaky hinge on the back gate.",
    "The farmers market had fresh peaches today.",
    "I am repainting the hallway this week.",
    "My cousin started a new job downtown.",
    "The neighborhood held a street party on Saturday.",
    "I have been learning to bake sourdough bread.",
    "Traffic on the bridge was terrible today.",
    "We are planning a trip to the coast in spring.",
    "I spent the evening sorting old photographs.",
    "The library extended its opening hours.",
    "I started running in the park before breakfast.",
    "Our team won the trivia night at the pub.",
    "I rearranged the furniture in the living room.",
    "The weather turned cold and rainy again.",
    "I volunteered at the food bank on Sunday.",
    "My friend recommended a podcast about history.",
]

ASSISTANT_FILLER = [
    "That sounds like a good way to spend the morning.",
    "I hope the visit goes well.",
    "Glad you enjoyed the ending.",
    "Busy stretches like that can be tiring.",
    "New recipes are always worth a try.",
    "Fresh tomatoes are hard to beat.",
    "Learning a craft is rewarding.",
    "Classic films hold up surprisingly well.",
    "Small repairs are satisfying.",
    "Peaches this time of year are wonderful.",
    "A fresh coat of paint changes a room.",
    "Congratulations to your cousin.",
    "Street parties are a great way to meet people.",
    "Sourdough takes patience but it pays off.",
    "Slow traffic can ruin a whole afternoon.",
    "The coast is lovely in spring.",
    "Old photographs bring back memories.",
    "Longer hours make the library easier to visit.",
    "Morning runs are a great habit.",
    "Well done on the trivia win.",
]

_SYLLABLES = "ka zo ri mu te vel qua dor bix nin sul pra gho lem fen tiv orb yan".split()

PLANT_SHARE = 0.08
QUERY_SHARE = 0.25


@dataclass(frozen=True)
class ChatMessage:
    """One user message of the chat stream; a plant or query names its fact."""

    kind: str  # "plant", "query" or "filler"
    text: str
    noun: Optional[str] = None
    token: Optional[str] = None

    @property
    def reference(self) -> str:
        return f"Your {self.noun} nickname is {self.token}"


def _fresh_token(rng: random.Random, used: set[str]) -> str:
    while True:
        token = "".join(rng.choice(_SYLLABLES) for _ in range(3))
        if token not in used and token not in NOUNS:
            used.add(token)
            return token


def chat_stream(seed: int, ops: int) -> list[ChatMessage]:
    """User messages of one growing conversation.

    About 8% plant a fact ("My <noun> nickname is <token>") with a noun and a
    token used by no other fact. About 25% ask for a fact planted earlier,
    chosen uniformly, so some queries are old and some recent. The rest are
    filler. Plants stop once every noun is used.
    """
    rng = random.Random(seed)
    nouns = rng.sample(NOUNS, len(NOUNS))
    used: set[str] = set()
    planted: list[tuple[str, str]] = []
    stream = []
    for _ in range(ops):
        draw = rng.random()
        if draw < PLANT_SHARE and nouns:
            noun = nouns.pop()
            token = _fresh_token(rng, used)
            planted.append((noun, token))
            stream.append(ChatMessage("plant", f"My {noun} nickname is {token}.", noun, token))
        elif draw < PLANT_SHARE + QUERY_SHARE and planted:
            noun, token = rng.choice(planted)
            stream.append(ChatMessage("query", f"What is my {noun} nickname?", noun, token))
        else:
            stream.append(ChatMessage("filler", rng.choice(USER_FILLER)))
    return stream


def _turn_text(rng: random.Random, speaker: str) -> str:
    return rng.choice(USER_FILLER if speaker == "user" else ASSISTANT_FILLER)


def persona_corpus(seed: int, episodes: int, sessions: int, turns: int) -> list[list[list[tuple]]]:
    """Episodes of sessions of (speaker, text, session, turn_index) tuples.

    Speakers alternate from the user. Session numbers count from 1 within an
    episode, as `hatmem.parse_episode` numbers them.
    """
    rng = random.Random(seed)
    corpus = []
    for _ in range(episodes):
        episode = []
        for number in range(1, sessions + 1):
            session = []
            for index in range(turns):
                speaker = "user" if index % 2 == 0 else "assistant"
                session.append((speaker, _turn_text(rng, speaker), number, index))
            episode.append(session)
        corpus.append(episode)
    return corpus


def long_conversation(seed: int, turns: int, session_length: int) -> list[tuple]:
    """One conversation of (speaker, text, session, turn_index) filler turns."""
    rng = random.Random(seed)
    out = []
    for i in range(turns):
        speaker = "user" if i % 2 == 0 else "assistant"
        out.append((speaker, _turn_text(rng, speaker), i // session_length + 1, i % session_length))
    return out
