"""Loader for the versioned prompt templates shipped with the package.

Templates live in prompts/<name>.txt. A template is split into chat messages
by `[system]` / `[user]` / `[assistant]` marker lines; everything below a
marker is that message's content, with `{placeholder}` fields filled at
render time. Keeping the text in data files makes prompt changes visible in
diffs and lets tests pin exact bytes.
"""

from __future__ import annotations

from functools import lru_cache
from importlib import resources

from .errors import DocumentParseError, NotFoundError

_ROLE_MARKERS = {"[system]": "system", "[user]": "user", "[assistant]": "assistant"}
_TEMPLATES = resources.files(__package__).joinpath("prompts")


@lru_cache(maxsize=None)
def template_names() -> frozenset[str]:
    """Stems of the files in prompts/: the only names `load_template` accepts."""
    return frozenset(ref.name.removesuffix(".txt") for ref in _TEMPLATES.iterdir()
                     if ref.name.endswith(".txt"))


@lru_cache(maxsize=None)
def load_template(name: str) -> str:
    """Raw text of prompts/<name>.txt, byte for byte; a path is no template name."""
    if name not in template_names():
        raise NotFoundError(f"no prompt template named {name!r}")
    return _TEMPLATES.joinpath(name + ".txt").read_text(encoding="utf-8")


def split_messages(template_text: str) -> list[dict]:
    """Split template text into [{role, content}] on the role marker lines."""
    messages: list[dict] = []
    role = None
    lines: list[str] = []
    for line in template_text.splitlines():
        marker = _ROLE_MARKERS.get(line.strip())
        if marker is not None:
            if role is not None:
                messages.append({"role": role, "content": "\n".join(lines).strip("\n")})
            role = marker
            lines = []
        elif role is not None:
            lines.append(line)
        elif line.strip():
            raise DocumentParseError("template text precedes the first role marker")
    if role is not None:
        messages.append({"role": role, "content": "\n".join(lines).strip("\n")})
    if not messages:
        raise DocumentParseError("template contains no role markers")
    return messages


def render_messages(name: str, **fields) -> list[dict]:
    """Load a template and fill its placeholders; returns a chat message list."""
    rendered = []
    for message in split_messages(load_template(name)):
        try:
            content = message["content"].format(**fields)
        except (KeyError, IndexError) as exc:
            raise DocumentParseError(f"template {name!r} placeholder not provided: {exc}") from exc
        rendered.append({"role": message["role"], "content": content})
    return rendered
