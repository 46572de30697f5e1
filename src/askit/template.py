"""Prompt templates with {{identifier}} placeholders.

A template is task text where ``{{name}}`` marks a parameter. Substitution
never inlines values into the task sentence; parameter names are quoted in
place and the bound values are appended in a trailing ``where`` clause, which
keeps the sentence stable across calls.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping

from .encoding import canonical_json
from .errors import InvalidIdentifier, MalformedPlaceholder, UnboundParameter, UnknownParameter
from .types import IDENT_RE

ArgBinding = Mapping[str, Any]


@dataclass(frozen=True)
class PromptTemplate:
    raw: str
    params: tuple[str, ...]
    quoted: str  # the task text with each placeholder reduced to its quoted name


def parse(text: str) -> PromptTemplate:
    """Parse template text.

    The same name may appear several times; `params` holds each name once in
    first-occurrence order. Unmatched ``{{``/``}}`` raise MalformedPlaceholder
    (there is no escape for literal double braces), non-identifier contents
    raise InvalidIdentifier.
    """
    parts: list[str] = []
    params: list[str] = []
    pos = 0
    while pos < len(text):
        open_at = text.find("{{", pos)
        close_at = text.find("}}", pos)
        if open_at == -1 and close_at == -1:
            parts.append(text[pos:])
            break
        if open_at == -1 or (close_at != -1 and close_at < open_at):
            raise MalformedPlaceholder(f"unmatched '}}}}' at offset {close_at}")
        end = text.find("}}", open_at + 2)
        if end == -1:
            raise MalformedPlaceholder(f"unmatched '{{{{' at offset {open_at}")
        name = text[open_at + 2 : end]
        if not IDENT_RE.match(name):
            raise InvalidIdentifier(f"placeholder {name!r} is not a valid identifier")
        parts.append(f"{text[pos:open_at]}'{name}'")
        if name not in params:
            params.append(name)
        pos = end + 2
    return PromptTemplate(raw=text, params=tuple(params), quoted="".join(parts))


def _check_binding(template: PromptTemplate, args: ArgBinding) -> None:
    declared = set(template.params)
    for name in template.params:
        if name not in args:
            raise UnboundParameter(f"template parameter {name!r} is not bound")
    for name in args:
        if name not in declared:
            raise UnknownParameter(f"argument {name!r} is not a template parameter")


def substitute_direct(template: PromptTemplate, args: ArgBinding) -> str:
    """Quote parameter names in place and append the where-clause of values.

    Values are encoded as compact JSON (text double-quoted, numbers bare,
    booleans true/false). Zero-parameter templates return the raw text.
    """
    _check_binding(template, args)
    if not template.params:
        return template.quoted
    bound = ", ".join(f"'{name}' = {canonical_json(args[name])}" for name in template.params)
    return f"{template.quoted}\nwhere {bound}"


def substitute_comment(template: PromptTemplate) -> str:
    """Task text with placeholders reduced to quoted names, no where-clause."""
    return template.quoted
