"""Line-oriented ``key = value`` config files with [section] headers, and the
typed configs read from them.

Grammar, one construct per line:

    # comment (also ;) ........ ignored, as are blank lines
    [section-name] ............ starts a section
    key = value ............... entry in the current section (value is the
                                text after the first '=', stripped)

Keys must appear inside a section.  Parsing preserves order; serialize()
emits the canonical form, and parse(serialize(parse(text))) == parse(text).

Typed configs are dataclasses, one section each.  read(base, sections, name)
returns ``base`` with section ``name`` applied, one key per field; echo(cfg,
name) is its inverse, read(base, echo(cfg, name), name) == cfg, which lets a
manifest replay its run.  A field that is itself a dataclass has its own
section, named after the field: TrainConfig reads [train], [weights] and
[probe].  A key that names no field is rejected, so a misspelt key cannot
leave a default in place.  One table parses and formats values by field type.

A field declares its range in its type, ``batch_size: Annotated[int,
POSITIVE]``; making a config that subclasses ``Checked`` runs ``check``,
which raises ValueError reading ``field = value phrase`` (``batch_size = 0
must be positive``).  On a tuple field a rule tests each entry (NONEMPTY and
DISTINCT the tuple) and reads ``field entry v phrase`` (``seeds entry -1 must
be >= 0``), or ``field phrase`` for an empty tuple (``seeds is empty``).
Every rule's test is False at NaN.  read() puts the section in front:
``[probe] mask_size = 0 must be at least 1``.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import typing
from collections.abc import Sequence
from typing import Callable, NamedTuple


class ConfigError(ValueError):
    """Malformed config text or unusable values."""


def parse(text: str) -> dict[str, dict[str, str]]:
    sections: dict[str, dict[str, str]] = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#") or line.startswith(";"):
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip()
            if not current:
                raise ConfigError(f"line {lineno}: empty section name")
            sections.setdefault(current, {})
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        if current is None:
            raise ConfigError(f"line {lineno}: entry before any [section]")
        key, _, value = line.partition("=")
        sections[current][key.strip()] = value.strip()
    return sections


def serialize(sections: dict[str, dict[str, str]]) -> str:
    lines = []
    for name, entries in sections.items():
        lines.append(f"[{name}]")
        for key, value in entries.items():
            lines.append(f"{key} = {value}")
        lines.append("")
    return "\n".join(lines)


def load(path) -> dict[str, dict[str, str]]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse(fh.read())


def save(sections, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize(sections))


def parse_entries(path, sections, name: str, parsers: dict) -> dict:
    """{key: parser(value)} for each key of ``parsers`` in section ``name`` of
    ``sections``, loaded from the file at path; a missing section or entry, or
    a value its parser rejects, raises ConfigError naming the file and entry."""
    entries = sections.get(name)
    if entries is None:
        raise ConfigError(f"{path}: missing [{name}] section")
    values = {}
    for key, parser in parsers.items():
        if key not in entries:
            raise ConfigError(f"{path}: missing [{name}] entry {key!r}")
        try:
            values[key] = parser(entries[key])
        except ValueError as exc:
            raise ConfigError(f"{path}: [{name}] {key} = {entries[key]!r}: {exc}") from None
    return values


def _parse_bool(raw: str) -> bool:
    low = raw.lower()
    if low in ("true", "yes", "1", "on"):
        return True
    if low in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def _split(raw: str, cast) -> tuple:
    return tuple(cast(v) for v in raw.split(",")) if raw else ()


def format_float(v: float) -> str:
    """17 significant digits, which every double parses back from unchanged."""
    return format(v, ".17g")


# field type -> (parse the text of a value, format a value as text)
_CODECS = {
    int: (int, str),
    int | None: (lambda raw: int(raw) if raw else None,
                 lambda v: "" if v is None else str(v)),
    float: (float, format_float),
    str: (str, str),
    bool: (_parse_bool, lambda v: str(v).lower()),
    tuple[int, ...]: (lambda raw: _split(raw, int), lambda v: ",".join(map(str, v))),
    tuple[str, ...]: (lambda raw: _split(raw, str), ",".join),
}


class Rule(NamedTuple):
    """A range a field declares: ``test`` is True for a value inside it and
    False at NaN; ``phrase`` ends the message for a value outside it.  A
    ``whole`` rule tests a tuple field's value, not its entries."""
    test: Callable[[object], bool]
    phrase: str
    whole: bool = False


POSITIVE = Rule(lambda v: v > 0, "must be positive")
NON_NEGATIVE = Rule(lambda v: v >= 0, "must be >= 0")
FINITE = Rule(math.isfinite, "must be finite")
NONEMPTY = Rule(lambda t: isinstance(t, tuple) and len(t) > 0, "is empty", True)
DISTINCT = Rule(lambda t: isinstance(t, tuple) and len(set(t)) == len(t), "is repeated", True)


def at_least(n) -> Rule:
    return Rule(lambda v: v >= n, f"must be at least {n}")


@functools.cache
def _fields(cls) -> tuple[tuple[str, type, tuple[Rule, ...]], ...]:
    """(name, bare type, declared rules) a field, cached: q_probe_samples makes a ProbeSpec."""
    kinds, hints = typing.get_type_hints(cls), typing.get_type_hints(cls, include_extras=True)
    return tuple((f.name, kinds[f.name], getattr(hints[f.name], "__metadata__", ()))
                 for f in dataclasses.fields(cls))


def check(cfg) -> None:
    """Raise ValueError naming the first field of ``cfg`` outside a rule its
    type declares; a field left None, an optional value unset, has no range."""
    for name, _, rules in _fields(type(cfg)):
        value = getattr(cfg, name)
        for rule in rules if value is not None else ():
            if isinstance(value, tuple):
                # a whole rule blames the entry that ends the shortest prefix breaking it
                for i, v in enumerate(value):
                    if not rule.test(value[:i + 1] if rule.whole else v):
                        raise ValueError(f"{name} entry {v!r} {rule.phrase}")
                if rule.whole and not rule.test(value):   # no entry to blame: ()
                    raise ValueError(f"{name} {rule.phrase}")
            elif not rule.test(value):
                raise ValueError(f"{name} = {value!r} {rule.phrase}")


class Checked:
    """Base of the typed configs: making one turns a list, other sequence or
    1-D numpy array given for a tuple field into its tuple, rejects any other
    value there, a str included, then checks every declared range.  A config
    with checks across fields runs them after ``super().__post_init__()``."""
    def __post_init__(self):
        for name, kind, _ in _fields(type(self)):
            value = getattr(self, name)
            if typing.get_origin(kind) is tuple and not isinstance(value, tuple):
                value = value.tolist() if getattr(value, "ndim", None) == 1 else value
                if isinstance(value, str) or not isinstance(value, Sequence):
                    raise ValueError(f"{name} = {value!r} must be a tuple")
                setattr(self, name, tuple(value))
        check(self)


def read(base, sections, name: str):
    """``base`` with the entries of section ``name`` applied, field by field.

    Raises ConfigError for the keys that name no field, every one of them
    in one error, a value its field's type cannot parse, or a value the
    dataclass's own checks reject, with the section in front.
    """
    entries = sections.get(name, {})
    fields = _fields(type(base))
    known = [key for key, kind, _ in fields if not dataclasses.is_dataclass(kind)]
    unknown = [f"unknown key {key!r}" for key in entries if key not in known]
    if unknown:   # all named at once, before any nested section is read
        raise ConfigError(f"[{name}] {', '.join(unknown)}; "
                          f"known keys: {', '.join(known)}")
    changes = {}
    for key, kind, _ in fields:
        if dataclasses.is_dataclass(kind):
            changes[key] = read(getattr(base, key), sections, key)
        elif key in entries:
            raw = entries[key]
            try:
                changes[key] = _CODECS[kind][0](raw)
            except ValueError as exc:
                raise ConfigError(f"[{name}] {key} = {raw!r}: {exc}") from None
    try:   # a nested section's error was raised above, naming its section
        return dataclasses.replace(base, **changes)
    except ValueError as exc:
        raise ConfigError(f"[{name}] {exc}") from None


def echo(cfg, name: str) -> dict[str, dict[str, str]]:
    """The config-file sections that read() turns back into ``cfg``."""
    sections = {name: {}}
    for key, kind, _ in _fields(type(cfg)):
        value = getattr(cfg, key)
        if dataclasses.is_dataclass(kind):
            sections.update(echo(value, key))
        else:
            sections[name][key] = _CODECS[kind][1](value)
    return sections
