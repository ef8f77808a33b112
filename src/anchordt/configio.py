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
"""

from __future__ import annotations

import dataclasses
import typing

import numpy as np


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


def format_matrix(a) -> str:
    return ";".join(",".join(map(format_float, row)) for row in a)


def parse_matrix(raw: str) -> np.ndarray:
    return np.array([_split(row, float) for row in raw.split(";")])


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
    np.ndarray: (parse_matrix, format_matrix),
}


def _fields(cls) -> list[tuple[str, type]]:
    hints = typing.get_type_hints(cls)
    return [(f.name, hints[f.name]) for f in dataclasses.fields(cls)]


def read(base, sections, name: str):
    """``base`` with the entries of section ``name`` applied, field by field.

    Raises ConfigError for a key that names no field or a value its field's
    type cannot parse; the dataclass's own checks raise ValueError.
    """
    entries = sections.get(name, {})
    fields = _fields(type(base))
    known = [key for key, kind in fields if not dataclasses.is_dataclass(kind)]
    for key in entries:   # named before any nested section is read
        if key not in known:
            raise ConfigError(f"[{name}] unknown key {key!r}; "
                              f"known keys: {', '.join(known)}")
    changes = {}
    for key, kind in fields:
        if dataclasses.is_dataclass(kind):
            changes[key] = read(getattr(base, key), sections, key)
        elif key in entries:
            raw = entries[key]
            try:
                changes[key] = _CODECS[kind][0](raw)
            except ValueError as exc:
                raise ConfigError(f"[{name}] {key} = {raw!r}: {exc}") from None
    return dataclasses.replace(base, **changes)


def echo(cfg, name: str) -> dict[str, dict[str, str]]:
    """The config-file sections that read() turns back into ``cfg``."""
    sections = {name: {}}
    for key, kind in _fields(type(cfg)):
        value = getattr(cfg, key)
        if dataclasses.is_dataclass(kind):
            sections.update(echo(value, key))
        else:
            sections[name][key] = _CODECS[kind][1](value)
    return sections
