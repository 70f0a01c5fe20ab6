"""Experiment configuration: nested JSON files plus dotted-path overrides."""

from __future__ import annotations

import copy
import json


class ConfigError(Exception):
    pass


class Config:
    """Immutable-by-convention nested configuration.

    Values live in a plain nested dict; lookup uses dotted paths
    (``config.get("model.name")``). Missing required keys raise rather
    than silently defaulting. Every path looked up is recorded, so
    ``unread`` can name the keys that nothing read.
    """

    def __init__(self, values: dict | None = None):
        self._values = copy.deepcopy(values) if values else {}
        self._read: set[str] = set()

    def get(self, path: str, default=None, *, required=False, within=None):
        """The value at ``path``, or ``default`` where it is missing. Refused:
        a non-map above ``path``; a value not of its default's kind
        (``_misfit``), where a read with no default, ``require`` among them,
        takes any; and a number, or a list element, outside the interval
        ``within`` as the error prints it (``"[0, 1)"``, ``"[1, inf)"``)."""
        self._read.add(path)
        node = self._values
        parts = path.split(".")
        for i, part in enumerate(parts):
            if not isinstance(node, dict):
                raise ConfigError(f"config key {'.'.join(parts[:i])!r} must be a JSON map "
                                  f"to hold {path!r}, got {node!r}")
            if part not in node:
                if required:
                    raise ConfigError(f"missing config key {'.'.join(parts[:i + 1])!r}")
                return default
            node = node[part]
        kind = _misfit(node, default)
        if kind:
            raise ConfigError(f"config key {path!r} must be {kind}, got {node!r}")
        values = node if isinstance(node, list) else [node]
        bad = [v for v in values if _outside(v, within)] if within else []
        if bad:
            got = f"{bad[0]!r} in {node!r}" if isinstance(node, list) else repr(node)
            raise ConfigError(f"config key {path!r} must be in {within}, got {got}")
        return copy.deepcopy(node) if isinstance(node, (dict, list)) else node

    def require(self, path: str):
        return self.get(path, required=True)

    def to_dict(self) -> dict:
        return copy.deepcopy(self._values)

    def with_defaults(self, defaults: dict) -> Config:
        """A copy with every key of ``defaults`` that this config lacks
        added after its own keys; the values and key order here win."""
        def fill(values, extra):
            for key, value in extra.items():
                if key not in values:
                    values[key] = value
                elif isinstance(values[key], dict) and isinstance(value, dict):
                    fill(values[key], value)
            return values

        return Config(fill(self.to_dict(), defaults))

    def leaves(self):
        """Yield ``(dotted path, value)`` of every leaf key in key order;
        an empty map is a leaf."""
        def walk(node, prefix):
            for key, value in node.items():
                if isinstance(value, dict) and value:
                    yield from walk(value, f"{prefix}{key}.")
                else:
                    yield prefix + key, value

        return walk(self._values, "")

    def unread(self) -> list[str]:
        """Dotted paths of the leaf keys that no ``get`` has read (nor
        any map above them), in key order. An empty map also counts as
        read when a path below it was looked up."""
        def read(path):
            parts = path.split(".")
            return any(".".join(parts[:i]) in self._read
                       for i in range(1, len(parts) + 1))

        def read_below(path):
            return any(r.startswith(path + ".") for r in self._read)

        return [path for path, value in self.leaves()
                if not read(path) and not (value == {} and read_below(path))]

    def __eq__(self, other):
        return isinstance(other, Config) and self._values == other._values

    def __repr__(self):
        return f"Config({self._values!r})"


def load_config(path: str) -> Config:
    """Load a JSON config file; parse errors carry line/column."""
    try:
        with open(path) as f:
            text = f.read()
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except (OSError, UnicodeDecodeError) as e:
        raise ConfigError(f"cannot read config file {path}: {e}") from None
    if not text.strip():
        return Config({})
    try:
        values = _loads(text, path)
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path}:{e.lineno}:{e.colno}: {e.msg}") from None
    if not isinstance(values, dict):
        raise ConfigError(f"{path}: top level must be an object")
    return Config(values)


def _loads(text: str, where: str):
    """``text`` parsed as JSON, refusing a map that repeats a key (which
    ``json.loads`` would let the last value win) with a ``ConfigError``
    naming the key and ``where`` the text came from."""
    def unique(pairs):
        out = {}
        for key, value in pairs:
            if key in out:
                raise ConfigError(f"{where}: duplicate key {key!r}")
            out[key] = value
        return out

    return json.loads(text, object_pairs_hook=unique)


def dumps(config: Config) -> str:
    return json.dumps(config.to_dict(), indent=2, sort_keys=True)


_BOOLS = {"true": True, "1": True, "false": False, "0": False}
# The kinds of config values, by the type of a default or of an override's
# leaf: each kind's name and how an override's text is read for it. A
# value must be of its default's kind, but an int also fits a float
# default; a bool fits only a bool, and a null nothing. A list's
# elements must be of the kind of the default's first. A parser of None
# reads JSON (``_loads``).
_KINDS = {bool: ("a bool", lambda t: _BOOLS.get(t.lower(), t)), int: ("an int", int),
          float: ("a number", float), str: ("a string", str),
          list: ("a JSON list", None), dict: ("a JSON map", None)}


def _misfit(value, default) -> str | None:
    """``default``'s kind if ``value`` is not of it; a None default takes
    any, and each element of a list must be of its default's first one's."""
    want, got = type(default), type(value)
    if default is None or (want is float and got is int):
        return None
    if got is not want:
        return _KINDS[want][0]
    inner = [_misfit(v, default[0]) for v in value] if want is list and default else []
    return next((f"a JSON list with each element {k}" for k in inner if k), None)


def _outside(value, within: str) -> bool:
    """Whether the number ``value`` lies outside the interval ``within``,
    e.g. ``"[0, 1)"``; NaN lies outside every one."""
    lo, hi = (float(end) for end in within[1:-1].split(","))
    return not ((lo <= value if within[0] == "[" else lo < value)
                and (value <= hi if within[-1] == "]" else value < hi))


def _parse_value(text: str, existing, where: str):
    """Read an override's text as ``_KINDS`` says for the existing leaf, as
    JSON for a new key or a null; text that does not parse stays text,
    which ``override`` then refuses unless it fits the leaf's kind. JSON
    that repeats a key is refused, naming ``where``."""
    parse = _KINDS.get(type(existing), (None, None))[1]
    try:
        return parse(text) if parse else _loads(text, where)
    except ValueError:
        return text


def override(config: Config, assignments: list[str]) -> Config:
    """Apply ``dotted.key=value`` assignments, returning a new Config.

    A plain key must already exist; prefix with ``+`` to create one.
    A value must fit its leaf's kind, as one must fit its default in
    ``Config.get``; a plain key refuses a non-map over a map and a map
    over a leaf, and ``+`` replaces either.
    """
    values = config.to_dict()
    for item in assignments:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form key=value")
        key, text = item.split("=", 1)
        create = key.startswith("+")
        if create:
            key = key[1:]
        parts = key.split(".")
        node = values
        for part in parts[:-1]:
            if part not in node:
                if not create:
                    raise ConfigError(f"unknown config key {key!r} (use +{key}= to create)")
                node[part] = {}
            node = node[part]
            if not isinstance(node, dict):
                raise ConfigError(f"config key {key!r} traverses a non-map value")
        leaf = parts[-1]
        if leaf not in node and not create:
            raise ConfigError(f"unknown config key {key!r} (use +{key}= to create)")
        existing = node.get(leaf)
        value = _parse_value(text, existing, f"override {item!r}")
        kind = None if isinstance(existing, dict) else _misfit(value, existing)
        if kind:
            raise ConfigError(f"config key {key!r}: cannot parse {text!r} as {kind}")
        if not create and isinstance(existing, dict) != isinstance(value, dict):
            what = "a leaf with a map" if isinstance(value, dict) else "a map with a non-map"
            raise ConfigError(f"config key {key!r}: an override cannot replace {what} "
                              f"(use +{key}= to replace it)")
        node[leaf] = value
    return Config(values)
