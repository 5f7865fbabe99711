"""Config files and the one write path and JSON reader of every artifact.

Flat key=value config files are shared by the model, trainer, and generator.
Syntax: one `key = value` per line; blank lines and `#` comments ignored;
`include <path>` splices another file (relative to the including file), with
later assignments overriding earlier ones.

Every file the package writes goes through `atomic_open` (JSON through
`write_json`): it is written beside its target and renamed into place, so a
failed write leaves the previous file as it was. Every JSON file is read
through `read_json`, whose errors name `file:line:col`, and every text file
the program is given is opened with `open_text`, whose decoding errors name
`file:line`.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import math
import os
import typing


@contextlib.contextmanager
def atomic_open(path: str, mode: str = "w", **kw):
    """Open `path + ".tmp"` for writing and `os.replace` it onto `path` when
    the block succeeds; on any exception the temp file is deleted and `path`
    is untouched. Text mode defaults to UTF-8."""
    if "b" not in mode:
        kw.setdefault("encoding", "utf-8")
    tmp = path + ".tmp"
    try:
        with open(tmp, mode, **kw) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def write_json(path: str, doc, indent: int = 1) -> None:
    """Key-sorted JSON plus a final newline, written atomically."""
    with atomic_open(path) as fh:
        json.dump(doc, fh, indent=indent, sort_keys=True)
        fh.write("\n")


@contextlib.contextmanager
def open_text(path: str, newline: str | None = None):
    """Open a text file the program is given, for reading as UTF-8. A byte
    that is not UTF-8 fails as `path:line: not UTF-8 text`; only then is the
    file read again, as bytes, to find that line."""
    with open(path, encoding="utf-8", newline=newline) as fh:
        try:
            yield fh
        except UnicodeDecodeError:
            with open(path, "rb") as raw:
                data = raw.read()
            try:
                data.decode("utf-8")
            except UnicodeDecodeError as exc:
                line = len((data[:exc.start] + b".").splitlines())
                raise ValueError(f"{path}:{line}: not UTF-8 text") from None
            raise


def read_json(path: str):
    with open_text(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from None


class _Located(str):
    """A config value that remembers the `file:line` it was read from, so
    that `_coerce` can name it."""

    def __new__(cls, value: str, where: str):
        self = super().__new__(cls, value)
        self.where = where
        return self


def _parse(lines, source: str, include=None) -> dict[str, str]:
    """The line loop of both readers. `include(target, lineno)` returns the
    mapping an `include` line splices in; without it such a line is an
    error like any other line without '='. Each value is a `_Located`
    string at `source:lineno`."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if include is not None and (line.startswith("include ") or line.startswith("include\t")):
            out.update(include(line.split(None, 1)[1].strip(), lineno))
            continue
        if "=" not in line:
            raise ValueError(f"{source}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        out[key.strip()] = _Located(value.strip(), f"{source}:{lineno}")
    return out


def parse_flat_config(text: str, source: str = "<config>") -> dict[str, str]:
    return _parse(text.splitlines(), source)


def load_config_file(path: str) -> dict[str, str]:
    return _load(path, ())


def _load(path: str, chain: tuple[str, ...]) -> dict[str, str]:
    """`chain` lists the files whose includes led to `path`, outermost first."""
    chain = chain + (path,)

    def include(target: str, lineno: int) -> dict[str, str]:
        full = os.path.join(os.path.dirname(path), target)
        if any(os.path.realpath(full) == os.path.realpath(p) for p in chain):
            raise ValueError(f"{path}:{lineno}: include cycle: {' -> '.join(chain + (full,))}")
        if not os.path.isfile(full):
            raise ValueError(f"{path}:{lineno}: included file {full} does not exist")
        return _load(full, chain)

    with open_text(path) as fh:
        return _parse(fh.read().splitlines(), path, include)


def _coerce(value: str, typ, key: str):
    """`value` as `typ`; an error names the value's `file:line` when it was
    read from a file."""
    at = f"{value.where}: " if isinstance(value, _Located) else ""
    origin = typing.get_origin(typ)
    if origin is tuple:
        items = [v.strip() for v in value.split(",") if v.strip()]
        return tuple(items)
    try:
        if typ is int:
            return int(value)
        if typ is not float:
            return str(value)
        number = float(value)
    except ValueError:
        raise ValueError(f"{at}config key {key!r}: cannot parse {typ.__name__} from {value!r}") from None
    if not math.isfinite(number):
        raise ValueError(f"{at}config key {key!r}: float must be finite, got {value!r}")
    return number


def dataclass_from_mapping(cls, mapping: dict[str, str], source: str = "config"):
    """Build a config dataclass from string key=value pairs.

    Unknown keys are an error (typos must not silently fall back to defaults).
    """
    by_name = {f.name: f for f in dataclasses.fields(cls)}
    unknown = sorted(set(mapping) - set(by_name))
    if unknown:
        raise ValueError(
            f"{source}: unknown keys {unknown}; valid keys: {sorted(by_name)}"
        )
    kwargs = {}
    hints = typing.get_type_hints(cls)
    for key, value in mapping.items():
        kwargs[key] = _coerce(value, hints[key.strip()], key)
    try:
        return cls(**kwargs)
    except ValueError as exc:
        # a check names the key it rejects first; a key given on the command
        # line has no file to name
        named = mapping.get(str(exc).partition(" ")[0])
        if isinstance(named, _Located):
            raise ValueError(f"{named.where}: {exc}") from None
        if named is None and any(isinstance(v, _Located) for v in mapping.values()):
            raise ValueError(f"{source}: {exc}") from None
        raise


def dataclass_to_text(obj) -> str:
    lines = []
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if isinstance(value, tuple):
            value = ",".join(value)
        lines.append(f"{f.name} = {value}")
    return "\n".join(lines) + "\n"
