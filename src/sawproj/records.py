"""Serialization: flat structured-text configs, JSONL/CSV records, caching.

Rationals always travel as "p/q" strings, never as floats; every rational
field in an emitted record is accompanied by a round-to-nearest double under
the same name with an ``_f64`` suffix. Records serialize with sorted keys and
fixed separators so identical runs produce identical bytes.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager, suppress
from fractions import Fraction
from functools import lru_cache, partial
from itertools import takewhile
from math import gcd
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence, TextIO

from .errors import ConfigError, DomainError
from .params import ParameterSet, RefinementRule
from .rational import DEFAULT_SQRT_BITS, format_ratio, format_rational, parse_rational
from .sequences import Functional, SequenceRule

SCHEMA_VERSION = 1


# -- flat config documents ---------------------------------------------------------

# line grammar:  key.path = "string"  |  key.path = 123
def parse_config_text(text: str) -> dict:
    out: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        if value.startswith('"') and value.endswith('"') and len(value) >= 2:
            out[key] = value[1:-1]
        else:
            try:
                out[key] = int(value)
            except ValueError as exc:
                raise ConfigError(
                    f"line {lineno}: value must be an integer or a quoted string"
                ) from exc
    return out


def emit_config_text(doc: dict) -> str:
    lines = []
    for key in sorted(doc):
        value = doc[key]
        if value is None:
            continue
        if isinstance(value, bool):
            raise ConfigError("boolean config values are not supported")
        if isinstance(value, int):
            lines.append(f"{key} = {value}")
        elif isinstance(value, str):
            line = f'{key} = "{value}"'
            # no escapes: text after a line break would read as another key
            if line.splitlines() != [line]:
                raise ConfigError(f"config value for {key!r} contains a line break")
            lines.append(line)
        elif isinstance(value, Fraction):
            lines.append(f'{key} = "{format_rational(value)}"')
        else:
            raise ConfigError(f"unsupported config value type for {key!r}")
    return "\n".join(lines) + "\n"


def _read_text(path: str | Path) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def load_config(path: str | Path) -> dict:
    return parse_config_text(_read_text(path))


def as_int(source: str, value) -> int:
    """The one integer reader for config values and integer settings."""
    try:
        return int(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{source} must be an integer, got {value!r}") from None


def as_frac(source: str, value) -> Fraction:
    """The one rational reader for config values and rational settings."""
    try:
        return parse_rational(str(value))
    except DomainError:
        raise ConfigError(f"{source} must be a rational 'p/q', got {value!r}") from None


class _Codec(NamedTuple):
    read: Callable  # read(source, value); a refused value is a ConfigError naming source
    write: Callable  # the value a written document holds


def _listed(codec: _Codec) -> _Codec:
    """Comma-joined entries of codec; an empty value is the empty list."""
    return _Codec(
        lambda source, value: tuple(
            codec.read(f"each entry of {source}", v) for v in str(value).split(",") if v.strip()
        ),
        lambda values: ",".join(str(codec.write(v)) for v in values),
    )


_INT = _Codec(as_int, lambda value: value)
_TEXT = _Codec(lambda source, value: str(value), _INT.write)
_FRAC = _Codec(as_frac, format_rational)
_REQUIRED = object()


class _Key(NamedTuple):
    """A section's key past its prefix. Absent, a required key is refused and any other
    reads as its default; an optional one (default None) leaves the field at its own
    default instead, and a written document leaves it out while the field holds that."""

    name: str
    codec: object  # a _Codec, or the _Section of the keys under "<name>."
    default: object = _REQUIRED
    field: str = ""  # the field it fills, when not name


class _Section(NamedTuple):
    make: type  # called with the fields its keys read
    keys: object  # a tuple of _Key, or one per value of the section's required "kind" key


_RULE = _Section(SequenceRule, {
    "harmonic": (_Key("a", _FRAC),),
    "inverse_square": (_Key("a", _FRAC),),
    "geometric": (_Key("a", _FRAC), _Key("r", _FRAC)),
    "explicit": (
        _Key("values", _listed(_FRAC), ()), _Key("tail_l1", _FRAC, None),
        _Key("tail_l2sq", _FRAC, None),
    ),
})
_REFINEMENT = _Section(RefinementRule, {
    "linear": (_Key("k", _INT),),
    "constant": (_Key("k", _INT),),
    "explicit": (_Key("values", _listed(_INT), ()),),
})
_PARAMS = _Section(ParameterSet, (
    _Key("alpha", _RULE), _Key("m", _REFINEMENT), _Key("n_max", _INT),
    _Key("sqrt_precision_bits", _INT, DEFAULT_SQRT_BITS, "sqrt_bits"), _Key("model", _TEXT),
))
_FUNCTIONAL = _Section(Functional, (
    _Key("rule", _RULE), _Key("alpha0", _FRAC), _Key("sign", _INT, 1),
    _Key("signs", _listed(_INT), None), _Key("name", _TEXT, None),
))


def _read(doc: dict, prefix: str, section: _Section):
    """section.make of the keys under prefix; a field it rejects is a ConfigError naming
    the section's keys."""
    fields, keys = {}, section.keys
    if isinstance(keys, dict):
        kind = fields["kind"] = doc.get(prefix + "kind")
        if kind is None:
            raise ConfigError(f"missing {prefix}kind")
        if kind not in keys:
            raise ConfigError(f"unknown {prefix}kind {kind!r}")
        keys = keys[kind]
    for key in keys:
        name = prefix + key.name
        if isinstance(key.codec, _Section):
            value = _read(doc, name + ".", key.codec)
        elif name in doc:
            value = key.codec.read(f"config key {name!r}", doc[name])
        elif key.default is _REQUIRED:
            raise ConfigError(f"missing {name}")
        elif key.default is None:
            continue
        else:
            value = key.default
        fields[key.field or key.name] = value
    try:
        return section.make(**fields)
    except DomainError as exc:
        raise ConfigError(f"config keys {prefix}*: {exc}" if prefix else str(exc)) from None


def _write(value, prefix: str, section: _Section) -> dict:
    """The keys _read reads value back from."""
    doc, keys = {}, section.keys
    if isinstance(keys, dict):
        doc[prefix + "kind"] = value.kind
        keys = keys[value.kind]
    for key in keys:
        attr = key.field or key.name
        name, field = prefix + key.name, getattr(value, attr)
        if isinstance(key.codec, _Section):
            doc.update(_write(field, name + ".", key.codec))
        elif key.default is not None or field != value._field_defaults[attr]:
            doc[name] = key.codec.write(field)
    return doc


params_from_config = partial(_read, prefix="", section=_PARAMS)
params_to_config = partial(_write, prefix="", section=_PARAMS)
functional_from_config = partial(_read, prefix="functional.", section=_FUNCTIONAL)
functional_to_config = partial(_write, prefix="functional.", section=_FUNCTIONAL)


# -- records ------------------------------------------------------------------------


def _is_rational(value) -> bool:
    """A Fraction or a nonempty list of them: such a field is written as "p/q"
    with a float companion under the key plus ``_f64``."""
    if isinstance(value, (list, tuple)):
        return bool(value) and isinstance(value[0], Fraction)
    return isinstance(value, Fraction)


def make_record(kind: str, **fields) -> dict:
    """A finalized output record: its own fields under the envelope, which no field
    overrides."""
    return finalize_record({**fields, "schema_version": SCHEMA_VERSION, "kind": kind})


def finalize_record(record: dict) -> dict:
    """Expand Fractions into "p/q" plus float companions; order keys."""
    out: dict = {}
    for key, value in record.items():
        if not _is_rational(value):
            out[key] = value
        elif isinstance(value, Fraction):
            out[key] = format_rational(value)
            out[f"{key}_f64"] = float(value)
        else:
            out[key] = [format_rational(v) for v in value]
            out[f"{key}_f64"] = [float(v) for v in value]
    return {k: out[k] for k in sorted(out)}


def dumps_record(record: dict) -> str:
    """One finalized record as JSON text, keys sorted and no spaces."""
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


@contextmanager
def _create(path: str | Path) -> Iterator[TextIO]:
    """path written whole or not at all, as UTF-8 text with no newline translation: a
    temporary file beside it replaces it when the block ends without an error. On an
    error the temporary file goes, with the directories this call made."""
    path = Path(path)
    made = list(takewhile(lambda d: not d.exists(), path.parents))
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with tmp.open("w", encoding="utf-8", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with suppress(OSError):  # the cleanup never masks the error
            tmp.unlink(missing_ok=True)
            for folder in made:
                folder.rmdir()
        raise


def write_jsonl(records: Iterable[dict], path: str | Path) -> None:
    with _create(path) as fh:
        for record in records:
            fh.write(dumps_record(record))
            fh.write("\n")


def ratio_cells(num: int, den: int) -> str:
    """The reduced "p/q" cell of num/den (den > 0) and its float companion,
    comma-joined; integer true division rounds as float(Fraction(num, den))."""
    g = gcd(num, den)
    return f"{format_ratio(num // g, den // g)},{num / den!r}"


def write_csv(records: Sequence[dict], path: str | Path) -> None:
    """CSV of finalized records under the sorted union of their keys."""
    import csv

    header = sorted({key for row in records for key in row})
    cells = ((row.get(k, "") for k in header) for row in records)
    rows = ([";".join(map(str, v)) if isinstance(v, list) else v for v in row] for row in cells)
    with _create(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_lines(path: str | Path, header: Sequence[str], lines: Iterable[str]) -> None:
    """CSV of a header and of comma-joined lines that end in a newline: only for
    cells of rationals, floats, bools and ints, which never need quoting."""
    with _create(path) as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(lines)


def read_jsonl(path: str | Path) -> list[dict]:
    """The records of a JSONL file; a line that is not a JSON object is a ConfigError."""
    out = []
    for lineno, line in enumerate(_read_text(path).splitlines(), start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except ValueError as exc:
            raise ConfigError(f"{path} line {lineno}: not JSON ({exc})") from None
        if not isinstance(record, dict):
            raise ConfigError(f"{path} line {lineno}: not a JSON object")
        out.append(record)
    return out


def content_hash(payload: dict) -> str:
    import hashlib  # only cache keys and unnamed functionals need it; it is slow to import

    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


PIECES_HEADER = (
    "jump_at_left", "jump_at_left_f64", "left_endpoint", "left_endpoint_f64", "left_value",
    "left_value_f64", "length", "length_f64", "piece_index", "slope", "slope_f64",
)


def export_pieces_csv(pl, path: str | Path) -> None:
    """Write the piece table (index, endpoint, slope, value, jump) as CSV. A jump is
    the previous right limit less the left value (piece 0's left value is 0); each
    distinct slope and jump is formatted once."""
    count, denom, length = pl.piece_count, pl.denom, ratio_cells(1, pl.piece_count)
    cell = lru_cache(maxsize=None)(partial(ratio_cells, den=denom))

    def lines():
        last = 0
        for j, (v, w) in enumerate(pl.piece_value_ints()):
            yield (f"{cell(last - v)},{ratio_cells(j, count)},{ratio_cells(v, denom)},"
                   f"{length},{j},{cell((w - v) * count)}\n")
            last = w

    write_lines(path, PIECES_HEADER, lines())
