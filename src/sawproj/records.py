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
from typing import Iterable, Iterator, Optional, Sequence, TextIO

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


def config_int(doc: dict, key: str, default: Optional[int] = None) -> int:
    """An integer config key; without a default the key is required."""
    if key not in doc and default is None:
        raise ConfigError(f"missing {key}")
    return as_int(f"config key {key!r}", doc.get(key, default))


def as_frac(source: str, value) -> Fraction:
    """The one rational reader for config values and rational settings."""
    try:
        return parse_rational(str(value))
    except DomainError:
        raise ConfigError(f"{source} must be a rational 'p/q', got {value!r}") from None


def _config_list(doc: dict, key: str, read=as_int) -> tuple:
    """A comma-separated list read entry by entry; an absent key is the empty list."""
    source = f"each entry of config key {key!r}"
    return tuple(read(source, v) for v in str(doc.get(key, "")).split(",") if v.strip())


def _checked(prefix: str, make, **fields):
    """make(**fields), with a rejected field as a ConfigError naming the keys."""
    try:
        return make(**fields)
    except DomainError as exc:
        raise ConfigError(f"config keys {prefix}.*: {exc}") from None


def _rule_from_config(doc: dict, prefix: str) -> SequenceRule:
    kind = doc.get(f"{prefix}.kind")
    if kind is None:
        raise ConfigError(f"missing {prefix}.kind")
    if kind in ("harmonic", "inverse_square"):
        fields = dict(a=_frac(doc, f"{prefix}.a"))
    elif kind == "geometric":
        fields = dict(a=_frac(doc, f"{prefix}.a"), r=_frac(doc, f"{prefix}.r"))
    elif kind == "explicit":
        fields = dict(
            values=_config_list(doc, f"{prefix}.values", as_frac),
            tail_l1=_frac(doc, f"{prefix}.tail_l1", optional=True),
            tail_l2sq=_frac(doc, f"{prefix}.tail_l2sq", optional=True),
        )
    else:
        raise ConfigError(f"unknown {prefix}.kind {kind!r}")
    return _checked(prefix, SequenceRule, kind=kind, **fields)


def _rule_to_config(rule: SequenceRule, prefix: str) -> dict:
    """The keys _rule_from_config reads back: rationals as "p/q", lists comma-joined."""
    doc = {f"{prefix}.kind": rule.kind}
    if rule.kind == "explicit":
        doc[f"{prefix}.values"] = ",".join(map(format_rational, rule.values))
        for key, bound in (("tail_l1", rule.tail_l1), ("tail_l2sq", rule.tail_l2sq)):
            if bound is not None:
                doc[f"{prefix}.{key}"] = format_rational(bound)
    else:
        doc[f"{prefix}.a"] = format_rational(rule.a)
        if rule.kind == "geometric":
            doc[f"{prefix}.r"] = format_rational(rule.r)
    return doc


def _frac(doc: dict, key: str, optional: bool = False) -> Optional[Fraction]:
    if key not in doc:
        if optional:
            return None
        raise ConfigError(f"missing {key}")
    return as_frac(f"config key {key!r}", doc[key])


def params_from_config(doc: dict) -> ParameterSet:
    alpha = _rule_from_config(doc, "alpha")
    m_kind = doc.get("m.kind")
    if m_kind in ("linear", "constant"):
        m = RefinementRule(m_kind, k=config_int(doc, "m.k", 0))
    elif m_kind == "explicit":
        m = RefinementRule("explicit", values=_config_list(doc, "m.values"))
    else:
        raise ConfigError(f"unknown m.kind {m_kind!r}")
    n_max = config_int(doc, "n_max")
    bits = config_int(doc, "sqrt_precision_bits", DEFAULT_SQRT_BITS)
    if "model" not in doc:
        raise ConfigError("missing model")
    try:
        return ParameterSet(alpha, m, n_max, str(doc["model"]), bits)
    except DomainError as exc:
        raise ConfigError(str(exc)) from exc


def params_to_config(params: ParameterSet) -> dict:
    doc = _rule_to_config(params.alpha, "alpha")
    m = params.m
    doc["m.kind"] = m.kind
    if m.kind == "explicit":
        doc["m.values"] = ",".join(map(str, m.values))
    else:
        doc["m.k"] = m.k
    doc.update(n_max=params.n_max, model=params.model, sqrt_precision_bits=params.sqrt_bits)
    return doc


def functional_from_config(doc: dict) -> Functional:
    return _checked(
        "functional",
        Functional,
        rule=_rule_from_config(doc, "functional.rule"),
        alpha0=_frac(doc, "functional.alpha0"),
        sign=config_int(doc, "functional.sign", 1),
        signs=_config_list(doc, "functional.signs"),
        name=str(doc.get("functional.name", "")),
    )


def functional_to_config(functional: Functional) -> dict:
    doc = {
        "functional.alpha0": format_rational(functional.alpha0),
        "functional.sign": functional.sign,
        **_rule_to_config(functional.rule, "functional.rule"),
    }
    if functional.signs:
        doc["functional.signs"] = ",".join(map(str, functional.signs))
    if functional.name:
        doc["functional.name"] = functional.name
    return doc


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
