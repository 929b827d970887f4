"""Serialization: flat structured-text configs, JSONL/CSV records, caching.

Rationals always travel as "p/q" strings, never as floats; every rational
field in an emitted record is accompanied by a round-to-nearest double under
the same name with an ``_f64`` suffix. Records serialize with sorted keys and
fixed separators so identical runs produce identical bytes.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import gcd
from pathlib import Path
from typing import Iterable, Optional, Sequence

from .errors import ConfigError
from .params import (
    ParameterSet,
    RefinementRule,
)
from .rational import format_rational, parse_rational
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


def load_config(path: str | Path) -> dict:
    return parse_config_text(Path(path).read_text(encoding="utf-8"))


def _rule_from_config(doc: dict, prefix: str) -> SequenceRule:
    kind = doc.get(f"{prefix}.kind")
    if kind is None:
        raise ConfigError(f"missing {prefix}.kind")
    if kind in ("harmonic", "inverse_square"):
        return SequenceRule(kind, a=_frac(doc, f"{prefix}.a"))
    if kind == "geometric":
        return SequenceRule(kind, a=_frac(doc, f"{prefix}.a"), r=_frac(doc, f"{prefix}.r"))
    if kind == "explicit":
        raw = doc.get(f"{prefix}.values", "")
        values = tuple(parse_rational(v) for v in str(raw).split(",") if v.strip())
        tail_l1 = _frac(doc, f"{prefix}.tail_l1", optional=True)
        tail_l2sq = _frac(doc, f"{prefix}.tail_l2sq", optional=True)
        return SequenceRule("explicit", values=values, tail_l1=tail_l1, tail_l2sq=tail_l2sq)
    raise ConfigError(f"unknown {prefix}.kind {kind!r}")


def _frac(doc: dict, key: str, optional: bool = False) -> Optional[Fraction]:
    if key not in doc:
        if optional:
            return None
        raise ConfigError(f"missing {key}")
    return parse_rational(str(doc[key]))


def params_from_config(doc: dict) -> ParameterSet:
    alpha = _rule_from_config(doc, "alpha")
    m_kind = doc.get("m.kind")
    if m_kind in ("linear", "constant"):
        m = RefinementRule(m_kind, k=int(doc.get("m.k", 0)))
    elif m_kind == "explicit":
        values = tuple(int(v) for v in str(doc.get("m.values", "")).split(",") if v.strip())
        m = RefinementRule("explicit", values=values)
    else:
        raise ConfigError(f"unknown m.kind {m_kind!r}")
    try:
        n_max = int(doc["n_max"])
        model = str(doc["model"])
    except KeyError as exc:
        raise ConfigError(f"missing {exc.args[0]}") from exc
    bits = int(doc.get("sqrt_precision_bits", 64))
    try:
        return ParameterSet(alpha=alpha, m=m, n_max=n_max, model=model, sqrt_bits=bits)
    except Exception as exc:
        raise ConfigError(str(exc)) from exc


def functional_from_config(doc: dict) -> Functional:
    rule = _rule_from_config(doc, "functional.rule")
    alpha0 = _frac(doc, "functional.alpha0")
    sign = int(doc.get("functional.sign", 1))
    signs = tuple(
        int(s) for s in str(doc.get("functional.signs", "")).split(",") if s.strip()
    )
    name = str(doc.get("functional.name", ""))
    return Functional(alpha0=alpha0, rule=rule, sign=sign, signs=signs, name=name)


def _flat_config(doc: dict, prefix: str = "") -> dict:
    """Config values for a doc(): rationals as "p/q", lists comma-joined."""
    out: dict = {}
    for key, value in doc.items():
        if isinstance(value, Fraction):
            out[prefix + key] = format_rational(value)
        elif isinstance(value, list):
            out[prefix + key] = ",".join(
                format_rational(v) if isinstance(v, Fraction) else str(v) for v in value
            )
        elif value is not None:
            out[prefix + key] = value
    return out


def params_to_config(params: ParameterSet) -> dict:
    return _flat_config(params.doc())


def functional_to_config(functional: Functional) -> dict:
    return _flat_config(functional.doc(), "functional.")


# -- records ------------------------------------------------------------------------


def _is_rational(value) -> bool:
    """A Fraction or a nonempty list of them: such a field is written as "p/q"
    with a float companion under the key plus ``_f64``."""
    if isinstance(value, (list, tuple)):
        return bool(value) and isinstance(value[0], Fraction)
    return isinstance(value, Fraction)


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
    return json.dumps(finalize_record(record), sort_keys=True, separators=(",", ":"))


def write_jsonl(records: Iterable[dict], path: str | Path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        for record in records:
            fh.write(dumps_record(record))
            fh.write("\n")


def ratio_cells(num: int, den: int) -> tuple[str, float]:
    """The reduced "p/q" cell of num/den (den > 0) and its float companion,
    which equals float(Fraction(num, den)): integer true division rounds correctly."""
    g = gcd(num, den)
    return f"{num // g}/{den // g}", num / den


def write_rows(path: str | Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """CSV of a header and rows streamed in its column order."""
    import csv

    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_csv(records: Sequence[dict], path: str | Path) -> None:
    """CSV of the finalized records; each row is finalized as it is written."""
    fields: set[str] = set()
    for record in records:
        for key, value in record.items():
            fields.add(key)
            if _is_rational(value):
                fields.add(f"{key}_f64")
    header = sorted(fields)
    cells = ((row.get(k, "") for k in header) for row in map(finalize_record, records))
    rows = ([";".join(map(str, v)) if isinstance(v, list) else v for v in row] for row in cells)
    write_rows(path, header, rows)


def read_jsonl(path: str | Path) -> list[dict]:
    out = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if line.strip():
            out.append(json.loads(line))
    return out


def content_hash(payload: dict) -> str:
    import hashlib  # only cache keys and unnamed functionals need it; it is slow to import

    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


PIECES_HEADER = (
    "jump_at_left", "jump_at_left_f64", "left_endpoint", "left_endpoint_f64", "left_value",
    "left_value_f64", "length", "length_f64", "piece_index", "slope", "slope_f64",
)


def export_pieces_csv(pl, path: str | Path) -> int:
    """Write the piece table (index, endpoint, slope, value, jump) as CSV.

    Returns the piece count; every rational column gets a float companion.
    Rows are streamed from the kernel's integer numerators.
    """
    kernel, count = pl.kernel(), pl.piece_count
    denom, length = kernel.denom, ratio_cells(1, count)

    def rows():
        for j, (v, w) in enumerate(pl.piece_value_ints()):
            yield (
                *ratio_cells(kernel.jump_num(j), denom), *ratio_cells(j, count),
                *ratio_cells(v, denom), *length, j, *ratio_cells((w - v) * count, denom),
            )

    write_rows(path, PIECES_HEADER, rows())
    return count
