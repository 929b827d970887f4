"""Command-line front end: configuration, orchestration, caching, emission.

Every run is a pure function of its configuration document plus flags; output
files are byte-identical across reruns. A setting comes from its flag, else its
config key, else its default; `run` only picks the command. Exit codes:
0 success, 1 malformed config, 2 validation/diagnostic failure, 3 budget
exceeded. Errors and timings are emitted as JSON records on stderr; output
files never contain wall-clock data.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from fractions import Fraction
from functools import lru_cache, partial
from itertools import combinations
from pathlib import Path
from typing import Callable, Optional

# Each command imports the engine modules it runs inside its own body, so a call
# loads only those: neither `curve` nor `diagnose` imports measure, only `validate`
# imports certificates, and `--version` imports none of certificates, construction,
# intervals, measure, curve, events and diagnostics.
from . import __version__
from .errors import DEFAULT_PIECE_BUDGET, DEFAULT_SAMPLE_BUDGET, DEFAULT_VERTEX_BUDGET
from .errors import BudgetExceeded, ConfigError, DomainError, SawprojError
from .rational import format_rational, parse_rational
from .records import (
    SCHEMA_VERSION,
    as_frac,
    as_int,
    content_hash,
    dumps_record,
    export_pieces_csv,
    finalize_record,
    functional_from_config,
    functional_to_config,
    load_config,
    make_record,
    params_from_config,
    params_to_config,
    read_jsonl,
    write_csv,
    write_jsonl,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_VALIDATION = 2
EXIT_BUDGET = 3

WORKERS_HELP = (
    "accepted for compatibility; the image engine runs in one thread, so "
    "this changes neither results nor speed"
)


def _stderr_record(record: dict) -> None:
    sys.stderr.write(json.dumps(record, sort_keys=True) + "\n")


def _setting(args, config: dict, name: str, default=None, read=as_int):
    """The flag ``--name`` if given, else config key ``name``, else ``default``;
    with no default the setting is required. ``read(source, value)`` checks
    the value and names its source when it refuses it."""
    flag = "--" + name.replace("_", "-")
    if getattr(args, name, None) is not None:
        return read(flag, getattr(args, name))
    if name in config:
        return read(f"config key {name!r}", config[name])
    if default is None:
        raise ConfigError(f"{flag} or config key {name!r} is required")
    return default


def _at_least(least: int, source: str, value) -> int:
    number = as_int(source, value)
    if number < least:
        bound = "nonnegative" if least == 0 else f"at least {least}"
        raise ConfigError(f"{source} must be {bound}, got {number}")
    return number


_nonnegative = partial(_at_least, 0)


def _text(source: str, value) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{source} must be a quoted string, got {value!r}")
    return value


def _load(args) -> tuple[dict, object, Optional[object]]:
    config = load_config(args.config)
    params = params_from_config(config)
    functional = None
    if any(k.startswith("functional.") for k in config):
        functional = functional_from_config(config)
    return config, params, functional


def _out_dir(args, config: dict) -> Path:
    """The `out` setting, ./out when unset or empty; writers make it, so a refusal leaves none."""
    return Path(_setting(args, config, "out", "", _text) or "out")


def _functional_id(functional) -> str:
    return functional.name or content_hash(
        {k: str(v) for k, v in functional_to_config(functional).items()}
    )[:16]


@lru_cache(maxsize=None)
def _source_digest() -> str:
    """sha256 of the package's sources, computed once: ``__version__`` outlives engine edits."""
    import hashlib

    digest = hashlib.sha256()
    for path in sorted(Path(__file__).parent.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


class _Cache:
    """Finalized bracket records under ``<out>/.cache``, one JSON file per direction,
    named by the hash of the call's identity and the direction. A file holds the
    record's bracket fields and nothing else, so `measure` reads direction (0, 1)
    from the entries of a `scan`."""

    def __init__(self, out: Path, identity: str):
        self.dir, self.identity = out / ".cache", identity

    def get(self, key: str) -> Optional[dict]:
        """The record stored under key, or None on a miss: an unreadable entry, or
        one of another schema_version, is a miss."""
        try:
            record = json.loads((self.dir / f"{key}.json").read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return None
        if not isinstance(record, dict) or record.get("schema_version") != SCHEMA_VERSION:
            return None
        return record

    def bracket_fields(self, p: Fraction, q: Fraction, fields: Callable[[], dict]) -> dict:
        """The entry of direction (p, q), else ``fields()``, stored as that entry."""
        direction = [format_rational(p), format_rational(q)]
        key = content_hash({"call": self.identity, "direction": direction})
        record = self.get(key)
        if record is None:
            record = fields()
            self.dir.mkdir(parents=True, exist_ok=True)
            # a reader sees the old entry or the whole new one, never a torn write
            path = self.dir / f"{key}.json"
            tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
            tmp.write_text(dumps_record(record), encoding="utf-8")
            os.replace(tmp, path)
        return record


def _bracket_call(args, command: str):
    """What `measure` and `scan` share: params, functional, level, budget, out dir and
    ``fields(p, q, bracket)``, the finalized bracket fields of direction (p, q): read
    from the cache, else those of ``bracket()``, stored there. The cache identity
    covers the package sources, version and schema, the parameters, functional, level
    and budget, so a hit replays a call that passed under the same budget, exit code
    included. It is hashed once per call, and not at all under --no-cache."""
    config, params, functional = _load(args)
    if functional is None:
        raise ConfigError(f"{command} requires functional.* keys in the config")
    level = _setting(args, config, "level", 1)
    budget = _setting(args, config, "budget", DEFAULT_PIECE_BUDGET, _nonnegative)
    out = _out_dir(args, config)

    def compute(bracket) -> dict:
        b = bracket()
        return finalize_record(
            dict(schema_version=SCHEMA_VERSION, functional_id=_functional_id(functional),
                 level=b.level, mu=b.mu, tail=b.tail_upper, lower=b.lower, upper=b.upper,
                 piece_count=b.piece_count, chain_holds=b.chain_holds)
        )

    if args.no_cache:
        return params, functional, level, budget, out, lambda p, q, bracket: compute(bracket)
    cache = _Cache(out, content_hash(
        dict(schema_version=SCHEMA_VERSION, engine_version=__version__,
             engine_sources=_source_digest(), params=params_to_config(params),
             functional=functional_to_config(functional), level=level, budget=budget)
    ))
    return params, functional, level, budget, out, (
        lambda p, q, bracket: cache.bracket_fields(p, q, partial(compute, bracket))
    )


# -- subcommands ---------------------------------------------------------------------


def cmd_validate(args) -> int:
    from .certificates import validate

    config, params, _ = _load(args)
    report = validate(params)
    records = [
        make_record("validate", check=c.kind, passed=c.passed, detail=c.detail)
        for c in report.checks
    ]
    records.append(make_record("validate_summary", passed=report.passed))
    write_jsonl(records, _out_dir(args, config) / "validate.jsonl")
    return EXIT_OK if report.passed else EXIT_VALIDATION


def cmd_evaluate(args) -> int:
    from .construction import truncated_point

    config, params, _ = _load(args)
    level = _setting(args, config, "level", params.n_max)
    t = _setting(args, config, "t", read=as_frac)  # an unquoted `t = 0` is rational too
    out = _out_dir(args, config)
    point = truncated_point(params, level, t)
    record = make_record(
        "evaluate", t=point.t, level=point.level, model=point.model, coords=list(point.coords),
        tail_l1_upper=point.tail_l1_upper, tail_l2_lower=point.tail_l2_enclosure[0],
        tail_l2_upper=point.tail_l2_enclosure[1],
    )
    write_jsonl([record], out / "evaluate.jsonl")
    return EXIT_OK


def cmd_measure(args) -> int:
    from .construction import build_pl
    from .measure import projection_bracket

    params, functional, level, budget, out, fields = _bracket_call(args, "measure")
    bracket = partial(projection_bracket, params, functional, level, piece_budget=budget)
    record = make_record("measure", **fields(0, 1, bracket))  # checks level, tail and budget
    if args.pieces:
        pl = build_pl(params, functional, level, piece_budget=budget)
        export_pieces_csv(pl, out / "pieces.csv")
    write_jsonl([record], out / "measure.jsonl")
    write_csv([record], out / "measure.csv")
    return EXIT_OK


def circle_directions(count: int) -> list[tuple[Fraction, Fraction]]:
    """count rational directions sweeping the half-turn of all lines."""
    return [
        (Fraction((count - k) ** 2 - k**2), Fraction(2 * k * (count - k))) for k in range(count)
    ]


def _direction(chunk: str) -> tuple[Fraction, Fraction]:
    """One "p,q" chunk of --directions; a malformed chunk or (0, 0) is refused."""
    p_text, _, q_text = chunk.partition(",")
    try:
        p, q = parse_rational(p_text), parse_rational(q_text)
    except DomainError:
        p = q = Fraction(0)  # refused below, with the chunk
    if p == q == 0:
        raise DomainError(f'--directions chunk {chunk!r} is not "p,q" of rationals not both 0')
    return p, q


def cmd_scan(args) -> int:
    _at_least(1, "--circle", args.circle)
    # every direction, of an empty list too, is checked before the output and cache exist
    if args.directions is not None:
        directions = [_direction(chunk) for chunk in args.directions.split(";")]
    else:
        directions = circle_directions(args.circle)
    from .measure import direction_brackets

    params, functional, level, budget, out, fields = _bracket_call(args, "scan")
    # one level-N table for every direction, built at the first cache miss
    brackets = direction_brackets(params, functional, level, budget)
    records = [
        make_record("scan", **fields(p, q, partial(brackets, p, q)),
                    direction_index=idx, direction_p=p, direction_q=q)
        for idx, (p, q) in enumerate(directions)
    ]
    write_jsonl(records, out / "scan.jsonl")
    write_csv(records, out / "scan.csv")
    return EXIT_OK


def cmd_curve(args) -> int:
    from .curve import (
        build_curve,
        curve_length,
        curve_length_closed_form,
        export_curve_csv,
        length_increment,
        sup_distance_bound,
    )

    config, params, functional = _load(args)
    if functional is None:
        raise ConfigError("curve requires functional.* keys in the config")
    level = _setting(args, config, "level", 1)
    budget = _setting(args, config, "vertex_budget", DEFAULT_VERTEX_BUDGET, _nonnegative)
    out = _out_dir(args, config)

    curve = build_curve(params, functional, level, vertex_budget=budget)
    export_curve_csv(curve, out / "curve.csv")

    ledger = [make_record(
        "curve_length", functional_id=_functional_id(functional), level=level,
        length=curve_length(curve),
        length_closed_form=curve_length_closed_form(params, functional, level),
        vertex_count=curve.vertex_count,
    )]
    ledger += (
        make_record(
            "curve_increment", level=n, increment=length_increment(params, functional, n),
            increment_ceiling=Fraction(3, 2) * abs(functional.coeff(n)),
            sup_distance=sup_distance_bound(params, functional, n),
        )
        for n in range(1, level + 1)
    )
    write_jsonl(ledger, out / "curve.jsonl")
    return EXIT_OK


def _levels(params, args, lo: int, hi: int, least: int = 1) -> range:
    """The levels lo..min(hi, n_max) a check reads. A check that would read
    fewer than ``least`` of them is refused rather than passed vacuously."""
    if params.n_max < lo + least - 1:
        raise DomainError(
            f"--check {args.check} reads levels {lo}..{hi} and needs n_max >= "
            f"{lo + least - 1}, got n_max = {params.n_max}"
        )
    return range(lo, min(hi, params.n_max) + 1)


def _diag_event_measure(params, args) -> list[dict]:
    from .events import check_event_levels, event_set

    records, levels = [], _levels(params, args, 1, 6)
    check_event_levels(params, levels)
    for n in levels:
        measure, expected = event_set(params, n).measure, 2 * params.alpha_term(n)
        records.append(
            {"level": n, "measure": measure, "expected": expected, "passed": measure == expected}
        )
    return records


def _diag_independence(params, args) -> list[dict]:
    from .events import independence_checks

    pairs = list(combinations(_levels(params, args, 2, 6, least=2), 2))
    return [
        {
            "levels": "%d,%d" % r.levels,
            "measure": r.measure,
            "expected": r.expected,
            "passed": r.multiplicative,
        }
        for r in independence_checks(params, pairs)
    ]


def _sampled(args, **fields) -> dict:
    from .diagnostics import GENERATOR_NAME

    return {"samples": args.samples, "seed": args.seed, "generator": GENERATOR_NAME, **fields}


def _diag_borel_cantelli(params, args) -> list[dict]:
    from .diagnostics import sample_event_union

    levels = tuple(_levels(params, args, 4, 8))
    report = sample_event_union(params, levels, args.samples, args.seed)
    return [
        _sampled(
            args,
            levels=",".join(map(str, levels)),
            fraction=report.fraction,
            expected=report.expected_probability,
            passed=report.within_sigmas(3),
        )
    ]


def _diag_slope_identity(params, args) -> list[dict]:
    from .diagnostics import sample_slope_identities

    passed = sample_slope_identities(params, args.samples, args.seed)
    return [_sampled(args, passed_count=passed, passed=passed == args.samples)]


def _diag_secant(params, args) -> list[dict]:
    from .diagnostics import check_secant_levels, sample_secant_witnesses

    records, levels = [], _levels(params, args, 4, 7)
    check_secant_levels(params, levels)
    for n in levels:
        hits, total = sample_secant_witnesses(params, n, args.samples, args.seed)
        records.append(
            _sampled(args, level=n, samples=total, passed_count=hits, passed=10 * hits >= 9 * total)
        )
    return records


def _diag_oscillation(params, args) -> list[dict]:
    from .diagnostics import sample_oscillation

    worst, passed = sample_oscillation(params, args.samples, args.seed)
    return [_sampled(args, worst=worst, passed=passed)]


_DIAGNOSTICS = {
    "event-measure": _diag_event_measure,
    "independence": _diag_independence,
    "borel-cantelli": _diag_borel_cantelli,
    "slope-identity": _diag_slope_identity,
    "secant": _diag_secant,
    "oscillation": _diag_oscillation,
}


def cmd_diagnose(args) -> int:
    config, params, _ = _load(args)
    args.check = _setting(args, config, "check", read=_text)
    if args.check not in _DIAGNOSTICS:
        raise ConfigError(
            f"unknown check {args.check!r}; available: {', '.join(sorted(_DIAGNOSTICS))}"
        )
    args.samples = _setting(args, config, "samples", 1000, partial(_at_least, 1))
    if args.samples > DEFAULT_SAMPLE_BUDGET:
        raise BudgetExceeded("samples", args.samples, DEFAULT_SAMPLE_BUDGET)
    # Random would seed from the absolute value of a negative seed, aliasing a positive one
    args.seed = _setting(args, config, "seed", 20260811, _nonnegative)
    out = _out_dir(args, config)  # checked before sampling
    records = [
        make_record("diagnose", check=args.check, **fields)
        for fields in _DIAGNOSTICS[args.check](params, args)
    ]
    name = args.check.replace("-", "_")
    write_jsonl(records, out / f"diagnose_{name}.jsonl")
    return EXIT_OK if all(r["passed"] for r in records) else EXIT_VALIDATION


def cmd_emit(args) -> int:
    records = read_jsonl(args.records)
    if args.format == "csv":
        write_csv(records, args.out)
    else:
        write_jsonl(records, args.out)
    return EXIT_OK


# the commands a config can name; `run` itself and `emit` read no config
_RUN_COMMANDS = ("validate", "evaluate", "measure", "scan", "curve", "diagnose")


def cmd_run(args) -> int:
    command = load_config(args.config).get("command")
    if command not in _RUN_COMMANDS:
        raise ConfigError(f"config 'command' must name a subcommand, got {command!r}")
    sub_args = build_parser().parse_args([command, "--config", str(args.config)])
    return sub_args.func(sub_args)


class _Parser(argparse.ArgumentParser):
    """A usage error is a configuration error: one JSON record and exit 1."""

    def error(self, message: str):
        raise ConfigError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, with its help line, options and handler."""
    parser = _Parser(
        prog="sawproj",
        description="Exact-arithmetic sawtooth-sum constructions, projection "
        "measures, polygonal approximations, and diagnostics.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, summary: str, func, engine: bool = False, config: bool = True):
        """The subcommand's parser with its common options."""
        p = sub.add_parser(name, help=summary)
        if config:  # every command but emit and run
            p.add_argument("--config", required=True, help="flat key = value document")
            p.add_argument("--out", help="output directory (default from config or ./out)")
        if engine:  # measure and scan
            p.add_argument("--level", type=int)
            p.add_argument("--workers", type=int, default=1, help=WORKERS_HELP)
            p.add_argument("--budget", type=int)
            p.add_argument("--no-cache", action="store_true",
                           help="neither read nor write <out>/.cache")
        p.set_defaults(func=func)
        return p

    command("validate", "check parameter invariants", cmd_validate)
    p = command("evaluate", "truncated point at a rational parameter", cmd_evaluate)
    p.add_argument("--t", help='parameter as "p/q"')
    p.add_argument("--level", type=int)
    p = command("measure", "certified projection-measure bracket", cmd_measure, engine=True)
    p.add_argument("--pieces", action="store_true", help="also export the piece table CSV")
    p = command("scan", "brackets across rational directions", cmd_scan, engine=True)
    p.add_argument("--circle", type=int, default=64, help="built-in direction count")
    p.add_argument("--directions", help='explicit list "p,q;p,q;..."')
    p = command("curve", "polygonal approximation CSV and length ledger", cmd_curve)
    p.add_argument("--level", type=int)
    p.add_argument("--vertex-budget", type=int, dest="vertex_budget")
    p = command("diagnose", "named quantitative checks", cmd_diagnose)
    p.add_argument("--check")
    p.add_argument("--seed", type=int, help="default 20260811")
    p.add_argument("--samples", type=int, help="default 1000")
    p = command("emit", "convert stored records between formats", cmd_emit, config=False)
    p.add_argument("--records", required=True)
    p.add_argument("--format", choices=("csv", "jsonl"), default="csv")
    p.add_argument("--out", required=True)
    p = command("run", "execute the command named in the config", cmd_run, config=False)
    p.add_argument("--config", required=True)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    started = time.monotonic()
    try:
        args = build_parser().parse_args(argv)
        code = args.func(args)
    except ConfigError as exc:
        _stderr_record({"error": "config", "message": str(exc), "exit_code": EXIT_CONFIG})
        return EXIT_CONFIG
    except BudgetExceeded as exc:
        _stderr_record(
            {
                "error": "budget",
                "message": str(exc),
                "count": exc.count,
                "budget": exc.budget,
                "exit_code": EXIT_BUDGET,
            }
        )
        return EXIT_BUDGET
    except SawprojError as exc:
        _stderr_record(
            {"error": "invalid", "message": str(exc), "exit_code": EXIT_VALIDATION}
        )
        return EXIT_VALIDATION
    except OSError as exc:
        _stderr_record({"error": "io", "message": str(exc), "exit_code": EXIT_CONFIG})
        return EXIT_CONFIG
    _stderr_record(
        {
            "event": "timing",
            "command": args.command,
            "wall_time_ms": int((time.monotonic() - started) * 1000),
        }
    )
    return code


if __name__ == "__main__":
    sys.exit(main())
