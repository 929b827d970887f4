import json
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings

import sawproj as sp
from sawproj.cli import main
from sawproj.records import (
    emit_config_text,
    finalize_record,
    functional_to_config,
    params_to_config,
    read_jsonl,
    write_csv,
)

from oracles import curve_cases, curve_rows_oracle

D1_CONFIG = """\
alpha.kind = "harmonic"
alpha.a = "1/2"
m.kind = "linear"
m.k = 2
n_max = 8
model = "L2"
sqrt_precision_bits = 64
functional.alpha0 = "1/2"
functional.rule.kind = "inverse_square"
functional.rule.a = "1/4"
functional.name = "F1"
seed = 424242
"""

D2_CONFIG = """\
alpha.kind = "geometric"
alpha.a = "1/2"
alpha.r = "1/2"
m.kind = "linear"
m.k = 2
n_max = 12
model = "L1"
functional.alpha0 = "1/1"
functional.rule.kind = "geometric"
functional.rule.a = "1/2"
functional.rule.r = "1/2"
functional.name = "R1"
"""


@pytest.fixture()
def d1_config(tmp_path):
    path = tmp_path / "d1.cfg"
    path.write_text(D1_CONFIG)
    return path


@pytest.fixture()
def d2_config(tmp_path):
    path = tmp_path / "d2.cfg"
    path.write_text(D2_CONFIG)
    return path


def test_validate_ok(d1_config, tmp_path):
    out = tmp_path / "out"
    assert main(["validate", "--config", str(d1_config), "--out", str(out)]) == 0
    records = read_jsonl(out / "validate.jsonl")
    assert records[-1]["kind"] == "validate_summary"
    assert records[-1]["passed"] is True


def test_validate_failure_exit_code(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(D1_CONFIG.replace('m.k = 2', 'm.k = 3'))
    assert main(["validate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2


def test_malformed_config_exit_code(tmp_path):
    cfg = tmp_path / "broken.cfg"
    cfg.write_text("alpha.kind : harmonic\n")
    assert main(["validate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    cfg.write_text(D1_CONFIG.replace('"harmonic"', '"sawtoothy"'))
    assert main(["validate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1


@pytest.mark.parametrize("n_max", [257, 1000, 100000])
@pytest.mark.parametrize(
    "command",
    [
        ["evaluate", "--t", "1/3", "--level", "3"],
        ["validate"],
        ["diagnose", "--check", "secant", "--samples", "5"],
    ],
    ids=["evaluate", "validate", "diagnose-secant"],
)
def test_n_max_past_the_ceiling_is_a_config_error(command, n_max, tmp_path, capsys):
    # without the ceiling these ran into int-to-string limits, ran for minutes
    # or ran out of memory
    cfg = tmp_path / "deep.cfg"
    cfg.write_text(D1_CONFIG.replace("n_max = 8", f"n_max = {n_max}"))
    out = tmp_path / "o"
    assert main([*command, "--config", str(cfg), "--out", str(out)]) == 1
    (record,) = map(json.loads, capsys.readouterr().err.splitlines())
    assert record["error"] == "config" and record["exit_code"] == 1
    assert record["message"] == f"n_max = {n_max} exceeds the ceiling 256"
    assert not out.exists()


def test_evaluate_zero_parameter(d1_config, tmp_path):
    out = tmp_path / "out"
    code = main(
        ["evaluate", "--config", str(d1_config), "--t", "0/1", "--level", "3", "--out", str(out)]
    )
    assert code == 0
    (record,) = read_jsonl(out / "evaluate.jsonl")
    assert record["coords"] == ["0/1", "0/1", "0/1", "0/1"]
    assert record["coords_f64"] == [0.0, 0.0, 0.0, 0.0]


def test_measure_level_one_is_nine_sixteenths(d1_config, tmp_path):
    out = tmp_path / "out"
    code = main(
        ["measure", "--config", str(d1_config), "--level", "1", "--out", str(out)]
    )
    assert code == 0
    (record,) = read_jsonl(out / "measure.jsonl")
    assert record["mu"] == "9/16"
    assert record["schema_version"] == 1
    assert record["chain_holds"] is True
    assert (out / "measure.csv").exists()


def test_measure_pieces_export(d1_config, tmp_path):
    out = tmp_path / "out"
    code = main(
        ["measure", "--config", str(d1_config), "--level", "1", "--pieces", "--out", str(out)]
    )
    assert code == 0
    lines = (out / "pieces.csv").read_text().splitlines()
    assert len(lines) == 5  # header plus the four level-1 pieces


def test_measure_budget_exit_code(d1_config, tmp_path):
    code = main(
        [
            "measure", "--config", str(d1_config), "--level", "4",
            "--budget", "10", "--out", str(tmp_path / "o"),
        ]
    )
    assert code == 3
    assert not (tmp_path / "o").exists()  # a refused call leaves no output directory


def test_measure_pieces_of_a_divergent_functional_writes_nothing(tmp_path, capsys):
    # build_pl accepts a functional with no certified l1 tail; the bracket refuses it
    cfg = tmp_path / "harmonic.cfg"
    cfg.write_text(D1_CONFIG.replace('"inverse_square"', '"harmonic"'))
    out = tmp_path / "o"
    args = ["measure", "--config", str(cfg), "--level", "2", "--pieces", "--out", str(out)]
    assert main(args) == 2
    (record,) = _error_records(capsys)
    assert record["error"] == "invalid" and "no certified l1 tail" in record["message"]
    assert not out.exists()


def test_curve_of_a_divergent_functional_writes_nothing(d2_config, tmp_path, capsys):
    # the contraction check needs sum |c_n| as a certified whole-series enclosure
    cfg = tmp_path / "harmonic.cfg"
    cfg.write_text(D2_CONFIG.replace(
        'functional.rule.kind = "geometric"\nfunctional.rule.a = "1/2"\nfunctional.rule.r = "1/2"',
        'functional.rule.kind = "harmonic"\nfunctional.rule.a = "1/4"'))
    out = tmp_path / "o"
    assert main(["curve", "--config", str(cfg), "--level", "2", "--out", str(out)]) == 2
    (record,) = _error_records(capsys)
    assert record["error"] == "invalid" and "no certified l1 tail" in record["message"]
    assert not out.exists()


def test_cached_measure_pieces_still_checks_the_budget(d1_config, tmp_path, capsys):
    out = tmp_path / "o"
    args = ["measure", "--config", str(d1_config), "--level", "4", "--out", str(out)]
    assert main(args) == 0  # caches the level-4 record
    for name in ("measure.jsonl", "measure.csv"):
        (out / name).unlink()
    capsys.readouterr()
    assert main(args + ["--pieces", "--budget", "10"]) == 3  # another budget misses the cache
    (record,) = _error_records(capsys)
    assert record["error"] == "budget" and record["count"] == 2 * 384
    assert sorted(p.name for p in out.iterdir()) == [".cache"]


def test_scan_budget_exit_code(d1_config, tmp_path):
    out = tmp_path / "o"
    code = main(
        ["scan", "--config", str(d1_config), "--level", "7", "--budget", "5", "--out", str(out)]
    )
    assert code == 3
    assert not out.exists()


def _error_records(capsys) -> list[dict]:
    lines = capsys.readouterr().err.splitlines()
    return [r for r in map(json.loads, lines) if "error" in r]


@pytest.mark.parametrize("level", ["-1", "9"])
@pytest.mark.parametrize("command", ["measure", "scan"])
def test_level_outside_range_exit_code(command, level, d1_config, tmp_path, capsys):
    code = main(
        [command, "--config", str(d1_config), "--level", level, "--out", str(tmp_path / "o")]
    )
    assert code == 2
    (record,) = _error_records(capsys)
    assert record["error"] == "invalid" and record["exit_code"] == 2
    assert f"level {level} outside [0, 8]" in record["message"]
    assert not (tmp_path / "o").exists()


def test_bad_budget_value_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "budget.cfg"
    cfg.write_text(D1_CONFIG + 'budget = "abc"\n')
    assert main(["measure", "--config", str(cfg), "--level", "1", "--out", str(tmp_path / "o")]) == 1
    (record,) = _error_records(capsys)
    assert record["error"] == "config"
    assert record["message"] == "config key 'budget' must be an integer, got 'abc'"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "command, flags",
    [
        ("validate", []),
        ("evaluate", ["--t", "1/3", "--level", "2"]),
        ("measure", ["--level", "1"]),
        ("scan", ["--level", "1", "--circle", "2"]),
        ("curve", ["--level", "1"]),
        ("diagnose", ["--check", "slope-identity", "--samples", "5"]),
        ("run", []),
    ],
)
def test_unquoted_out_key_is_config_error(command, flags, tmp_path, monkeypatch, capsys):
    # `out = 5` used to end in a TypeError traceback from Path(5)
    def no_sampling(*args):
        raise AssertionError("sampled before the out key was read")

    monkeypatch.setattr(sp.diagnostics, "sample_slope_identities", no_sampling)
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "out.cfg"
    config = D2_CONFIG if command == "curve" else D1_CONFIG
    if command == "run":
        config += 'command = "validate"\n'
    cfg.write_text(config + "out = 5\n")
    assert main([command, "--config", str(cfg), *flags]) == 1
    (record,) = _error_records(capsys)
    assert record["error"] == "config" and record["exit_code"] == 1
    assert record["message"] == "config key 'out' must be a quoted string, got 5"
    assert [p.name for p in tmp_path.iterdir()] == ["out.cfg"]
    monkeypatch.undo()  # sampling back on: a quoted out key is the output directory
    cfg.write_text(config + f'out = "{tmp_path / "res"}"\n')
    assert main([command, "--config", str(cfg), *flags]) == 0
    assert (tmp_path / "res").is_dir()


def _budget_args(command, source, value, cfg) -> list[str]:
    """CLI arguments that give `command` the budget `value` through `source`."""
    config, flags = D2_CONFIG if command == "curve" else D1_CONFIG, []
    if source.startswith("--"):
        flags = [source, value]
    else:
        config += f"{source} = {value}\n"
    cfg.write_text(config)
    return [command, "--config", str(cfg), "--level", "3", *flags, "--out", str(cfg.parent / "o")]


@pytest.mark.parametrize(
    "command, source, value",
    [
        ("measure", "--budget", "-5"),
        ("measure", "budget", "-5"),
        ("curve", "--vertex-budget", "-1"),
        ("curve", "vertex_budget", "-1"),
    ],
)
def test_negative_budget_is_config_error(command, source, value, tmp_path, capsys):
    cfg = tmp_path / "budget.cfg"
    assert main(_budget_args(command, source, value, cfg)) == 1
    (record,) = _error_records(capsys)
    assert record["error"] == "config" and record["exit_code"] == 1
    assert source in record["message"] and f"must be nonnegative, got {value}" in record["message"]
    assert not (tmp_path / "o").exists()  # refused before any output is written
    # a budget of 0 admits no work: still a budget, refused as exceeded
    assert main(_budget_args(command, source, "0", cfg)) == 3
    (record,) = _error_records(capsys)
    assert record["error"] == "budget" and record["budget"] == 0


def test_corrupt_cache_entry_is_a_miss(d1_config, tmp_path, capsys):
    out = tmp_path / "out"
    args = ["measure", "--config", str(d1_config), "--level", "2", "--out", str(out)]
    assert main(args) == 0
    cold = (out / "measure.jsonl").read_bytes()
    (entry,) = (out / ".cache").iterdir()
    entry.write_text('{"schema_version": 1, "rec')
    assert main(args) == 0
    assert _error_records(capsys) == []
    assert (out / "measure.jsonl").read_bytes() == cold
    assert [p.name for p in (out / ".cache").iterdir()] == [entry.name]
    assert json.loads(entry.read_text())["mu"] == read_jsonl(out / "measure.jsonl")[0]["mu"]


def test_entry_of_another_schema_version_is_a_miss(d1_config, tmp_path, capsys):
    out = tmp_path / "out"
    args = ["measure", "--config", str(d1_config), "--level", "2", "--out", str(out)]
    assert main(args) == 0
    cold = (out / "measure.jsonl").read_bytes()
    (entry,) = (out / ".cache").iterdir()
    stored = entry.read_text()
    entry.write_text(json.dumps(dict(json.loads(stored), schema_version=0)))
    assert main(args) == 0
    assert (out / "measure.jsonl").read_bytes() == cold
    assert entry.read_text() == stored  # rewritten


def test_cache_entry_holds_only_the_bracket_fields(d1_config, tmp_path):
    out = tmp_path / "out"
    args = ["scan", "--config", str(d1_config), "--level", "3", "--circle", "4"]
    assert main(args + ["--out", str(out)]) == 0
    fields = {"schema_version", "functional_id", "level", "piece_count", "chain_holds"}
    for name in ("mu", "tail", "lower", "upper"):
        fields |= {name, f"{name}_f64"}
    entries = sorted((out / ".cache").iterdir())
    assert len(entries) == 4
    for entry in entries:
        record = json.loads(entry.read_text())
        assert record["schema_version"] == 1 and set(record) == fields


def test_measure_and_scan_share_the_entry_of_direction_0_1(d1_config, tmp_path):
    out = tmp_path / "out"
    args = ["--config", str(d1_config), "--level", "3", "--out", str(out)]
    assert main(["measure", *args]) == 0
    (entry,) = (out / ".cache").iterdir()
    written = entry.stat().st_mtime_ns
    assert main(["scan", *args, "--directions", "0,1"]) == 0
    assert list((out / ".cache").iterdir()) == [entry]
    assert entry.stat().st_mtime_ns == written
    (measured,), (scanned,) = read_jsonl(out / "measure.jsonl"), read_jsonl(out / "scan.jsonl")
    assert {k: v for k, v in scanned.items() if not k.startswith("direction_")} == dict(
        measured, kind="scan"
    )


def test_budget_exit_code_does_not_depend_on_the_cache(d1_config, tmp_path, capsys):
    # the budget is part of the cache identity, so a warm call refuses what a cold one does
    out = tmp_path / "out"
    calls = (["measure", "--level", "3"], ["scan", "--level", "3", "--circle", "4"])
    for call in calls:
        assert main([*call, "--config", str(d1_config), "--out", str(out)]) == 0
    written = {p.name: p.read_bytes() for p in out.iterdir() if p.is_file()}
    assert sorted(written) == ["measure.csv", "measure.jsonl", "scan.csv", "scan.jsonl"]
    capsys.readouterr()
    for call in calls:
        assert main([*call, "--config", str(d1_config), "--out", str(out), "--budget", "0"]) == 3
        (record,) = _error_records(capsys)
        assert record["error"] == "budget" and record["budget"] == 0
    assert {p.name: p.read_bytes() for p in out.iterdir() if p.is_file()} == written


def test_scan_single_axis_direction(d1_config, tmp_path):
    out = tmp_path / "out"
    code = main(
        [
            "scan", "--config", str(d1_config), "--level", "2",
            "--directions", "1/1,0/1", "--out", str(out),
        ]
    )
    assert code == 0
    (record,) = read_jsonl(out / "scan.jsonl")
    assert record["mu"] == "1/1"
    assert record["direction_p"] == "1/1"


def test_scan_of_a_divergent_functional_needs_q_zero(tmp_path, capsys):
    # a harmonic functional has no certified l1 tail: (1, 0) never asks for it,
    # while a direction with q != 0 is refused with exit 2
    cfg = tmp_path / "harmonic.cfg"
    cfg.write_text(D1_CONFIG.replace('"inverse_square"', '"harmonic"'))
    args = ["scan", "--config", str(cfg), "--level", "3", "--no-cache"]
    assert main(args + ["--directions", "1,0", "--out", str(tmp_path / "a")]) == 0
    (record,) = read_jsonl(tmp_path / "a" / "scan.jsonl")
    assert (record["mu"], record["tail"], record["chain_holds"]) == ("1/1", "0/1", True)
    assert main(args + ["--directions", "1,0;1,1", "--out", str(tmp_path / "b")]) == 2
    record = _error_records(capsys)[-1]
    assert record["error"] == "invalid" and "no certified l1 tail" in record["message"]
    assert not (tmp_path / "b").exists()


def test_scan_served_from_the_cache_builds_no_table(d1_config, tmp_path, monkeypatch):
    def no_table(*args):
        raise AssertionError("a table was built for a cached scan")

    args = ["scan", "--config", str(d1_config), "--level", "3", "--circle", "4"]
    assert main(args + ["--out", str(tmp_path / "o")]) == 0
    monkeypatch.setattr(sp.construction, "_table", no_table)
    assert main(args + ["--out", str(tmp_path / "o")]) == 0


def test_scan_finalizes_each_record_once(d1_config, tmp_path, monkeypatch):
    # a cold call finalizes each bracket's fields for its cache entry and each
    # record in make_record; the writers and a warm call finalize nothing more
    import sawproj.cli
    import sawproj.records

    calls = []

    def counted(record):
        calls.append(record)
        return finalize(record)

    finalize = sawproj.records.finalize_record
    for module in (sawproj.cli, sawproj.records):
        monkeypatch.setattr(module, "finalize_record", counted)
    args = ["scan", "--config", str(d1_config), "--level", "3", "--directions", "1,0;0,1"]
    for expected in (4, 2):  # cold, then warm
        calls.clear()
        assert main(args + ["--out", str(tmp_path / "o")]) == 0
        assert len(calls) == expected


def test_scan_indexes_cached_directions_in_this_scan_order(d1_config, tmp_path):
    out = tmp_path / "out"
    for directions in ("1,0;0,1", "0,1;1,0"):  # the second scan is served from the cache
        args = ["scan", "--config", str(d1_config), "--level", "2", "--directions", directions]
        assert main(args + ["--out", str(out)]) == 0
    records = read_jsonl(out / "scan.jsonl")
    assert [(r["direction_index"], r["direction_p"]) for r in records] == [(0, "0/1"), (1, "1/1")]
    assert len(list((out / ".cache").iterdir())) == 2


@pytest.mark.parametrize("circle", ["0", "-3"])
def test_scan_rejects_circle_below_one(circle, d1_config, tmp_path, capsys):
    # used to exit 0 with an empty scan.jsonl and a 1-byte scan.csv
    out = tmp_path / "o"
    args = ["scan", "--config", str(d1_config), "--level", "2", "--out", str(out)]
    assert main(args + ["--circle", circle]) == 1
    (record,) = map(json.loads, capsys.readouterr().err.splitlines())
    assert record["error"] == "config" and record["exit_code"] == 1
    assert f"--circle must be at least 1, got {circle}" in record["message"]
    assert not out.exists()


def test_scan_checks_directions_before_any_work(d1_config, tmp_path, capsys):
    # a bad chunk after a good one used to end the scan only after the good
    # direction was measured and its cache entry written
    out = tmp_path / "o"
    args = ["scan", "--config", str(d1_config), "--level", "2", "--out", str(out)]
    rows = [(f"-1280,1848;{chunk}", chunk) for chunk in ("0,0", "0/3,0", "1/2", "1,2,3", "a,b", "")]
    rows.append(("", ""))  # an empty list used to scan the 64-direction circle
    for directions, chunk in rows:
        assert main(args + [f"--directions={directions}"]) == 2
        (record,) = map(json.loads, capsys.readouterr().err.splitlines())
        assert record["error"] == "invalid" and record["exit_code"] == 2
        assert repr(chunk) in record["message"] and '"p,q"' in record["message"]
    assert not out.exists()  # no output directory, so no cache entry


@pytest.mark.parametrize(
    "argv, message",
    [
        (["measure", "--config", "CFG", "--level", "abc"], "invalid int value: 'abc'"),
        (["measure", "--level", "2"], "required: --config"),
        (["frobnicate", "--config", "CFG"], "invalid choice: 'frobnicate'"),
        (["evaluate", "--config", "CFG", "--t", "-1/2"], "--t: expected one argument"),
    ],
)
def test_usage_errors_are_json_config_errors(argv, message, d1_config, tmp_path, capsys):
    out = tmp_path / "o"
    argv = [str(d1_config) if a == "CFG" else a for a in argv] + ["--out", str(out)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    (record,) = map(json.loads, captured.err.splitlines())
    assert record["error"] == "config" and record["exit_code"] == 1
    assert message in record["message"]
    assert not out.exists()


def test_help_still_prints_usage(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["measure", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: sawproj measure")


# every subcommand's help line and option strings, in the order --help lists them
SUBCOMMANDS = {
    "validate": ("check parameter invariants", ["--config", "--out"]),
    "evaluate": (
        "truncated point at a rational parameter", ["--config", "--out", "--t", "--level"],
    ),
    "measure": (
        "certified projection-measure bracket",
        ["--config", "--out", "--level", "--workers", "--budget", "--no-cache", "--pieces"],
    ),
    "scan": (
        "brackets across rational directions",
        ["--config", "--out", "--level", "--workers", "--budget", "--no-cache", "--circle",
         "--directions"],
    ),
    "curve": (
        "polygonal approximation CSV and length ledger",
        ["--config", "--out", "--level", "--vertex-budget"],
    ),
    "diagnose": (
        "named quantitative checks", ["--config", "--out", "--check", "--seed", "--samples"],
    ),
    "emit": ("convert stored records between formats", ["--records", "--format", "--out"]),
    "run": ("execute the command named in the config", ["--config"]),
}


def _help(capsys, *argv: str) -> str:
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 0
    return capsys.readouterr().out


def test_parser_keeps_every_subcommand_and_option(d1_config, tmp_path, capsys):
    # one parser builds every subcommand; what a user sees must not change
    import re

    listing = _help(capsys, "--help")
    for name, (summary, _) in SUBCOMMANDS.items():
        assert re.search(rf"^ +{name} +{re.escape(summary)}$", listing, re.M), name
    for name, (_, options) in SUBCOMMANDS.items():
        text = _help(capsys, name, "--help")
        assert re.findall(r"^  (--[a-z-]+)", text, re.M) == options, name
    # run builds the options of the command its config names: measure reads --pieces
    cfg = tmp_path / "run.cfg"
    cfg.write_text(D1_CONFIG + f'command = "measure"\nlevel = 2\nout = "{tmp_path / "o"}"\n')
    assert main(["run", "--config", str(cfg)]) == 0
    (record,) = read_jsonl(tmp_path / "o" / "measure.jsonl")
    assert record["level"] == 2
    capsys.readouterr()
    # an unknown option, or one of another subcommand, is one JSON record and exit 1
    for option in ("--bogus", "--pieces"):
        assert main(["diagnose", "--config", str(d1_config), option]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        (record,) = map(json.loads, captured.err.splitlines())
        assert record["error"] == "config" and record["exit_code"] == 1
        assert f"unrecognized arguments: {option}" in record["message"]


def test_measure_cache_transparency(d1_config, tmp_path):
    out = tmp_path / "out"
    args = ["measure", "--config", str(d1_config), "--level", "2", "--out", str(out)]
    assert main(args) == 0
    cold = (out / "measure.jsonl").read_bytes()
    assert any((out / ".cache").iterdir())
    assert main(args) == 0  # second run is served from the cache
    assert (out / "measure.jsonl").read_bytes() == cold
    assert main(args + ["--no-cache"]) == 0
    assert (out / "measure.jsonl").read_bytes() == cold


def test_rerun_byte_identical(d1_config, tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        assert (
            main(["measure", "--config", str(d1_config), "--level", "3", "--out", str(out)])
            == 0
        )
    assert (out_a / "measure.jsonl").read_bytes() == (out_b / "measure.jsonl").read_bytes()
    assert (out_a / "measure.csv").read_bytes() == (out_b / "measure.csv").read_bytes()


def test_curve_outputs(d2_config, tmp_path):
    out = tmp_path / "out"
    code = main(["curve", "--config", str(d2_config), "--level", "1", "--out", str(out)])
    assert code == 0
    csv_lines = (out / "curve.csv").read_text().splitlines()
    assert len(csv_lines) == 1 + 7  # header plus vertices
    ledger = read_jsonl(out / "curve.jsonl")
    assert ledger[0]["length"] == "5/4"
    assert ledger[1]["increment"] == "1/4"


def test_curve_csv_bytes_are_pinned(tmp_path):
    import hashlib
    from pathlib import Path

    config = Path(__file__).resolve().parent.parent / "configs" / "geometric_l1.cfg"
    out = tmp_path / "out"
    assert main(["curve", "--config", str(config), "--level", "3", "--out", str(out)]) == 0
    digest = hashlib.sha256((out / "curve.csv").read_bytes()).hexdigest()
    # recorded when write_csv still finalized every row before writing any
    assert digest == "ef70259a3584c9a996b0a7eebccf6137250f5ccb05ae05d4a4b0c41fa1e3efe6"


def test_curve_budget(d2_config, tmp_path):
    code = main(
        [
            "curve", "--config", str(d2_config), "--level", "4",
            "--vertex-budget", "10", "--out", str(tmp_path / "o"),
        ]
    )
    assert code == 3
    assert not (tmp_path / "o").exists()


def test_curve_vertex_budget_zero_is_honoured(d2_config, tmp_path, capsys):
    code = main(
        [
            "curve", "--config", str(d2_config), "--level", "1",
            "--vertex-budget", "0", "--out", str(tmp_path / "o"),
        ]
    )
    assert code == 3
    (record,) = _error_records(capsys)
    assert record["error"] == "budget" and record["budget"] == 0 and record["count"] == 7
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "command, key",
    [
        ("measure", "level"),
        ("scan", "level"),
        ("evaluate", "level"),
        ("curve", "level"),
        ("curve", "vertex_budget"),
        ("measure", "n_max"),
        ("validate", "n_max"),
        ("measure", "m.k"),
        ("validate", "m.values"),
        ("measure", "sqrt_precision_bits"),
        ("measure", "functional.sign"),
        ("validate", "functional.signs"),
    ],
)
def test_bad_config_integer_is_config_error(command, key, tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    config = D2_CONFIG if command == "curve" else D1_CONFIG
    if key == "m.values":
        config = config.replace('m.kind = "linear"\nm.k = 2\n', 'm.kind = "explicit"\n')
    # the bad value replaces the key's own line; list keys hold it after a good entry
    lines = [line for line in config.splitlines() if not line.startswith(f"{key} =")]
    value = "1,x" if key in ("m.values", "functional.signs") else "x"
    cfg.write_text("\n".join(lines) + f'\n{key} = "{value}"\n')
    args = [command, "--config", str(cfg), "--out", str(tmp_path / "o")]
    if command == "evaluate":
        args += ["--t", "1/3"]
    assert main(args) == 1
    (record,) = _error_records(capsys)
    assert record["error"] == "config" and record["exit_code"] == 1
    assert f"config key '{key}' must be an integer, got 'x'" in record["message"]


@pytest.mark.parametrize(
    "command, key, value, message",
    [
        ("measure", "alpha.a", '"x"', "config key 'alpha.a' must be a rational 'p/q', got 'x'"),
        ("curve", "alpha.r", '"1/0"', "config key 'alpha.r' must be a rational 'p/q', got '1/0'"),
        ("validate", "alpha.values", '"1/2,x"', "each entry of config key 'alpha.values' must be"),
        ("measure", "functional.alpha0", '"x"', "config key 'functional.alpha0' must be a rational"),
        ("measure", "functional.sign", "3", "config keys functional.*: sign must be +1 or -1"),
        ("measure", "functional.rule.a", '"-1"', "config keys functional.rule.*: sequence terms"),
        ("validate", "alpha.a", '"-1"', "config keys alpha.*: sequence terms must be nonnegative"),
        ("measure", "sqrt_precision_bits", "0", "sqrt_precision_bits must be at least 1, got 0"),
        ("evaluate", "sqrt_precision_bits", "0", "sqrt_precision_bits must be at least 1, got 0"),
    ],
)
def test_bad_config_value_is_config_error(command, key, value, message, tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    config = D2_CONFIG if command == "curve" else D1_CONFIG
    if key == "alpha.values":
        config = config.replace('alpha.kind = "harmonic"\nalpha.a = "1/2"\n', 'alpha.kind = "explicit"\n')
    lines = [line for line in config.splitlines() if not line.startswith(f"{key} =")]
    cfg.write_text("\n".join(lines) + f"\n{key} = {value}\n")
    args = [command, "--config", str(cfg), "--out", str(tmp_path / "o")]
    if command == "evaluate":
        args += ["--t", "1/3"]
    assert main(args) == 1
    (record,) = _error_records(capsys)
    assert record["error"] == "config" and record["exit_code"] == 1
    assert message in record["message"]
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "argv, line, message",
    [
        (["evaluate", "--t", "x"], "", "--t must be a rational 'p/q', got 'x'"),
        (["evaluate"], 't = "x"', "config key 't' must be a rational 'p/q', got 'x'"),
        (["diagnose"], "check = 5", "config key 'check' must be a quoted string, got 5"),
        (["diagnose", "--check=secant"], "seed = -1", "config key 'seed' must be nonnegative, got -1"),
    ],
    ids=["t-flag", "t-key", "check-key", "seed-key"],
)
def test_bad_setting_names_its_source(argv, line, message, tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(D2_CONFIG + line + "\n")
    assert main([*argv, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    (record,) = _error_records(capsys)
    assert record["error"] == "config" and record["exit_code"] == 1
    assert record["message"] == message
    assert not (tmp_path / "o").exists()


def test_cache_key_carries_engine_version(d1_config, tmp_path, monkeypatch):
    import sawproj.cli

    for command in ("measure", "scan"):
        out = tmp_path / command
        args = [command, "--config", str(d1_config), "--level", "2", "--out", str(out)]
        if command == "scan":
            args += ["--circle", "2"]
        monkeypatch.setattr(sawproj.cli, "__version__", "1.0.0")
        assert main(args) == 0
        written = sorted((out / ".cache").iterdir())
        cold = (out / f"{command}.jsonl").read_bytes()
        assert main(args) == 0  # same version: served from the cache
        assert sorted((out / ".cache").iterdir()) == written
        monkeypatch.setattr(sawproj.cli, "__version__", "1.0.1")
        assert main(args) == 0  # another version misses and writes new entries
        assert len(list((out / ".cache").iterdir())) == 2 * len(written)
        assert (out / f"{command}.jsonl").read_bytes() == cold


def test_cache_key_carries_engine_sources(d1_config, tmp_path):
    # __version__ stays put through engine rewrites, so an edited source must miss
    import os
    import shutil
    import subprocess
    import sys
    from pathlib import Path

    package = tmp_path / "src" / "sawproj"
    source = Path(sp.__file__).resolve().parent
    shutil.copytree(source, package, ignore=shutil.ignore_patterns("__pycache__"))
    env = dict(os.environ, PYTHONPATH=str(package.parent))
    out = tmp_path / "out"
    run = "import sys; from sawproj.cli import main; sys.exit(main(sys.argv[1:]))"
    args = ["measure", "--config", str(d1_config), "--level", "2", "--out", str(out)]

    def entries() -> list:
        subprocess.run([sys.executable, "-c", run, *args], env=env, check=True, timeout=120)
        return sorted((p.name, p.stat().st_mtime_ns) for p in (out / ".cache").iterdir())

    written = entries()
    cold = (out / "measure.jsonl").read_bytes()
    assert len(written) == 1 and entries() == written  # same sources: a hit, nothing rewritten
    with (package / "measure.py").open("a", encoding="utf-8") as fh:
        fh.write("# an edit that changes no result\n")
    assert len(entries()) == 2  # the edited engine misses and writes a new entry
    assert (out / "measure.jsonl").read_bytes() == cold


@pytest.mark.parametrize("samples", ["0", "-3"])
@pytest.mark.parametrize(
    "check",
    ["event-measure", "independence", "borel-cantelli", "slope-identity", "secant", "oscillation"],
)
def test_diagnose_rejects_sample_count_below_one(check, samples, d1_config, tmp_path, capsys):
    out = tmp_path / "o"
    args = ["diagnose", "--config", str(d1_config), "--check", check, "--out", str(out)]
    assert main(args + ["--samples", samples]) == 1
    (record,) = _error_records(capsys)
    assert record["error"] == "config" and "--samples must be at least 1" in record["message"]
    assert not out.exists()


def test_diagnose_refuses_samples_past_the_budget_before_any_output(d1_config, tmp_path, capsys):
    # event-measure draws no sample, so the call at the budget is cheap
    args = ["diagnose", "--config", str(d1_config), "--check", "event-measure"]
    budget = sp.errors.DEFAULT_SAMPLE_BUDGET
    assert budget == 2**18
    assert main(args + ["--samples", str(budget), "--out", str(tmp_path / "a")]) == 0
    out = tmp_path / "b"
    assert main(args + ["--samples", str(budget + 1), "--out", str(out)]) == 3
    (record,) = _error_records(capsys)
    assert record["error"] == "budget" and record["exit_code"] == 3
    assert (record["count"], record["budget"]) == (budget + 1, budget)
    assert not out.exists()


@pytest.mark.parametrize(
    "check", ["event-measure", "independence", "borel-cantelli", "secant", "oscillation"]
)
def test_diagnose_all_checks_pass(check, d1_config, tmp_path):
    out = tmp_path / "out"
    code = main(
        [
            "diagnose", "--config", str(d1_config), "--check", check,
            "--samples", "40", "--seed", "11", "--out", str(out),
        ]
    )
    assert code == 0
    records = read_jsonl(out / f"diagnose_{check.replace('-', '_')}.jsonl")
    assert records and all(r["passed"] for r in records)


def test_diagnose_checks(d1_config, tmp_path):
    out = tmp_path / "out"
    code = main(
        [
            "diagnose", "--config", str(d1_config), "--check", "slope-identity",
            "--samples", "50", "--seed", "7", "--out", str(out),
        ]
    )
    assert code == 0
    (record,) = read_jsonl(out / "diagnose_slope_identity.jsonl")
    assert record["passed_count"] == 50
    code = main(
        [
            "diagnose", "--config", str(d1_config), "--check", "event-measure",
            "--out", str(out),
        ]
    )
    assert code == 0
    assert main(
        ["diagnose", "--config", str(d1_config), "--check", "bogus", "--out", str(out)]
    ) == 1


@pytest.mark.parametrize(
    "check, n_max, needs",
    [
        ("secant", 3, "reads levels 4..7 and needs n_max >= 4"),
        ("borel-cantelli", 3, "reads levels 4..8 and needs n_max >= 4"),
        ("independence", 2, "reads levels 2..6 and needs n_max >= 3"),
        ("slope-identity", 1, "reads levels 1..5 and needs n_max >= 2"),
    ],
)
def test_diagnose_refuses_a_check_with_no_levels(check, n_max, needs, tmp_path, capsys):
    # each used to exit 0 with an empty or vacuously passing record file
    cfg = tmp_path / "shallow.cfg"
    args = ["diagnose", "--config", str(cfg), "--check", check, "--samples", "40"]
    cfg.write_text(D1_CONFIG.replace("n_max = 8", f"n_max = {n_max}"))
    assert main(args + ["--out", str(tmp_path / "o")]) == 2
    (record,) = _error_records(capsys)
    assert record["error"] == "invalid" and record["exit_code"] == 2
    assert f"--check {check} {needs}, got n_max = {n_max}" in record["message"]
    assert not (tmp_path / "o").exists()
    # one more level is enough for a check that reads something
    cfg.write_text(D1_CONFIG.replace("n_max = 8", f"n_max = {n_max + 1}"))
    assert main(args + ["--out", str(tmp_path / "p")]) == 0
    assert read_jsonl(tmp_path / "p" / f"diagnose_{check.replace('-', '_')}.jsonl")


@pytest.mark.parametrize(
    "values, odd", [("2,3,2", "m_2 = 3"), ("2,2,3", "m_3 = 3"), ("3,2,2", None)]
)
def test_slope_identity_refuses_odd_refinement_factors(values, odd, tmp_path, capsys):
    # the half-period shift of levels 1..2 needs m_2 and m_3 even; m_1 is free.
    # An odd one used to be sampled and then reported as a failing component
    cfg = tmp_path / "odd.cfg"
    grids = f'm.kind = "explicit"\nm.values = "{values}"'
    cfg.write_text(
        D1_CONFIG.replace('m.kind = "linear"\nm.k = 2', grids).replace("n_max = 8", "n_max = 3")
    )
    out = tmp_path / "o"
    code = main(["diagnose", "--config", str(cfg), "--check", "slope-identity", "--out", str(out)])
    if odd is None:
        assert code == 0 and read_jsonl(out / "diagnose_slope_identity.jsonl")
        return
    assert code == 2
    (record,) = _error_records(capsys)
    assert record["error"] == "invalid" and record["message"] == (
        f"--check slope-identity reads levels 1..2 and needs m_k even for 2 <= k <= 3, got {odd}"
    )
    assert not (out / "diagnose_slope_identity.jsonl").exists()


@pytest.mark.parametrize("check", ["event-measure", "independence"])
def test_diagnose_checks_event_sizes_before_building_any(check, tmp_path, monkeypatch, capsys):
    # with m_n = 4096 the level-3 event has 4096^2 + 1 components; event-measure
    # used to build the level-1 and level-2 events, then run out of memory on it
    def no_event(params, n):
        raise AssertionError(f"the level-{n} event was built")

    monkeypatch.setattr(sp.events, "event_set", no_event)
    cfg = tmp_path / "wide.cfg"
    config = D1_CONFIG.replace('m.kind = "linear"\nm.k = 2', 'm.kind = "constant"\nm.k = 4096')
    cfg.write_text(config.replace("n_max = 8", "n_max = 6"))
    out = tmp_path / "o"
    assert main(["diagnose", "--config", str(cfg), "--check", check, "--out", str(out)]) == 3
    (record,) = _error_records(capsys)
    assert record["error"] == "budget" and record["exit_code"] == 3
    assert (record["count"], record["budget"]) == (4096**2 + 1, 2**20)
    assert not out.exists()


def test_diagnose_independence_builds_each_event_once(d1_config, tmp_path, monkeypatch):
    built, event_set = [], sp.events.event_set

    def counted(params, n):
        built.append(n)
        return event_set(params, n)

    monkeypatch.setattr(sp.events, "event_set", counted)
    out = tmp_path / "o"
    args = ["diagnose", "--config", str(d1_config), "--check", "independence", "--out", str(out)]
    assert main(args) == 0
    assert built == [2, 3, 4, 5, 6]  # five builds for the ten pairs
    records = read_jsonl(out / "diagnose_independence.jsonl")
    assert [r["levels"] for r in records] == [f"{i},{j}" for i in range(2, 7) for j in range(i + 1, 7)]
    assert all(r["passed"] for r in records)


def test_diagnose_secant_checks_every_level_before_sampling_any(tmp_path, monkeypatch, capsys):
    # m_5 = 1 leaves level 5 without an eligible parameter; the check used to
    # sample 1000 level-4 witnesses before it refused level 5
    def no_sampler(params, n, samples, seed):
        raise AssertionError(f"level {n} was sampled")

    monkeypatch.setattr(sp.diagnostics, "sample_secant_witnesses", no_sampler)
    cfg = tmp_path / "flat.cfg"
    explicit = 'm.kind = "explicit"\nm.values = "2,2,2,2,1,2,2,2"'
    cfg.write_text(D1_CONFIG.replace('m.kind = "linear"\nm.k = 2', explicit))
    out = tmp_path / "o"
    assert main(["diagnose", "--config", str(cfg), "--check", "secant", "--out", str(out)]) == 2
    (record,) = map(json.loads, capsys.readouterr().err.splitlines())
    assert record["error"] == "invalid" and record["exit_code"] == 2
    assert "no eligible secant parameter at level 5: m_n = 1" in record["message"]
    assert not out.exists()


@pytest.mark.parametrize("command", ["validate", "measure", "curve", "diagnose", "run"])
def test_config_not_utf8_is_config_error(command, tmp_path, capsys):
    cfg = tmp_path / "latin1.cfg"
    cfg.write_bytes(D1_CONFIG.encode() + 'functional.name = "F\xe9"\n'.encode("latin-1"))
    args = [command, "--config", str(cfg)]
    if command != "run":
        args += ["--out", str(tmp_path / "o")]
    if command == "diagnose":
        args += ["--check", "event-measure"]
    assert main(args) == 1
    (record,) = _error_records(capsys)
    assert record["error"] == "config" and record["exit_code"] == 1
    assert "not UTF-8" in record["message"]
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "text, problem", [('{"a": \n', "not JSON"), ("[1,2]\n", "not a JSON object")]
)
def test_emit_bad_records_is_config_error(text, problem, tmp_path, capsys):
    records = tmp_path / "bad.jsonl"
    records.write_text('{"a": 1}\n' + text)
    for fmt in ("csv", "jsonl"):
        out = tmp_path / f"emitted.{fmt}"
        args = ["emit", "--records", str(records), "--format", fmt, "--out", str(out)]
        assert main(args) == 1
        (record,) = _error_records(capsys)
        assert record["error"] == "config" and record["exit_code"] == 1
        assert f"line 2: {problem}" in record["message"]
        assert not out.exists()


def test_emit_roundtrip(d1_config, tmp_path):
    out = tmp_path / "out"
    main(["measure", "--config", str(d1_config), "--level", "1", "--out", str(out)])
    code = main(
        [
            "emit", "--records", str(out / "measure.jsonl"),
            "--format", "csv", "--out", str(out / "emitted.csv"),
        ]
    )
    assert code == 0
    header = (out / "emitted.csv").read_text().splitlines()[0]
    assert "mu" in header and "mu_f64" in header
    code = main(
        [
            "emit", "--records", str(out / "measure.jsonl"),
            "--format", "jsonl", "--out", str(out / "emitted.jsonl"),
        ]
    )
    assert code == 0
    assert read_jsonl(out / "emitted.jsonl")[0]["mu"] == "9/16"


def test_run_dispatches_config_command(d1_config, tmp_path):
    out = tmp_path / "out"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        D1_CONFIG + f'command = "measure"\nlevel = 1\nout = "{out}"\n'
    )
    assert main(["run", "--config", str(cfg)]) == 0
    (record,) = read_jsonl(out / "measure.jsonl")
    assert record["mu"] == "9/16"


@pytest.mark.parametrize(
    "command, key",
    [
        ("curve", "level"),
        ("measure", "level"),
        ("scan", "level"),
        ("evaluate", "level"),
        ("diagnose", "seed"),
        ("diagnose", "samples"),
    ],
)
def test_run_bad_config_integer_is_config_error(command, key, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    extra = {"evaluate": 't = "1/3"\n', "diagnose": 'check = "slope-identity"\n'}
    cfg.write_text(
        D2_CONFIG
        + f'command = "{command}"\n{key} = "x"\nout = "{tmp_path / "o"}"\n'
        + extra.get(command, "")
    )
    assert main(["run", "--config", str(cfg)]) == 1
    (record,) = _error_records(capsys)
    assert record["error"] == "config" and record["exit_code"] == 1
    assert f"config key '{key}' must be an integer, got 'x'" in record["message"]


@pytest.mark.parametrize("command", ["run", "emit"])
def test_run_refuses_commands_that_read_no_config(command, tmp_path, monkeypatch, capsys):
    # dispatched, `run` would call itself until RecursionError; `emit` has no --config
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "job.cfg"
    cfg.write_text(D1_CONFIG + f'command = "{command}"\n')
    assert main(["run", "--config", str(cfg)]) == 1
    (record,) = map(json.loads, capsys.readouterr().err.splitlines())
    assert record["error"] == "config" and record["exit_code"] == 1
    assert record["message"] == f"config 'command' must name a subcommand, got {command!r}"
    assert [p.name for p in tmp_path.iterdir()] == ["job.cfg"]


# config keys every job of a command holds, except the one its row is about
BASE_SETTINGS = {"evaluate": {"t": '"1/3"'}, "diagnose": {"check": '"slope-identity"', "samples": "20"}}


def _required(name: str) -> str:
    return f"--{name.replace('_', '-')} or config key {name!r} is required"


# (command, setting, flag value, config value, shown with both, with the config key
# only, with neither); a budget shows as the budget of a refused call, None if it ran
SETTING_SOURCES = [
    *[(command, "level", "2", "3", 2, 3, 1) for command in ("measure", "scan", "curve")],
    ("evaluate", "level", "2", "3", 2, 3, 12),  # n_max
    ("evaluate", "t", "1/3", '"1/4"', "1/3", "1/4", _required("t")),
    ("evaluate", "t", "1/2", "0", "1/2", "0/1", _required("t")),  # an unquoted integer is rational
    # level 1 has 4 pieces and 7 vertices: the flag admits them, the config key does not
    ("measure", "budget", "4", "3", None, 3, None),
    ("scan", "budget", "4", "3", None, 3, None),
    ("curve", "vertex_budget", "7", "6", None, 6, None),
    ("diagnose", "check", "slope-identity", '"oscillation"', "slope-identity", "oscillation",
     _required("check")),
    ("diagnose", "seed", "5", "7", 5, 7, 20260811),
    ("diagnose", "samples", "5", "6", 5, 6, 1000),
    *[
        (command, "out", "a", '"b"', "a", "b", "out")
        for command in ("validate", "evaluate", "measure", "scan", "curve", "diagnose")
    ],
]


def _call(argv, cwd, monkeypatch, capsys) -> tuple:
    """Exit code, error records and written files of one call made in the new directory cwd."""
    cwd.mkdir()
    with monkeypatch.context() as m:
        m.chdir(cwd)
        code = main(argv)
    files = {str(p.relative_to(cwd)): p.read_bytes() for p in sorted(cwd.rglob("*")) if p.is_file()}
    return code, _error_records(capsys), files


def _shown(setting: str, result: tuple):
    """The value of `setting` a call shows: in its first record, its output directory
    or the record of its refusal."""
    code, errors, files = result
    if errors:
        (record,) = errors
        return record["budget"] if record["error"] == "budget" else record["message"]
    assert code == 0
    if setting == "out":
        (directory,) = {name.split("/")[0] for name in files}
        return directory
    (records,) = [blob for name, blob in files.items() if name.endswith(".jsonl")]
    return json.loads(records.splitlines()[0]).get(setting)


@pytest.mark.parametrize(
    "command, setting, flag, key, both, config_only, neither",
    SETTING_SOURCES,
    ids=[f"{row[0]}-{row[1]}-{row[3].strip(chr(34))}" for row in SETTING_SOURCES],
)
def test_setting_comes_from_flag_else_config_key_else_default(
    command, setting, flag, key, both, config_only, neither, tmp_path, monkeypatch, capsys
):
    base = {k: v for k, v in BASE_SETTINGS.get(command, {}).items() if k != setting}
    if setting != "out":
        base["out"] = '"o"'
    job = "".join(f"{k} = {v}\n" for k, v in base.items())
    plain, with_key = tmp_path / "plain.cfg", tmp_path / "key.cfg"
    plain.write_text(D2_CONFIG + job)
    with_key.write_text(D2_CONFIG + job + f"{setting} = {key}\n")
    flag_args = [f"--{setting.replace('_', '-')}={flag}"]

    def shown(cfg, name, *flags):
        return _shown(setting, _call([command, "--config", str(cfg), *flags], tmp_path / name, monkeypatch, capsys))

    assert shown(with_key, "both", *flag_args) == both
    assert shown(with_key, "key") == config_only
    assert shown(plain, "neither") == neither
    # `run` reads the job as the command itself does, and writes the same bytes
    run = tmp_path / "run.cfg"
    run.write_text(with_key.read_text() + f'command = "{command}"\n')
    direct = _call([command, "--config", str(run)], tmp_path / "direct", monkeypatch, capsys)
    assert _call(["run", "--config", str(run)], tmp_path / "run", monkeypatch, capsys) == direct
    assert _shown(setting, direct) == config_only


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def test_shipped_configs_validate(tmp_path):
    from pathlib import Path

    configs = Path(__file__).resolve().parent.parent / "configs"
    for name in ("harmonic_l2.cfg", "geometric_l1.cfg"):
        code = main(
            ["validate", "--config", str(configs / name), "--out", str(tmp_path / name[:4])]
        )
        assert code == 0


CHECKS = ["event-measure", "independence", "borel-cantelli", "slope-identity", "secant", "oscillation"]


@pytest.mark.parametrize("check", CHECKS)
def test_diagnose_rejects_negative_seed(check, d1_config, tmp_path, capsys):
    # Random seeds from abs(), so --seed=-1 would write --seed 1's sample
    out = tmp_path / "o"
    args = ["diagnose", "--config", str(d1_config), "--check", check, "--out", str(out)]
    assert main(args + ["--seed=-1"]) == 1
    (record,) = _error_records(capsys)
    assert record["error"] == "config" and "--seed must be nonnegative" in record["message"]
    assert not out.exists()


# sha256 of outputs of the shipped configs, recorded when curve rows, piece rows
# and the sampled diagnostics were still built from one Fraction per value
OUTPUT_DIGESTS = {
    "curve.csv": "dccc6e7ae5cf6a30e18942860defc400d155c3a9e17f7e422b2eabc69c0e804a",
    "diagnose_borel_cantelli.jsonl": "f0fde1e9668615cf0ac1659f893261373d5a7d2637b544a7f93753d74e5afcc5",
    "diagnose_event_measure.jsonl": "6a927b9d0c9a599a169fc8d819817b088ccef7614787bc2c1cb4637645c84f85",
    "diagnose_independence.jsonl": "44900daa811d09ddab28156414cbe397153967c6fe604a808eb3b9b7509a75a0",
    "diagnose_oscillation.jsonl": "4c7d3dd0b6d06599b5867805cc355ceb21d8a2f3770a58e9fdf4ac51e20e1f70",
    "diagnose_secant.jsonl": "91a1af770833451c3c628bf8da502e21291ece8401e3a9d0152f2b02edf2195e",
    "diagnose_slope_identity.jsonl": "8c69fb6fa40e10383cb42d83e112be57cf002439392f73f9e615dab2c5793107",
    "pieces.csv": "36f0f90bc07a0fdd8d5883bc80815de00684eafd828b0cd23ab100666fe9293c",
}


def test_output_bytes_are_pinned(tmp_path):
    import hashlib
    from pathlib import Path

    configs = Path(__file__).resolve().parent.parent / "configs"
    l1, l2 = str(configs / "geometric_l1.cfg"), str(configs / "harmonic_l2.cfg")
    out = ["--out", str(tmp_path)]
    assert main(["curve", "--config", l1, "--level", "5"] + out) == 0
    for check in CHECKS:  # default samples
        assert main(["diagnose", "--config", l2, "--check", check, "--seed", "1"] + out) == 0
    assert main(["measure", "--config", l2, "--level", "4", "--pieces", "--no-cache"] + out) == 0
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in OUTPUT_DIGESTS
    }
    assert digests == OUTPUT_DIGESTS


# (argv, config, JSONL file, its kinds in the order their runs of lines appear)
ENVELOPE_CASES = [
    pytest.param(["validate"], "harmonic_l2", "validate", ["validate", "validate_summary"],
                 id="validate"),
    pytest.param(["evaluate", "--t", "3/8", "--level", "4"], "harmonic_l2", "evaluate",
                 ["evaluate"], id="evaluate"),
    pytest.param(["measure", "--level", "2", "--no-cache"], "harmonic_l2", "measure",
                 ["measure"], id="measure"),
    pytest.param(["scan", "--level", "3", "--directions", "1,0;0,1;-1,2", "--no-cache"],
                 "harmonic_l2", "scan", ["scan"], id="scan"),
    pytest.param(["curve", "--level", "2"], "geometric_l1", "curve",
                 ["curve_length", "curve_increment"], id="curve"),
] + [
    pytest.param(["diagnose", "--check", check, "--samples", "5"], "harmonic_l2",
                 "diagnose_" + check.replace("-", "_"), ["diagnose"], id=f"diagnose-{check}")
    for check in CHECKS
]


@pytest.mark.parametrize("argv, config, name, kinds", ENVELOPE_CASES)
def test_every_record_carries_the_envelope_and_emits_back_byte_for_byte(
    argv, config, name, kinds, tmp_path
):
    from itertools import groupby
    from pathlib import Path

    cfg = Path(__file__).resolve().parent.parent / "configs" / f"{config}.cfg"
    out = tmp_path / "out"
    assert main(argv + ["--config", str(cfg), "--out", str(out)]) == 0
    records = read_jsonl(out / f"{name}.jsonl")
    assert all(r["schema_version"] == 1 for r in records)
    assert [kind for kind, _ in groupby(r["kind"] for r in records)] == kinds
    emitted = tmp_path / "emitted.jsonl"
    args = ["emit", "--records", str(out / f"{name}.jsonl"), "--format", "jsonl"]
    assert main(args + ["--out", str(emitted)]) == 0
    assert emitted.read_bytes() == (out / f"{name}.jsonl").read_bytes()


def _curve_case(alpha0: F):
    params = sp.ParameterSet(
        alpha=sp.geometric(F(1, 2), F(1, 2)), m=sp.explicit_refinement([2, 3]), n_max=2, model="L1"
    )
    return params, sp.Functional(alpha0=alpha0, rule=sp.geometric(F(1, 5), F(1, 5)), name="C"), 2


# coordinate 0 is t when alpha0 = 1, and the writer reuses t's cells for it
@settings(max_examples=60)
@given(curve_cases())
@example(case=_curve_case(F(1)))
@example(case=_curve_case(F(1, 2)))
def test_curve_csv_matches_fraction_rows(tmp_path_factory, case):
    params, functional, level = case
    out = tmp_path_factory.mktemp("curve")
    config = out / "c.cfg"
    config.write_text(
        emit_config_text({**params_to_config(params), **functional_to_config(functional)})
    )
    assert main(["curve", "--config", str(config), "--level", str(level), "--out", str(out)]) == 0
    rows = [finalize_record(r) for r in curve_rows_oracle(params, functional, level)]
    write_csv(rows, out / "oracle.csv")
    assert (out / "curve.csv").read_bytes() == (out / "oracle.csv").read_bytes()


def test_streamed_csv_lines_need_no_quoting(tmp_path):
    """curve.csv and pieces.csv are written as comma-joined lines, not through
    csv.writer, so every line must read back as exactly its split on commas."""
    import csv
    from pathlib import Path

    configs = Path(__file__).resolve().parent.parent / "configs"
    out = ["--out", str(tmp_path)]
    assert main(["curve", "--config", str(configs / "geometric_l1.cfg"), "--level", "4"] + out) == 0
    l2 = str(configs / "harmonic_l2.cfg")
    assert main(["measure", "--config", l2, "--level", "4", "--pieces", "--no-cache"] + out) == 0
    for name in ("curve.csv", "pieces.csv"):
        lines = (tmp_path / name).read_text(encoding="utf-8").splitlines()
        assert list(csv.reader(lines)) == [line.split(",") for line in lines]


# Run main in a fresh interpreter (pytest has imported every module already)
# and report which sawproj modules the command loaded.
LOADED_MODULES = """\
import json, sys
from sawproj.cli import main
try:
    main(sys.argv[1:])
except SystemExit:
    pass
SLOW_STDLIB = {"dataclasses", "inspect"}  # no record type or command needs them
print(json.dumps(sorted(m for m in sys.modules if m.startswith("sawproj.") or m in SLOW_STDLIB)))
"""


def test_each_command_loads_only_its_engine_modules(d1_config, d2_config, tmp_path, fresh_env):
    import subprocess
    import sys

    def loaded_by(*args: str) -> set[str]:
        run = subprocess.run(
            [sys.executable, "-c", LOADED_MODULES, *args],
            env=fresh_env, capture_output=True, text=True, timeout=120, check=True,
        )
        return {m.removeprefix("sawproj.") for m in json.loads(run.stdout.splitlines()[-1])}

    out = ["--out", str(tmp_path)]
    d1 = ["--config", str(d1_config)]
    measure = loaded_by("measure", *d1, "--level", "2", "--no-cache", *out)
    scan = loaded_by("scan", *d1, "--level", "2", "--circle", "2", *out)
    for loaded in (measure, scan):
        assert {"construction", "measure"} <= loaded
        assert not loaded & {"curve", "diagnostics", "events"}
    curve = loaded_by("curve", "--config", str(d2_config), "--level", "2", *out)
    assert "curve" in curve and not curve & {"measure", "diagnostics", "events"}
    checks = {
        check: loaded_by("diagnose", *d1, "--check", check, "--samples", "5", *out)
        for check in ("event-measure", "independence", "borel-cantelli", "slope-identity",
                      "secant", "oscillation")
    }
    # only the event checks build interval unions, from events alone; the sampled checks
    # read the components through params, so no check loads construction. diagnostics
    # binds event_set and independence_check for the perfbench hooks, so the sampled
    # checks load events as well, but not intervals.
    event_checks = ("event-measure", "independence")
    for check, loaded in checks.items():
        assert "events" in loaded and not loaded & {"measure", "curve", "construction"}, check
        assert ("intervals" in loaded) == (check in event_checks), check
        assert ("diagnostics" in loaded) == (check not in event_checks), check
    # run parses its command with the same parser, so it loads what that command loads
    job = tmp_path / "job.cfg"
    job.write_text(D1_CONFIG + 'command = "diagnose"\ncheck = "secant"\nsamples = 5\n'
                   f'out = "{tmp_path / "run"}"\n')
    assert loaded_by("run", "--config", str(job)) == checks["secant"]
    assert (tmp_path / "run" / "diagnose_secant.jsonl").is_file()
    version = loaded_by("--version")
    engine = {"construction", "intervals", "measure", "curve", "diagnostics", "events"}
    assert "cli" in version and not version & engine
    # the validation and covering certificates load only for the command that runs them
    validate = loaded_by("validate", *d1, *out)
    assert "certificates" in validate and "intervals" not in validate
    for loaded in (measure, scan, curve, version, *checks.values()):
        assert "certificates" not in loaded
        assert not loaded & {"dataclasses", "inspect"}
    written = ("measure.jsonl", "diagnose_secant.jsonl", "diagnose_event_measure.jsonl")
    assert all((tmp_path / name).is_file() for name in written)
    assert (tmp_path / "validate.jsonl").is_file()
