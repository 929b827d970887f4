import csv
import io
import json
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import sawproj as sp
from sawproj.errors import ConfigError
from sawproj.records import (
    SCHEMA_VERSION,
    content_hash,
    dumps_record,
    emit_config_text,
    export_pieces_csv,
    finalize_record,
    functional_from_config,
    functional_to_config,
    make_record,
    params_from_config,
    params_to_config,
    parse_config_text,
    ratio_cells,
    read_jsonl,
    write_csv,
    write_jsonl,
)
from sawproj.rational import format_rational

from oracles import direction_functional, piece_rows_oracle

F = Fraction


def test_config_text_roundtrip():
    doc = {"alpha.kind": "harmonic", "alpha.a": "1/2", "n_max": 8}
    text = emit_config_text(doc)
    assert parse_config_text(text) == doc


def test_config_parser_rejects_malformed_lines():
    with pytest.raises(ConfigError):
        parse_config_text("key value\n")
    with pytest.raises(ConfigError):
        parse_config_text("k = not_quoted_string\n")
    with pytest.raises(ConfigError):
        parse_config_text("k = 1\nk = 2\n")
    assert parse_config_text("# comment\n\nk = 3\n") == {"k": 3}


def test_params_roundtrip(d1, d2):
    for params in (d1, d2):
        doc = params_to_config(params)
        assert params_from_config(parse_config_text(emit_config_text(doc))) == params


def test_params_roundtrip_explicit_rules():
    params = sp.ParameterSet(
        alpha=sp.explicit([F(1, 2), F(1, 4)], F(0), F(0)),
        m=sp.explicit_refinement([2, 4]),
        n_max=2,
        model="L1",
    )
    doc = params_to_config(params)
    assert params_from_config(parse_config_text(emit_config_text(doc))) == params


def test_functional_roundtrip(f1):
    doc = functional_to_config(f1)
    assert functional_from_config(parse_config_text(emit_config_text(doc))) == f1
    signed = sp.Functional(
        alpha0=F(-1, 3), rule=sp.explicit([F(1, 2)], F(0), F(0)), sign=-1, signs=(-1,)
    )
    doc = functional_to_config(signed)
    assert functional_from_config(parse_config_text(emit_config_text(doc))) == signed


def _pinned_documents():
    """(label, config document) pairs whose hashes feed cache keys and functional_id."""
    from pathlib import Path

    from sawproj.records import load_config

    configs = Path(__file__).resolve().parent.parent / "configs"
    for name in ("harmonic_l2", "geometric_l1"):
        doc = load_config(configs / f"{name}.cfg")
        yield f"{name} params", params_to_config(params_from_config(doc))
        yield f"{name} functional", functional_to_config(functional_from_config(doc))
    explicit_params = sp.ParameterSet(
        alpha=sp.explicit([F(1, 2), F(1, 4), F(1, 8)], F(1, 16), F(1, 64)),
        m=sp.explicit_refinement([2, 4, 6]),
        n_max=3,
        model="L1",
        sqrt_bits=80,
    )
    yield "explicit params", params_to_config(explicit_params)
    constant_params = sp.ParameterSet(
        sp.inverse_square(F(1, 3)), sp.constant_refinement(4), 5, model="L2"
    )
    yield "constant params", params_to_config(constant_params)
    signed = sp.Functional(
        alpha0=F(-1, 3), rule=sp.geometric(F(1, 3), F(1, 5)), sign=-1, signs=(1, -1, -1)
    )
    yield "signed functional", functional_to_config(signed)
    unnamed = sp.Functional(
        alpha0=F(-1, 3), rule=sp.explicit([F(1, 2), F(1, 4)], F(1, 8)), sign=-1, signs=(1, -1)
    )
    yield "unnamed functional", functional_to_config(unnamed)
    yield "turned unnamed", functional_to_config(direction_functional(unnamed, F(1, 2), F(-3)))
    turned = direction_functional(sp.inverse_square_functional(), F(3), F(-2))
    yield "turned F1", functional_to_config(turned)


# recorded before the config writer moved into records.py; a change here changes
# every cache key and every unnamed functional_id
PINNED_CONFIG_HASHES = {
    "harmonic_l2 params": "b8fadffc44dbd355ada6022c1f34fc019f8efd54c62b7174010ec86439a7b459",
    "harmonic_l2 functional": "da8ff28a4cc278e2f1d2076e2609e061c70f2bac5297001f7f5f6452802dd1f0",
    "geometric_l1 params": "f795538f0978ecb00e452c1f3f9075efce97cdad70e6fee2a6702b78a3a2d790",
    "geometric_l1 functional": "dbad50290ba73b96a418c519e5fb0d5392743b9c15a6812959e46426fa0ddcdc",
    "explicit params": "6a20616341ed31c49976d39258f4a376904bab79df0ca2be72aaebc3c5f107ee",
    "constant params": "3cdc26bd32884048474496042367870f69e8a60f9a561428a74c07c23a68dcaf",
    "signed functional": "c04da9980cc817fb2c23e6f9b48f8a32fb7f6bc0b62ab42068b4bc8f2b4ede2d",
    "unnamed functional": "3a86824a47a9de86e307426b8fe49cb2f1f32a2a345320745da9be54dd2a3915",
    "turned unnamed": "743c9260f84d433c28ac1739e9364631fc583c88aa6f311d3f1f837ccc4e2950",
    "turned F1": "60cb421f5055dce37adaa212c19379ddc5ca18d45ca3aa643ba371ce0dd31631",
}


def test_config_document_hashes_are_pinned():
    hashes = {label: content_hash(doc) for label, doc in _pinned_documents()}
    assert hashes == PINNED_CONFIG_HASHES


TERMS = st.fractions(min_value=0, max_value=4, max_denominator=50)
RATIOS = st.fractions(min_value=0, max_value=1, max_denominator=50).filter(lambda r: r < 1)


@st.composite
def sequence_rules(draw, min_terms: int):
    """Every rule kind, built the way the package builds it."""
    kind = draw(st.sampled_from(["harmonic", "inverse_square", "geometric", "explicit"]))
    if kind == "harmonic":
        return sp.harmonic(draw(TERMS))
    if kind == "inverse_square":
        return sp.inverse_square(draw(TERMS))
    if kind == "geometric":
        return sp.geometric(draw(TERMS), draw(RATIOS))
    values = draw(st.lists(TERMS, min_size=min_terms, max_size=min_terms + 3))
    return sp.explicit(values, draw(st.none() | TERMS), draw(st.none() | TERMS))


@st.composite
def parameter_sets(draw):
    n_max = draw(st.integers(1, 6))
    kind = draw(st.sampled_from(["linear", "constant", "explicit"]))
    if kind == "explicit":
        factors = st.lists(st.integers(1, 8), min_size=n_max, max_size=n_max + 2)
        m = sp.explicit_refinement(draw(factors))
    else:
        m = sp.RefinementRule(kind, k=draw(st.integers(1, 8)))
    return sp.ParameterSet(
        alpha=draw(sequence_rules(n_max)),
        m=m,
        n_max=n_max,
        model=draw(st.sampled_from(["L1", "L2"])),
        sqrt_bits=draw(st.integers(1, 128)),
    )


@st.composite
def functionals(draw):
    return sp.Functional(
        alpha0=draw(st.fractions(min_value=-4, max_value=4, max_denominator=50)),
        rule=draw(sequence_rules(0)),
        sign=draw(st.sampled_from([-1, 1])),
        signs=tuple(draw(st.lists(st.sampled_from([-1, 1]), max_size=4))),
        name=draw(st.text(max_size=12)),
    )


@settings(max_examples=300)
@given(parameter_sets(), functionals())
@example(sp.harmonic_l2_preset(), sp.Functional(F(0), sp.harmonic(F(0)), name="\r"))
@example(sp.harmonic_l2_preset(), sp.Functional(F(0), sp.harmonic(F(0)), name='x"\nn_max = 9'))
def test_config_roundtrip_property(params, functional):
    doc = {**params_to_config(params), **functional_to_config(functional)}
    quoted = f'"{functional.name}"'
    if quoted.splitlines() != [quoted]:
        # a name with a line break cannot be written as one config line
        with pytest.raises(ConfigError):
            emit_config_text(doc)
        return
    doc = parse_config_text(emit_config_text(doc))
    assert params_from_config(doc) == params
    assert functional_from_config(doc) == functional


def test_rationals_travel_as_strings_never_floats(f1):
    doc = functional_to_config(f1)
    assert doc["functional.alpha0"] == "1/2"
    record = finalize_record({"mu": F(9, 16), "level": 1})
    assert record["mu"] == "9/16"
    assert record["mu_f64"] == 0.5625
    assert dumps_record(finalize_record({"mu": F(1, 3)})) == (
        '{"mu":"1/3","mu_f64":0.3333333333333333}'
    )


FRACTIONS = st.builds(F, st.integers(-(2**200), 2**200), st.integers(1, 2**200))
FIELD_VALUES = (
    FRACTIONS | st.lists(FRACTIONS, max_size=4) | st.integers() | st.booleans() | st.text()
)


# keys drawn from a small alphabet, so "a" meets "a_f64" as well as other keys
@settings(max_examples=300)
@given(st.dictionaries(st.text("ab_f64", max_size=6), FIELD_VALUES, max_size=6))
@example({"a": F(1, 3), "a_f64": True})
@example({"a": [F(1, 2)], "a_f64": F(-1, 3)})
def test_finalize_is_idempotent_and_survives_json(record):
    # make_record finalizes the bracket fields a cache entry stored finalized
    once = finalize_record(record)
    assert finalize_record(once) == once
    assert json.loads(dumps_record(once)) == once


def test_make_record_owns_the_envelope():
    # a cache entry carries its own schema_version; the envelope's wins over it
    record = make_record("measure", schema_version=0, mu=F(1, 2))
    assert record == {
        "schema_version": SCHEMA_VERSION, "kind": "measure", "mu": "1/2", "mu_f64": 0.5
    }


def test_jsonl_roundtrip(tmp_path):
    records = [finalize_record({"a": F(1, 2), "b": 7}), finalize_record({"a": F(3, 4), "b": 8})]
    path = tmp_path / "r.jsonl"
    write_jsonl(records, path)
    loaded = read_jsonl(path)
    assert [r["a"] for r in loaded] == ["1/2", "3/4"]


def test_content_hash_is_order_insensitive():
    assert content_hash({"a": 1, "b": 2}) == content_hash({"b": 2, "a": 1})
    assert content_hash({"a": 1}) != content_hash({"a": 2})


def test_write_csv_matches_finalized_rows(tmp_path):
    records = [
        {"c": 5, "a": F(1, 3), "b": [F(1, 2), F(-3, 2)]},
        {"c": 6, "d": "x", "e": [], "a_f64": 0.25},
        {"a": 2, "f": True},
    ]
    finalized = [finalize_record(r) for r in records]
    write_csv(finalized, tmp_path / "rows.csv")
    fields = sorted({key for rec in finalized for key in rec})
    expected = io.StringIO()
    writer = csv.DictWriter(expected, fieldnames=fields, lineterminator="\n")
    writer.writeheader()
    for rec in finalized:
        writer.writerow(
            {k: ";".join(map(str, v)) if isinstance(v, list) else v for k, v in rec.items()}
        )
    assert (tmp_path / "rows.csv").read_text(encoding="utf-8") == expected.getvalue()


def test_export_pieces_csv(tmp_path, d1, f1):
    pl = sp.build_pl(d1, f1, 1)
    count = export_pieces_csv(pl, tmp_path / "pieces.csv")
    assert count == 4
    lines = (tmp_path / "pieces.csv").read_text().splitlines()
    assert len(lines) == 5
    header = lines[0].split(",")
    for column in ("piece_index", "left_endpoint", "slope", "left_value", "jump_at_left"):
        assert column in header
        if column != "piece_index":
            assert f"{column}_f64" in header


def test_export_pieces_csv_streams_in_bounded_memory(tmp_path, d1, f1):
    """The level-5 piece rows (7,680 of them) stream from the table: under
    100 kB of traced allocations, where one period of q_1 = 3,840 (value,
    limit) pairs held at once would take more than 400 kB."""
    import tracemalloc

    pl = sp.build_pl(d1, f1, 5)
    tracemalloc.start()
    try:
        assert export_pieces_csv(pl, tmp_path / "pieces.csv") == 7680
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000


BIG = st.integers(-(2**200), 2**200)


@settings(max_examples=500)
@given(BIG, BIG.filter(lambda d: d > 0))
@example(6, 4)  # a common factor
@example(0, 7)
@example(-(3**90), 2**100)  # a float rounded from large integers
def test_ratio_cells_match_fraction_cells(num, den):
    value = F(num, den)
    assert ratio_cells(num, den) == f"{format_rational(value)},{float(value)!r}"


@st.composite
def piece_tables(draw):
    """An explicit grid (factors 1..5, odd and 1 included), signed rational
    coefficients and a level with at most 2000 pieces."""
    factors = draw(st.lists(st.integers(1, 5), min_size=1, max_size=4))
    level = draw(st.integers(0, len(factors)))
    params = sp.ParameterSet(
        alpha=sp.explicit([0] * len(factors), 0, 0),
        m=sp.explicit_refinement(factors),
        n_max=len(factors),
        model="L2",
    )
    assume(2 * params.grid_size(level) <= 2000)
    coeffs = draw(
        st.lists(st.fractions(-3, 3, max_denominator=9), min_size=level, max_size=level)
    )
    functional = sp.Functional(
        alpha0=draw(st.fractions(-3, 3, max_denominator=9)),
        rule=sp.explicit([abs(c) for c in coeffs], 0, 0),
        signs=tuple(-1 if c < 0 else 1 for c in coeffs),
    )
    return params, functional, level


@settings(max_examples=100)
@given(piece_tables())
def test_export_pieces_csv_matches_fraction_rows(tmp_path_factory, case):
    params, functional, level = case
    out = tmp_path_factory.mktemp("pieces")
    pl = sp.build_pl(params, functional, level)
    assert export_pieces_csv(pl, out / "pieces.csv") == pl.piece_count
    write_csv([finalize_record(r) for r in piece_rows_oracle(params, functional, level)],
              out / "oracle.csv")
    assert (out / "pieces.csv").read_bytes() == (out / "oracle.csv").read_bytes()
