#!/usr/bin/env python3
"""Re-run the recorded mutation checks: every mutant must fail its named tests.

Each entry of MUTANTS names a mutant, the file it edits, an exact snippet that
occurs once in that file, the snippet's replacement and the pytest node ids
that must fail. The script copies the repository to a temporary directory and
first runs all named node ids on the unmutated copy, which must pass. Then it
applies one mutant at a time and runs all of its node ids in one pytest
process, reading each node's outcome from pytest's junit XML report. It exits
1 if a snippet no longer occurs exactly once, a node id does not pass on the
unmutated copy, or a node id passes (or is not reported) under its mutant.
A stale snippet is reported, never skipped.

Usage, from anywhere: python3 tools/mutants.py  (standard library only; the
tests need pytest and hypothesis)
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple
from xml.etree import ElementTree

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    path: str
    snippet: str
    replacement: str
    tests: tuple[str, ...]


CURVE, CONSTRUCTION = "src/sawproj/curve.py", "src/sawproj/construction.py"
PARAMS, CERTIFICATES = "src/sawproj/params.py", "src/sawproj/certificates.py"
MEASURE, INTERVALS = "src/sawproj/measure.py", "src/sawproj/intervals.py"
DIAGNOSTICS, CLI = "src/sawproj/diagnostics.py", "src/sawproj/cli.py"
RECORDS, SEQUENCES = "src/sawproj/records.py", "src/sawproj/sequences.py"
EVENTS = "src/sawproj/events.py"
TEST_CURVE, TEST_CONSTRUCTION = "tests/test_curve.py::", "tests/test_construction.py::"
TEST_MEASURE, TEST_INTERVALS = "tests/test_measure.py::", "tests/test_intervals.py::"
TEST_PARAMS, TEST_DIAGNOSTICS = "tests/test_params.py::", "tests/test_diagnostics.py::"
TEST_CLI, TEST_SEQUENCES = "tests/test_cli.py::", "tests/test_sequences.py::"
TEST_ACCEPTANCE = "tests/test_acceptance.py::"

LEVEL_CHECK = TEST_PARAMS + "test_level_outside_range_raises_the_owners_message"
ENVELOPE = TEST_CLI + "test_every_record_carries_the_envelope_and_emits_back_byte_for_byte"

MUTANTS = (
    Mutant(
        "grid_size: the upper end of the level range dropped",
        PARAMS,
        "if not 0 <= n <= self.n_max:",
        "if not 0 <= n:",
        (LEVEL_CHECK + "[truncated_point-above]", LEVEL_CHECK + "[build_pl-above]"),
    ),
    Mutant(
        "refinement_factor: level 0 let through",
        PARAMS,
        "if not 1 <= n <= self.n_max:",
        "if not 0 <= n <= self.n_max:",
        (LEVEL_CHECK + "[event_set-below]", LEVEL_CHECK + "[length_increment-below]"),
    ),
    Mutant(
        "sup_distance: a left limit on a lower grid point read as the value there",
        CURVE,
        "        if v % 3 == 2 and r == 0 and x % 2 == 0:\n            pos -= 1\n",
        "",
        (
            TEST_CURVE + "test_sup_distance_enumeration_matches_closed_form",
            TEST_CURVE + "test_sup_distance_matches_the_point_oracle_and_closed_form",
        ),
    ),
    Mutant(
        "sup_distance: interpolation weights swapped",
        CURVE,
        "down * (p * (m - r) + q * r)",
        "down * (p * r + q * (m - r))",
        (
            TEST_CURVE + "test_sup_distance_enumeration_matches_closed_form",
            TEST_CURVE + "test_sup_distance_dominates_a_fine_parameter_sweep",
        ),
    ),
    Mutant(
        "point_nums: the left-limit branch dropped",
        PARAMS,
        "u = den if left and r == 0 else 2 * r - den",
        "u = 2 * r - den",
        (
            TEST_CONSTRUCTION + "test_left_limits",
            TEST_CONSTRUCTION + "test_integer_components_match_sawtooth",
        ),
    ),
    Mutant(
        "point_nums: 2r - den left unclamped at r = 0",
        PARAMS,
        "out.append(top // size * u if u > 0 else 0)",
        "out.append(top // size * u if u > 0 or r == 0 else 0)",
        (
            TEST_CONSTRUCTION + "test_component_values",
            TEST_CONSTRUCTION + "test_integer_components_match_sawtooth",
        ),
    ),
    Mutant(
        "point_nums: the level scale M_N/M_n dropped",
        PARAMS,
        "out.append(top // size * u if u > 0 else 0)",
        "out.append(u if u > 0 else 0)",
        (
            TEST_ACCEPTANCE + "test_c07_slope_identities",
            TEST_DIAGNOSTICS + "test_slope_identity_matches_fraction_oracle",
            TEST_DIAGNOSTICS + "test_sampled_identities_and_oscillation_match_fraction_oracles",
            TEST_CONSTRUCTION + "test_integer_components_match_sawtooth",
        ),
    ),
    Mutant(
        "hausdorff_upper: cell scale 2 M_n in place of 2 M_n^2",
        CERTIFICATES,
        "scale = params.grid_sizes[: n + 1], 2 * size * size",
        "scale = params.grid_sizes[: n + 1], 2 * size",
        (
            TEST_MEASURE + "test_hausdorff_exact_sums",
            TEST_MEASURE + "test_covering_sum_matches_the_cell_oracle",
        ),
    ),
    Mutant(
        "validate: the norm check dropped",
        CERTIFICATES,
        '        check(norm, hi < 1, f"sum {term} <= {hi} (slack {1 - hi})")\n',
        "",
        (
            TEST_PARAMS + "test_validate_failure_kinds_flip_one_at_a_time",
            TEST_PARAMS + "test_validate_presets_pass",
        ),
    ),
    Mutant(
        "PolygonalCurve.length: one repeat of each pattern short",
        CURVE,
        "repeats * inner",
        "(repeats - 1) * inner",
        (TEST_CURVE + "test_period_layout_matches_per_vertex_oracle",),
    ),
    Mutant(
        "PLFunction.pattern: the left limit at k = q_n read as the value there",
        CONSTRUCTION,
        "a * q if k == q else end",
        "end",
        (TEST_CURVE + "test_period_layout_matches_per_vertex_oracle",),
    ),
    Mutant(
        "_Shape.tile: loose copies whose hulls overlap kept as loose",
        MEASURE,
        "if any(v[0] < u[1] for u, v in zip(hulls, hulls[1:])):",
        "if False:",
        (TEST_MEASURE + "test_shape_tile_matches_pairwise_merge",),
    ),
    Mutant(
        "chained tile: the b-then-a condition dropped",
        MEASURE,
        "if count == 2 or step + a.lo <= b.hi and b.lo <= step + a.hi:",
        "if True:",
        (
            TEST_MEASURE + "test_solid_tiles_match_the_union_of_their_copies",
            TEST_MEASURE + "test_shape_tile_matches_pairwise_merge",
        ),
    ),
    Mutant(
        "direction table: a'_0 loses Q a_0",
        MEASURE,
        "big_p * q_lcm + big_q * pl.a[0]",
        "big_p * q_lcm",
        (
            TEST_MEASURE + "test_direction_route_matches_the_combined_functional",
            TEST_MEASURE + "test_bracket_chain_matches_per_level_images",
        ),
    ),
    Mutant(
        "direction tail: q in place of |q|",
        MEASURE,
        "abs(q) * tail()",
        "q * tail()",
        (
            TEST_MEASURE + "test_direction_route_matches_the_combined_functional",
            TEST_SEQUENCES + "test_direction_tail_is_abs_q_times_the_tail[geometric]",
        ),
    ),
    Mutant(
        "direction tail: asked for at q = 0",
        MEASURE,
        "abs(q) * tail() if q else Fraction(0)",
        "abs(q) * tail()",
        (TEST_SEQUENCES + "test_divergent_direction_tail_needs_q_zero",),
    ),
    Mutant(
        "direction_brackets: direction (0, 0) let through",
        MEASURE,
        "        if p == 0 and q == 0:\n            raise DomainError",
        "        if False:\n            raise DomainError",
        (TEST_SEQUENCES + "test_functional_direction_combination",),
    ),
    Mutant(
        "_measure: a loose copy's part in the pairs not subtracted",
        MEASURE,
        "        total -= sum(shape.window(max(x, lo) - off, min(y, hi) - off) for x, y in cut[i:j])\n",
        "",
        (
            TEST_MEASURE + "test_shape_tile_matches_pairwise_merge",
            TEST_MEASURE + "test_shape_window_matches_pairwise_merge",
            TEST_MEASURE + "test_image_engine_equals_direct_enumeration",
        ),
    ),
    Mutant(
        "_measure: a loose copy's part in the window read as its whole measure",
        MEASURE,
        "total += shape.window(lo - off, hi - off)",
        "total += shape.measure",
        (TEST_MEASURE + "test_shape_window_matches_pairwise_merge",),
    ),
    Mutant(
        "_merged, so _Shape.flatten: the pairs dropped",
        MEASURE,
        "from_pairs(1, [*pairs, *shifted])",
        "from_pairs(1, shifted)",
        (
            TEST_MEASURE + "test_shape_tile_matches_pairwise_merge",
            TEST_MEASURE + "test_image_engine_equals_direct_enumeration",
        ),
    ),
    Mutant(
        "_monotone_nums: the 2 dropped from 2 q_0 a_0 in the nondecreasing case",
        MEASURE,
        "s * (2 * q[0] * a[0] + top)",
        "s * (q[0] * a[0] + top)",
        (TEST_MEASURE + "test_one_signed_levels_match_the_engine_and_direct_images",),
    ),
    Mutant(
        "_monotone_nums: sum a_n read as 2 sum a_n in the nonincreasing case",
        MEASURE,
        "q[0] * (2 * a[0] + total)",
        "q[0] * (2 * a[0] + 2 * total)",
        (TEST_MEASURE + "test_one_signed_levels_match_the_engine_and_direct_images",),
    ),
    Mutant(
        "_monotone_nums: the sign of an all-negative tail ignored",
        MEASURE,
        "s = sign or 1",
        "s = 1",
        (TEST_MEASURE + "test_one_signed_levels_match_the_engine_and_direct_images",),
    ),
    Mutant(
        "IntervalUnion.intersect: the last component met left unclipped",
        INTERVALS,
        "out.append((last[0], min(hi, last[1])))",
        "out.append(last)",
        (TEST_INTERVALS + "test_intersect_matches_the_two_pointer_walk",),
    ),
    Mutant(
        "_SecantConstants.rest_upper: the k > n terms dropped",
        DIAGNOSTICS,
        "else w * (top // size) * den) ** 2",
        "else 0) ** 2",
        (TEST_DIAGNOSTICS + "test_secant_rest_bound_holds_and_its_screen_implies_passes",),
    ),
    Mutant(
        "_SecantConstants.rest_upper: the k < n displacement halved",
        DIAGNOSTICS,
        "(w * 2 * top * disp if k < n",
        "(w * top * disp if k < n",
        (
            TEST_DIAGNOSTICS + "test_secant_rest_bound_holds_and_its_screen_implies_passes",
            TEST_DIAGNOSTICS + "test_secant_sample_counts_match_fraction_oracle",
        ),
    ),
    Mutant(
        "sample_oscillation: coordinate 0 skipped",
        DIAGNOSTICS,
        "pair = zip(point_nums(sizes, t, den), point_nums(sizes, u, den))",
        "pair = list(zip(point_nums(sizes, t, den), point_nums(sizes, u, den)))[1:]",
        (
            TEST_DIAGNOSTICS + "test_oscillation_sample_of_the_preset",
            TEST_DIAGNOSTICS + "test_sampled_identities_and_oscillation_match_fraction_oracles",
        ),
    ),
    Mutant(
        "_slope_identity: the shifted point's values read at t",
        DIAGNOSTICS,
        "for p in (t, shifted, t_h, s_h)]",
        "for p in (t, t, t_h, s_h)]",
        (TEST_DIAGNOSTICS + "test_slope_identity_matches_fraction_oracle",),
    ),
    Mutant(
        "_slope_identity: the level walk starts at 1, so component 0 is never compared",
        DIAGNOSTICS,
        "for m, (a, b, c, d) in enumerate(zip(*points)):",
        "for m, (a, b, c, d) in enumerate(list(zip(*points))[1:], 1):",
        (TEST_DIAGNOSTICS + "test_slope_identity_matches_fraction_oracle",),
    ),
    Mutant(
        "sample_slope_identities: n_max = 1 let through to the sampler",
        DIAGNOSTICS,
        "if max_level < 1:",
        "if False:",
        (
            TEST_DIAGNOSTICS + "test_slope_identity_sampling",
            TEST_CLI + "test_diagnose_refuses_a_check_with_no_levels"
            "[slope-identity-1-reads levels 1..5 and needs n_max >= 2]",
        ),
    ),
    Mutant(
        "sample_slope_identities: an odd m_k let through to the sampler",
        DIAGNOSTICS,
        "if params.refinement_factor(k) % 2:",
        "if False:",
        (
            TEST_CLI + "test_slope_identity_refuses_odd_refinement_factors[2,3,2-m_2 = 3]",
            TEST_CLI + "test_slope_identity_refuses_odd_refinement_factors[2,2,3-m_3 = 3]",
        ),
    ),
    Mutant(
        "_Cache.get: an entry of another schema_version served",
        CLI,
        'if not isinstance(record, dict) or record.get("schema_version") != SCHEMA_VERSION:',
        "if not isinstance(record, dict):",
        (TEST_CLI + "test_entry_of_another_schema_version_is_a_miss",),
    ),
    Mutant(
        "_Cache.bracket_fields: the entry key without the direction",
        CLI,
        '{"call": self.identity, "direction": direction}',
        '{"call": self.identity}',
        (TEST_CLI + "test_scan_indexes_cached_directions_in_this_scan_order",),
    ),
    Mutant(
        "make_record: a wrong schema_version stamped",
        RECORDS,
        '{**fields, "schema_version": SCHEMA_VERSION, "kind": kind}',
        '{**fields, "schema_version": SCHEMA_VERSION + 1, "kind": kind}',
        (
            ENVELOPE + "[validate]",
            ENVELOPE + "[measure]",
            ENVELOPE + "[scan]",
            ENVELOPE + "[curve]",
            ENVELOPE + "[diagnose-secant]",
        ),
    ),
    Mutant(
        "_create: the file's directory not made",
        RECORDS,
        "    path.parent.mkdir(parents=True, exist_ok=True)\n",
        "",
        (ENVELOPE + "[curve]", TEST_CLI + "test_validate_ok"),
    ),
    Mutant(
        "term_bound_after: an explicit suffix bounded by its smallest term",
        SEQUENCES,
        "return max(rest) if rest else Fraction(0)",
        "return min(rest) if rest else Fraction(0)",
        (TEST_SEQUENCES + "test_explicit_term_bound_after_dominates_every_later_term",),
    ),
    Mutant(
        "l1_diverges: a zero harmonic rule read as divergent",
        SEQUENCES,
        "return self.kind == _HARMONIC and self.a > 0",
        "return self.kind == _HARMONIC and self.a >= 0",
        (TEST_SEQUENCES + "test_zero_harmonic_rule_converges",),
    ),
    Mutant(
        "check_event_levels: an event of exactly the budget refused",
        EVENTS,
        "if components > component_budget:",
        "if components >= component_budget:",
        (TEST_DIAGNOSTICS + "test_event_budget_admits_an_event_of_exactly_its_size",),
    ),
    Mutant(
        "independence_checks: a meet of exactly the budget refused",
        EVENTS,
        "if meet.component_count > budget:",
        "if meet.component_count >= budget:",
        (TEST_DIAGNOSTICS + "test_intersection_budget_admits_a_meet_of_exactly_its_size",),
    ),
    Mutant(
        "independence_check: four levels refused",
        EVENTS,
        "if not 1 <= len(levels) <= 4:",
        "if not 1 <= len(levels) < 4:",
        (TEST_DIAGNOSTICS + "test_independence_of_four_levels",),
    ),
    Mutant(
        "block_partition: block m's bound read at its own end, not past the previous one",
        CERTIFICATES,
        "s_hi if m == 1 else alpha.certified_tail(prev_end, 2)[1]",
        "s_hi if m == 1 else alpha.certified_tail(end, 2)[1]",
        (TEST_PARAMS + "test_block_certificate_lhs_bounds_the_exact_block_sum",),
    ),
    Mutant(
        "series_sum: the exact head stops one term short of the split",
        SEQUENCES,
        "for n in range(1, split + 1)",
        "for n in range(1, split)",
        (
            TEST_SEQUENCES + "test_sums_at_every_split_enclose_one_number",
            TEST_PARAMS + "test_box_norm_enclosure_models",
        ),
    ),
    Mutant(
        "series_sum: the tail's ends swapped",
        SEQUENCES,
        "return head + tail_lo, head + tail_hi",
        "return head + tail_hi, head + tail_lo",
        (TEST_SEQUENCES + "test_sums_at_every_split_enclose_one_number",),
    ),
    Mutant(
        "tail_enclosure: an explicit rule's stated l1 and squared-l2 tails swapped",
        SEQUENCES,
        "stated = self.tail_l1 if power == 1 else self.tail_l2sq",
        "stated = self.tail_l2sq if power == 1 else self.tail_l1",
        (TEST_SEQUENCES + "test_explicit_tails_trusted_as_stated",),
    ),
    Mutant(
        "tail_enclosure: an explicit rule's rest not raised to the power",
        SEQUENCES,
        "rest = sum((v**power for v in self.values[n_from:]), Fraction(0))",
        "rest = sum((v for v in self.values[n_from:]), Fraction(0))",
        (TEST_SEQUENCES + "test_explicit_tails_trusted_as_stated",),
    ),
    Mutant(
        "tail_enclosure: the geometric ratio not raised to the power",
        SEQUENCES,
        "ratio = self.r**power",
        "ratio = self.r",
        (
            TEST_SEQUENCES + "test_geometric_tails_are_exact",
            TEST_PARAMS + "test_block_partition_geometric_example",
        ),
    ),
    Mutant(
        "tail_enclosure: the scale a not raised to the power",
        SEQUENCES,
        "scale = self.a**power",
        "scale = self.a",
        (
            TEST_SEQUENCES + "test_zeta4_tail_bracket_against_partials",
            TEST_SEQUENCES + "test_harmonic_l2sq_tail_bracket_against_partials[1]",
            TEST_PARAMS + "test_validate_presets_pass",
        ),
    ),
    Mutant(
        "tail_enclosure: an inverse-square zeta tail read at s = p, not 2p",
        SEQUENCES,
        "s = power if self.kind == _HARMONIC else 2 * power",
        "s = power",
        (
            TEST_SEQUENCES + "test_zeta4_tail_bracket_against_partials",
            TEST_SEQUENCES + "test_inverse_square_l1_tail_bracket_against_partials[1]",
        ),
    ),
    Mutant(
        "tail_enclosure: the zeta(2) and zeta(4) tails swapped",
        SEQUENCES,
        "(_zeta2_tail_bracket if s == 2 else _zeta4_tail_bracket)",
        "(_zeta4_tail_bracket if s == 2 else _zeta2_tail_bracket)",
        (
            TEST_SEQUENCES + "test_zeta4_tail_bracket_against_partials",
            TEST_SEQUENCES + "test_harmonic_l2sq_tail_bracket_against_partials[1]",
            TEST_PARAMS + "test_validate_presets_pass",
        ),
    ),
    Mutant(
        "ParameterSet._point_head: the exact head starts at the level, not past it",
        PARAMS,
        "for n in range(level + 1, self.n_max + 1)),",
        "for n in range(level, self.n_max + 1)),",
        (TEST_PARAMS + "test_point_tail_bounds_step_by_one_exact_term",),
    ),
    Mutant(
        "cmd_diagnose: a sample count at the budget refused",
        CLI,
        "if args.samples > DEFAULT_SAMPLE_BUDGET:",
        "if args.samples >= DEFAULT_SAMPLE_BUDGET:",
        (TEST_CLI + "test_diagnose_refuses_samples_past_the_budget_before_any_output",),
    ),
)


def pytest(tree: Path, node_ids) -> dict[str, str]:
    """Each node id's outcome in tree: "passed", "failed" (a failure or an
    error) or "skipped"; a node id that pytest did not report is missing. No
    bytecode is written, so a mutated module is always compiled from its
    source; asserts are left plain, as rewriting them (hypothesis included)
    without a bytecode cache costs more than a second per run; and the
    ``mutants`` hypothesis profile of tests/conftest.py skips shrinking a
    failing example."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    report = tree / "junit.xml"
    report.unlink(missing_ok=True)
    cmd = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "--assert=plain"]
    cmd += ["--hypothesis-profile=mutants", f"--junitxml={report}", "-o", "junit_family=xunit1"]
    subprocess.run([*cmd, *node_ids], cwd=tree, env=env, capture_output=True)
    outcomes = {}
    if report.exists():
        for case in ElementTree.parse(report).iter("testcase"):
            module = case.get("file", "").removesuffix(".py").replace("/", ".")
            classes = case.get("classname", "").removeprefix(module).split(".")
            node = "::".join([case.get("file", ""), *filter(None, classes), case.get("name", "")])
            tags = {child.tag for child in case}
            failed = "failure" in tags or "error" in tags
            outcomes[node] = "failed" if failed else "skipped" if "skipped" in tags else "passed"
    return outcomes


def main() -> int:
    start = time.perf_counter()
    problems = []
    for m in MUTANTS:
        count = (ROOT / m.path).read_text(encoding="utf-8").count(m.snippet)
        if count != 1:
            problems.append(f"stale snippet ({count} occurrences in {m.path}): {m.name}")
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "repo"
        ignore = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis")
        shutil.copytree(ROOT, tree, ignore=ignore)
        all_ids = sorted({node for m in MUTANTS for node in m.tests})
        outcomes = pytest(tree, all_ids)
        for node in all_ids:
            if outcomes.get(node) != "passed":
                problems.append(f"{node} is {outcomes.get(node, 'missing')} on the unmutated tree")
        for m in MUTANTS:
            if any(p.endswith(m.name) for p in problems):
                continue
            target = tree / m.path
            original = target.read_text(encoding="utf-8")
            target.write_text(original.replace(m.snippet, m.replacement), encoding="utf-8")
            try:
                outcomes = pytest(tree, m.tests)
            finally:
                target.write_text(original, encoding="utf-8")
            for node in m.tests:
                outcome = outcomes.get(node, "missing")
                print(f"{'killed' if outcome == 'failed' else f'NOT KILLED ({outcome})'}: "
                      f"{m.name} by {node}")
                if outcome != "failed":
                    problems.append(f"{m.name} survives {node}")
    for problem in problems:
        print(f"error: {problem}")
    print(f"{len(MUTANTS)} mutants, {len(problems)} problems, {time.perf_counter() - start:.0f} s")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
