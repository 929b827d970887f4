import importlib
import re
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import sawproj as sp

# the public names of the package; removing one is a deliberate edit of this pin
PUBLIC_NAMES = [
    "BudgetExceeded", "CertificationError", "ConfigError", "DomainError", "EventSet",
    "Functional", "IntervalUnion", "MeasureBracket", "PLFunction", "ParameterSet",
    "PolygonalCurve", "RefinementRule", "SawprojError", "SecantWitness", "SequenceRule",
    "TruncatedPoint", "ValidationReport", "block_partition", "build_curve", "build_pl",
    "component_value", "constant_refinement", "curve_length", "curve_length_closed_form",
    "directional_measure", "event_set", "explicit", "explicit_refinement", "format_rational",
    "geometric", "geometric_l1_preset", "harmonic", "harmonic_l2_preset", "hausdorff_upper",
    "image_measure", "independence_check", "inverse_square", "inverse_square_functional",
    "length_difference", "length_increment", "linear_refinement", "parse_rational",
    "projection_bracket", "sample_event_union", "secant_witness", "sqrt_enclosure",
    "sup_distance", "sup_distance_bound", "truncated_point", "validate",
]
SUBMODULES = [
    "certificates", "construction", "curve", "diagnostics", "errors", "events", "intervals",
    "measure", "params", "rational", "sequences",
]


def test_all_lists_the_public_names():
    assert sorted(sp.__all__) == PUBLIC_NAMES
    assert sp.__version__ == "1.0.0"


def test_version_has_one_source():
    # cache keys carry __version__, so the package metadata reads it rather than copy it
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    config = tomllib.loads(pyproject.read_text(encoding="utf-8"))
    assert "version" not in config["project"] and config["project"]["dynamic"] == ["version"]
    assert config["tool"]["setuptools"]["dynamic"]["version"] == {"attr": "sawproj.__version__"}


def test_public_name_is_its_module_attribute():
    for name in PUBLIC_NAMES:
        module = importlib.import_module(f"sawproj.{sp._MODULE_OF[name]}")
        assert getattr(sp, name) is getattr(module, name), name


def test_measure_keeps_the_interval_names_bound():
    # callers and the benchmark's hooks still reach them through sawproj.measure
    from sawproj import errors, intervals, measure

    assert measure.IntervalUnion is intervals.IntervalUnion
    assert measure.DEFAULT_COMPONENT_BUDGET is errors.DEFAULT_COMPONENT_BUDGET


def test_dir_and_star_import_cover_every_name():
    assert set(PUBLIC_NAMES + SUBMODULES) <= set(dir(sp))
    namespace: dict = {}
    exec("from sawproj import *", namespace)
    for name in PUBLIC_NAMES:
        assert namespace[name] is getattr(sp, name)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        sp.no_such_name
    with pytest.raises(ImportError):
        exec("from sawproj import no_such_name", {})


FRESH_IMPORT = """\
import sys
import sawproj as sp
assert not [m for m in sys.modules if m.startswith("sawproj.")], "a submodule was loaded"
module = sp.events
assert module is sys.modules["sawproj.events"] and module.event_set is sp.event_set
assert "sawproj.curve" not in sys.modules
"""


def test_submodule_resolves_in_a_fresh_interpreter(fresh_env):
    subprocess.run([sys.executable, "-c", FRESH_IMPORT], env=fresh_env, check=True, timeout=120)


def test_readme_library_example_runs(fresh_env):
    # the example must call only names the package still has
    readme = Path(__file__).resolve().parent.parent / "README.md"
    (example,) = re.findall(r"```python\n(.*?)```", readme.read_text(encoding="utf-8"), re.S)
    subprocess.run([sys.executable, "-c", example], env=fresh_env, check=True, timeout=120)


def test_readme_cli_example_runs(fresh_env, tmp_path):
    # every line of the README's CLI block, in order, beside a copy of configs/
    root = Path(__file__).resolve().parent.parent
    text = (root / "README.md").read_text(encoding="utf-8")
    (lines,) = [b for b in re.findall(r"```sh\n(.*?)```", text, re.S) if b.startswith("sawproj ")]
    (job,) = re.findall(r"```cfg\n(.*?)```", text, re.S)
    shutil.copytree(root / "configs", tmp_path / "configs")
    (tmp_path / "job.cfg").write_text((root / "configs" / "harmonic_l2.cfg").read_text() + job)
    for line in lines.splitlines():
        name, *args = shlex.split(line, comments=True)
        assert name == "sawproj"
        run = subprocess.run(
            [sys.executable, "-m", "sawproj.cli", *args],
            cwd=tmp_path, env=fresh_env, capture_output=True, text=True, timeout=120,
        )
        assert run.returncode == 0, (line, run.stderr)
    assert (tmp_path / "out" / "scan2.csv").is_file()
