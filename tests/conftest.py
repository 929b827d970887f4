import os
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import Phase, settings

import sawproj as sp

# property tests are deterministic and unhurried unless a test says otherwise
settings.register_profile("sawproj", deadline=None, derandomize=True)
# tools/mutants.py only needs a failing example, not the smallest one
settings.register_profile(
    "mutants",
    settings.get_profile("sawproj"),
    phases=(Phase.explicit, Phase.reuse, Phase.generate),
)
settings.load_profile("sawproj")


@pytest.fixture(scope="session")
def d1() -> sp.ParameterSet:
    return sp.harmonic_l2_preset(n_max=8)


@pytest.fixture(scope="session")
def d2() -> sp.ParameterSet:
    return sp.geometric_l1_preset(n_max=12)


@pytest.fixture(scope="session")
def f1() -> sp.Functional:
    return sp.inverse_square_functional()


@pytest.fixture(scope="session")
def r1() -> sp.Functional:
    # curve coefficients 1/2**(n+1), matching the l1 preset scales
    return sp.Functional(
        alpha0=Fraction(1),
        rule=sp.geometric(Fraction(1, 2), Fraction(1, 2)),
        name="R1",
    )


@pytest.fixture(scope="session")
def fresh_env() -> dict:
    """Environment for a fresh interpreter that imports sawproj from this checkout."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)
