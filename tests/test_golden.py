"""Byte-for-byte output of every verb against committed goldens: `hasse`
(JSON and DOT), `probe` and `indecs` (JSON) over the fixtures, and each verb in
table and JSON form over a2 or a3lin.  A case is (label, fixture, fmt, argv);
its golden is tests/golden/<label>.<fmt>.  Regenerate a golden only for a
deliberate output change: run `--no-cache --format <fmt> <argv>` and store
stdout under that name.
"""

from pathlib import Path

import pytest

from tautilt.cli import run

HERE = Path(__file__).resolve().parent
FIXTURES = HERE.parent / "fixtures"
GOLDEN = HERE / "golden"


def case(verb, fixture, fmt, *extra, tag=""):
    label = f"{verb}-{fixture}{tag}"
    return pytest.param(label, fixture, fmt, [verb, *extra], id=f"{label}-{fmt}")


ALL = ("a2", "a3lin", "a3rel", "d4", "k1", "skewed", "wild4", "wild5")
BOTH = ("table", "json")

CASES = [case("hasse", fix, fmt) for fix in ALL for fmt in ("json", "dot")]
CASES += [case("probe", fix, "json") for fix in ("a3rel", "wild4")]
# the indecomposables' matrices depend on the Fitting splits `decompose` makes
CASES += [case("indecs", fix, "json") for fix in ALL]

# one case per verb output not covered above
CASES += [case("basis", "a3lin", fmt) for fmt in BOTH]
CASES += [case("indecs", "a3lin", "table")]
CASES += [case("ar-quiver", "a3lin", fmt) for fmt in ("dot", "json")]
CASES += [case("tau", "a3lin", fmt, "--module", "010", tag="-010") for fmt in BOTH]
CASES += [case("tau", "a3lin", fmt, "--module", "010", "--inverse", tag="-010-inverse")
          for fmt in BOTH]
CASES += [case("hom", "a3lin", fmt, "--from", "011", "--to", "111") for fmt in BOTH]
CASES += [case("ext", "a3lin", fmt, "--from", "010", "--to", "001") for fmt in BOTH]
CASES += [case(verb, "a3lin", fmt, "--module", "010+111")
          for verb in ("grigid", "tilt-check") for fmt in BOTH]
CASES += [case("bongartz", "a3lin", fmt, "--module", "010", "--kind", kind, tag=f"-{kind}")
          for kind in ("tau", "tilting") for fmt in BOTH]
CASES += [case("statt-check", "a3lin", fmt, "--module", module, tag=f"-{verdict}")
          for module, verdict in (("010+011+111", "true"), ("010+111", "false"))
          for fmt in BOTH]
CASES += [case("mutate", "a2", fmt, "--summands", "01,11", "--at", "01") for fmt in BOTH]
CASES += [case("dagger", "a2", fmt, "--summands", "01,11") for fmt in BOTH]
CASES += [case(verb, "a2", fmt) for verb in ("torsion-oracle", "bricks") for fmt in BOTH]
CASES += [case("probe", "a3lin", fmt) for fmt in BOTH]


@pytest.mark.parametrize("label,fixture,fmt,argv", CASES)
def test_output_matches_golden(capsys, label, fixture, fmt, argv):
    verb, *extra = argv
    code = run(["--no-cache", "--format", fmt, verb, str(FIXTURES / f"{fixture}.alg"), *extra])
    out = capsys.readouterr().out
    assert code == 0
    assert out == (GOLDEN / f"{label}.{fmt}").read_text()
