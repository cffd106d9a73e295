"""Byte-for-byte output of `hasse` (JSON and DOT), `probe` (JSON) and
`indecs` (JSON) against committed goldens.  Regenerate a golden only for a
deliberate output change: run the verb with `--no-cache --format <fmt>` and
store stdout under tests/golden/<verb>-<fixture>.<fmt>.
"""

from pathlib import Path

import pytest

from tautilt.cli import run

HERE = Path(__file__).resolve().parent
FIXTURES = HERE.parent / "fixtures"
GOLDEN = HERE / "golden"

CASES = [("hasse", fix, fmt)
         for fix in ("a2", "a3lin", "a3rel", "d4", "k1", "skewed", "wild4", "wild5")
         for fmt in ("json", "dot")]
CASES += [("probe", fix, "json") for fix in ("a3rel", "wild4")]
# the indecomposables' matrices depend on the idempotents `decompose` splits by
CASES += [("indecs", fix, "json")
          for fix in ("a2", "a3lin", "a3rel", "d4", "k1", "skewed", "wild4", "wild5")]


@pytest.mark.parametrize("verb,fixture,fmt", CASES)
def test_output_matches_golden(capsys, verb, fixture, fmt):
    code = run(["--no-cache", "--format", fmt, verb, str(FIXTURES / f"{fixture}.alg")])
    out = capsys.readouterr().out
    assert code == 0
    assert out == (GOLDEN / f"{verb}-{fixture}.{fmt}").read_text()
