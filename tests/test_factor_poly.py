"""The in-house factorization of splitting polynomials against sympy, used here
only as an independent oracle; the engine itself never imports sympy."""

import math
import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tautilt.rep import _factor_poly, _poly_mul

SRC = Path(__file__).resolve().parent.parent / "src"
T = sympy.Symbol("t")

rationals = st.fractions(min_value=-6, max_value=6, max_denominator=4)
monic_linear = rationals.map(lambda r: [-r, Fraction(1)])
monic_quadratic = st.tuples(rationals, rationals).map(lambda bc: [bc[1], bc[0], Fraction(1)])
monic_cubic = st.tuples(rationals, rationals, rationals).map(
    lambda bcd: [bcd[2], bcd[1], bcd[0], Fraction(1)])


def expand(factors):
    """prod f^m of (coeffs low->high, m) pairs."""
    out = [Fraction(1)]
    for f, m in factors:
        for _ in range(m):
            out = _poly_mul(out, f)
    return out


def to_sympy(coeffs):
    return sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(coeffs)],
                      T, domain="QQ")


def sympy_factors(coeffs):
    """sympy's factor_list, each factor made monic, coeffs low->high."""
    out = []
    for fac, mult in to_sympy(coeffs).factor_list()[1]:
        cs = [Fraction(int(c.p), int(c.q)) for c in reversed(fac.all_coeffs())]
        out.append(([c / cs[-1] for c in cs], int(mult)))
    return out


def has_rational_root(quadratic):
    c, b, _ = quadratic
    disc = b * b - 4 * c
    return disc >= 0 and all(math.isqrt(x) ** 2 == x for x in (disc.numerator, disc.denominator))


@settings(max_examples=200, deadline=None)
@given(linear=st.lists(st.tuples(monic_linear, st.integers(1, 3)), max_size=4),
       nonlinear=st.lists(st.one_of(monic_quadratic, monic_cubic), max_size=3),
       mults=st.permutations([1, 2, 3]))
def test_factor_poly_equals_sympy_factor_list(linear, nonlinear, mults):
    poly = expand(linear + list(zip(nonlinear, mults)))
    assume(len(poly) > 1)
    expected = sympy_factors(poly)
    # a rational-root-free block is irreducible only up to degree 3, so two
    # nonlinear irreducible factors of one multiplicity stay one block
    nonlinear_mults = Counter(m for f, m in expected if len(f) > 2)
    assume(all(k == 1 for k in nonlinear_mults.values()))
    assert _factor_poly(poly) == expected


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(monic_quadratic, st.integers(1, 2)), min_size=2, max_size=3))
def test_root_free_blocks_are_coprime_and_multiply_back(quadratics):
    assume(not any(has_rational_root(q) for q, _ in quadratics))
    poly = expand(quadratics)
    blocks = _factor_poly(poly)
    assert blocks
    assert all(b[-1] == 1 and len(b) > 2 for b, _ in blocks)
    for i, (a, _) in enumerate(blocks):
        for b, _ in blocks[i + 1:]:
            assert sympy.gcd(to_sympy(a), to_sympy(b)).is_one
    assert expand(blocks) == poly


def test_root_free_quartic_stays_one_block():
    # (t^2 - 2)(t^2 - 3): sympy splits it, the engine keeps one coprime block
    poly = [Fraction(6), Fraction(0), Fraction(-5), Fraction(0), Fraction(1)]
    assert _factor_poly(poly) == [(poly, 1)]
    assert len(sympy_factors(poly)) == 2


def test_engine_runs_without_sympy():
    code = (
        "import sys\n"
        "import tautilt.cli\n"
        "import tautilt.rep as rep\n"
        "from tautilt import fixtures\n"
        "from tautilt.homology import enumerate_indecomposables\n"
        "calls = []\n"
        "real = rep._factor_poly\n"
        "rep._factor_poly = lambda coeffs: calls.append(coeffs) or real(coeffs)\n"
        # skewed still splits a middle term the mesh cannot knit yet
        "enumerate_indecomposables(fixtures.load('skewed'))\n"
        "assert calls, 'the enumeration split no module'\n"
        "assert 'sympy' not in sys.modules, 'sympy was imported'\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=str(SRC)), timeout=120)
    assert out.returncode == 0, out.stderr
