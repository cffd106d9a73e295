"""Built-in algebra presentations used by tests, docs and the fixtures dir."""

from __future__ import annotations

from .algebra import DEFAULT_LENGTH_CAP, Algebra, algebra_from_source

A2 = """\
algebra a2 {
  vertices: 1 2;
  arrows: a: 1->2;
}
"""

A3_LINEAR = """\
algebra a3lin {
  vertices: 1 2 3;
  arrows: a: 1->2, b: 2->3;
}
"""

A3_RELATION = """\
algebra a3rel {
  vertices: 1 2 3;
  arrows: a: 1->2, b: 2->3;
  relations: b*a;
}
"""

# triangle 1->2->3 with a shortcut 1->3 and the long composite killed
SKEWED_TRIANGLE = """\
algebra skewed {
  vertices: 1 2 3;
  arrows: a: 1->2, b: 2->3, c: 1->3;
  relations: b*a;
}
"""

KRONECKER = """\
algebra kronecker {
  vertices: 1 2;
  arrows: a: 1->2, b: 1->2;
}
"""


def wild_family_source(n: int) -> str:
    """Tail n -> n-1 -> ... -> 3 feeding a triangle at {3, 2, 1}, with the
    composite through vertex 2 killed; representation-wild for n >= 9 yet
    tau-tilting finite for every n."""
    if n < 3:
        raise ValueError("family starts at n = 3")
    arrows = ["a: 2->1", "b: 3->2", "c: 3->1"]
    arrows += [f"t{k}: {k}->{k - 1}" for k in range(4, n + 1)]
    return (
        f"algebra wild{n} {{\n"
        f"  vertices: {' '.join(str(v) for v in range(1, n + 1))};\n"
        f"  arrows: {', '.join(arrows)};\n"
        f"  relations: a*b;\n"
        f"}}\n"
    )


WILD_4 = wild_family_source(4)

SOURCES = {
    "a2": A2,
    "a3lin": A3_LINEAR,
    "a3rel": A3_RELATION,
    "skewed": SKEWED_TRIANGLE,
    "kronecker": KRONECKER,
    "wild4": WILD_4,
}


def load(name: str, cap: int = DEFAULT_LENGTH_CAP) -> Algebra:
    return algebra_from_source(SOURCES[name], cap=cap)
