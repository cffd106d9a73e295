"""Seeded inputs, jobs and answer checks for the benchmark workloads.

tautilt only ever sees generated ``.alg`` text.  A workload is a cycle of jobs
over fixed input families; the seed draws the orientations and relations of
each family afresh for every cycle.  Every check compares against a reference
from theory or from the README, never against an earlier tautilt answer.
"""

from __future__ import annotations

import importlib
import json
import os
import random
import shutil
import subprocess
import sys
import threading
from dataclasses import dataclass
from math import comb
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# distinct input draws per family; later cycles reuse them (memos are per
# Algebra, and every job builds a fresh one, so a reused text starts cold too)
POOL = 16

ORACLE_MAX = 20


# -- theory references ------------------------------------------------------


def positive_roots(kind: str, n: int) -> int:
    if kind == "A":
        return n * (n + 1) // 2
    if kind == "D":
        return n * (n - 1)
    raise ValueError(kind)


def hereditary_pairs(kind: str, n: int) -> int:
    """Support tau-tilting pairs of a Dynkin path algebra = its cluster count
    (Adachi-Iyama-Reiten 2014): Catalan(n+1) for A_n, (3n-2)/n C(2n-2, n-1)
    for D_n."""
    if kind == "A":
        return comb(2 * n + 2, n + 1) // (n + 2)
    if kind == "D":
        return (3 * n - 2) * comb(2 * n - 2, n - 1) // n
    raise ValueError(kind)


def dynkin_edges(kind: str, n: int):
    chain = [(i, i + 1) for i in range(1, n - 1)]
    return chain + [{"A": (n - 1, n), "D": (n - 2, n)}[kind]]


@dataclass(frozen=True)
class Quiver:
    kind: str
    n: int
    arrows: tuple          # (name, source, target)
    relations: tuple       # (later arrow, earlier arrow): zero relation later*earlier

    @property
    def hereditary(self) -> bool:
        return not self.relations

    def source(self) -> str:
        arrows = ", ".join(f"{a}: {s}->{t}" for a, s, t in self.arrows)
        text = (f"algebra {self.kind}{self.n} {{\n"
                f"  vertices: {' '.join(str(v) for v in range(1, self.n + 1))};\n"
                f"  arrows: {arrows};\n")
        if self.relations:
            text += f"  relations: {', '.join(f'{b}*{a}' for b, a in self.relations)};\n"
        return text + "}\n"


def random_dynkin(kind: str, n: int, relations: int, rng: random.Random) -> Quiver:
    """A seeded orientation of a Dynkin diagram with ``relations`` distinct
    zero relations of length two."""
    while True:
        arrows = []
        for k, (u, v) in enumerate(dynkin_edges(kind, n)):
            if rng.random() < 0.5:
                u, v = v, u
            arrows.append((f"x{k}", u, v))
        composable = [(b[0], a[0]) for a in arrows for b in arrows if a[2] == b[1]]
        if len(composable) >= relations:
            return Quiver(kind, n, tuple(arrows), tuple(rng.sample(composable, relations)))


def wild_source(n: int) -> str:
    """The README's wild family: tail n -> ... -> 3 into the triangle
    3 -> 2 -> 1, 3 -> 1 with the composite through 2 killed."""
    arrows = ["a: 2->1", "b: 3->2", "c: 3->1"] + [f"t{k}: {k}->{k - 1}" for k in range(4, n + 1)]
    return (f"algebra wild{n} {{\n  vertices: {' '.join(str(v) for v in range(1, n + 1))};\n"
            f"  arrows: {', '.join(arrows)};\n  relations: a*b;\n}}\n")


KRONECKER = "algebra kronecker {\n  vertices: 1 2;\n  arrows: a: 1->2, b: 1->2;\n}\n"


# -- the lattice workload -----------------------------------------------------


def ar_sequence_errors(ar) -> list:
    """Dimension vectors are additive on every almost split sequence."""
    dims = [x.dims for x in ar.indecomposables]
    errors = []
    for end, s in ar.sequences.items():
        mid = [sum(dims[j][v] for j in s.middle) for v in range(len(dims[end]))]
        if mid != [dims[end][v] + dims[s.start][v] for v in range(len(dims[end]))]:
            errors.append(f"AR sequence ending at {ar.labels[end]} is not additive")
    return errors


def ext_formula_errors(ar) -> list:
    """On a hereditary algebra Ext^1(X, Y) = dim Hom(Y, tau X), and
    Ext^1(P, -) = 0 for a projective P (AR formula)."""
    hom, ext = ar.hom_table(), ar.ext_table()
    errors = []
    for i in range(ar.count):
        for j in range(ar.count):
            expected = 0 if i in ar.projective_vertex else hom[j][ar.tau_links[i]]
            if ext[i][j] != expected:
                errors.append(f"Ext^1({ar.labels[i]}, {ar.labels[j]}) = {ext[i][j]}, "
                              f"the AR formula gives {expected}")
    return errors


@dataclass
class Job:
    label: str
    text: str
    quiver: Quiver


class Lattice:
    """text -> enumerate_indecomposables -> hasse, through the library API."""

    # (Dynkin type, vertices, zero relations), cheapest first: about 0.2, 0.6,
    # 0.9, 1.3 and 2.5 s.  With five families and clear gaps between their
    # costs, the median (p50) falls in the middle of the third family and the
    # p70 tail in the middle of the fourth, so neither flips between families.
    families = (("A", 3, 0), ("A", 4, 1), ("D", 4, 1), ("A", 4, 0), ("D", 4, 0))

    def __init__(self, seed: int):
        self.mods = {m: importlib.import_module(f"tautilt.{m}")
                     for m in ("algebra", "homology", "tautilting")}
        rng = random.Random(seed)
        self.pool = [[self.draw(fam, rng) for fam in self.families] for _ in range(POOL)]

    @staticmethod
    def draw(fam, rng) -> Job:
        kind, n, rels = fam
        q = random_dynkin(kind, n, rels, rng)
        return Job(f"{kind}{n}" + (f"+{rels}rel" if rels else ""), q.source(), q)

    def cycle(self, c: int) -> list:
        return self.pool[c % POOL]

    def close(self) -> None:
        pass

    def run(self, job):
        a = self.mods["algebra"].algebra_from_source(job.text)
        ar = self.mods["homology"].enumerate_indecomposables(a)
        return self.mods["tautilting"].hasse(a, ar=ar)

    def oracle_count(self, ar) -> int:
        if ar.count > ORACLE_MAX:
            raise ValueError("oracle needs at most 20 indecomposables")
        return len(self.mods["tautilting"].enumerate_torsion_classes_oracle(ar))

    def check(self, job, hq) -> list:
        q, ar = job.quiver, hq.ar
        v, e = hq.vertex_count, len(hq.edges)
        errors = ar_sequence_errors(ar)
        if e * 2 != q.n * v:
            errors.append(f"{e} edges on {v} vertices: not {q.n}-regular")
        if q.hereditary:
            errors += ext_formula_errors(ar)
            if ar.count != positive_roots(q.kind, q.n):
                errors.append(f"{ar.count} indecomposables, expected the positive roots")
            if v != hereditary_pairs(q.kind, q.n):
                errors.append(f"{v} pairs, expected {hereditary_pairs(q.kind, q.n)}")
        elif v != self.oracle_count(ar):
            errors.append(f"{v} pairs, the 2^n oracle finds another count")
        return errors


# -- the CLI workload ---------------------------------------------------------

CLI_ALGEBRAS = {
    "a2": "algebra a2 {\n  vertices: 1 2;\n  arrows: a: 1->2;\n}\n",
    "a3lin": "algebra a3lin {\n  vertices: 1 2 3;\n  arrows: a: 1->2, b: 2->3;\n}\n",
    "a3rel": "algebra a3rel {\n  vertices: 1 2 3;\n  arrows: a: 1->2, b: 2->3;\n  relations: b*a;\n}\n",
    "wild4": wild_source(4),
    "kronecker": KRONECKER,
}

# (algebra, verb and arguments, exit code, output lines that must appear or,
# for JSON output, the expected "counts" object)
CLI_QUERIES = (
    # README: 12 vertices, 18 edges
    ("a3rel", ["hasse", "--format", "json"], 0, {"vertices": 12, "edges": 18}),
    # Catalan(3) = 5 vertices, 2 * 5 / 2 = 5 edges
    ("a2", ["hasse", "--format", "json"], 0, {"vertices": 5, "edges": 5}),
    # README: tau 010 = 001 on 1 -> 2 -> 3
    ("a3lin", ["tau", "--module", "010"], 0, ["001"]),
    # README: Bongartz completion of 010
    ("a3lin", ["bongartz", "--module", "010"], 0, ["completion: 010 + 011 + 111"]),
    # README: wild4 is tau-tilting finite with 64 pairs
    ("wild4", ["probe"], 0, ["tau-tilting finite: finite", "support tau-tilting pairs: 64"]),
    # README: the Kronecker quiver is not representation-finite -> exit 1
    ("kronecker", ["indecs"], 1, []),
    # Catalan(3) = 5 torsion classes
    ("a2", ["torsion-oracle"], 0, ["5 torsion classes"]),
    # S2 is not generated by P1 = 11, so removing it is a left mutation to S1 + P1
    ("a2", ["mutate", "--summands", "01,11", "--at", "01"], 0, ["left mutation -> 10+11"]),
    # the socle S3 embeds into the interval module 011
    ("a3lin", ["hom", "--from", "001", "--to", "011"], 0, ["dim Hom = 1"]),
    # AR formula: Ext^1(010, 001) = D Hom(001, tau 010 = 001)
    ("a3lin", ["ext", "--from", "010", "--to", "001"], 0, ["dim Ext^1 = 1"]),
    # the 6 positive roots of A3
    ("a3lin", ["indecs"], 0, ["6 indecomposables"]),
)


@dataclass
class CliJob:
    label: str
    algebra: str
    pass_dir: Path
    args: list
    code: int
    expect: object


class Cli:
    """Sequential ``python3 -m tautilt.cli`` processes over the README fixtures.

    A cycle is one pass over CLI_QUERIES in a seeded order.  Each pass gets
    fresh cache directories (one per algebra), so the first AR-needing query on
    an algebra writes its cache entry and later ones read it.
    """

    def __init__(self, seed: int, work: Path):
        # not needed here, but it is the import every CLI process pays, and
        # set-up is measured as the same work for every workload
        importlib.import_module("tautilt.cli")
        self.work = work / f"cli-{os.getpid()}"
        inputs = self.work / "inputs"
        inputs.mkdir(parents=True, exist_ok=True)
        self.paths = {}
        for name, text in CLI_ALGEBRAS.items():
            self.paths[name] = inputs / f"{name}.alg"
            self.paths[name].write_text(text, encoding="utf-8")
        rng = random.Random(seed)
        self.orders = [rng.sample(range(len(CLI_QUERIES)), len(CLI_QUERIES)) for _ in range(POOL)]
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        for var in ("TAUTILT_SEED", "TAUTILT_CACHE"):
            self.env.pop(var, None)
        self.passes = 0
        self.peak_kb = 0  # largest ru_maxrss of the CLI processes

    def cycle(self, c: int) -> list:
        self.passes += 1
        pass_dir = self.work / f"pass{self.passes}"
        jobs = []
        for i in self.orders[c % POOL]:
            alg, args, code, expect = CLI_QUERIES[i]
            jobs.append(CliJob(f"{args[0]} {alg}", alg, pass_dir, args, code, expect))
        return jobs

    def cache_dir(self, job: CliJob, traced: bool) -> Path:
        """Traced and untraced copies of a pass keep separate caches."""
        return job.pass_dir / (job.algebra + ("-traced" if traced else ""))

    def run(self, job: CliJob, spans_path=None):
        """One CLI process; with ``spans_path`` it runs under the tracer."""
        traced = spans_path is not None
        argv = ["--cache-dir", str(self.cache_dir(job, traced)), job.args[0],
                str(self.paths[job.algebra]), *job.args[1:]]
        if traced:
            cmd = [sys.executable, str(Path(__file__).with_name("cli_child.py")), str(spans_path)]
        else:
            cmd = [sys.executable, "-m", "tautilt.cli"]
        # wait4 gives this child's own peak RSS; output goes to files, so
        # nothing has to read pipes while the child runs
        out_path, err_path = self.work / "stdout", self.work / "stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            proc = subprocess.Popen(cmd + argv, cwd=ROOT, env=self.env, stdout=out, stderr=err)
            timer = threading.Timer(170, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_kb = max(self.peak_kb, usage.ru_maxrss)
        return (proc.returncode, out_path.read_text(encoding="utf-8"),
                err_path.read_text(encoding="utf-8"))

    def check(self, job: CliJob, result) -> list:
        code, out, err = result
        errors = []
        if code != job.code:
            errors.append(f"{job.label}: exit {code}, expected {job.code} ({err.strip()[-200:]})")
        if isinstance(job.expect, dict):
            try:
                counts = json.loads(out)["counts"]
            except (ValueError, KeyError) as exc:
                return errors + [f"{job.label}: no JSON counts ({exc!r})"]
            if counts != job.expect:
                errors.append(f"{job.label}: counts {counts}, expected {job.expect}")
        else:
            got = {line.strip() for line in out.splitlines()}
            errors += [f"{job.label}: output lacks {line!r}" for line in job.expect if line not in got]
        return errors

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


WORKLOADS = {"lattice": Lattice, "cli": Cli}
