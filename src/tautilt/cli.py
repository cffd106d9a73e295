"""Command-line frontend: algebra ingestion, computations, JSON/DOT emission,
and a content-addressed cache for AR enumerations.

Exit codes: 0 success, 1 domain error (cap exceeded, not tau-rigid, ...),
2 usage or parse error.  Every computation is deterministic, so reruns give
byte-identical output; the cache location comes from --cache-dir or the
TAUTILT_CACHE environment variable.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile
from fractions import Fraction
from typing import Callable, Dict, FrozenSet, List, NamedTuple, Optional, Sequence, Tuple

from . import __version__
from .algebra import DEFAULT_LENGTH_CAP, Algebra, algebra_from_source
from .errors import ContractViolation, ParseError, TautiltError
from .homology import (
    ARQuiverData,
    ARSequenceData,
    enumerate_indecomposables,
    ext1,
    g_vector,
    injective,
    projective,
    tau,
    tau_minus,
    DEFAULT_COUNT_CAP,
    DEFAULT_DIM_CAP,
)
from .linalg import Matrix
from .rep import (
    Representation,
    decompose,
    direct_sum,
    hom_dim,
    rep_from_json,
    rep_to_json,
    validate,
)
from .tautilting import (
    DEFAULT_VERTEX_CAP,
    SupportTauTiltingPair,
    bongartz_tau,
    bongartz_tilting,
    bricks,
    check_pair,
    complete_pair,
    dagger,
    enumerate_torsion_classes_oracle,
    finiteness_probe,
    hasse,
    is_tau_rigid,
    mutate,
    pair_from_ids,
    perp_right,
    support_tau_tilting_check,
    tilting_checks,
)

DEFAULT_CACHE_DIR = ".tautilt-cache"


# --------------------------------------------------------------------------
# module selectors
# --------------------------------------------------------------------------


def resolve_module(atom: str, algebra: Algebra, ar_supplier) -> Representation:
    """One selector atom: P(i), I(i), S(i), a dim-vector label with optional
    disambiguation quotes, or @file.json."""
    atom = atom.strip()
    if atom.startswith("@"):
        with open(atom[1:], "r", encoding="utf-8") as fh:
            return rep_from_json(algebra, json.load(fh))
    for prefix, builder in (("P(", projective), ("I(", injective)):
        if atom.startswith(prefix) and atom.endswith(")"):
            return builder(algebra, int(atom[len(prefix):-1]))
    if atom.startswith("S(") and atom.endswith(")"):
        return algebra.simple(int(atom[2:-1]))
    ar = ar_supplier()
    if atom in ar.labels:
        return ar.indecomposables[ar.labels.index(atom)]
    raise TautiltError(f"module selector {atom!r} matches nothing (labels: {', '.join(sorted(ar.labels))})")


def resolve_module_sum(selector: str, algebra: Algebra, ar_supplier) -> Representation:
    atoms = [resolve_module(atom, algebra, ar_supplier) for atom in selector.split("+")]
    if len(atoms) == 1:
        return atoms[0]
    return direct_sum(algebra, atoms).total


# --------------------------------------------------------------------------
# content-addressed AR cache
# --------------------------------------------------------------------------


def cache_key(source_text: str, caps: dict) -> str:
    h = hashlib.sha256()
    h.update(b"tautilt-cache-v1\0")
    h.update(__version__.encode())
    h.update(source_text.encode())
    h.update(json.dumps(caps, sort_keys=True).encode())
    return h.hexdigest()


def ar_from_json(algebra: Algebra, payload: dict) -> ARQuiverData:
    """AR data from a cache payload, checked before it is trusted: the Hom and
    Ext tables are derived from it, so a wrong entry would change them all."""
    if payload["algebra"] != algebra.content_hash():
        raise ContractViolation("entry belongs to a different algebra")
    data = ARQuiverData(algebra)
    for item in payload["indecomposables"]:
        rep = rep_from_json(algebra, item["rep"])
        problem = validate(rep)
        if problem is not None:
            raise ContractViolation(f"{item['label']}: {problem}")
        data.add(rep)
        if data.labels[-1] != item["label"] or list(rep.dims) != item["dims"]:
            raise ContractViolation(f"{item['label']}: label or dims disagree with the module")
    data.tau_links = {int(k): v for k, v in payload["tau"].items()}
    data.tau_inv_links = {v: k for k, v in data.tau_links.items()}
    for s in payload["sequences"]:
        data.sequences[s["end"]] = ARSequenceData(s["end"], s["start"], list(s["middle"]))
    data.arrows = {(i, j): mult for i, j, mult in payload["arrows"]}
    data.projective_vertex = {int(k): v for k, v in payload["projectives"].items()}
    data.injective_vertex = {int(k): v for k, v in payload["injectives"].items()}
    _check_ar_links(data)
    return data


def _check_ar_links(data: ARQuiverData) -> None:
    """tau, the AR sequences, the arrows and the projective and injective
    marks agree with each other and with the modules' dimension vectors."""
    a = data.algebra
    everything = set(range(data.count))
    dims = [x.dims for x in data.indecomposables]

    def total(ids) -> List[int]:
        return [sum(dims[j][v] for j in ids) for v in range(a.vertex_count)]

    for marks, build in ((data.projective_vertex, projective), (data.injective_vertex, injective)):
        if not set(marks) <= everything or sorted(marks.values()) != list(a.quiver.vertices):
            raise ContractViolation("projective or injective marks do not cover the vertices once")
        if any(dims[x] != build(a, i).dims for x, i in marks.items()):
            raise ContractViolation("a projective or injective mark has the wrong dimension vector")
    non_projective = everything - set(data.projective_vertex)
    if set(data.tau_links) != non_projective or set(data.sequences) != non_projective:
        raise ContractViolation("tau and the AR sequences must end at exactly the non-projectives")
    if sorted(data.tau_links.values()) != sorted(everything - set(data.injective_vertex)):
        raise ContractViolation("tau is not a bijection onto the non-injectives")
    into: Dict[int, List[int]] = {}
    for (j, y), mult in data.arrows.items():
        if j not in everything or y not in everything or mult <= 0:
            raise ContractViolation(f"bad arrow entry {[j, y, mult]}")
        into.setdefault(y, []).extend([j] * mult)
    for y in everything:
        middle = sorted(into.get(y, []))
        if y in data.projective_vertex:
            # the arrows into P(i) are the summands of rad P(i)
            expected = list(dims[y])
            expected[data.projective_vertex[y] - 1] -= 1
            if total(middle) != expected:
                raise ContractViolation(f"arrows into {data.labels[y]} do not add up to its radical")
            continue
        seq = data.sequences[y]
        if seq.end != y or seq.start != data.tau_links[y] or sorted(seq.middle) != middle:
            raise ContractViolation(f"AR sequence at {data.labels[y]} disagrees with tau or arrows")
        if total(middle) != [s + e for s, e in zip(dims[seq.start], dims[y])]:
            raise ContractViolation(f"AR sequence at {data.labels[y]} is not additive")


class ARCache:
    def __init__(self, directory: str, enabled: bool):
        self.directory = directory
        self.enabled = enabled

    def path(self, key: str) -> str:
        return os.path.join(self.directory, key + ".json")

    def load(self, key: str, algebra: Algebra) -> Optional[ARQuiverData]:
        if not self.enabled:
            return None
        path = self.path(key)
        if not os.path.exists(path):
            return None
        try:
            with open(path, "r", encoding="utf-8") as fh:
                payload = json.load(fh)
            return ar_from_json(algebra, payload)
        except Exception as exc:  # corrupt entry: recompute and overwrite
            print(f"warning: corrupt cache entry {path} ({exc}); recomputing", file=sys.stderr)
            return None

    def store(self, key: str, data: ARQuiverData) -> None:
        if not self.enabled:
            return
        os.makedirs(self.directory, exist_ok=True)
        payload = json.dumps(data.to_json(), sort_keys=True, indent=1)
        fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(payload)
            os.replace(tmp, self.path(key))
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)


# --------------------------------------------------------------------------
# DOT emission
# --------------------------------------------------------------------------


def _marks(ar: ARQuiverData, i: int) -> List[str]:
    """P(v) and I(v) for an indecomposable that is projective or injective."""
    marks = []
    if i in ar.projective_vertex:
        marks.append(f"P({ar.projective_vertex[i]})")
    if i in ar.injective_vertex:
        marks.append(f"I({ar.injective_vertex[i]})")
    return marks


def ar_quiver_dot(ar: ARQuiverData) -> str:
    order = sorted(range(ar.count), key=lambda i: ar.labels[i])
    node_id = {i: f"n{k}" for k, i in enumerate(order)}
    lines = ["digraph ar_quiver {", "  rankdir=LR;"]
    for i in order:
        marks = _marks(ar, i)
        label = ar.labels[i] + (f"\\n{' '.join(marks)}" if marks else "")
        lines.append(f'  {node_id[i]} [label="{label}"];')
    for (i, j), mult in sorted(ar.arrows.items(), key=lambda kv: (ar.labels[kv[0][0]], ar.labels[kv[0][1]])):
        for _ in range(mult):
            lines.append(f"  {node_id[i]} -> {node_id[j]};")
    for end, start in sorted(ar.tau_links.items(), key=lambda kv: ar.labels[kv[0]]):
        lines.append(f'  {node_id[start]} -> {node_id[end]} [style=dashed, label="tau-"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def hasse_dot(hq) -> str:
    order = sorted(range(hq.vertex_count), key=lambda i: hq.vertices[i].label(hq.ar))
    node_id = {i: f"n{k}" for k, i in enumerate(order)}
    lines = ["digraph hasse {", "  rankdir=TB;"]
    for i in order:
        lines.append(f'  {node_id[i]} [label="{hq.vertices[i].label(hq.ar)}"];')
    for i, j, lbl in sorted(hq.edges, key=lambda e: (hq.vertices[e[0]].label(hq.ar), hq.vertices[e[1]].label(hq.ar))):
        lines.append(f'  {node_id[i]} -> {node_id[j]} [label="{lbl}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------
# verbs
# --------------------------------------------------------------------------


def load_algebra_file(path: str, cap: int) -> Algebra:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    return algebra_from_source(text, cap=cap)


class Context:
    """One invocation: its arguments, its algebra, and the algebra's AR data,
    read from the cache or enumerated when a verb first asks for it."""

    def __init__(self, args):
        self.args = args
        self.algebra = load_algebra_file(args.algebra, args.length_cap)
        self._ar: Optional[ARQuiverData] = None

    def ar(self) -> ARQuiverData:
        if self._ar is None:
            args = self.args
            caps = {"count_cap": args.count_cap, "dim_cap": args.dim_cap, "length_cap": args.length_cap}
            key = cache_key(self.algebra.source_text or self.algebra.content_hash(), caps)
            cache = ARCache(args.cache_dir, not args.no_cache)
            self._ar = cache.load(key, self.algebra)
            if self._ar is None:
                self._ar = enumerate_indecomposables(
                    self.algebra, count_cap=args.count_cap, dim_cap=args.dim_cap
                )
                cache.store(key, self._ar)
        return self._ar

    def module(self, selector: str) -> Representation:
        return resolve_module_sum(selector, self.algebra, self.ar)

    def pair(self) -> SupportTauTiltingPair:
        """The checked pair named by --summands (labels) and --kill (vertices)."""
        ar = self.ar()
        ids = [_label_index(ar, lbl)
               for lbl in filter(None, (s.strip() for s in self.args.summands.split(",")))]
        pair = pair_from_ids(ar, ids, self.args.kill)
        check_pair(pair, ar)
        return pair

    def answer(self, payload, text: str, indent: Optional[int] = 1) -> str:
        """The payload as JSON under --format json; the text otherwise (graph
        verbs pass DOT as their text)."""
        if self.args.format == "json":
            return json.dumps(payload, sort_keys=True, indent=indent) + "\n"
        return text


def _basis(run: Context) -> str:
    a, q = run.algebra, run.algebra.quiver
    payload = {"algebra": a.content_hash(), "dim": a.dim, "length_bound": a.length_bound,
               "basis": [p.label(q) for p in a.basis]}
    text = f"algebra {a.name or '?'}: dim {a.dim}, termination length {a.length_bound}\n"
    text += "".join(f"  {p.label(q)}: {p.source} -> {p.target(q)} (length {p.length})\n" for p in a.basis)
    return run.answer(payload, text)


def _indecs(run: Context) -> str:
    ar = run.ar()
    text = f"{ar.count} indecomposables\n"
    for i, label in enumerate(ar.labels):
        marks = _marks(ar, i)
        text += f"  {label}" + (f"  [{' '.join(marks)}]" if marks else "") + "\n"
    return run.answer(ar.to_json(), text)


def _ar_quiver(run: Context) -> str:
    ar = run.ar()
    return run.answer(ar.to_json(), ar_quiver_dot(ar))


def _tau(run: Context) -> str:
    m = run.module(run.args.module)
    t = tau_minus(m) if run.args.inverse else tau(m)
    label = t.dim_label()
    if not t.is_zero():
        try:
            ar = run.ar()
            idx = ar.index_of(t)
            if idx is not None:
                label = ar.labels[idx]
        except TautiltError:
            pass
    payload = rep_to_json(t)
    payload["label"] = label
    return run.answer(payload, label + "\n")


def _hom(run: Context) -> str:
    d = hom_dim(run.module(run.args.src), run.module(run.args.dst))
    return run.answer({"dim_hom": d}, f"dim Hom = {d}\n", indent=None)


def _ext(run: Context) -> str:
    d = ext1(run.module(run.args.src), run.module(run.args.dst)).dim
    return run.answer({"dim_ext1": d}, f"dim Ext^1 = {d}\n", indent=None)


def _grigid(run: Context) -> str:
    m = run.module(run.args.module)
    parts = [p for p, _ in decompose(m).factors] if not m.is_zero() else []
    gs = [g_vector(p) for p in parts]
    rigid = is_tau_rigid(m)
    rank = Matrix.from_rows([[Fraction(x) for x in g] for g in gs],
                            cols=run.algebra.vertex_count).rank() if gs else 0
    independent = rank == len(gs)
    payload = {
        "tau_rigid": rigid,
        "summands": [p.dim_label() for p in parts],
        "g_vectors": [list(g) for g in gs],
        "g_vectors_independent": independent,
    }
    text = f"tau-rigid: {rigid}\n"
    text += "".join(f"  g({p.dim_label()}) = {list(g)}\n" for p, g in zip(parts, gs))
    text += f"g-vectors linearly independent: {independent}\n"
    return run.answer(payload, text)


def _tilt_check(run: Context) -> str:
    res = tilting_checks(run.module(run.args.module))
    payload = {"partial_tilting": res.partial_tilting, "tilting": res.tilting,
               "summands": res.summands}
    return run.answer(payload, f"partial tilting: {res.partial_tilting}\ntilting: {res.tilting}\n",
                      indent=None)


def _bongartz(run: Context) -> str:
    m = run.module(run.args.module)
    if run.args.kind == "tilting":
        labels = sorted(p.dim_label() for p, _ in decompose(bongartz_tilting(m)).factors)
    else:
        labels = bongartz_tau(m, run.ar()).labels()
    return run.answer({"completion": labels}, "completion: " + " + ".join(labels) + "\n", indent=None)


def _statt_check(run: Context) -> str:
    m = run.module(run.args.module)
    ok = support_tau_tilting_check(m)
    payload = {"support_tau_tilting": ok}
    text = f"support tau-tilting: {ok}\n"
    if ok:
        payload["pair"] = complete_pair(m, run.ar()).label(run.ar())
        text += f"pair: {payload['pair']}\n"
    return run.answer(payload, text, indent=None)


def _label_index(ar, label: str) -> int:
    if label not in ar.labels:
        raise TautiltError(f"unknown summand label {label!r}")
    return ar.labels.index(label)


def _vertex_set(text: str) -> FrozenSet[int]:
    """The --kill argument: comma-separated vertex numbers."""
    try:
        return frozenset(int(v) for v in filter(None, (s.strip() for s in text.split(","))))
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated list of vertices: {text!r}")


def _mutate(run: Context) -> str:
    ar, at = run.ar(), run.args.at
    pair = run.pair()
    if at.startswith("P(") and at.endswith(")") and at[2:-1].isdigit():
        move = ("vertex", int(at[2:-1]))
    else:
        move = ("module", _label_index(ar, at))
    res = mutate(pair, ar, move)
    payload = {
        "pair": res.pair.label(ar),
        "direction": res.direction,
        "removed": res.removed,
        "added": res.added,
    }
    return run.answer(payload, f"{res.direction} mutation -> {payload['pair']}\n", indent=None)


def _hasse(run: Context) -> str:
    hq = hasse(run.algebra, vertex_cap=run.args.vertex_cap, ar=run.ar())
    return run.answer(hq.to_json(), hasse_dot(hq))


def _torsion_oracle(run: Context) -> str:
    rows = [(c.labels(), perp_right(c).labels())
            for c in enumerate_torsion_classes_oracle(run.ar())]
    payload = {"classes": [{"torsion": t, "torsion_free": f} for t, f in rows],
               "count": len(rows)}
    width = max((len(" + ".join(t)) for t, _ in rows), default=1)
    text = f"{len(rows)} torsion classes\n"
    for t, f in rows:
        text += f"  {(' + '.join(t) or '0').ljust(width + 3)}| {' + '.join(f) or '0'}\n"
    return run.answer(payload, text)


def _dagger(run: Context) -> str:
    d = dagger(run.pair())
    payload = {
        "summands": sorted(x.dim_label() for x in d.summands),
        "kill": sorted(d.kill),
        "algebra": "opposite",
    }
    return run.answer(payload, f"dagger pair over opposite: {d.label()}\n", indent=None)


def _bricks(run: Context) -> str:
    ar = run.ar()
    rows = [(ar.labels[i], r.is_brick, r.fbrick_image.dim_label()) for i, r in enumerate(bricks(ar))]
    payload = [{"module": x, "is_brick": b, "fbrick": f} for x, b, f in rows]
    return run.answer(payload, "".join(f"  {x}: brick={b} fbrick->{f}\n" for x, b, f in rows))


def _probe(run: Context) -> str:
    res = finiteness_probe(run.algebra, vertex_cap=run.args.vertex_cap, dim_cap=run.args.dim_cap)
    payload = {
        "tau_tilting_finite": res.tau_tilting_finite,
        "count": res.count,
        "evidence": res.evidence,
        "oracle_agrees": res.oracle_agrees,
    }
    verdict = {True: "finite", False: "infinite", None: "unknown"}[res.tau_tilting_finite]
    text = f"tau-tilting finite: {verdict}\n"
    if res.count is not None:
        text += f"support tau-tilting pairs: {res.count}\n"
    return run.answer(payload, text + f"evidence: {res.evidence}\n")


class Verb(NamedTuple):
    help: str
    options: Tuple[Tuple[str, dict], ...]   # (flag, add_argument keywords), after the algebra path
    handler: Callable[[Context], str]


MODULE = (("--module", {"required": True}),)
FROM_TO = (("--from", {"dest": "src", "required": True}), ("--to", {"dest": "dst", "required": True}))

# each verb once, in --help order
VERBS: Dict[str, Verb] = {
    "basis": Verb("residue-path basis and dimension", (), _basis),
    "indecs": Verb("enumerate the indecomposables", (), _indecs),
    "ar-quiver": Verb("AR quiver with tau links and meshes", (), _ar_quiver),
    "tau": Verb("AR translate of a module", MODULE + (
        ("--inverse", {"action": "store_true", "help": "compute tau^- instead"}),), _tau),
    "hom": Verb("dim Hom between two modules", FROM_TO, _hom),
    "ext": Verb("dim Ext^1 between two modules", FROM_TO, _ext),
    "grigid": Verb("g-vectors of the summands plus tau-rigidity", MODULE, _grigid),
    "tilt-check": Verb("partial tilting / tilting test", MODULE, _tilt_check),
    "bongartz": Verb("Bongartz completion", MODULE + (
        ("--kind", {"choices": ["tau", "tilting"], "default": "tau"}),), _bongartz),
    "statt-check": Verb("support tau-tilting test and pair completion", MODULE, _statt_check),
    "mutate": Verb("mutate a support tau-tilting pair", (
        ("--summands", {"default": "", "help": "comma-separated labels"}),
        ("--kill", {"default": "", "type": _vertex_set, "help": "comma-separated killed vertices"}),
        ("--at", {"required": True, "help": "summand label or P(v) for a killed vertex"})), _mutate),
    "hasse": Verb("Hasse quiver of support tau-tilting pairs", (), _hasse),
    "torsion-oracle": Verb("all torsion classes by brute force", (), _torsion_oracle),
    "dagger": Verb("the dagger of a pair, over the opposite algebra",
                   (("--summands", {"default": ""}), ("--kill", {"default": "", "type": _vertex_set})),
                   _dagger),
    "bricks": Verb("bricks and the brick map X -> X/rad_End X", (), _bricks),
    "probe": Verb("tau-tilting finiteness probe", (), _probe),
}


# --------------------------------------------------------------------------
# argument plumbing
# --------------------------------------------------------------------------


def _add_global_flags(parser: argparse.ArgumentParser, suppress: bool) -> None:
    d = (lambda val: argparse.SUPPRESS) if suppress else (lambda val: val)
    parser.add_argument("--cache-dir",
                        default=d(os.environ.get("TAUTILT_CACHE", DEFAULT_CACHE_DIR)))
    parser.add_argument("--no-cache", action="store_true",
                        default=d(False))
    parser.add_argument("--length-cap", type=int, default=d(DEFAULT_LENGTH_CAP),
                        help="path length cap for the basis")
    parser.add_argument("--count-cap", type=int, default=d(DEFAULT_COUNT_CAP))
    parser.add_argument("--dim-cap", type=int, default=d(DEFAULT_DIM_CAP))
    parser.add_argument("--vertex-cap", type=int, default=d(DEFAULT_VERTEX_CAP))
    parser.add_argument("--format", choices=["table", "json", "dot"], default=d("table"))


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="tautilt",
        description="Exact tau-tilting computations for quiver algebras.",
        epilog=(
            "Module selectors: P(i), I(i), S(i), an enumerated dim-vector label "
            "(disambiguated by trailing ', e.g. 111'), @file.json, or sums "
            "joined by '+'. Cache directory: TAUTILT_CACHE."
        ),
    )
    _add_global_flags(p, suppress=False)
    # global flags are also accepted after the verb; they only override when
    # actually given there (SUPPRESS keeps the pre-verb values otherwise)
    common = argparse.ArgumentParser(add_help=False)
    _add_global_flags(common, suppress=True)

    sub = p.add_subparsers(dest="verb", required=True)
    for name, verb in VERBS.items():
        sp = sub.add_parser(name, parents=[common], help=verb.help)
        sp.add_argument("algebra", help="path to a .alg file")
        for flag, options in verb.options:
            sp.add_argument(flag, **options)
    return p


def run(argv: Sequence[str]) -> int:
    """Parse argv, execute, print to stdout; returns the exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        return _dispatch(args)
    except ParseError as e:
        print(f"error [algebra/parse]: {e}", file=sys.stderr)
        return 2
    except TautiltError as e:
        module = _origin_module(e)
        print(f"error [{module}]: {e}", file=sys.stderr)
        return 1


def _origin_module(exc: BaseException) -> str:
    tb = exc.__traceback__
    origin = "engine"
    while tb is not None:
        mod = tb.tb_frame.f_globals.get("__name__", "")
        if mod.startswith("tautilt."):
            origin = mod.split(".", 1)[1]
        tb = tb.tb_next
    return origin


def _dispatch(args) -> int:
    sys.stdout.write(VERBS[args.verb].handler(Context(args)))
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
