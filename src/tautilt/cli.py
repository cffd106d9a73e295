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
from typing import Dict, List, Optional, Sequence

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


def ar_quiver_dot(ar: ARQuiverData) -> str:
    order = sorted(range(ar.count), key=lambda i: ar.labels[i])
    node_id = {i: f"n{k}" for k, i in enumerate(order)}
    lines = ["digraph ar_quiver {", "  rankdir=LR;"]
    for i in order:
        marks = []
        if i in ar.projective_vertex:
            marks.append(f"P({ar.projective_vertex[i]})")
        if i in ar.injective_vertex:
            marks.append(f"I({ar.injective_vertex[i]})")
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


def emit_graph(data, fmt: str) -> str:
    """DOT or JSON text for ar-quiver or Hasse data."""
    if fmt == "json":
        return json.dumps(data.to_json(), sort_keys=True, indent=1) + "\n"
    if fmt == "dot":
        if isinstance(data, ARQuiverData):
            return ar_quiver_dot(data)
        return hasse_dot(data)
    raise TautiltError(f"unknown graph format {fmt!r}")


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

    def verb(name, **kwargs):
        sp = sub.add_parser(name, parents=[common], **kwargs)
        sp.add_argument("algebra", help="path to a .alg file")
        return sp

    verb("basis", help="residue-path basis and dimension")
    verb("indecs", help="enumerate the indecomposables")
    verb("ar-quiver", help="AR quiver with tau links and meshes")
    sp = verb("tau", help="AR translate of a module")
    sp.add_argument("--module", required=True)
    sp.add_argument("--inverse", action="store_true", help="compute tau^- instead")
    sp = verb("hom", help="dim Hom between two modules")
    sp.add_argument("--from", dest="src", required=True)
    sp.add_argument("--to", dest="dst", required=True)
    sp = verb("ext", help="dim Ext^1 between two modules")
    sp.add_argument("--from", dest="src", required=True)
    sp.add_argument("--to", dest="dst", required=True)
    sp = verb("grigid", help="g-vectors of the summands plus tau-rigidity")
    sp.add_argument("--module", required=True)
    sp = verb("tilt-check", help="partial tilting / tilting test")
    sp.add_argument("--module", required=True)
    sp = verb("bongartz", help="Bongartz completion")
    sp.add_argument("--module", required=True)
    sp.add_argument("--kind", choices=["tau", "tilting"], default="tau")
    sp = verb("statt-check", help="support tau-tilting test and pair completion")
    sp.add_argument("--module", required=True)
    sp = verb("mutate", help="mutate a support tau-tilting pair")
    sp.add_argument("--summands", default="", help="comma-separated labels")
    sp.add_argument("--kill", default="", help="comma-separated killed vertices")
    sp.add_argument("--at", required=True, help="summand label or P(v) for a killed vertex")
    verb("hasse", help="Hasse quiver of support tau-tilting pairs")
    verb("torsion-oracle", help="all torsion classes by brute force")
    sp = verb("dagger", help="the dagger of a pair, over the opposite algebra")
    sp.add_argument("--summands", default="")
    sp.add_argument("--kill", default="")
    verb("bricks", help="bricks and the brick map X -> X/rad_End X")
    verb("probe", help="tau-tilting finiteness probe")
    return p


def load_algebra_file(path: str, cap: int) -> Algebra:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    return algebra_from_source(text, cap=cap)


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
    algebra = load_algebra_file(args.algebra, args.length_cap)
    caps = {"count_cap": args.count_cap, "dim_cap": args.dim_cap, "length_cap": args.length_cap}
    cache = ARCache(args.cache_dir, not args.no_cache)

    ar_box: List[Optional[ARQuiverData]] = [None]

    def get_ar() -> ARQuiverData:
        if ar_box[0] is None:
            key = cache_key(algebra.source_text or algebra.content_hash(), caps)
            cached = cache.load(key, algebra)
            if cached is not None:
                ar_box[0] = cached
            else:
                ar_box[0] = enumerate_indecomposables(
                    algebra, count_cap=args.count_cap, dim_cap=args.dim_cap
                )
                cache.store(key, ar_box[0])
        return ar_box[0]

    def module_of(sel: str) -> Representation:
        return resolve_module_sum(sel, algebra, get_ar)

    out = sys.stdout
    verb = args.verb

    if verb == "basis":
        if args.format == "json":
            payload = {
                "algebra": algebra.content_hash(),
                "dim": algebra.dim,
                "length_bound": algebra.length_bound,
                "basis": [p.label(algebra.quiver) for p in algebra.basis],
            }
            out.write(json.dumps(payload, sort_keys=True, indent=1) + "\n")
        else:
            out.write(f"algebra {algebra.name or '?'}: dim {algebra.dim}, "
                      f"termination length {algebra.length_bound}\n")
            for p in algebra.basis:
                q = algebra.quiver
                out.write(f"  {p.label(q)}: {p.source} -> {p.target(q)} (length {p.length})\n")
        return 0

    if verb == "indecs":
        ar = get_ar()
        if args.format == "json":
            out.write(json.dumps(ar.to_json(), sort_keys=True, indent=1) + "\n")
        else:
            out.write(f"{ar.count} indecomposables\n")
            for i, x in enumerate(ar.indecomposables):
                marks = []
                if i in ar.projective_vertex:
                    marks.append(f"P({ar.projective_vertex[i]})")
                if i in ar.injective_vertex:
                    marks.append(f"I({ar.injective_vertex[i]})")
                out.write(f"  {ar.labels[i]}" + (f"  [{' '.join(marks)}]" if marks else "") + "\n")
        return 0

    if verb == "ar-quiver":
        ar = get_ar()
        fmt = args.format if args.format != "table" else "dot"
        out.write(emit_graph(ar, fmt))
        return 0

    if verb == "tau":
        m = module_of(args.module)
        t = tau_minus(m) if args.inverse else tau(m)
        _print_module(out, t, algebra, get_ar, args.format)
        return 0

    if verb == "hom":
        src, dst = module_of(args.src), module_of(args.dst)
        d = hom_dim(src, dst)
        out.write(json.dumps({"dim_hom": d}) + "\n" if args.format == "json" else f"dim Hom = {d}\n")
        return 0

    if verb == "ext":
        src, dst = module_of(args.src), module_of(args.dst)
        d = ext1(src, dst).dim
        out.write(json.dumps({"dim_ext1": d}) + "\n" if args.format == "json" else f"dim Ext^1 = {d}\n")
        return 0

    if verb == "grigid":
        m = module_of(args.module)
        parts = [p for p, _ in decompose(m).factors] if not m.is_zero() else []
        gs = [g_vector(p) for p in parts]
        rigid = is_tau_rigid(m)
        rank = Matrix.from_rows([[Fraction(x) for x in g] for g in gs],
                                cols=algebra.vertex_count).rank() if gs else 0
        independent = rank == len(gs)
        payload = {
            "tau_rigid": rigid,
            "summands": [p.dim_label() for p in parts],
            "g_vectors": [list(g) for g in gs],
            "g_vectors_independent": independent,
        }
        if args.format == "json":
            out.write(json.dumps(payload, sort_keys=True, indent=1) + "\n")
        else:
            out.write(f"tau-rigid: {rigid}\n")
            for p, g in zip(parts, gs):
                out.write(f"  g({p.dim_label()}) = {list(g)}\n")
            out.write(f"g-vectors linearly independent: {independent}\n")
        return 0

    if verb == "tilt-check":
        res = tilting_checks(module_of(args.module))
        payload = {"partial_tilting": res.partial_tilting, "tilting": res.tilting,
                   "summands": res.summands}
        out.write(json.dumps(payload, sort_keys=True) + "\n" if args.format == "json"
                  else f"partial tilting: {res.partial_tilting}\ntilting: {res.tilting}\n")
        return 0

    if verb == "bongartz":
        m = module_of(args.module)
        if args.kind == "tilting":
            t = bongartz_tilting(m)
            labels = sorted(p.dim_label() for p, _ in decompose(t).factors)
        else:
            result = bongartz_tau(m, get_ar())
            labels = result.labels()
        if args.format == "json":
            out.write(json.dumps({"completion": labels}, sort_keys=True) + "\n")
        else:
            out.write("completion: " + " + ".join(labels) + "\n")
        return 0

    if verb == "statt-check":
        m = module_of(args.module)
        ok = support_tau_tilting_check(m)
        if ok:
            pair = complete_pair(m, get_ar())
            payload = {"support_tau_tilting": True, "pair": pair.label(get_ar())}
        else:
            payload = {"support_tau_tilting": False}
        out.write(json.dumps(payload, sort_keys=True) + "\n" if args.format == "json"
                  else (f"support tau-tilting: {ok}\n"
                        + (f"pair: {payload['pair']}\n" if ok else "")))
        return 0

    if verb == "mutate":
        ar = get_ar()
        pair = _pair_from_args(ar, args.summands, args.kill)
        if args.at.startswith("P(") and args.at.endswith(")"):
            move = ("vertex", int(args.at[2:-1]))
        else:
            move = ("module", ar.labels.index(args.at))
        res = mutate(pair, ar, move)
        payload = {
            "pair": res.pair.label(ar),
            "direction": res.direction,
            "removed": res.removed,
            "added": res.added,
        }
        out.write(json.dumps(payload, sort_keys=True) + "\n" if args.format == "json"
                  else f"{res.direction} mutation -> {res.pair.label(ar)}\n")
        return 0

    if verb == "hasse":
        hq = hasse(algebra, vertex_cap=args.vertex_cap, ar=get_ar())
        fmt = args.format if args.format != "table" else "dot"
        out.write(emit_graph(hq, fmt))
        return 0

    if verb == "torsion-oracle":
        ar = get_ar()
        classes = enumerate_torsion_classes_oracle(ar)
        if args.format == "json":
            payload = {
                "classes": [
                    {
                        "torsion": c.labels(),
                        "torsion_free": perp_right(c).labels(),
                    }
                    for c in classes
                ],
                "count": len(classes),
            }
            out.write(json.dumps(payload, sort_keys=True, indent=1) + "\n")
        else:
            out.write(f"{len(classes)} torsion classes\n")
            width = max((len(" + ".join(c.labels())) for c in classes), default=1)
            for c in classes:
                t = " + ".join(c.labels()) or "0"
                f = " + ".join(perp_right(c).labels()) or "0"
                out.write(f"  {t.ljust(width + 3)}| {f}\n")
        return 0

    if verb == "dagger":
        ar = get_ar()
        pair = _pair_from_args(ar, args.summands, args.kill)
        d = dagger(pair)
        payload = {
            "summands": sorted(x.dim_label() for x in d.summands),
            "kill": sorted(d.kill),
            "algebra": "opposite",
        }
        out.write(json.dumps(payload, sort_keys=True) + "\n" if args.format == "json"
                  else f"dagger pair over opposite: {d.label()}\n")
        return 0

    if verb == "bricks":
        ar = get_ar()
        records = bricks(ar)
        if args.format == "json":
            payload = [
                {"module": ar.labels[i], "is_brick": r.is_brick,
                 "fbrick": r.fbrick_image.dim_label()}
                for i, r in enumerate(records)
            ]
            out.write(json.dumps(payload, sort_keys=True, indent=1) + "\n")
        else:
            for i, r in enumerate(records):
                out.write(f"  {ar.labels[i]}: brick={r.is_brick} fbrick->{r.fbrick_image.dim_label()}\n")
        return 0

    if verb == "probe":
        res = finiteness_probe(algebra, vertex_cap=args.vertex_cap, dim_cap=args.dim_cap)
        payload = {
            "tau_tilting_finite": res.tau_tilting_finite,
            "count": res.count,
            "evidence": res.evidence,
            "oracle_agrees": res.oracle_agrees,
        }
        if args.format == "json":
            out.write(json.dumps(payload, sort_keys=True, indent=1) + "\n")
        else:
            verdict = {True: "finite", False: "infinite", None: "unknown"}[res.tau_tilting_finite]
            out.write(f"tau-tilting finite: {verdict}\n")
            if res.count is not None:
                out.write(f"support tau-tilting pairs: {res.count}\n")
            out.write(f"evidence: {res.evidence}\n")
        return 0

    raise TautiltError(f"unhandled verb {verb}")


def _print_module(out, m: Representation, algebra: Algebra, get_ar, fmt: str) -> None:
    label = None
    if not m.is_zero():
        try:
            ar = get_ar()
            idx = ar.index_of(m)
            if idx is not None:
                label = ar.labels[idx]
        except TautiltError:
            label = None
    if fmt == "json":
        payload = rep_to_json(m)
        payload["label"] = label or m.dim_label()
        out.write(json.dumps(payload, sort_keys=True, indent=1) + "\n")
    else:
        out.write((label or m.dim_label()) + "\n")


def _pair_from_args(ar: ARQuiverData, summands: str, kill: str) -> SupportTauTiltingPair:
    ids = []
    for lbl in filter(None, (s.strip() for s in summands.split(","))):
        if lbl not in ar.labels:
            raise TautiltError(f"unknown summand label {lbl!r}")
        ids.append(ar.labels.index(lbl))
    kill_set = frozenset(int(v) for v in filter(None, (s.strip() for s in kill.split(","))))
    pair = pair_from_ids(ar, ids, kill_set)
    check_pair(pair, ar)
    return pair


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
