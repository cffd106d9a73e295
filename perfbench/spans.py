"""Span tracer that wraps tautilt's public functions from outside the engine.

The engine modules bind each other's functions with ``from .x import y``, so a
function is patched in every ``tautilt.*`` namespace that holds it, not only
in the module that defines it.  Spans (name, start, end, parent, job) are kept
in flat arrays in memory and written out once, when the run ends.  Self time
is derived afterwards: a span's duration minus the durations of its direct
child spans.
"""

from __future__ import annotations

import importlib
import pickle
import time
from array import array
from collections import Counter

MODULES = ("linalg", "algebra", "rep", "homology", "tautilting", "cli", "fixtures")

# (defining module, attribute or Class.method, span name)
TARGETS = (
    ("linalg", "rref_rank", "linalg.rref_rank"),
    ("linalg", "kernel_basis", "linalg.kernel_basis"),
    ("linalg", "solve_linear", "linalg.solve_linear"),
    # the subspace operations are reported together under one name
    ("linalg", "subspace_ops", "linalg.subspace_ops"),
    ("linalg", "subspace_sum", "linalg.subspace_ops"),
    ("linalg", "subspace_intersection", "linalg.subspace_ops"),
    ("linalg", "subspace_complement", "linalg.subspace_ops"),
    ("algebra", "algebra_from_source", "algebra.algebra_from_source"),
    ("algebra", "quotient_by_vertices", "algebra.quotient_by_vertices"),
    ("rep", "hom_basis", "rep.hom_basis"),
    ("rep", "decompose", "rep.decompose"),
    ("rep", "is_isomorphic", "rep.is_isomorphic"),
    ("rep", "trace_and_reject", "rep.trace_and_reject"),
    ("homology", "projective_cover_map", "homology.projective_cover_map"),
    ("homology", "injective_envelope_map", "homology.injective_envelope_map"),
    ("homology", "tau", "homology.tau"),
    ("homology", "transpose", "homology.transpose"),
    ("homology", "ext1", "homology.ext1"),
    ("homology", "ar_sequence", "homology.ar_sequence"),
    ("homology", "enumerate_indecomposables", "homology.enumerate_indecomposables"),
    ("homology", "ARQuiverData.hom_table", "homology.hom_table"),
    ("homology", "ARQuiverData.ext_table", "homology.ext_table"),
    ("tautilting", "gen_class", "tautilting.gen_class"),
    ("tautilting", "is_tau_rigid", "tautilting.is_tau_rigid"),
    ("tautilting", "check_pair", "tautilting.check_pair"),
    ("tautilting", "mutate", "tautilting.mutate"),
    ("tautilting", "hasse", "tautilting.hasse"),
    ("tautilting", "exchange_step", "tautilting.exchange_step"),
    ("tautilting", "finiteness_probe", "tautilting.finiteness_probe"),
    ("tautilting", "enumerate_torsion_classes_oracle", "tautilting.oracle"),
    ("cli", "_dispatch", "cli.dispatch"),
    ("cli", "ARCache.load", "cli.cache.load"),
    ("cli", "ARCache.store", "cli.cache.store"),
)

# counts recorded at a boundary besides the call itself: name -> f(args, result)
EXTRAS = {
    "linalg.rref_rank": ("cells", lambda args, r: args[0].rows * args[0].cols),
    "rep.decompose": ("summands", lambda args, r: len(r.parts)),
    "rep.is_isomorphic": ("true", lambda args, r: 1 if r else 0),
    "homology.enumerate_indecomposables": ("indecs", lambda args, r: r.count),
    "tautilting.finiteness_probe": ("pairs", lambda args, r: r.count or 0),
}

MEMO_NAMESPACES = ("projective", "injective", "presentation", "tau", "tau_minus",
                   "ext1", "hom_basis", "ar_quiver")


class Tracer:
    """Records spans of the wrapped functions while installed."""

    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.job_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.extra: Counter = Counter()
        self.memo_entries: Counter = Counter()
        self.job = 0
        self._stack = [-1]
        self._algebras: list = []
        self._undo: list = []

    def _nid(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, name: str, fn):
        nid = self._nid(name)
        name_ids, parents, jobs = self.name_id, self.parent, self.job_id
        starts, ends, stack = self.start, self.end, self._stack
        extra = EXTRAS.get(name)
        counter = self.extra
        key = f"{name}.{extra[0]}" if extra else None
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1])
            jobs.append(tracer.job)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if extra is not None:
                counter[key] += extra[1](args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def install(self) -> None:
        mods = {m: importlib.import_module(f"tautilt.{m}") for m in MODULES}
        for mod_name, attr, span in TARGETS:
            owner = mods[mod_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[meth]
                self._undo.append((cls, meth, orig))
                setattr(cls, meth, self._wrap(span, orig))
                continue
            orig = getattr(owner, attr, None)
            if orig is None:
                continue
            wrapper = self._wrap(span, orig)
            for mod in mods.values():
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._undo.append((mod, key, orig))
                        setattr(mod, key, wrapper)
        # every Algebra built while installed, so memo sizes can be read per job
        algebra_cls = mods["algebra"].Algebra
        orig_init = algebra_cls.__dict__["__init__"]
        created = self._algebras

        def init(obj, *args, **kwargs):
            orig_init(obj, *args, **kwargs)
            created.append(obj)

        self._undo.append((algebra_cls, "__init__", orig_init))
        algebra_cls.__init__ = init

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._undo):
            setattr(owner, key, orig)
        self._undo.clear()

    def end_job(self) -> None:
        """Count the memo entries of every algebra built in the job, then let
        them go."""
        for a in self._algebras:
            for ns in MEMO_NAMESPACES:
                self.memo_entries[ns] += len(a.memo(ns))
        self._algebras.clear()
        self.job += 1

    # -- persistence and merging -------------------------------------------------

    def dump(self, path) -> None:
        state = {
            "names": self.names, "name_id": self.name_id, "parent": self.parent,
            "job_id": self.job_id, "start": self.start, "end": self.end,
            "extra": dict(self.extra), "memo_entries": dict(self.memo_entries),
        }
        with open(path, "wb") as fh:
            pickle.dump(state, fh, protocol=pickle.HIGHEST_PROTOCOL)

    def merge(self, path, job: int) -> Counter:
        """Append the spans a traced child process dumped, under job id ``job``;
        returns the child's call count per span name."""
        with open(path, "rb") as fh:
            st = pickle.load(fh)
        remap = [self._nid(n) for n in st["names"]]
        base = len(self.start)
        self.name_id.extend(remap[i] for i in st["name_id"])
        self.parent.extend(p + base if p >= 0 else -1 for p in st["parent"])
        self.job_id.extend(job for _ in st["job_id"])
        self.start.extend(st["start"])
        self.end.extend(st["end"])
        self.extra.update(st["extra"])
        self.memo_entries.update(st["memo_entries"])
        return Counter(st["names"][i] for i in st["name_id"])


def summarize(tr: Tracer) -> dict:
    """Per-name calls, self time and total time, plus the recorded extras."""
    n = len(tr.start)
    dur = array("d", (tr.end[i] - tr.start[i] for i in range(n)))
    child = array("d", bytes(8 * n))
    parent = tr.parent
    for i in range(n):
        p = parent[i]
        if p >= 0:
            child[p] += dur[i]
    calls: Counter = Counter()
    self_s: Counter = Counter()
    total_s: Counter = Counter()
    names = tr.names
    for i in range(n):
        name = names[tr.name_id[i]]
        calls[name] += 1
        self_s[name] += dur[i] - child[i]
        total_s[name] += dur[i]
    # iso tests issued by the probe's own pair lookup, not by check_pair etc.
    probe_id = tr._ids.get("tautilting.finiteness_probe", -2)
    iso_id = tr._ids.get("rep.is_isomorphic", -2)
    lookup = sum(1 for i in range(n)
                 if tr.name_id[i] == iso_id and parent[i] >= 0
                 and tr.name_id[parent[i]] == probe_id)
    return {"spans": n, "calls": calls, "self_s": self_s, "total_s": total_s,
            "extra": tr.extra, "memo_entries": tr.memo_entries,
            "probe_lookup_iso_tests": lookup}
