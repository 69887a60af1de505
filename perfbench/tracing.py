"""Outside-in span tracing of permod's layers.

The tracer never edits permod: it replaces public functions at the
places where the calling modules bind them (``permod.decide.omega``,
``permod.oracle.act``, the engines returned by ``make_span`` ...) with
wrappers that record one span per call, and ``uninstall`` restores the
originals.  A name that no longer exists is skipped, so that layer
reports zero calls instead of failing.

A span is ``(name, start, end, parent, root, note)``: ``parent`` is the
index of the enclosing span in the same process (-1 at top level),
``root`` identifies the benchmark instance the call belongs to, and
``note`` holds the counts measured at that boundary.  Spans stay in
memory until ``dump``.
"""

from __future__ import annotations

import importlib
import json
import time
from contextlib import contextmanager

# per-layer metrics that are ratios of other metrics, recomputed after summing
RATIOS = {
    "linalg.insert.decide.useful_ratio": ("linalg.rank.decide", "linalg.insert.decide.calls"),
    "linalg.insert.oracle.useful_ratio": ("linalg.rank.oracle", "linalg.insert.oracle.calls"),
    "oracle.hit_ratio": ("oracle.hits", "oracle.calls"),
}


class Tracer:
    def __init__(self, root: str = "") -> None:
        self.spans: list = []
        self.stack: list[int] = []
        self.root = root
        self._undo: list = []
        # (membership span index, target) while a decision builds its rows
        self._rows_of: tuple[int, object] | None = None

    # -- recording ---------------------------------------------------------

    def _open(self) -> int:
        sid = len(self.spans)
        self.spans.append(None)
        self.stack.append(sid)
        return sid

    def _close(self, sid: int, name: str, t0: float, t1: float, note) -> None:
        self.stack.pop()
        parent = self.stack[-1] if self.stack else -1
        self.spans[sid] = (name, t0, t1, parent, self.root, note)

    @contextmanager
    def span(self, name: str):
        """A benchmark-side span around a block of calls."""
        sid = self._open()
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._close(sid, name, t0, time.perf_counter(), None)

    def wrap(self, fn, name: str, note=None):
        """A recording wrapper; ``note(args, result)`` gives the span's counts."""
        tracer = self

        def traced(*args, **kwargs):
            sid = tracer._open()
            t0 = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = time.perf_counter()
                tracer._close(sid, name, t0, t1, note(args, result) if note else None)

        traced.__wrapped__ = fn
        return traced

    # -- installing --------------------------------------------------------

    def _patch(self, owner, attr: str, make) -> None:
        """Replace ``owner.attr`` with ``make(original)``; skip if absent."""
        if owner is None or not hasattr(owner, attr):
            return
        own = vars(owner)
        self._undo.append((owner, attr, attr in own, own.get(attr)))
        setattr(owner, attr, make(getattr(owner, attr)))

    def install(self) -> "Tracer":
        def module(name):
            try:
                return importlib.import_module(name)
            except ImportError:
                return None

        decide = module("permod.decide")
        oracle = module("permod.oracle")
        structure = module("permod.structure")

        self._patch(decide, "membership", self._wrap_membership)
        self._patch(decide, "reduct_membership",
                    lambda f: self.wrap(f, "decide.reduct_membership"))
        self._patch(decide, "verify_certificate", lambda f: self.wrap(f, "decide.verify"))
        self._patch(decide, "omega", self._wrap_omega)
        self._patch(decide, "orbit_reps_over",
                    lambda f: self.wrap(f, "pmod.reps", _count_result))
        for attr in ("character_from_span", "normalize_functional"):
            self._patch(decide, attr, lambda f: self.wrap(f, "linalg.cert.decide"))
        self._patch(decide, "make_span", lambda f: self._wrap_make_span(f, "decide"))
        self._patch(oracle, "make_span", lambda f: self._wrap_make_span(f, "oracle"))
        self._patch(oracle, "oracle_membership", lambda f: self.wrap(f, "oracle", _hit_note))
        self._patch(oracle, "act", lambda f: self.wrap(f, "pmod.act"))
        self._patch(oracle, "random_instance", lambda f: self.wrap(f, "oracle.instance_gen"))
        # one call per grid size the oracle tries
        self._patch(getattr(oracle, "Grid", None), "integers",
                    lambda f: staticmethod(self.wrap(f, "oracle.grid")))
        self._patch(getattr(structure, "DLO", None), "enumerate_placements",
                    lambda f: self.wrap(f, "structure.placements", _count_result))
        return self

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, had, saved = self._undo.pop()
            if had:
                setattr(owner, attr, saved)
            else:
                delattr(owner, attr)

    def _wrap_membership(self, fn):
        tracer = self
        traced = self.wrap(fn, "decide.membership", _cert_note)

        def membership(target, *args, **kwargs):
            outer = tracer._rows_of
            # the wrapper's own span is the next one opened
            tracer._rows_of = (len(tracer.spans), target)
            try:
                return traced(target, *args, **kwargs)
            finally:
                tracer._rows_of = outer

        membership.__wrapped__ = fn
        return membership

    def _wrap_omega(self, fn):
        tracer = self

        def note(args, result):
            x = args[0]
            rows = tracer._rows_of
            if result is None or rows is None or tracer.stack[-2:-1] != [rows[0]]:
                return (len(x.terms),)
            # a row of the decision's span question: terms, is-target, row, keys
            keys = tuple(k for k, _ in result.entries)
            return (len(x.terms), x is rows[1], hash(result.entries), keys)

        return self.wrap(fn, "pmod.omega", note)

    def _wrap_make_span(self, make_span, site: str):
        tracer = self

        def traced_make_span(*args, **kwargs):
            engine = make_span(*args, **kwargs)
            for attr, layer, note in (
                ("insert", "linalg.insert.", _bool_note),
                ("reduce_comb", "linalg.reduce.", None),
                ("functional", "linalg.cert.", None),
            ):
                method = getattr(engine, attr, None)
                if method is not None:
                    setattr(engine, attr, tracer.wrap(method, layer + site, note))
            return engine

        traced_make_span.__wrapped__ = make_span
        return traced_make_span

    # -- output ------------------------------------------------------------

    def dump(self, path: str) -> None:
        """Write the spans, one JSON array per line; notes keep their first count."""
        with open(path, "w") as fh:
            for rec in self.spans:
                if rec is not None:  # a span cut short stays null
                    name, t0, t1, parent, root, note = rec
                    rec = (name, t0, t1, parent, root, note[:1] if note else None)
                fh.write(json.dumps(rec, separators=(",", ":")) + "\n")

    def metrics(self, skip_roots=frozenset()) -> dict[str, float]:
        return layer_metrics(self.spans, skip_roots)


def _count_result(args, result):
    return (len(result),) if result is not None else None


def _bool_note(args, result):
    return (bool(result),)


def _hit_note(args, result):
    return (bool(result is not None and result.conclusive),)


def _cert_note(args, result):
    if result is None:
        return None
    cert = result.certificate
    for attr in ("terms", "values"):
        if hasattr(cert, attr):
            return (len(getattr(cert, attr)),)
    return (len(cert.functional.entries),)


def layer_metrics(spans: list, skip_roots=frozenset()) -> dict[str, float]:
    """Per-layer counts, busy times and self times of one process's spans.

    Busy time is the total duration of a layer's spans; self time is that
    minus the time covered by their direct child spans.  Spans of the
    instances in ``skip_roots``, and spans that never closed (None), are
    left out.
    """
    calls: dict[str, int] = {}
    busy: dict[str, float] = {}
    selfs: dict[str, float] = {}
    counts: dict[str, int] = {}
    hits = {"linalg.insert.decide": 0, "linalg.insert.oracle": 0, "oracle": 0}
    rows: dict[int, set] = {}
    cols: dict[int, set] = {}

    child_time = [0.0] * len(spans)
    for rec in filter(None, spans):
        if rec[3] >= 0:
            child_time[rec[3]] += rec[2] - rec[1]
    for i, rec in enumerate(spans):
        if rec is None or rec[4] in skip_roots:
            continue
        name, t0, t1, parent, root, note = rec
        if name == "pmod.act" and (parent < 0 or (spans[parent] or ("",))[0] != "oracle"):
            continue  # act inside instance generation is not oracle work
        dur = t1 - t0
        calls[name] = calls.get(name, 0) + 1
        busy[name] = busy.get(name, 0.0) + dur
        selfs[name] = selfs.get(name, 0.0) + dur - child_time[i]
        if not note:
            continue
        if name in hits:
            hits[name] += note[0]
        else:
            counts[name] = counts.get(name, 0) + note[0]
        if name == "pmod.omega" and len(note) == 4:
            cols.setdefault(parent, set()).update(note[3])
            if not note[1]:
                rows.setdefault(parent, set()).add(note[2])

    def c(name):
        return calls.get(name, 0)

    out: dict[str, float] = {
        "structure.placements.calls": c("structure.placements"),
        "structure.placements.busy_s": busy.get("structure.placements", 0.0),
        "structure.placements.count": counts.get("structure.placements", 0),
        "pmod.reps.calls": c("pmod.reps"),
        "pmod.reps.busy_s": busy.get("pmod.reps", 0.0),
        "pmod.reps.self_s": selfs.get("pmod.reps", 0.0),
        "pmod.reps.count": counts.get("pmod.reps", 0),
        "pmod.omega.calls": c("pmod.omega"),
        "pmod.omega.busy_s": busy.get("pmod.omega", 0.0),
        "pmod.omega.terms": counts.get("pmod.omega", 0),
        "pmod.rows.distinct": sum(len(s) for s in rows.values()),
        "pmod.columns": sum(len(s) for s in cols.values()),
        "pmod.act.calls": c("pmod.act"),
        "pmod.act.busy_s": busy.get("pmod.act", 0.0),
    }
    for site in ("decide", "oracle"):
        out[f"linalg.insert.{site}.calls"] = c("linalg.insert." + site)
        out[f"linalg.insert.{site}.busy_s"] = busy.get("linalg.insert." + site, 0.0)
        out[f"linalg.rank.{site}"] = hits["linalg.insert." + site]
        out[f"linalg.reduce.{site}.calls"] = c("linalg.reduce." + site)
        out[f"linalg.reduce.{site}.busy_s"] = busy.get("linalg.reduce." + site, 0.0)
    out["linalg.cert.decide.calls"] = c("linalg.cert.decide")
    out["linalg.cert.decide.busy_s"] = busy.get("linalg.cert.decide", 0.0)
    for layer in ("decide.membership", "decide.verify"):
        out[layer + ".calls"] = c(layer)
        out[layer + ".busy_s"] = busy.get(layer, 0.0)
        out[layer + ".self_s"] = selfs.get(layer, 0.0)
    out.update({
        "decide.cert.terms": counts.get("decide.membership", 0),
        "oracle.calls": c("oracle"),
        "oracle.hits": hits["oracle"],
        "oracle.busy_s": busy.get("oracle", 0.0),
        "oracle.self_s": selfs.get("oracle", 0.0),
        "oracle.grids": c("oracle.grid"),
        "oracle.instance_gen_s": busy.get("oracle.instance_gen", 0.0),
    })
    return with_ratios(out)


def sum_metrics(parts: list[dict[str, float]]) -> dict[str, float]:
    """Add per-process metrics together and recompute the ratios."""
    total: dict[str, float] = {}
    for part in parts:
        for k, v in part.items():
            total[k] = total.get(k, 0) + v
    return with_ratios(total)


def with_ratios(m: dict[str, float]) -> dict[str, float]:
    for name, (num, den) in RATIOS.items():
        m[name] = m.get(num, 0) / m[den] if m.get(den) else 0.0
    return m
