"""Traced launcher: run one kyoung CLI invocation with spans around each layer.

    python traced.py TRACE_OUT [kyoung arguments ...]

Wraps the public functions of partitions, lattice, ideals, qpoly, verify and
cli from outside the package, runs ``kyoung.cli.main`` on the arguments, and
writes the spans to TRACE_OUT as JSON when the invocation ends, crash or not.
The exit code is the CLI's, or 1 after a traceback.

A span has a name, a start, an end and a parent.  Self time is its duration
less the time its child spans cover.  The hot spans (``contains`` alone runs
millions of times a workload) would not fit in memory as a list, so each span
is folded at close into a per-(parent, name) aggregate of count, total and
self time; the aggregates are written at the end.
"""

from __future__ import annotations

import json
import sys
import time

_clock = time.perf_counter
_t_import = _clock()
import kyoung  # noqa: E402
import kyoung.cli  # noqa: E402
IMPORT_S = _clock() - _t_import


class Tracer:
    """Open-span stack plus closed-span aggregates, all in memory."""

    def __init__(self):
        # A frame is [name, time covered by its closed children].
        self.stack: list[list] = [["root", 0.0]]
        # (parent name, name) -> [count, total_s, self_s]
        self.edges: dict[tuple[str, str], list] = {}
        # name -> extra counters (items, coeff_products, ...)
        self.counters: dict[str, dict[str, float]] = {}
        # Wrapper cost per span inside and outside its own clock readings.
        self.inner_s = self.outer_s = 0.0

    def count(self, name: str, counter: str, amount: float) -> None:
        bucket = self.counters.setdefault(name, {})
        bucket[counter] = bucket.get(counter, 0) + amount

    def _closer(self, name: str):
        stack, edges = self.stack, self.edges

        def close(frame: list, dur: float) -> None:
            stack.pop()
            parent = stack[-1]
            parent[1] += dur
            key = (parent[0], name)
            agg = edges.get(key)
            if agg is None:
                agg = edges[key] = [0, 0.0, 0.0]
            agg[0] += 1
            agg[1] += dur
            agg[2] += dur - frame[1]

        return close

    def span(self, name: str, fn, measure=None):
        """Wrap fn; measure(args, result) returns {counter: amount}."""
        push, close, count = self.stack.append, self._closer(name), self.count

        def wrapper(*args, **kwargs):
            frame = [name, 0.0]
            push(frame)
            t0 = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                close(frame, _clock() - t0)
            if measure is not None:
                for counter, amount in measure(args, result).items():
                    count(name, counter, amount)
            return result

        for attr in ("cache_info", "cache_clear", "__doc__", "__name__", "__qualname__"):
            if hasattr(fn, attr):
                setattr(wrapper, attr, getattr(fn, attr))
        wrapper.__wrapped__ = fn
        return wrapper

    def enumeration(self, name: str, fn):
        """Wrap a generator function; each next() is one span.

        A call made while a span of the same name is open (the recursion
        inside partitions_of) runs unwrapped, so items count outer yields.
        """
        stack, close, count = self.stack, self._closer(name), self.count

        def timed(it):
            while True:
                frame = [name, 0.0]
                stack.append(frame)
                t0 = _clock()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    close(frame, _clock() - t0)
                count(name, "items", 1)
                yield item

        def wrapper(*args, **kwargs):
            if stack[-1][0] == name:
                return fn(*args, **kwargs)
            return timed(fn(*args, **kwargs))

        wrapper.__wrapped__ = fn
        return wrapper

    def calibrate(self, calls: int = 50_000, rounds: int = 5) -> None:
        """Measure the wrapper's own cost, to take it out of self times.

        A span's clock readings take in part of the wrapper (inner_s); the
        rest (outer_s) lands in its parent's self time.  Both are the best
        of several rounds of a wrapped no-op against a bare one.
        """
        def nop():
            pass

        name = "trace.calibration"
        wrapped = self.span(name, nop)
        inner, outer = [], []
        for _ in range(rounds):
            t0 = _clock()
            for _ in range(calls):
                nop()
            bare = _clock() - t0
            self.edges.pop(("root", name), None)
            t0 = _clock()
            for _ in range(calls):
                wrapped()
            traced = _clock() - t0
            measured = self.edges.pop(("root", name))[2]
            inner.append(max(measured - bare, 0.0) / calls)
            outer.append(max(traced - measured, 0.0) / calls)
        self.inner_s, self.outer_s = min(inner), min(outer)

    def layer_times(self) -> dict[str, list]:
        """name -> [calls, self_s, total_s], without the calibrated wrapper cost.

        total_s leaves out spans nested in a span of the same name, so a
        recursive call is not counted twice.
        """
        out: dict[str, list] = {}
        for (parent, name), (calls, total, self_s) in self.edges.items():
            entry = out.setdefault(name, [0, 0.0, 0.0])
            entry[0] += calls
            entry[1] += self_s - calls * self.inner_s
            if parent != name:
                entry[2] += total - calls * self.inner_s
            out.setdefault(parent, [0, 0.0, 0.0])[1] -= calls * self.outer_s
        out.pop("root", None)
        for entry in out.values():
            entry[1] = max(entry[1], 0.0)
        return out


def _coeff_products(args, result):
    a, b = args
    return {"coeff_products": len(a.coeffs) * (len(b.coeffs) if hasattr(b, "coeffs") else 1)}


def _ideal_members(args, result):
    return {"members": len(result)}


def _ideal_vertices(args, result):
    return {"vertices": result.vertex_count()}


class CacheGrowth:
    """Keeps each result the lru cache of fn newly stores, to size at the end.

    The cache already holds these objects, so the list costs one pointer
    each; sizing them once at exit keeps the per-call cost to one lookup.
    """

    def __init__(self, fn):
        self.fn = fn
        self.misses = fn.cache_info().misses
        self.stored: list = []

    def __call__(self, args, result):
        misses = self.fn.cache_info().misses
        if misses != self.misses:
            self.misses = misses
            self.stored.append(result)
        return {}

    def megabytes(self) -> float:
        total = 0
        for poly in self.stored:
            cs = poly.coeffs
            total += sys.getsizeof(cs) + sum(sys.getsizeof(c) for c in cs if not -5 <= c <= 256)
        return total / 2**20


def install(tracer: Tracer) -> tuple[dict, CacheGrowth]:
    """Wrap every layer boundary in every kyoung module that binds it.

    lattice and ideals bind partitions functions through ``from .partitions
    import``, while verify and cli call module attributes, so each original
    function object is replaced wherever it appears in a module namespace.
    Returns the original lru-cached functions by span name, and the record
    of what the Gaussian memo stored.
    """
    from kyoung import cli, ideals, lattice, partitions, qpoly, verify

    spans = {
        "partitions.contains": [partitions.contains],
        "partitions.k_skew": [partitions.k_skew],
        "partitions.k_conjugate": [partitions.k_conjugate],
        "lattice.leq": [lattice.leq],
        "lattice.covers": [lattice.covers, lattice.covers_oracle, lattice.check_rectangle_translation],
        "lattice.build_ideal": [lattice.build_ideal],
        "ideals.enumerate_ideal": [ideals.enumerate_ideal, ideals.gamma_set],
        "ideals.lattice_ops": [ideals.meet, ideals.join, ideals.complement_dual],
        "qpoly.gaussian": [qpoly.gaussian],
        "qpoly.predicates": [qpoly.is_unimodal, qpoly.is_symmetric, qpoly.sieved_sums],
        "qpoly.series": [
            qpoly.rank_gen_Lk,
            qpoly.rank_gen_gamma,
            qpoly.conjecture_sum,
            qpoly.cyclotomic_check,
            qpoly.cyclotomic_polynomial,
            qpoly.count_Lk,
        ],
        "verify": [
            verify.run_check,
            verify.verify_conjecture_u,
            verify.verify_conjecture_gen,
            verify.verify_sieved,
            verify.verify_structure,
        ],
        "verify.render": [verify.render, verify.export],
        "cli": [cli.main],
    }
    measures = {
        "ideals.enumerate_ideal": _ideal_members,
        "lattice.build_ideal": _ideal_vertices,
        "qpoly.gaussian": CacheGrowth(qpoly.gaussian),
    }
    replacement = {}
    for name, fns in spans.items():
        for fn in fns:
            replacement[id(fn)] = tracer.span(name, fn, measures.get(name))
    for fn in (partitions.partitions_of, partitions.partitions_in_box, partitions.k_bounded_partitions):
        replacement[id(fn)] = tracer.enumeration("partitions.enumerate", fn)

    modules = [kyoung, cli, ideals, lattice, partitions, qpoly, verify]
    for module in modules:
        for attr, value in list(vars(module).items()):
            wrapper = replacement.get(id(value))
            if wrapper is not None and wrapper.__wrapped__ is value:
                setattr(module, attr, wrapper)

    methods = [
        (qpoly.QPoly, "__mul__", "qpoly.mul", _coeff_products),
        (qpoly.QPoly, "__add__", "qpoly.add", None),
        (qpoly.QPoly, "__divmod__", "qpoly.divmod", None),
        (lattice.HasseDiagram, "to_json_dict", "lattice.render", None),
        (lattice.HasseDiagram, "to_dot", "lattice.render", None),
    ]
    for cls, attr, name, measure in methods:
        setattr(cls, attr, tracer.span(name, getattr(cls, attr), measure))

    return {
        "partitions.k_skew": partitions.k_skew,
        "partitions.k_conjugate": partitions.k_conjugate,
        "qpoly.gaussian": qpoly.gaussian,
    }, measures["qpoly.gaussian"]


def report(tracer: Tracer, caches: dict, gaussian_growth: CacheGrowth, exit_code: int) -> dict:
    layers = {
        name: {"calls": calls, "self_s": self_s, "total_s": total_s}
        for name, (calls, self_s, total_s) in tracer.layer_times().items()
    }
    for name, counters in tracer.counters.items():
        layers.setdefault(name, {"calls": 0, "self_s": 0.0}).update(counters)
    for name, fn in caches.items():
        info = fn.cache_info()
        layer = layers.setdefault(name, {"calls": 0, "self_s": 0.0})
        layer.update(hits=info.hits, misses=info.misses, cache_size=info.currsize)
    layers["qpoly.gaussian"]["cache_mb"] = gaussian_growth.megabytes()
    return {
        "exit_code": exit_code,
        "import_s": IMPORT_S,
        "wrapper_cost_s": {"inner": tracer.inner_s, "outer": tracer.outer_s},
        "layers": layers,
        "edges": [
            {"parent": parent, "name": name, "count": c, "total_s": total, "raw_self_s": self_s}
            for (parent, name), (c, total, self_s) in sorted(tracer.edges.items())
        ],
    }


def main(argv: list[str]) -> int:
    out_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    tracer.calibrate()
    caches, gaussian_growth = install(tracer)
    exit_code = 1
    try:
        exit_code = kyoung.cli.main(cli_args)
    finally:
        # Cache sizes are read here, before the interpreter tears down; on a
        # crash the traceback follows once the trace is written.
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(report(tracer, caches, gaussian_growth, exit_code), fh)
    return exit_code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
