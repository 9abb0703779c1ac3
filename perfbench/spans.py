"""Spans around the calls into each spherecalc module, recorded from outside.

``Tracer.installed()`` replaces the public functions listed in ``TARGETS``
with wrappers that record one span per call: name, start, end, the span
that was open when it started, and the request (workload operation) it
belongs to.  Spans stay in memory in flat arrays until ``write`` dumps them.
The program itself is not modified; every wrapper is removed on exit.
"""

from __future__ import annotations

import argparse
import gzip
import json
import sys
from array import array
from contextlib import contextmanager
from time import perf_counter_ns

# (module, attribute path, span name); the span name's first component is
# the layer.  Element arithmetic in groupring runs millions of times per
# run and is timed by microbenchmarks instead.
TARGETS = (
    ("cli", "main", "cli.main"),
    ("cli", "build_parser", "cli.build_parser"),
    ("cli", "parse_manifold_spec", "cli.parse_manifold_spec"),
    ("cli", "parse_int_vector", "cli.parse_int_vector"),
    ("cli", "cmd_classify", "cli.cmd_classify"),
    ("cli", "cmd_enumerate", "cli.cmd_enumerate"),
    ("cli", "build_catalog", "cli.build_catalog"),
    ("cli", "CatalogFile.to_json_text", "cli.to_json_text"),
    ("classifier", "classify", "classifier.classify"),
    ("classifier", "enumerate_representable", "classifier.enumerate_representable"),
    ("classifier", "exists_simple_sphere", "classifier.exists_simple_sphere"),
    ("classifier", "lw_bound", "classifier.lw_bound"),
    ("classifier", "ks_condition", "classifier.ks_condition"),
    ("classifier", "uniqueness_status", "classifier.uniqueness_status"),
    ("intlattice", "IntersectionForm.__post_init__", "intlattice.IntersectionForm"),
    ("intlattice", "signature", "intlattice.signature"),
    ("intlattice", "integer_det", "intlattice.integer_det"),
    ("intlattice", "divisibility", "intlattice.divisibility"),
    ("intlattice", "self_intersection", "intlattice.self_intersection"),
    ("intlattice", "is_characteristic", "intlattice.is_characteristic"),
    ("intlattice", "is_isometric", "intlattice.is_isometric"),
    ("groupring", "GroupRingElem.is_unit", "groupring.is_unit"),
    ("groupring", "LaurentElem.is_unit", "groupring.is_unit"),
    ("hermitian", "congruence_search", "hermitian.congruence_search"),
    ("hermitian", "pointed_congruence_search", "hermitian.congruence_search"),
    ("hermitian", "ring_mat_mul", "hermitian.ring_mat_mul"),
    ("hermitian", "ring_det", "hermitian.ring_det"),
    ("hermitian", "verify_congruence", "hermitian.verify_congruence"),
)

# argparse does the CLI's parsing; its entry point is counted as cli work.
PARSE_ARGS = "cli.parse_args"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("l")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("l")
        self.request = array("l")
        self.current_request = -1
        self._stack: list[int] = []

    def __len__(self):
        return len(self.start)

    def _wrap(self, fn, span_name: str):
        nid = self._ids.setdefault(span_name, len(self._ids))
        if nid == len(self.names):
            self.names.append(span_name)
        stack = self._stack

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.request.append(self.current_request)
            self.end.append(0)
            stack.append(idx)
            self.start.append(perf_counter_ns())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[idx] = perf_counter_ns()
                stack.pop()

        return traced

    @contextmanager
    def installed(self):
        """Wrap every target in every spherecalc module that binds it."""
        patches = []
        modules = [m for n, m in sys.modules.items() if n == "spherecalc" or n.startswith("spherecalc.")]
        for module_name, path, span_name in TARGETS:
            owner = sys.modules[f"spherecalc.{module_name}"]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapper = self._wrap(original, span_name)
            patches.append((owner, attr, original))
            setattr(owner, attr, wrapper)
            if not outer:  # also rebind names imported with `from ... import`
                for module in modules:
                    if module is not owner and getattr(module, attr, None) is original:
                        patches.append((module, attr, original))
                        setattr(module, attr, wrapper)
        parse_args = argparse.ArgumentParser.parse_args
        patches.append((argparse.ArgumentParser, "parse_args", parse_args))
        argparse.ArgumentParser.parse_args = self._wrap(parse_args, PARSE_ARGS)
        try:
            yield self
        finally:
            for owner, attr, original in reversed(patches):
                setattr(owner, attr, original)

    def aggregate(self) -> dict[str, dict]:
        """Per span name: call count, inclusive ns, and self ns.

        Self time is a span's duration minus its direct children's; with a
        single thread the children's intervals are disjoint and nested.
        """
        n = len(self.start)
        duration = array("q", (self.end[i] - self.start[i] for i in range(n)))
        own = array("q", duration)
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                own[p] -= duration[i]
        out = {name: {"count": 0, "incl_ns": 0, "self_ns": 0} for name in self.names}
        for i in range(n):
            entry = out[self.names[self.name[i]]]
            entry["count"] += 1
            entry["incl_ns"] += duration[i]
            entry["self_ns"] += own[i]
        return out

    def write(self, path) -> None:
        """Dump every span: a JSON header line, then the raw int64 arrays."""
        header = {
            "names": self.names,
            "spans": len(self),
            "arrays": ["name", "start_ns", "end_ns", "parent", "request"],
            "itemsize": 8,
            "byteorder": sys.byteorder,
        }
        with gzip.open(path, "wb", compresslevel=1) as fh:
            fh.write((json.dumps(header) + "\n").encode())
            for arr in (self.name, self.start, self.end, self.parent, self.request):
                fh.write(array("q", arr).tobytes())
