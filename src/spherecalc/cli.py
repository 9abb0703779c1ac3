"""Command-line front end: classification queries, catalogs, form algebra.

JSON output is the stable contract; the table format is for humans and
may change.  A catalog is a function of its header, ``CatalogFile``, and
``write_catalog`` is its one renderer: it batches and writes the plane
slices of ``_report_chunks``, which splices repeated planes of the box from
a bounded cache, writes report bodies as text, and keeps no report, so
memory stays flat however large the box.  ``CatalogFile.from_json_text``
compares a file with the same slices, so it accepts only the catalog of its
own header.  Matrix and class literals are JSON arrays of integers.  A
hermitian-form literal is a JSON array of polynomial entries, bare or
quoted, each read by ``parse_poly``: integer coefficients and powers of
``T`` (cyclic rings) or ``t``, with ``t^-2``-style negative exponents
(Laurent ring).  ``form congruent``'s ``--budget`` bounds the nodes of
the congruence search and defaults to ``hermitian.DEFAULT_BUDGET``.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import re
import sys
from dataclasses import dataclass
from datetime import datetime, timezone
from functools import lru_cache
from itertools import chain, islice, starmap
from operator import itemgetter

from . import __version__, classifier, hermitian, intlattice
from .classifier import FourManifold, SphereClassReport
from .errors import InvalidForm, ParseError, SpherecalcError
from .groupring import MAX_CYCLIC_ORDER, CyclicRing, LaurentRing, Ring
from .intlattice import E8_MATRIX, H_MATRIX, Matrix, block_diag, freeze_matrix

CATALOG_SCHEMA = "spherecalc.catalog/1"

_BUILTIN_MATRICES = {
    "CP2": ((1,),),
    "H": H_MATRIX,
    "E8": E8_MATRIX,
}


# ---------------------------------------------------------------------------
# literal parsing


def _load_json(text: str, what: str):
    """``json.loads(text)``; every failure is a parse error naming ``what``."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON {what}: {exc.msg}", position=exc.pos) from exc
    except ValueError as exc:  # an integer literal longer than int() converts
        raise ParseError(f"invalid JSON {what}: an integer literal has too many digits") from exc
    except RecursionError as exc:
        raise ParseError(f"JSON {what} nests too deeply") from exc


def parse_int_matrix(text: str, what: str = "matrix", square: bool = True) -> Matrix:
    """Strict JSON array-of-arrays of integers; ``what`` names it in errors."""
    data = _load_json(text, what)
    if not isinstance(data, list) or not all(isinstance(row, list) for row in data):
        raise ParseError(f"{what} literal must be a JSON array of arrays")
    for row in data:
        if square and len(row) != len(data):
            raise ParseError(f"{what} literal must be square")
        for v in row:
            if not isinstance(v, int) or isinstance(v, bool):
                raise ParseError(f"{what} entries must be integers, got {v!r}")
    return tuple(tuple(row) for row in data)


def parse_int_vector(text: str) -> tuple[int, ...]:
    data = _load_json(text, "vector")
    if not isinstance(data, list):
        raise ParseError("class literal must be a JSON array of integers")
    for v in data:
        if not isinstance(v, int) or isinstance(v, bool):
            raise ParseError(f"class entries must be integers, got {v!r}")
    return tuple(data)


def _to_int(digits: str, position: int) -> int:
    """``int(digits)`` for a matched literal; too many digits is a parse error."""
    try:
        return int(digits)
    except ValueError as exc:
        raise ParseError("integer literal has too many digits", position=position) from exc


#: One signed term of a polynomial: a coefficient, a power of T (or t), or
#: both, with whitespace allowed between the parts; a ``*`` may join a
#: coefficient to its power.
_TERM_RE = re.compile(
    r"\s*([+-])?\s*(?:(\d+)\s*(?:\*\s*(?=[Tt]))?)?([Tt](?:\s*\^\s*(-?\d+))?)?\s*"
)
_INT_RE = re.compile(r"^[+-]?\d+$")


def parse_poly(text: str, ring: Ring, base: int = 0):
    """Parse one polynomial entry ("3 + 2T", "1 - t^-2", "2 * t^3", "7") over the ring.

    The entry is a run of terms, one ``_TERM_RE`` match each, and every
    term after the first needs a sign, so two numbers may not be adjacent.
    ``base`` is the entry's position in the text the user gave.
    """
    result, pos = ring.zero(), 0
    while True:
        m = _TERM_RE.match(text, pos)
        sign, coeff, power, exponent = m.groups()
        if not (coeff or power) or (pos and not sign):
            rest = text[pos:].strip()
            reason = f"cannot parse term {rest!r} in {text!r}" if rest else "empty polynomial entry"
            raise ParseError(reason, position=base + pos)
        c = _to_int(coeff, base + m.start(2)) if coeff else 1
        if sign == "-":
            c = -c
        if power:
            k = _to_int(exponent, base + m.start(4)) if exponent else 1
            result = result + ring.monomial(k, c)
        else:
            result = result + ring.from_int(c)
        pos = m.end()
        if pos == len(text):
            return result


#: One entry of a ring-matrix literal: quoted, or a bare run up to a
#: bracket, comma or quote that neither starts nor ends with whitespace.
_ENTRY_RE = re.compile(r""""([^"]*)"|'([^']*)'|([^\s\[\],"'](?:[^\[\],"']*[^\s\[\],"'])?)""")


def parse_form_matrix(text: str, ring: Ring) -> hermitian.HermitianForm:
    """Read a square matrix literal whose entries are polynomials, bare or quoted.

    Each entry is masked by a ``0`` padded to its length, so the JSON
    decoder checks the brackets, commas and nesting, and its error
    positions are positions in ``text``.  Each entry is then read by
    ``parse_poly``.
    """
    entries = list(_ENTRY_RE.finditer(text))
    data = _load_json(_ENTRY_RE.sub(lambda m: "0".ljust(len(m[0])), text), "form matrix")
    if not isinstance(data, list) or data != [[0] * len(data)] * len(data):
        raise ParseError("form matrix literal must be a square array of arrays")
    values = iter([parse_poly(m[m.lastindex], ring, m.start(m.lastindex)) for m in entries])
    return hermitian.HermitianForm(ring, tuple(tuple(islice(values, len(data))) for _ in data))


def parse_ring(text: str) -> Ring:
    s = text.strip()
    if s in ("laurent", "Z"):
        return LaurentRing()
    m = re.match(r"^(?:Z|cyclic:)(\d+)$", s)
    if m:
        d = _to_int(m.group(1), m.start(1))
        if not 1 <= d <= MAX_CYCLIC_ORDER:
            raise ParseError(
                f"cyclic ring order must be positive and at most {MAX_CYCLIC_ORDER}, "
                f"got {text!r}"
            )
        return CyclicRing(d)
    raise ParseError(
        f"unknown ring {text!r}: use 'laurent' (or 'Z') or 'Z<d>' such as 'Z2'"
    )


_DIAG_RE = re.compile(r"^diag\(([-\d,\s]*)\)$")


def _parse_manifold_component(text: str) -> Matrix:
    s = text.strip()
    if s in _BUILTIN_MATRICES:
        return _BUILTIN_MATRICES[s]
    m = _DIAG_RE.match(s)
    if m:
        body = m.group(1)
        entries = [v.strip() for v in body.split(",")] if body.strip() else []
        if not all(map(_INT_RE.match, entries)):
            raise ParseError(f"diag entries must be integers in {text!r}")
        # the first overlong entry raises, and no earlier entry contains it
        values = [_to_int(v, m.start(1) + body.index(v)) for v in entries]
        return block_diag(*[((v,),) for v in values])
    if s.startswith("["):
        return parse_int_matrix(s)
    raise ParseError(
        f"unknown manifold component {text!r}: use CP2, H, E8, diag(...), or a JSON matrix"
    )


@dataclass(frozen=True)
class ManifoldSpec:
    """Named intersection-form datum; '#' composes by block sum."""

    name: str
    matrix: Matrix
    ks: int = 0

    def manifold(self) -> FourManifold:
        try:
            form = intlattice.IntersectionForm(self.matrix)
        except ValueError as exc:
            raise InvalidForm(f"manifold {self.name!r}: {exc}") from exc
        return FourManifold(form, self.ks)

    def to_json_dict(self) -> dict:
        return {"name": self.name, "matrix": [list(r) for r in self.matrix], "ks": self.ks}

    @classmethod
    def from_json_dict(cls, data) -> "ManifoldSpec":
        return cls(
            name=str(data["name"]), matrix=freeze_matrix(data["matrix"]), ks=int(data["ks"])
        )


def parse_manifold_spec(text: str, ks: int = 0) -> ManifoldSpec:
    parts = [p for p in text.split("#")]
    if any(not p.strip() for p in parts):
        raise ParseError(f"empty component in manifold spec {text!r}")
    matrix = block_diag(*[_parse_manifold_component(p) for p in parts])
    return ManifoldSpec(name=text.strip(), matrix=matrix, ks=ks)


# ---------------------------------------------------------------------------
# catalog files


@dataclass(frozen=True)
class CatalogFile:
    """A catalog's header; its reports are fixed by the manifold and ``max_abs``.

    No report is stored: ``to_json_text`` streams the text through
    ``write_catalog``, and ``from_json_text`` compares a file with the plane
    slices of ``_report_chunks`` that it writes.
    """

    manifold: ManifoldSpec
    max_abs: int
    tool_version: str
    generated_at: str

    def _header(self) -> dict:
        """The document without its reports, as ``write_catalog`` writes it."""
        return {
            "schema": CATALOG_SCHEMA,
            "tool_version": self.tool_version,
            "generated_at": self.generated_at,
            "manifold": self.manifold.to_json_dict(),
            "max_abs": self.max_abs,
            "reports": [],
        }

    def to_json_text(self) -> str:
        out = io.StringIO()
        write_catalog(out, self, self.manifold.manifold())
        return out.getvalue()

    @classmethod
    def from_json_text(cls, text: str) -> "CatalogFile":
        """Read a catalog, accepting it only if it is the catalog of its own header.

        After a check that costs O(len(text)) -- ``max_abs`` is a
        nonnegative integer, at most len(reports) when b2 >= 1, and there
        are (2 max_abs + 1)^b2 reports -- the reports are compared, a plane
        slice at a time, with the decoded slices of ``_report_chunks``, which
        ``write_catalog`` writes.  The document must hold the values of the
        header and of each report, with their types; only whitespace and key
        order may differ.  The header it checked is returned, so no value of
        the file reaches the program.
        """
        # The decoded document is millions of containers without cycles,
        # which the collector would traverse again and again as it grows
        # (~40% of the read time), and the comparison makes none, so the
        # whole read runs with the collector off.
        collecting = gc.isenabled()
        gc.disable()
        try:
            return cls._read(_load_json(text, "catalog"))
        finally:
            if collecting:
                gc.enable()

    @classmethod
    def _read(cls, data) -> "CatalogFile":
        if not isinstance(data, dict):
            raise ParseError("a catalog must be a JSON object")
        if data.get("schema") != CATALOG_SCHEMA:
            raise ParseError(f"unsupported catalog schema {data.get('schema')!r}")
        try:
            spec = ManifoldSpec.from_json_dict(data["manifold"])
            max_abs, reports = data["max_abs"], data["reports"]
            # each value is coerced to its type, so a mistyped one fails the comparison
            header = cls(spec, max_abs, str(data["tool_version"]), str(data["generated_at"]))
        except (KeyError, TypeError, ValueError, OverflowError, SpherecalcError) as exc:
            raise ParseError(f"malformed catalog: {exc!r}") from exc
        if not isinstance(reports, list):
            raise ParseError(f"malformed catalog: 'reports' must be an array, got {reports!r}")
        b2 = len(spec.matrix)
        # a box of rank >= 1 holds more classes than max_abs; rank 0 holds one
        if type(max_abs) is not int or max_abs < 0 or (b2 and max_abs > len(reports)):
            raise ParseError(
                f"malformed catalog: 'max_abs' must be a nonnegative integer, in rank >= 1 "
                f"at most {len(reports)}, the number of reports; got {max_abs!r}"
            )
        if len(reports) != (2 * max_abs + 1) ** b2:
            raise ParseError(
                f"malformed catalog: the box of max_abs {max_abs} in rank {b2} holds "
                f"{(2 * max_abs + 1) ** b2} classes, but 'reports' has length {len(reports)}"
            )
        # JSON text, unlike ==, tells true from 1 and 1.0 from 1
        if json.dumps({**data, "reports": []}, sort_keys=True) != json.dumps(
            header._header(), sort_keys=True
        ):
            raise ParseError("malformed catalog: a mistyped value or an unknown key in the header")
        try:
            manifold = spec.manifold()
        except ValueError as exc:
            raise ParseError(f"malformed catalog: {exc}") from exc
        given = iter(reports)
        for parts, n, _, _ in _report_chunks(header, manifold):
            got = list(islice(given, n))
            if got != json.loads(f"[{''.join(parts)}]") or not _numbers_typed(got):
                raise ParseError("malformed catalog: the reports are not those of its header")
        return header


_REPORT_INTS = itemgetter("divisibility", "lw_bound", "b2", "sigma", "ks")


def _numbers_typed(reports: list) -> bool:
    """Whether each report's flag is a bool and its other numbers are ints.

    ``==`` takes true for 1 and 1.0 for 1, so reports that ``==`` matched
    can still be mistyped.
    """
    flags = map(itemgetter("characteristic"), reports)
    classes = chain.from_iterable(map(itemgetter("class"), reports))
    numbers = chain(classes, chain.from_iterable(map(_REPORT_INTS, reports)))
    return {*map(type, flags)} <= {bool} and {*map(type, numbers)} <= {int, type(None)}


def build_catalog(spec: ManifoldSpec, max_abs: int) -> CatalogFile:
    """The catalog of the box, stamped now by this tool version."""
    return CatalogFile(
        spec, max_abs, __version__, datetime.now(timezone.utc).isoformat(timespec="seconds")
    )


#: The one bound of ``write_catalog``: the most reports per write, the most
#: report bodies its LRU body cache holds, and the most classes of the planes
#: its LRU plane cache holds; a larger plane is yielded in slices of this size.
CHUNK_REPORTS = 4096


def write_catalog(fh, catalog: CatalogFile, manifold: FourManifold) -> tuple[int, int, int]:
    """Stream ``catalog`` to ``fh``; return (classes, representable, unique).

    The one catalog renderer: ``enumerate`` and ``CatalogFile.to_json_text``
    write through it, and ``manifold`` is the caller's ``FourManifold`` of
    the header's spec.  It writes the header dict's text, indented by two,
    around the plane slices of ``_report_chunks``, joined by ``",\n"``.  It
    is the one place that batches: the pieces of whole slices are gathered
    until the next slice would pass ``CHUNK_REPORTS`` reports, then joined
    and written at once, so memory stays flat however large the box and its
    rows.
    """
    head, tail = json.dumps(catalog._header(), indent=2).rsplit('"reports": []', 1)
    pending, batched = [head, '"reports": [\n'], 0
    classes = representable = unique = 0
    for parts, n, r, u in _report_chunks(catalog, manifold):
        if batched + n > CHUNK_REPORTS:
            fh.write("".join(pending))
            pending, batched = [], 0
        pending.append(",\n" if classes else "")
        pending += parts
        batched, classes, representable, unique = batched + n, classes + n, representable + r, unique + u
    pending.append("\n  ]" + tail + "\n")
    fh.write("".join(pending))
    return classes, representable, unique


def _report_chunks(catalog: CatalogFile, manifold: FourManifold):
    """Yield (parts, classes, representable, unique) per plane slice of the catalog's reports.

    A slice is a plane of ``classifier.Box``, or, when the plane holds more
    than ``CHUNK_REPORTS`` classes, a run of its rows with at most that many.
    ``parts`` is [head, tail, body, head, tail, body, ...], one triple per
    class: the head's text, the class's tail (the coordinates after the head)
    and its body (the rest, rendered per (divisibility, x.x, characteristic)
    key).  Its join is the slice's reports as the catalog indents them,
    joined by ``",\n"``, with no separator before the first.  Tails, bodies
    and counts depend only on the plane's signature, so a cached plane costs
    one list of references.  Both caches are ``functools`` LRU caches
    local to the call and bounded by ``CHUNK_REPORTS``: at most that many
    bodies, and planes of at most that many classes in all.  A larger plane
    is rendered in slices, and not kept.
    """
    box = classifier.Box(manifold, catalog.max_abs)
    if manifold.b2:
        class_open, class_sep, class_close = '    {\n      "class": [\n        ', ",\n        ", "\n      ],\n"
        run, row = box.run, 2 * catalog.max_abs + 1  # len(run) overflows on a huge box
    else:
        class_open, class_sep, class_close = '    {\n      "class": [', "", "],\n"
        run, row = ("",), 1  # the one class of rank 0 has no last coordinate
    plane_classes = row ** min(manifold.b2, 2)
    fixed = f'      "b2": {manifold.b2},\n      "sigma": {manifold.sigma},\n      "ks": {manifold.ks},\n'

    def names(items: tuple[str, ...]) -> str:
        """A list of reason or citation names, which need no escaping, as json.dumps indents it."""
        return "[\n" + ",\n".join([f'        "{v}"' for v in items]) + "\n      ]" if items else "[]"

    @lru_cache(CHUNK_REPORTS)
    def body(d: int, xx: int, characteristic: bool) -> tuple[str, bool, bool]:
        """(report text after the class, as json.dumps nests it, representable, unique) of the key."""
        r = classifier.report_from_invariants(manifold, (), d, xx, characteristic)
        lw_bound = "null" if r.lw_bound is None else r.lw_bound
        return (
            f'      "divisibility": {d},\n      "characteristic": {str(characteristic).lower()},\n'
            f'      "lw_bound": {lw_bound},\n{fixed}      "exists": "{r.exists}",\n'
            f'      "reasons": {names(r.reasons)},\n      "uniqueness": "{r.uniqueness}",\n'
            f'      "citations": {names(r.citations)}\n    }}',
            r.exists in (classifier.EXISTS_YES, classifier.EXISTS_BY_DEFINITION),
            r.uniqueness == classifier.UNIQUE_ISOTOPY,
        )

    def render(signature):
        """The plane's (tails, bodies, representable, unique) in slices of at most CHUNK_REPORTS."""
        tails, slice_bodies, representable, unique = [], [], 0, 0
        for lead, keys in box.rows(signature):
            lead = "".join([f"{v}{class_sep}" for v in lead])
            for i in range(0, row, CHUNK_REPORTS):
                part = list(islice(keys, CHUNK_REPORTS))
                if len(slice_bodies) + len(part) > CHUNK_REPORTS:
                    yield tails, slice_bodies, representable, unique
                    tails, slice_bodies, representable, unique = [], [], 0, 0
                entries = list(starmap(body, part))
                tails += [f"{lead}{t}{class_close}" for t in run[i : i + CHUNK_REPORTS]]
                slice_bodies += map(itemgetter(0), entries)
                representable += sum(map(itemgetter(1), entries))
                unique += sum(map(itemgetter(2), entries))
        yield tails, slice_bodies, representable, unique

    if plane_classes <= CHUNK_REPORTS:  # keep the most recently used planes that fit
        slices_of = lru_cache(CHUNK_REPORTS // plane_classes)(lambda sig: tuple(render(sig)))
    else:
        slices_of = render

    for coords, signature in box.planes():
        head = ",\n" + class_open + "".join([f"{v}{class_sep}" for v in coords])
        for tails, slice_bodies, r, u in slices_of(signature):
            parts = [head] * (3 * len(slice_bodies))
            parts[0] = head[2:]
            parts[1::3] = tails
            parts[2::3] = slice_bodies
            yield parts, len(slice_bodies), r, u


# ---------------------------------------------------------------------------
# output helpers


def _print_json(payload) -> None:
    print(json.dumps(payload, indent=2))


def _report_table(report: SphereClassReport) -> str:
    lines = [
        f"class:          {list(report.x)}",
        f"divisibility:   {report.divisibility}",
        f"characteristic: {'yes' if report.characteristic else 'no'}",
        f"lw_bound:       {report.lw_bound if report.lw_bound is not None else '-'}",
        f"b2 / sigma / ks: {report.b2} / {report.sigma} / {report.ks}",
        f"exists:         {report.exists}   ({', '.join(report.reasons) or 'zero class'})",
        f"uniqueness:     {report.uniqueness}",
        f"citations:      {', '.join(report.citations)}",
    ]
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# commands


def cmd_classify(args) -> int:
    spec = parse_manifold_spec(args.manifold, ks=args.ks)
    manifold = spec.manifold()
    x = parse_int_vector(getattr(args, "class"))
    report = classifier.classify(manifold, x)
    if args.format == "table":
        print(_report_table(report))
    else:
        _print_json(report.to_json_dict())
    return 0


def cmd_enumerate(args) -> int:
    spec = parse_manifold_spec(args.manifold, ks=args.ks)
    if args.max_abs < 0:
        raise ParseError("--max-abs must be nonnegative")
    manifold = spec.manifold()
    catalog = build_catalog(spec, args.max_abs)
    if args.out is None:
        counts = write_catalog(sys.stdout, catalog, manifold)
        sys.stdout.flush()  # a closed pipe fails here, before the summary
        print(_summary(*counts), file=sys.stderr)
        return 0
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            counts = write_catalog(fh, catalog, manifold)
    except OSError as exc:
        print(f"error: cannot write --out {args.out!r}: {exc.strerror or exc}", file=sys.stderr)
        return 1
    print(_summary(*counts))
    print(f"catalog written to {args.out}")
    return 0


def _summary(classes: int, representable: int, unique: int) -> str:
    return f"classes: {classes}  representable: {representable}  unique-isotopy: {unique}"


def _form_payload(form: hermitian.HermitianForm) -> dict:
    return {"form": form.to_json_dict(), "display": form.display()}


def cmd_form(args) -> int:
    if args.form_command == "build-equivariant":
        equiv = hermitian.EquivariantIntegerForm(
            parse_int_matrix(args.q), parse_int_matrix(args.t)
        )
        basis = parse_int_matrix(args.basis, "basis", square=False)
        _print_json(_form_payload(hermitian.build_equivariant_form(equiv, basis)))
        return 0
    ring = parse_ring(args.ring)
    if args.form_command == "augment":
        form = parse_form_matrix(args.a, ring)
        _print_json({"result": [list(r) for r in hermitian.augment_form(form)]})
        return 0
    if args.form_command == "nonsingular":
        form = parse_form_matrix(args.a, ring)
        _print_json({"nonsingular": hermitian.is_nonsingular(form), "det": str(form.det)})
        return 0
    if args.form_command == "congruent":
        form_a = parse_form_matrix(args.a, ring)
        form_b = parse_form_matrix(args.b, ring)
        if args.budget < 0:
            raise ParseError("--budget must be nonnegative")
        outcome = hermitian.congruence_search(form_a, form_b, args.budget)
        payload = {"status": outcome.status, "reason": outcome.reason}
        if outcome.witness is not None:
            payload["witness"] = [[str(v) for v in row] for row in outcome.witness]
        payload["nodes_explored"] = outcome.nodes_explored
        _print_json(payload)
        return 0
    matrix = parse_int_matrix(args.a)
    _print_json(_form_payload(hermitian.extend_integer_form(matrix, ring)))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spherecalc",
        description="Decide which homology classes of a closed simply-connected "
        "4-manifold are represented by simple embedded spheres.",
    )
    parser.add_argument("--version", action="version", version=f"spherecalc {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_classify = sub.add_parser("classify", help="classify one homology class")
    p_classify.add_argument("--manifold", required=True, help="CP2, H, E8, diag(...), JSON matrix, or A#B")
    p_classify.add_argument("--ks", type=int, default=0, choices=(0, 1))
    p_classify.add_argument("--class", required=True, help="JSON integer vector, e.g. [2,2,0,0]")
    p_classify.add_argument("--format", choices=("json", "table"), default="json")
    p_classify.set_defaults(func=cmd_classify)

    p_enum = sub.add_parser("enumerate", help="catalog all classes in a coordinate box")
    p_enum.add_argument("--manifold", required=True)
    p_enum.add_argument("--ks", type=int, default=0, choices=(0, 1))
    p_enum.add_argument("--max-abs", dest="max_abs", type=int, required=True)
    p_enum.add_argument("--out", help="write the JSON catalog here instead of stdout")
    p_enum.set_defaults(func=cmd_enumerate)

    p_form = sub.add_parser("form", help="hermitian form algebra")
    form_sub = p_form.add_subparsers(dest="form_command", required=True)

    p_aug = form_sub.add_parser("augment", help="entrywise T -> 1")
    p_aug.add_argument("--ring", required=True)
    p_aug.add_argument("--a", required=True)
    p_aug.set_defaults(func=cmd_form)

    p_nonsing = form_sub.add_parser("nonsingular", help="is the determinant a unit?")
    p_nonsing.add_argument("--ring", required=True)
    p_nonsing.add_argument("--a", required=True)
    p_nonsing.set_defaults(func=cmd_form)

    p_cong = form_sub.add_parser("congruent", help="bounded congruence search")
    p_cong.add_argument("--ring", required=True)
    p_cong.add_argument("--a", required=True)
    p_cong.add_argument("--b", required=True)
    p_cong.add_argument("--budget", type=int, default=hermitian.DEFAULT_BUDGET)
    p_cong.set_defaults(func=cmd_form)

    p_build = form_sub.add_parser(
        "build-equivariant", help="hermitian form from equivariant integer data"
    )
    p_build.add_argument("--q", required=True, help="JSON symmetric integer matrix")
    p_build.add_argument("--t", required=True, help="JSON integer matrix of finite order")
    p_build.add_argument("--basis", required=True, help="JSON list of orbit representatives")
    p_build.set_defaults(func=cmd_form)

    p_ext = form_sub.add_parser("extend", help="integer form as constant hermitian form")
    p_ext.add_argument("--ring", required=True)
    p_ext.add_argument("--a", required=True, help="JSON symmetric integer matrix")
    p_ext.set_defaults(func=cmd_form)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except OSError as exc:
        # Writing standard output failed: the reader closed the pipe, as
        # `| head` does, or the device is full (`enumerate --out` handles
        # its own file).  Point stdout at devnull so that the flush at
        # interpreter exit cannot raise too.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        if isinstance(exc, BrokenPipeError):
            reason = "standard output closed before the output was complete"
        else:
            reason = f"cannot write standard output: {exc.strerror or exc}"
        print(f"error: {reason}", file=sys.stderr)
        return 1
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SpherecalcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
