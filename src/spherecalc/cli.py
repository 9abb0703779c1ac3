"""Command-line front end: classification queries, catalogs, form algebra.

JSON output is the stable contract; the table format is for humans and
may change.  ``enumerate`` streams its catalog: it writes the bytes of
``CatalogFile.to_json_text`` chunk by chunk without keeping reports, so
its memory stays flat however large the box.  Matrix and class literals
are JSON arrays of integers; hermitian-form entries use a small
polynomial grammar, integer-coefficient polynomials in ``T`` (cyclic
rings) or ``t`` with ``t^-2``-style negative exponents (Laurent ring).
``SPHERECALC_BUDGET`` overrides the default node budget of the
congruence search.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from dataclasses import dataclass
from datetime import datetime, timezone

from . import __version__, classifier, hermitian, intlattice
from .classifier import FourManifold, SphereClassReport
from .errors import InvalidForm, ParseError, SpherecalcError
from .groupring import MAX_CYCLIC_ORDER, CyclicRing, LaurentRing, Ring
from .intlattice import E8_MATRIX, H_MATRIX, Matrix, block_diag, freeze_matrix

CATALOG_SCHEMA = "spherecalc.catalog/1"

BUDGET_ENV_VAR = "SPHERECALC_BUDGET"

_BUILTIN_MATRICES = {
    "CP2": ((1,),),
    "H": H_MATRIX,
    "E8": E8_MATRIX,
}


def resolve_budget(cli_value: int | None) -> int:
    if cli_value is not None:
        if cli_value < 0:
            raise ParseError("--budget must be nonnegative")
        return cli_value
    env = os.environ.get(BUDGET_ENV_VAR)
    if env is None:
        return hermitian.DEFAULT_BUDGET
    try:
        budget = int(env)
    except ValueError as exc:
        raise ParseError(f"{BUDGET_ENV_VAR} must be an integer, got {env!r}") from exc
    if budget < 0:
        raise ParseError(f"{BUDGET_ENV_VAR} must be nonnegative, got {env!r}")
    return budget


# ---------------------------------------------------------------------------
# literal parsing


def parse_int_matrix(text: str, what: str = "matrix", square: bool = True) -> Matrix:
    """Strict JSON array-of-arrays of integers; ``what`` names it in errors."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON {what}: {exc.msg}", position=exc.pos) from exc
    except RecursionError as exc:
        raise ParseError(f"JSON {what} nests too deeply") from exc
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
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON vector: {exc.msg}", position=exc.pos) from exc
    except RecursionError as exc:
        raise ParseError("JSON vector nests too deeply") from exc
    if not isinstance(data, list):
        raise ParseError("class literal must be a JSON array of integers")
    for v in data:
        if not isinstance(v, int) or isinstance(v, bool):
            raise ParseError(f"class entries must be integers, got {v!r}")
    return tuple(data)


_TERM_RE = re.compile(r"^([+-]?\d+|[+-]?)\*?([Tt])(?:\^(-?\d+))?$")
_INT_RE = re.compile(r"^[+-]?\d+$")


def _split_terms(text: str):
    """Split a polynomial into signed terms, keeping exponent minus signs."""
    terms = []
    cur = ""
    offset = 0
    for idx, ch in enumerate(text):
        if ch in "+-" and cur.strip() and not cur.rstrip().endswith("^"):
            terms.append((cur, offset))
            cur, offset = ch, idx
        else:
            cur += ch
    terms.append((cur, offset))
    return terms


def parse_poly(text: str, ring: Ring, base: int = 0):
    """Parse one polynomial entry ("3 + 2T", "1 - t^-2", "7") over the ring."""
    if not text.strip():
        raise ParseError("empty polynomial entry", position=base)
    result = ring.zero()
    for raw, offset in _split_terms(text):
        term = raw.replace(" ", "")
        if not term or term in "+-":
            raise ParseError(f"dangling sign in {text!r}", position=base + offset)
        if _INT_RE.match(term):
            result = result + ring.from_int(int(term))
            continue
        m = _TERM_RE.match(term)
        if m is None:
            raise ParseError(f"cannot parse term {raw.strip()!r}", position=base + offset)
        coeff_text, _, exp_text = m.groups()
        coeff = int(coeff_text) if coeff_text not in ("", "+", "-") else (-1 if coeff_text == "-" else 1)
        exponent = int(exp_text) if exp_text is not None else 1
        result = result + ring.monomial(exponent, coeff)
    return result


def _split_matrix_entries(text: str):
    """Parse ``[[e, e], [e, e]]`` into raw entry strings with offsets.

    Entries may be bare integers, polynomial expressions, or (for JSON
    compatibility) quoted strings; brackets never nest deeper than two.
    """
    s = text.strip()
    if not s.startswith("["):
        raise ParseError("matrix literal must start with '['", position=0)
    rows = []
    row = None
    cur = ""
    start = 0
    depth = 0
    for idx, ch in enumerate(s):
        if ch == "[":
            depth += 1
            if depth == 2:
                row = []
                cur, start = "", idx + 1
            elif depth > 2:
                raise ParseError("matrix literal nests too deeply", position=idx)
        elif ch == "]":
            if depth == 2:
                if cur.strip() or row:
                    row.append((cur, start))
                rows.append(row)
                row = None
            depth -= 1
            if depth < 0:
                raise ParseError("unbalanced ']'", position=idx)
        elif ch == "," and depth == 2:
            row.append((cur, start))
            cur, start = "", idx + 1
        elif depth == 2:
            cur += ch
        elif depth <= 1 and ch not in ", \t\n":
            raise ParseError(f"unexpected character {ch!r}", position=idx)
    if depth != 0:
        raise ParseError("unbalanced '['", position=len(s))
    return rows


def parse_form_matrix(text: str, ring: Ring) -> hermitian.HermitianForm:
    rows = []
    for raw_row in _split_matrix_entries(text):
        row = []
        for raw, offset in raw_row:
            entry = raw.strip()
            if len(entry) >= 2 and entry[0] == entry[-1] and entry[0] in "'\"":
                entry = entry[1:-1]
            row.append(parse_poly(entry, ring, base=offset))
        rows.append(tuple(row))
    if any(len(row) != len(rows) for row in rows):
        raise ParseError("form matrix literal must be square")
    return hermitian.HermitianForm(ring, tuple(rows))


def parse_ring(text: str) -> Ring:
    s = text.strip()
    if s in ("laurent", "Z"):
        return LaurentRing()
    m = re.match(r"^(?:Z|cyclic:)(\d+)$", s)
    if m:
        d = int(m.group(1))
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
        body = m.group(1).strip()
        try:
            entries = [int(v) for v in body.split(",")] if body else []
        except ValueError as exc:
            raise ParseError(f"diag entries must be integers in {text!r}") from exc
        return tuple(
            tuple(entries[i] if i == j else 0 for j in range(len(entries)))
            for i in range(len(entries))
        )
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
            name=data["name"], matrix=freeze_matrix(data["matrix"]), ks=int(data["ks"])
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
    manifold: ManifoldSpec
    max_abs: int
    reports: tuple[SphereClassReport, ...]
    tool_version: str
    generated_at: str
    schema: str = CATALOG_SCHEMA

    def __post_init__(self):
        classes = [r.x.coords for r in self.reports]
        if classes != sorted(classes):
            raise ValueError("catalog reports must be sorted lexicographically by class")

    def to_json_dict(self) -> dict:
        return {
            "schema": self.schema,
            "tool_version": self.tool_version,
            "generated_at": self.generated_at,
            "manifold": self.manifold.to_json_dict(),
            "max_abs": self.max_abs,
            "reports": [r.to_json_dict() for r in self.reports],
        }

    def to_json_text(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2) + "\n"

    @classmethod
    def from_json_text(cls, text: str) -> "CatalogFile":
        data = json.loads(text)
        if data.get("schema") != CATALOG_SCHEMA:
            raise ParseError(f"unsupported catalog schema {data.get('schema')!r}")
        return cls(
            manifold=ManifoldSpec.from_json_dict(data["manifold"]),
            max_abs=int(data["max_abs"]),
            reports=tuple(classifier.report_from_json_dict(r) for r in data["reports"]),
            tool_version=data["tool_version"],
            generated_at=data["generated_at"],
        )


def _now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def build_catalog(spec: ManifoldSpec, max_abs: int) -> CatalogFile:
    """The whole catalog in memory; ``enumerate`` streams the same bytes."""
    reports = classifier.enumerate_representable(spec.manifold(), max_abs)
    return CatalogFile(
        manifold=spec,
        max_abs=max_abs,
        reports=tuple(reports),
        tool_version=__version__,
        generated_at=_now(),
    )


#: Reports per write of a streamed catalog.
CHUNK_REPORTS = 4096


def write_catalog(
    fh, spec: ManifoldSpec, manifold: FourManifold, max_abs: int, generated_at: str
) -> tuple[int, int, int]:
    """Stream the catalog of the box to ``fh``; return (classes, representable, unique).

    The bytes are those of ``CatalogFile.to_json_text`` for the same
    ``generated_at``, but no report is kept.  A report's text after its
    class depends only on (divisibility, x.x, characteristic), so it is
    rendered once per such key, in a dict local to the call, together with
    the two flags the summary counts.
    """
    empty = CatalogFile(spec, max_abs, (), __version__, generated_at).to_json_text()
    head, tail = empty.rsplit('"reports": []', 1)
    fh.write(head + '"reports": [\n')
    if manifold.b2:
        class_open, class_sep, class_close = '    {\n      "class": [\n        ', ",\n        ", "\n      ],\n"
    else:
        class_open, class_sep, class_close = '    {\n      "class": [', "", "],\n"
    cache = {}
    chunk = []
    lead = ""
    classes = representable = unique = 0
    for x, d, xx, characteristic in classifier.walk_box(manifold, max_abs):
        key = (d, xx, characteristic)
        entry = cache.get(key)
        if entry is None:
            report = classifier.report_from_invariants(manifold, x, d, xx, characteristic)
            data = report.to_json_dict()
            del data["class"]
            body = json.dumps(data, indent=2)[2:].replace("\n", "\n    ")
            entry = cache[key] = (
                "    " + body,
                report.exists in (classifier.EXISTS_YES, classifier.EXISTS_BY_DEFINITION),
                report.uniqueness == classifier.UNIQUE_ISOTOPY,
            )
        body, is_representable, is_unique = entry
        chunk.append(class_open + class_sep.join(map(str, x)) + class_close + body)
        classes += 1
        representable += is_representable
        unique += is_unique
        if len(chunk) == CHUNK_REPORTS:
            fh.write(lead + ",\n".join(chunk))
            lead = ",\n"
            chunk.clear()
    if chunk:
        fh.write(lead + ",\n".join(chunk))
    fh.write("\n  ]" + tail)
    return classes, representable, unique


# ---------------------------------------------------------------------------
# output helpers


def _print_json(payload) -> None:
    print(json.dumps(payload, indent=2))


def _report_table(report: SphereClassReport) -> str:
    lines = [
        f"class:          {list(report.x.coords)}",
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
    if not args.out:
        try:
            counts = write_catalog(sys.stdout, spec, manifold, args.max_abs, _now())
            sys.stdout.flush()
        except BrokenPipeError:
            # The reader closed the pipe, as `| head` does.  Point stdout at
            # devnull so that the flush at interpreter exit cannot raise too.
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            print("error: standard output closed before the catalog was complete", file=sys.stderr)
            return 1
        print(_summary(*counts), file=sys.stderr)
        return 0
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            counts = write_catalog(fh, spec, manifold, args.max_abs, _now())
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
        budget = resolve_budget(args.budget)
        outcome = hermitian.congruence_search(form_a, form_b, budget)
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
    p_cong.add_argument("--budget", type=int, default=None)
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
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SpherecalcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
