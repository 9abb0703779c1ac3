import contextlib
import functools
import gc
import importlib
import io
import itertools
import json
import os
import re
import shlex
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from spherecalc import __version__, classifier, cli, groupring, hermitian
from spherecalc.classifier import DETERMINED_BY_FORM, EXISTS_BY_DEFINITION
from spherecalc.errors import ParseError
from spherecalc.groupring import CyclicRing, GroupRingElem, LaurentElem, LaurentRing
from spherecalc.hermitian import HermitianForm
from spherecalc.intlattice import E8_MATRIX, H_MATRIX, block_diag


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------------------
# literal parsing


def test_parse_poly_cyclic():
    z2 = CyclicRing(2)
    assert cli.parse_poly("3 + 2T", z2) == GroupRingElem(2, (3, 2))
    assert cli.parse_poly("-T", z2) == GroupRingElem(2, (0, -1))
    assert cli.parse_poly("T^2", z2) == GroupRingElem(2, (1, 0))
    assert cli.parse_poly("7", z2) == CyclicRing(2).from_int(7)
    assert cli.parse_poly("T^-1", z2) == CyclicRing(2).monomial(1)


def test_parse_poly_laurent():
    lr = LaurentRing()
    assert cli.parse_poly("1 - t^-2", lr) == LaurentElem(((0, 1), (-2, -1)))
    assert cli.parse_poly("t + t^-1", lr) == LaurentElem(((1, 1), (-1, 1)))
    assert cli.parse_poly("2*t^3", lr) == LaurentRing().monomial(3, 2)
    # whitespace may separate the parts of a term
    assert cli.parse_poly("2 T + 2 T^3", lr) == lr.monomial(1, 2) + lr.monomial(3, 2)
    assert cli.parse_poly("t ^ 2", lr) == lr.monomial(2)
    assert cli.parse_poly(" - 2 * t ^ -1 + 3 ", lr) == lr.from_int(3) - lr.monomial(-1, 2)


def test_parse_poly_errors_carry_positions():
    with pytest.raises(ParseError) as exc:
        cli.parse_poly("1 + + T", CyclicRing(2))
    assert exc.value.position is not None
    with pytest.raises(ParseError):
        cli.parse_poly("x^2", LaurentRing())
    with pytest.raises(ParseError):
        cli.parse_poly("", LaurentRing())


def test_parse_form_matrix():
    lr = LaurentRing()
    form = cli.parse_form_matrix("[[0, t],[t^-1, 0]]", lr)
    assert form.matrix[0][1] == LaurentRing().monomial(1)
    quoted = cli.parse_form_matrix('[["0", "t"],["t^-1", "0"]]', lr)
    assert quoted == form
    with pytest.raises(ParseError):
        cli.parse_form_matrix("[[1], [1, 2]]", lr)
    with pytest.raises(ParseError):
        cli.parse_form_matrix("[[1, 2]", lr)


@pytest.mark.parametrize("text", ["1 2", "*t + *t^-1", "1 0 t", "2*", "t 2", "1 + + t", "1 +"])
def test_adjacent_numbers_and_unsigned_terms_are_parse_errors(text):
    with pytest.raises(ParseError, match="cannot parse term") as exc:
        cli.parse_poly(text, LaurentRing())
    assert exc.value.position is not None


def test_form_matrix_error_positions_point_into_the_text():
    lr = LaurentRing()
    with pytest.raises(ParseError) as exc:
        cli.parse_form_matrix("[[1, 0], [0, 1 2]]", lr)
    assert exc.value.position == 15  # the '2'
    with pytest.raises(ParseError) as exc:
        cli.parse_form_matrix('[["t", 0] [0, "t^-1"]]', lr)
    assert exc.value.position == 10  # the missing comma
    with pytest.raises(ParseError, match="square array of arrays"):
        cli.parse_form_matrix("[[[1]]]", lr)


def _ring_elements(ring):
    """Random elements of ``ring``: sums of a few monomials."""
    exponents = st.integers(0, ring.d - 1) if isinstance(ring, CyclicRing) else st.integers(-6, 6)
    terms = st.lists(st.tuples(exponents, st.integers(-12, 12)), max_size=4)
    return terms.map(lambda ts: sum((ring.monomial(k, c) for k, c in ts), ring.zero()))


_ROUND_TRIP_RINGS = st.one_of(st.integers(1, 7).map(CyclicRing), st.just(LaurentRing()))


@settings(max_examples=300, deadline=None)
@given(_ROUND_TRIP_RINGS.flatmap(lambda r: st.tuples(st.just(r), _ring_elements(r))))
def test_parse_poly_reads_back_what_the_element_prints(case):
    ring, element = case
    assert cli.parse_poly(str(element), ring) == element


@st.composite
def _hermitian_2x2(draw):
    ring = draw(_ROUND_TRIP_RINGS)
    a, b, c = (draw(_ring_elements(ring)) for _ in range(3))
    matrix = ((a + a.conjugate(), b), (b.conjugate(), c + c.conjugate()))
    return HermitianForm(ring, matrix)


@settings(max_examples=200, deadline=None)
@given(_hermitian_2x2())
def test_parse_form_matrix_reads_back_the_display(form):
    display = form.display()
    bare = "[" + ", ".join("[" + ", ".join(row) + "]" for row in display) + "]"
    assert cli.parse_form_matrix(bare, form.ring) == form
    assert cli.parse_form_matrix(json.dumps(display), form.ring) == form


def test_parse_ring():
    assert cli.parse_ring("Z2") == CyclicRing(2)
    assert cli.parse_ring("cyclic:3") == CyclicRing(3)
    assert cli.parse_ring("laurent") == LaurentRing()
    assert cli.parse_ring("Z") == LaurentRing()
    with pytest.raises(ParseError):
        cli.parse_ring("Q")


def test_parse_manifold_components():
    assert cli.parse_manifold_spec("CP2").matrix == ((1,),)
    assert cli.parse_manifold_spec("H").matrix == H_MATRIX
    assert cli.parse_manifold_spec("E8").matrix == E8_MATRIX
    assert cli.parse_manifold_spec("diag(1, -1)").matrix == ((1, 0), (0, -1))
    assert cli.parse_manifold_spec("[[0,1],[1,0]]").matrix == H_MATRIX
    assert cli.parse_manifold_spec("H#H").matrix == block_diag(H_MATRIX, H_MATRIX)
    assert cli.parse_manifold_spec("CP2#[[-1]]").matrix == ((1, 0), (0, -1))
    with pytest.raises(ParseError):
        cli.parse_manifold_spec("CP3")
    with pytest.raises(ParseError):
        cli.parse_manifold_spec("H##H")


# ---------------------------------------------------------------------------
# classify command


def test_classify_cp2_class_3(capsys):
    code, out, _ = run(capsys, "classify", "--manifold", "CP2", "--ks", "0", "--class", "[3]")
    assert code == 0
    report = json.loads(out)
    assert report["exists"] == "No"
    assert "FailsLW" in report["reasons"]


def test_classify_two_hyperbolics_characteristic_class(capsys):
    code, out, _ = run(
        capsys, "classify", "--manifold", "H#H", "--ks", "0", "--class", "[2,2,0,0]"
    )
    assert code == 0
    report = json.loads(out)
    assert report["exists"] == "No"
    assert report["reasons"] == ["PassesLW", "FailsKS"]


def test_classify_zero_class(capsys):
    code, out, _ = run(capsys, "classify", "--manifold", "CP2", "--ks", "0", "--class", "[0]")
    assert code == 0
    report = json.loads(out)
    assert report["exists"] == EXISTS_BY_DEFINITION
    assert report["uniqueness"] == DETERMINED_BY_FORM


def test_classify_table_format(capsys):
    code, out, _ = run(
        capsys, "classify", "--manifold", "CP2", "--class", "[2]", "--format", "table"
    )
    assert code == 0
    assert "exists:" in out and "Yes" in out


def test_classify_parse_error_exit_code(capsys):
    code, _, err = run(capsys, "classify", "--manifold", "CP2", "--class", "[1,]")
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("entry", ["1.5", "true"])
def test_non_integer_class_entry_is_parse_error(capsys, entry):
    code, out, err = run(capsys, "classify", "--manifold", "CP2", "--class", f"[{entry}]")
    assert code == 2
    assert out == ""
    assert err == f"error: class entries must be integers, got {json.loads(entry)!r}\n"


def test_classify_dimension_error_exit_code(capsys):
    code, _, err = run(capsys, "classify", "--manifold", "CP2", "--class", "[1,0]")
    assert code == 1
    assert "error:" in err


# ---------------------------------------------------------------------------
# enumerate command


def test_enumerate_writes_catalog(tmp_path, capsys):
    out_path = tmp_path / "catalog.json"
    code, out, _ = run(
        capsys,
        "enumerate", "--manifold", "CP2", "--ks", "0", "--max-abs", "4",
        "--out", str(out_path),
    )
    assert code == 0
    assert "representable: 5" in out
    text = out_path.read_text(encoding="utf-8")
    catalog = cli.CatalogFile.from_json_text(text)
    assert catalog.max_abs == 4
    assert len(json.loads(text)["reports"]) == 9
    # byte-stable round trip
    assert catalog.to_json_text() == text


def test_enumerate_stdout_includes_schema(capsys):
    code, out, err = run(capsys, "enumerate", "--manifold", "CP2", "--max-abs", "0")
    assert code == 0
    data = json.loads(out)
    assert data["schema"] == cli.CATALOG_SCHEMA
    assert len(data["reports"]) == 1
    assert "classes: 1" in err


def test_enumerate_reports_are_sorted(tmp_path, capsys):
    out_path = tmp_path / "hh.json"
    code, _, _ = run(
        capsys,
        "enumerate", "--manifold", "H#H", "--max-abs", "1", "--out", str(out_path),
    )
    assert code == 0
    text = out_path.read_text(encoding="utf-8")
    cli.CatalogFile.from_json_text(text)
    classes = [r["class"] for r in json.loads(text)["reports"]]
    assert classes == sorted(classes)
    assert len(classes) == 81


def test_enumerate_two_hyperbolics_counts_match_predicate(tmp_path, capsys):
    import itertools
    import math

    out_path = tmp_path / "hh2.json"
    code, out, _ = run(
        capsys,
        "enumerate", "--manifold", "H#H", "--max-abs", "2", "--out", str(out_path),
    )
    assert code == 0
    expected = sum(
        1
        for x in itertools.product(range(-2, 3), repeat=4)
        if x == (0, 0, 0, 0)
        or math.gcd(*(abs(v) for v in x)) == 1
        or x[0] * x[1] + x[2] * x[3] == 0
    )
    assert f"representable: {expected}" in out
    text = out_path.read_text(encoding="utf-8")
    cli.CatalogFile.from_json_text(text)
    got = sum(r["exists"] in ("Yes", "YesByDefinition") for r in json.loads(text)["reports"])
    assert got == expected


def test_enumerate_negative_bound(capsys):
    code, _, err = run(capsys, "enumerate", "--manifold", "CP2", "--max-abs", "-1")
    assert code == 2
    assert "max-abs" in err


def test_enumerate_out_in_a_missing_directory_is_input_error(tmp_path, capsys, monkeypatch):
    def box(*_):
        raise AssertionError("no class may be walked before --out is open")

    monkeypatch.setattr(cli.classifier, "Box", box)
    out_path = tmp_path / "missing" / "x.json"
    code, out, err = run(
        capsys, "enumerate", "--manifold", "CP2", "--max-abs", "1", "--out", str(out_path)
    )
    assert code == 1
    assert err.startswith("error:") and "--out" in err
    assert out == ""
    assert not out_path.parent.exists()


def test_enumerate_out_empty_is_input_error(capsys):
    # an empty --out names no file that can be opened; it is not standard output
    code, out, err = run(capsys, "enumerate", "--manifold", "CP2", "--max-abs", "1", "--out", "")
    assert code == 1
    assert len(err.splitlines()) == 1 and err.startswith("error: cannot write --out '':")
    assert out == ""


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a full device")
def test_enumerate_out_on_a_full_device_is_input_error(capsys):
    code, out, err = run(
        capsys, "enumerate", "--manifold", "CP2", "--max-abs", "2", "--out", "/dev/full"
    )
    assert code == 1
    assert err.startswith("error:") and "--out" in err
    assert out == ""


def _run_into_closed_pipe(*argv):
    """Run the CLI, close its standard output after 100 bytes; (exit code, stderr)."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    proc = subprocess.Popen(
        [sys.executable, "-m", "spherecalc", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": src},
    )
    try:
        assert proc.stdout.read(100).startswith(b"{")
        proc.stdout.close()
        err = proc.stderr.read().decode()
    finally:
        proc.wait(timeout=60)
        proc.stderr.close()
    return proc.returncode, err


def test_enumerate_to_a_closed_pipe_exits_without_traceback():
    # at --max-abs 2^62 a row holds 2^63 + 1 classes, more than len() of a
    # range can count, and the writer must still stream it
    for manifold, max_abs in (("H#H#H", 2), ("CP2", 2**62), ("H#H", 2**62)):
        code, err = _run_into_closed_pipe(
            "enumerate", "--manifold", manifold, "--max-abs", str(max_abs)
        )
        assert code == 1, (manifold, err)
        assert len(err.splitlines()) == 1 and err.startswith("error:"), (manifold, err)


def test_form_extend_to_a_closed_pipe_exits_without_traceback():
    # Z4096 entries print ~210 KB of JSON, more than a pipe buffer holds
    code, err = _run_into_closed_pipe("form", "extend", "--ring", "Z4096", "--a", "[[0,1],[1,0]]")
    assert code == 1
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a full device")
@pytest.mark.parametrize(
    "argv",
    [
        ["classify", "--manifold", "CP2", "--class", "[1]"],
        # ~7 MB of catalog, more than a write buffer holds
        ["enumerate", "--manifold", "H#H#H", "--max-abs", "2"],
    ],
    ids=["classify", "enumerate"],
)
def test_stdout_on_a_full_device_exits_without_traceback(argv):
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    with open("/dev/full", "wb") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "spherecalc", *argv],
            stdout=full,
            stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": src},
            timeout=60,
        )
    err = proc.stderr.decode()
    assert proc.returncode == 1
    assert err.startswith("error:")
    assert "Traceback" not in err and "Exception ignored" not in err


STAMP = "2000-01-01T00:00:00+00:00"

#: (manifold, ks, max_abs): rank 0, a --max-abs 0 box, and the benchmark's
#: families; E8 box 1 (6,561 classes) spans more than one written chunk.
#: diag(1,-1,-1) has a negative signature, and the zero class of H#H#H
#: (b2 >= |sigma| + 6) carries three citations.
CATALOG_CASES = [
    ("CP2", 0, 4),
    ("H#H", 0, 2),
    ("CP2#CP2#CP2#diag(-1,-1)", 1, 2),
    ("E8", 0, 1),
    ("E8", 1, 1),
    ("diag()", 0, 3),
    ("H#H", 1, 0),
    ("diag(1,-1,-1)", 1, 2),
    ("H#H#H", 0, 1),
]


def in_memory_catalog(spec, max_abs):
    """(text, reports) of the box's catalog, from one ``classify`` call per class.

    The text is rendered here, as one ``json.dumps`` of the whole
    document, independently of ``cli.write_catalog``.
    """
    manifold = spec.manifold()
    coords = range(-max_abs, max_abs + 1)
    reports = tuple(
        classifier.classify(manifold, x)
        for x in itertools.product(coords, repeat=manifold.b2)
    )
    document = {
        "schema": cli.CATALOG_SCHEMA,
        "tool_version": __version__,
        "generated_at": STAMP,
        "manifold": spec.to_json_dict(),
        "max_abs": max_abs,
        "reports": [r.to_json_dict() for r in reports],
    }
    return json.dumps(document, indent=2) + "\n", reports


def summary_counts(reports):
    return (
        len(reports),
        sum(r.exists in ("Yes", "YesByDefinition") for r in reports),
        sum(r.uniqueness == "UniqueIsotopy" for r in reports),
    )


def streamed(spec, max_abs):
    """(text, counts) of ``cli.write_catalog`` for the box, stamped STAMP."""
    out = io.StringIO()
    catalog = cli.CatalogFile(spec, max_abs, __version__, STAMP)
    counts = cli.write_catalog(out, catalog, spec.manifold())
    return out.getvalue(), counts


def cp2_document():
    """The decoded CP2 box-1 catalog, to tamper with."""
    return json.loads(in_memory_catalog(cli.parse_manifold_spec("CP2"), 1)[0])


@pytest.mark.parametrize("manifold,ks,max_abs", CATALOG_CASES)
def test_streamed_catalog_equals_the_in_memory_catalog(manifold, ks, max_abs):
    spec = cli.parse_manifold_spec(manifold, ks=ks)
    text, reports = in_memory_catalog(spec, max_abs)
    assert streamed(spec, max_abs) == (text, summary_counts(reports))
    catalog = cli.CatalogFile(spec, max_abs, __version__, STAMP)
    assert catalog.to_json_text() == text
    assert tuple(classifier.enumerate_representable(spec.manifold(), max_abs)) == reports


def test_serialising_a_catalog_renders_each_report_body_once(monkeypatch):
    # a report depends on its class only through (divisibility, x.x,
    # characteristic), and H#H box 2 has 625 classes but far fewer such keys
    spec = cli.parse_manifold_spec("H#H")
    expected, reports = in_memory_catalog(spec, 2)

    def square(x):
        return sum(a * q * b for a, row in zip(x, spec.matrix) for q, b in zip(row, x))

    keys = {(r.divisibility, square(r.x), r.characteristic) for r in reports}
    calls = []
    report_from_invariants = classifier.report_from_invariants

    def counted(*args):
        calls.append(args)
        return report_from_invariants(*args)

    monkeypatch.setattr(classifier, "report_from_invariants", counted)
    assert cli.CatalogFile(spec, 2, __version__, STAMP).to_json_text() == expected
    assert len(calls) == len(keys) < len(reports)


@functools.cache
def cached_in_memory_text(manifold, max_abs):
    text, reports = in_memory_catalog(cli.parse_manifold_spec(manifold), max_abs)
    return text, summary_counts(reports)


@pytest.mark.parametrize("chunk", [1, 2, 8, 9, 10, 24, 25, 26])
def test_streamed_catalog_is_independent_of_the_chunk_size(monkeypatch, chunk):
    # CP2 is one plane and one row of 9 classes, H#H at box 2 is one plane
    # of 625 classes in rows of 5, H#H#H at box 2 is 625 planes of 25
    # classes, E8 at box 1 is 729 planes of 9, and rank 0 is one class: the
    # chunk sizes fall below, at and above a plane's class count, so planes
    # are cached, evicted, and streamed in slices that cut rows, and writes
    # end inside and between planes
    monkeypatch.setattr(cli, "CHUNK_REPORTS", chunk)
    for manifold, max_abs in (("CP2", 4), ("H#H", 2), ("H#H#H", 2), ("E8", 1), ("diag()", 1)):
        spec = cli.parse_manifold_spec(manifold)
        assert streamed(spec, max_abs) == cached_in_memory_text(manifold, max_abs)


@pytest.mark.parametrize(
    "manifold, max_abs, chunk, renders",
    [("H#H#H", 2, 250, 62), ("E8", 1, 180, 444)],
)
def test_streamed_catalog_keeps_the_most_recently_used_planes(
    monkeypatch, manifold, max_abs, chunk, renders
):
    # the planes of a box come back in runs: H#H#H at box 2 has 625 planes
    # of 25 classes with 19 signatures, E8 at box 1 has 729 planes of 9 with
    # 69, and a cache of 10 or 20 planes keeps the recent ones; dropping all
    # of them when it is full rendered 188 and 601 planes
    rows = classifier.Box.rows
    calls = []

    def counted(box, signature):
        calls.append(signature)
        return rows(box, signature)

    monkeypatch.setattr(classifier.Box, "rows", counted)
    monkeypatch.setattr(cli, "CHUNK_REPORTS", chunk)
    assert streamed(cli.parse_manifold_spec(manifold), max_abs) == cached_in_memory_text(
        manifold, max_abs
    )
    assert len(calls) == renders


@pytest.mark.parametrize("manifold, chunk, renders", [("H", 64, 260), ("CP2#CP2", 50, 98)])
def test_streamed_catalog_keeps_the_most_recently_used_bodies(
    monkeypatch, manifold, chunk, renders
):
    # at box 10 both are one plane of 441 classes, larger than the chunk, so
    # it is written in slices of rows and only the body cache is reused; an
    # LRU of 64 or 50 bodies keeps the keys the next rows share, while
    # dropping all of them before a slice would overflow rendered 368 and 197
    expected = cached_in_memory_text(manifold, 10)
    report_from_invariants = classifier.report_from_invariants
    calls = []

    def counted(*args):
        calls.append(args)
        return report_from_invariants(*args)

    monkeypatch.setattr(classifier, "report_from_invariants", counted)
    monkeypatch.setattr(cli, "CHUNK_REPORTS", chunk)
    assert streamed(cli.parse_manifold_spec(manifold), 10) == expected
    assert len(calls) == renders


def peak_of_streamed_catalogs(manifold, max_abs_values):
    """The tracemalloc peak of ``write_catalog`` to devnull, per box."""
    spec = cli.parse_manifold_spec(manifold)
    manifold = spec.manifold()
    peaks = []
    for max_abs in max_abs_values:
        catalog = cli.CatalogFile(spec, max_abs, __version__, STAMP)
        with open(os.devnull, "w", encoding="utf-8") as sink:
            tracemalloc.start()
            try:
                cli.write_catalog(sink, catalog, manifold)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
    return peaks


def test_streamed_catalog_memory_is_flat_on_long_rows(monkeypatch):
    # CP2 is one row, and each |t| has its own body.  With the write chunk
    # and the caches scaled down to 256 reports, a row ten times longer
    # raises the peak by less than 256 KB; a cache that kept every body grew
    # ~2.7 MB here.  At the real chunk size the peak at --max-abs 50000 is
    # ~0.2 MB above that at 5000, but that pair takes ~40 s under tracemalloc.
    monkeypatch.setattr(cli, "CHUNK_REPORTS", 256)
    peaks = peak_of_streamed_catalogs("CP2", (500, 5000))
    assert peaks[1] - peaks[0] < 256 * 1024, peaks


def test_streamed_catalog_memory_is_flat_on_large_planes(monkeypatch):
    # H is one plane of (2 max_abs + 1)^2 classes, far more than the 256 a
    # plane may hold to be kept, so it is streamed in slices of rows: a plane
    # almost nine times larger raises the peak by less than 256 KB
    monkeypatch.setattr(cli, "CHUNK_REPORTS", 256)
    peaks = peak_of_streamed_catalogs("H", (15, 45))
    assert peaks[1] - peaks[0] < 256 * 1024, peaks


@pytest.mark.parametrize("to_file", [True, False])
def test_enumerate_command_streams_the_in_memory_catalog(tmp_path, capsys, to_file):
    spec = cli.parse_manifold_spec("CP2#CP2#CP2#diag(-1,-1)", ks=1)
    argv = ["enumerate", "--manifold", spec.name, "--ks", "1", "--max-abs", "1"]
    out_path = tmp_path / "catalog.json"
    if to_file:
        argv += ["--out", str(out_path)]
    code, out, err = run(capsys, *argv)
    assert code == 0
    text = out_path.read_text(encoding="utf-8") if to_file else out
    summary = out.splitlines()[0] if to_file else err.strip()
    stamp = json.loads(text)["generated_at"]
    expected, reports = in_memory_catalog(spec, 1)
    assert text == expected.replace(STAMP, stamp)
    classes, representable, unique = summary_counts(reports)
    assert summary == (
        f"classes: {classes}  representable: {representable}  unique-isotopy: {unique}"
    )
    assert tuple(classifier.enumerate_representable(spec.manifold(), 1)) == reports


# ---------------------------------------------------------------------------
# form commands


def test_form_congruent_disproven(capsys):
    code, out, _ = run(
        capsys, "form", "congruent", "--ring", "Z2", "--a", "[[1]]", "--b", "[[T]]"
    )
    assert code == 0
    data = json.loads(out)
    assert data["status"] == "disproven"
    assert "determinant" in data["reason"]


def test_form_congruent_found_witness(capsys):
    code, out, _ = run(
        capsys,
        "form", "congruent", "--ring", "laurent",
        "--a", "[[0,1],[1,0]]", "--b", "[[0, t],[t^-1, 0]]",
    )
    assert code == 0
    data = json.loads(out)
    assert data["status"] == "found"
    assert data["witness"] == [["t", "0"], ["0", "1"]]


def test_form_congruent_reports_nodes_explored(capsys):
    code, out, _ = run(
        capsys,
        "form", "congruent", "--ring", "laurent",
        "--a", "[[0,1],[1,0]]", "--b", "[[0, t],[t^-1, 0]]",
    )
    assert code == 0
    data = json.loads(out)
    assert list(data) == ["status", "reason", "witness", "nodes_explored"]
    assert data["nodes_explored"] == 7
    _, out, _ = run(
        capsys, "form", "congruent", "--ring", "Z2", "--a", "[[1]]", "--b", "[[T]]"
    )
    assert json.loads(out)["nodes_explored"] == 0


def test_form_congruent_budget_exhaustion_exits_zero(capsys):
    code, out, _ = run(
        capsys,
        "form", "congruent", "--ring", "laurent", "--budget", "2",
        "--a", "[[0,1],[1,0]]", "--b", "[[0, t^2],[t^-2, 0]]",
    )
    assert code == 0
    data = json.loads(out)
    assert data["status"] == "not_found_within_budget"
    assert "witness" not in data


def test_negative_budget_is_parse_error(capsys):
    # like --max-abs -1: a negative node budget is rejected, not run
    code, out, err = run(
        capsys, "form", "congruent", "--ring", "laurent", "--a", "[[1]]", "--b", "[[1]]",
        "--budget", "-1",
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    assert "nonnegative" in err


def test_form_augment(capsys):
    code, out, _ = run(
        capsys, "form", "augment", "--ring", "laurent", "--a", "[[t+t^-1]]"
    )
    assert code == 0
    assert json.loads(out)["result"] == [[2]]


def test_form_nonsingular(capsys):
    code, out, _ = run(capsys, "form", "nonsingular", "--ring", "Z2", "--a", "[[1+T]]")
    assert code == 0
    data = json.loads(out)
    assert data["nonsingular"] is False
    assert data["det"] == "1 + T"


def test_form_build_equivariant(capsys):
    code, out, _ = run(
        capsys,
        "form", "build-equivariant",
        "--q", "[[0,1],[1,0]]", "--t", "[[0,1],[1,0]]", "--basis", "[[1,0]]",
    )
    assert code == 0
    data = json.loads(out)
    assert data["display"] == [["T"]]
    assert data["form"]["ring"] == {"kind": "cyclic", "d": 2}


def test_form_extend(capsys):
    code, out, _ = run(capsys, "form", "extend", "--ring", "Z2", "--a", "[[1]]")
    assert code == 0
    data = json.loads(out)
    assert data["display"] == [["1"]]


def test_form_ring_mismatch_is_parse_error(capsys):
    code, _, err = run(
        capsys, "form", "augment", "--ring", "Z9x", "--a", "[[1]]"
    )
    assert code == 2
    assert "ring" in err


@pytest.mark.parametrize("ring", ["Z0", "cyclic:0"])
def test_zero_cyclic_order_is_parse_error(capsys, ring):
    code, _, err = run(capsys, "form", "augment", "--ring", ring, "--a", "[[1]]")
    assert code == 2
    assert "positive" in err


@pytest.mark.parametrize(
    "manifold, reason",
    [
        ("[[2,0],[0,2]]", "unimodular"),
        ("[[1,1],[0,1]]", "symmetric"),
        ("[[1,2],[2,1]]", "unimodular"),
    ],
)
def test_invalid_manifold_form_is_input_error(capsys, manifold, reason):
    code, _, err = run(capsys, "classify", "--manifold", manifold, "--class", "[1,0]")
    assert code == 1
    assert reason in err


_SWAP = "[[0,1],[1,0]]"
_ID2 = "[[1,0],[0,1]]"


@pytest.mark.parametrize(
    "argv, code, reason",
    [
        (["congruent", "--ring", "laurent", "--a", "[[0,t],[t,0]]", "--b", "[[1]]"], 1, "hermitian"),
        (["congruent", "--ring", "Z2", "--a", "[[1]]", "--b", "[[1,1],[0,1]]"], 1, "hermitian"),
        (["nonsingular", "--ring", "laurent", "--a", "[[t,1],[1,0]]"], 1, "hermitian"),
        (["augment", "--ring", "Z3", "--a", "[[T]]"], 1, "hermitian"),
        (["extend", "--ring", "Z2", "--a", "[[0,1],[2,0]]"], 1, "symmetric"),
        (["build-equivariant", "--q", "[[0,1],[2,0]]", "--t", _SWAP, "--basis", "[[1,0]]"], 1, "symmetric"),
        (["build-equivariant", "--q", "[[1,0],[0,2]]", "--t", _SWAP, "--basis", "[[1,0]]"], 1, "preserve"),
        (["build-equivariant", "--q", _SWAP, "--t", _SWAP, "--basis", "[[1,0]"], 2, "basis"),
        (["build-equivariant", "--q", _SWAP, "--t", _SWAP, "--basis", '[["a",0]]'], 2, "basis"),
        (["build-equivariant", "--q", _SWAP, "--t", _SWAP, "--basis", "[1,0]"], 2, "basis"),
        (["build-equivariant", "--q", _ID2, "--t", _SWAP, "--basis", "[[2,0]]"], 1, "index 4"),
        (["build-equivariant", "--q", _ID2, "--t", _SWAP, "--basis", "[[2,1]]"], 1, "index 3"),
        # a Lorentz boost of diag(1, 1, -1): it preserves the form and has infinite order
        (
            ["build-equivariant", "--q", "[[1,0,0],[0,1,0],[0,0,-1]]",
             "--t", "[[1,2,2],[2,1,2],[2,2,3]]", "--basis", "[[1,0,0]]"],
            1,
            "action has no order up to 4096",
        ),
        (["augment", "--ring", "Z4", "--a", "[[1 2, 0],[0, 1]]"], 2, "cannot parse term '2'"),
        (["augment", "--ring", "Z4", "--a", "[[*t + *t^-1]]"], 2, "cannot parse term"),
        (["augment", "--ring", "Z4", "--a", "[[1 0 t]]"], 2, "cannot parse term '0 t'"),
    ],
    ids=[
        "congruent-a", "congruent-b", "nonsingular", "augment", "extend",
        "equivariant-q", "equivariant-t", "basis-json", "basis-entry", "basis-flat",
        "basis-index-4", "basis-index-3", "equivariant-infinite-order",
        "adjacent-numbers", "star-without-coefficient", "three-numbers",
    ],
)
def test_form_input_errors_exit_without_traceback(capsys, argv, code, reason):
    exit_code, out, err = run(capsys, "form", *argv)
    assert exit_code == code
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert reason in err


@pytest.mark.parametrize("ring", ["Z4097", "cyclic:4097", "Z10000000000000"])
def test_cyclic_order_above_the_limit_is_parse_error(capsys, ring):
    # Z[Z_d] elements store d coefficients: a huge order must not allocate
    code, _, err = run(capsys, "form", "augment", "--ring", ring, "--a", "[[1]]")
    assert code == 2
    assert err.startswith("error:")
    assert "4096" in err


def test_cyclic_order_at_the_limit_is_accepted(capsys):
    code, out, _ = run(capsys, "form", "augment", "--ring", "Z4096", "--a", "[[1, 2], [2, 0]]")
    assert code == 0
    assert json.loads(out) == {"result": [[1, 2], [2, 0]]}


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["congruent", "--b", "[[1]]"], {"status": "found", "witness": [["1"]]}),
        (["nonsingular"], {"nonsingular": True, "det": "1"}),
    ],
    ids=["congruent", "nonsingular"],
)
def test_unit_forms_at_the_order_limit_need_no_circulant_determinant(
    capsys, monkeypatch, argv, expected
):
    # the 4096 x 4096 determinant would take over an hour: a monomial is a unit
    def integer_det(matrix):
        raise AssertionError("the circulant determinant was computed")

    monkeypatch.setattr(groupring, "integer_det", integer_det)
    code, out, err = run(capsys, "form", *argv, "--ring", "Z4096", "--a", "[[1]]")
    assert code == 0, err
    assert expected.items() <= json.loads(out).items()


def test_a_nonunit_at_the_order_limit_is_screened_at_t_minus_one(capsys, monkeypatch):
    # T + T^4095 - 1 augments to 1, but T -> -1 sends it to -3, not +-1
    def integer_det(matrix):
        raise AssertionError("the circulant determinant was computed")

    monkeypatch.setattr(groupring, "integer_det", integer_det)
    code, out, err = run(
        capsys, "form", "nonsingular", "--ring", "Z4096", "--a", "[[T+T^4095-1]]"
    )
    assert code == 0, err
    assert json.loads(out)["nonsingular"] is False


@pytest.mark.parametrize(
    "argv",
    [
        ["classify", "--manifold", "CP2", "--class", "[" * 100_000],
        ["classify", "--manifold", "[" * 100_000, "--class", "[1]"],
        ["form", "extend", "--ring", "Z2", "--a", "[" * 100_000],
    ],
    ids=["class", "manifold", "matrix"],
)
def test_deeply_nested_json_is_parse_error(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("error:")
    assert "nests too deeply" in err


#: More digits than int() converts from text under the default limit (4,300).
LONG = "9" * 5000


@pytest.mark.parametrize(
    "argv",
    [
        ["classify", "--manifold", "CP2", "--class", f"[{LONG}]"],
        ["classify", "--manifold", f"[[{LONG}]]", "--class", "[1]"],
        ["form", "augment", "--ring", "Z2", "--a", f"[[{LONG}]]"],
        ["form", "augment", "--ring", "Z2", "--a", f"[[{LONG}T]]"],
        ["form", "augment", "--ring", "laurent", "--a", f"[[t^{LONG}]]"],
        ["form", "augment", "--ring", f"Z{LONG}", "--a", "[[1]]"],
        ["form", "build-equivariant", "--q", "[[0,1],[1,0]]", "--t", "[[0,1],[1,0]]",
         "--basis", f"[[{LONG},0]]"],
    ],
    ids=["class", "manifold", "constant", "coefficient", "exponent", "ring", "basis"],
)
def test_overlong_integer_literal_is_parse_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "Traceback" not in err


def test_empty_diag_entry_is_parse_error(capsys):
    code, _, err = run(capsys, "classify", "--manifold", "diag(1,,2)", "--class", "[1,0]")
    assert code == 2
    assert err == "error: diag entries must be integers in 'diag(1,,2)'\n"


def test_overlong_diag_entry_names_the_digit_limit(capsys):
    code, out, err = run(capsys, "classify", "--manifold", f"diag(1, {LONG})", "--class", "[1,0]")
    assert code == 2
    assert out == ""
    assert err == "error: integer literal has too many digits (at position 8)\n"


def test_importing_the_main_module_does_not_run_the_cli(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["spherecalc", "--version"])
    monkeypatch.delitem(sys.modules, "spherecalc.__main__", raising=False)
    importlib.import_module("spherecalc.__main__")
    assert capsys.readouterr() == ("", "")


def test_catalog_rejects_unknown_schema():
    with pytest.raises(ParseError, match="schema"):
        cli.CatalogFile.from_json_text('{"schema": "something-else/9"}')


@pytest.mark.parametrize(
    "text, message",
    [("{", "invalid JSON catalog"), ("[]", "JSON object"), ('"catalog"', "JSON object")],
)
def test_catalog_rejects_malformed_json(text, message):
    with pytest.raises(ParseError, match=message):
        cli.CatalogFile.from_json_text(text)


@pytest.mark.parametrize(
    "key, value",
    [
        ("max_abs", None),  # None deletes the key
        ("reports", None),
        ("manifold", None),
        ("max_abs", "two"),
        ("reports", 5),
        ("reports", [7]),
        ("manifold", []),
        ("manifold", {"name": "CP2", "matrix": 1, "ks": 0}),
        ("tool_version", 5),
        ("generated_at", []),
        ("max_abs", 1.5),
        ("max_abs", True),
        ("max_abs", "1"),
        ("reports", {}),
        ("max_abs", -3),
        ("max_abs", 7),
        ("comment", "hand-made"),
    ],
)
def test_catalog_with_a_missing_or_mistyped_key_is_a_parse_error(key, value):
    data = cp2_document()
    assert cli.CatalogFile.from_json_text(json.dumps(data)).max_abs == 1
    if value is None:
        del data[key]
    else:
        data[key] = value
    with pytest.raises(ParseError, match="malformed catalog"):
        cli.CatalogFile.from_json_text(json.dumps(data))


def _set(key, value, report):
    """Tamper with a catalog: set ``key`` of one report."""
    return lambda data: data["reports"][report].update({key: value})


_MALFORMED = "malformed catalog"


@pytest.mark.parametrize(
    "tamper, message",
    [
        (_set("characteristic", "no", report=0), _MALFORMED),
        (_set("b2", 1.7, report=0), _MALFORMED),
        (_set("b2", 1.0, report=0), _MALFORMED),
        (_set("class", [True], report=2), _MALFORMED),
        (_set("characteristic", 1, report=0), _MALFORMED),
        (_set("exists", "No", report=0), _MALFORMED),
        (_set("ks", False, report=1), _MALFORMED),
        (lambda data: data["manifold"].update(matrix=[[True]]), _MALFORMED),
        (lambda data: data["manifold"].update(matrix=[[1, 0], [0]]), _MALFORMED),
        (lambda data: data["manifold"].update(ks=float("inf")), _MALFORMED),
        (lambda data: data.update(reports=data["reports"][:1]), _MALFORMED),
        (lambda data: data["reports"].reverse(), _MALFORMED),
        # a well-formed header whose matrix is no intersection form
        (lambda data: data["manifold"].update(matrix=[[2]]), "malformed catalog: manifold 'CP2'"),
        (
            lambda data: data.update(
                manifold={**data["manifold"], "matrix": [[0, 1], [2, 0]]},
                max_abs=0,
                reports=data["reports"][:1],
            ),
            "malformed catalog: manifold 'CP2'",
        ),
    ],
    ids=[
        "characteristic-no", "b2-1.7", "b2-1.0", "class-true", "characteristic-1",
        "exists-flipped", "ks-false", "matrix-true", "matrix-ragged", "ks-infinite",
        "one-report", "reversed", "matrix-not-unimodular", "matrix-not-symmetric",
    ],
)
def test_tampered_catalog_is_a_parse_error(tamper, message):
    data = cp2_document()
    assert data["reports"][0]["exists"] == "Yes"
    tamper(data)
    with pytest.raises(ParseError, match=message):
        cli.CatalogFile.from_json_text(json.dumps(data, indent=2))


@pytest.mark.parametrize(
    "manifold,chunk", [("H#H#H", 1), ("H#H#H", 8), ("H#H#H", 25), ("E8", 8), ("E8", 25)]
)
def test_catalog_is_read_a_run_at_a_time(monkeypatch, manifold, chunk):
    # both boxes have planes of 9 classes, so the slices the reader
    # compares, of at most 1, 8 or 25 reports, end inside planes, between
    # rows, and after whole planes (E8 at 1 would repeat H#H#H at 1,
    # rendering every body anew)
    monkeypatch.setattr(cli, "CHUNK_REPORTS", chunk)
    catalog = cli.CatalogFile(cli.parse_manifold_spec(manifold), 1, __version__, STAMP)
    text = catalog.to_json_text()
    read = cli.CatalogFile.from_json_text(text)
    assert read == catalog and read.to_json_text() == text
    first = next(cli._report_chunks(catalog, catalog.manifold.manifold()))[1]
    for tamper in (
        lambda reports: reports[-1].update(b2=9),  # in the last run
        lambda reports: reports.insert(first, reports.pop(first - 1)),  # across the first cut
    ):
        data = json.loads(text)
        tamper(data["reports"])
        with pytest.raises(ParseError, match="malformed catalog"):
            cli.CatalogFile.from_json_text(json.dumps(data))


def test_short_catalog_claiming_a_huge_box_fails_without_enumerating(monkeypatch):
    def report_chunks(*args):
        raise AssertionError("the box was enumerated")

    monkeypatch.setattr(cli, "_report_chunks", report_chunks)
    data = cp2_document()
    data["manifold"] = cli.parse_manifold_spec("E8").to_json_dict()
    data["max_abs"] = 1000
    start = time.perf_counter()
    with pytest.raises(ParseError, match="malformed catalog: 'max_abs'"):
        cli.CatalogFile.from_json_text(json.dumps(data))
    assert time.perf_counter() - start < 0.5


@pytest.mark.parametrize("max_abs", [0, 1, 2, 3])
def test_rank_zero_catalog_reads_back_byte_for_byte(tmp_path, capsys, max_abs):
    # rank 0 has one class whatever max_abs is, so max_abs may exceed the
    # number of reports there
    out_path = tmp_path / "catalog.json"
    code, _, err = run(
        capsys, "enumerate", "--manifold", "diag()", "--max-abs", str(max_abs),
        "--out", str(out_path),
    )
    assert code == 0, err
    text = out_path.read_text(encoding="utf-8")
    catalog = cli.CatalogFile.from_json_text(text)
    assert (catalog.max_abs, len(json.loads(text)["reports"])) == (max_abs, 1)
    assert catalog.to_json_text() == text


def test_reading_a_catalog_leaves_the_collector_as_it_was(monkeypatch):
    # the read switches the collector off and back on, and freezes nothing
    def frozen(*args):
        raise AssertionError("a read froze or thawed the collector's objects")

    monkeypatch.setattr(gc, "freeze", frozen)
    monkeypatch.setattr(gc, "unfreeze", frozen)
    text = in_memory_catalog(cli.parse_manifold_spec("H"), 1)[0]
    assert gc.isenabled()
    cli.CatalogFile.from_json_text(text)
    assert gc.isenabled()
    with pytest.raises(ParseError):
        cli.CatalogFile.from_json_text(text.replace('"b2": 2', '"b2": 3', 1))
    assert gc.isenabled()
    gc.disable()
    try:
        cli.CatalogFile.from_json_text(text)
        assert not gc.isenabled()
    finally:
        gc.enable()
    assert gc.get_freeze_count() == 0


def test_reading_a_catalog_keeps_a_callers_frozen_objects_frozen():
    text = in_memory_catalog(cli.parse_manifold_spec("H"), 1)[0]
    marker = [[]]  # a container the collector tracks until it is frozen
    gc.freeze()
    try:
        cli.CatalogFile.from_json_text(text)
        with pytest.raises(ParseError):
            cli.CatalogFile.from_json_text(text.replace('"b2": 2', '"b2": 3', 1))
        assert gc.get_freeze_count() > 0
        assert not any(obj is marker for obj in gc.get_objects())
    finally:
        gc.unfreeze()
    assert gc.isenabled()
    assert any(obj is marker for obj in gc.get_objects())


def test_reading_a_long_row_leaves_no_garbage_cycles():
    # the read runs with the collector off, so a reference cycle per
    # rendered body, as json's indenting encoder leaves, would all be kept:
    # CP2 renders one body per class, 4,001 cycles and 66,000 objects here
    text = cli.CatalogFile(cli.parse_manifold_spec("CP2"), 2000, __version__, STAMP).to_json_text()
    gc.collect()
    cli.CatalogFile.from_json_text(text)
    assert gc.collect() < 5000


def test_catalog_reads_back_in_any_whitespace_layout():
    spec = cli.parse_manifold_spec("H")
    expected, reports = in_memory_catalog(spec, 1)
    data = json.loads(expected)
    for text in (json.dumps(data), json.dumps(data, indent="\t", separators=(" , ", " : "))):
        read = cli.CatalogFile.from_json_text(text)
        assert read == cli.CatalogFile(spec, 1, __version__, STAMP)
        assert json.loads(read.to_json_text())["reports"] == data["reports"]
        assert read.to_json_text() == expected


def test_parser_fuzz_raises_only_parse_errors():
    import random

    rng = random.Random(43)
    alphabet = "[]()0123456789tT^+-,# aZ\"'"
    lr = cli.parse_ring("laurent")
    for _ in range(400):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 25)))
        for fn in (
            lambda s: cli.parse_poly(s, lr),
            lambda s: cli.parse_form_matrix(s, lr),
            lambda s: cli.parse_manifold_spec(s),
            cli.parse_int_matrix,
            cli.parse_int_vector,
        ):
            try:
                fn(text)
            except ParseError:
                pass


# Grammar-shaped inputs for the fuzz below.  Orders stay <= 64 and matrices
# <= 3x3 so that no example allocates much or runs for long.
_NOISE = st.text(alphabet="[]()0123456789tT^+-*,# \"'aZEHCPdig:", max_size=20)
_SMALL = st.integers(-3, 3)
_RINGS = st.one_of(
    st.sampled_from(["laurent", "Z", "Z-1", "cyclic:", "Zx", "", " Z2 "]),
    st.integers(0, 64).map(lambda d: f"Z{d}"),
    st.integers(0, 64).map(lambda d: f"cyclic:{d}"),
)
_TERMS = st.tuples(_SMALL, st.sampled_from(["", "T", "t"]), _SMALL).map(
    lambda t: f"{t[0]:+d}{t[1]}^{t[2]}" if t[1] else f"{t[0]:+d}"
)
_POLYS = st.one_of(
    st.lists(_TERMS, min_size=1, max_size=3).map("".join),
    st.lists(_TERMS, min_size=1, max_size=3).map("".join),
    st.lists(_TERMS, min_size=1, max_size=3).map(" + ".join),
    _NOISE,
)
_ENTRIES = st.one_of(_POLYS, _POLYS.map(lambda p: f'"{p}"'))


@st.composite
def _form_literals(draw):
    n = draw(st.integers(0, 3))
    rows = []
    for _ in range(n):
        width = draw(st.sampled_from([n, n, n - 1]))  # now and then ragged
        rows.append("[" + ", ".join(draw(_ENTRIES) for _ in range(width)) + "]")
    return "[" + ", ".join(rows) + "]"


_BAD_ENTRIES = st.sampled_from([True, "1", 1.5, None, []])


def _square(entries):
    return st.integers(0, 3).flatmap(
        lambda n: st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n)
    )


# a branch listed twice is drawn twice as often
_INT_MATRICES = st.one_of(
    _square(_SMALL).map(json.dumps),
    _square(_SMALL).map(json.dumps),
    _square(st.one_of(_SMALL, _BAD_ENTRIES)).map(json.dumps),
    st.lists(st.lists(_SMALL, max_size=3), max_size=3).map(json.dumps),
    _NOISE,
)
_MANIFOLDS = st.lists(
    st.one_of(
        st.sampled_from(["CP2", "H", "E8", "diag(1,-1)", "diag()", "diag(1,,2)", ""]),
        _INT_MATRICES,
    ),
    min_size=1,
    max_size=3,
).map("#".join)
_CLASSES = st.one_of(
    st.lists(_SMALL, min_size=1, max_size=3).map(json.dumps),
    st.lists(_SMALL, max_size=12).map(json.dumps),
    _NOISE,
)

_FUZZ_COMMANDS = st.one_of(
    st.tuples(_MANIFOLDS, _CLASSES).map(
        lambda a: ["classify", f"--manifold={a[0]}", f"--class={a[1]}"]
    ),
    st.tuples(st.sampled_from(["augment", "nonsingular"]), _RINGS, _form_literals()).map(
        lambda a: ["form", a[0], f"--ring={a[1]}", f"--a={a[2]}"]
    ),
    st.tuples(_RINGS, _INT_MATRICES).map(
        lambda a: ["form", "extend", f"--ring={a[0]}", f"--a={a[1]}"]
    ),
    st.tuples(_INT_MATRICES, _INT_MATRICES, _INT_MATRICES).map(
        lambda a: ["form", "build-equivariant", f"--q={a[0]}", f"--t={a[1]}", f"--basis={a[2]}"]
    ),
)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_FUZZ_COMMANDS)
def test_cli_contract_holds_on_fuzzed_literals(argv):
    # exit 0, 1 or 2, an ``error:`` line on failure, and no traceback;
    # argparse's own usage errors leave by SystemExit(2)
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:
        assert exc.code == 2
        return
    assert code in (0, 1, 2)
    if code:
        assert err.getvalue().startswith("error:")


def test_main_survives_malformed_inputs(capsys):
    cases = [
        ["classify", "--manifold", "nope", "--class", "[1]"],
        ["classify", "--manifold", "CP2", "--class", "not json"],
        ["form", "augment", "--ring", "Z2", "--a", "[[1+]]"],
        ["form", "congruent", "--ring", "laurent", "--a", "[[1]]", "--b", "[[t"],
        ["enumerate", "--manifold", "diag(", "--max-abs", "1"],
    ]
    for argv in cases:
        code = cli.main(argv)
        captured = capsys.readouterr()
        assert code in (1, 2)
        assert "error:" in captured.err


# ---------------------------------------------------------------------------
# budget


def test_budget_defaults_to_the_library_default():
    args = cli.build_parser().parse_args(
        ["form", "congruent", "--ring", "Z2", "--a", "[[1]]", "--b", "[[1]]"]
    )
    assert args.budget == hermitian.DEFAULT_BUDGET


# ---------------------------------------------------------------------------
# documented commands

README = Path(__file__).resolve().parent.parent / "README.md"


def _readme_commands():
    blocks = re.findall(r"^```sh\n(.*?)^```", README.read_text(), re.M | re.S)
    return [
        line for block in blocks for line in block.splitlines()
        if line.startswith("spherecalc ")
    ]


def test_readme_python_example_prints_its_comments(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert blocks
    for block in blocks:
        expected = re.findall(r"^print\(.*\)\s+# (.*)$", block, re.M)
        assert expected
        exec(compile(block, str(README), "exec"), {})
        assert capsys.readouterr().out.splitlines() == expected


def test_readme_lists_cli_examples():
    commands = _readme_commands()
    assert len(commands) >= 8
    assert any(line.startswith("spherecalc form congruent ") for line in commands)


@pytest.mark.parametrize("line", _readme_commands())
def test_readme_cli_example_exits_zero(capsys, monkeypatch, tmp_path, line):
    monkeypatch.chdir(tmp_path)  # the enumerate example writes --out
    code, out, err = run(capsys, *shlex.split(line, comments=True)[1:])
    assert code == 0, err
    assert out or any(tmp_path.iterdir())


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0
    assert "spherecalc" in capsys.readouterr().out
