import contextlib
import io
import itertools
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from spherecalc import __version__, classifier, cli
from spherecalc.classifier import DETERMINED_BY_FORM, EXISTS_BY_DEFINITION
from spherecalc.errors import ParseError
from spherecalc.groupring import CyclicRing, GroupRingElem, LaurentElem, LaurentRing
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
    assert cli.parse_poly("7", z2) == GroupRingElem.from_int(2, 7)
    assert cli.parse_poly("T^-1", z2) == GroupRingElem.monomial(2, 1)


def test_parse_poly_laurent():
    lr = LaurentRing()
    assert cli.parse_poly("1 - t^-2", lr) == LaurentElem.from_terms({0: 1, -2: -1})
    assert cli.parse_poly("t + t^-1", lr) == LaurentElem.from_terms({1: 1, -1: 1})
    assert cli.parse_poly("2*t^3", lr) == LaurentElem.monomial(3, 2)


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
    assert form.matrix[0][1] == LaurentElem.monomial(1)
    quoted = cli.parse_form_matrix('[["0", "t"],["t^-1", "0"]]', lr)
    assert quoted == form
    with pytest.raises(ParseError):
        cli.parse_form_matrix("[[1], [1, 2]]", lr)
    with pytest.raises(ParseError):
        cli.parse_form_matrix("[[1, 2]", lr)


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
    assert len(catalog.reports) == 9
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
    catalog = cli.CatalogFile.from_json_text(out_path.read_text(encoding="utf-8"))
    classes = [tuple(r.x.coords) for r in catalog.reports]
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
    catalog = cli.CatalogFile.from_json_text(out_path.read_text(encoding="utf-8"))
    got = sum(
        1 for r in catalog.reports if r.exists in ("Yes", "YesByDefinition")
    )
    assert got == expected


def test_enumerate_negative_bound(capsys):
    code, _, err = run(capsys, "enumerate", "--manifold", "CP2", "--max-abs", "-1")
    assert code == 2
    assert "max-abs" in err


def test_enumerate_out_in_a_missing_directory_is_input_error(tmp_path, capsys, monkeypatch):
    def walk_box(*_):
        raise AssertionError("no class may be walked before --out is open")

    monkeypatch.setattr(cli.classifier, "walk_box", walk_box)
    out_path = tmp_path / "missing" / "x.json"
    code, out, err = run(
        capsys, "enumerate", "--manifold", "CP2", "--max-abs", "1", "--out", str(out_path)
    )
    assert code == 1
    assert err.startswith("error:") and "--out" in err
    assert out == ""
    assert not out_path.parent.exists()


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a full device")
def test_enumerate_out_on_a_full_device_is_input_error(capsys):
    code, out, err = run(
        capsys, "enumerate", "--manifold", "CP2", "--max-abs", "2", "--out", "/dev/full"
    )
    assert code == 1
    assert err.startswith("error:") and "--out" in err
    assert out == ""


def test_enumerate_to_a_closed_pipe_exits_without_traceback():
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    proc = subprocess.Popen(
        [sys.executable, "-m", "spherecalc", "enumerate", "--manifold", "H#H#H", "--max-abs", "2"],
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
    assert proc.returncode == 1
    assert err.startswith("error:") and "Traceback" not in err


STAMP = "2000-01-01T00:00:00+00:00"

#: (manifold, ks, max_abs): rank 0, a --max-abs 0 box, and the benchmark's
#: families; E8 box 1 (6,561 classes) spans more than one written chunk.
CATALOG_CASES = [
    ("CP2", 0, 4),
    ("H#H", 0, 2),
    ("CP2#CP2#CP2#diag(-1,-1)", 1, 2),
    ("E8", 0, 1),
    ("E8", 1, 1),
    ("diag()", 0, 3),
    ("H#H", 1, 0),
]


def in_memory_catalog(spec, max_abs):
    """The catalog of the box built from one ``classify`` call per class."""
    manifold = spec.manifold()
    coords = range(-max_abs, max_abs + 1)
    reports = tuple(
        classifier.classify(manifold, x)
        for x in itertools.product(coords, repeat=manifold.b2)
    )
    return cli.CatalogFile(spec, max_abs, reports, __version__, STAMP)


def summary_counts(catalog):
    return (
        len(catalog.reports),
        sum(r.exists in ("Yes", "YesByDefinition") for r in catalog.reports),
        sum(r.uniqueness == "UniqueIsotopy" for r in catalog.reports),
    )


@pytest.mark.parametrize("manifold,ks,max_abs", CATALOG_CASES)
def test_streamed_catalog_equals_the_in_memory_catalog(manifold, ks, max_abs):
    spec = cli.parse_manifold_spec(manifold, ks=ks)
    expected = in_memory_catalog(spec, max_abs)
    out = io.StringIO()
    counts = cli.write_catalog(out, spec, spec.manifold(), max_abs, STAMP)
    assert out.getvalue() == expected.to_json_text()
    assert counts == summary_counts(expected)


@pytest.mark.parametrize("chunk", [1, 2, 9, 10])
def test_streamed_catalog_is_independent_of_the_chunk_size(monkeypatch, chunk):
    monkeypatch.setattr(cli, "CHUNK_REPORTS", chunk)
    spec = cli.parse_manifold_spec("CP2")
    out = io.StringIO()
    cli.write_catalog(out, spec, spec.manifold(), 4, STAMP)
    assert out.getvalue() == in_memory_catalog(spec, 4).to_json_text()


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
    expected = in_memory_catalog(spec, 1)
    assert text == expected.to_json_text().replace(STAMP, stamp)
    classes, representable, unique = summary_counts(expected)
    assert summary == (
        f"classes: {classes}  representable: {representable}  unique-isotopy: {unique}"
    )
    assert cli.build_catalog(spec, 1).reports == expected.reports


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


@pytest.mark.parametrize("flag, env", [(["--budget", "-1"], None), ([], "-1")])
def test_negative_budget_is_parse_error(capsys, monkeypatch, flag, env):
    # like --max-abs -1: a negative node budget is rejected, not run
    if env is None:
        monkeypatch.delenv(cli.BUDGET_ENV_VAR, raising=False)
    else:
        monkeypatch.setenv(cli.BUDGET_ENV_VAR, env)
    code, out, err = run(
        capsys, "form", "congruent", "--ring", "laurent", "--a", "[[1]]", "--b", "[[1]]", *flag
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
    ],
    ids=[
        "congruent-a", "congruent-b", "nonsingular", "augment", "extend",
        "equivariant-q", "equivariant-t", "basis-json", "basis-entry", "basis-flat",
        "basis-index-4", "basis-index-3",
    ],
)
def test_form_input_errors_exit_without_traceback(capsys, argv, code, reason):
    exit_code, _, err = run(capsys, "form", *argv)
    assert exit_code == code
    assert err.startswith("error:")
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


def test_empty_diag_entry_is_parse_error(capsys):
    code, _, err = run(capsys, "classify", "--manifold", "diag(1,,2)", "--class", "[1,0]")
    assert code == 2
    assert "diag" in err


def test_catalog_rejects_unknown_schema():
    with pytest.raises(ParseError, match="schema"):
        cli.CatalogFile.from_json_text('{"schema": "something-else/9"}')


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
# budget resolution


def test_resolve_budget_precedence(monkeypatch):
    monkeypatch.delenv(cli.BUDGET_ENV_VAR, raising=False)
    assert cli.resolve_budget(None) == 10**6
    assert cli.resolve_budget(42) == 42
    monkeypatch.setenv(cli.BUDGET_ENV_VAR, "1234")
    assert cli.resolve_budget(None) == 1234
    assert cli.resolve_budget(42) == 42
    monkeypatch.setenv(cli.BUDGET_ENV_VAR, "not-a-number")
    with pytest.raises(ParseError):
        cli.resolve_budget(None)


# ---------------------------------------------------------------------------
# documented commands

README = Path(__file__).resolve().parent.parent / "README.md"


def _readme_commands():
    blocks = re.findall(r"^```sh\n(.*?)^```", README.read_text(), re.M | re.S)
    return [
        line for block in blocks for line in block.splitlines()
        if line.startswith("spherecalc ")
    ]


def test_readme_lists_cli_examples():
    commands = _readme_commands()
    assert len(commands) >= 8
    assert any(line.startswith("spherecalc form congruent ") for line in commands)


@pytest.mark.parametrize("line", _readme_commands())
def test_readme_cli_example_exits_zero(capsys, monkeypatch, tmp_path, line):
    monkeypatch.chdir(tmp_path)  # the enumerate example writes --out
    monkeypatch.delenv(cli.BUDGET_ENV_VAR, raising=False)
    code, out, err = run(capsys, *shlex.split(line, comments=True)[1:])
    assert code == 0, err
    assert out or any(tmp_path.iterdir())


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0
    assert "spherecalc" in capsys.readouterr().out
