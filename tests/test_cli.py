import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from itertools import count
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import largest_reach, unbuilt
from gridmorse import census, cli, comb, complexes, homology
from gridmorse.cli import main
from gridmorse.graphs import build_graph
from gridmorse.morse import run_strategy

ROOT = Path(__file__).resolve().parents[1]


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out


def test_graph_json(capsys):
    code, out = run(capsys, "graph", "--family", "delta", "--m", "2", "--n", "1")
    assert code == 0
    data = json.loads(out)
    assert data["family"] == "delta"
    assert len(data["vertices"]) == 7


def test_graph_determinism(capsys):
    _, out1 = run(capsys, "graph", "--family", "theta", "--m", "3", "--n", "2")
    _, out2 = run(capsys, "graph", "--family", "theta", "--m", "3", "--n", "2")
    assert out1 == out2


def test_complex_output(capsys):
    code, out = run(capsys, "complex", "--family", "cycle", "--n", "6", "--faces")
    assert code == 0
    data = json.loads(out)
    assert data["f_vector"] == [1, 6, 9, 2]
    assert data["reduced_euler"] == -2
    assert len(data["faces"]) == 18


def test_census_csv(capsys):
    code, out = run(capsys, "census", "--m", "2", "--nmax", "10", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "m,n,d,count"
    assert "2,4,3,5" in lines
    rows_n = {int(line.split(",")[1]) for line in lines[1:]}
    assert rows_n == set(range(11))


def test_census_oeis_bfile(capsys):
    code, out = run(capsys, "census", "--m", "2", "--nmax", "4", "--format", "oeis")
    assert code == 0
    assert out.strip().splitlines() == ["0 1", "1 -2", "2 1", "3 2", "4 -5"]


def test_morse_subcommand(capsys):
    code, out = run(capsys, "morse", "--family", "delta", "--m", "2", "--n", "3")
    assert code == 0
    data = json.loads(out)
    assert data["census"]["census"] == {"2": 2}
    assert len(data["critical"]) == 2


def test_homology_subcommand(capsys):
    code, out = run(capsys, "homology", "--family", "delta", "--m", "2", "--n", "2")
    assert code == 0
    data = json.loads(out)
    assert {"d": 2, "betti": 1, "torsion": []} in data["dims"]


def dims(out):
    return [(row["d"], row["betti"]) for row in json.loads(out)["dims"]]


def test_homology_builds_no_face(capsys, monkeypatch):
    # delta(2,10) has 808,395 faces, past the 300,000 default cap, which
    # bounds the reach R of the Morse flow; a cap of |R| answers and a
    # smaller one refuses on R
    monkeypatch.setattr(complexes, "_layers", unbuilt)
    size = largest_reach(monkeypatch, build_graph("delta", m=2, n=10))
    argv = ["homology", "--family", "delta", "--m", "2", "--n", "10"]
    for cap in ([], ["--face-cap", str(size)]):
        code, out = run(capsys, *argv, *cap)
        assert code == 0 and dims(out) == [(7, 28), (8, 1)]
    code = main(argv + ["--face-cap", str(size - 1)])
    assert code == 3
    assert ("reach exceeds face cap %d" % (size - 1)
            in capsys.readouterr().err)


@pytest.mark.parametrize("m,betti", [(4, {8: 3, 10: 7, 12: 3}),
                                     (5, {9: 3, 12: 7, 15: 3})])
def test_homology_reaches_n8_without_flow(capsys, monkeypatch, m, betti):
    # no two critical dimensions of (4,8) or (5,8) are adjacent, so the
    # route reads the groups off the tree's census with no flow at all
    monkeypatch.setattr(complexes, "_layers", unbuilt)
    code, out = run(capsys, "homology", "--family", "delta", "--m", str(m),
                    "--n", "8")
    assert code == 0
    assert dict(dims(out)) == census.census_table(m, 8).row_counts(8) == betti


@pytest.mark.parametrize("m,n", [(2, 13), (3, 10), (3, 12), (4, 9), (5, 9),
                                 (2, 15)])
def test_homology_reaches_past_the_old_memo_bound(capsys, monkeypatch, m, n):
    # (2,13) and (3,10) exited 3 on the memo while the flow followed every
    # facet, and the rest while it memoised every face it met; the flow
    # leaves a pairing site only by dropping a vertex of its A-set, and
    # runs only on the faces with a gradient path to a critical cell
    monkeypatch.setattr(complexes, "_layers", unbuilt)
    code, out = run(capsys, "homology", "--family", "delta", "--m", str(m),
                    "--n", str(n))
    assert code == 0
    assert dict(dims(out)) == comb.census_from_tree(comb.comb_tree(m, n)).counts


def test_riordan_subcommand(capsys):
    code, out = run(capsys, "riordan", "--nmax", "15")
    assert code == 0
    assert "ok" in out


def test_scan_subcommand(capsys):
    code, out = run(capsys, "scan", "--nmax", "99")
    assert code == 0
    assert "[48, 61, 74, 84, 87, 90, 94, 97]" in out


def test_verify_subcommand(capsys):
    code, out = run(capsys, "verify", "--m", "2", "--nmax", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert all(line.split()[0] in ("PASS", "SKIP") for line in lines[:-1])
    assert lines[-1].endswith("0 failed")


def test_verify_runs_every_check_under_the_given_face_cap(capsys, monkeypatch):
    # a cap above the 300,000-face homology default is used as given, and
    # the default is that homology cap
    caps = []
    real = cli.full_homology

    def spy(cx, cap):
        caps.append(cap)
        return real(cx, cap)

    monkeypatch.setattr(cli, "full_homology", spy)
    code, _ = run(capsys, "verify", "--m", "2", "--nmax", "2",
                  "--face-cap", "1000000")
    assert code == 0 and caps == [1000000] * 3
    caps.clear()
    run(capsys, "verify", "--m", "2", "--nmax", "0")
    assert caps == [300000]


def test_instance_checks_count_the_complex_once(monkeypatch):
    # the one count is independence_complex's; its refusal gives the SKIP,
    # before any face is built
    calls = []
    real = complexes._count_independent

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(complexes, "_count_independent", spy)
    rows = cli._instance_checks(2, 2, 100)
    assert [status for _, status, _ in rows] == [True, True]
    assert len(calls) == 1
    calls.clear()
    monkeypatch.setattr(complexes, "_layers", unbuilt)
    assert cli._instance_checks(2, 3, 100) == [
        ("acyclic+partition(m=2,n=3)", None, "more than 100 faces")]
    assert len(calls) == 1


def patch_census_one_cell_short(monkeypatch):
    """Make every tree census miss one cell of its top dimension."""
    real = comb.census_from_tree

    def one_cell_short(tree):
        census = real(tree)
        counts = dict(census.counts)
        counts[max(counts)] -= 1
        return comb.CriticalCensus(census.m, census.n, counts)

    monkeypatch.setattr(comb, "census_from_tree", one_cell_short)


def test_instance_checks_test_the_tree_against_the_full_route(monkeypatch):
    # the morse-inequalities row holds the tree's census against the full
    # SNF route, never against homology read off a matching tree, so a
    # census the complex does not bear fails it
    def no_tree_route(*args):
        raise AssertionError("homology was read off a matching tree")

    monkeypatch.setattr(homology, "morse_homology", no_tree_route)
    assert [status for _, status, _ in cli._instance_checks(2, 3, 1000)] == \
        [True, True]
    patch_census_one_cell_short(monkeypatch)
    assert cli._instance_checks(2, 3, 1000)[1] == \
        ("morse-inequalities(m=2,n=3)", False, "")


def test_verify_reports_a_census_one_cell_short(capsys, monkeypatch):
    # every check that reads the tree's census fails, and verify exits 1
    patch_census_one_cell_short(monkeypatch)
    code, out = run(capsys, "verify", "--m", "2", "--nmax", "3")
    assert code == 1
    assert out.splitlines() == [
        "FAIL seed-table(m=2)",
        "FAIL tree-vs-table(m=2,n<=3) (rows [0, 1, 2, 3])",
        "PASS euler-consistency(m=2)",
        "PASS riordan(n<=10)",
        "PASS support-bounds(m=2,n<=3)",
        "PASS acyclic+partition(m=2,n=0)",
        "FAIL morse-inequalities(m=2,n=0)",
        "PASS acyclic+partition(m=2,n=1)",
        "FAIL morse-inequalities(m=2,n=1)",
        "PASS acyclic+partition(m=2,n=2)",
        "FAIL morse-inequalities(m=2,n=2)",
        "PASS acyclic+partition(m=2,n=3)",
        "FAIL morse-inequalities(m=2,n=3)",
        "PASS rank-excess-scan(n<=99)",
        "PASS snf-unimodular-invariance(seed=20160603)",
        "15 checks, 6 failed",
    ]


FRESH = count()  # a fake SNF that never returns the same factors twice


@pytest.mark.parametrize("module,name,fake,row", [
    (census, "euler_closed_form", lambda m, n: 7, "euler-consistency(m=2)"),
    (census, "dimension_bounds", lambda m, n: census.DimensionBounds(0, -1),
     "support-bounds(m=2,n<=0)"),
    (cli, "smith_normal_form",
     lambda matrix: homology.SNFResult((next(FRESH),)),
     "snf-unimodular-invariance(seed=20160603)"),
], ids=["euler", "support", "snf"])
def test_verify_fails_the_one_check_whose_oracle_disagrees(
        module, name, fake, row, capsys, monkeypatch):
    # each fake breaks the oracle of one row, and that row alone fails
    monkeypatch.setattr(module, name, fake)
    code, out = run(capsys, "verify", "--m", "2", "--nmax", "0")
    lines = out.splitlines()
    assert code == 1 and lines[-1] == "9 checks, 1 failed"
    assert [line for line in lines if line.startswith("FAIL")] == \
        ["FAIL " + row]


# sha256 of stdout and the exit code: the face representation inside the
# library must not change a byte of what these invocations print, and an
# --out file holds the same bytes.  The homology digest took the report's
# "route" and "rule" fields (from the full-SNF output 2fff4a73...), then
# lost its zero rows (from bbe9a291...), then the "rule" field again when
# one pivot rule replaced two (from e22a3b01...).  The morse digests are of
# that one rule's trees.  The census, scan and riordan digests were taken
# while each document was still joined into one string before it was
# written.
PINNED_OUTPUT = [
    ("complex --family delta --m 2 --n 3 --faces", 0,
     "06ff2ba8af4875a2ec249b0040c701e5dc4d8196610ea1f6266a204ae30fe095"),
    ("complex --family cycle --n 6 --faces", 0,
     "88a8690e06f7cc80850b46e37a434d162b8763bf2b5ed1e2dd6941afb1529f05"),
    ("homology --family delta --m 2 --n 5", 0,
     "0e25cd7c55ef1ed358e444748932481e6d03e44161527ea0202f150b4351fcb3"),
    ("morse --family delta --m 2 --n 6", 0,
     "21e87c3b5c81e850b1bdccccca5fb9ca151c6f82a2ee2ef35088875c2e407809"),
    ("morse --family path --n 12", 0,
     "b9ca928edd55ced4eea42f9f1bbdd1676b591582a923de9d4d95323a221cf9dd"),
    ("morse --family star --m 3 --n 5", 0,
     "3204ba0b6d4a44131d668eea1c82ade3e5b2c7832410fcb6740d79b2e875e685"),
    ("morse --family cycle --n 6", 0,
     "06398d6e090e971f4bc74394c5cbc20bcb8d597ef42aae4390aaf07a987ba938"),
    ("verify --m 2 --nmax 4", 0,
     "84b7e75367e984a904e45f40717686b14e7be96b6287c410beb2b6d52cc6098e"),
    ("verify --m 2 --nmax 4 --face-cap 100", 0,
     "934d1ba10cd5753cb34dbef366046704f740eb8210e02fe935ccce7b1e41aa23"),
    ("census --m 3 --nmax 40", 0,
     "6449a54b5ea32d2a6b3d03c36bb1a7be14a0cd5e09baa239d4ecfdef3e50013f"),
    ("census --m 3 --nmax 40 --format csv", 0,
     "9bb5815be2007581c91deaf32cd20d437d8c154a4d35f6643017dc0a269bd02c"),
    ("census --m 3 --nmax 40 --format oeis", 0,
     "0c2ad37ef6d3d6e3c6dcd7834e9cd9ffe52d29bb6243c0198b33ab274c9bb789"),
    ("scan --nmax 99", 0,
     "538e759fe5f24fd0b21187c905e174cb77c1387630e1a2a04ae7c330498521ac"),
    ("riordan --nmax 30", 0,
     "b9a375ddde2179e14901fe4c79b9b4fbc47357850ef5c194fdeee0cb04f398ae"),
]


@pytest.mark.parametrize("argv,code,digest", PINNED_OUTPUT,
                         ids=[argv for argv, _, _ in PINNED_OUTPUT])
def test_pinned_output_digests(argv, code, digest, capsys, tmp_path):
    got, out = run(capsys, *argv.split())
    assert (got, hashlib.sha256(out.encode()).hexdigest()) == (code, digest)
    target = tmp_path / "doc"
    got, printed = run(capsys, *argv.split(), "--out", str(target))
    assert (got, printed) == (code, "")
    assert target.read_bytes() == out.encode()


def test_emit_batches_pieces_and_ends_with_one_newline(capsys):
    # the text is the pieces in order, whatever their number and size:
    # 10,000 short pieces (48,890 characters), then with a trailing empty
    # piece, which does not hide the newline that ends the text; no pieces
    # at all give one newline; 200 lines of 1,001 characters get no
    # second newline, and one piece of 65,536 characters ends with exactly
    # one newline whether or not it ends with one itself
    pieces = ["%d," % i for i in range(10_000)]
    cli._emit(iter(pieces), None)
    assert capsys.readouterr().out == "".join(pieces) + "\n"
    cli._emit(pieces + ["end\n", ""], None)
    assert capsys.readouterr().out == "".join(pieces) + "end\n"
    cli._emit([], None)
    assert capsys.readouterr().out == "\n"
    lines = ["%04d" % i + "x" * 996 + "\n" for i in range(200)]
    cli._emit(lines, None)
    assert capsys.readouterr().out == "".join(lines)
    for text in ("a" * 65535 + "\n", "a" * 65536):
        cli._emit([text, ""], None)
        assert capsys.readouterr().out == text.rstrip("\n") + "\n"


def test_morse_document_is_written_without_holding_its_text(tmp_path):
    # json.dumps(indent=2) lists every token of the 3.06 MB document and
    # joins them, a traced peak of about 8x the file; written piece by
    # piece, the peak is the tree and its JSON object, about 1.6x
    target = tmp_path / "morse.json"
    tracemalloc.start()
    try:
        code = main(["morse", "--family", "delta", "--m", "2", "--n", "18",
                     "--out", str(target)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = target.stat().st_size
    assert code == 0 and size > 2_900_000
    assert peak < 3 * size, (peak, size)


def test_census_document_is_written_without_holding_its_text(tmp_path):
    # the 3.58 MB census document streams row by row: the peak is the
    # table and its JSON object, under 3x the file
    target = tmp_path / "census.json"
    tracemalloc.start()
    try:
        code = main(["census", "--m", "3", "--nmax", "600", "--out", str(target)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = target.stat().st_size
    assert code == 0 and size > 3_500_000
    assert peak < 3 * size, (peak, size)


def dumps(obj):
    return json.dumps(obj, indent=2, sort_keys=True)


# keys that escape (quotes, backslashes, control and non-ASCII characters)
# and digit strings whose text order is not their numeric order
JSON_KEYS = st.one_of(
    st.text(max_size=6),
    st.sampled_from(["10", "2", "1", "", '"q"', "back\\slash", "\x00\n\t\x1f",
                     "\u00e9", "\u2028", "\U0001f701"]),
    st.integers(0, 120).map(str))
JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(),
    st.integers(2**64, 2**200), st.integers(-2**200, -2**64),
    st.text(max_size=8))
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(st.text(max_size=4), max_size=5),
        st.dictionaries(JSON_KEYS, inner, max_size=5),
        # int values, with bools among them
        st.dictionaries(JSON_KEYS, st.one_of(st.integers(), st.booleans()),
                        max_size=5)),
    max_leaves=25)


@settings(max_examples=300, deadline=None)
@given(JSON_VALUES)
def test_json_pieces_write_what_json_dumps_writes(value):
    assert "".join(cli._json_pieces(value)) == dumps(value)


@pytest.mark.parametrize("value", [
    1.5, [0, 2.0], {"a": {"b": [float("nan")]}}, {1: 2}, {"a": {2: "b"}},
    {None: 1}, {True: 1}, {"a": [{(1, 2): 3}]}, {"a": ("b", "c")}, {1, 2},
    b"bytes"])
def test_json_pieces_refuse_what_they_do_not_write(value):
    with pytest.raises(TypeError):
        "".join(cli._json_pieces(value))


def small_documents():
    """Each JSON subcommand on one small instance, with the object that its
    document writes."""
    g = build_graph("delta", m=2, n=3)
    tree = run_strategy(g, comb.PIVOT_RULE)
    morse_doc = tree.to_json()
    morse_doc["census"] = comb.census_from_tree(tree).to_json()
    return [
        ("graph --family delta --m 2 --n 3", g.to_json()),
        ("complex --family delta --m 2 --n 3 --faces",
         complexes.independence_complex(g).to_json(include_faces=True)),
        ("census --m 3 --nmax 12", census.census_table(3, 12).to_json()),
        ("morse --family delta --m 2 --n 3", morse_doc),
        ("homology --family delta --m 2 --n 3",
         homology.morse_homology(g).to_json()),
    ]


def test_json_documents_equal_json_dumps(capsys):
    for argv, obj in small_documents():
        code, out = run(capsys, *argv.split())
        assert (code, out) == (0, dumps(obj) + "\n"), argv


def test_usage_errors(capsys):
    code, _ = run(capsys, "graph", "--family", "star", "--n", "2")
    assert code == 2
    code, _ = run(capsys, "graph", "--family", "path", "--n", "-4")
    assert code == 2


def test_capacity_exit_code(capsys):
    code, _ = run(capsys, "complex", "--family", "star", "--m", "3", "--n", "12",
                  "--face-cap", "1000")
    assert code == 3


def test_out_file(tmp_path, capsys):
    target = tmp_path / "graph.json"
    code, out = run(capsys, "graph", "--family", "path", "--n", "3",
                    "--out", str(target))
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["family"] == "path"


def test_unwritable_out_path_exits_2(tmp_path, capsys):
    target = tmp_path / "missing" / "graph.json"
    code = main(["graph", "--family", "path", "--n", "3", "--out", str(target)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and "Traceback" not in err
    assert not target.exists()


def test_unwritable_out_path_exits_2_for_text_documents(tmp_path, capsys):
    target = tmp_path / "missing" / "census.csv"
    code = main(["census", "--format", "csv", "--out", str(target)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: ") and "Traceback" not in captured.err
    assert not target.exists()


def test_refused_run_creates_no_out_file(tmp_path, capsys):
    target = tmp_path / "F"
    code = main(["complex", "--family", "star", "--m", "3", "--n", "12",
                 "--face-cap", "1000", "--out", str(target)])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert "capacity exceeded" in captured.err
    assert not target.exists()


@pytest.mark.parametrize("argv", [
    "morse --family delta --m 2 --n 16",
    "census --m 2 --nmax 600 --format csv",
], ids=["json", "lines"])
def test_reader_closing_stdout_early_is_not_an_error(tmp_path, argv):
    # the 1,389,518-byte JSON document and the 858,333-byte CSV are far
    # larger than a pipe buffer, so the writer meets the closed pipe
    # whatever the timing
    err_path = tmp_path / "stderr.txt"
    with open(err_path, "w") as err, subprocess.Popen(
            [sys.executable, "-m", "gridmorse.cli", *argv.split()],
            stdout=subprocess.PIPE, stderr=err,
            env=dict(os.environ, PYTHONPATH=str(ROOT / "src"))) as proc:
        assert len(proc.stdout.read(100)) == 100
        proc.stdout.close()
        code = proc.wait(timeout=120)
    assert code == 0
    assert err_path.read_text() == ""


def test_bad_subcommand_exits_2():
    with pytest.raises(SystemExit) as err:
        main(["nonesuch"])
    assert err.value.code == 2


@pytest.mark.parametrize("command", ["census", "scan", "riordan", "verify"])
def test_negative_nmax_exits_2(command, capsys):
    with pytest.raises(SystemExit) as err:
        main([command, "--nmax", "-1"])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--nmax must be nonnegative" in captured.err


def exit_code(argv):
    """main's exit code, whether it returns it or argparse raises it."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize("argv", [
    ["riordan", "--m", "3"],
    ["scan", "--m", "3"],
    ["graph", "--n", "3", "--m", "2", "--format", "csv"],
    ["morse", "--n", "3", "--m", "2", "--face-cap", "10"],
    ["census", "--seed", "1"],
    ["homology", "--n", "2", "--m", "2", "--jobs", "2"],
    ["graph", "--family", "path", "--n", "3", "--m", "2"],
    ["verify", "--jobs", "2"],
    ["census", "--oeis"],
    ["census", "--m", "2", "--nmax", "3", "--form", "oeis"],
    ["verify", "--seed", "1"],
    ["verify", "--face", "100"],
])
def test_unread_flags_exit_2(argv, capsys):
    assert exit_code(argv) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("family", ["path", "cycle", "grid2"])
def test_m_rejected_for_families_without_m(family, capsys):
    assert main(["graph", "--family", family, "--n", "4", "--m", "9"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--m is not used by the %s family" % family in captured.err


@pytest.mark.parametrize("argv, message", [
    (["verify", "--m", "-1"], "--m must be nonnegative"),
    (["graph", "--family", "delta", "--m", "-2", "--n", "3"],
     "--m must be nonnegative"),
    (["complex", "--family", "cycle", "--n", "6", "--face-cap", "-1"],
     "--face-cap must be nonnegative"),
])
def test_negative_counts_exit_2(argv, message, capsys):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and message in captured.err


def test_census_csv_stops_at_nmax(capsys):
    code, out = run(capsys, "census", "--m", "2", "--nmax", "1", "--format", "csv")
    assert code == 0
    assert {line.split(",")[1] for line in out.strip().splitlines()[1:]} == {"0", "1"}


def readme_commands():
    text = (ROOT / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```")[1]
    return [line.split("#")[0].split()[1:] for line in block.splitlines()
            if line.startswith("gridmorse ")]


def test_readme_commands_run(capsys):
    commands = readme_commands()
    assert len(commands) == 17
    for argv in commands:
        assert main(argv) == 0, argv
    capsys.readouterr()


def readme_quick_start():
    """README's "Library quick start" block, and the value that the
    trailing comment of each of its print lines says it prints."""
    text = (ROOT / "README.md").read_text()
    block = text.split("## Library quick start", 1)[1].split("```")[1]
    block = block.removeprefix("python\n")
    expected = [line.split("#", 1)[1].split(" - ")[0].strip()
                for line in block.splitlines() if line.startswith("print(")]
    return block, expected


def test_readme_quick_start_prints_what_it_says(capsys):
    block, expected = readme_quick_start()
    assert len(expected) == 4
    exec(block, {})
    assert capsys.readouterr().out.splitlines() == expected
