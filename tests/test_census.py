import json
import os
import subprocess
import sys
from math import comb
from pathlib import Path

import pytest

from gridmorse import census
from gridmorse import (PIVOT_RULE, DimensionBounds, Graph, build_graph,
                       census_extend, census_seed, census_table,
                       collect_pairing, count_independent_sets,
                       delta2_isomorphism, dimension_bounds,
                       euler_closed_form, euler_from_table, euler_recursion,
                       full_homology, independence_complex,
                       low_homology_prediction, matching_complex,
                       morse_homology, observation_scan, plain,
                       reduced_homology, riordan_T, riordan_identity_check,
                       run_strategy)


def nonzero_map(table):
    return {(n, d): c for n, d, c in table.nonzero()}


def test_seed_m2():
    assert nonzero_map(census_seed(2)) == {(0, 0): 1, (1, 1): 2, (2, 2): 1, (3, 2): 2}


def test_seed_m3():
    assert nonzero_map(census_seed(3)) == {(0, 0): 1, (1, 1): 1, (1, 2): 1,
                                           (2, 3): 1, (3, 2): 1, (3, 3): 1}


def test_seed_m5():
    assert nonzero_map(census_seed(5)) == {(0, 0): 1, (1, 1): 1, (1, 4): 1,
                                           (2, 5): 1, (3, 2): 1, (3, 5): 1}


def test_seed_row1_support():
    for m in (2, 3, 4, 6):
        table = census_seed(m)
        for d in range(0, m + 2):
            if d not in (1, m - 1):
                assert table.value(1, d) == 0


def test_seed_requires_m_at_least_2():
    with pytest.raises(ValueError):
        census_seed(1)


def test_extend_m2_row4():
    table = census_table(2, 4)
    # row 4 by hand from the seeds: d=3 gets 2*C[1][1] + C[0][0] = 5
    assert table.row_counts(4) == {3: 5}
    assert all(table.value(4, d) == 0 for d in range(3))


def test_extend_m3_row4():
    table = census_table(3, 4)
    # d=4: C[1][2] + C[0][0] + C[1][1] = 1 + 1 + 1
    assert table.value(4, 4) == 3


def test_extend_recursion_against_direct_sum():
    for m in (2, 3, 5):
        table = census_table(m, 12)
        for n in range(4, 13):
            for d in range(len(table.rows[n]) + 2):
                expect = (table.value(n - 3, d - 2)
                          + table.value(n - 4, d - m - 1)
                          + table.value(n - 3, d - m))
                assert table.value(n, d) == expect


def test_euler_from_table_values():
    assert euler_from_table(census_table(2, 4), 1) == -2
    assert euler_from_table(census_table(2, 4), 4) == -5
    assert euler_from_table(census_table(3, 4), 2) == -1
    with pytest.raises(ValueError):
        euler_from_table(census_table(2, 4), 9)


def test_euler_recursion():
    assert euler_recursion(2, 4, {0: 1, 1: -2}) == -5
    assert euler_recursion(3, 4, {0: 1, 1: 0}) == 1
    assert euler_recursion(2, 3, {}) == 2  # seed rows ignore history
    with pytest.raises(ValueError):
        euler_recursion(2, 7, {0: 1})


def test_euler_closed_form_even():
    assert [euler_closed_form(2, n) for n in range(5)] == [1, -2, 1, 2, -5]
    assert [euler_closed_form(4, n) for n in range(5)] == [1, -2, 1, 2, -5]


@pytest.mark.parametrize("order", ["increasing", "decreasing"])
def test_euler_closed_form_shared_sequence(monkeypatch, order):
    # the even-m values are kept in one list that calls extend; from a
    # fresh list, read up or down, every value is the recursion's
    monkeypatch.setattr(census, "_EVEN_EULER", [1, -2, 1])
    want = {}
    for m in (2, 4):
        history = want[m] = {}
        for n in range(601):
            history[n] = euler_recursion(m, n, history)
    ns = range(601) if order == "increasing" else range(600, -1, -1)
    for n in ns:
        for m in (2, 4):
            assert euler_closed_form(m, n) == want[m][n], (m, n)
    assert len(census._EVEN_EULER) == 601


def test_euler_closed_form_odd_periodic():
    values = [euler_closed_form(3, n) for n in range(12)]
    assert values == [1, 0, -1, 0] * 3
    assert euler_closed_form(3, 6) == -1
    assert euler_closed_form(3, 4) == 1
    assert all(euler_closed_form(5, n) in (-1, 0, 1) for n in range(40))


def test_euler_closed_form_against_enumerated_complexes():
    # direct reduced Euler characteristics of the actual complexes
    for m in (2, 3):
        for n in range(0, 5):
            cx = independence_complex(build_graph("delta", m=m, n=n))
            assert cx.reduced_euler() == euler_closed_form(m, n), (m, n)


def test_three_way_euler_consistency():
    for m in (2, 3, 4, 5):
        table = census_table(m, 40)
        history = {}
        for n in range(41):
            e = euler_from_table(table, n)
            history[n] = e
            assert e == euler_recursion(m, n, history)
            assert e == euler_closed_form(m, n)


def test_riordan_values():
    assert riordan_T(0, 0) == 1
    assert riordan_T(1, 0) == 0
    assert riordan_T(2, 0) == 1
    assert riordan_T(3, 0) == 2
    assert riordan_T(2, 1) == 2
    assert riordan_T(3, 1) == 5
    assert riordan_T(1, 3) == 0 and riordan_T(4, -1) == 0
    assert all(riordan_T(j, j) == 1 for j in range(8))


def test_riordan_identity():
    assert riordan_identity_check(12)
    table = census_table(2, 10)
    assert table.value(4, 3) == riordan_T(3, 1) == 5
    assert table.value(0, 0) == riordan_T(2, 0) == 1


RIORDAN_PROBE = """
import json
from gridmorse import riordan_T
deep = riordan_T(3000, 5)
print(json.dumps([deep, [[riordan_T(j, k) for k in range(-1, j + 2)]
                         for j in range(61)]]))
"""


def riordan_closed_form(j, k):
    """[x^k] (1+x)^2 (2+x)^(j-2) for j >= 2, and the pinned T(0,0) = 1,
    T(1,0) = 0 with T(1,1) = T(0,0) below that."""
    if j < 2:
        return int(0 <= k == j)
    return sum(comb(2, a) * comb(j - 2, k - a) * 2 ** (j - 2 - k + a)
               for a in range(3) if 0 <= k - a <= j - 2)


def test_riordan_cold_deep_call():
    # a fresh interpreter, so no entry is cached: the first call goes 3,000
    # rows down the array, past Python's recursion limit
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-c", RIORDAN_PROBE],
                          capture_output=True, text=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=str(root / "src")))
    assert proc.returncode == 0, proc.stderr
    deep, rows = json.loads(proc.stdout)
    assert deep == riordan_closed_form(3000, 5)
    assert rows == [[riordan_closed_form(j, k) for k in range(-1, j + 2)]
                    for j in range(61)]


def test_dimension_bounds_examples():
    assert dimension_bounds(2, 4) == DimensionBounds(3, 3)
    assert dimension_bounds(5, 2) == DimensionBounds(5, 5)
    with pytest.raises(ValueError):
        dimension_bounds(1, 3)


def test_dimension_bounds_branches_coincide_for_m2():
    for n in range(0, 40):
        low = dimension_bounds(2, n).d_min
        alt = 2 * ((n - 1) // 3) + 2 if n % 3 == 2 else (2 * n + 2) // 3
        assert low == alt


def test_support_window_and_attainment():
    for m in (2, 3, 4, 5):
        table = census_table(m, 20)
        for n in range(21):
            b = dimension_bounds(m, n)
            for d, c in enumerate(table.rows[n]):
                if c:
                    assert b.d_min <= d <= b.d_max
            if n >= 4:
                assert table.value(n, b.d_min) > 0
                assert table.value(n, b.d_max) > 0


def test_dimension_gap_above_minimum():
    for m in (4, 5, 6):
        table = census_table(m, 15)
        for n in range(16):
            if n % 3 in (0, 1):
                d_min = dimension_bounds(m, n).d_min
                for d in range(d_min + 1, d_min + m - 2):
                    assert table.value(n, d) == 0


def test_low_homology_prediction():
    assert low_homology_prediction(4, 3) == (2, 1)
    assert low_homology_prediction(4, 5) == (4, 0)
    assert low_homology_prediction(5, 4) == (3, 1)
    with pytest.raises(ValueError):
        low_homology_prediction(3, 3)


def test_observation_scan_small():
    holds, exceptions = observation_scan(12)
    assert 4 in holds
    assert exceptions == []


def test_observation_scan_full():
    holds, exceptions = observation_scan(99)
    assert exceptions == [48, 61, 74, 84, 87, 90, 94, 97]
    assert len(holds) + len(exceptions) == 100


def test_table_csv_and_json():
    table = census_table(2, 4)
    rows = list(table.to_csv_rows())
    assert "2,4,3,5" in rows
    data = table.to_json()
    assert data["m"] == 2 and data["rows"][4] == {"3": 5}


def test_census_extend_idempotent_prefix():
    base = census_table(3, 6)
    longer = census_extend(base, 10)
    for n in range(7):
        assert longer.rows[n] == base.rows[n]
    assert census_extend(base, 2).rows == base.rows[:3]
    with pytest.raises(ValueError):
        census_extend(census_table(3, 2), 10)


@pytest.mark.parametrize("call", [
    lambda: census_table(2, -1),
    lambda: census_table(2, -5).row_counts(0),
    lambda: riordan_identity_check(-1),
    lambda: observation_scan(-1),
], ids=["table", "row_counts", "riordan", "scan"])
def test_negative_n_max_is_refused(call):
    # an empty table has no row 0, and a check over no rows proves nothing
    with pytest.raises(ValueError, match="requires n_max >= 0"):
        call()


@pytest.mark.parametrize("call,message", [
    (lambda: euler_closed_form(1, 0), "requires m >= 2"),
    (lambda: euler_closed_form(2, -1), "requires n >= 0"),
    (lambda: low_homology_prediction(4, -1), "requires n >= 0"),
    (lambda: build_graph("grid2", n=0), "grid2 requires n >= 1"),
    (lambda: delta2_isomorphism(0), "requires n >= 1"),
    (lambda: census_table(2, 5).row_counts(-1), "row -1 not in table"),
    (lambda: census_table(2, 5).row_counts(6), "row 6 not in table"),
    (lambda: euler_recursion(1, 5, {1: 3, 2: 7}), "requires m >= 2"),
    (lambda: euler_recursion(1, 2, {}), "requires m >= 2"),
    (lambda: build_graph("path", n=3, m=5), "path takes no m"),
    (lambda: build_graph("cycle", n=3, m=5), "cycle takes no m"),
    (lambda: build_graph("grid2", n=3, m=5), "grid2 takes no m"),
    (lambda: Graph(["a"], [("a", "b")]), "edge endpoint b is not a vertex"),
    (lambda: Graph([plain(1), 1], []), "vertex label 1 is not a str"),
    (lambda: build_graph("delta", m=2, n=2.5), "n = 2.5 is not an int"),
    (lambda: build_graph("star", m=True, n=2), "m = True is not an int"),
    (lambda: build_graph("path", n="3"), "n = '3' is not an int"),
    (lambda: census_seed(2.0), "m = 2.0 is not an int"),
    (lambda: census_extend(census_seed(2), 5.0), "n_max = 5.0 is not an int"),
    (lambda: census_table(2, True), "n_max = True is not an int"),
    (lambda: euler_closed_form(2.0, 3), "m = 2.0 is not an int"),
    (lambda: euler_closed_form(3, False), "n = False is not an int"),
    (lambda: euler_recursion(2, 4.0, {0: 1, 1: 0}), "n = 4.0 is not an int"),
    (lambda: euler_recursion(True, 2, {}), "m = True is not an int"),
    (lambda: dimension_bounds(2, 3.0), "n = 3.0 is not an int"),
    (lambda: dimension_bounds(None, 3), "m = None is not an int"),
    (lambda: low_homology_prediction(4.0, 3), "m = 4.0 is not an int"),
    (lambda: low_homology_prediction(4, True), "n = True is not an int"),
    (lambda: independence_complex(build_graph("path", n=5), face_cap=10.5),
     "face_cap = 10.5 is not an int"),
    (lambda: matching_complex(build_graph("path", n=4), face_cap=True),
     "face_cap = True is not an int"),
    (lambda: collect_pairing(run_strategy(build_graph("path", n=3),
                                          PIVOT_RULE), None),
     "face_cap = None is not an int"),
    (lambda: full_homology(independence_complex(build_graph("path", n=3)),
                           None), "face_cap = None is not an int"),
    (lambda: morse_homology(build_graph("path", n=3), None),
     "face_cap = None is not an int"),
    (lambda: reduced_homology(independence_complex(build_graph("path", n=3)),
                              face_cap=5.0), "face_cap = 5.0 is not an int"),
    (lambda: count_independent_sets(build_graph("path", n=3), cap=2.5),
     "cap = 2.5 is not an int"),
    (lambda: count_independent_sets(build_graph("path", n=3), cap=False),
     "cap = False is not an int"),
    (lambda: census_table(2, 5).row(True), "n = True is not an int"),
    (lambda: census_table(2, 5).row_counts(2.0), "n = 2.0 is not an int"),
    (lambda: euler_from_table(census_table(2, 5), 2.5),
     "n = 2.5 is not an int"),
    (lambda: census_table(2, 5).value(True, 1), "n = True is not an int"),
    (lambda: census_table(2, 5).value(1.5, 0), "n = 1.5 is not an int"),
    (lambda: census_table(2, 5).value(1, 2.0), "d = 2.0 is not an int"),
    (lambda: riordan_T(2.5, 1), "j = 2.5 is not an int"),
    (lambda: riordan_T(True, 0), "j = True is not an int"),
    # (4, 1) cached first: 1.0 must not read its entry
    (lambda: riordan_T(4, 1) and riordan_T(4, 1.0), "k = 1.0 is not an int"),
], ids=["euler-m", "euler-n", "low-homology-n", "grid2-n", "delta2-n",
        "row-counts-negative", "row-counts-past-end", "euler-recursion-m",
        "euler-recursion-seed-m", "path-m", "cycle-m", "grid2-m",
        "edge-endpoint", "label-not-str", "graph-float-n", "graph-bool-m",
        "graph-str-n", "seed-float-m", "extend-float-n", "table-bool-n",
        "euler-float-m", "euler-bool-n", "euler-recursion-float-n",
        "euler-recursion-bool-m", "bounds-float-n", "bounds-none-m",
        "low-homology-float-m", "low-homology-bool-n", "complex-float-cap",
        "matching-bool-cap", "pairing-none-cap", "full-homology-none-cap",
        "morse-homology-none-cap", "reduced-homology-float-cap",
        "count-float-cap", "count-bool-cap", "row-bool-n",
        "row-counts-float-n", "euler-table-float-n", "value-bool-n",
        "value-float-n", "value-float-d", "riordan-float-j",
        "riordan-bool-j", "riordan-float-k-after-int"])
def test_out_of_range_arguments_are_refused(call, message):
    with pytest.raises(ValueError, match=message):
        call()


@pytest.mark.parametrize("m", range(2, 6))
def test_census_table_stops_at_n_max(m):
    seed = census_seed(m)
    for k in range(7):
        table = census_table(m, k)
        assert table.n_max == k
        assert table.rows[:4] == seed.rows[:k + 1]


@pytest.mark.parametrize("m", range(2, 6))
def test_census_extend_matches_cellwise_recursion(m):
    # C[n][d] = C[n-3][d-2] + C[n-4][d-m-1] + C[n-3][d-m], one cell at a time
    rows = [list(r) for r in census_seed(m).rows]

    def cell(n, d):
        return rows[n][d] if 0 <= n and 0 <= d < len(rows[n]) else 0

    for n in range(4, 41):
        width = n + 1 + m * (n + 1)
        row = [cell(n - 3, d - 2) + cell(n - 4, d - m - 1) + cell(n - 3, d - m)
               for d in range(width)]
        while row and row[-1] == 0:
            row.pop()
        rows.append(row)
    assert census_table(m, 40).rows == rows
