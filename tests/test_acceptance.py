"""Acceptance gate: one test per criterion, each printing its verdict line.

Criterion text lives next to the criterion functions in
germkit.acceptance; every test runs one criterion at the default seed,
prints the "criterion N (...): PASS/FAIL in Ns" line plus detail rows,
and asserts the verdict. Criterion 1 carries the heavy Milnor-number
reproduction and dominates the runtime of the whole suite. The rank
routine behind the dense oracle of criterion 5 is tested on its own.
"""

import subprocess
import sys

import pytest

from germkit.acceptance import CRITERIA, _rank_mod_p, run_criterion


def _check(number):
    res = run_criterion(number)
    print(res.line())
    for d in res.details:
        print("    " + d)
    assert res.passed, res.line()


def test_criterion_1_zariski_reproduction():
    _check(1)


def test_criterion_2_ft_grid():
    _check(2)


def test_criterion_3_saito_consistency():
    _check(3)


def test_criterion_4_reiffen_exactness():
    _check(4)


def test_criterion_5_engine_properties():
    _check(5)


def test_criterion_6_calculus_properties():
    _check(6)


def test_criterion_7_front_end():
    _check(7)


def test_registry_is_complete():
    assert [num for num, _, _, _ in CRITERIA] == [1, 2, 3, 4, 5, 6, 7]
    with pytest.raises(ValueError):
        run_criterion(8)


def test_rank_mod_p_eliminates_over_the_prime_field():
    p = 32003
    # singular mod p, but not over Q
    assert _rank_mod_p([[1, 1], [1, 1 + p]], p) == 1
    assert _rank_mod_p([[1, 2], [3, 13]], 7) == 1
    assert _rank_mod_p([[1, -1], [1, 1]], 7) == 2
    assert _rank_mod_p([[1, -1], [1, 1]], 2) == 1
    # zero rows, and columns without a pivot
    assert _rank_mod_p([[0, 0, 0], [0, 2, 4], [0, 0, 0], [0, 1, 2 + p]], p) == 1
    assert _rank_mod_p([[0, 0], [p, -p]], p) == 0
    assert _rank_mod_p([[2, 3, 5], [0, 0, 7], [4, 6, 3]], p) == 2
    assert _rank_mod_p([], p) == 0


def test_selftest_loads_no_numpy():
    code = "import sys, germkit.cli, germkit.acceptance; sys.exit('numpy' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code]).returncode == 0
