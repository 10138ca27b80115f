"""Every verify-all check can fail.

Each test changes one frozen table or one imported function of
``asmgraph.verify`` and asserts that the check reports the change, so a
check that stopped comparing would fail here.  A check added to
``ALL_CHECKS`` without a mutation below fails with a KeyError.
"""

from fractions import Fraction

import pytest

from asmgraph import verify

#: check key -> (name in asmgraph.verify, its broken value, start of the report)
MUTATIONS = {
    "a3": ("A3_EDGES", verify.A3_EDGES - {("123", "321")}, "edge set mismatch: [('123', '321')]"),
    "beta": (
        "S4_SIGN_BETA",
        {**verify.S4_SIGN_BETA, "4321": (1, 9)},
        "4321: perm,corner,entry,count disagree",
    ),
    "bq": (
        "_B4_COEFFS",
        {**verify._B4_COEFFS, 10: 2},
        "B_4 coefficients differ from the frozen reference",
    ),
    "order": ("evaluate_difference", lambda a, b, m: Fraction(1), "pair (0,0) sample 0: value 0;"),
    "lattice": (
        "A6_TYPE_CENSUS",
        {**verify.A6_TYPE_CENSUS, 16: 15},
        "A6 type census differs: {",
    ),
    "dodgson": ("det", lambda rows: 7, "n=2: 200 failed comparisons in 100 trials;"),
    "fulton": ("fulton_essential_set", lambda w: set(), "mismatch at 12354;"),
    "scope": ("is_tnn", lambda m: False, "pair (0,1): counterexample not TNN;"),
}


@pytest.mark.parametrize("key", list(verify.ALL_CHECKS))
def test_a_broken_reference_fails_the_check(monkeypatch, key):
    name, broken, report = MUTATIONS[key]
    monkeypatch.setattr(verify, name, broken)
    result = verify.ALL_CHECKS[key](0)
    assert result.passed is False
    assert result.details.startswith(report), result.details


def test_run_all_runs_every_check_by_default(monkeypatch):
    """With no names, run_all runs each registered check once, in
    registration order, with the seed it is given."""
    calls = []

    def stub(name):
        def run(seed):
            calls.append((name, seed))
            return name

        return run

    monkeypatch.setattr(verify, "ALL_CHECKS", {"first": stub("first"), "second": stub("second")})
    assert verify.run_all(seed=5) == ("first", "second")
    assert calls == [("first", 5), ("second", 5)]


def test_the_checks_after_a_failing_one_still_run(monkeypatch):
    name, broken, report = MUTATIONS["a3"]
    monkeypatch.setattr(verify, name, broken)
    results = verify.run_all(names=["a3", "beta", "fulton"])
    assert [r.name for r in results] == ["A3 reconstruction", "beta table S4", "fulton S5"]
    assert [r.passed for r in results] == [False, True, True]
    assert results[0].details == report
