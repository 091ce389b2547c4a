"""Golden acceptance checks, one case per criterion, ``c01`` to ``c11``.

Each case calls the same runner the ``selftest`` CLI subcommand uses and
prints a single PASS/FAIL line (visible with ``pytest -s`` or on failure).

Criteria 4 and 7 rest on the independent multiprecision oracle
(tests/stress_oracle.py, compared with the package in test_oracle.py):

* criterion 4 -- every small-radius table entry lies within 1.5e-4 of the
  oracle; the d=1 rr square row is absent because that xi-slope vanishes
  identically.
* criterion 7 -- in d=1 the r^-8 row vanishes identically, so the residual
  slope window is -10 +/- 1.

Criterion 11 checks the boundary-term scan against its leading law
2^(-d/2) Gamma(lam+1) ell^(2d-3-u), lam = (u+1-d)/2, which the mpmath pins
in test_energy.py also bear out; the scan grows wherever that power is
positive, so decay is required only where it is negative.
"""

import pytest

from casimir_harmonic.selftest import CRITERIA, run_criterion


@pytest.mark.parametrize("index", sorted(CRITERIA), ids="c{:02d}".format)
def test_criterion(index):
    ok, line = run_criterion(index)
    print("criterion_%02d %s: %s" % (index, "PASS" if ok else "FAIL", line))
    assert ok, line


def test_criteria_table_is_complete():
    assert sorted(CRITERIA) == list(range(1, 12))
    for index, (title, runner) in CRITERIA.items():
        assert callable(runner), index
        assert title
