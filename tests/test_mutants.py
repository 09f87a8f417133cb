"""Mutation probes: each row breaks one library function by a monkeypatch
and names the fast checks that must fail under it.

Every check must also pass unpatched, so none of them is vacuous.  A check
fails by an assertion (``pytest.raises`` included) or, where the row says
so, by the error a guard raises.
"""

import pytest

import test_alexander
import test_torsion_reference
from twisthom import alexander, groups, matrices

ASSERTED = (AssertionError, pytest.fail.Exception)

# (probe, module, attribute, replacement, how a check dies, killing checks)
MUTANTS = [
    ("no offender fix-up", matrices, "_divides", lambda b, a: True, ASSERTED,
     [test_torsion_reference.test_torsion_that_needs_the_divisibility_step]),
    ("_divides always False", matrices, "_divides", lambda b, a: False, ArithmeticError,
     [test_alexander.test_torsion_invariants_t3]),
    ("d.d = 0 check always passes", alexander, "_composes_to_zero", lambda a, b: True,
     ASSERTED, [test_alexander.test_torsion_invariants_rejects_non_complex]),
    ("Phi_n never divides in the root choice", alexander, "_divides",
     lambda b, a: False, ASSERTED, [test_alexander.test_select_examples]),
    ("grading weight off by one on nonempty words", alexander, "grading_weight",
     lambda phi, w: groups.grading_weight(phi, w) + bool(w), ASSERTED,
     [test_alexander.test_laurent_specialize_circle,
      test_alexander.test_torsion_invariants_trefoil]),
]


@pytest.mark.parametrize("probe, module, name, mutant, dies_by, checks", MUTANTS,
                         ids=[row[0] for row in MUTANTS])
def test_mutant_is_killed(monkeypatch, probe, module, name, mutant, dies_by, checks):
    for check in checks:
        check()
    monkeypatch.setattr(module, name, mutant)
    for check in checks:
        with pytest.raises(dies_by):
            check()
