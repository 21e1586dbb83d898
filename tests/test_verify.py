import json
import random
from fractions import Fraction

import pytest

from schurwin.partitions import Context, Partition, ShapeError
from schurwin.staircase import StaircaseStep, admissible_bases, staircase_diagrams
from schurwin.symfunc import elementary_at, schur_at
from schurwin.verify import (
    VerificationReport,
    _localization_counterexample,
    localization_holds,
    localization_mutation_sweep,
    mutate_steps,
    verify_regression,
    sample_point,
    verify_euler,
    verify_localization,
    verify_relations,
    verify_tilting,
)


def test_report_requires_counterexample_on_failure():
    with pytest.raises(ValueError):
        VerificationReport("x", {}, passed=False)


def test_sample_point_distinct_positive():
    rng = random.Random(0)
    for d in (1, 4, 7):
        t = sample_point(rng, d)
        assert len(set(t)) == d
        assert all(x > 0 for x in t)
        assert all(
            x.numerator <= 100 and x.denominator <= 100 for x in t
        )


def test_localization_identity_by_hand_d2_r1():
    # at the fixed point {1} the chain reads 1 - (1 + t2/t1) + t2/t1 = 0
    ctx = Context(2, 1)
    t = (Fraction(2, 3), Fraction(5, 7))
    steps = staircase_diagrams(ctx, Partition(())).steps
    total = schur_at((0,), (Fraction(3, 2),))
    total -= schur_at((1,), (Fraction(3, 2),)) * elementary_at(t, 1)
    total += schur_at((2,), (Fraction(3, 2),)) * elementary_at(t, 2)
    assert total == 0
    assert localization_holds(ctx, Partition(()), steps, [t])


def test_localization_passes_d4_r2():
    rep = verify_localization(Context(4, 2), seed=0)
    assert rep.passed
    assert "necessary condition" in rep.note
    rep = verify_localization(Context(4, 2), delta=(2,), seed=0)
    assert rep.passed


def test_localization_catches_corruption():
    ctx = Context(4, 2)
    rng = random.Random(1)
    points = [sample_point(rng, 4) for _ in range(3)]
    steps = staircase_diagrams(ctx, Partition((2,))).steps
    # swap one wedge exponent by hand
    bad = list(steps)
    bad[0] = StaircaseStep(bad[0].delta, bad[0].s + 1)
    assert not localization_holds(ctx, Partition((2,)), tuple(bad), points)
    rep = verify_localization(ctx, seed=3)
    assert rep.passed and rep.counterexample is None


def test_localization_report_failure_has_witness():
    # run the checker against corrupted data through the mutation sweep
    rep = localization_mutation_sweep(Context(4, 2), mutations=10, seed=5)
    assert rep.passed  # all mutations caught, so the sweep itself passes


def test_mutations_always_change_something():
    ctx = Context(4, 2)
    rng = random.Random(9)
    steps = staircase_diagrams(ctx, Partition((1,))).steps
    for _ in range(50):
        mutated = mutate_steps(rng, ctx, steps)
        assert mutated != steps
        assert len(mutated) == len(steps)


def test_euler_passes_examples():
    assert verify_euler(Context(2, 1)).passed
    rep = verify_euler(Context(4, 2))
    assert rep.passed
    for base in [(), (1,), (2,)]:
        assert verify_euler(Context(4, 2), delta=base).passed


def test_euler_catches_corruption():
    # feeding a wrong base against the real staircase of another must fail
    ctx = Context(4, 2)
    import schurwin.verify as V
    from schurwin.bott import HomogeneousWeight, euler_character

    base = Partition((2,))
    steps = staircase_diagrams(ctx, base).steps
    q0 = (0, 0)
    total = euler_character(ctx, HomogeneousWeight((1, 0), q0))  # wrong base
    sign = -1
    for st in steps:
        chi = euler_character(ctx, HomogeneousWeight(st.delta.pad(2), q0))
        total = total + sign * chi.multiply(V._wedge_v_character(ctx, st.s))
        sign = -sign
    assert not total.is_zero()


def test_tilting_sweeps():
    rep = verify_tilting(Context(4, 2))
    assert rep.passed
    assert rep.parameters["pairs"] == 36
    assert verify_tilting(Context(2, 1)).passed


def test_relations_small():
    rep = verify_relations(Context(3, 1))
    assert rep.passed
    assert rep.parameters["cotwistShiftAmount"] == 3
    rep = verify_relations(Context(2, 2), k_range=range(-1, 2))
    assert rep.passed


def test_regression_golden_sets():
    contexts = [(4, 2), (7, 3)] + [(d, 1) for d in range(2, 9)]
    for d, r in contexts:
        rep = verify_regression(Context(d, r))
        assert rep.passed, rep.counterexample
    with pytest.raises(ShapeError):
        verify_regression(Context(5, 4))


def test_reports_deterministic_given_seed():
    a = verify_localization(Context(3, 2), seed=11)
    b = verify_localization(Context(3, 2), seed=11)
    assert a.to_json_obj() == b.to_json_obj()


def test_admissible_base_sweep_passes_both_checks():
    # moderate slice of the full sweep; the acceptance suite runs it all
    for d, r in [(5, 2), (5, 3), (4, 3)]:
        ctx = Context(d, r)
        assert verify_localization(ctx, seed=0).passed
        assert verify_euler(ctx).passed
        assert len(admissible_bases(ctx)) > 0


def _mutated_counterexample(ctx, base, rng_seed, samples, mutate):
    rng = random.Random(rng_seed)
    points = [sample_point(rng, ctx.d) for _ in range(samples)]
    steps = list(staircase_diagrams(ctx, base).steps)
    mutate(steps)
    return _localization_counterexample(ctx, base, tuple(steps), points)


def test_localization_counterexample_bytes_pinned():
    # a failing report carries the witness point and residual as strings, so
    # evaluation must reproduce them byte for byte
    def raise_first_wedge(steps):
        steps[0] = StaircaseStep(steps[0].delta, steps[0].s + 1)

    ce = _mutated_counterexample(Context(4, 2), Partition((2,)), 1, 3, raise_first_wedge)
    assert json.dumps(ce, sort_keys=True) == (
        '{"delta": [2], "fixedPoint": [1, 2], '
        '"point": ["18/73", "32/49", "33/16", "98/9"], '
        '"residual": "-16923518315/23887872", '
        '"steps": [[[2, 1], 2], [[2, 2], 2], [[3, 3], 4]]}'
    )

    def raise_last_first_row(steps):
        parts = list(steps[-1].delta.pad(3))
        parts[0] += 1
        steps[-1] = StaircaseStep(Partition(tuple(parts)), steps[-1].s)

    ce = _mutated_counterexample(Context(6, 3), Partition((2, 1)), 7, 2, raise_last_first_row)
    assert ce["fixedPoint"] == [1, 2, 3]
    assert ce["point"] == ["8/65", "17/28", "47/75", "7/10", "21/10", "69/13"]
    assert ce["residual"] == "38515738378460816025/98196982796288"


def test_localization_memo_shared_across_calls():
    ctx = Context(4, 2)
    rng = random.Random(2)
    points = [sample_point(rng, 4) for _ in range(2)]
    memo = {}
    for base in admissible_bases(ctx):
        steps = staircase_diagrams(ctx, base).steps
        assert localization_holds(ctx, base, steps, points, memo)
    assert memo
    for (p, fixed, mu), value in memo.items():
        assert value == schur_at(mu, tuple(1 / points[p][i] for i in fixed))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_localization_passes_d6_r3(seed):
    assert verify_localization(Context(6, 3), seed=seed).passed
