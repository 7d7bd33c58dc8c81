"""Column-coloured finite-difference Jacobians against the dense reference.

``jacobian_fd`` perturbs each structurally orthogonal column group of the
declared sparsity pattern together.  These tests hold the assembled
declaration to what the residual really reads and the grouped Jacobian to
column-by-column differencing, bit for bit.
"""

from pathlib import Path

import numpy as np
import pytest

from adnlab.engine import DaeSystem, Params, jacobian_fd
from adnlab.errors import NonConvergenceError
from adnlab.scenario import load_scenario

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
SCENARIOS = ("two_bus", "gfl_feeder", "secondary_4bus", "cf_step", "showcase")


def dense_jacobian(sys, x, p):
    """Reference: one central difference per column, step
    ``1e-6 * max(1, |x_i|)``."""
    jac = np.empty((sys.n, sys.n))
    for i in range(sys.n):
        h = 1e-6 * max(1.0, abs(x[i]))
        xp = x.copy()
        xm = x.copy()
        xp[i] += h
        xm[i] -= h
        jac[:, i] = (sys.residual(xp, p) - sys.residual(xm, p)) / (2.0 * h)
    return jac


def declared(sys):
    """Boolean matrix of the declared pattern: ``(i, j)`` is set when
    row ``i`` reads state ``j``."""
    pattern = np.zeros((sys.n, sys.n), dtype=bool)
    for i, row in enumerate(sys.pattern):
        pattern[i, list(row)] = True
    return pattern


@pytest.fixture(scope="module", params=[(name, rotating)
                                        for name in SCENARIOS
                                        for rotating in (False, True)],
                ids=lambda c: f"{c[0]}-{'rotating' if c[1] else 'fixed'}")
def case(request):
    """System, base parameters and seeded random points with their dense
    reference Jacobians."""
    name, rotating = request.param
    scenario = load_scenario(SCENARIO_DIR / f"{name}.json")
    sys = scenario.build(rotating_sources=rotating)
    p = scenario.base_params(sys)
    rng = np.random.default_rng(sum(map(ord, name)) + rotating)
    points = []
    for _ in range(3):
        x = sys.initial_guess() + rng.normal(scale=0.1, size=sys.n)
        points.append((x, dense_jacobian(sys, x, p)))
    return sys, p, points


def test_coloured_jacobian_equals_dense_reference(case):
    sys, p, points = case
    for x, reference in points:
        assert np.array_equal(jacobian_fd(sys, x, p), reference)


def test_dense_nonzeros_lie_inside_declared_pattern(case):
    sys, _, points = case
    pattern = declared(sys)
    for _, reference in points:
        outside = np.argwhere((reference != 0.0) & ~pattern)
        assert outside.size == 0, [(sys.state_names[i], sys.state_names[j])
                                   for i, j in outside[:5]]


def test_no_row_reads_two_columns_of_one_group(case):
    sys, _, _ = case
    pattern = declared(sys)
    colour, rows, cols = sys.colouring()
    groups = colour.max() + 1
    # every state lies in exactly one group, and there are fewer than n
    assert colour.shape == (sys.n,)
    assert set(colour.tolist()) == set(range(groups))
    assert groups < sys.n
    for k in range(groups):
        assert np.all(pattern[:, colour == k].sum(axis=1) <= 1)
    # the entries are exactly the declared pattern, in group order and by
    # row within a group
    entries = np.zeros_like(pattern)
    entries[rows, cols] = True
    assert np.array_equal(entries, pattern)
    assert rows.size == pattern.sum()
    order = np.lexsort((rows, colour[cols]))
    assert np.array_equal(order, np.arange(rows.size))


def test_nonfinite_entry_names_equation_and_state():
    def residual(x, p):
        with np.errstate(invalid="ignore", divide="ignore"):
            return np.array([x[0], np.log(x[2]), x[1]])

    sys = DaeSystem(3, residual, lambda p: np.ones(3), Params((), []),
                    state_names=("a", "b", "c"), pattern=((0,), (2,), (1,)))
    assert sys.colouring()[0].tolist() == [0, 0, 0]
    with pytest.raises(NonConvergenceError,
                       match=r"equation 'b' w\.r\.t\. state 'c'") as err:
        jacobian_fd(sys, np.array([1.0, 1.0, 0.0]), sys.params0)
    assert err.value.worst_name == "b"


def test_system_without_pattern_is_dense():
    sys = DaeSystem(3, lambda x, p: x, lambda p: np.ones(3), Params((), []))
    colour, rows, cols = sys.colouring()
    assert colour.tolist() == [0, 1, 2]
    assert rows.tolist() == [0, 1, 2] * 3
    assert cols.tolist() == [0] * 3 + [1] * 3 + [2] * 3


def test_two_residual_calls_per_group(case, monkeypatch):
    # a hand-written system over the same residual and pattern makes one
    # residual call for F and one per perturbed state; the assembled one
    # runs its difference kernel and makes none
    sys, p, points = case
    x, reference = points[0]
    hand = DaeSystem(sys.n, sys.residual, sys.mass, p, pattern=sys.pattern)
    calls = []
    residual = DaeSystem.residual
    monkeypatch.setattr(DaeSystem, "residual", lambda self, x, p:
                        calls.append(self) or residual(self, x, p))
    assert np.array_equal(jacobian_fd(hand, x, p), reference)
    groups = hand.colouring()[0].max() + 1
    assert calls == [hand] * (2 * groups + 1)
    assert np.array_equal(jacobian_fd(sys, x, p), reference)
    assert len(calls) == 2 * groups + 1


def test_nonfinite_entries_in_two_groups_name_the_first_in_group_order():
    # group 0 holds states a and c, group 1 holds b (row a reads a and b);
    # at b = c = 0 the sqrt rows give a nan difference in both groups, and
    # the first in group order (equation c) is not the first row (a)
    def residual(x, p):
        with np.errstate(invalid="ignore"):
            return np.array([x[0] + np.sqrt(x[1]), x[1], np.sqrt(x[2])])

    sys = DaeSystem(3, residual, lambda p: np.ones(3), Params((), []),
                    state_names=("a", "b", "c"),
                    pattern=((0, 1), (1,), (2,)))
    assert sys.colouring()[0].tolist() == [0, 1, 0]     # [[0, 2], [1]]
    with pytest.raises(NonConvergenceError,
                       match=r"equation 'c' w\.r\.t\. state 'c'") as err:
        jacobian_fd(sys, np.array([1.0, 0.0, 0.0]), sys.params0)
    assert err.value.worst_name == "c"
