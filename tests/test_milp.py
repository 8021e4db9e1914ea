"""Branch-and-bound core against hand solutions and the enumeration oracle."""

import copy
import dataclasses
import hashlib
import itertools
import math
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import uavplan.milp as milp
from uavplan.milp import (
    BINARY,
    CONTINUOUS,
    INTEGER,
    IPModel,
    SolverError,
    solve_enumerate,
    solve_exact,
    solve_lp_relaxation,
)
from uavplan.planner import (
    _mean_demand_and_shortfall,
    _phase2_warm_start,
    build_phase2_dip,
    build_phase2_sip,
)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import workloads  # noqa: E402
from test_planner import z4_point  # noqa: E402


def knapsack_model():
    """Classic 0/1 knapsack, optimum value 220 picking items 2 and 3."""
    m = IPModel("knapsack")
    values = (60.0, 100.0, 120.0)
    weights = (10.0, 20.0, 30.0)
    ids = []
    for i, val in enumerate(values):
        vid = m.add_variable(f"pick[{i}]", kind=BINARY)
        m.add_objective_term(vid, -val)
        ids.append(vid)
    m.add_constraint(list(zip(ids, weights)), "<=", 50.0, name="capacity")
    return m, ids


def mixed_rows_lp():
    """At the cold starting point (x and z at their lower bounds 1 and 0,
    y at the upper bound 5 that its cost favours) the >= and <= rows hold
    and the equality misses by 5. Optimum -2 at (4, 3, 0):
    x - 2y + z = 1 - y + 2z on x = 1 + y + z, so y goes as high as
    x <= 4 allows."""
    m = IPModel("mixed_rows")
    x = m.add_variable("x", lower=1.0, upper=4.0)
    y = m.add_variable("y", upper=5.0)
    z = m.add_variable("z", upper=3.0)
    m.add_constraint([(x, 1.0), (y, -1.0), (z, -1.0)], "==", 1.0, name="eq")
    m.add_constraint([(x, 1.0), (z, 2.0)], ">=", 0.5, name="ge")
    m.add_constraint([(x, -1.0), (y, -2.0)], "<=", -5.0, name="le")
    for vid, coef in ((x, 1.0), (y, -2.0), (z, 1.0)):
        m.add_objective_term(vid, coef)
    return m


class TestModelConstruction:
    def test_rejects_duplicate_names(self):
        m = IPModel()
        m.add_variable("x")
        with pytest.raises(ValueError, match="duplicate"):
            m.add_variable("x")

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            IPModel().add_variable("x", kind="semicontinuous")

    def test_binary_bounds_clamped(self):
        m = IPModel()
        vid = m.add_variable("b", kind=BINARY, lower=-5.0, upper=9.0)
        assert (m.variables[vid].lower, m.variables[vid].upper) == (0.0, 1.0)

    def test_rejects_empty_bound_interval(self):
        with pytest.raises(ValueError, match="empty bound"):
            IPModel().add_variable("x", lower=2.0, upper=1.0)

    def test_rejects_bad_sense_and_ids(self):
        m = IPModel()
        vid = m.add_variable("x")
        with pytest.raises(ValueError, match="sense"):
            m.add_constraint([(vid, 1.0)], "<", 1.0)
        with pytest.raises(ValueError, match="unknown variable id"):
            m.add_constraint([(vid + 1, 1.0)], "<=", 1.0)
        with pytest.raises(ValueError, match="non-finite"):
            m.add_constraint([(vid, math.nan)], "<=", 1.0)

    def test_merges_repeated_terms(self):
        m = IPModel()
        vid = m.add_variable("x", upper=10.0)
        m.add_constraint([(vid, 1.0), (vid, 2.0)], "<=", 6.0)
        assert m.constraints[0].coefs == (3.0,)

    def test_lp_text_lists_rows(self):
        m, _ = knapsack_model()
        text = m.to_lp_text()
        assert "capacity" in text and "pick[0]" in text


class TestKnownAnswers:
    def test_knapsack(self):
        m, ids = knapsack_model()
        sol = solve_exact(m)
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(-220.0)
        picks = [sol.assignment[m.variable_id(f"pick[{i}]")] for i in range(3)]
        assert picks == [0.0, 1.0, 1.0]

    def test_equality_row(self):
        m = IPModel()
        x = m.add_variable("x", kind=INTEGER, upper=5.0)
        y = m.add_variable("y", kind=INTEGER, upper=5.0)
        m.add_constraint([(x, 1.0), (y, 1.0)], "==", 5.0)
        m.add_objective_term(x, 1.0)
        sol = solve_exact(m)
        assert sol.status == "optimal"
        assert (sol.assignment[x], sol.assignment[y]) == (0.0, 5.0)

    def test_objective_constant_carried(self):
        m, _ = knapsack_model()
        m.add_objective_constant(7.5)
        assert solve_exact(m).objective == pytest.approx(-212.5)
        assert solve_enumerate(m).objective == pytest.approx(-212.5)

    def test_infeasible(self):
        m = IPModel()
        x = m.add_variable("x", kind=BINARY)
        m.add_constraint([(x, 1.0)], ">=", 2.0)
        sol = solve_exact(m)
        assert sol.status == "infeasible"
        assert sol.objective is None and sol.assignment is None

    def test_unbounded(self):
        m = IPModel()
        x = m.add_variable("x", kind=CONTINUOUS)
        m.add_objective_term(x, -1.0)
        assert solve_exact(m).status == "unbounded"

    def test_pure_lp_path(self):
        m = IPModel()
        x = m.add_variable("x", upper=4.0)
        y = m.add_variable("y", upper=4.0)
        m.add_constraint([(x, 1.0), (y, 1.0)], "<=", 6.0)
        m.add_objective_term(x, -1.0)
        m.add_objective_term(y, -2.0)
        sol = solve_exact(m)
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(-10.0)
        assert sol.assignment[m.variable_id("y")] == pytest.approx(4.0)

    def test_lp_relaxation_of_knapsack(self):
        m, _ = knapsack_model()
        # greedy by density: items 0 and 1 whole, two thirds of item 2
        sol = solve_lp_relaxation(m)
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(-220.0 - 60.0 / 3.0, abs=1e-6)

    def test_slack_start_on_mixed_rows(self):
        """Every cost sits on a boxed variable, so the all-slack basis is
        dual feasible: two dual simplex steps take the equality's slack
        out of the basis and reach the optimum, and phase 2 takes none."""
        m = mixed_rows_lp()
        sol = solve_lp_relaxation(m)
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(-2.0, abs=1e-12)
        assert sol.assignment.tolist() == pytest.approx([4.0, 3.0, 0.0], abs=1e-12)
        assert sol.simplex_pivots == (2, 0)

    def test_bundled_sip_pivot_counts(self, bundled_instance):
        sol = solve_exact(build_phase2_sip(bundled_instance).model)
        assert sol.status == "optimal" and sol.nodes_explored == 1
        assert sol.simplex_pivots == (92, 0)

    def test_rows_free_integer_model_matches_enumeration(self):
        """Variables but no rows: every LP has an empty basis."""
        m = IPModel("no-rows")
        x = m.add_variable("x", kind=INTEGER, upper=3.0)
        m.add_objective_term(x, -1.0)
        y = m.add_variable("y", kind=INTEGER, lower=-2.0, upper=2.0)
        m.add_objective_term(y, 0.5)
        oracle = solve_enumerate(m)
        assert (oracle.status, oracle.assignment.tolist()) == ("optimal", [3.0, -2.0])
        for sol in (solve_lp_relaxation(m), solve_exact(m)):
            assert (sol.status, sol.objective) == ("optimal", oracle.objective)
            assert sol.assignment.tolist() == oracle.assignment.tolist()

    def test_rows_free_unbounded(self):
        m = IPModel("no-rows")
        x = m.add_variable("x", kind=CONTINUOUS)
        m.add_objective_term(x, -1.0)
        assert solve_lp_relaxation(m).status == "unbounded"
        assert solve_exact(m).status == "unbounded"

    def test_no_negative_zero_in_assignment(self):
        m, _ = knapsack_model()
        sol = solve_exact(m)
        assert not np.signbit(sol.assignment).any()

    def test_ratio_test_skips_a_rounding_scale_pivot(self):
        """min -x over 5e-10 x <= 0 and 1e3 x <= 1e3, from the feasible
        slack basis with x at 0. The entering column is (5e-10, 1e3): the
        first row, degenerate, would stop x at 0 on a pivot of 5e-10 and
        put 2e9 into B^-1. Below 1e-9 of the largest rate it may not bound
        the step, so x climbs to 1 on the 1e3 pivot, and the first row
        ends 5e-10 over, inside the tolerance."""
        m = IPModel("tiny-pivot")
        x = m.add_variable("x", upper=10.0)
        m.add_objective_term(x, -1.0)
        m.add_constraint([(x, 5e-10)], "<=", 0.0)
        m.add_constraint([(x, 1e3)], "<=", 1e3)
        slack_basis = milp.Basis(
            np.array([1, 2]), np.array([milp._AT_LOWER, milp._BASIC, milp._BASIC], dtype=np.int8)
        )
        sol = solve_lp_relaxation(m, start_basis=slack_basis)
        assert (sol.status, sol.objective, sol.simplex_pivots) == ("optimal", -1.0, (0, 1))
        assert sol.assignment.tolist() == [1.0]
        assert sol.basis.columns.tolist() == [1, 0]  # x took the second row


def assert_same_solve(got, want):
    """Two ``_PreparedLP.solve`` results agree bit for bit, basis included."""
    (status, x, obj, steps, basis), (status_w, x_w, obj_w, steps_w, basis_w) = got, want
    assert (status, obj, steps) == (status_w, obj_w, steps_w)
    assert (x is None and x_w is None) or np.array_equal(x, x_w)
    if basis is None or basis_w is None:
        assert basis is None and basis_w is None
    else:
        assert np.array_equal(basis.columns, basis_w.columns)
        assert np.array_equal(basis.status, basis_w.status)


def assert_same_solution(got, want):
    """Two public solves agree bit for bit, basis included."""
    assert (got.status, got.objective, got.simplex_pivots) == (
        want.status,
        want.objective,
        want.simplex_pivots,
    )
    assert np.array_equal(got.assignment, want.assignment)
    assert np.array_equal(got.basis.columns, want.basis.columns)
    assert np.array_equal(got.basis.status, want.basis.status)


def cost_negated(model):
    """A copy of the model with every objective coefficient negated."""
    negated = copy.deepcopy(model)
    for vid, coef in enumerate(model.objective_vector()):
        negated.add_objective_term(vid, -2.0 * coef)
    return negated


def as_basis(state):
    """The plain basis of a solve's final state: a start for a solve under
    other bounds or costs, which a state itself may only serve when the
    two differ on basic variables' bounds alone."""
    return milp.Basis(state.columns, state.status)


def full_matrix(prepared):
    """The standard form ``[A | I_slack]`` of a prepared LP, built here,
    as an LP on the block route holds no dense copy."""
    return np.hstack((prepared.a, np.eye(prepared.m)))


@pytest.fixture(params=["whole", "block"])
def route(request):
    """LPs built under it invert bases as the crossover picks ("whole"
    below ``_BLOCK_ROWS`` rows), or all through the structural block."""
    with pytest.MonkeyPatch.context() as patch:
        if request.param == "block":
            patch.setattr(milp, "_BLOCK_ROWS", 0)
        yield request.param


def full_bounds(prepared, lo, up):
    """The bounds of every column of ``[A | I_slack]``: the structural
    ones given, then the slacks'."""
    return np.concatenate((lo, prepared.lo_tail)), np.concatenate((up, prepared.up_tail))


def dual_feasible(prepared, lo, up, basis):
    """Whether the basis's reduced costs have the sign its statuses ask
    for under these bounds (fixed columns excepted)."""
    c = prepared.c_phase2
    full = full_matrix(prepared)
    b_inv = np.linalg.inv(full[:, basis.columns])
    d = c - (c[basis.columns] @ b_inv) @ full
    lo, up = full_bounds(prepared, lo, up)
    movable = lo < up
    wrong = (
        ((basis.status == milp._AT_LOWER) & (d < -1e-9))
        | ((basis.status == milp._AT_UPPER) & (d > 1e-9))
        | ((basis.status == milp._FREE) & (np.abs(d) > 1e-9))
    )
    return not (movable & wrong).any()


def fixings(lo, up, j):
    """Variable j fixed at its upper and at its lower bound."""
    at_upper, at_lower = lo.copy(), up.copy()
    at_upper[j], at_lower[j] = up[j], lo[j]
    return [(at_upper, up), (lo, at_lower)]


def cost_shifted(model, rng, scale=0.5):
    """A copy of the model whose objective moved by normal noise; same rows."""
    shifted = copy.deepcopy(model)
    for vid in range(model.num_variables):
        shifted.add_objective_term(vid, float(scale * rng.normal()))
    return shifted


class TestReentrancy:
    def bound_sets(self, m):
        lo, up = m.bounds_arrays()
        lo_b, up_b = lo.copy(), up.copy()
        lo_b[m.variable_id("x")], up_b[m.variable_id("x")] = 3.0, 3.5
        return (lo, up), (lo_b, up_b)

    def interleave(self, monkeypatch, prepared, outer_args, inner_args, at="_exchange"):
        """Run one solve in the middle of another's first call of the
        method named ``at``: by default its first basis exchange, inside
        the first simplex loop that takes a step. The outer solve must
        make that call."""
        method = getattr(prepared, at)
        inner = []

        def interrupted(*args):
            if not inner:
                inner.append(None)
                inner[0] = prepared.solve(*inner_args)
            return method(*args)

        monkeypatch.setattr(prepared, at, interrupted)
        outer = prepared.solve(*outer_args)
        monkeypatch.undo()
        assert inner, f"the outer solve never called {at}"
        return outer, inner[0]

    def test_interleaved_solves_match_serial(self, monkeypatch, route):
        """A second solve runs in the middle of the first one's dual
        simplex, at its first basis exchange. Neither solve may leave
        anything of its own in the shared matrix."""
        m = mixed_rows_lp()
        (lo, up), (lo_b, up_b) = self.bound_sets(m)
        serial_a = milp._PreparedLP(m).solve(lo, up)
        serial_b = milp._PreparedLP(m).solve(lo_b, up_b)
        assert (serial_a[2], serial_b[2]) == pytest.approx((-2.0, -1.5), abs=1e-12)

        prepared = milp._PreparedLP(m)
        assert (prepared.a_full is None) == (route == "block")
        full_before = full_matrix(prepared)
        outer, inner = self.interleave(monkeypatch, prepared, (lo, up), (lo_b, up_b))
        assert_same_solve(outer, serial_a)
        assert_same_solve(inner, serial_b)
        assert np.array_equal(full_matrix(prepared), full_before)
        if route == "whole":
            assert np.array_equal(prepared.a_full, full_before)

    def test_warm_solve_inside_cold_solve_matches_serial(self, monkeypatch):
        """The inner solve starts from the optimal basis of a model with
        other costs on the same rows: feasible, not optimal here."""
        m = mixed_rows_lp()
        (lo, up), (lo_b, up_b) = self.bound_sets(m)
        other = mixed_rows_lp()
        other.add_objective_term(other.variable_id("y"), 4.0)
        start = as_basis(milp._PreparedLP(other).solve(lo, up)[4])
        serial_cold = milp._PreparedLP(m).solve(lo_b, up_b)
        serial_warm = milp._PreparedLP(m).solve(lo, up, start)
        assert serial_warm[3] == (0, 1)

        prepared = milp._PreparedLP(m)
        outer, inner = self.interleave(
            monkeypatch, prepared, (lo_b, up_b), (lo, up, start)
        )
        assert_same_solve(outer, serial_cold)
        assert_same_solve(inner, serial_warm)

    def test_warm_children_interleaved_match_serial(self, monkeypatch):
        """Both children of y (3 at the root optimum) start from the root's
        basis through the dual simplex: y <= 2 reaches -1 at (3, 2, 0),
        and y >= 4 has no point, since x = 1 + y + z <= 4. Each child
        solve runs inside the other, and inside a cold solve."""
        m = mixed_rows_lp()
        (lo, up), (lo_b, up_b) = self.bound_sets(m)
        y = m.variable_id("y")
        up_down, lo_up = up.copy(), lo.copy()
        up_down[y], lo_up[y] = 2.0, 4.0
        root = milp._PreparedLP(m).solve(lo, up)[4]
        down, up_child = (lo, up_down, root), (lo_up, up, root)
        serial_down = milp._PreparedLP(m).solve(*down)
        serial_up = milp._PreparedLP(m).solve(*up_child)
        assert serial_down[0] == "optimal" and serial_up[0] == "infeasible"
        assert serial_down[2] == pytest.approx(-1.0, abs=1e-12)
        # y leaves at the down child; at the up child row y has no entering
        # column, which proves it empty before any step
        assert serial_down[3][0] == 1 and serial_up[3][0] == 0
        serial_cold = milp._PreparedLP(m).solve(lo_b, up_b)

        for outer_args, inner_args, at, want in (
            (down, up_child, "_dual_simplex", (serial_down, serial_up)),
            (up_child, down, "_dual_simplex", (serial_up, serial_down)),
            ((lo_b, up_b), down, "_exchange", (serial_cold, serial_down)),
        ):
            prepared = milp._PreparedLP(m)
            outer, inner = self.interleave(
                monkeypatch, prepared, outer_args, inner_args, at
            )
            assert_same_solve(outer, want[0])
            assert_same_solve(inner, want[1])

    def test_returned_basis_is_not_aliased(self):
        """A solve never writes its start, and mutating a basis it returned
        changes no later solve."""
        m = mixed_rows_lp()
        (lo, up), (lo_b, up_b) = self.bound_sets(m)
        prepared = milp._PreparedLP(m)
        start = as_basis(prepared.solve(lo_b, up_b)[4])
        start_copy = copy.deepcopy(start)
        warm = prepared.solve(lo, up, start)
        want_warm = copy.deepcopy(warm)
        want_cold = copy.deepcopy(prepared.solve(lo, up))
        assert np.array_equal(start.columns, start_copy.columns)
        assert np.array_equal(start.status, start_copy.status)
        warm[4].columns[:] = 0
        warm[4].status[:] = milp._BASIC
        assert_same_solve(prepared.solve(lo, up, start), want_warm)
        assert_same_solve(prepared.solve(lo, up), want_cold)


class TestStartingPoint:
    @staticmethod
    def reference(lo, up, c):
        """The cold start as a loop over the variables."""
        status = np.empty(len(lo), dtype=np.int8)
        x = np.zeros(len(lo))
        for j in range(len(lo)):
            if lo[j] == -math.inf and up[j] == math.inf:
                status[j], x[j] = milp._FREE, 0.0
            elif lo[j] == -math.inf:
                status[j], x[j] = milp._AT_UPPER, up[j]
            elif up[j] == math.inf or c[j] > 0.0:
                status[j], x[j] = milp._AT_LOWER, lo[j]
            elif c[j] == 0.0 and abs(lo[j]) <= abs(up[j]):
                status[j], x[j] = milp._AT_LOWER, lo[j]
            else:
                status[j], x[j] = milp._AT_UPPER, up[j]
        return status, x

    def test_matches_reference_loop(self):
        """Random bounds with infinite sides and |lo| == |up| ties, under
        random costs of which about half are zero."""
        rng = np.random.default_rng(11)
        for _ in range(200):
            n = int(rng.integers(1, 30))
            a = rng.integers(-4, 5, size=n).astype(float)
            b = rng.integers(-4, 5, size=n).astype(float)
            a[rng.random(n) < 0.3] *= 0.37
            lo, up = np.minimum(a, b), np.maximum(a, b)
            ties = rng.random(n) < 0.2
            lo[ties], up[ties] = -np.abs(up[ties]), np.abs(up[ties])
            lo[rng.random(n) < 0.25] = -math.inf
            up[rng.random(n) < 0.25] = math.inf
            c = rng.integers(-2, 3, size=n).astype(float)
            c[rng.random(n) < 0.3] = 0.0
            status, x = milp._starting_point(lo, up, c)
            want_status, want_x = self.reference(lo, up, c)
            assert status.dtype == np.int8
            assert np.array_equal(status, want_status)
            assert np.array_equal(x, want_x)
            assert not np.signbit(x[status == milp._FREE]).any()


class TestStartBasis:
    """Warm against cold on the first 50 models of acceptance gate 3."""

    MODELS = workloads.gate3_models(50)

    def test_restart_after_cost_change_matches_cold(self):
        rng = np.random.default_rng(5)
        cold_dual_steps = 0
        for i, model in enumerate(self.MODELS):
            first = solve_lp_relaxation(model)
            if first.status != "optimal":
                continue
            shifted = cost_shifted(model, rng)
            warm = solve_lp_relaxation(shifted, start_basis=first.basis)
            cold = solve_lp_relaxation(shifted)
            assert warm.status == cold.status == "optimal"
            assert warm.objective == pytest.approx(cold.objective, abs=1e-9, rel=0)
            assert warm.simplex_pivots[0] == 0
            cold_dual_steps += cold.simplex_pivots[0] > 0
            if i >= 20:  # branch and bound on the rest would take seconds
                continue
            # the exact solve takes the start at its root and agrees too
            exact_warm = solve_exact(shifted, start_basis=first.basis)
            exact_cold = solve_exact(shifted)
            assert exact_warm.status == exact_cold.status
            assert exact_warm.objective == pytest.approx(
                exact_cold.objective, abs=1e-9, rel=0
            )
        assert cold_dual_steps >= 20

    def test_unfit_starts_fall_back_to_cold(self, bundled_instance, route):
        """A wrong-size basis and a singular one: each solve is the cold
        one. The singular start has a slack on every row but one, and in
        that row's place a structural that is 0 on it. The bundled SIP is
        the last model; its 224 rows take the block route, where that
        structural and that row make a 1 x 1 block of 0."""
        checked = {"size": 0, "singular": 0}
        bundled = build_phase2_sip(bundled_instance).model
        for model in [*self.MODELS, bundled]:
            prepared = milp._PreparedLP(model)
            if model is bundled:
                assert prepared.a_full is None
            lo, up = model.bounds_arrays()
            status, _, _, _, basis = prepared.solve(lo, up)
            if status != "optimal":
                continue
            m, n = prepared.m, prepared.n

            # the public entry points check a caller's start once
            wrong_size = milp.Basis(basis.columns, np.append(basis.status, milp._AT_LOWER))
            assert prepared.checked(wrong_size) is None
            assert_same_solution(
                solve_lp_relaxation(model, start_basis=wrong_size),
                solve_lp_relaxation(model),
            )
            checked["size"] += 1

            zeros = np.argwhere(prepared.a == 0.0)
            if zeros.size:
                row, j = zeros[0]
                columns = np.array([j if i == row else n + i for i in range(m)])
                singular = np.full(n + m, milp._AT_LOWER, dtype=np.int8)
                singular[columns] = milp._BASIC
                assert np.linalg.matrix_rank(full_matrix(prepared)[:, columns]) < m
                with pytest.raises(SolverError, match="singular"):
                    prepared._factor(columns, np.zeros(n + m), np.empty((m, m)))
                start = milp.Basis(columns, singular)
                assert_same_solve(prepared.solve(lo, up, start), prepared.solve(lo, up))
                checked["singular"] += 1
        assert min(checked.values()) >= 10, checked

    def test_unfit_marks_fall_back_to_cold(self):
        """A start that marks a variable at an infinite bound, or marks a
        variable with a finite bound free, puts no nonbasic variable at a
        bound of this LP: the solve is the cold one."""
        m = mixed_rows_lp()
        prepared = milp._PreparedLP(m)
        lo, up = m.bounds_arrays()
        basis = prepared.solve(lo, up)[4]
        z = m.variable_id("z")
        assert basis.status[z] == milp._AT_LOWER
        lo_open = lo.copy()
        lo_open[z] = -math.inf
        for marked, lo_b in ((milp._AT_LOWER, lo_open), (milp._FREE, lo)):
            status = basis.status.copy()
            status[z] = marked
            start = milp.Basis(basis.columns, status)
            assert prepared._restart(start, *full_bounds(prepared, lo_b, up)) is None
            assert_same_solve(prepared.solve(lo_b, up, start), prepared.solve(lo_b, up))

    def test_start_neither_primal_nor_dual_feasible_shifts_costs(
        self, bundled_instance, monkeypatch, route
    ):
        """The optimal basis of a parent under negated costs at a child is
        neither primal nor dual feasible there. The solve does not start
        cold: the dual simplex runs on shifted costs, and primal phase 2
        restores the true ones. Status and objective (to 1e-9) are the
        cold solve's."""
        crashes = []
        crash = milp._PreparedLP._crash
        monkeypatch.setattr(
            milp._PreparedLP,
            "_crash",
            lambda self, *args: crashes.append(None) or crash(self, *args),
        )
        checked = 0
        for model in [*self.MODELS, build_phase2_sip(bundled_instance).model]:
            lo, up = model.bounds_arrays()
            status, x, _, _, basis = milp._PreparedLP(model).solve(lo, up)
            frac = np.abs(x - np.round(x)) > 1e-6 if status == "optimal" else []
            if not np.any(frac):
                continue
            j = int(np.flatnonzero(frac)[0])
            up_child = up.copy()
            up_child[j] = math.floor(x[j])
            negated = milp._PreparedLP(cost_negated(model))
            if dual_feasible(negated, lo, up_child, basis):
                continue
            crashes.clear()
            warm = negated.solve(lo, up_child, as_basis(basis))
            assert crashes == []
            cold = negated.solve(lo, up_child)
            assert warm[0] == cold[0]
            if cold[0] == "optimal":
                assert warm[2] == pytest.approx(cold[2], abs=1e-9, rel=0)
            checked += 1
        assert checked >= 10

    def test_warm_child_matches_cold_child(self, monkeypatch):
        """The parent's optimal basis at a child with one tightened bound:
        the dual simplex restores feasibility, so the solve never starts
        cold, and it agrees with the cold one on status and objective."""
        crashes = []
        crash = milp._PreparedLP._crash

        def counted(self, lo, up):
            crashes.append(None)
            return crash(self, lo, up)

        monkeypatch.setattr(milp._PreparedLP, "_crash", counted)
        children = 0
        for model in self.MODELS:
            prepared = milp._PreparedLP(model)
            lo, up = model.bounds_arrays()
            status, x, _, _, basis = prepared.solve(lo, up)
            frac = np.abs(x - np.round(x)) > 1e-6 if status == "optimal" else []
            if not np.any(frac):
                continue
            j = int(np.flatnonzero(frac)[0])
            up_child = up.copy()
            up_child[j] = math.floor(x[j])
            crashes.clear()
            warm = prepared.solve(lo, up_child, basis)
            assert crashes == []
            cold = prepared.solve(lo, up_child)
            assert crashes == [None]
            assert warm[0] == cold[0]
            if cold[0] == "optimal":
                assert warm[2] == pytest.approx(cold[2], abs=1e-9, rel=0)
            children += 1
        assert children >= 20

    def test_children_of_every_root_match_cold(self):
        """Warm against cold at every child of every root: the floor and
        the ceil child of each fractional variable, and one fixing of a
        variable at a bound that leaves the rows no point, where the dual
        simplex's row proof must agree with the cold solve. The dual ratio
        test keeps the reduced costs' signs, so the primal phase-2 check
        after it takes no step."""
        seen = {"optimal": 0, "infeasible": 0, "empty": 0}
        for model in self.MODELS:
            prepared = milp._PreparedLP(model)
            lo, up = model.bounds_arrays()
            status, x, _, _, basis = prepared.solve(lo, up)
            if status != "optimal":
                continue
            children = []
            for j in np.flatnonzero(np.abs(x - np.round(x)) > 1e-6):
                up_down, lo_up = up.copy(), lo.copy()
                up_down[j], lo_up[j] = math.floor(x[j]), math.ceil(x[j])
                children += [(lo, up_down), (lo_up, up)]
            empty = next(
                (
                    child
                    for j in range(prepared.n)
                    for child in fixings(lo, up, j)
                    if prepared.solve(*child)[0] == "infeasible"
                ),
                None,
            )
            starts = [basis] * len(children)
            if empty is not None:
                # the fixed variable may be nonbasic: restart the basis
                children.append(empty)
                starts.append(as_basis(basis))
                seen["empty"] += 1
            for child, start in zip(children, starts):
                warm = prepared.solve(*child, start)
                cold = prepared.solve(*child)
                assert warm[0] == cold[0]
                seen[cold[0]] += 1
                if cold[0] == "optimal":
                    assert warm[2] == pytest.approx(cold[2], abs=1e-9, rel=0)
                    assert warm[3][1] == 0
        assert min(seen.values()) >= 10, seen


def same_value(got, want) -> bool:
    """Bit-identical arrays (or lists of them), or equal other values."""
    if isinstance(want, np.ndarray):
        return (
            isinstance(got, np.ndarray)
            and (got.shape, got.dtype) == (want.shape, want.dtype)
            and got.tobytes() == want.tobytes()
        )
    if isinstance(want, list):
        return len(got) == len(want) and all(map(same_value, got, want))
    return got == want


def first_children(models):
    """(prepared LP, bounds, root state, down child's bounds) of each
    model whose root LP is fractional, the down child of its first
    fractional variable."""
    for model in models:
        prepared = milp._PreparedLP(model)
        lo, up = model.bounds_arrays()
        status, x, _, _, state = prepared.solve(lo, up)
        frac = np.abs(x - np.round(x)) > 1e-6 if status == "optimal" else []
        if np.any(frac):
            j = int(np.flatnonzero(frac)[0])
            up_down = up.copy()
            up_down[j] = math.floor(x[j])
            yield prepared, (lo, up), state, (lo, up_down)


class TestResume:
    """A child node resumes from its parent's final simplex state: the
    basis, point and reduced costs, and ``B^-1`` below ``_BLOCK_ROWS``
    rows."""

    def test_matches_restart_on_gate3(self, monkeypatch, route):
        """With every resume replaced by a restart of the state's basis,
        the first 60 gate-3 models end with the same status, objective
        (to 1e-9) and node count."""
        models = workloads.gate3_models(60)
        resumes = []
        resume = milp._PreparedLP._resume
        with monkeypatch.context() as patch:
            patch.setattr(
                milp._PreparedLP,
                "_resume",
                lambda self, state, *args: resumes.append(state) or resume(self, state, *args),
            )
            resumed = [solve_exact(model) for model in models]
            patch.setattr(
                milp._PreparedLP,
                "_resume",
                lambda self, state, lo, up: self._restart(state, lo, up),
            )
            restarted = [solve_exact(model) for model in models]
        assert len(resumes) >= 7_000
        assert all((state.b_inv is None) == (route == "block") for state in resumes)
        for got, want in zip(resumed, restarted):
            assert (got.status, got.nodes_explored) == (want.status, want.nodes_explored)
            if want.status == "optimal":
                assert got.objective == pytest.approx(want.objective, abs=1e-9, rel=0)

    def test_child_leaves_parent_state_untouched(self, route):
        """Siblings share their parent's state: solving the first child
        leaves every array of it bit-identical."""
        checked = 0
        for prepared, _, state, child in first_children(workloads.gate3_models(50)):
            before = copy.deepcopy(state)
            assert (before.b_inv is None) == (route == "block")
            assert prepared.solve(*child, state)[0] in ("optimal", "infeasible")
            assert all(same_value(getattr(state, k), v) for k, v in vars(before).items())
            checked += 1
        assert checked >= 20

    def test_refactors_once_the_age_reaches_the_limit(self, monkeypatch):
        """A resume inverts no basis while the state's ``B^-1`` is younger
        than ``_REFACTOR_EVERY`` steps, and inverts it once at that age;
        the child's state counts its steps from the last inversion."""
        factors = []
        factor = milp._PreparedLP._factor
        monkeypatch.setattr(
            milp._PreparedLP,
            "_factor",
            lambda self, *args: factors.append(None) or factor(self, *args),
        )
        limit = milp._REFACTOR_EVERY
        checked = 0
        for prepared, _, state, child in first_children(workloads.gate3_models(50)):
            for age, inversions in ((limit - 1, 0), (limit, 1)):
                factors.clear()
                status, _, _, steps, child_state = prepared.solve(
                    *child, dataclasses.replace(state, age=age)
                )
                assert len(factors) == inversions
                if status == "optimal":
                    assert child_state.age == (age if inversions == 0 else 0) + sum(steps)
                    checked += 1
        assert checked >= 20

    def test_no_z4_state_holds_a_square_inverse(self, bundled_instance, monkeypatch):
        """The z = 4 point's 314 rows take the block route, where an
        inverse kept per open node would take m^2 values each."""
        z4 = build_phase2_sip(z4_point(bundled_instance))
        prepared, states = TestBlockFactor.optimal_bases(
            z4.model, monkeypatch, warm_start=_phase2_warm_start(z4)
        )
        m = prepared.m
        assert m >= milp._BLOCK_ROWS and len(states) >= 100
        for state in states:
            assert state.b_inv is None
            assert all(
                getattr(value, "shape", None) != (m, m) for value in vars(state).values()
            )

    def test_carried_state_matches_a_fresh_one(self, bundled_instance, monkeypatch):
        """At every node of the first 60 gate-3 models and of the z = 4
        tree, the final state's masks are those its bounds and statuses
        give, and its reduced costs, carried from step to step and from
        parent to child, agree to 1e-9 (1 + max|c|) with the basis priced
        afresh from a new factorization. A start that the resume will
        factor again (every z = 4 child) has its reduced costs spoilt by
        1e-6 first: the fresh pricing that comes with the factorization
        must clear them."""
        solves = []
        solve = milp._PreparedLP.solve

        def recorded(self, lo, up, start=None):
            if isinstance(start, milp._State) and (
                start.b_inv is None or start.age >= milp._REFACTOR_EVERY
            ):
                start = dataclasses.replace(start, d=start.d + 1e-6)
            result = solve(self, lo, up, start)
            solves.append((self, lo, up, result[4]))
            return result

        monkeypatch.setattr(milp._PreparedLP, "solve", recorded)
        for model in workloads.gate3_models(60):
            solve_exact(model)
        z4 = build_phase2_sip(z4_point(bundled_instance))
        solve_exact(z4.model, warm_start=_phase2_warm_start(z4))
        checked = {"whole": 0, "block": 0}
        for prepared, lo_struct, up_struct, state in solves:
            if state is None:
                continue
            m = prepared.m
            lo, up = full_bounds(prepared, lo_struct, up_struct)
            movable, status = lo < up, state.status
            free = status == milp._FREE
            assert np.array_equal(
                state.can_rise, movable & ((status == milp._AT_LOWER) | free)
            )
            assert np.array_equal(
                state.can_fall, movable & ((status == milp._AT_UPPER) | free)
            )
            c = prepared.c_phase2
            b_inv = np.empty((m, m))
            prepared._factor(state.columns, state.x.copy(), b_inv)
            fresh = c - (c[state.columns] @ b_inv) @ full_matrix(prepared)
            assert np.abs(state.d - fresh).max() <= 1e-9 * (1.0 + np.abs(c).max())
            checked["whole" if prepared.a_full is not None else "block"] += 1
        assert checked["whole"] >= 4_000 and checked["block"] >= 100, checked

    def test_solve_exact_leaves_the_prepared_lp_unchanged(self, monkeypatch):
        """Every attribute of a prepared LP after ``solve_exact`` is what its
        constructor made: nothing of a solve is kept there, so solves of
        one prepared LP may interleave."""
        made = []
        init = milp._PreparedLP.__init__

        def recorded(self, model):
            init(self, model)
            made.append((self, copy.deepcopy(vars(self))))

        monkeypatch.setattr(milp._PreparedLP, "__init__", recorded)
        for model in workloads.gate3_models(10):
            solve_exact(model)
        assert len(made) == 10
        for prepared, before in made:
            after = vars(prepared)
            assert after.keys() == before.keys()
            assert all(same_value(after[k], v) for k, v in before.items())


class TestBlockFactor:
    """LPs of ``_BLOCK_ROWS`` rows or more invert a basis through the
    block of its structural columns on the rows no unit column covers."""

    @staticmethod
    def optimal_bases(model, monkeypatch, **solve_kw):
        """The prepared LP of ``model`` and the optimal basis of every
        node LP that ``solve_exact`` solves on it."""
        solves = []
        solve = milp._PreparedLP.solve

        def recorded(self, *args):
            result = solve(self, *args)
            solves.append((self, result[4]))
            return result

        with monkeypatch.context() as patch:
            patch.setattr(milp._PreparedLP, "solve", recorded)
            solve_exact(model, **solve_kw)
        return solves[0][0], [basis for _, basis in solves if basis is not None]

    def test_inverse_matches_numpy(self, bundled_instance, monkeypatch):
        """At the bundled SIP's and DIP's optimal roots and at every node
        of the z = 4 tree, ``B^-1`` and the basic values match numpy's
        inverse of the assembled basis matrix to 1e-12 relative."""
        z4 = build_phase2_sip(z4_point(bundled_instance))
        cases = [
            (build_phase2_sip(bundled_instance).model, {}),
            (
                build_phase2_dip(
                    bundled_instance, *_mean_demand_and_shortfall(bundled_instance)
                ).model,
                {},
            ),
            (z4.model, {"warm_start": _phase2_warm_start(z4)}),
        ]
        checked = []
        for model, solve_kw in cases:
            prepared, bases = self.optimal_bases(model, monkeypatch, **solve_kw)
            assert prepared.m >= milp._BLOCK_ROWS and prepared.a_full is None
            full = full_matrix(prepared)
            point = np.random.default_rng(len(checked)).normal(size=full.shape[1])
            assert np.allclose(prepared._rows(point), full @ point, rtol=1e-12, atol=1e-12)
            for basis in bases:
                # nonbasic slacks sit at 0, their finite bound
                x = np.zeros(prepared.n + prepared.m)
                lo, up = model.bounds_arrays()
                status = basis.status[: prepared.n]
                x[: prepared.n] = np.where(
                    status == milp._AT_LOWER, lo, np.where(status == milp._AT_UPPER, up, 0.0)
                )
                x[basis.columns] = 0.0
                want_x = x.copy()
                b_inv = np.empty((prepared.m, prepared.m))
                prepared._factor(basis.columns, x, b_inv)
                want = np.linalg.inv(full[:, basis.columns])
                assert np.abs(b_inv - want).max() <= 1e-12 * np.abs(want).max()
                want_x[basis.columns] = want @ (prepared.b - full @ want_x)
                assert np.abs(x - want_x).max() <= 1e-12 * max(1.0, np.abs(want_x).max())
            checked.append(len(bases))
        assert checked[:2] == [1, 1] and checked[2] >= 100, checked

    @pytest.mark.parametrize(
        "build, rows, nodes, steps, objective, assignment_sha256",
        [
            (
                lambda bundled: workloads.gate3_models(3)[2],
                5,
                193,
                (168, 0),
                "-0x1.07df3b645a1cbp+2",
                "ed71818c47c0c367",
            ),
            (
                lambda bundled: build_phase2_sip(bundled).model,
                224,
                1,
                (92, 0),
                "0x1.1bdd100cab7c0p+7",
                "3bd0743d1596bc75",
            ),
        ],
        ids=["gate3-whole", "bundled-sip-block"],
    )
    def test_solves_pinned_on_both_sides(
        self, bundled_instance, build, rows, nodes, steps, objective, assignment_sha256
    ):
        """One model below the crossover and one above solve bit for bit
        as they did before the block route existed."""
        model = build(bundled_instance)
        assert model.num_constraints == rows
        sol = solve_exact(model)
        assert (sol.status, sol.nodes_explored, sol.simplex_pivots) == (
            "optimal",
            nodes,
            steps,
        )
        assert sol.objective.hex() == objective
        digest = hashlib.sha256(sol.assignment.tobytes()).hexdigest()
        assert digest[:16] == assignment_sha256

    def test_prepared_lp_holds_no_dense_standard_form(self, bundled_instance):
        """The arrays of the bundled SIP's prepared LP take ``A`` plus a
        few vectors of length m or n and the column nonzeros (16 values
        per row and column in all); the dense ``[A | I]`` alone would
        take m (n + m) values."""
        prepared = milp._PreparedLP(build_phase2_sip(bundled_instance).model)
        m, n = prepared.m, prepared.n
        arrays = []
        for value in vars(prepared).values():
            if isinstance(value, np.ndarray):
                arrays.append(value)
            elif isinstance(value, list):
                arrays.extend(value)
        assert all(array.shape != (m, n + m) for array in arrays)
        total = sum(array.nbytes for array in arrays)
        assert total <= prepared.a.nbytes + 16 * 8 * (m + n)


@st.composite
def mixed_lps(draw) -> IPModel:
    """1 to 6 continuous variables, each boxed (possibly fixed), free, or
    bounded on one side, and 1 to 5 rows of ``==``, ``<=`` and ``>=``
    with small integer data. Most rows are met by one drawn integer
    point; about one in four has a right-hand side drawn on its own, so
    infeasible LPs occur, and so do unbounded ones."""
    model = IPModel("drawn-lp")
    n = draw(st.integers(1, 6))
    point = []
    for j in range(n):
        low = draw(st.integers(-3, 2))
        high = low + draw(st.integers(0, 4))
        point.append(draw(st.integers(low, high)))
        kind = draw(st.sampled_from(["box", "free", "lower", "upper"]))
        lo = low if kind in ("box", "lower") else -math.inf
        up = high if kind in ("box", "upper") else math.inf
        model.add_variable(f"x{j}", lower=lo, upper=up)
        model.add_objective_term(j, float(draw(st.integers(-3, 3))))
    for _ in range(draw(st.integers(1, 5))):
        coefs = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
        sense = draw(st.sampled_from(["<=", ">=", "=="]))
        if draw(st.integers(0, 3)) == 0:
            rhs = draw(st.integers(-6, 6))
        else:
            gap = 0 if sense == "==" else draw(st.integers(0, 3))
            rhs = np.dot(coefs, point) + (gap if sense == "<=" else -gap)
        model.add_constraint(list(enumerate(map(float, coefs))), sense, float(rhs))
    return model


def half_bounded_lp(upper_row: bool):
    """min -x + y over x >= 0 (no upper bound) and y in [0, 3] with
    x + y >= 2, which the start x = y = 0 misses; with ``upper_row`` also
    x + y <= 5, so the optimum is -5, else the LP is unbounded. The cost
    of x points at its infinite bound, so the slack basis is not dual
    feasible."""
    m = IPModel("half-bounded")
    x, y = m.add_variable("x"), m.add_variable("y", upper=3.0)
    m.add_objective_term(x, -1.0)
    m.add_objective_term(y, 1.0)
    m.add_constraint([(x, 1.0), (y, 1.0)], ">=", 2.0)
    if upper_row:
        m.add_constraint([(x, 1.0), (y, 1.0)], "<=", 5.0)
    return m


def primal_feasible(prepared, lo, up, basis):
    """Whether the point the basis fixes meets every bound to 1e-9,
    solved with numpy."""
    lo, up = full_bounds(prepared, lo, up)
    x = np.where(basis.status == milp._AT_LOWER, lo, 0.0)
    x = np.where(basis.status == milp._AT_UPPER, up, x)
    full = full_matrix(prepared)
    x[basis.columns] = np.linalg.solve(full[:, basis.columns], prepared.b - full @ x)
    return bool((x >= lo - 1e-9).all() and (x <= up + 1e-9).all())


def mixed_start(model, rng, tries=10):
    """The optimal basis of the first of ``tries`` twins of the model
    that is neither primal nor dual feasible for it; None if no twin
    gives one. A twin has the model's costs moved by noise, every other
    twin's negated first, and right-hand sides that a random point in
    the bounds meets with equality, so it always has a point."""
    prepared = milp._PreparedLP(model)
    lo, up = model.bounds_arrays()
    for k in range(tries):
        twin = cost_shifted(cost_negated(model) if k % 2 else model, rng)
        point = np.clip(3.0 * rng.normal(size=prepared.n), lo, up)
        twin.constraints = [
            dataclasses.replace(con, rhs=float(row @ point))
            for con, row in zip(model.constraints, prepared.a)
        ]
        start = solve_lp_relaxation(twin).basis
        if not (
            start is None
            or primal_feasible(prepared, lo, up, start)
            or dual_feasible(prepared, lo, up, start)
        ):
            return start
    return None


class TestColdRoutes:
    """A cold solve starts at the all-slack basis through the dual
    simplex, on shifted costs when a cost points at an infinite bound.
    A restart from a basis that is neither primal nor dual feasible,
    the optimal one of a twin LP with other costs and right-hand sides,
    reaches feasibility the same way from another basis, always on
    shifted costs; the two must agree on status and objective."""

    @staticmethod
    def both_routes(model, start, monkeypatch):
        """The cold LP relaxation, and whether its dual simplex ran on
        shifted costs; then, unless ``start`` is None, the solve
        restarted from it, which must run the dual simplex on shifted
        costs, never start cold, and agree with the cold solve."""
        shifted, crashes = [], []
        dual, crash = milp._PreparedLP._dual_simplex, milp._PreparedLP._crash

        def spied(self, c, *args):
            shifted.append(not np.array_equal(c, self.c_phase2))
            return dual(self, c, *args)

        with monkeypatch.context() as patch:
            patch.setattr(milp._PreparedLP, "_dual_simplex", spied)
            patch.setattr(
                milp._PreparedLP,
                "_crash",
                lambda self, *args: crashes.append(None) or crash(self, *args),
            )
            cold = solve_lp_relaxation(model)
            assert crashes == [None] and len(shifted) == 1
            cold_shifted = shifted.pop()
            if start is None:
                return cold, cold_shifted, None
            restarted = solve_lp_relaxation(model, start_basis=start)
        assert crashes == [None] and shifted == [True]
        assert restarted.status == cold.status
        if cold.status == "optimal":
            assert restarted.objective == pytest.approx(cold.objective, abs=1e-9, rel=0)
        return cold, cold_shifted, restarted

    def test_gate3_roots(self, monkeypatch):
        """The root LPs of the first 60 gate-3 models, whose first 50 are
        ``TestStartBasis.MODELS``. Every cost sits on a boxed variable,
        so every cold root runs the dual simplex on the true costs."""
        rng = np.random.default_rng(7)
        seen = {"optimal": 0, "infeasible": 0, "restarted": 0}
        for model in workloads.gate3_models(60):
            start = mixed_start(model, rng)
            cold, cold_shifted, _ = self.both_routes(model, start, monkeypatch)
            assert not cold_shifted
            seen[cold.status] += 1
            seen["restarted"] += start is not None
        assert min(seen.values()) >= 1 and seen["restarted"] >= 20, seen

    def test_bundled_roots(self, bundled_instance, monkeypatch):
        """The bundled SIP and DIP roots take the dual simplex on the true
        costs and no phase-2 step; restarted on shifted costs, phase 2
        takes steps to restore the true ones."""
        rng = np.random.default_rng(8)
        for model in (
            build_phase2_sip(bundled_instance).model,
            build_phase2_dip(
                bundled_instance, *_mean_demand_and_shortfall(bundled_instance)
            ).model,
        ):
            start = mixed_start(model, rng)
            cold, cold_shifted, restarted = self.both_routes(model, start, monkeypatch)
            assert not cold_shifted and cold.status == "optimal"
            assert cold.simplex_pivots[1] == 0 < restarted.simplex_pivots[1]

    def test_infeasible_lp(self, monkeypatch):
        """x in [0, 1] with x >= 2: the cold dual simplex proves the row
        empty on the true costs, and so does the restart on shifted ones
        from x at its upper bound, where its cost prices out."""
        m = IPModel("infeasible")
        x = m.add_variable("x", upper=1.0)
        m.add_objective_term(x, 1.0)
        m.add_constraint([(x, 1.0)], ">=", 2.0)
        start = milp.Basis(np.array([1]), np.array([milp._AT_UPPER, milp._BASIC], dtype=np.int8))
        cold, cold_shifted, _ = self.both_routes(m, start, monkeypatch)
        assert not cold_shifted and cold.status == "infeasible"

    @pytest.mark.parametrize(
        "upper_row, status", [(True, "optimal"), (False, "unbounded")]
    )
    def test_cost_toward_infinite_bound_shifts_costs(self, monkeypatch, upper_row, status):
        """The cost of x points at its infinite bound: the cold dual
        simplex runs on shifted costs, and primal phase 2 under the true
        ones finds the optimum -5, or the ray without the upper row."""
        cold, cold_shifted, _ = self.both_routes(half_bounded_lp(upper_row), None, monkeypatch)
        assert cold_shifted
        assert cold.status == status
        assert cold.simplex_pivots[0] > 0
        if status == "optimal":
            assert cold.objective == pytest.approx(-5.0, abs=1e-12)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(mixed_lps(), st.integers(0, 2**32 - 1))
    def test_drawn_lps(self, model, seed):
        """Drawn LPs, infeasible and unbounded ones among them, restarted
        from a ``mixed_start`` wherever there is one."""
        start = mixed_start(model, np.random.default_rng(seed))
        with pytest.MonkeyPatch.context() as patch:
            self.both_routes(model, start, patch)


class TestCertificate:
    @pytest.fixture
    def violating_lp(self, monkeypatch):
        """Every LP solve returns all items picked, 10 over capacity."""

        def solve(self, lo, up, start=None):
            return "optimal", np.ones(3), -280.0, (0, 0), None

        monkeypatch.setattr(milp._PreparedLP, "solve", solve)

    def test_lp_relaxation_refuses_violating_point(self, violating_lp):
        with pytest.raises(SolverError, match="violates a row by 10"):
            solve_lp_relaxation(knapsack_model()[0])

    def test_exact_refuses_violating_incumbent(self, violating_lp):
        with pytest.raises(SolverError, match="violates a row by 10"):
            solve_exact(knapsack_model()[0])

    @staticmethod
    def drift_phase2(monkeypatch, shift):
        """The closing point of the knapsack LP, which the dual simplex
        reaches with the first item at its upper bound 1 and no column
        pricing out, leaves that item off by ``shift``. Returns the
        point it moved, once the solve has run."""
        dual = milp._PreparedLP._dual_simplex
        moved = []

        def drifted(self, *args):
            result = dual(self, *args)
            if result is not None and result[1] is not None:
                x = result[1][2]
                x[0] += shift
                moved.append(x)
            return result

        monkeypatch.setattr(milp._PreparedLP, "_dual_simplex", drifted)
        return moved

    @pytest.mark.parametrize(
        "shift, match",
        [(0.5, "by 0.5"), (-1.25, "by 0.25"), (math.nan, "by nan")],
        ids=["above", "below", "nan"],
    )
    def test_lp_refuses_point_outside_bounds(self, monkeypatch, shift, match):
        """The solve refuses the point rather than clip it into the bounds."""
        moved = self.drift_phase2(monkeypatch, shift)
        with pytest.raises(SolverError, match="misses a bound " + match):
            solve_lp_relaxation(knapsack_model()[0])
        assert len(moved) == 1

    def test_roundoff_outside_bounds_is_clipped(self, monkeypatch):
        moved = self.drift_phase2(monkeypatch, 1e-7)
        assert solve_lp_relaxation(knapsack_model()[0]).assignment[0] == 1.0
        assert len(moved) == 1 and moved[0][0] == 1.0 + 1e-7

    @pytest.mark.parametrize("first", [True, False], ids=["first-row", "last-row"])
    @pytest.mark.parametrize("sense", ["<=", ">=", "=="])
    def test_nan_residual_is_a_violation(self, sense, first):
        """A NaN entry makes its row's residual NaN, which no tolerance
        accepts, whether that row comes before or after one that holds."""
        m = IPModel("nan-row")
        a, b = m.add_variable("a"), m.add_variable("b")
        rows = [([(a, 1.0), (b, 1.0)], sense, 1.0), ([(b, 1.0)], ">=", 0.0)]
        for row in rows if first else rows[::-1]:
            m.add_constraint(*row)
        x = np.array([math.nan, 0.0])
        assert not m.max_violation(x) <= 1e-6
        with pytest.raises(SolverError, match="violates a row by nan"):
            milp._certify(m, x)


def reference_max_violation(model: IPModel, x: np.ndarray) -> float:
    """``IPModel.max_violation`` as a loop over the rows, one dot product
    each, that returns at the first NaN residual."""
    worst = 0.0
    for con in model.constraints:
        lhs = float(np.dot(np.asarray(con.coefs), x[list(con.ids)]))
        if con.sense == "<=":
            residual = lhs - con.rhs
        elif con.sense == ">=":
            residual = con.rhs - lhs
        else:
            residual = abs(lhs - con.rhs)
        if math.isnan(residual):
            return residual
        worst = max(worst, residual)
    return worst


class TestMaxViolation:
    def test_row_added_after_a_solve_binds(self, monkeypatch):
        """The flat rows are built once per model, and again after
        ``add_constraint``: a row added after a solve binds the next solve
        and ``max_violation``."""
        builds = []
        fromiter = np.fromiter
        monkeypatch.setattr(
            milp.np, "fromiter", lambda *args: builds.append(None) or fromiter(*args)
        )
        m, ids = knapsack_model()
        first = solve_exact(m, warm_start=np.array([1.0, 1.0, 0.0]))
        assert first.objective == -220.0 and len(builds) == 2  # ids and coefficients
        m.add_constraint([(ids[2], 1.0)], "<=", 0.0)
        assert m.max_violation(first.assignment) == 1.0
        second = solve_exact(m)
        assert (second.objective, second.assignment.tolist()) == (-160.0, [1.0, 1.0, 0.0])
        assert len(builds) == 4

    def test_matches_reference_loop(self, bundled_instance):
        """Random points, some near and some far from feasible, on gate-3
        models, the bundled SIP and DIP, and a model with no rows. The
        sums run in another order, so they agree to 1e-12 relative."""
        no_rows = IPModel("no-rows")
        no_rows.add_variable("x")
        models = [
            *workloads.gate3_models(40),
            build_phase2_sip(bundled_instance).model,
            build_phase2_dip(
                bundled_instance, *_mean_demand_and_shortfall(bundled_instance)
            ).model,
            no_rows,
        ]
        rng = np.random.default_rng(3)
        for model in models:
            lo, up = model.bounds_arrays()
            lo, up = np.maximum(lo, -1e3), np.minimum(up, 1e3)
            for scale in (0.0, 1e-3, 1.0):
                x = np.clip(rng.uniform(lo, up) * scale, lo, up)
                got, want = model.max_violation(x), reference_max_violation(model, x)
                assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), model.name
        assert no_rows.max_violation(np.array([math.nan])) == 0.0


class TestOptimalBasis:
    """The optimal basis a solve returns, checked with numpy's own
    solves on [A | I_slack] rather than the kernel's B^-1, so the
    slacks' reduced costs and the unit entering columns are checked
    without the kernel's arithmetic."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(mixed_lps())
    def test_basis_is_primal_and_dual_feasible(self, model):
        sol = solve_lp_relaxation(model)
        if sol.status != "optimal":
            return
        a, b, senses = model.constraint_matrix()
        m, n = a.shape
        full = np.hstack((a, np.eye(m)))
        lo_x, up_x = model.bounds_arrays()
        slack_lo = [-math.inf if sense == ">=" else 0.0 for sense in senses]
        slack_up = [math.inf if sense == "<=" else 0.0 for sense in senses]
        lo = np.concatenate((lo_x, slack_lo))
        up = np.concatenate((up_x, slack_up))
        columns, status = sol.basis.columns, sol.basis.status
        nonbasic = status != milp._BASIC
        x = np.where(status == milp._AT_LOWER, lo, 0.0)
        x = np.where(status == milp._AT_UPPER, up, x)
        assert np.isfinite(x).all()
        x[columns] = np.linalg.solve(full[:, columns], b - full @ x)
        assert (x >= lo - 1e-9).all() and (x <= up + 1e-9).all()
        assert np.allclose(x[:n], sol.assignment, rtol=0.0, atol=1e-9)

        c = np.concatenate((model.objective_vector(), np.zeros(m)))
        d = c - np.linalg.solve(full[:, columns].T, c[columns]) @ full
        # a fixed column (an == row's slack) may price either way
        free_to_move = nonbasic & (lo < up)
        at_lower = free_to_move & (status == milp._AT_LOWER)
        at_upper = free_to_move & (status == milp._AT_UPPER)
        free = free_to_move & (status == milp._FREE)
        assert (d[at_lower] >= -1e-9).all()
        assert (d[at_upper] <= 1e-9).all()
        assert (np.abs(d[free]) <= 1e-9).all()


class TestNodeLimit:
    def fractional_root_model(self):
        """Root LP splits every binary in half, so one node cannot finish."""
        m = IPModel()
        ids = [m.add_variable(f"b[{i}]", kind=BINARY) for i in range(6)]
        for i in range(0, 6, 2):
            m.add_constraint([(ids[i], 1.0), (ids[i + 1], 1.0)], "<=", 1.0)
        for i, vid in enumerate(ids):
            m.add_objective_term(vid, -(1.0 + 0.01 * i))
        m.add_constraint([(vid, 1.0) for vid in ids], "<=", 2.5)
        return m

    def test_truncation_status(self):
        m = self.fractional_root_model()
        full = solve_exact(m)
        assert full.status == "optimal"
        cut = solve_exact(m, node_limit=1)
        assert cut.status == "node_limit"
        assert cut.nodes_explored == 1

    @pytest.mark.parametrize("limit", [0, -3])
    def test_rejects_limit_below_one(self, limit):
        with pytest.raises(ValueError, match="node_limit must be at least 1"):
            solve_exact(self.fractional_root_model(), node_limit=limit)

    def test_budget_large_enough_is_optimal(self):
        m = self.fractional_root_model()
        sol = solve_exact(m, node_limit=10_000)
        assert sol.status == "optimal"

    LIMITS = (1, 2, 3, 4, 5, 7, 10, 15, 25, 40)
    # sha256 of repr() of the 600 results below, each (status,
    # objective.hex() or None, nodes, entering steps); pinned before the
    # branch-and-bound loop was flattened into one loop, as budgets that
    # run out mid-dive or mid-heap must end the same way; re-pinned when
    # cold LPs moved to the dual simplex start, which left every status,
    # objective and node count as it was and changed only the steps
    EXITS_SHA256 = "e3d9880de9f775f310cb50ff2c38a82ac87054acb80227decc860b06f73cc4d7"

    def test_exits_pinned(self):
        results = []
        for model in workloads.gate3_models(60):
            for limit in self.LIMITS:
                sol = solve_exact(model, node_limit=limit)
                objective = None if sol.objective is None else sol.objective.hex()
                results.append(
                    (sol.status, objective, sol.nodes_explored, sol.simplex_pivots)
                )
        assert sum(status == "node_limit" for status, *_ in results) == 313
        assert hashlib.sha256(repr(results).encode()).hexdigest() == self.EXITS_SHA256


class TestWarmStart:
    def test_optimal_warm_start_prunes_to_root(self):
        m, _ = knapsack_model()
        warm = np.array([0.0, 1.0, 1.0])
        sol = solve_exact(m, warm_start=warm)
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(-220.0)

    def test_suboptimal_warm_start_still_exact(self):
        m, _ = knapsack_model()
        warm = np.array([1.0, 0.0, 0.0])
        sol = solve_exact(m, warm_start=warm)
        assert sol.objective == pytest.approx(-220.0)

    def test_rejects_wrong_shape(self):
        m, _ = knapsack_model()
        with pytest.raises(ValueError, match="shape"):
            solve_exact(m, warm_start=np.zeros(5))

    def test_rejects_fractional_values(self):
        m, _ = knapsack_model()
        with pytest.raises(ValueError, match="non-integer"):
            solve_exact(m, warm_start=np.array([0.5, 0.0, 0.0]))

    def test_rejects_bound_violation(self):
        m, _ = knapsack_model()
        with pytest.raises(ValueError, match="bounds"):
            solve_exact(m, warm_start=np.array([2.0, 0.0, 0.0]))

    def test_rejects_infeasible_point(self):
        m, _ = knapsack_model()
        with pytest.raises(ValueError, match="constraints"):
            solve_exact(m, warm_start=np.array([1.0, 1.0, 1.0]))

    def test_rejects_non_finite_values(self):
        m, _ = knapsack_model()
        with pytest.raises(ValueError, match="non-finite"):
            solve_exact(m, warm_start=np.array([math.nan, 0.0, 0.0]))

    def test_checked_on_lp_only_models(self):
        m = IPModel()
        x = m.add_variable("x", lower=0.0, upper=10.0)
        m.add_constraint([(x, 1.0)], "<=", 1.0)
        m.add_objective_term(x, -1.0)
        with pytest.raises(ValueError, match="constraints"):
            solve_exact(m, warm_start=np.array([5.0]))
        with pytest.raises(ValueError, match="shape"):
            solve_exact(m, warm_start=np.zeros(2))
        sol = solve_exact(m, warm_start=np.array([0.5]))
        assert sol.status == "optimal" and sol.objective == pytest.approx(-1.0)


class TestEnumerateOracle:
    def test_rejects_continuous(self):
        m = IPModel()
        m.add_variable("x", kind=CONTINUOUS, upper=1.0)
        with pytest.raises(ValueError, match="all-integer"):
            solve_enumerate(m)

    def test_rejects_oversized_space(self):
        m = IPModel()
        m.add_variable("x", kind=INTEGER, upper=2_000_000.0)
        with pytest.raises(ValueError, match="cap"):
            solve_enumerate(m)

    def test_rejects_unbounded_variable(self):
        m = IPModel()
        m.add_variable("x", kind=INTEGER)
        with pytest.raises(ValueError, match="finite"):
            solve_enumerate(m)

    def test_matches_exact_on_knapsack(self):
        m, _ = knapsack_model()
        a, b = solve_exact(m), solve_enumerate(m)
        assert a.objective == pytest.approx(b.objective, abs=1e-9)


def reference_enumerate(model: IPModel) -> tuple[str, float | None, np.ndarray | None]:
    """Plain loop over ``itertools.product`` in lexicographic order, one
    dot product per row; a later point must be strictly better, so ties
    go to the lexicographically smallest assignment."""
    a, b, senses = model.constraint_matrix()
    c = model.objective_vector()
    axes = [range(math.ceil(v.lower), math.floor(v.upper) + 1) for v in model.variables]
    holds = {
        "<=": lambda lhs, rhs: lhs <= rhs + 1e-9,
        ">=": lambda lhs, rhs: lhs >= rhs - 1e-9,
        "==": lambda lhs, rhs: abs(lhs - rhs) <= 1e-9,
    }
    best_obj, best_x = math.inf, None
    for point in itertools.product(*axes):
        x = np.array(point, dtype=float)
        if all(holds[sense](float(row @ x), rhs) for row, rhs, sense in zip(a, b, senses)):
            obj = float(c @ x)
            if obj < best_obj:
                best_obj, best_x = obj, x
    if best_x is None:
        return "infeasible", None, None
    return "optimal", best_obj + model.objective_constant, best_x


def enumeration_space(model: IPModel) -> int:
    return math.prod(int(v.upper - v.lower) + 1 for v in model.variables)


def assert_matches_reference(model: IPModel) -> None:
    sol = solve_enumerate(model)
    status, objective, assignment = reference_enumerate(model)
    assert sol.status == status
    if status == "optimal":
        np.testing.assert_array_equal(sol.assignment, assignment)
        assert sol.objective == pytest.approx(objective, abs=1e-9)
        assert sol.nodes_explored == enumeration_space(model)
    else:
        assert sol.assignment is None and sol.objective is None


@st.composite
def tied_ips(draw) -> IPModel:
    """Up to 12 variables over at most 4096 points, so both halves of
    the split are exercised; negative and fixed bounds, objective
    coefficients in {-1, 0, 1} (ties are common), 0 to 4 rows with
    small integer data (``==`` rows hold often, all-zero rows occur)."""
    model = IPModel("drawn")
    space = 1
    for j in range(draw(st.integers(0, 12))):
        lo = draw(st.integers(-2, 1))
        width = draw(st.integers(0, 3))
        if space * (width + 1) > 4096:
            width = 0
        space *= width + 1
        kind = BINARY if (lo, width) == (0, 1) else INTEGER
        model.add_variable(f"x{j}", kind, lower=float(lo), upper=float(lo + width))
        model.add_objective_term(j, draw(st.sampled_from([-1.0, 0.0, 1.0])))
    model.add_objective_constant(draw(st.sampled_from([0.0, 2.5, -1.25])))
    n = model.num_variables
    for _ in range(draw(st.integers(0, 4))):
        coefs = draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n))
        sense = draw(st.sampled_from(["<=", ">=", "=="]))
        rhs = draw(st.integers(-4, 4))
        model.add_constraint(list(enumerate(map(float, coefs))), sense, float(rhs))
    return model


def split_edge_model(bounds: list[tuple[int, int]]) -> IPModel:
    """Variables over ``bounds``, objective coefficients cycling through
    (-1, 0, 1) so that ties are common, an ``==`` row tying the first
    variable to the last and a ``<=`` row on the sum of all of them."""
    m = IPModel("edge")
    for j, (lo, hi) in enumerate(bounds):
        m.add_variable(f"x{j}", INTEGER, lower=float(lo), upper=float(hi))
        m.add_objective_term(j, (-1.0, 0.0, 1.0)[j % 3])
    last = len(bounds) - 1
    m.add_constraint([(0, 1.0), (last, -1.0)], "==", 0.0)
    m.add_constraint([(j, 1.0) for j in range(len(bounds))], "<=", 3.0)
    return m


class TestEnumerateAgainstReference:
    @settings(max_examples=80, deadline=None)
    @given(tied_ips())
    def test_same_status_and_assignment(self, model):
        assert_matches_reference(model)

    @pytest.mark.parametrize(
        "bounds",
        [
            [(0, 1)] * 10,  # 1024 points: every variable trailing, leading half empty
            [(0, 1)] * 11,  # 2048 points: one leading variable
            [(0, 2), (-1000, 999)],  # the wide last variable alone exceeds the target
        ],
        ids=["leading-empty", "one-leading", "wide-last"],
    )
    def test_split_edges(self, bounds):
        assert_matches_reference(split_edge_model(bounds))

    @pytest.mark.parametrize(
        "objective, expected",
        [({}, [0] * 18 + [1]), ({0: -1.0}, [1] + [0] * 18)],
        ids=["first-block", "later-block"],
    )
    def test_ties_across_blocks(self, objective, expected):
        """19 binaries (524,288 points) score in several blocks, and the
        feasible optimum ties in every one of them: the lexicographically
        smallest of the ties must win."""
        m = IPModel("ties")
        for j in range(19):
            m.add_variable(f"x{j}", BINARY)
        for vid, coef in objective.items():
            m.add_objective_term(vid, coef)
        m.add_constraint([(j, 1.0) for j in range(19)], ">=", 1.0)
        sol = solve_enumerate(m)
        assert sol.assignment.tolist() == expected

    def test_zero_variable_model(self):
        m = IPModel("empty")
        m.add_objective_constant(3.5)
        m.add_constraint([], "<=", 1.0)
        sol = solve_enumerate(m)
        assert (sol.status, sol.objective, sol.nodes_explored) == ("optimal", 3.5, 1)
        assert sol.assignment.shape == (0,)
        m.add_constraint([], ">=", 1.0)
        assert solve_enumerate(m).status == "infeasible"

    def test_zero_row_on_variables(self):
        m = split_edge_model([(-2, 1), (0, 3), (-1, 2)])
        m.add_constraint([(0, 0.0), (1, 0.0)], "==", 0.0)
        assert_matches_reference(m)
        m.add_constraint([(0, 0.0)], ">=", 0.5)
        assert_matches_reference(m)


def _continuous_model():
    m = IPModel()
    m.add_variable("n", kind=INTEGER, upper=3.0)
    m.add_variable("x", kind=CONTINUOUS, upper=1.0)
    return m, 1_000_000


def _unbounded_model():
    m = IPModel()
    m.add_variable("n", kind=INTEGER, upper=3.0)
    m.add_variable("x", kind=INTEGER, lower=-math.inf, upper=1.0)
    return m, 1_000_000


def _over_cap_model():
    m = IPModel()
    for j in range(3):
        m.add_variable(f"x{j}", kind=INTEGER, upper=9.0)
    return m, 999


class TestEnumerateValidation:
    @pytest.mark.parametrize(
        "build, match",
        [(_continuous_model, "all-integer"), (_unbounded_model, "finite"), (_over_cap_model, "cap")],
        ids=["continuous", "infinite-bound", "cap"],
    )
    def test_checks_raise_before_any_work(self, monkeypatch, build, match):
        def no_work(self):
            raise AssertionError("enumeration read the model before its checks")

        model, cap = build()
        monkeypatch.setattr(IPModel, "constraint_matrix", no_work)
        monkeypatch.setattr(IPModel, "objective_vector", no_work)
        with pytest.raises(ValueError, match=match):
            solve_enumerate(model, cap=cap)

    def test_gate3_largest_model_memory(self):
        """The largest of acceptance gate 3's models: 995,328 points over
        23 variables. Only the two half tables and one block of buffers
        are held, about 1.4 MB."""
        model = max(workloads.gate3_models(200), key=enumeration_space)
        assert (enumeration_space(model), model.num_variables) == (995_328, 23)
        tracemalloc.start()
        try:
            sol = solve_enumerate(model)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sol.status == "optimal" and sol.nodes_explored == 995_328
        assert peak <= 16e6, f"tracemalloc peak {peak / 1e6:.1f} MB"

    def test_wide_last_variable_splits_balanced(self):
        """Nine binaries and a last variable with 1,953 values: the split
        falls before the wide variable (512 + 1,953 points) instead of
        holding all 999,936 points in the leading half."""
        m = IPModel("wide_last")
        for j in range(9):
            m.add_variable(f"b{j}", BINARY)
        wide = m.add_variable("n", INTEGER, upper=1952.0)
        m.add_objective_term(wide, -1.0)
        m.add_constraint([(j, 1.0) for j in range(9)], ">=", 3.0)
        m.add_constraint([(0, 100.0), (wide, 1.0)], "<=", 1900.0)
        tracemalloc.start()
        try:
            sol = solve_enumerate(m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sol.status == "optimal" and sol.nodes_explored == 999_936
        assert sol.assignment.tolist() == [0.0] * 6 + [1.0] * 3 + [1900.0]
        assert peak <= 10e6, f"tracemalloc peak {peak / 1e6:.1f} MB"


def random_ip(seed: int) -> IPModel:
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 5))
    m = IPModel(f"rand{seed}")
    ids = []
    for i in range(n):
        kind = BINARY if rng.random() < 0.5 else INTEGER
        upper = 1.0 if kind == BINARY else float(rng.integers(1, 4))
        ids.append(m.add_variable(f"v{i}", kind=kind, upper=upper))
        m.add_objective_term(ids[-1], float(rng.integers(-9, 10)))
    for _ in range(int(rng.integers(1, 4))):
        terms = [(vid, float(rng.integers(-4, 5))) for vid in ids]
        sense = ("<=", ">=", "==")[int(rng.integers(0, 3))]
        m.add_constraint(terms, sense, float(rng.integers(-6, 9)))
    return m


class TestOracleAgreement:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10_000))
    def test_exact_matches_enumeration(self, seed):
        m = random_ip(seed)
        exact = solve_exact(m)
        oracle = solve_enumerate(m)
        assert exact.status in ("optimal", "infeasible")
        assert exact.status == oracle.status
        if exact.status == "optimal":
            assert exact.objective == pytest.approx(oracle.objective, abs=1e-9)
            assert m.max_violation(exact.assignment) <= 1e-6
