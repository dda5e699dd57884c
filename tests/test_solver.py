"""Tests for the branch-and-bound constraint solver (the Z3 substitute)."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import SolverError
from repro.solver import (
    AllDifferent,
    BranchAndBoundSolver,
    CallableObjective,
    Model,
    PairTerm,
    SumObjective,
    UnaryTerm,
    Variable,
)


class TestModel:
    def test_duplicate_variable_rejected(self):
        m = Model()
        m.add_variable("x", [0, 1])
        with pytest.raises(SolverError):
            m.add_variable("x", [0, 1])

    def test_empty_domain_rejected(self):
        with pytest.raises(SolverError):
            Variable("x", ())

    def test_duplicate_domain_values_rejected(self):
        with pytest.raises(SolverError):
            Variable("x", (1, 1))

    def test_constraint_scope_checked(self):
        m = Model()
        m.add_variable("x", [0, 1])
        with pytest.raises(SolverError):
            m.add_constraint(AllDifferent(["x", "y"]))

    def test_validate(self):
        m = Model()
        m.add_variable("x", [0, 1])
        m.add_variable("y", [0, 1])
        m.add_constraint(AllDifferent(["x", "y"]))
        assert m.validate({"x": 0, "y": 1})
        assert not m.validate({"x": 0, "y": 0})
        assert not m.validate({"x": 0})
        assert not m.validate({"x": 5, "y": 1})


class TestSatisfaction:
    def test_all_different_feasible(self):
        m = Model()
        for name in "abc":
            m.add_variable(name, [0, 1, 2])
        m.add_constraint(AllDifferent(["a", "b", "c"]))
        result = BranchAndBoundSolver(first_solution_only=True).solve(m)
        assert result.feasible
        values = [result.assignment[n] for n in "abc"]
        assert sorted(values) == [0, 1, 2]

    def test_all_different_infeasible(self):
        m = Model()
        for name in "abc":
            m.add_variable(name, [0, 1])
        m.add_constraint(AllDifferent(["a", "b", "c"]))
        result = BranchAndBoundSolver().solve(m)
        assert not result.feasible
        assert result.optimal  # exhausted => infeasibility proof

    def test_no_variables_rejected(self):
        with pytest.raises(SolverError):
            BranchAndBoundSolver().solve(Model())


class TestOptimization:
    def test_unary_maximization(self):
        m = Model()
        m.add_variable("x", [0, 5, 3])
        m.objective = SumObjective([UnaryTerm("x", float)])
        result = BranchAndBoundSolver().solve(m)
        assert result.assignment["x"] == 5
        assert result.optimal

    def test_pair_term_assignment_problem(self):
        """3-qubit toy mapping: maximize pair scores, all-different."""
        score = {(0, 1): 5.0, (1, 0): 5.0, (1, 2): 4.0, (2, 1): 4.0}
        m = Model()
        for name in "ab":
            m.add_variable(name, [0, 1, 2])
        m.add_constraint(AllDifferent(["a", "b"]))
        m.objective = SumObjective(
            [PairTerm("a", "b", lambda x, y: score.get((x, y), 0.0))])
        result = BranchAndBoundSolver().solve(m)
        assert result.objective == pytest.approx(5.0)

    def test_matches_brute_force(self):
        """Exactness check against exhaustive enumeration."""
        def score_a(v):
            return [3.0, 1.0, 4.0, 1.0][v]

        def score_pair(x, y):
            return ((x * 7 + y * 3) % 5) * 1.0

        m = Model()
        m.add_variable("a", [0, 1, 2, 3])
        m.add_variable("b", [0, 1, 2, 3])
        m.add_variable("c", [0, 1, 2, 3])
        m.add_constraint(AllDifferent(["a", "b", "c"]))
        m.objective = SumObjective([
            UnaryTerm("a", score_a),
            PairTerm("b", "c", score_pair),
        ])
        result = BranchAndBoundSolver().solve(m)

        best = -1e9
        for a, b, c in itertools.permutations(range(4), 3):
            best = max(best, score_a(a) + score_pair(b, c))
        assert result.objective == pytest.approx(best)
        assert result.optimal

    def test_warm_start_used_as_incumbent(self):
        m = Model()
        m.add_variable("x", [0, 1, 2])
        m.objective = SumObjective([UnaryTerm("x", float)])
        result = BranchAndBoundSolver().solve(m, initial={"x": 1})
        assert result.objective == pytest.approx(2.0)

    def test_infeasible_warm_start_ignored(self):
        m = Model()
        m.add_variable("x", [0, 1])
        m.add_variable("y", [0, 1])
        m.add_constraint(AllDifferent(["x", "y"]))
        m.objective = SumObjective([UnaryTerm("x", float)])
        result = BranchAndBoundSolver().solve(m, initial={"x": 0, "y": 0})
        assert result.feasible

    def test_callable_objective_without_bound(self):
        m = Model()
        m.add_variable("x", [0, 1, 2, 3])
        m.objective = CallableObjective(lambda a: -abs(a["x"] - 2))
        result = BranchAndBoundSolver().solve(m)
        assert result.assignment["x"] == 2

    def test_node_limit_truncates(self):
        m = Model()
        for i in range(6):
            m.add_variable(f"v{i}", list(range(6)))
        m.add_constraint(AllDifferent([f"v{i}" for i in range(6)]))
        m.objective = SumObjective(
            [UnaryTerm(f"v{i}", lambda v: float(v)) for i in range(6)])
        result = BranchAndBoundSolver(node_limit=10).solve(m)
        assert not result.optimal

    def test_time_limit_respected(self):
        m = Model()
        for i in range(8):
            m.add_variable(f"v{i}", list(range(8)))
        m.add_constraint(AllDifferent([f"v{i}" for i in range(8)]))
        m.objective = CallableObjective(
            lambda a: -sum(a.values()) * 1.0)  # no bound -> exhaustive
        result = BranchAndBoundSolver(time_limit=0.2).solve(m)
        assert result.timed_out
        assert result.elapsed < 5.0

    @given(seed=st.integers(0, 500))
    @settings(max_examples=25, deadline=None)
    def test_random_assignment_problems_are_solved_exactly(self, seed):
        """Property: B&B equals brute force on random 3x5 QAPs."""
        import random
        rng = random.Random(seed)
        unary = [[rng.uniform(0, 10) for _ in range(5)] for _ in range(3)]
        pair = {(i, j): rng.uniform(0, 10)
                for i in range(5) for j in range(5) if i != j}

        m = Model()
        for i in range(3):
            m.add_variable(f"q{i}", range(5))
        m.add_constraint(AllDifferent([f"q{i}" for i in range(3)]))
        terms = [UnaryTerm(f"q{i}", lambda v, i=i: unary[i][v])
                 for i in range(3)]
        terms.append(PairTerm("q0", "q1", lambda a, b: pair[(a, b)]))
        terms.append(PairTerm("q1", "q2", lambda a, b: pair[(a, b)]))
        m.objective = SumObjective(terms)
        result = BranchAndBoundSolver().solve(m)

        best = max(
            (unary[0][a] + unary[1][b] + unary[2][c]
             + pair[(a, b)] + pair[(b, c)])
            for a, b, c in itertools.permutations(range(5), 3))
        assert result.objective == pytest.approx(best)


class TestObjectiveProbe:
    """The default ``Objective.probe`` is the per-value bound loop."""

    @staticmethod
    def _objective(score):
        return SumObjective([UnaryTerm("x", score),
                             PairTerm("x", "y", lambda a, b: a * b - a)])

    def test_default_probe_equals_per_value_bound(self):
        objective = self._objective(lambda v: -abs(v - 2.5))
        domains = {"x": {0, 1, 2, 3}, "y": {0, 1, 2, 3}}
        for assignment in ({}, {"y": 1}):
            before = dict(assignment)
            probed = objective.probe("x", [3, 0, 2, 2, 1], assignment,
                                     domains)
            assert assignment == before
            assert probed == [objective.bound({**before, "x": v}, domains)
                              for v in [3, 0, 2, 2, 1]]

    def test_default_probe_restores_assignment_when_bound_raises(self):
        def score(v):
            if v == 2:
                raise SolverError("no score for 2")
            return float(v)
        objective = self._objective(score)
        assignment = {"y": 1}
        with pytest.raises(SolverError):
            objective.probe("x", [0, 1, 2, 3], assignment,
                            {"x": {0, 1, 2, 3}, "y": {1}})
        assert assignment == {"y": 1}
