"""Factory error reporting: rejected kwargs must name backend and options."""

import pytest

from repro.core import solve_map
from repro.core.registry import make_solver as registry_make_solver
from repro.errors import SolverNotAvailableError


class TestRejectedKwargs:
    def test_mln_factory_names_backend_and_kwargs(self):
        with pytest.raises(SolverNotAvailableError) as excinfo:
            registry_make_solver("nrockit", time_limit=5, frobnicate=True)
        message = str(excinfo.value)
        assert "'nrockit'" in message
        assert "frobnicate" in message

    def test_psl_factory_names_backend_and_kwargs(self):
        with pytest.raises(SolverNotAvailableError) as excinfo:
            registry_make_solver("npsl", bogus_option=1)
        message = str(excinfo.value)
        assert "'npsl'" in message
        assert "bogus_option" in message

    def test_registry_factory_names_solver_and_kwargs(self):
        with pytest.raises(SolverNotAvailableError) as excinfo:
            registry_make_solver("nrockit", not_an_option=3)
        message = str(excinfo.value)
        assert "'nrockit'" in message
        assert "not_an_option" in message

    def test_valid_kwargs_still_pass_through(self):
        solver = registry_make_solver("nrockit", time_limit=7.5)
        assert solver.time_limit == 7.5

    def test_unknown_backend_still_reported(self):
        with pytest.raises(SolverNotAvailableError, match="unknown solver 'gurobi'"):
            registry_make_solver("gurobi")

    def test_solve_map_surfaces_rejected_kwargs(self):
        from program_generators import random_ground_program

        program = random_ground_program(0, entities=1, isolated_atoms=0)
        with pytest.raises(SolverNotAvailableError, match="frobnicate"):
            solve_map(program, "nrockit", frobnicate=1)

    def test_internal_constructor_typeerror_is_not_masked(self):
        from repro.core import registry

        def buggy_factory():
            return len(None)  # a genuine bug inside the constructor body

        registry.register_solver("buggy-test", "mln", "broken on purpose", buggy_factory)
        try:
            with pytest.raises(TypeError):
                registry_make_solver("buggy-test")
        finally:
            registry._REGISTRY.pop("buggy-test", None)
