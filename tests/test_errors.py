"""Tests for the exception hierarchy and public API surface."""

from __future__ import annotations

import pytest

import repro
from repro.errors import (
    CoverTimeoutError,
    ExactEngineError,
    ExperimentError,
    GraphConstructionError,
    GraphPropertyError,
    InfectionTimeoutError,
    ProcessError,
    ProcessTimeoutError,
    ReproError,
)


class TestHierarchy:
    @pytest.mark.parametrize(
        "exception",
        [
            GraphConstructionError,
            GraphPropertyError,
            ProcessError,
            ProcessTimeoutError,
            CoverTimeoutError,
            InfectionTimeoutError,
            ExactEngineError,
            ExperimentError,
        ],
    )
    def test_all_derive_from_repro_error(self, exception):
        assert issubclass(exception, ReproError)
        with pytest.raises(ReproError):
            raise exception("boom")

    def test_repro_error_is_an_exception(self):
        assert issubclass(ReproError, Exception)

    def test_timeout_flavours_share_a_base(self):
        # One except clause catches both goal flavours; the legacy
        # CoverTimeoutError stays catchable exactly as before.
        assert issubclass(CoverTimeoutError, ProcessTimeoutError)
        assert issubclass(InfectionTimeoutError, ProcessTimeoutError)
        assert not issubclass(InfectionTimeoutError, CoverTimeoutError)
        assert not issubclass(CoverTimeoutError, InfectionTimeoutError)

    def test_sequential_runner_raises_goal_flavoured_timeouts(self):
        from repro.core.runner import run_process

        graph = repro.graphs.random_regular(64, 4, seed=7)
        with pytest.raises(CoverTimeoutError):
            run_process(
                repro.CobraProcess(graph, 0, seed=1),
                max_rounds=1,
                raise_on_timeout=True,
            )
        with pytest.raises(InfectionTimeoutError):
            run_process(
                repro.BipsProcess(graph, 0, seed=1),
                max_rounds=1,
                raise_on_timeout=True,
            )

    def test_catchable_individually(self):
        with pytest.raises(GraphConstructionError):
            repro.graphs.complete(1)
        with pytest.raises(ProcessError):
            repro.CobraProcess(repro.graphs.petersen(), 0, branching=0.5)


class TestPublicApi:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"repro.{name} missing"

    def test_version_string(self):
        parts = repro.__version__.split(".")
        assert len(parts) == 3
        assert all(part.isdigit() for part in parts)

    def test_subpackage_alls_resolve(self):
        for package in (repro.graphs, repro.core, repro.exact, repro.theory,
                        repro.analysis, repro.experiments):
            for name in package.__all__:
                assert hasattr(package, name), f"{package.__name__}.{name} missing"

    def test_every_public_module_has_docstring(self):
        import importlib
        import pkgutil

        for module_info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
            module = importlib.import_module(module_info.name)
            assert module.__doc__, f"{module_info.name} lacks a module docstring"
