"""Package-level surface: top-level API, versioning."""

from __future__ import annotations

import pytest

import repro


class TestTopLevelAPI:
    def test_version(self):
        assert repro.__version__
        major = int(repro.__version__.split(".")[0])
        assert major >= 1

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"__all__ lists missing name {name!r}"

    def test_quick_session_runs(self):
        session = repro.quick_session(algorithm="bb", dataset="synthetic")
        assert len(session.records) == 65
        assert session.qoe().total == session.qoe().total  # finite

    def test_quick_session_algorithms(self):
        session = repro.quick_session(algorithm="rb", dataset="fcc",
                                      trace_index=2, seed=5)
        assert session.algorithm_name == "rb"

    def test_quick_session_rejects_unknown(self):
        with pytest.raises(ValueError):
            repro.quick_session(algorithm="does-not-exist")


class TestSubpackageAllLists:
    @pytest.mark.parametrize(
        "module_name",
        [
            "repro.traces",
            "repro.video",
            "repro.prediction",
            "repro.abr",
            "repro.core",
            "repro.sim",
            "repro.emulation",
            "repro.experiments",
        ],
    )
    def test_all_names_exist(self, module_name):
        import importlib

        module = importlib.import_module(module_name)
        for name in module.__all__:
            assert hasattr(module, name), f"{module_name}.{name} missing"
