"""Public-API integrity: every exported name exists, imports, and is owned.

Catches the classic refactoring failure where ``__all__`` drifts from the
module contents — cheap insurance for a library this size.
"""

import importlib
import inspect

import pytest

PACKAGES = [
    "repro",
    "repro.core",
    "repro.compiler",
    "repro.openmp",
    "repro.eventloop",
    "repro.kernels",
    "repro.sim",
    "repro.adapters",
    "repro.dist",
    "repro.obs",
    "repro.serve",
    "repro.cluster",
    "repro.check",
    "repro.explore",
    "repro.policy",
    "repro.bench",
]


@pytest.mark.parametrize("modname", PACKAGES)
class TestAllIntegrity:
    def test_every_all_name_resolves(self, modname):
        mod = importlib.import_module(modname)
        missing = [n for n in getattr(mod, "__all__", []) if not hasattr(mod, n)]
        assert not missing, f"{modname}.__all__ lists missing names: {missing}"

    def test_all_has_no_duplicates(self, modname):
        mod = importlib.import_module(modname)
        names = list(getattr(mod, "__all__", []))
        assert len(names) == len(set(names))

    def test_package_has_docstring(self, modname):
        mod = importlib.import_module(modname)
        assert mod.__doc__ and len(mod.__doc__.strip()) > 40


class TestDocstringCoverage:
    @pytest.mark.parametrize("modname", PACKAGES[1:])
    def test_public_callables_documented(self, modname):
        mod = importlib.import_module(modname)
        undocumented = []
        for name in getattr(mod, "__all__", []):
            obj = getattr(mod, name)
            if inspect.isfunction(obj) or inspect.isclass(obj):
                if not (obj.__doc__ and obj.__doc__.strip()):
                    undocumented.append(name)
        assert not undocumented, f"{modname}: undocumented public items: {undocumented}"


class TestEntryPoints:
    def test_version_string(self):
        import repro

        parts = repro.__version__.split(".")
        assert len(parts) == 3 and all(p.isdigit() for p in parts)

    def test_cli_importable_without_side_effects(self):
        from repro.cli import build_parser

        parser = build_parser()
        subcommands = {"fig1", "fig7", "fig8", "fig9", "timeline", "kernels", "compile"}
        text = parser.format_help()
        for sub in subcommands:
            assert sub in text

    def test_bridge_surface_matches_generated_calls(self):
        """Every bridge function the transformer can emit must exist."""
        import repro.compiler.bridge as bridge

        emitted = {
            "run_on", "wait_for", "parallel", "for_loop", "sections",
            "single", "master", "ordered", "critical", "barrier", "task",
            "taskwait", "flush", "identity_for", "omp_get_thread_num",
            "collapse_product",
        }
        missing = [f for f in emitted if not hasattr(bridge, f)]
        assert not missing, f"bridge lacks: {missing}"
        assert hasattr(bridge, "REDUCTIONS")
