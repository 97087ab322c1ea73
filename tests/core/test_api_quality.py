"""Quality gates on the public API surface.

Documentation-completeness and import hygiene: every public module,
class, and function carries a docstring, and the declared ``__all__``
lists resolve.  These are the checks an open-source release runs in CI.
"""

import importlib
import inspect

import pytest

PUBLIC_MODULES = [
    "repro",
    "repro.analog",
    "repro.channel",
    "repro.digital",
    "repro.scan",
    "repro.circuits",
    "repro.link",
    "repro.synchronizer",
    "repro.faults",
    "repro.dft",
    "repro.core",
    "repro.cli",
]


@pytest.mark.parametrize("module_name", PUBLIC_MODULES)
class TestPublicSurface:
    def test_module_docstring(self, module_name):
        mod = importlib.import_module(module_name)
        assert mod.__doc__ and mod.__doc__.strip(), module_name

    def test_all_resolves(self, module_name):
        mod = importlib.import_module(module_name)
        for name in getattr(mod, "__all__", []):
            assert hasattr(mod, name), f"{module_name}.{name} missing"

    def test_exported_objects_documented(self, module_name):
        mod = importlib.import_module(module_name)
        undocumented = []
        for name in getattr(mod, "__all__", []):
            obj = getattr(mod, name)
            if inspect.isclass(obj) or inspect.isfunction(obj):
                if not (obj.__doc__ and obj.__doc__.strip()):
                    undocumented.append(name)
        assert not undocumented, f"{module_name}: {undocumented}"


class TestPublicMethodsDocumented:
    @pytest.mark.parametrize("cls_path", [
        "repro.core.testable_link.TestableLink",
        "repro.analog.netlist.Circuit",
        "repro.digital.simulator.LogicCircuit",
        "repro.scan.chain.ScanChain",
        "repro.synchronizer.loop.SynchronizerLoop",
    ])
    def test_public_methods_have_docstrings(self, cls_path):
        module_name, cls_name = cls_path.rsplit(".", 1)
        cls = getattr(importlib.import_module(module_name), cls_name)
        missing = []
        for name, member in inspect.getmembers(cls):
            if name.startswith("_"):
                continue
            if inspect.isfunction(member) and member.__qualname__.startswith(
                    cls.__name__):
                if not (member.__doc__ and member.__doc__.strip()):
                    missing.append(name)
        assert not missing, f"{cls_path}: {missing}"


class TestNoCircularImportSurprises:
    def test_substrates_import_without_core(self):
        """The lazy top-level exports must keep substrates standalone:
        the engines count through ``repro.core.profiling``, and the
        lazy ``repro.core`` package must load nothing else with it (no
        facade, report, supervisor or config module)."""
        import subprocess
        import sys

        code = ("import repro.analog, repro.channel, repro.digital; "
                "import sys; "
                "core = sorted(m for m in sys.modules "
                "if m.startswith('repro.core')); "
                "assert core == ['repro.core', 'repro.core.profiling'], "
                "f'core leaked: {core}'; "
                "print('ok')")
        out = subprocess.run([sys.executable, "-c", code],
                             capture_output=True, text=True)
        assert out.returncode == 0, out.stderr
        assert "ok" in out.stdout
