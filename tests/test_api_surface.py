"""Public API surface tests: exports exist, are documented, and import
cleanly.  Guards against the packaging drift that plagues research code."""

import ast
import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro

PACKAGES = [
    "repro",
    "repro.tsp",
    "repro.bounds",
    "repro.construct",
    "repro.localsearch",
    "repro.core",
    "repro.distributed",
    "repro.divide",
    "repro.baselines",
    "repro.analysis",
    "repro.service",
    "repro.obs",
    "repro.utils",
]


@pytest.mark.parametrize("pkg_name", PACKAGES)
def test_all_exports_resolve(pkg_name):
    pkg = importlib.import_module(pkg_name)
    assert hasattr(pkg, "__all__"), pkg_name
    for name in pkg.__all__:
        assert hasattr(pkg, name), f"{pkg_name}.{name} missing"


@pytest.mark.parametrize("pkg_name", PACKAGES)
def test_package_documented(pkg_name):
    pkg = importlib.import_module(pkg_name)
    assert pkg.__doc__ and pkg.__doc__.strip(), pkg_name


def _walk_modules():
    out = []
    for pkg_name in PACKAGES:
        pkg = importlib.import_module(pkg_name)
        if hasattr(pkg, "__path__"):
            for info in pkgutil.iter_modules(pkg.__path__):
                out.append(f"{pkg_name}.{info.name}")
    return out


@pytest.mark.parametrize("mod_name", _walk_modules())
def test_every_module_has_docstring(mod_name):
    mod = importlib.import_module(mod_name)
    assert mod.__doc__ and len(mod.__doc__.strip()) > 20, mod_name


def test_public_classes_and_functions_documented():
    undocumented = []
    for pkg_name in PACKAGES:
        pkg = importlib.import_module(pkg_name)
        for name in getattr(pkg, "__all__", []):
            obj = getattr(pkg, name)
            if inspect.isclass(obj) or inspect.isfunction(obj):
                if not (obj.__doc__ and obj.__doc__.strip()):
                    undocumented.append(f"{pkg_name}.{name}")
    assert not undocumented, undocumented


def test_version_string():
    assert repro.__version__.count(".") == 2


def test_cli_importable_without_side_effects():
    from repro.cli import build_parser

    parser = build_parser()
    assert parser.prog == "repro"


#: Heavy modules no solver path needs.  The server and every job or
#: divide worker import the modules below before they do any work.
_UNNEEDED_AT_IMPORT = ("networkx", "scipy.stats", "scipy.sparse.csgraph")


def test_worker_imports_stay_light():
    # A fresh interpreter: this test process has imported far more.
    code = (
        "import sys\n"
        "import repro, repro.cli, repro.exec, repro.service.backends, "
        "repro.divide.scheduler, repro.analysis.runio\n"
        f"print([m for m in {_UNNEEDED_AT_IMPORT!r} if m in sys.modules])\n"
    )
    src = str(Path(repro.__file__).resolve().parent.parent)
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(
               filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


#: The modules allowed to start worker processes, relative to src/repro.
#: Every other module runs in the calling process; a new process layer
#: has to be added here on purpose.
PROCESS_MODULES = {
    "exec.py",
    "distributed/mp_backend.py",
}

_PROCESS_PACKAGES = ("multiprocessing", "concurrent.futures")


def _imports_process_package(tree: ast.AST) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            # Both "from concurrent.futures import X" and
            # "from concurrent import futures".
            names = [node.module or ""] + [
                f"{node.module}.{alias.name}" for alias in node.names
            ]
        else:
            continue
        for name in names:
            if any(name == pkg or name.startswith(pkg + ".")
                   for pkg in _PROCESS_PACKAGES):
                return True
    return False


def test_process_implementations_stay_on_the_allow_list():
    root = Path(repro.__file__).parent
    importers = {
        path.relative_to(root).as_posix()
        for path in root.rglob("*.py")
        if _imports_process_package(
            ast.parse(path.read_text(encoding="utf-8"))
        )
    }
    assert importers <= PROCESS_MODULES, sorted(importers - PROCESS_MODULES)
