"""Source rules of the package: every module uses each name it imports
(the package's ``__init__.py`` is exempt, since its imports are its
re-exports), only the distance kernel sets numpy's ufunc buffer, only the
two callers that group runs by their cluster counts call the scoring
kernel, and only ``core`` imports a thread module."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "silkit"
MODULES = sorted(path for path in SRC.glob("*.py") if path.name != "__init__.py")


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # "import a.b" binds "a"
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=[path.stem for path in MODULES])
def test_module_uses_every_import(path):
    assert _unused_imports(path.read_text()) == []


def test_unused_import_is_found():
    source = "import os\nfrom x import a, b as c\nimport numpy.linalg\nprint(a)\n"
    assert _unused_imports(source) == ["line 1: os", "line 2: c", "line 3: numpy"]


def _callers(source: str, callee: str) -> list[str]:
    """The top-level functions (or "<module>") whose code calls ``callee``,
    by attribute (``np.setbufsize``) or by name."""
    callers = []
    for top in ast.parse(source).body:
        named = isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        owner = top.name if named else "<module>"
        for node in ast.walk(top):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name == callee:
                    callers.append(owner)
    return callers


def test_only_the_kernel_sets_the_ufunc_buffer():
    # the kernel owns numpy's buffer rule; a caller that sets the buffer
    # would run its own reductions at the kernel's size
    callers = {
        f"{path.stem}.{owner}"
        for path in SRC.glob("*.py")
        for owner in _callers(path.read_text(), "setbufsize")
    }
    assert callers == {"core._sq_distances"}


def test_setbufsize_caller_is_found():
    source = (
        "import numpy as np\nfrom numpy import setbufsize\n"
        "def kernel():\n    np.setbufsize(256)\n"
        "def caller():\n    with x:\n        setbufsize(256)\n"
        "np.setbufsize(256)\n"
    )
    assert _callers(source, "setbufsize") == ["kernel", "caller", "<module>"]


def test_only_equal_count_callers_score_runs():
    # _score_runs scores together only runs that share their cluster counts:
    # full_report passes one run, _score_draws one group per count vector
    callers = {
        f"{path.stem}.{owner}"
        for path in SRC.glob("*.py")
        for owner in _callers(path.read_text(), "_score_runs")
    }
    assert callers == {"silhouette.full_report", "sampling._score_draws"}


THREAD_MODULES = ("threading", "concurrent.futures")


def _thread_imports(source: str) -> list[str]:
    """The names ``source`` imports from ``THREAD_MODULES``, dotted in
    full ("from threading import local" gives "threading.local")."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [f"{node.module}.{alias.name}" for alias in node.names]
        else:
            continue
        found += [name for name in names if any(name == m or name.startswith(m + ".") for m in THREAD_MODULES)]
    return found


def test_only_core_imports_threads():
    # core's _parallel_map and _workers own the threads; a module that keeps
    # its own thread state would hold memory between the map's calls
    importers = {path.stem for path in SRC.glob("*.py") if _thread_imports(path.read_text())}
    assert importers == {"core"}


def test_thread_import_is_found():
    source = (
        "import os, threading\nfrom threading import local as tl\n"
        "from concurrent.futures import ThreadPoolExecutor\nfrom concurrent import futures\n"
        "import concurrent.futures.thread\nfrom .core import threading\nimport threadingx\n"
    )
    assert _thread_imports(source) == [
        "threading",
        "threading.local",
        "concurrent.futures.ThreadPoolExecutor",
        "concurrent.futures",
        "concurrent.futures.thread",
    ]
