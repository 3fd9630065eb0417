"""A one-shot tune imports only what it runs.

Package ``__init__``s resolve their public names on first use
(:mod:`repro._lazy`), and optional features (the learned ranker, the
process pool, the on-disk cache, C emission, serve, the corpus) are
imported where they run.  These tests pin both halves:

* every name in every ``repro`` package's ``__all__`` resolves and is
  listed by ``dir()``, so a lazy table cannot rot;
* a fresh interpreter running ``repro tune`` loads none of the optional
  modules, and loads the learned ranker when ``--ranker`` is given;
* importing the CLI and the serve client loads neither numpy nor the
  daemon, so the socket clients (``submit``, ``status``, ...) start
  without the tuner.

The module set is a property of the code, not of the host, so unlike a
time bound it holds on any machine.
"""

from __future__ import annotations

import importlib
import json
import os
import pkgutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

import repro

SRC_DIR = str(Path(repro.__file__).parents[1])

PACKAGES = ["repro"] + sorted(
    info.name
    for info in pkgutil.walk_packages(repro.__path__, "repro.")
    if info.ispkg
)

#: modules a default ``repro tune`` must not load (a name ending in "."
#: covers the whole package)
NOT_ON_THE_TUNE_PATH = (
    "repro.serve.",
    "repro.experiments.",
    "repro.baselines.",
    "repro.obs.corpus",
    "repro.obs.reader",
    "repro.obs.report",
    "repro.storage.atomic",
    "repro.storage.doctor",
    "repro.storage.locks",
    "repro.storage.quarantine",
    "repro.analysis.learned",
    "repro.codegen.c_emitter",
    "repro.codegen.interp",
    "repro.core.explain",
    "multiprocessing.",
    "concurrent.futures.process",
)

_TUNE = ["tune", "matvec", "--machine", "sun", "--size", "6"]

_DUMP_MODULES = """
import contextlib, io, json, sys
from repro.__main__ import main
with contextlib.redirect_stdout(io.StringIO()):
    main(sys.argv[1:])
print(json.dumps(sorted(sys.modules)))
"""


def _modules_after(argv):
    """Every module a fresh interpreter has loaded after ``repro argv``,
    and what it wrote on stderr."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", _DUMP_MODULES, *argv],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1])), proc.stderr


def _modules_after_import(*names):
    """Every module a fresh interpreter has loaded after importing ``names``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    code = "".join(f"import {name}\n" for name in names)
    code += "import json, sys\nprint(json.dumps(sorted(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout))


def _loaded(modules, name):
    if name.endswith("."):
        return sorted(m for m in modules if m == name[:-1] or m.startswith(name))
    return [name] if name in modules else []


@pytest.mark.parametrize("package", PACKAGES)
def test_every_public_name_resolves(package):
    module = importlib.import_module(package)
    listed = dir(module)
    for name in module.__all__:
        value = getattr(module, name)
        assert name in listed, f"{package}.{name} missing from dir()"
        # a same-named submodule (repro.core.explain) must not shadow it,
        # neither on first use nor after its import bound the name
        assert not isinstance(value, types.ModuleType), f"{package}.{name} is a module"
        assert getattr(module, name) is value


def test_unknown_names_raise_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'NoSuchName'"):
        repro.core.NoSuchName
    from repro import bench  # a submodule outside the table still imports

    assert bench.__name__ == "repro.bench"


def test_default_tune_loads_only_what_it_runs():
    modules, _ = _modules_after(_TUNE)
    # the tune really ran: phase 1, the search, the simulator
    for name in ("repro.core.derive", "repro.core.search", "repro.sim.executor",
                 "repro.analysis.surrogate"):
        assert name in modules
    loaded = [m for name in NOT_ON_THE_TUNE_PATH for m in _loaded(modules, name)]
    assert loaded == []


def test_ranker_tune_loads_the_learned_ranker(tmp_path):
    from repro.analysis.learned import save_ranker, train_ranker
    from repro.core import EcoOptimizer, SearchConfig
    from repro.eval import EvalEngine
    from repro.kernels import matvec
    from repro.machines import get_machine
    from repro.obs import Tracer
    from repro.obs.corpus import flatten_trace

    machine = get_machine("sun")
    tracer = Tracer(kernel="matvec", machine="sun", size=6)
    with EvalEngine(machine, tracer=tracer) as engine:
        EcoOptimizer(
            matvec(), machine, SearchConfig(prescreen=True), engine=engine
        ).optimize({"N": 6})
    model = tmp_path / "matvec-sun.json"
    save_ranker(str(model), train_ranker(flatten_trace(tracer.events()), "matvec", "sun"))

    modules, stderr = _modules_after(_TUNE + ["--ranker", str(model)])
    assert "repro.analysis.learned" in modules
    assert "disabled" not in stderr  # the artifact loaded and ranked
    # the ranker needs nothing else of the optional set
    assert _loaded(modules, "repro.serve.") == []
    assert "multiprocessing" not in modules


def test_cli_and_serve_client_import_without_the_tuner():
    modules = _modules_after_import("repro.__main__", "repro.serve.client")
    for name in ("numpy", "multiprocessing", "repro.serve.daemon",
                 "repro.eval.engine", "repro.sim."):
        assert _loaded(modules, name) == [], name
