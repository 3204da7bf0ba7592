"""What importing the package and the CLI loads, and the package exports.

`import recolor` loads no submodule, and `import recolor.cli` loads only
what `bound`, `table` and `count-records` run: every other module is
imported by the command that calls it.  The guard lists the modules of a
child interpreter, so what this process has imported does not matter,
and it bounds no time.
"""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import recolor
import recolor.engine
import recolor.errors
import recolor.families

SRC = Path(recolor.__file__).resolve().parents[1]

def loaded_after(statement):
    """Names of the `recolor` modules a fresh interpreter holds after
    running ``statement``."""
    path = [str(SRC)]
    if os.environ.get("PYTHONPATH"):
        path.append(os.environ["PYTHONPATH"])
    probe = (f"import sys; {statement}; print(*(m for m in sys.modules "
             "if m.split('.')[0] == 'recolor'))")
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True,
        check=True, env={**os.environ, "PYTHONPATH": os.pathsep.join(path)})
    return set(proc.stdout.split())


def test_package_import_loads_no_submodule():
    assert loaded_after("import recolor") == {"recolor"}


def test_cli_import_loads_no_run_module():
    # no engine, families, graphs, planar or validators
    assert loaded_after("import recolor.cli") == {
        "recolor", "recolor.bounds", "recolor.cli", "recolor.errors",
        "recolor.records"}


@pytest.mark.parametrize("name", recolor.__all__)
def test_export_is_its_submodule_object(name):
    module = importlib.import_module(f"recolor.{recolor._EXPORTS[name]}")
    assert getattr(recolor, name) is getattr(module, name)
    assert name in dir(recolor)


def test_errors_keep_their_old_homes():
    assert recolor.engine.DecodeError is recolor.DecodeError
    assert recolor.engine.FamilyContractError is recolor.FamilyContractError
    assert recolor.families.MedialConnectivityError \
        is recolor.errors.MedialConnectivityError


def test_star_import_binds_every_export():
    namespace = {}
    exec("from recolor import *", namespace)
    for name in recolor.__all__:
        assert namespace[name] is getattr(recolor, name)


def test_unknown_name_is_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        recolor.no_such_name
    assert not hasattr(recolor, "no_such_name")
