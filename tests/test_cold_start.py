"""A ``fanocalc`` process imports only what its subcommand uses.

Each check runs a fresh interpreter, since this process has long since
imported every module.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fanocalc

SRC = str(Path(fanocalc.__file__).resolve().parent.parent)

# The names fanocalc exported when its __init__ imported every module eagerly,
# less SchubertRing (the Grassmannian is now its own coefficient ring), and
# less MorphismScenario, assert_integral, multiplier_bound_from_negative_lines
# and tangent_twist_hypersurface (no caller; `bound neg-lines` computes its
# bound itself), and less unit and zero (`ctx.one()` and `ctx.zero()` are the
# Grassmannian's own unit and zero).
EXPORTS = """
ChowElement E_value FanoDatabase FanoNumericalInvariants FanoRecord FormalBundle GradedRing
GrassmannContext HypersurfaceModel PolyElement RamificationVerdict
SingularStratum SourceInvariants SurfaceIntersectionData
ThreefoldIntersectionData TruncatedPolynomialRing WeightVector
boundedness_verdict canonical_degree chern chern_class chi_surface chi_threefold
conic_normal_bundle_degrees cotangent_twist cotangent_twist_lmin default_database
degree_bound degree_from_multiplier derive_fano_invariants double_cover_model dual
expected_line_family_dim ext_power fano_db feasibility_witnesses feasible_multipliers
generic_iso_exists giambelli integrate is_generated line_bundle line_normal_bundle_options
line_ring load_database lookup max_multiplier multiply
noether_lefschetz_threshold noether_surface_fano normalize pieri quadric_degree_bound
quadric_multiplier_bound ramification_feasibility riemann_roch rings schubert sigma
singular_strata source_invariants sym_power tautological_dual
top_chern trivial_bundle twist_line validate whitney_sum wps
""".split()


def _modules_after(code: str, *options: str) -> tuple[set[str], str]:
    """Every module a fresh interpreter, started with ``options``, has loaded
    after running ``code``, and what ``code`` printed."""
    probe = code + "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, *options, "-c", probe],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    *printed, modules = proc.stdout.splitlines()
    return set(json.loads(modules)), "\n".join(printed)


def _loaded_after(code: str) -> tuple[set[str], str]:
    """The fanocalc modules and ``fractions`` loaded by a fresh interpreter
    after running ``code``, and what ``code`` printed."""
    modules, printed = _modules_after(code)
    return {m for m in modules if m.split(".")[0] in ("fanocalc", "fractions")}, printed


def _main(argv) -> str:
    return f"from fanocalc.cli import main\nmain({list(argv)!r})"


def _cli(*argv: str) -> tuple[set[str], dict]:
    loaded, printed = _loaded_after(_main(argv))
    return loaded, json.loads(printed)


def test_import_loads_no_submodule():
    loaded, _ = _loaded_after("import fanocalc")
    assert loaded == {"fanocalc"}


def test_db_list_loads_no_algebra():
    loaded, doc = _cli("--json", "db", "list")
    assert doc["status"] == "ok" and len(doc["result"]) == 19
    assert loaded == {"fanocalc", "fanocalc.cli", "fanocalc.fano_db", "fanocalc.wps"}
    assert not loaded & {"fanocalc.schubert", "fanocalc.chern", "fanocalc.rings", "fractions"}


def test_wps_generated_loads_only_wps():
    loaded, doc = _cli("--json", "wps", "generated", "1,2,3", "--m", "7")
    assert doc["result"] is True
    assert loaded == {"fanocalc", "fanocalc.cli", "fanocalc.wps"}


def test_neg_lines_loads_no_library_module():
    loaded, doc = _cli("--json", "bound", "neg-lines", "--j", "3")
    assert doc["result"] == {"j": 3, "m_bound": 3}
    assert loaded == {"fanocalc", "fanocalc.cli"}


# No command needs these: the records need no ``dataclasses`` (which brings
# ``inspect``, ``ast``, ``dis`` and ``tokenize``), the annotations no
# ``typing``, and the table's file name no ``pathlib``.
NEVER_LOADED = {"dataclasses", "inspect", "typing", "pathlib"}


@pytest.mark.parametrize(
    "argv",
    [
        ("--json", "bound", "E", "--target", "V4-quartic", "--twist", "2"),
        ("--json", "db", "list"),
        ("--json", "wps", "generated", "1,2,3", "--m", "7"),
    ],
)
def test_commands_load_no_dataclasses_inspect_typing_or_pathlib(argv):
    # -S: no site hook (a .pth file) imports any of them before the command
    modules, printed = _modules_after(_main(argv), "-S")
    assert json.loads(printed)["status"] == "ok"
    assert not modules & NEVER_LOADED


def test_lazy_imports_show_under_importtime():
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import fanocalc; fanocalc.sigma"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    timed = {line.rpartition("|")[2].strip() for line in proc.stderr.splitlines()}
    assert {"fanocalc.schubert", "fanocalc.chern", "fanocalc.rings"} <= timed


def test_exports_are_unchanged_and_resolve():
    assert fanocalc.__all__ == sorted(EXPORTS)
    assert len(EXPORTS) == 69
    for name in EXPORTS:
        value = getattr(fanocalc, name)
        home = getattr(value, "__name__", None) if name in fanocalc._EXPORTS else value.__module__
        assert home == f"fanocalc.{fanocalc._HOME[name]}"
    assert set(EXPORTS) <= set(dir(fanocalc))


def test_star_import_binds_every_export():
    namespace: dict = {}
    exec("from fanocalc import *", namespace)
    assert set(EXPORTS) <= set(namespace)
    assert namespace["sigma"] is fanocalc.schubert.sigma
    assert namespace["lookup"] is fanocalc.fano_db.lookup


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        fanocalc.no_such_name
    assert not hasattr(fanocalc, "cli_main")
    with pytest.raises(ImportError):
        exec("from fanocalc import no_such_name", {})
