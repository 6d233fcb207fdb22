"""The package's public surface."""

from __future__ import annotations

import importlib
import inspect
import pkgutil

import quasirep
from quasirep import verify

# every parameter with a default in the public surface; a new one fails here
# until it is added on purpose
OPTIONAL_PARAMETERS = {
    "approx.defect_direct:agreement_tol",
    "approx.minor_construction:seed",
    "approx.minor_construction:subspace",
    "cli.main:argv",
    "errors.FileFormatError.__init__:line",
    "groups.from_permutation_generators:name",
    "groups.from_table:name",
    "irreps.decompose:seed",
    "sampling.haar_basis:stack",
    "twirl.error_term_audit:seed",
    "verify.CheckResult.__init__:error",
    "verify.Comparison.__init__:slack",
    "verify.Comparison.__init__:timing",
    "verify.RunManifest.__init__:checks",
    "verify.VerifyContext.__init__:seed",
    "verify.run_battery:progress",
    "verify.run_battery:scope",
    "verify.run_battery:seed",
}


def _modules():
    """(name, module) for every module of the package."""
    for info in pkgutil.iter_modules(quasirep.__path__):
        yield info.name, importlib.import_module(f"quasirep.{info.name}")


def test_every_export_resolves():
    missing = [f"{name}.{export}" for name, module in _modules()
               for export in getattr(module, "__all__", ()) if not hasattr(module, export)]
    assert missing == []


def test_every_export_lives_in_its_module():
    # the README's module map: each class and function is exported by the
    # module that defines it, and by no other
    moved = [f"{name}.{export} ({obj.__module__})" for name, module in _modules()
             for export in getattr(module, "__all__", ())
             if (inspect.isclass(obj := getattr(module, export)) or inspect.isfunction(obj))
             and obj.__module__ != module.__name__]
    assert moved == []


def _public_callables():
    """(label, callable) for each function in a module's __all__, and each
    exported class's __init__ and public methods."""
    for module_name, module in _modules():
        for name in getattr(module, "__all__", ()):
            obj = getattr(module, name)
            label = f"{module_name}.{name}"
            if inspect.isclass(obj):
                yield f"{label}.__init__", obj.__init__
                for attr, member in vars(obj).items():
                    if not attr.startswith("_") and inspect.isfunction(member):
                        yield f"{label}.{attr}", member
            elif inspect.isfunction(obj):
                yield label, obj


def test_optional_parameters_are_the_pinned_set():
    found = set()
    for label, func in _public_callables():
        params = inspect.signature(func).parameters.values()
        found |= {f"{label}:{p.name}" for p in params if p.default is not p.empty}
    assert found == OPTIONAL_PARAMETERS


def test_reprs_and_the_first_failure_of_a_passing_manifest(a5_table, s3_reducible):
    assert repr(a5_table.group) == "FiniteGroup('alternating(5)', order=60)"
    assert repr(a5_table) == "IrrepTable(group='alternating(5)', dims=[1, 3, 3, 4, 5])"
    assert (repr(a5_table.irreps[1])
            == "UnitaryRep(group='alternating(5)', dim=3, irreducible)")
    assert repr(s3_reducible) == "UnitaryRep(group='symmetric(3)', dim=3, reducible)"
    passing = verify.CheckResult("A1", "stub", [verify.Comparison("x", "<=", 0.0, 1.0)], 0.0)
    manifest = verify.RunManifest("quasirep test", "fast", 0, "now", 0.0, [passing])
    assert manifest.passed and manifest.first_failure() is None
