"""The package's public surface."""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import pkgutil
from types import SimpleNamespace

import numpy as np
import pytest

import quasirep
from quasirep import approx, groups, homs, irreps, twirl, verify

# every parameter with a default in the public surface; a new one fails here
# until it is added on purpose
OPTIONAL_PARAMETERS = {
    "approx.minor_construction:seed",
    "cli.main:argv",
    "errors.FileFormatError.__init__:line",
    "groups.from_permutation_generators:name",
    "groups.from_table:name",
    "irreps.decompose:seed",
    "sampling.haar_basis:stack",
    "verify.CheckResult.__init__:error",
    "verify.Comparison.__init__:slack",
    "verify.Comparison.__init__:timing",
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


# one builder per value type, from the session fixtures s3, s3_table and a5_table
VALUE_TYPES = {
    "FiniteGroup": lambda fx: fx.s3,
    "MatrixFunction": lambda fx: approx.haar_baseline(fx.s3, 2, 0),
    "UnitaryRep": lambda fx: fx.s3_table.irreps[2],
    "IrrepDegrees": lambda fx: irreps.degrees(fx.s3),
    "IrrepTable": lambda fx: fx.s3_table,
    "PolarFunction": lambda fx: approx.polar_construction(fx.a5_table.irreps[4], 2, 0),
    "DefectReport": lambda fx: approx.defect_direct(fx.s3_table.irreps[2], fx.s3_table),
    "GroupMap": lambda fx: homs.random_map(fx.s3, fx.s3, 0),
    "HomReport": lambda fx: homs.evaluate(homs.random_map(fx.s3, fx.s3, 0),
                                          fx.s3_table, fx.s3_table),
    "TwirlExpansion": lambda fx: twirl.twirl_exact(6, 3),
    "TwirlAudit": lambda fx: twirl.error_term_audit(fx.a5_table.irreps[4], 2, 0),
    "Comparison": lambda fx: verify.Comparison("x", "<=", 0.0, 1.0),
    "CheckResult": lambda fx: verify.run_check("A10", verify.VerifyContext()),
    "RunManifest": lambda fx: verify.RunManifest(
        "quasirep test", "fast", 0, "now", 0.0,
        [verify.run_check("A10", verify.VerifyContext())]),
}


def _public_attributes(value):
    """Every public name an instance holds or its class computes as a property."""
    held = {name for name in vars(value) if not name.startswith("_")}
    computed = {name for name, member in inspect.getmembers(type(value))
                if isinstance(member, property) and not name.startswith("_")}
    return sorted(held | computed)


@pytest.mark.parametrize("name", sorted(VALUE_TYPES))
def test_value_types_refuse_assignment_and_deletion(name, s3, s3_table, a5_table):
    value = VALUE_TYPES[name](SimpleNamespace(s3=s3, s3_table=s3_table, a5_table=a5_table))
    assert type(value).__name__ == name
    assert dataclasses.is_dataclass(value)
    attributes = _public_attributes(value)
    fields = {f.name for f in dataclasses.fields(value) if not f.name.startswith("_")}
    assert fields <= set(attributes)
    # a frozen dataclass refuses only its own field names on an instance of
    # a plain subclass, so UnitaryRep, IrrepTable and PolarFunction are
    # frozen dataclasses themselves, and what their constructors set (such
    # as character, irreps and dims) is refused like the rest
    held = dict(vars(value))
    for attr in [*attributes, "not_an_attribute"]:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, attr, None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(value, attr)
    assert vars(value).keys() == held.keys()
    assert all(vars(value)[k] is v for k, v in held.items())


def test_rebinding_the_matrices_raises_and_the_measurements_stand(s3):
    psi = approx.haar_baseline(s3, 2, 0)
    mean = psi.mean
    with pytest.raises(dataclasses.FrozenInstanceError):
        psi.matrices = 2 * psi.matrices
    assert psi.mean is mean
    assert np.array_equal(mean, psi.matrices.mean(axis=0))


def test_the_battery_results_hold_tuples():
    # the lists the checks return are copied into tuples, so a result
    # cannot gain or lose a comparison after its verdict is read
    comparisons = [verify.Comparison("x", "<=", 0.0, 1.0)]
    result = verify.CheckResult("A1", "stub", comparisons, 0.0)
    comparisons.append(verify.Comparison("y", "<=", 2.0, 1.0))
    manifest = verify.RunManifest("quasirep test", "fast", 0, "now", 0.0, [result])
    assert result.comparisons == (comparisons[0],) and result.passed
    assert manifest.checks == (result,) and manifest.passed


def test_public_tables_are_read_only():
    for table, key in ((twirl.CLASS_REPRESENTATIVES, "e"), (verify.CHECKS, "A1")):
        value = table[key]
        with pytest.raises(TypeError):
            table[key] = value
        with pytest.raises(TypeError):
            table["not_a_key"] = value
        assert table[key] is value


def test_a_group_map_holds_read_only_arrays(s3):
    f = homs.random_map(s3, s3, 0)
    with pytest.raises(ValueError, match="read-only"):
        f.values[0] = 1
    with pytest.raises(ValueError, match="read-only"):
        f.p_f[0] = 0.0


def test_save_group_writes_the_file_and_leaves_the_group_alone(tmp_path):
    # the digest is the group's own, formed from its table when first read;
    # saving writes the file and nothing into the group
    g, path = groups.named("symmetric", 3), str(tmp_path / "s3.grp")
    held = dict(vars(g))
    groups.save_group(g, path)
    assert vars(g).keys() == held.keys()
    assert all(vars(g)[k] is v for k, v in held.items())
    assert groups.group_hash(groups.load_group(path)) == groups.group_hash(g)
