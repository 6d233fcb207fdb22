"""End-to-end command-line tests, run in process through main()."""

from __future__ import annotations

import csv
import io
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from quasirep import cli, groups, irreps, verify


@pytest.fixture(scope="module")
def cache(tmp_path_factory):
    """Shared cache directory so each named group is built once."""
    return str(tmp_path_factory.mktemp("clicache"))


def read_csv(text):
    return list(csv.DictReader(io.StringIO(text)))


def test_group_text_output(capsys, cache):
    code = cli.main(["group", "cyclic", "6", "--cache-dir", cache])
    out = capsys.readouterr().out
    assert code == 0
    assert "order=6" in out and "classes=6" in out
    assert out.splitlines()[1].startswith("hash=")


def test_group_json_output(capsys, cache):
    code = cli.main(["group", "quaternion8", "--cache-dir", cache,
                     "--format", "json"])
    assert code == 0
    info = json.loads(capsys.readouterr().out)
    assert info["order"] == 8
    assert info["classes"] == 5
    assert sum(info["class_sizes"]) == 8


def test_group_from_file(tmp_path, capsys, cache):
    path = tmp_path / "d3.grp"
    groups.save_group(groups.named("dihedral", 3), str(path))
    code = cli.main(["group", "file", str(path)])
    assert code == 0
    assert "order=6" in capsys.readouterr().out


def test_group_corrupt_file_is_input_error(tmp_path, capsys):
    path = tmp_path / "bad.grp"
    path.write_text("not a group file\n")
    code = cli.main(["group", "file", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:")
    assert "line 1" in err


def test_unknown_family_is_input_error(capsys, cache):
    code = cli.main(["group", "nosuch", "3", "--cache-dir", cache])
    assert code == 2
    assert capsys.readouterr().err.startswith("error:")


_BAD_SWEEP = ["sweep", "--group", "alternating", "5", "--dpsi", "1", "--rho-dim", "5"]


@pytest.mark.parametrize("spec", [
    ["group", "quaternion8", "5"], ["group", "cyclic"], ["group", "psl2", "7", "7"],
    ["group", "product", "2", "3"],
    # squared in the pair scan, a negative threshold would act as positive
    # and nan would match no pair
    [*_BAD_SWEEP, "--tolerance", "-10"], [*_BAD_SWEEP, "--tolerance", "nan"],
    [*_BAD_SWEEP, "--tolerance", "inf"],
    # DIR is an existing directory: it can be neither read as a group file
    # nor replaced by --out
    ["group", "file", "DIR"], ["group", "cyclic", "4", "--out", "DIR"],
    # the tolerance is checked before any work, also when a sweep has no rows
    ["sweep", "--group", "cyclic", "4", "--dpsi", "5:4", "--tolerance", "nan"],
    [*_BAD_SWEEP[:-1], "99", "--tolerance", "-1"],
    # below 1e-11 a threshold counts the roundoff of genuine representations
    [*_BAD_SWEEP, "--tolerance", "0"], [*_BAD_SWEEP, "--tolerance", "1e-12"],
])
def test_wrong_parameters_are_input_errors(tmp_path, capsys, cache, spec):
    directory = tmp_path / "dir"
    directory.mkdir()
    argv = [str(directory) if token == "DIR" else token for token in spec]
    code = cli.main([*argv, "--cache-dir", cache])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    # the message names the path the user gave, never the writer's temp file
    assert ".tmp." not in err
    if "DIR" in spec:
        assert str(directory) in err
    if "--tolerance" in spec:
        assert "1e-11" in err
    assert list(tmp_path.rglob("*.tmp.*")) == []


def test_family_is_checked_before_the_cache(tmp_path, monkeypatch, capsys):
    # valid groups saved where an unknown family or a wrong arity would point
    # the group cache lookup
    cache = tmp_path / "c"
    cache.mkdir()
    d3 = groups.named("dihedral", 3)
    groups.save_group(d3, str(tmp_path / "x-4.grp"))
    groups.save_group(d3, str(cache / "cyclic-4-4.grp"))
    read = []
    monkeypatch.setattr(cli, "load_group", read.append)
    for spec in (["../x", "4"], ["cyclic", "4", "4"]):
        assert cli.main(["group", *spec, "--cache-dir", str(cache)]) == 2
        assert capsys.readouterr().err.startswith("error:")
    assert read == []


def test_group_cache_is_named_by_parsed_parameters(tmp_path, capsys):
    for param in ("04", "+4", "4"):
        assert cli.main(["group", "cyclic", param, "--cache-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    assert [p.name for p in tmp_path.glob("*.grp")] == ["cyclic-4.grp"]


def test_irreps_text_output(capsys, cache):
    code = cli.main(["irreps", "cyclic", "2", "--cache-dir", cache])
    out = capsys.readouterr().out
    assert code == 0
    assert "dims=1,1" in out
    assert "d_min=1" in out
    assert "sum_d2=2" in out


def test_irreps_json_output(capsys, cache):
    code = cli.main(["irreps", "symmetric", "3", "--format", "json",
                     "--cache-dir", cache])
    assert code == 0
    info = json.loads(capsys.readouterr().out)
    assert list(info) == ["group", "order", "dims", "d_min", "frobenius_schur",
                          "sum_d2", "hash"]
    assert info["dims"] == [1, 1, 2] and info["sum_d2"] == 6
    assert info["frobenius_schur"] == [1, 1, 1]


def test_sweep_matches_closed_form(capsys, cache):
    code = cli.main(["sweep", "--group", "alternating", "5", "--dpsi", "1:5",
                     "--rho-dim", "5", "--cache-dir", cache])
    captured = capsys.readouterr()
    assert code == 0
    rows = read_csv(captured.out)
    assert captured.out.splitlines()[0] == ",".join(cli._SWEEP_COLUMNS)
    assert len(rows) == 5
    for row in rows:
        assert abs(float(row["defect"]) - float(row["thm4_value"])) < 1e-7
        assert row["construction"] == "minor"
        assert int(row["d_rho"]) == 5
    assert "beat the random baseline" in captured.err


def test_sweep_empty_range(capsys, cache):
    code = cli.main(["sweep", "--group", "cyclic", "6", "--dpsi", "5:4",
                     "--cache-dir", cache])
    out = capsys.readouterr().out
    assert code == 0
    assert out == ",".join(cli._SWEEP_COLUMNS) + "\n"


def test_sweep_json(capsys, cache):
    code = cli.main(["sweep", "--group", "alternating", "5", "--dpsi", "2",
                     "--rho-dim", "4", "--format", "json", "--cache-dir", cache])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert all(row["d_psi"] == 2 for row in payload["rows"])


def test_sweep_polar(capsys, cache):
    code = cli.main(["sweep", "--group", "alternating", "5", "--dpsi", "2:3",
                     "--rho-dim", "4", "--construction", "polar",
                     "--cache-dir", cache])
    assert code == 0
    rows = read_csv(capsys.readouterr().out)
    assert [(row["construction"], row["d_psi"]) for row in rows] == [
        ("polar", "2"), ("polar", "3")]
    for row in rows:
        assert float(row["normalized_defect"]) >= 0.0


def test_polar_sweep_of_psl2_11_beats_random_under_the_ceiling(tmp_path, capsys):
    # every d_psi of both 12-dim irreps: the SVD route (d_psi <= 6), the
    # complement route (d_psi >= 7) and its SVD fallback, on the screened
    # scan at order 660
    code = cli.main(["sweep", "--group", "psl2", "11", "--construction", "polar",
                     "--rho-dim", "12", "--dpsi", "1:12", "--format", "json",
                     "--cache-dir", str(tmp_path)])
    assert code == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert len(rows) == 24
    bad = [(r["irrep"], r["d_psi"]) for r in rows
           if not (r["normalized_defect"] < 1
                   and r["agreement_prob"] <= r["cor1_bound"] + 1e-9)]
    assert bad == []


def test_sweep_tolerance_flag_changes_agreement(capsys, cache):
    # with an absurdly loose entry threshold every pair counts as agreeing
    code = cli.main(["sweep", "--group", "alternating", "5", "--dpsi", "1",
                     "--rho-dim", "5", "--tolerance", "10.0",
                     "--cache-dir", cache])
    assert code == 0
    rows = read_csv(capsys.readouterr().out)
    assert float(rows[0]["agreement_prob"]) == 1.0


@pytest.mark.parametrize("argv", [
    ["group", "cyclic", "4"], ["irreps", "alternating", "5"],
    ["hom", "--source", "cyclic", "4", "--target", "cyclic", "2"],
    ["twirl", "--d-rho", "6", "--d-psi", "3"], ["verify", "fast"],
])
def test_tolerance_is_sweep_only(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main([*argv, "--tolerance", "5"])
    assert exc.value.code == 2
    assert "--tolerance" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["hom", "--source", "cyclic", "4", "--target", "cyclic", "2", "--seeds", "0"],
    ["hom", "--source", "cyclic", "4", "--target", "cyclic", "2", "--seeds", "-2"],
    ["sweep", "--group", "cyclic", "4", "--dpsi", "1", "--seeds", "-1"],
    ["sweep", "--group", "cyclic", "4", "--dpsi", "1", "--seeds", "two"],
])
def test_seeds_must_be_positive(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert "error: argument --seeds" in capsys.readouterr().err


@pytest.mark.parametrize("argv, flag", [
    (["verify", "fast", "--seed", "-1"], "--seed"),
    (["irreps", "cyclic", "4", "--seed", "-1"], "--seed"),
    (["sweep", "--group", "cyclic", "4", "--dpsi", "1", "--rho-dim", "0"], "--rho-dim"),
    *[(["sweep", "--group", "cyclic", "4", "--dpsi", dpsi], "--dpsi")
      for dpsi in ("0", "0:3", "x", "-2", "1:x", "3:")],
], ids=["verify", "irreps", "sweep", "dpsi-0", "dpsi-0:3", "dpsi-x", "dpsi-neg",
        "dpsi-1:x", "dpsi-3:"])
def test_seed_and_rho_dim_are_checked_at_parse(capsys, argv, flag):
    # a negative seed, an empty irrep filter or a compression dimension
    # below 1 is an input error, not a failed check or an empty table
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert f"error: argument {flag}" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["group", "cyclic", "4"],
    ["irreps", "cyclic", "4"],
    ["twirl", "--d-rho", "6", "--d-psi", "3"],
    ["verify", "fast"],
], ids=lambda argv: argv[0])
def test_csv_only_where_there_are_rows(capsys, argv):
    # only sweep and hom print rows; the other commands have no CSV form
    with pytest.raises(SystemExit) as exc:
        cli.main([*argv, "--format", "csv"])
    assert exc.value.code == 2
    assert "error: argument --format" in capsys.readouterr().err


def test_sweep_out_is_deterministic(tmp_path, capsys, cache):
    args = ["sweep", "--group", "alternating", "5", "--dpsi", "1:3",
            "--rho-dim", "4", "--seeds", "2", "--seed", "5",
            "--cache-dir", cache]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli.main(args + ["--out", str(a)]) == 0
    assert cli.main(args + ["--out", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_hom_identity(capsys, cache):
    code = cli.main(["hom", "--source", "cyclic", "6", "--target", "cyclic", "6",
                     "--kind", "identity", "--cache-dir", cache])
    out = capsys.readouterr().out
    assert code == 0
    assert "agreement=1.000000" in out
    assert "[ok]" in out


def test_hom_genuine_reduction(capsys, cache):
    code = cli.main(["hom", "--source", "cyclic", "6", "--target", "cyclic", "3",
                     "--kind", "genuine", "--cache-dir", cache])
    out = capsys.readouterr().out
    assert code == 0
    assert "agreement=1.000000" in out


def test_hom_into_the_trivial_group(tmp_path, capsys):
    # cyclic(1) has no nontrivial irrep: every map is a homomorphism, and
    # theorem 2 reports the bound 1 with no sigma (dim 0)
    code = cli.main(["hom", "--source", "cyclic", "4", "--target", "cyclic", "1",
                     "--format", "json", "--cache-dir", str(tmp_path)])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert len(report["rows"]) == 10
    for row in report["rows"]:
        assert (row["agreement_prob"], row["thm2_bound"], row["thm2_sigma_dim"],
                row["thm3_bound"], row["r_h"]) == (1.0, 1.0, 0, 1.0, 1.0)
    assert report["summary"]["violated"] is False


def test_irreps_of_the_widest_groups(tmp_path, capsys):
    # the two supported groups with the most classes: cyclic(700), abelian,
    # from the class algebra alone, and dihedral(350), whose 174 irreps of
    # dim 2 come from the probe
    for spec, dims in ((["cyclic", "700"], [1] * 700),
                       (["dihedral", "350"], [1] * 4 + [2] * 174)):
        code = cli.main(["irreps", *spec, "--format", "json", "--cache-dir", str(tmp_path)])
        assert code == 0
        info = json.loads(capsys.readouterr().out)
        assert (info["order"], info["dims"], info["sum_d2"]) == (700, dims, 700)


def test_genuine_hom_of_cyclic_700(tmp_path, capsys):
    # the longest Cayley tree of a supported group: 699 layers
    code = cli.main(["hom", "--source", "cyclic", "700", "--target", "cyclic", "7",
                     "--kind", "genuine", "--format", "json", "--cache-dir", str(tmp_path)])
    assert code == 0
    summary = json.loads(capsys.readouterr().out)["summary"]
    assert summary["max_agreement"] == 1.0 and summary["violated"] is False


# hom's text output as it printed when both groups were decomposed: the
# ceilings read only irrep degrees, so the character tables alone must give
# the same bytes
HOM_OUTPUTS = {
    "--source alternating 6 --target symmetric 3 --kind balanced": """\
seed=0 agreement=0.164907 epsilon=0.000000 thm2=0.723607 thm3=0.737375
seed=1 agreement=0.165162 epsilon=0.000000 thm2=0.723607 thm3=0.737375
seed=2 agreement=0.164977 epsilon=0.000000 thm2=0.723607 thm3=0.737375
seed=3 agreement=0.165756 epsilon=0.000000 thm2=0.723607 thm3=0.737375
seed=4 agreement=0.165378 epsilon=0.000000 thm2=0.723607 thm3=0.737375
seed=5 agreement=0.166535 epsilon=0.000000 thm2=0.723607 thm3=0.737375
seed=6 agreement=0.165347 epsilon=0.000000 thm2=0.723607 thm3=0.737375
seed=7 agreement=0.171420 epsilon=0.000000 thm2=0.723607 thm3=0.737375
seed=8 agreement=0.166667 epsilon=0.000000 thm2=0.723607 thm3=0.737375
seed=9 agreement=0.171620 epsilon=0.000000 thm2=0.723607 thm3=0.737375
max agreement 0.171620 vs min bound 0.723607 [ok]
""",
    "--source psl2 11 --target symmetric 3 --kind random": """\
seed=0 agreement=0.164979 epsilon=0.007300 thm2=0.766328 thm3=0.738592
seed=1 agreement=0.165957 epsilon=0.007879 thm2=0.767988 thm3=0.738688
seed=2 agreement=0.166352 epsilon=0.001074 thm2=0.739996 thm3=0.737554
seed=3 agreement=0.166359 epsilon=0.003251 thm2=0.752114 thm3=0.737917
seed=4 agreement=0.166233 epsilon=0.007052 thm2=0.765596 thm3=0.738550
seed=5 agreement=0.167195 epsilon=0.003168 thm2=0.751749 thm3=0.737903
seed=6 agreement=0.166348 epsilon=0.002837 thm2=0.750241 thm3=0.737848
seed=7 agreement=0.166508 epsilon=0.002039 thm2=0.746182 thm3=0.737715
seed=8 agreement=0.165925 epsilon=0.002231 thm2=0.747226 thm3=0.737747
seed=9 agreement=0.166387 epsilon=0.009256 thm2=0.771711 thm3=0.738918
max agreement 0.167195 vs min bound 0.737554 [ok]
""",
    "--source psl2 11 --target psl2 11 --kind identity": """\
seed=0 agreement=1.000000 epsilon=0.000000 thm2=1.000000 thm3=1.000000
max agreement 1.000000 vs min bound 1.000000 [ok]
""",
    "--source cyclic 700 --target cyclic 7 --kind genuine": """\
seed=0 agreement=1.000000 epsilon=0.000000 thm2=1.000000 thm3=1.000000
max agreement 1.000000 vs min bound 1.000000 [ok]
""",
    "--source alternating 5 --target cyclic 1 --kind random --seeds 3": """\
seed=0 agreement=1.000000 epsilon=0.000000 thm2=1.000000 thm3=1.000000
seed=1 agreement=1.000000 epsilon=0.000000 thm2=1.000000 thm3=1.000000
seed=2 agreement=1.000000 epsilon=0.000000 thm2=1.000000 thm3=1.000000
max agreement 1.000000 vs min bound 1.000000 [ok]
""",
}


@pytest.mark.parametrize("command", HOM_OUTPUTS)
def test_hom_builds_no_irrep_and_prints_the_pinned_bytes(monkeypatch, capsys, cache,
                                                         command):
    def refuse(*args, **kwargs):
        raise AssertionError("hom decomposed a group")

    monkeypatch.setattr(cli, "decompose", refuse)
    monkeypatch.setattr(irreps, "decompose", refuse)
    code = cli.main(["hom", *command.split(), "--cache-dir", cache])
    assert code == 0
    assert capsys.readouterr().out == HOM_OUTPUTS[command]


def save_relabelled(group, path, name):
    """Save group with its element labels permuted so 1 is not a generator."""
    perm = np.roll(np.arange(group.order), 2)        # new label of old x
    inverse = np.argsort(perm)
    table = perm[group.table[inverse][:, inverse]]
    groups.save_group(groups.from_table(table, name=name), str(path))


def test_hom_genuine_relabelled_cyclic_files(tmp_path, capsys, cache):
    # cyclicity and the generator come from the table, not the name
    for name in ("cyclic(6)", "z6-relabelled"):
        path = tmp_path / f"{name}.grp"
        save_relabelled(groups.named("cyclic", 6), path, name)
        code = cli.main(["hom", "--source", "file", str(path), "--target",
                         "cyclic", "3", "--kind", "genuine", "--cache-dir", cache])
        captured = capsys.readouterr()
        assert code == 0, captured.err
        assert "agreement=1.000000" in captured.out


def test_hom_genuine_needs_cyclic_groups(capsys, cache):
    code = cli.main(["hom", "--source", "symmetric", "3", "--target", "cyclic", "3",
                     "--kind", "genuine", "--cache-dir", cache])
    assert code == 2
    assert "cyclic" in capsys.readouterr().err


_HOM = ["hom", "--source", "cyclic"]


@pytest.mark.parametrize("argv, message", [
    (["group", "file", "a", "b"], "takes exactly one path"),
    (["group", "cyclic", "x"], "is not an integer"),
    (["group", "cyclic", "6000"], "exceeds the order cap"),
    (["group", "dihedral", "0"], "needs n >= 1"),
    (["group", "dihedral", "3000"], "exceeds the order cap"),
    ([*_HOM, "4", "--target", "cyclic", "2", "--kind", "identity"],
     "identical source and target"),
    ([*_HOM, "6", "--target", "cyclic", "4", "--kind", "genuine"], "dividing"),
], ids=["file-two-paths", "non-integer", "cyclic-cap", "dihedral-0", "dihedral-cap",
        "identity-mismatch", "genuine-not-dividing"])
def test_refusals_name_their_cause(tmp_path, capsys, argv, message):
    assert cli.main([*argv, "--cache-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err


@pytest.mark.parametrize("argv, message", [
    (["group"], "the following arguments are required: spec"),
    ([*_HOM, "4", "--target", "cyclic", "2", "--kind", "other"],
     "argument --kind: invalid choice"),
], ids=["empty-spec", "unknown-kind"])
def test_parser_refuses_before_the_commands_run(tmp_path, capsys, argv, message):
    # so neither an empty group spec nor an unknown map kind reaches a command
    with pytest.raises(SystemExit) as exc:
        cli.main([*argv, "--cache-dir", str(tmp_path)])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


def test_hom_balanced_csv(capsys, cache):
    code = cli.main(["hom", "--source", "symmetric", "3", "--target", "cyclic", "3",
                     "--kind", "balanced", "--seeds", "3", "--format", "csv",
                     "--cache-dir", cache])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out.splitlines()[0] == ",".join(cli._HOM_COLUMNS)
    rows = read_csv(captured.out)
    assert len(rows) == 3
    for row in rows:
        bound = min(float(row["thm2_bound"]), float(row["thm3_bound"]))
        assert float(row["agreement_prob"]) <= bound + 1e-12


def test_hom_random_json(capsys, cache):
    code = cli.main(["hom", "--source", "symmetric", "3", "--target", "cyclic", "3",
                     "--kind", "random", "--seeds", "2", "--seed", "4",
                     "--format", "json", "--cache-dir", cache])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert [list(row) for row in payload["rows"]] == [list(cli._HOM_COLUMNS)] * 2
    assert [row["seed"] for row in payload["rows"]] == [4, 5]
    summary = payload["summary"]
    assert summary["kind"] == "random" and summary["violated"] is False
    assert summary["max_agreement"] == max(
        row["agreement_prob"] for row in payload["rows"])


@pytest.mark.parametrize("argv, fmt", [
    (argv, fmt)
    for argv, formats in (
        (["group", "dihedral", "3"], (None, "json")),
        (["irreps", "dihedral", "3"], (None, "json")),
        (["sweep", "--group", "dihedral", "4", "--dpsi", "1"], (None, "csv", "json")),
        (["hom", "--source", "dihedral", "3", "--target", "cyclic", "2",
          "--seeds", "2"], (None, "csv", "json")),
        (["twirl", "--d-rho", "5", "--d-psi", "2"], (None, "json")),
    )
    for fmt in formats
], ids=lambda v: v[0] if isinstance(v, list) else str(v))
def test_out_file_holds_the_stdout_bytes(tmp_path, capsys, cache, argv, fmt):
    argv = [*argv, "--cache-dir", cache] + (["--format", fmt] if fmt else [])
    assert cli.main(argv) == 0
    printed = capsys.readouterr().out
    out = tmp_path / "out"
    assert cli.main([*argv, "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert printed and out.read_bytes() == printed.encode()


def test_twirl_text(capsys):
    code = cli.main(["twirl", "--d-rho", "6", "--d-psi", "3"])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "d_rho=6 d_psi=3"
    assert len(lines) == 6
    for line in lines[1:]:
        exact, gram = (float(field.split("=")[1]) for field in line.split()[1:])
        assert abs(exact - gram) <= 1e-12


def test_twirl_json_shows_gram(capsys):
    code = cli.main(["twirl", "--d-rho", "6", "--d-psi", "3", "--format", "json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {"exact", "gram", "max_abs_difference"}
    assert payload["max_abs_difference"] <= 1e-12
    assert set(payload["gram"]) == {"d_rho", "d_psi", "coefficients"}


def test_samples_flag_is_gone(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["twirl", "--d-rho", "6", "--d-psi", "3", "--samples", "30"])
    assert exc.value.code == 2
    assert "--samples" in capsys.readouterr().err


def test_twirl_degenerate_dimension(capsys):
    code = cli.main(["twirl", "--d-rho", "3", "--d-psi", "1"])
    assert code == 2
    assert capsys.readouterr().err.startswith("error:")


def test_cache_survives_corruption(tmp_path, capsys):
    cache_dir = tmp_path / "c"
    assert cli.main(["group", "dihedral", "4", "--cache-dir", str(cache_dir)]) == 0
    cached = cache_dir / "dihedral-4.grp"
    assert cached.exists()
    first = capsys.readouterr().out
    cached.write_text("garbage\n")
    assert cli.main(["group", "dihedral", "4", "--cache-dir", str(cache_dir)]) == 0
    captured = capsys.readouterr()
    assert "rebuilding stale cache" in captured.err
    assert captured.out == first
    assert groups.load_group(str(cached)).order == 8


def test_non_utf8_cache_entry_is_rebuilt(tmp_path, capsys):
    cache_dir = tmp_path / "c"
    argv = ["group", "symmetric", "3", "--cache-dir", str(cache_dir)]
    assert cli.main(argv) == 0
    first = capsys.readouterr().out
    cached = cache_dir / "symmetric-3.grp"
    data = bytearray(cached.read_bytes())
    data[data.index(b"order=")] = 0xFF
    cached.write_bytes(bytes(data))
    assert cli.main(argv) == 0
    captured = capsys.readouterr()
    assert "rebuilding stale cache" in captured.err
    assert "line 3: byte 0xff is not UTF-8" in captured.err
    assert captured.out == first
    assert groups.load_group(str(cached)).order == 6


@pytest.mark.parametrize("argv", [
    ["irreps"],
    ["sweep", "--dpsi", "1:2", "--group"],
    ["hom", "--target", "cyclic", "2", "--seeds", "2", "--source"],
])
def test_file_spec_commands_use_the_cache(tmp_path, capsys, argv):
    # a file spec and a named spec of one group: repeated runs print the same
    # bytes, and the cache holds groups only, never irrep tables
    path = tmp_path / "s3.grp"
    groups.save_group(groups.named("symmetric", 3), str(path))
    cache_dir = tmp_path / "c"
    for spec in (["file", str(path.resolve())], ["symmetric", "3"]):
        full = argv + spec + ["--cache-dir", str(cache_dir)]
        assert cli.main(full) == 0
        first = capsys.readouterr().out
        assert cli.main(full) == 0
        assert capsys.readouterr().out == first
    names = sorted(p.name for p in cache_dir.iterdir())
    assert names and all(name.endswith(".grp") for name in names), names


def test_irrep_cache_is_keyed_by_group(tmp_path, capsys):
    # one group reached through two files and a named spec prints one table,
    # and the only cache entry is the named group itself
    cache_dir = tmp_path / "c"
    outputs = []
    for sub in ("a", "b"):
        (tmp_path / sub).mkdir()
        groups.save_group(groups.named("symmetric", 3), str(tmp_path / sub / "s3.grp"))
        assert cli.main(["irreps", "file", str(tmp_path / sub / "s3.grp"),
                         "--cache-dir", str(cache_dir)]) == 0
        outputs.append(capsys.readouterr().out)
    assert cli.main(["irreps", "symmetric", "3", "--cache-dir", str(cache_dir)]) == 0
    outputs.append(capsys.readouterr().out)
    assert outputs[0] and outputs.count(outputs[0]) == 3
    assert sorted(p.name for p in cache_dir.iterdir()) == ["symmetric-3.grp"]


def test_stale_irrep_files_are_ignored(tmp_path, capsys):
    # irrep tables saved by earlier versions, hash- or spec-named, are never read
    argv = ["irreps", "symmetric", "3", "--cache-dir", str(tmp_path / "fresh")]
    assert cli.main(argv) == 0
    expected = capsys.readouterr().out
    cache_dir = tmp_path / "c"
    cache_dir.mkdir()
    digest = groups.group_hash(groups.named("symmetric", 3))
    stale = [cache_dir / f"{digest}.s0.irr", cache_dir / "symmetric-3.s0.irr"]
    for path in stale:
        path.write_text("quasirep-irreps v2\nnot a table\n")
    assert cli.main(argv[:-1] + [str(cache_dir)]) == 0
    captured = capsys.readouterr()
    assert captured.out == expected
    assert captured.err == ""
    for path in stale:
        assert path.read_text() == "quasirep-irreps v2\nnot a table\n"


def test_cache_dir_defaults_to_dot_quasirep(tmp_path, monkeypatch, capsys):
    # --cache-dir is the only cache setting: QUASIREP_CACHE is not read
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("QUASIREP_CACHE", str(tmp_path / "envcache"))
    assert cli.main(["group", "cyclic", "4"]) == 0
    capsys.readouterr()
    assert (tmp_path / ".quasirep" / "cyclic-4.grp").exists()
    assert not (tmp_path / "envcache").exists()


def stub_battery(passing):
    def fake(scope, seed=0, progress=None):
        checks = []
        for cid in ("A2", "A3"):
            good = passing or cid != "A2"
            measured = 0.0 if good else 2.0
            result = verify.CheckResult(
                check_id=cid, description="stub check",
                comparisons=[verify.Comparison("residual", "<=", measured, 1.0)],
                elapsed_s=0.0)
            if progress:
                progress(result)
            checks.append(result)
        return verify.RunManifest(tool="quasirep test", scope=scope, seed=seed,
                                  generated_at="2026-01-01T00:00:00+00:00",
                                  wall_clock_s=0.0, checks=checks)
    return fake


def test_verify_passing_paths(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "run_battery", stub_battery(passing=True))
    assert cli.main(["verify", "fast"]) == 0
    captured = capsys.readouterr()
    assert "A2 PASS" in captured.out and "A3 PASS" in captured.out

    out = tmp_path / "manifest.json"
    assert cli.main(["verify", "fast", "--seed", "7", "--out", str(out)]) == 0
    capsys.readouterr()
    manifest = json.loads(out.read_text())
    assert manifest["passed"] is True
    assert manifest["seed"] == 7
    assert [c["id"] for c in manifest["checks"]] == ["A2", "A3"]


def test_verify_json_routes_progress_to_stderr(monkeypatch, capsys):
    monkeypatch.setattr(cli, "run_battery", stub_battery(passing=True))
    assert cli.main(["verify", "fast", "--format", "json"]) == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out)["passed"] is True
    assert "A2 PASS" in captured.err


def test_verify_failure_names_first_check(monkeypatch, capsys):
    monkeypatch.setattr(cli, "run_battery", stub_battery(passing=False))
    assert cli.main(["verify", "fast"]) == 1
    captured = capsys.readouterr()
    assert "A2 FAIL" in captured.out
    assert "first failing check: A2" in captured.err
    assert "residual" in captured.err


def test_verify_reports_a_raising_check(monkeypatch, capsys):
    # the real battery with cheap checks, one of which raises
    def check(ctx):
        return [verify.Comparison("stub", "<=", 0.0, 1.0)]

    def broken(ctx):
        raise RuntimeError("probe went astray")

    monkeypatch.setattr(verify, "CHECKS", {
        cid: ("stub check", broken if cid == "A3" else check)
        for cid in verify.FULL_CHECK_IDS})
    assert cli.main(["verify", "fast"]) == 1
    captured = capsys.readouterr()
    assert "A2 PASS" in captured.out and "A3 FAIL" in captured.out
    assert "first failing check: A3 (stub check)" in captured.err
    assert "  error: RuntimeError: probe went astray\n" in captured.err


def test_python_m_runs_the_cli(tmp_path, capsys):
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    argv = ["group", "cyclic", "4", "--cache-dir", str(tmp_path)]
    done = subprocess.run([sys.executable, "-m", "quasirep", *argv],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert cli.main(argv) == 0
    assert done.stdout == capsys.readouterr().out
