"""The three workloads: their op lists, generated inputs and output checks.

Every op is the argv of one documented `quasirep` command with an explicit
`--cache-dir` and a `--seed` taken from the benchmark seed. A check reads the
op's parsed JSON output, whatever the exit code, and compares values with
tolerances, never bytes, so a faster kernel with different roundoff still
passes.
"""

from __future__ import annotations

import json

# group spec and order, the ladder of group sizes the package supports
LADDER = ((("alternating", "5"), 60), (("psl2", "7"), 168), (("sl2", "7"), 336),
          (("alternating", "6"), 360), (("psl2", "11"), 660))
LADDER_ORDERS = tuple(n for _, n in LADDER)

# (dim, Frobenius-Schur indicator) of every irrep, from the character tables;
# in each, sum d^2 is the order and sum fs * d is 1 + the number of involutions.
KNOWN_IRREPS = {
    60: [(1, 1), (3, 1), (3, 1), (4, 1), (5, 1)],
    168: [(1, 1), (3, 0), (3, 0), (6, 1), (7, 1), (8, 1)],
    336: [(1, 1), (3, 0), (3, 0), (4, 0), (4, 0), (6, -1), (6, -1), (6, 1),
          (7, 1), (8, -1), (8, 1)],
    360: [(1, 1), (5, 1), (5, 1), (8, 1), (8, 1), (9, 1), (10, 1)],
    660: [(1, 1), (5, 0), (5, 0), (10, 1), (10, 1), (11, 1), (12, 1), (12, 1)],
}
PSL27_CLASS_SIZES = [1, 21, 24, 24, 42, 56]

THM4_TOLERANCE = 1e-7     # the battery's A4 tolerance for the minor closed form
FILE_GROUP = ("psl2", 7)  # relabelled and saved for the `file <path>` ops


class Op:
    """One CLI invocation and the check its output must pass."""

    def __init__(self, label, argv, check, cached=True, order=None):
        self.label = label
        self.argv = argv
        self.check = check            # parsed JSON output -> error message or None
        self.cached = cached          # the CLI consults the cache for this op
        self.order = order            # group order, for irreps ops on one group
        self.is_file_spec = "file" in argv

    @property
    def command(self) -> str:
        return self.argv[0]


def parse(stdout):
    """The op's JSON output, or None when it printed none."""
    try:
        return json.loads(stdout)
    except ValueError:
        return None


def _irreps_check(order):
    expect = KNOWN_IRREPS[order]

    def check(info):
        got = sorted(zip(info["dims"], info["frobenius_schur"]))
        if info["order"] != order or info["sum_d2"] != order:
            return f"order {info['order']} sum_d2 {info['sum_d2']}, expected {order}"
        if got != expect:
            return f"(dim, fs) pairs {got}, expected {expect}"
        return None
    return check


def _sweep_check(rows_expected, construction):
    def check(info):
        rows = info["rows"]
        if len(rows) != rows_expected:
            return f"{len(rows)} rows, expected {rows_expected}"
        for row in rows:
            if construction == "minor":
                gap = abs(row["defect"] - row["thm4_value"])
                if not gap <= THM4_TOLERANCE:
                    return f"minor defect off its closed form by {gap:.3e}"
            elif row["ratio"] == 0.9 and not row["normalized_defect"] < 1.0:
                return f"polar normalized defect {row['normalized_defect']} >= 1"
        return None
    return check


def _hom_check(rows_expected):
    def check(info):
        rows = info["rows"]
        if len(rows) != rows_expected:
            return f"{len(rows)} rows, expected {rows_expected}"
        for row in rows:
            ceiling = min(row["thm2_bound"], row["thm3_bound"])
            if not row["agreement_prob"] <= ceiling:
                return f"agreement {row['agreement_prob']} above ceiling {ceiling}"
        return None
    return check


def _group_check(order, class_sizes, digest):
    def check(info):
        if (info["order"], sorted(info["class_sizes"]), info["hash"]) != (
                order, class_sizes, digest):
            return f"group summary {info} does not match the saved group"
        return None
    return check


def _verify_check(manifest):
    ids = sorted(c["id"] for c in manifest["checks"])
    if ids != sorted(f"A{i}" for i in range(1, 11)):
        return f"manifest checks {ids}, expected A1..A10"
    failed = [c["id"] for c in manifest["checks"] if not c["passed"]]
    if not manifest["passed"] or failed:
        return f"battery failed: {failed}"
    return None


def _common(seed, cache):
    return ["--seed", str(seed), "--cache-dir", cache, "--format", "json"]


def irreps_ops(seed, cache):
    """`irreps <spec>` over the order ladder."""
    return [Op(f"irreps {' '.join(spec)}", ["irreps", *spec, *_common(seed, cache)],
               _irreps_check(n), order=n)
            for spec, n in LADDER]


def prime_ops(seed, cache):
    """What `study_warm` reads from the cache: the ladder and the map target."""
    return irreps_ops(seed, cache) + [
        Op("irreps symmetric 3", ["irreps", "symmetric", "3", *_common(seed, cache)],
           lambda info: None)]


def save_relabelled_group(seed, path):
    """Save FILE_GROUP with its elements shuffled by the seed; return its hash."""
    import numpy as np
    from quasirep import groups

    g = groups.named(*FILE_GROUP)
    perm = np.random.default_rng([seed, 5]).permutation(g.order)
    inverse = np.argsort(perm)
    # new label perm[x] for old element x
    table = perm[g.table[inverse][:, inverse]]
    relabelled = groups.from_table(table, name="relabelled-psl2(7)")
    groups.save_group(relabelled, path)
    return groups.group_hash(relabelled)


def study_ops(seed, cache, group_file, group_digest):
    """Warm-cache studies: irreps, sweeps, maps and the `file <path>` spec."""
    c = _common(seed, cache)
    return irreps_ops(seed, cache) + [
        Op("sweep polar A6 d_rho=10 d_psi=9",
           ["sweep", "--group", "alternating", "6", "--construction", "polar",
            "--rho-dim", "10", "--dpsi", "9", "--seeds", "5", *c],
           _sweep_check(5, "polar")),
        Op("sweep minor psl2(7) d_psi=1:8",
           ["sweep", "--group", "psl2", "7", "--construction", "minor",
            "--dpsi", "1:8", *c],
           _sweep_check(27, "minor")),
        Op("sweep minor psl2(11) d_rho=5",
           ["sweep", "--group", "psl2", "11", "--construction", "minor",
            "--rho-dim", "5", "--dpsi", "1:5", *c],
           _sweep_check(10, "minor")),
        Op("hom balanced A6->S3",
           ["hom", "--source", "alternating", "6", "--target", "symmetric", "3",
            "--kind", "balanced", "--seeds", "10", *c],
           _hom_check(10)),
        Op("hom random psl2(11)->S3",
           ["hom", "--source", "psl2", "11", "--target", "symmetric", "3",
            "--kind", "random", "--seeds", "10", *c],
           _hom_check(10)),
        Op("group file", ["group", "file", group_file, *c],
           _group_check(168, PSL27_CLASS_SIZES, group_digest), cached=False),
        Op("irreps file", ["irreps", "file", group_file, *c], _irreps_check(168),
           order=168),
    ]


def verify_ops(seed, cache):
    return [Op("verify full", ["verify", "full", *_common(seed, cache)],
               _verify_check, cached=False)]
