"""Command-line front end.

Subcommands: group, irreps, sweep, hom, twirl, verify. Named groups are
cached on disk in --cache-dir (default ./.quasirep) as binary .npz archives
of the table and the name, each hit validated in full; nothing else is.
`sweep` decomposes the group in memory on every run; `irreps` and `hom` read
only the character table (degrees, d_min, Frobenius-Schur indicators) off the
class algebra and form no irrep matrix.
Exit codes: 0 on success, 1 when a check or bound fails, 2 on input errors.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys
import zipfile
import zlib

import numpy as np

from .approx import (
    defect_direct,
    minor_construction,
    polar_construction,
    thm4_defect,
    thm5_bound,
)
from .errors import FileFormatError, QuasirepError
from .groups import FiniteGroup, check_family, from_table, group_hash, load_group, named
from .homs import GroupMap, balanced_random_map, evaluate, genuine_hom, random_map
from .irreps import decompose, degrees
from .textfile import write_atomic
from .twirl import CLASS_NAMES, twirl_exact, twirl_gram
from .verify import run_battery

__all__ = ["main"]

_SWEEP_COLUMNS = (
    "group", "construction", "irrep", "d_rho", "d_psi", "ratio", "seed",
    "defect", "normalized_defect", "triple_trace_re", "agreement_prob",
    "mean_opnorm", "thm1_bound", "cor1_bound", "admissibility_residual",
    "thm4_value", "thm5_bound",
)

_HOM_COLUMNS = (
    "seed", "agreement_prob", "collision_prob", "epsilon", "thm2_bound",
    "thm2_sigma_dim", "thm3_bound", "r_h",
)


def _emit(args, payload, text: str | None = None) -> None:
    """Write payload as JSON under --format json or when a command has no
    text form, else text; to --out (atomically) or else to stdout."""
    if args.format == "json" or text is None:
        text = json.dumps(payload, indent=2) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        write_atomic(args.out, text.encode("utf-8"))


# what np.load, the archive's keys and from_table raise on a corrupt or
# foreign entry; an OSError reading it is an error, as for any other file
_STALE_ENTRY = (EOFError, KeyError, ValueError, zipfile.BadZipFile, zlib.error,
                QuasirepError)


def _group_from_spec(tokens: list[str], cache: str) -> FiniteGroup:
    """Build or load a group. `file <path>` bypasses the group cache."""
    if tokens[0] == "file":
        if len(tokens) != 2:
            raise ValueError("group spec 'file' takes exactly one path")
        return load_group(tokens[1])
    family = tokens[0]
    params = []
    for t in tokens[1:]:
        try:
            params.append(int(t))
        except ValueError:
            raise ValueError(f"group parameter {t!r} is not an integer") from None
    # the family names the cache file, so it must be known before any lookup
    check_family(family, len(params))
    path = os.path.join(cache, "-".join([family, *map(str, params)]) + ".npz")
    if os.path.exists(path):
        try:
            return _read_entry(path)
        except _STALE_ENTRY as exc:
            print(f"note: rebuilding stale cache {path}: {exc}", file=sys.stderr)
    g = named(family, *params)
    os.makedirs(cache, exist_ok=True)
    archive = io.BytesIO()
    np.savez(archive, table=g.table.astype(np.min_scalar_type(g.order - 1)), name=g.name)
    write_atomic(path, archive.getvalue())
    return g


def _read_entry(path: str) -> FiniteGroup:
    """The group of a cache entry, its table validated in full by from_table."""
    with open(path, "rb") as fh:
        archive = np.load(fh, allow_pickle=False)
        if not isinstance(archive, np.lib.npyio.NpzFile):
            raise FileFormatError("not an .npz archive")
        table, name = archive["table"], archive["name"]
    if name.dtype.kind != "U" or name.ndim:
        raise FileFormatError(f"name is a {name.dtype} array of shape {name.shape}")
    return from_table(table, name=str(name))


def _parse_range(text: str) -> range:
    """'2:5' -> range(2, 6); '3' -> range(3, 4); '5:4' -> range(5, 5) (empty
    sweep). A range is never expanded, so a huge upper end costs nothing.

    The value, or the start of a range, must be a positive integer.
    """
    lo_s, colon, hi_s = text.partition(":")
    try:
        lo = int(lo_s)
        hi = int(hi_s) if colon else lo
    except ValueError:
        lo = 0
    if lo < 1:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer or a range a:b from one, got {text!r}")
    return range(lo, hi + 1)


def _int_at_least(low: int, kind: str):
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = low - 1
        if value < low:
            raise argparse.ArgumentTypeError(f"expected a {kind} integer, got {text!r}")
        return value
    return parse


_positive_int = _int_at_least(1, "positive")
_nonnegative_int = _int_at_least(0, "non-negative")


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _csv(columns, rows) -> str:
    lines = [",".join(columns)]
    lines.extend(",".join(_fmt(row[c]) for c in columns) for row in rows)
    return "\n".join(lines) + "\n"


def cmd_group(args) -> int:
    g = _group_from_spec(args.spec, args.cache_dir)
    info = {
        "name": g.name,
        "order": g.order,
        "classes": len(g.classes),
        "class_sizes": list(g.class_sizes),
        "hash": group_hash(g),
    }
    sizes = ",".join(str(s) for s in g.class_sizes)
    _emit(args, info, f"name={g.name} order={g.order} classes={len(g.classes)} "
                      f"class_sizes={sizes}\nhash={info['hash']}\n")
    return 0


def cmd_irreps(args) -> int:
    g = _group_from_spec(args.spec, args.cache_dir)
    table = degrees(g)
    info = {
        "group": g.name,
        "order": g.order,
        "dims": list(table.dims),
        "d_min": table.d_min,
        "frobenius_schur": list(table.indicators),
        "sum_d2": sum(d * d for d in table.dims),
        "hash": group_hash(g),
    }
    dims = ",".join(str(d) for d in table.dims)
    fs = ",".join(f"{i:+d}" for i in table.indicators)
    _emit(args, info, f"group={g.name} dims={dims} d_min={table.d_min} "
                      f"fs={fs} sum_d2={info['sum_d2']}\n")
    return 0


def cmd_sweep(args) -> int:
    g = _group_from_spec(args.group, args.cache_dir)
    table = decompose(g, seed=args.seed)
    # a selection that can give no cell is refused; an empty --dpsi range
    # (b < a) asks for none and gets a header-only sweep
    dims = sorted({rho.dim for rho in table if not rho.is_trivial()})
    if not dims:
        raise ValueError(f"{g.name} has no non-trivial irrep to sweep")
    if args.rho_dim is not None and args.rho_dim not in dims:
        raise ValueError(
            f"{g.name} has no irrep of dimension {args.rho_dim}; its non-trivial "
            f"irreps have dimensions {', '.join(map(str, dims))}")
    widest = args.rho_dim or dims[-1]
    if args.dpsi and args.dpsi.start > widest:
        raise ValueError(f"--dpsi starts at {args.dpsi.start}, above the dimension "
                         f"of every selected irrep (at most {widest})")
    rows = []
    for ri, rho in enumerate(table):
        if rho.is_trivial():
            continue
        if args.rho_dim is not None and rho.dim != args.rho_dim:
            continue
        for d_psi in args.dpsi:
            # --dpsi ascends, so no later value fits this irrep either
            if d_psi > rho.dim:
                break
            for s in range(args.seeds):
                seed = args.seed + s
                if args.construction == "minor":
                    psi = minor_construction(rho, d_psi, seed=[seed, ri, d_psi])
                else:
                    psi = polar_construction(rho, d_psi, seed=[seed, ri, d_psi])
                rep = defect_direct(psi, table)
                ratio = d_psi / rho.dim
                cell = {
                    "group": g.name, "construction": args.construction,
                    "irrep": ri, "d_rho": rho.dim, "d_psi": d_psi,
                    "ratio": ratio, "seed": seed,
                    "triple_trace_re": rep.triple_trace.real,
                    "thm4_value": thm4_defect(d_psi, rho.dim),
                    "thm5_bound": thm5_bound(d_psi, ratio),
                }
                rows.append({c: cell[c] if c in cell else getattr(rep, c)
                             for c in _SWEEP_COLUMNS})
                del rep         # its transform blocks go with their cell
    _emit(args, {"rows": rows}, _csv(_SWEEP_COLUMNS, rows))
    beating = sum(1 for r in rows if r["normalized_defect"] < 1.0)
    print(f"{beating} of {len(rows)} rows beat the random baseline "
          "(normalized defect < 1)", file=sys.stderr)
    return 0


def _cyclic_generator(g: FiniteGroup) -> int | None:
    """Smallest element of order |g|, or None when g is not cyclic."""
    generators = np.flatnonzero(g.element_orders == g.order)
    return int(generators[0]) if generators.size else None


def _hom_map(kind: str, source: FiniteGroup, target: FiniteGroup, seed):
    if kind == "balanced":
        return balanced_random_map(source, target, seed)
    if kind == "random":
        return random_map(source, target, seed)
    if kind == "identity":
        if group_hash(source) != group_hash(target):
            raise ValueError("identity maps need identical source and target")
        return GroupMap(source, target, np.arange(source.order))
    # "genuine", the last of --kind's choices
    generator, image = _cyclic_generator(source), _cyclic_generator(target)
    if generator is None or image is None:
        raise ValueError("genuine homs are built for cyclic -> cyclic only")
    if source.order % target.order:
        raise ValueError("genuine reduction needs |target| dividing |source|")
    return genuine_hom(source, target, {generator: image})


def cmd_hom(args) -> int:
    src = _group_from_spec(args.source, args.cache_dir)
    tgt = _group_from_spec(args.target, args.cache_dir)
    ts = degrees(src)
    tt = degrees(tgt)
    seeds = 1 if args.kind in ("identity", "genuine") else args.seeds
    rows = []
    for s in range(seeds):
        f = _hom_map(args.kind, src, tgt, args.seed + s)
        rep = evaluate(f, ts, tt)
        rows.append({"seed": args.seed + s,
                     **{c: getattr(rep, c) for c in _HOM_COLUMNS[1:]}})
    max_agree = max(r["agreement_prob"] for r in rows)
    min_bound = min(min(r["thm2_bound"], r["thm3_bound"]) for r in rows)
    violated = any(
        r["agreement_prob"] > min(r["thm2_bound"], r["thm3_bound"]) + 1e-12
        for r in rows)
    summary = {
        "source": src.name,
        "target": tgt.name,
        "kind": args.kind,
        "max_agreement": max_agree,
        "min_bound": min_bound,
        "violated": violated,
    }
    if args.format == "csv":
        text = _csv(_HOM_COLUMNS, rows)
    else:
        lines = [
            (f"seed={r['seed']} agreement={r['agreement_prob']:.6f} "
             f"epsilon={r['epsilon']:.6f} thm2={r['thm2_bound']:.6f} "
             f"thm3={r['thm3_bound']:.6f}")
            for r in rows
        ]
        verdict = "VIOLATED" if violated else "ok"
        lines.append(f"max agreement {max_agree:.6f} vs min bound "
                     f"{min_bound:.6f} [{verdict}]")
        text = "\n".join(lines) + "\n"
    _emit(args, {"rows": rows, "summary": summary}, text)
    return 1 if violated else 0


def cmd_twirl(args) -> int:
    exact = twirl_exact(args.d_rho, args.d_psi)
    gram = twirl_gram(args.d_rho, args.d_psi)
    payload = {
        "exact": exact.to_json_dict(),
        "gram": gram.to_json_dict(),
        "max_abs_difference": max(
            abs(exact.coefficients[n] - gram.coefficients[n]) for n in CLASS_NAMES),
    }
    lines = [f"d_rho={args.d_rho} d_psi={args.d_psi}"]
    lines.extend(
        f"  {name:10s} exact={exact.coefficients[name]:+.12e}"
        f" gram={gram.coefficients[name]:+.12e}"
        for name in CLASS_NAMES)
    _emit(args, payload, "\n".join(lines) + "\n")
    return 0


def cmd_verify(args) -> int:
    stream = sys.stderr if args.format == "json" else sys.stdout
    manifest = run_battery(
        args.scope, seed=args.seed,
        progress=lambda r: print(r.summary_line(), file=stream, flush=True))
    if args.out is not None or args.format == "json":
        _emit(args, manifest.to_json_dict())
    if manifest.passed:
        return 0
    first = manifest.first_failure()
    print(f"first failing check: {first.check_id} ({first.description})",
          file=sys.stderr)
    for cmp_ in first.failures():
        print(f"  {cmp_.label}: measured {cmp_.measured:.12g} "
              f"{cmp_.relation} {cmp_.bound:.12g} failed", file=sys.stderr)
    if first.error:
        print(f"  error: {first.error}", file=sys.stderr)
    return 1


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=_nonnegative_int, default=0,
                        help="base seed; every randomized output derives from it")
    common.add_argument("--cache-dir", default=".quasirep",
                        help="directory of the named-group cache "
                             "(default ./.quasirep)")
    common.add_argument("--out", default=None,
                        help="write output to this path (atomic) instead of stdout")

    parser = argparse.ArgumentParser(
        prog="quasirep",
        description="Approximate representations of finite groups: build "
                    "groups and irrep tables, measure defects and agreement "
                    "bounds, extract twirl coefficients, run the check battery.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(command, *choices):
        command.add_argument("--format", choices=choices, default=None,
                             help="structured output format (default: CSV for "
                                  "sweep, plain text for the others)")

    p = sub.add_parser("group", parents=[common],
                       help="build or load a group and print its summary")
    p.add_argument("spec", nargs="+",
                   help="family and parameters (e.g. 'alternating 5') or 'file <path>'")
    add_format(p, "json")
    p.set_defaults(func=cmd_group)

    p = sub.add_parser("irreps", parents=[common],
                       help="print a group's irrep degrees and Frobenius-Schur "
                            "indicators from its character table")
    p.add_argument("spec", nargs="+")
    add_format(p, "json")
    p.set_defaults(func=cmd_irreps)

    p = sub.add_parser("sweep", parents=[common],
                       help="sweep a construction across compression dimensions")
    p.add_argument("--group", nargs="+", required=True)
    p.add_argument("--construction", choices=("minor", "polar"), default="minor")
    p.add_argument("--dpsi", type=_parse_range, required=True,
                   help="compression dimension or inclusive range a:b, from 1")
    p.add_argument("--rho-dim", type=_positive_int, default=None,
                   help="restrict to irreps of this dimension")
    p.add_argument("--seeds", type=_positive_int, default=1,
                   help="replicates per (irrep, d_psi) cell")
    add_format(p, "csv", "json")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("hom", parents=[common],
                       help="evaluate maps between two groups against their ceilings")
    p.add_argument("--source", nargs="+", required=True)
    p.add_argument("--target", nargs="+", required=True)
    p.add_argument("--kind", choices=("balanced", "random", "identity", "genuine"),
                   default="balanced")
    p.add_argument("--seeds", type=_positive_int, default=10)
    add_format(p, "csv", "json")
    p.set_defaults(func=cmd_hom)

    p = sub.add_parser("twirl", parents=[common],
                       help="fourth-moment twirl coefficients by character sum and "
                            "by Gram solve")
    p.add_argument("--d-rho", type=int, required=True)
    p.add_argument("--d-psi", type=int, required=True)
    add_format(p, "json")
    p.set_defaults(func=cmd_twirl)

    p = sub.add_parser("verify", parents=[common],
                       help="run the check battery and report a manifest")
    p.add_argument("scope", choices=("fast", "full"))
    add_format(p, "json")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, QuasirepError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
