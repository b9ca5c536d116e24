"""Command-line front end: expand products, verify the catalog, emit grids."""

from __future__ import annotations

import argparse
import concurrent.futures
import json
import math
import os
import sys

from . import binary as binary_mod
from . import catalog as catalog_mod
from . import determinants
from .closedform import build_closed_form
from .lattice import PartitionGrid, ProductSpec, product_series
from .series import (APPROX, Caps, EXACT, SeriesError, read_choice, read_keys, read_names,
                     work_budget)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2


def _parse_caps(text: str):
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as err:
        raise SeriesError(f"bad caps {text!r}") from err


def _read_document(path: str, read):
    """`read` of the JSON document at `path`; any fault in it is bad input (exit 2)."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            doc = json.load(handle)
        # bad JSON or UTF-8, an integer past the digit limit, or deep nesting
        except (ValueError, RecursionError) as err:
            raise SeriesError(f"cannot read {path}: {err}") from None
    try:
        return read(doc)
    except KeyError as err:
        raise SeriesError(f"spec is missing key {err}") from err
    except (AttributeError, TypeError, ValueError) as err:  # a bad field, or not an object
        raise SeriesError(f"bad spec: {err}") from err


def _emit(payload: str, out: str | None):
    """Write a command's output to `out`, or to standard output."""
    if out:
        with open(out, "w", encoding="utf-8", newline="") as handle:
            handle.write(payload)
    else:
        sys.stdout.write(payload)


def _default_jobs(args) -> int:
    if args.jobs is not None:
        if args.jobs < 1:
            raise SeriesError(f"--jobs must be at least 1, got {args.jobs}")
        return args.jobs
    env = os.environ.get("VPV_LAB_JOBS")
    if env:
        try:
            jobs = int(env)
        except ValueError:
            jobs = 0
        if jobs < 1:
            raise SeriesError(f"bad VPV_LAB_JOBS value {env!r}: want an integer >= 1")
        return jobs
    return 1


def _verify_one(entry_id: str, caps, tolerance):
    entry = catalog_mod.get_entry(entry_id)
    report = catalog_mod.verify_identity(entry, caps=caps, tolerance=tolerance)
    return report.to_json()


def _reports_csv(reports) -> str:
    header = "id,caps,mode,verdict,expected,wall_time_s,lhs_terms,rhs_terms"
    lines = [header]
    for r in reports:
        caps = ";".join(str(c) for c in r["caps"])
        lines.append(",".join([r["id"], caps, r["mode"], r["verdict"],
                               r["expected"], f"{r['wall_time_s']:.6f}",
                               str(r["lhs_terms"]), str(r["rhs_terms"])]))
    return "\n".join(lines) + "\n"


def cmd_verify(args) -> int:
    if args.mode and not args.all:
        raise SeriesError("--mode needs --all")
    if args.tolerance is not None and not 0 <= args.tolerance < math.inf:
        raise SeriesError("--tolerance must be finite and non-negative")
    entries = catalog_mod.catalog()
    custom = None
    if args.custom:
        custom = _read_document(args.custom, catalog_mod.entry_from_json)
        selected = [custom]
    elif args.all:
        selected = [e for e in entries if e.expected == "pass"]
        if args.mode:
            selected = [e for e in selected if e.mode == args.mode]
    else:
        if not args.id:
            raise SeriesError("verify needs --id, --all or --custom")
        known = {e.id: e for e in entries}
        missing = [i for i in args.id if i not in known]
        if missing:
            raise SeriesError(f"unknown entry {', '.join(missing)}")
        selected = [known[i] for i in args.id]
    if not selected:
        raise SeriesError("no entries selected")
    caps = _parse_caps(args.caps) if args.caps else None
    if caps is not None:
        wrong = [e.id for e in selected if len(e.caps) != len(caps)]
        if wrong:
            raise SeriesError(f"caps arity does not fit entries {', '.join(wrong)}")
    jobs = _default_jobs(args)
    if custom is not None:
        report = catalog_mod.verify_identity(custom, caps=caps,
                                             tolerance=args.tolerance)
        reports = [report.to_json()]
    else:
        ids = [e.id for e in selected]
        if jobs > 1 and len(ids) > 1:
            with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
                futures = {i: pool.submit(_verify_one, i, caps, args.tolerance)
                           for i in ids}
                reports = [futures[i].result() for i in ids]
        else:
            reports = [_verify_one(i, caps, args.tolerance) for i in ids]
    reports.sort(key=lambda r: r["id"])
    _emit(_reports_csv(reports) if args.format == "csv" else
          "\n".join(json.dumps(r, sort_keys=True) for r in reports) + "\n", args.out)
    bad = [r for r in reports
           if r["verdict"] != "pass" and r["expected"] == "pass"]
    if args.format == "text":
        for r in reports:
            flag = "PASS" if r["verdict"] == "pass" else "FAIL"
            print(f"{r['id']:16s} {flag} ({r['wall_time_s']:.3f}s)",
                  file=sys.stderr)
    return EXIT_FAIL if bad else EXIT_OK


_GRID_BUILDERS = {
    "spade2": lambda caps: determinants.exact_parts_series(2, 2, caps, ("y", "z")),
    "club2": lambda caps: determinants.exact_parts_series(3, 2, caps, ("y", "z")),
    "beta2": lambda caps: product_series(binary_mod.beta2_spec(), caps),
    "binary-B2": lambda caps: product_series(binary_mod.binary_powers_spec(2, -1, -1), caps),
    "weighted-8.14": lambda caps: catalog_mod.get_entry("8.14.03").build_lhs(caps),
    **{f"vpv-upper-distinct-{order}":
       lambda caps, key=key: catalog_mod.get_entry(key).build_lhs(caps)
       for order, key in ((2, "8.08"), (3, "8.09.03"), (4, "8.10.03"), (5, "8.12.02"))},
}


@work_budget()
def cmd_grid(args) -> int:
    caps = Caps.of(_parse_caps(args.caps)) if args.caps else None
    if args.spec:
        spec = _read_document(args.spec, ProductSpec.from_json)
        if caps is None:
            raise SeriesError("--caps required for a custom spec")
        series = product_series(spec, caps, args.mode or EXACT)
    else:
        if args.mode:
            raise SeriesError("--mode applies only to --spec")
        builder = _GRID_BUILDERS.get(args.name or "")
        if builder is None:
            known = ", ".join(sorted(_GRID_BUILDERS))
            raise SeriesError(f"unknown grid {args.name!r} (known: {known})")
        if caps is None:
            caps = Caps.of((8, 8))
        series = builder(caps)
    if len(series.names) > 3:
        raise SeriesError("grids support arity <= 3")
    g = PartitionGrid.from_series(series, caps)
    _emit(json.dumps(g.to_json(), sort_keys=True, indent=2) + "\n" if args.format == "json"
          else g.to_csv(), args.out)
    return EXIT_OK


@work_budget()
def cmd_expand(args) -> int:
    caps = Caps.of(_parse_caps(args.caps)) if args.caps else None
    if args.entry:
        if args.mode:
            raise SeriesError("--mode applies only to --spec")
        try:
            entry = catalog_mod.get_entry(args.entry)
        except KeyError:
            raise SeriesError(f"unknown entry {args.entry!r}")
        cap_obj = caps or Caps.of(entry.caps)
        if len(cap_obj.limits) != len(entry.caps):
            raise SeriesError(f"caps arity does not fit entry {entry.id}")
        series = entry.build_rhs(cap_obj) if args.side == "rhs" \
            else entry.build_lhs(cap_obj)
    elif args.spec:
        def read(doc):
            doc_mode = None
            if "region" in doc:  # the document is a product spec, which may hold caps
                spec = ProductSpec.from_json({k: v for k, v in doc.items() if k != "caps"})
            else:
                read_keys(doc, catalog_mod.IDENTITY_FIELDS + ("vars",), "expand document")
                spec = ProductSpec.from_json(doc["lhs"]) if "lhs" in doc else None
                if "mode" in doc:
                    doc_mode = read_choice(doc["mode"], (EXACT, APPROX), "mode")
            # the document's caps and mode are read even where --caps and
            # --mode override them
            return (spec, Caps.of(doc["caps"]) if "caps" in doc else None, doc_mode,
                    None if spec else (doc["rhs"], read_names(doc["vars"], "vars")))
        spec, doc_caps, doc_mode, tree = _read_document(args.spec, read)
        caps, mode = caps or doc_caps, args.mode or doc_mode or EXACT
        if caps is None:
            raise SeriesError("no caps given")
        if spec is not None:
            series = product_series(spec, caps, mode)
        else:
            series = build_closed_form(*tree, caps, mode)
    else:
        raise SeriesError("expand needs --entry or --spec")
    _emit(series.dumps(indent=2) + "\n", args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vpvlab",
        description="Exact-arithmetic vector-partition identity laboratory")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="verify catalog identities")
    p_verify.add_argument("--id", action="append", help="entry id (repeatable)")
    p_verify.add_argument("--all", action="store_true",
                          help="verify every gating entry")
    p_verify.add_argument("--custom", help="custom identity JSON document")
    p_verify.add_argument("--caps", help="override caps, e.g. 6,6")
    p_verify.add_argument("--mode", choices=[EXACT, APPROX])
    p_verify.add_argument("--format", choices=["json", "csv", "text"],
                          default="json")
    p_verify.add_argument("--out", help="write reports to a file")
    p_verify.add_argument("--jobs", type=int, default=None)
    p_verify.add_argument("--tolerance", type=float, default=None)
    p_verify.set_defaults(func=cmd_verify)

    p_grid = sub.add_parser("grid", help="emit a partition grid")
    p_grid.add_argument("name", nargs="?", help="built-in grid name")
    p_grid.add_argument("--spec", help="custom ProductSpec JSON file")
    p_grid.add_argument("--caps", help="caps, e.g. 8,8")
    p_grid.add_argument("--mode", choices=[EXACT, APPROX])
    p_grid.add_argument("--format", choices=["json", "csv"], default="csv")
    p_grid.add_argument("--out")
    p_grid.set_defaults(func=cmd_grid)

    p_expand = sub.add_parser("expand", help="expand a product or closed form")
    p_expand.add_argument("--entry", help="catalog entry id")
    p_expand.add_argument("--side", choices=["lhs", "rhs"], default="lhs")
    p_expand.add_argument("--spec", help="JSON document to expand")
    p_expand.add_argument("--caps")
    p_expand.add_argument("--mode", choices=[EXACT, APPROX])
    p_expand.add_argument("--out")
    p_expand.set_defaults(func=cmd_expand)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SeriesError, OSError, OverflowError) as err:  # a float past its range
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
