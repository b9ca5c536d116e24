"""The three benchmark workloads: which vpvlab calls one pass makes, and the
expected outcome each call is checked against.

Every item is a fixed catalog entry or grid. The seed only shuffles the order
of the items inside a pass. See README.md in this directory for why each
workload exists.
"""

from __future__ import annotations

import collections
import os
import random

WORKLOADS = ("catalog", "oracle", "deep")

# The catalog as this benchmark was defined against: 152 gating entries that
# must pass and 17 errata probes that must fail.
CATALOG_GATING = 152
CATALOG_PROBES = 17

# (grid name, --caps, golden file); each CSV must match byte for byte.
GRIDS = (
    ("spade2", "8,8", "spade2_9x9.csv"),
    ("club2", "8,8", "club2_9x9.csv"),
    ("beta2", "13,13", "beta2_13x13.csv"),
    ("weighted-8.14", "9,13", "weighted_814_9x13.csv"),
)

# Entries whose right side is the counting oracle, at catalog caps.
ORACLE_IDS = (
    "8.00a-1d", "8.00b-1d", "8.00a-2d", "8.00b-2d", "8.01", "8.01a", "8.01b",
    "8.06", "8.07", "8.08", "8.08-neg", "8.09.03", "8.09.04", "8.10.03",
    "8.11.03", "8.12.02", "8.13.03", "8.14", "8.15", "8.18a", "8.21a", "8.22",
)
BETA2_CAPS = (13, 13)
BETA2_GOLDEN = "beta2_13x13.csv"

# Kernel-heavy entries at caps one step above the catalog's; all pass.
DEEP = (
    ("13.40", (3, 3, 4, 4)), ("13.41", (2, 2, 2, 3, 3)),
    ("13.26", (3, 3, 4, 4)), ("13.27", (2, 2, 2, 3, 3)),
    ("14.20", (2, 2, 2, 3, 3)), ("12.05", (10, 10, 10)),
    ("13.39", (5, 5, 6)), ("14.23", (12, 10)), ("7.25a", (16, 16)),
    ("12.04", (24, 24)),
    # approx mode
    ("13.15", (4, 4, 4, 5)), ("13.14", (6, 6, 7)), ("13.05", (14, 14)),
)

# One timed call. `run()` returns (ok, detail).
Item = collections.namedtuple("Item", "key run")


def _read(path):
    with open(path, "rb") as handle:
        return handle.read()


def _remove(path):
    """Drop an earlier pass's output, so that a call which writes nothing
    cannot pass on stale data."""
    if os.path.exists(path):
        os.remove(path)


def _entry_item(catalog_mod, entry, caps, must_pass):
    def run():
        report = catalog_mod.verify_identity(entry, caps=caps)
        ok = report.passed == must_pass
        return ok, "" if ok else f"verdict {report.verdict}"
    key = entry.id if caps is None else f"{entry.id}@{','.join(map(str, caps))}"
    return Item(key, run)


def _grid_item(cli_mod, name, caps, golden, out_path):
    expected = _read(golden)

    def run():
        _remove(out_path)
        code = cli_mod.main(["grid", name, "--caps", caps, "--out", out_path])
        if code != 0:
            return False, f"exit code {code}"
        ok = _read(out_path) == expected
        return ok, "" if ok else "CSV differs from golden"
    return Item(f"grid:{name}@{caps}", run)


def _beta2_item(binary_mod, caps_cls, golden):
    expected = _read(golden).decode("utf-8")

    def run():
        ok = binary_mod.beta2_grid(caps_cls.of(BETA2_CAPS)).to_csv() == expected
        return ok, "" if ok else "CSV differs from golden"
    return Item("beta2_grid@13,13", run)


def build_items(workload, vpv, golden_dir, scratch):
    """The items of one pass, in their fixed order.

    `vpv` maps "catalog", "cli", "binary" and "series" to the imported
    vpvlab modules; `scratch` is a directory for CLI output files.
    """
    catalog_mod, cli_mod = vpv["catalog"], vpv["cli"]
    if workload == "catalog":
        entries = catalog_mod.catalog()
        gating = sum(e.expected == "pass" for e in entries)
        if (gating, len(entries) - gating) != (CATALOG_GATING, CATALOG_PROBES):
            raise RuntimeError(
                f"catalog has {gating} gating entries and "
                f"{len(entries) - gating} probes, want "
                f"{CATALOG_GATING} and {CATALOG_PROBES}")
        items = [_entry_item(catalog_mod, e, None, e.expected == "pass")
                 for e in entries]
        items += [_grid_item(cli_mod, name, caps, os.path.join(golden_dir, golden),
                             os.path.join(scratch, f"grid-{name}.csv"))
                  for name, caps, golden in GRIDS]
        return items
    if workload == "oracle":
        items = [_entry_item(catalog_mod, catalog_mod.get_entry(i), None, True)
                 for i in ORACLE_IDS]
        items.append(_beta2_item(vpv["binary"], vpv["series"].Caps,
                                 os.path.join(golden_dir, BETA2_GOLDEN)))
        return items
    if workload == "deep":
        return [_entry_item(catalog_mod, catalog_mod.get_entry(i), caps, True)
                for i, caps in DEEP]
    raise ValueError(f"unknown workload {workload!r}")


def order(items, workload, seed, pass_index):
    """Shuffle a pass's items by seed."""
    items = list(items)
    random.Random(f"{workload}/{seed}/{pass_index}").shuffle(items)
    return items
