"""Input documents against the exit-code contract and the README field table.

Every serialised catalog side (each product spec, each closed-form tree and
each oracle side's spec) is run through `cli.main` with one leaf swapped for
a value of another kind, or one key dropped.  The run must exit 0 or 2 with
no exception, write nothing to standard output when it exits 2, and exit 0
only if the README's field table lists the new value's JSON type for that
field (or marks the dropped key optional).  `verify --custom` may also exit
1: a document of the documented types whose identity no longer holds is a
failing entry, which is what exit 1 means.  A key inserted into any object
of a side, which no row lists, must exit 2.
"""

import json
import os
import re

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from vpvlab import catalog as catalog_mod
from vpvlab.catalog import OracleSide
from vpvlab.cli import main
from vpvlab.lattice import ProductSpec

README = os.path.join(os.path.dirname(__file__), "..", "README.md")
JSON_TYPES = ("integer", "string", "boolean", "null", "array", "object")
# written to the file as the JSON number 1e400, which json reads as infinity
OVERFLOW = "overflow-1e400"
VALUES = [True, 1.0, "1", None, -1, 2 ** 70, [], {}, "1/0", OVERFLOW]
DROP = object()


def _readme():
    with open(README, encoding="utf-8") as handle:
        return handle.read()


def field_table() -> dict:
    """{field: (JSON types, optional)} from the rows of README's field table."""
    text = _readme()
    section = text[text.index("### Field table"):]
    section = section[:section.index("\n## ")]
    table = {}
    for line in section.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) != 4 or not cells[0].startswith("`"):
            continue
        types = set(re.findall(r"\b(" + "|".join(JSON_TYPES) + r")\b", cells[1]))
        for name in re.findall(r"`([^`]+)`", cells[0]):
            table[name] = (types, cells[3] == "yes")
    return table


TABLE = field_table()


def json_type(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "boolean"
    if isinstance(value, int):
        return "integer"
    if value == OVERFLOW or isinstance(value, float):
        return "number"
    return {str: "string", list: "array", dict: "object"}[type(value)]


def field_of(doc: dict, path: tuple) -> str:
    """The field-table name of `path`: a tree field is named by its node's op."""
    node_at, node, value = None, None, doc
    for i, key in enumerate(path):
        if isinstance(value, dict) and "op" in value:
            node_at, node = i, value
        value = value[key]
    if node is not None:
        rel = path[node_at:]
        if rel == ("op",):
            return "op"
        if rel[0] == "exps" and len(rel) == 2:
            return f"{node['op']}.exps.<name>"
        return node["op"] + "".join("[]" if isinstance(k, int) else f".{k}" for k in rel)
    return "".join("[]" if isinstance(k, int) else f".{k}" if i else k
                   for i, k in enumerate(path))


def mutation_points(doc, path=()):
    """(path, is_leaf) of every value under `doc`: leaves and keyed values."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        sub = path + (key,)
        if isinstance(value, (dict, list)):
            if isinstance(key, str):
                yield sub, False
            yield from mutation_points(value, sub)
        else:
            yield sub, True


def _cases():
    """(side document, its mutable part, entry, custom document builder)."""
    cases = []
    for entry in catalog_mod.catalog():
        for name in ("lhs", "rhs"):
            side = getattr(entry, name)
            other = entry.rhs if name == "lhs" else entry.lhs
            if isinstance(side, OracleSide):
                side = side.spec
            if isinstance(side, ProductSpec):
                custom = (lambda doc, tree=other: {"lhs": doc, "rhs": tree}) \
                    if name == "lhs" and isinstance(other, dict) else None
                cases.append((side.to_json(), entry, custom))
            elif isinstance(side, dict):
                custom = (lambda doc, lhs=other.to_json(): {"lhs": lhs, "rhs": doc["rhs"]}) \
                    if isinstance(other, ProductSpec) else None
                cases.append(({"vars": list(entry.names), "rhs": side}, entry, custom))
    return cases


CASES = _cases()


def _changed(doc, path, value):
    doc = json.loads(json.dumps(doc))
    *head, last = path
    target = doc
    for key in head:
        target = target[key]
    if value is DROP:
        del target[last]
    else:
        target[last] = value
    return doc


def _write(path, doc):
    path.write_text(json.dumps(doc).replace(json.dumps(OVERFLOW), "1e400"))


def test_catalog_sides_are_covered():
    kinds = {("tree" if "rhs" in doc else "spec") for doc, _, _ in CASES}
    assert len(CASES) > 250 and kinds == {"spec", "tree"}
    assert sum(custom is not None for *_, custom in CASES) > 100
    # every field of every serialised side has a row in the table
    for doc, _, _ in CASES:
        for path, _ in mutation_points(doc):
            assert field_of(doc, path) in TABLE, field_of(doc, path)


@settings(max_examples=120, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_mutated_sides_keep_the_exit_code_contract(data, tmp_path, capsys):
    doc, entry, custom = data.draw(st.sampled_from(CASES))
    # of a tree document, the tree is mutated: the custom document takes its
    # variables from the product side
    points = [(path, leaf) for path, leaf in mutation_points(doc)
              if "rhs" not in doc or path[0] == "rhs" and len(path) > 1]
    path, leaf = data.draw(st.sampled_from(points))
    value = data.draw(st.sampled_from(VALUES + [DROP])) if leaf else DROP
    if value is DROP and not isinstance(path[-1], str):
        value = data.draw(st.sampled_from(VALUES))
    field = field_of(doc, path)
    types, optional = TABLE[field]
    allowed = optional if value is DROP else json_type(value) in types
    changed = _changed(doc, path, value)
    names = changed.get("vars")
    width = len(names) if isinstance(names, list) else len(entry.caps)
    caps = ",".join(str(min(c, 3)) for c in entry.caps) if width == len(entry.caps) \
        else ",".join(["3"] * width)
    spec, custom_path = tmp_path / "doc.json", tmp_path / "custom.json"
    _write(spec, changed)
    runs = [["expand", "--spec", str(spec), "--caps", caps, "--mode", entry.mode]]
    if "rhs" not in doc:
        runs.append(["grid", "--spec", str(spec), "--caps", caps, "--mode", entry.mode])
    if custom is not None:
        _write(custom_path, dict(custom(changed), caps=list(entry.caps), mode=entry.mode))
        runs.append(["verify", "--custom", str(custom_path), "--caps", caps])
    for args in runs:
        code = main(args)
        out, err = capsys.readouterr()
        context = (field, value, args[0], entry.id, err)
        if code == 2:
            assert out == "" and err.startswith("error:"), context
            continue
        assert code == 0 or code == 1 and args[0] == "verify", context
        assert allowed, context
        if code == 1:
            assert json.loads(out)["verdict"] == "fail", context


def object_points(doc, path=()):
    """The path of every object in `doc`, `doc` itself included."""
    if isinstance(doc, dict):
        yield path
    for key, value in doc.items() if isinstance(doc, dict) else enumerate(doc):
        if isinstance(value, (dict, list)):
            yield from object_points(value, path + (key,))


@settings(max_examples=80, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_an_inserted_unknown_key_is_refused(data, tmp_path, capsys):
    """One key no row of the field table lists, put into any object of a side
    (an exponent map reads it as an unknown variable), exits 2 naming it."""
    doc, entry, custom = data.draw(st.sampled_from(CASES))
    path = data.draw(st.sampled_from(list(object_points(doc))))
    changed = json.loads(json.dumps(doc))
    target = changed
    for key in path:
        target = target[key]
    target["colour"] = 1
    caps = ",".join(str(min(c, 3)) for c in entry.caps)
    spec, custom_path = tmp_path / "doc.json", tmp_path / "custom.json"
    _write(spec, changed)
    runs = [["expand", "--spec", str(spec), "--caps", caps, "--mode", entry.mode]]
    if "rhs" not in doc:
        runs.append(["grid", "--spec", str(spec), "--caps", caps, "--mode", entry.mode])
    # a tree document's custom identity takes only its tree
    if custom is not None and ("rhs" not in doc or path[:1] == ("rhs",)):
        _write(custom_path, dict(custom(changed), caps=list(entry.caps), mode=entry.mode))
        runs.append(["verify", "--custom", str(custom_path), "--caps", caps])
    for args in runs:
        code = main(args)
        out, err = capsys.readouterr()
        assert code == 2 and out == "" and "'colour'" in err, (path, args[0], entry.id, err)


def _readme_identity() -> str:
    text = _readme()
    section = text[text.index("## Custom identities"):]
    start = section.index("```json\n") + len("```json\n")
    return section[start:section.index("```", start)]


def test_readme_custom_identity(tmp_path, capsys):
    """The README's example document verifies and expands as written, and each
    of its fields has a row in the field table."""
    text = _readme_identity()
    doc = json.loads(text)
    path = tmp_path / "my_identity.json"
    path.write_text(text)
    assert main(["verify", "--custom", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["verdict"] == "pass"
    assert main(["expand", "--spec", str(path)]) == 0
    expanded = json.loads(capsys.readouterr().out)
    assert expanded["vars"] == doc["lhs"]["vars"] and expanded["caps"] == doc["caps"]
    for part in ("lhs", "rhs"):
        for path_, _ in mutation_points(doc[part]):
            assert field_of(doc[part], path_) in TABLE
    assert {"id", "mode", "caps", "lhs", "rhs"} <= set(TABLE)
    assert all(types for types, _ in TABLE.values())
