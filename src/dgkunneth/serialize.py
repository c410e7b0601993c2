"""Canonical JSON interchange for algebras, modules, instances and reports.

All field elements serialize as strings: "num/den" in lowest terms with a
positive denominator over the rationals, the canonical representative in
[0, p) over a prime field; a reader takes [+-]?[0-9]+(/[0-9]+)? only.
Matrices are nested row-major arrays of element strings; shapes are implied
by the surrounding dimension data, and all-zero matrices are omitted.
`dims` are written as memory holds them, nonzero degrees only, and an
algebra's `min_degree` as its lowest nonzero degree; a reader takes a
missing degree as 0.  Canonical JSON (`dumps_canonical`) is exactly
`json.dumps(obj, sort_keys=True, indent=2)` plus one newline.  The readers
check every JSON type they rely on, so a malformed file raises StructureError
(CLI exit code 2) rather than a crash in the code that reads it.
"""
from __future__ import annotations

import json

from .dgalgebra import DGAlgebra, StructureError, nonzero_dims
from .dgmodule import DGModule
from .field import RATIONALS, Field
from .genlab import CorpusProfile, Instance
from .linalg import Matrix

INSTANCE_FORMAT = "dgkunneth-instance/1"
REPORT_FORMAT = "dgkunneth-report/1"
_SCALARS = {str: json.encoder.encode_basestring_ascii, int: int.__repr__}   # as json writes them


def dumps_canonical(obj) -> str:
    return _text(obj, "\n") + "\n"


def _text(x, nl: str) -> str:
    """`x` as `json` writes it, lines broken by `nl` (newline and indent), in one
    pass: under an indent `json` holds every chunk in one list until the end."""
    if scalar := _SCALARS.get(type(x)):
        return scalar(x)
    inner = nl + "  "
    if isinstance(x, dict):
        return "{%s%s%s}" % (inner, f",{inner}".join(
            [f"{_key(k)}: {_text(v, inner)}" for k, v in sorted(x.items())]), nl) if x else "{}"
    if isinstance(x, (list, tuple)):
        return "[%s%s%s]" % (inner, f",{inner}".join([_text(v, inner) for v in x]), nl) if x else "[]"
    return json.dumps(x)   # floats, bools, None and subclasses, or the TypeError json raises


def _key(k) -> str:
    """A dict key as `json` writes it: json itself converts any but a str, or raises."""
    return _SCALARS[str](k) if type(k) is str else json.dumps({k: 0})[1:-4]


def field_to_json(f: Field) -> dict:
    if f.kind == RATIONALS:
        return {"kind": "rationals"}
    return {"kind": "prime", "p": f.p}


_JSON_TYPES = {dict: "an object", list: "an array", int: "an integer", float: "a number",
               str: "a string"}


def _typed(x, kind, what: str):
    """`x` if it has the JSON type `kind`, else StructureError.  A boolean
    is no number, and an integer is a float too."""
    kinds = (int, float) if kind is float else kind
    if isinstance(x, kinds) and not (isinstance(x, bool) and kind in (int, float)):
        return x
    raise StructureError(f"{what} must be {_JSON_TYPES[kind]}, got {x!r:.40}")


def _required(d, key: str, what: str):
    """`d[key]` of the JSON object `d`, the `what`; StructureError if there is none."""
    if key not in _typed(d, dict, what):
        raise StructureError(f"{what} has no {key!r}")
    return d[key]


def _ints(d: dict, what: str) -> dict:
    """An object of integers keyed by stringified integers, as a dict of ints."""
    return {int(k): _typed(v, int, f"{what}[{k!r}]") for k, v in _typed(d, dict, what).items()}


def _element(field: Field, x):
    try:
        return field.parse(_typed(x, str, "a field element"))
    except (ValueError, ZeroDivisionError) as exc:
        raise StructureError(f"bad field element {x!r}: {exc}") from exc


def field_from_json(d: dict) -> Field:
    kind = _typed(d, dict, "field").get("kind")
    if kind == "rationals":
        return Field.rationals()
    if kind == "prime":
        return Field.prime(_typed(d.get("p"), int, "the modulus p"))
    raise StructureError(f"unknown field kind {kind!r}")


def matrix_to_json(m: Matrix):
    f = m.field
    return [[f.to_str(x) for x in row] for row in m.arr.tolist()]


def matrix_from_json(field: Field, rows: int, cols: int, data) -> Matrix:
    data = [_typed(r, list, "a matrix row") for r in _typed(data, list, "a matrix")]
    if len(data) != rows or any(len(r) != cols for r in data):
        raise StructureError(f"matrix shape mismatch: want {rows}x{cols}")
    return Matrix(field, rows, cols, [[_element(field, x) for x in row] for row in data])


def _maps_to_json(table: dict) -> dict:
    """A `diff`, `mult` or `action` table keyed "i" or "i,j", zero maps left out."""
    return {",".join(map(str, k)) if isinstance(k, tuple) else str(k): matrix_to_json(m)
            for k, m in table.items() if not m.is_zero()}


def _maps_from_json(field: Field, d: dict, what: str, shape) -> dict:
    """The table `d[what]`: a `diff` keyed by degrees i, a `mult` or `action`
    by pairs (i, j), each matrix of the shape `shape(i)` or `shape(i, j)`;
    a malformed key is a StructureError."""
    arity = 1 if what == "diff" else 2
    out = {}
    for k, rows in _typed(d.get(what, {}), dict, what).items():
        try:
            key = tuple(int(x) for x in k.split(","))
        except ValueError:
            key = ()
        if len(key) != arity:
            raise StructureError(f"bad {what} key {k!r}")
        out[key if arity == 2 else key[0]] = matrix_from_json(field, *shape(*key), rows)
    return out


def algebra_to_json(a: DGAlgebra) -> dict:
    return {
        "min_degree": a.min_degree,
        "dims": {str(i): d for i, d in a.dims.items()},
        "unit": matrix_to_json(a.unit.transpose())[0],
        "diff": _maps_to_json(a.diff),
        "mult": _maps_to_json(a.mult),
    }


def algebra_from_json(field: Field, d: dict) -> DGAlgebra:
    """The algebra of `d`; its `dims` must lie in the declared min_degree..0."""
    min_degree = _typed(_required(d, "min_degree", "algebra"), int, "min_degree")
    dims = nonzero_dims(_ints(_required(d, "dims", "algebra"), "dims"), (min_degree, 0))
    diff = _maps_from_json(field, d, "diff", lambda i: (dims.get(i + 1, 0), dims.get(i, 0)))
    mult = _maps_from_json(field, d, "mult", lambda i, j: (
        dims.get(i + j, 0), dims.get(i, 0) * dims.get(j, 0)))
    unit = Matrix.column(field, [_element(field, x)
                                 for x in _typed(_required(d, "unit", "algebra"), list, "unit")])
    return DGAlgebra(field, dims, mult, diff, unit)


def module_to_json(m: DGModule) -> dict:
    return {
        "side": m.side,
        "window": list(m.window),
        "dims": {str(i): d for i, d in m.dims.items()},
        "diff": _maps_to_json(m.diff),
        "action": _maps_to_json(m.action),
    }


def module_from_json(algebra: DGAlgebra, d: dict) -> DGModule:
    field = algebra.field
    lo, hi = (_typed(x, int, "a window end")
              for x in _typed(_required(d, "window", "module"), list, "window"))
    dims = _ints(_required(d, "dims", "module"), "dims")
    diff = _maps_from_json(field, d, "diff", lambda i: (dims.get(i + 1, 0), dims.get(i, 0)))
    action = _maps_from_json(field, d, "action", lambda i, j: (
        dims.get(i + j, 0), dims.get(i, 0) * algebra.dim(j)))
    return DGModule(_required(d, "side", "module"), algebra, (lo, hi), dims, diff, action)


def instance_to_json(inst: Instance) -> dict:
    return {
        "name": inst.name,
        "family": inst.family,
        "field": field_to_json(inst.algebra.field),
        "algebra": algebra_to_json(inst.algebra),
        "m": module_to_json(inst.m),
        "n": module_to_json(inst.n),
    }


def instance_from_json(d: dict) -> Instance:
    field = field_from_json(_required(d, "field", "instance"))
    algebra = algebra_from_json(field, _required(d, "algebra", "instance"))
    m, n = (module_from_json(algebra, _required(d, side, "instance")) for side in "mn")
    return Instance(d.get("name", "instance"), d.get("family", "unknown"), algebra, m, n)


def profile_to_json(p: CorpusProfile) -> dict:
    return {
        "field": field_to_json(p.field),
        "max_per_degree_dim": p.max_per_degree_dim,
        "degree_span": p.degree_span,
        "instance_count": p.instance_count,
        "seed": p.seed,
        "family_mix": dict(sorted(p.family_mix.items())),
    }


def profile_from_json(d: dict) -> CorpusProfile:
    kwargs = {"field": field_from_json(_required(d, "field", "profile"))}
    # an omitted key takes CorpusProfile's own default
    kwargs.update((key, _typed(d[key], int, key)) for key in
                  ("max_per_degree_dim", "degree_span", "instance_count", "seed") if key in d)
    if "family_mix" in d:
        kwargs["family_mix"] = {k: float(_typed(v, float, f"the weight of {k!r}"))
                                for k, v in _typed(d["family_mix"], dict, "family_mix").items()}
    return CorpusProfile(**kwargs)


# ---------------------------------------------------------------------------
# Single-module instance files (inputs of the validate/kunneth commands)


def module_file_to_json(algebra: DGAlgebra, module: DGModule, name: str = "module") -> dict:
    return {
        "format": INSTANCE_FORMAT,
        "name": name,
        "field": field_to_json(algebra.field),
        "algebra": algebra_to_json(algebra),
        "module": module_to_json(module),
    }


def module_file_from_json(d: dict):
    if _typed(d, dict, "an instance file").get("format") != INSTANCE_FORMAT:
        raise StructureError("not an instance file")
    field = field_from_json(_required(d, "field", "instance file"))
    algebra = algebra_from_json(field, _required(d, "algebra", "instance file"))
    module = module_from_json(algebra, d["module"]) if "module" in d else None
    return d.get("name", "module"), algebra, module


# ---------------------------------------------------------------------------
# Audit exports: quotient presentations and staged resolutions


def tensor_complex_to_json(tc, degrees) -> dict:
    """Quotient presentation of M (x)_A N in `degrees`, for external audit.

    Carries ambient block layout, relation rows, projection and section, so
    a third party can re-check projection o section = id and that the
    relations are annihilated.
    """
    out = {"lo": tc.lo, "hi": tc.hi, "degrees": {}}
    for t in degrees:
        sp = tc.space(t)
        out["degrees"][str(t)] = {
            "ambient_dim": sp.ambient_dim,
            "blocks": [[p, q, off, dmp, dnq] for p, q, off, dmp, dnq in tc.blocks(t)],
            "quotient_dim": sp.dim,
            "relations": matrix_to_json(sp.relations),
            "projection": matrix_to_json(sp.projection),
            "section": matrix_to_json(sp.section),
            "diff": matrix_to_json(tc.diff(t)),
        }
    return out


def resolution_to_json(res) -> dict:
    """A semi-free resolution with stage tags, for re-verifying semi-freeness:
    each generator's differential may only involve generators of earlier
    stages (their degrees are strictly higher).  One entry per generator,
    read off the columns of its run; d(g) = 0 at stage 0 is written []."""
    gens = []
    for e, stage, z, w in res.runs:
        diffs = [[]] * w.cols if z is None else matrix_to_json(z.transpose())
        gens += [{"degree": e, "stage": stage, "diff": d, "image": img}
                 for d, img in zip(diffs, matrix_to_json(w.transpose()))]
    return {
        "depth": res.depth,
        "generators": gens,
        "p": module_to_json(res.p),
        "rho": {str(i): matrix_to_json(res.rho.map_at(i)) for i in res.p.degrees()},
    }
