"""Input decks: YAML loading, schema validation, resolution to run objects.

A deck is a single YAML document, read by ``_parse`` with the stock safe
loader, except that each one-line flow sequence of plain floats (a
matrix row) is handed to the loader as one tagged scalar and read from
the text with float(), in place of one node a number.

The deck is validated against the bundled JSON schema
(schema/deck.schema.json) for its structure, keys and enums, and then
checked by ``_semantic_diagnostics``, which also checks every number
(type, finiteness, sign) one array at a time with numpy. The schema is
applied by ``_schema_errors``, a small interpreter of the Draft 2020-12
keywords the schema uses, worded as jsonschema words them. Validation
collects every violation instead of stopping at the first; unknown keys
are rejected so a typo in a unit suffix (width vs width_cm1) surfaces as
a diagnostic rather than a silently ignored setting.
"""

import functools
import itertools
import json
import logging
import numbers
import os
import re
import sys
import time
from array import array
from dataclasses import dataclass
from importlib import resources

import numpy as np
import yaml
from numpy.typing import NDArray

from .angular import AngularMomentum
from .bath import (
    DEFAULT_CUTOFF_SIGMAS,
    DEFAULT_WIDTH_CM1,
    EXACT_MATCH_TOL_CM1,
    BroadeningPolicy,
    PhononMode,
)
from .digest import sha256
from .generators import DEFAULT_REGULARIZER_CM1, DEFAULT_SECULAR_TOL_CM1
from .spin_model import SpinModel, StevensTerm, stevens_sum

log = logging.getLogger(__name__)

DEFAULT_ORDERS = "both"
DEFAULT_RATES_CSV = "rates.csv"
DEFAULT_FIT_REPORT = "fit_report.txt"


class DeckValidationError(ValueError):
    """Raised when a deck fails validation; carries every diagnostic."""

    def __init__(self, diagnostics: list[str]):
        self.diagnostics = list(diagnostics)
        super().__init__("invalid deck:\n" + "\n".join(f"  - {d}" for d in diagnostics))


@dataclass(frozen=True)
class FitRequest:
    quantity: str
    fit_model: str
    order: int
    window_k: tuple[float, float] | None


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved deck: defaults applied, objects constructed.

    couplings_cm1[i] is mode i's coupling matrix (a Stevens derivative set
    summed to its M_J matrix) in the basis coupling_bases[i], "mj" or
    "eigen". fields_t is sweep.fields_t, or (model.field_t,) when the deck
    sweeps no field. resolved is the deck with every default filled in,
    each matrix_cm1 reduced to {"basis": ...}.
    """

    model: SpinModel
    modes: tuple[PhononMode, ...]
    couplings_cm1: NDArray[np.complex128]
    coupling_bases: tuple[str, ...]
    temperatures_k: tuple[float, ...]
    fields_t: tuple[tuple[float, float, float], ...]
    orders: tuple[int, ...]
    rates_csv: str
    fit_report: str
    secular_tol_cm1: float
    regularizer_cm1: float
    broadening: BroadeningPolicy
    channels: tuple[str, ...]
    allow_same_mode: bool
    fits: tuple[FitRequest, ...]
    resolved: dict

    @functools.cached_property
    def config_hash(self) -> str:
        """Short sha256 of the resolved deck; computed once per config.

        It covers the compact sorted-key JSON of resolved, then each matrix
        operator's resolved matrix, in operator order, as little-endian
        complex128 bytes. So a matrix is hashed by its values, not by how
        the deck spelled them (1 and 1.0, an omitted imag and explicit
        zeros hash alike), and a deck of Stevens derivatives hashes its
        JSON alone.
        """
        text = json.dumps(self.resolved, sort_keys=True, separators=(",", ":"))
        digest = sha256(text.encode())
        for op, matrix in zip(self.resolved["coupling"]["operators"], self.couplings_cm1):
            if "matrix_cm1" in op:
                digest.update(matrix.astype("<c16").tobytes())
        return digest.hexdigest()[:16]


@functools.cache
def _schema() -> dict:
    text = resources.files("spinphonon").joinpath("schema/deck.schema.json").read_text()
    return json.loads(text)


# Draft 2020-12 types; 2.0 is an integer, True is not
_TYPES = {
    "array": lambda v: isinstance(v, list),
    "boolean": lambda v: isinstance(v, bool),
    "integer": lambda v: not isinstance(v, bool)
    and (isinstance(v, int) or isinstance(v, float) and v.is_integer()),
    "number": lambda v: not isinstance(v, bool) and isinstance(v, numbers.Number),
    "object": lambda v: isinstance(v, dict),
    "string": lambda v: isinstance(v, str),
}
# keywords that describe and never reject
_ANNOTATIONS = {"$schema", "$defs", "title", "description"}


def _equal(a, b) -> bool:
    """JSON equality, as jsonschema tests it: True is not 1, 1.0 is 1, at any depth."""
    if a is b or isinstance(a, bool) or isinstance(b, bool):
        return a is b
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(map(_equal, a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_equal(a[k], b[k]) for k in a)
    return a == b


def _too_short(value, limit) -> str:
    return f"{value!r} {'should be non-empty' if limit == 1 else 'is too short'}"


def _schema_errors(value, node: dict, path: tuple = ()):
    """Yield (path, message) for each way value breaks the schema node.

    Covers the keywords deck.schema.json uses, in the order the node lists
    them, with jsonschema 4.26's messages; any other keyword raises, so
    none is silently ignored. $ref resolves against the bundled schema.
    """
    for key, arg in node.items():
        if key in _ANNOTATIONS:
            continue
        if key == "$ref":
            target = _schema()
            for part in arg.removeprefix("#/").split("/"):
                target = target[part]
            yield from _schema_errors(value, target, path)
        elif key == "type":
            if not _TYPES[arg](value):
                yield path, f"{value!r} is not of type {arg!r}"
        elif key == "required":
            if isinstance(value, dict):
                yield from ((path, f"{k!r} is a required property") for k in arg if k not in value)
        elif key == "additionalProperties" and arg is False:
            if isinstance(value, dict):
                extras = sorted(set(value) - set(node.get("properties", {})), key=str)
                if extras:
                    names = ", ".join(map(repr, extras))
                    verb = "was" if len(extras) == 1 else "were"
                    message = f"Additional properties are not allowed ({names} {verb} unexpected)"
                    yield path, message
        elif key == "properties":
            if isinstance(value, dict):
                for k, sub in arg.items():
                    if k in value:
                        yield from _schema_errors(value[k], sub, (*path, k))
        elif key == "prefixItems":
            if isinstance(value, list):
                for i, (item, sub) in enumerate(zip(value, arg)):
                    yield from _schema_errors(item, sub, (*path, i))
        elif key == "items":
            if isinstance(value, list):
                for i in range(len(node.get("prefixItems", ())), len(value)):
                    yield from _schema_errors(value[i], arg, (*path, i))
        elif key == "minItems":
            if isinstance(value, list) and len(value) < arg:
                yield path, _too_short(value, arg)
        elif key == "maxItems":
            if isinstance(value, list) and len(value) > arg:
                yield path, f"{value!r} {'is expected to be empty' if arg == 0 else 'is too long'}"
        elif key == "minLength":
            if isinstance(value, str) and len(value) < arg:
                yield path, _too_short(value, arg)
        elif key == "minimum":
            if _TYPES["number"](value) and value < arg:
                yield path, f"{value!r} is less than the minimum of {arg!r}"
        elif key == "maximum":
            if _TYPES["number"](value) and value > arg:
                yield path, f"{value!r} is greater than the maximum of {arg!r}"
        elif key == "uniqueItems" and arg:
            pairs = itertools.combinations(value, 2) if isinstance(value, list) else ()
            if any(_equal(x, y) for x, y in pairs):
                yield path, f"{value!r} has non-unique elements"
        elif key == "enum":
            if not any(_equal(e, value) for e in arg):
                yield path, f"{value!r} is not one of {arg!r}"
        else:
            raise ValueError(f"deck schema keyword {key!r}: {arg!r} is not implemented")


def _json_path(parts) -> str:
    path = ".".join(f"[{p}]" if isinstance(p, int) else p for p in parts).replace(".[", "[")
    return path or "(deck root)"


# the sign rule of a deck number, worded as jsonschema words it
_SIGN_RULES = {
    "> 0": (np.greater, "is less than or equal to the minimum of 0"),
    ">= 0": (np.greater_equal, "is less than the minimum of 0"),
}


def _is_number_type(t: type) -> bool:
    return issubclass(t, numbers.Real) and not issubclass(t, bool)


def _bad_number(values: list, sign: str | None = None) -> tuple[int, str] | None:
    """Index and reason of the first entry that is not a finite number obeying sign.

    The whole list is checked in one numpy pass; Python walks it again only
    to find the entry to report.
    """
    if not all(map(_is_number_type, set(map(type, values)))):
        k = next(k for k, x in enumerate(values) if not _is_number_type(type(x)))
        return k, f"{values[k]!r} is not of type 'number'"
    try:
        a = np.array(values, dtype=float)
    except OverflowError:
        k = next(k for k, x in enumerate(values) if abs(x) > sys.float_info.max)
        return k, f"{values[k]!r} is too large for a float"
    finite = np.isfinite(a)
    ok = finite & _SIGN_RULES[sign][0](a, 0) if sign else finite
    if ok.all():
        return None
    k = int(np.argmin(ok))
    reason = _SIGN_RULES[sign][1] if finite[k] else "is not finite"
    return k, f"{values[k]!r} {reason}"


def _matrix_diagnostic(parts: tuple, rows, dim: int | None, two_j) -> str | None:
    """The shape, then the first entry that is not a finite number, of one matrix part."""
    if not isinstance(rows, list):
        return None  # the schema reports it
    d = len(rows) if dim is None else dim
    shape = "must be square" if dim is None else f"must be {d}x{d} for two_j = {two_j}"
    if len(rows) != d:
        return f"{_json_path(parts)}: {shape}"
    for r, row in enumerate(rows):
        if not isinstance(row, list):
            return f"{_json_path((*parts, r))}: {row!r} is not of type 'array'"
        if len(row) != d:
            return f"{_json_path((*parts, r))}: a row of {len(row)} entries; the matrix {shape}"
    found = _bad_number(list(itertools.chain.from_iterable(rows)))
    if found is None:
        return None
    k, reason = found
    return f"{_json_path((*parts, k // d, k % d))}: {reason}"


def _mapping(x) -> dict:
    return x if isinstance(x, dict) else {}


def _array(x) -> list:
    return x if isinstance(x, list) else []


def _semantic_diagnostics(raw: dict) -> list[str]:
    """Cross-field checks the schema grammar cannot express, and every number.

    The schema checks structure, keys and enums. Each array of numbers (a
    list, a matrix part, the coefficients of a Stevens term list) and each
    numeric scalar is checked here in one numpy pass: type, finiteness and
    the sign rule of its key. A bad array gets one diagnostic, naming its
    first bad entry.
    """
    out: list[str] = []

    def check(parts, values, sign=None, where=lambda k: (k,)) -> bool:
        found = _bad_number(values, sign)
        if found is not None:
            k, reason = found
            out.append(f"{_json_path((*parts, *where(k)))}: {reason}")
        return found is None

    def check_scalars(parts, table, signs):
        for key, sign in signs:
            if key in table:
                check((*parts, key), [table[key]], sign, where=lambda k: ())

    def check_stevens(parts, terms):
        idx = [i for i, t in enumerate(_array(terms)) if isinstance(t, list) and len(t) == 3]
        for i in idx:
            l, m = terms[i][0], terms[i][1]
            if l in (2, 4, 6) and _TYPES["integer"](m) and abs(m) > l:
                out.append(f"{_json_path((*parts, i))}: |m| = {abs(m)} exceeds l = {l}")
        check(parts, [terms[i][2] for i in idx], where=lambda k: (idx[k], 2))

    model = _mapping(raw.get("model"))
    two_j = model.get("two_j")
    dim = int(two_j) + 1 if _TYPES["integer"](two_j) and two_j >= 1 else None
    if _TYPES["integer"](two_j) and two_j >= 1 and two_j % 2 == 0:
        out.append(
            f"model.two_j: {two_j!r} is even; rate sweeps need a Kramers system "
            "(half-integer J), so two_j must be odd"
        )
    check_scalars(("model",), model, (("g_j", "> 0"),))
    check_stevens(("model", "stevens_terms_cm1"), model.get("stevens_terms_cm1"))
    check(("model", "field_t"), _array(model.get("field_t")))

    modes = _array(_mapping(raw.get("bath")).get("modes_cm1"))
    check(("bath", "modes_cm1"), modes, "> 0")

    ops = _array(_mapping(raw.get("coupling")).get("operators"))
    if modes and ops and len(modes) != len(ops):
        out.append(
            f"coupling.operators: {len(ops)} operators for {len(modes)} modes; "
            "give exactly one operator per mode, in mode order"
        )
    for i, op in enumerate(ops):
        if not isinstance(op, dict):
            continue
        has_terms = "stevens_derivatives_cm1" in op
        has_matrix = "matrix_cm1" in op
        if has_terms and has_matrix:
            out.append(
                f"coupling.operators[{i}]: both stevens_derivatives_cm1 and matrix_cm1 "
                "given; a mode takes one coupling form only"
            )
        elif not has_terms and not has_matrix:
            out.append(
                f"coupling.operators[{i}]: needs stevens_derivatives_cm1 or matrix_cm1"
            )
        parts = ("coupling", "operators", i)
        check_stevens((*parts, "stevens_derivatives_cm1"), op.get("stevens_derivatives_cm1"))
        mat = _mapping(op.get("matrix_cm1"))
        for key in ("real", "imag"):
            diag = _matrix_diagnostic((*parts, "matrix_cm1", key), mat.get(key), dim, two_j)
            if diag is not None:
                out.append(diag)

    sweep = _mapping(raw.get("sweep"))
    check(("sweep", "temperatures_k"), _array(sweep.get("temperatures_k")), "> 0")
    for k, field in enumerate(_array(sweep.get("fields_t"))):
        check(("sweep", "fields_t", k), _array(field))

    numeric = _mapping(raw.get("numeric"))
    check_scalars(("numeric",), numeric, (("secular_tol_cm1", "> 0"), ("regularizer_cm1", ">= 0")))
    check_scalars(
        ("numeric", "broadening"),
        _mapping(numeric.get("broadening")),
        (("width_cm1", "> 0"), ("cutoff_sigmas", "> 0")),
    )

    orders = sweep.get("orders", DEFAULT_ORDERS)
    swept = next((_orders_tuple(o) for o in (2, 4, "both") if _equal(o, orders)), None)
    for i, fit in enumerate(_array(raw.get("fits"))):
        order = _mapping(fit).get("order")
        if swept and order in (2, 4) and order not in swept:
            out.append(f"fits[{i}].order: {order!r} is not swept (sweep.orders: {orders!r})")
        win = _array(_mapping(fit).get("window_k"))
        if check(("fits", i, "window_k"), win, "> 0") and len(win) == 2 and win[0] >= win[1]:
            out.append(f"fits[{i}].window_k: lower bound must be below upper bound")

    outputs = _mapping(raw.get("outputs"))
    csv = outputs.get("rates_csv", DEFAULT_RATES_CSV)
    report = outputs.get("fit_report", DEFAULT_FIT_REPORT)
    if {type(csv), type(report)} == {str} and os.path.normpath(csv) == os.path.normpath(report):
        out.append(
            f"outputs.fit_report: {report!r} is also outputs.rates_csv; "
            "the fit report would overwrite the rates"
        )
    return out


def validate_deck(raw: dict) -> list[str]:
    """Every problem with the deck, or an empty list. Never fail-fast."""
    errors = sorted(_schema_errors(raw, _schema()), key=lambda e: list(map(str, e[0])))
    diags = [f"{_json_path(path)}: {message}" for path, message in errors]
    # the schema does not descend into numbers; the semantic checks do, and
    # they skip any structure the schema has already rejected
    diags.extend(_semantic_diagnostics(raw))
    return diags


def _resolved_echo(raw: dict) -> dict:
    """The deck with every default filled in, for provenance and echo.

    Each matrix_cm1 is reduced to its basis.
    """
    # an integer the deck spells as a float (3.0) runs as the integer, so it
    # is echoed, and hashed, as one
    model = dict(raw["model"], two_j=int(raw["model"]["two_j"]))
    model.setdefault("g_j", 2.0)
    model["stevens_terms_cm1"] = _int_lm(model.get("stevens_terms_cm1", []))
    model.setdefault("field_t", [0.0, 0.0, 0.0])

    sweep = dict(raw["sweep"])
    sweep.setdefault("orders", DEFAULT_ORDERS)
    if not isinstance(sweep["orders"], str):
        sweep["orders"] = int(sweep["orders"])

    outputs = dict(raw.get("outputs") or {})
    outputs.setdefault("rates_csv", DEFAULT_RATES_CSV)
    outputs.setdefault("fit_report", DEFAULT_FIT_REPORT)

    numeric = dict(raw.get("numeric") or {})
    numeric.setdefault("secular_tol_cm1", DEFAULT_SECULAR_TOL_CM1)
    numeric.setdefault("regularizer_cm1", DEFAULT_REGULARIZER_CM1)
    broadening = dict(numeric.get("broadening") or {})
    broadening.setdefault("kind", "gaussian")
    if broadening["kind"] != "exact":
        broadening.setdefault("width_cm1", DEFAULT_WIDTH_CM1)
        broadening.setdefault("cutoff_sigmas", DEFAULT_CUTOFF_SIGMAS)
    numeric["broadening"] = broadening
    numeric.setdefault("channels", ["absorption_emission"])
    numeric.setdefault("allow_same_mode", False)
    # accepted and echoed (so it is part of config_hash) but read by nothing
    numeric.setdefault("workers", 1)

    fits = []
    for fit in raw.get("fits") or []:
        fit = dict(fit)
        fit["order"] = int(fit.get("order", max(_orders_tuple(sweep["orders"]))))
        fit.setdefault("window_k", None)
        fits.append(fit)

    operators = [
        dict(op, matrix_cm1={"basis": op["matrix_cm1"].get("basis", "mj")})
        if "matrix_cm1" in op
        else dict(op, stevens_derivatives_cm1=_int_lm(op["stevens_derivatives_cm1"]))
        for op in raw["coupling"]["operators"]
    ]
    return {
        "model": model,
        "bath": dict(raw["bath"]),
        "coupling": dict(raw["coupling"], operators=operators),
        "sweep": sweep,
        "outputs": outputs,
        "numeric": numeric,
        "fits": fits,
    }


def _int_lm(rows: list) -> list:
    """Stevens rows [l, m, value] with l and m as int."""
    return [[int(l), int(m), value] for l, m, value in rows]


def _orders_tuple(orders) -> tuple[int, ...]:
    return {"both": (2, 4), 2: (2,), 4: (4,)}[orders]


def _stevens_terms(rows) -> tuple[StevensTerm, ...]:
    return tuple(StevensTerm(l=int(l), m=int(m), coefficient_cm1=float(v)) for l, m, v in rows)


def _couplings(ops: list, j: AngularMomentum) -> tuple[NDArray[np.complex128], tuple[str, ...]]:
    """Every operator's matrix, in one (n_modes, d, d) array, and its basis.

    A Stevens derivative set is summed to its M_J matrix here, once per deck.
    """
    out = np.empty((len(ops), j.dim, j.dim), dtype=complex)
    bases = []
    for i, op in enumerate(ops):
        if "stevens_derivatives_cm1" in op:
            out[i] = stevens_sum(_stevens_terms(op["stevens_derivatives_cm1"]), j)
            bases.append("mj")
        else:
            mat = op["matrix_cm1"]
            real = np.array(mat["real"], dtype=float)
            imag = np.array(mat.get("imag", np.zeros_like(real)), dtype=float)
            out[i] = real + 1j * imag  # a -0.0 part hashes as +0.0, as it always has
            bases.append(mat.get("basis", "mj"))
    out.setflags(write=False)  # every engine of the deck reads it
    return out, tuple(bases)


def resolve(raw: dict) -> RunConfig:
    """Validate a deck dict and build the runtime config from it.

    It alone decides a deck's couplings and fields: RunConfig.couplings_cm1
    and RunConfig.fields_t. The config keeps none of raw's matrix lists.
    """
    diags = validate_deck(raw)
    if diags:
        raise DeckValidationError(diags)
    j = AngularMomentum(two_j=int(raw["model"]["two_j"]))
    couplings, bases = _couplings(raw["coupling"]["operators"], j)
    echo = _resolved_echo(raw)
    # where the caller holds no other reference (load_config), the deck's
    # number lists are freed here, before the config objects are built, so
    # those objects do not settle among the lists' freed blocks
    del raw
    m = echo["model"]
    model = SpinModel(
        angular_momentum=j,
        stevens_terms=_stevens_terms(m["stevens_terms_cm1"]),
        g_j=float(m["g_j"]),
        field_t=m["field_t"],
    )
    modes = tuple(
        PhononMode(index=i, omega_cm1=float(w)) for i, w in enumerate(echo["bath"]["modes_cm1"])
    )
    b = echo["numeric"]["broadening"]
    if b["kind"] == "exact":
        broadening = BroadeningPolicy.exact(b.get("width_cm1", EXACT_MATCH_TOL_CM1))
    else:
        broadening = BroadeningPolicy(
            kind=b["kind"], width_cm1=b["width_cm1"], cutoff_sigmas=b["cutoff_sigmas"]
        )

    sweep = echo["sweep"]
    fields = sweep.get("fields_t")
    num = echo["numeric"]
    return RunConfig(
        model=model,
        modes=modes,
        couplings_cm1=couplings,
        coupling_bases=bases,
        temperatures_k=tuple(float(t) for t in sweep["temperatures_k"]),
        fields_t=tuple(tuple(float(x) for x in f) for f in fields) if fields else (model.field_t,),
        orders=_orders_tuple(sweep["orders"]),
        rates_csv=echo["outputs"]["rates_csv"],
        fit_report=echo["outputs"]["fit_report"],
        secular_tol_cm1=float(num["secular_tol_cm1"]),
        regularizer_cm1=float(num["regularizer_cm1"]),
        broadening=broadening,
        channels=tuple(num["channels"]),
        allow_same_mode=bool(num["allow_same_mode"]),
        fits=tuple(
            FitRequest(
                quantity=f["quantity"],
                fit_model=f["fit_model"],
                order=int(f["order"]),
                window_k=tuple(f["window_k"]) if f["window_k"] else None,
            )
            for f in echo["fits"]
        ),
        resolved=echo,
    )


# libyaml parses when PyYAML was built with it
_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
# a float row entry: a plain scalar the resolver makes a float and float()
# reads as construct_yaml_float does. A sign goes only before a digit
# (-.5 is a string), the exponent needs its sign (1.0e5 is a string), and
# underscores are left to the parser.
_ROW_NUMBER = r"(?:[-+]?[0-9]+\.[0-9]*|\.[0-9]+)(?:[eE][-+][0-9]+)?"
# a float row: a flow sequence of such entries on one line
_FLOAT_ROW = re.compile(rf"\[ *{_ROW_NUMBER}(?: *, *{_ROW_NUMBER})* *\]")
# what _parse puts in place of float row i: this tag and the scalar i
_ROW_TAG = "!spinphonon-row"


def _parse(text: str, stats: dict | None = None):
    """The deck's data, as yaml.load with the safe loader builds it.

    Each one-line flow sequence of plain floats (a matrix row, modes_cm1)
    goes to the safe loader as the scalar "!spinphonon-row i", whose
    constructor reads row i from the text with float(). That result is
    kept only if the load succeeds and every row is constructed, each from
    the scalar that ends where row i's does; else (a row in a comment, a
    string or a key, the tag spelled in the deck, a syntax error, a
    leading byte-order mark, which libyaml leaves out of its marks) the
    safe loader reads the unchanged text, so data and errors are its own.

    If stats is given, stats["float_rows"] is set to the number of rows
    read directly.
    """
    # per row: where it starts in text, where its scalar ends in the tagged
    # text, and whether it was constructed
    starts, ends, built = array("q"), array("q"), bytearray()
    shift = 0

    def tag(match):
        nonlocal shift
        token = f"{_ROW_TAG} {len(starts)}"
        shift += len(token) - len(match[0])
        starts.append(match.start())
        ends.append(match.end() + shift)
        built.append(0)
        return token

    def row(loader, node):
        k = int(node.value)
        # only the scalar put in place of row k ends where it does: not one
        # that merely ends with k, nor the tag spelled in the deck itself
        if node.end_mark.index != ends[k]:
            raise ValueError(f"{_ROW_TAG} {node.value} is not a float row")
        built[k] = 1
        # a row's marks outweigh its floats, and the data never needs them
        node.start_mark = node.end_mark = None
        start = starts[k]
        return list(map(float, text[start + 1 : text.index("]", start)].split(",")))

    try:
        # the loader keeps its own copy of the tagged text
        loader = _LOADER(_FLOAT_ROW.sub(tag, text))
        loader.yaml_constructors = {**loader.yaml_constructors, _ROW_TAG: row}
        try:
            data = loader.get_single_data()
        finally:
            loader.dispose()
    except Exception:  # whatever it was, the stock loader raises it below
        built.append(0)  # so that the text is read again
    if not all(built):
        data, built = yaml.load(text, Loader=_LOADER), b""
    if stats is not None:
        stats["float_rows"] = len(built)
    return data


def load_config(path: str) -> RunConfig:
    """Read, validate and resolve a deck file. Raises with all diagnostics."""
    return _load(path, resolve)


def load_echo(path: str) -> dict:
    """The resolved echo of a deck file, each matrix_cm1 as the deck gives it.

    It is RunConfig.resolved with the deck's own coupling section; the
    deck is read, validated and resolved as load_config does it.
    """

    def echo(raw: dict) -> dict:
        return dict(resolve(raw).resolved, coupling=raw["coupling"])

    return _load(path, echo)


def _load(path: str, build):
    """build(the deck file's data), logging where the time went."""
    t0 = time.perf_counter()
    stats = {}
    # build gets the only reference to the data, so that resolve can free
    # the deck's number lists as soon as it has read them
    out = build(_read_file(path, stats))
    t2 = time.perf_counter()
    log.info(
        "deck loaded in %.3f s: parse %.3f s (%d float rows read directly), "
        "validate and resolve %.3f s",
        t2 - t0,
        stats["parsed_at"] - t0,
        stats["float_rows"],
        t2 - stats["parsed_at"],
    )
    return out


def _read_file(path: str, stats: dict) -> dict:
    """The deck file's data, which must be a mapping; sets stats["parsed_at"]."""
    with open(path) as fh:
        raw = _parse(fh.read(), stats)
    if not isinstance(raw, dict):
        raise DeckValidationError(["deck must be a mapping at the top level"])
    stats["parsed_at"] = time.perf_counter()
    return raw
