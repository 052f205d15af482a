import contextlib
import copy
import dataclasses
import gc
import math
import os
import pathlib
import random
import subprocess
import sys
import tracemalloc
import types

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st
from jsonschema import Draft202012Validator
from yaml.constructor import SafeConstructor

from conftest import DECK_PATHS

import spinphonon
from spinphonon import config
from spinphonon.config import (
    DeckValidationError,
    _parse,
    _schema,
    _schema_errors,
    load_config,
    resolve,
    validate_deck,
)

MINIMAL = {
    "model": {"two_j": 1},
    "bath": {"modes_cm1": [1.0]},
    "coupling": {"operators": [{"matrix_cm1": {"real": [[0.0, 0.5], [0.5, 0.0]]}}]},
    "sweep": {"temperatures_k": [1.0, 2.0]},
}


def deep(d):
    out = yaml.safe_load(yaml.safe_dump(d))
    return out


def test_minimal_deck_resolves_with_documented_defaults():
    cfg = resolve(deep(MINIMAL))
    r = cfg.resolved
    assert r["model"]["g_j"] == 2.0
    assert r["model"]["field_t"] == [0.0, 0.0, 0.0]
    assert r["model"]["stevens_terms_cm1"] == []
    assert r["sweep"]["orders"] == "both"
    assert cfg.orders == (2, 4)
    assert r["outputs"] == {"rates_csv": "rates.csv", "fit_report": "fit_report.txt"}
    n = r["numeric"]
    assert n["secular_tol_cm1"] == 1e-6
    assert n["regularizer_cm1"] == 1.0
    assert n["broadening"] == {"kind": "gaussian", "width_cm1": 3.0, "cutoff_sigmas": 5.0}
    assert n["channels"] == ["absorption_emission"]
    assert n["allow_same_mode"] is False
    assert n["workers"] == 1
    assert cfg.fits == ()
    for key, value in (("align_easy_axis", False), ("drop_threshold_per_s", 1.0)):
        deck = deep(MINIMAL)
        deck["numeric"] = {key: value}
        assert any(key in d for d in validate_deck(deck))


def test_validation_collects_all_diagnostics_not_just_first():
    bad = deep(MINIMAL)
    bad["model"]["two_j"] = 0
    bad["sweep"]["temperatures_k"] = []
    bad["bath"]["modes_cm1"] = [1.0, -3.0]
    diags = validate_deck(bad)
    assert len(diags) >= 3


def test_coupling_form_conflict_is_diagnosed():
    conflicted = deep(MINIMAL)
    conflicted["coupling"]["operators"][0]["stevens_derivatives_cm1"] = [[2, 1, 0.1]]
    diags = validate_deck(conflicted)
    assert any("both" in d for d in diags)
    with pytest.raises(DeckValidationError):
        resolve(conflicted)


def test_coupling_form_missing_is_diagnosed():
    empty = deep(MINIMAL)
    empty["coupling"]["operators"][0] = {}
    diags = validate_deck(empty)
    assert len(diags) >= 1


def test_operator_count_must_match_mode_count():
    bad = deep(MINIMAL)
    bad["bath"]["modes_cm1"] = [1.0, 2.0]
    diags = validate_deck(bad)
    assert any("operator" in d.lower() for d in diags)


def test_stevens_m_exceeding_l_is_diagnosed():
    bad = deep(MINIMAL)
    bad["model"]["stevens_terms_cm1"] = [[2, 3, 0.1]]
    diags = validate_deck(bad)
    assert any("m" in d for d in diags)


def test_matrix_dimension_must_match_model():
    bad = deep(MINIMAL)
    bad["coupling"]["operators"][0]["matrix_cm1"]["real"] = [[0.0]]
    diags = validate_deck(bad)
    assert diags


def test_unknown_keys_rejected():
    bad = deep(MINIMAL)
    bad["bananas"] = 1
    assert validate_deck(bad)
    bad2 = deep(MINIMAL)
    bad2["numeric"] = {"regularizer": 1.0}  # wrong key name
    assert validate_deck(bad2)


def test_fit_window_must_be_ordered():
    bad = deep(MINIMAL)
    bad["fits"] = [
        {"quantity": "t1_rate", "fit_model": "arrhenius", "window_k": [5.0, 2.0]}
    ]
    diags = validate_deck(bad)
    assert any("window" in d.lower() for d in diags)


def test_orders_enum():
    for orders, expected in (("both", (2, 4)), (2, (2,)), (4, (4,))):
        deck = deep(MINIMAL)
        deck["sweep"]["orders"] = orders
        assert resolve(deck).orders == expected
    bad = deep(MINIMAL)
    bad["sweep"]["orders"] = 3
    assert validate_deck(bad)


# J = 3/2 with a complex and a real M_J matrix and a Stevens derivative set
MIXED = {
    "model": {"two_j": 3},
    "bath": {"modes_cm1": [1.0, 2.0, 3.0]},
    "coupling": {
        "operators": [
            {
                "matrix_cm1": {
                    "real": [
                        [0.0, 0.5, 0.0, 0.0],
                        [0.5, 0.0, 0.25, 0.0],
                        [0.0, 0.25, 0.0, 0.5],
                        [0.0, 0.0, 0.5, 0.0],
                    ],
                    "imag": [
                        [0.0, -0.125, 0.0, 0.0],
                        [0.125, 0.0, 0.0, 0.0],
                        [0.0, 0.0, 0.0, -0.125],
                        [0.0, 0.0, 0.125, 0.0],
                    ],
                }
            },
            {
                "matrix_cm1": {
                    "real": [
                        [1.0, 0.0, 0.0, 0.0],
                        [0.0, 0.1, 0.0, 0.0],
                        [0.0, 0.0, -0.1, 0.0],
                        [0.0, 0.0, 0.0, -1.0],
                    ]
                }
            },
            {"stevens_derivatives_cm1": [[2, 0, 0.2], [2, 2, -0.05]]},
        ]
    },
    "sweep": {"temperatures_k": [1.0, 2.0]},
}
OPS = ("coupling", "operators")


def _swap_first_operators(deck):
    ops = deck["coupling"]["operators"]
    ops[0], ops[1] = ops[1], ops[0]


def _reverse_keys(x):
    if isinstance(x, dict):
        return {k: _reverse_keys(x[k]) for k in reversed(list(x))}
    return [_reverse_keys(v) for v in x] if isinstance(x, list) else x


def _mixed_hash(mutate=lambda deck: None) -> str:
    deck = deep(MIXED)
    # a mutation edits the deck in place or returns a new one
    return resolve(mutate(deck) or deck).config_hash


def test_config_hash_stable_and_sensitive():
    a = resolve(deep(MINIMAL)).config_hash
    b = resolve(deep(MINIMAL)).config_hash
    assert a == b and len(a) == 16
    changed = deep(MINIMAL)
    changed["sweep"]["temperatures_k"] = [1.0, 2.5]
    assert resolve(changed).config_hash != a

    base = _mixed_hash()
    assert base == _mixed_hash() and len(base) == 16
    # matrix numbers are hashed as their resolved complex128 values
    changes = [
        _set((*OPS, 0, "matrix_cm1", "real", 1, 2), math.nextafter(0.25, 1.0)),
        _set((*OPS, 0, "matrix_cm1", "imag", 0, 1), math.nextafter(-0.125, 0.0)),
        _swap_first_operators,
        _set((*OPS, 1, "matrix_cm1", "basis"), "eigen"),
        _set((*OPS, 2, "stevens_derivatives_cm1", 0, 2), 0.25),
    ]
    for mutate in changes:
        assert _mixed_hash(mutate) != base
    zeros = [[0.0] * 4 for _ in range(4)]
    same = [
        _reverse_keys,
        _set((*OPS, 1, "matrix_cm1", "imag"), zeros),
        _set((*OPS, 1, "matrix_cm1", "real", 0, 0), 1),
        _set((*OPS, 1, "matrix_cm1", "basis"), "mj"),
    ]
    for mutate in same:
        assert _mixed_hash(mutate) == base


def test_config_hash_of_the_bundled_decks():
    # a deck without matrix_cm1 operators hashes its resolved JSON alone
    assert load_config(DECK_PATHS["four_level"]).config_hash == "6673480d3c3df761"
    assert load_config(DECK_PATHS["j15_2"]).config_hash == "e0adc384b9283645"
    # a fresh interpreter with another str hash seed gives the same hash
    expected = load_config(DECK_PATHS["spin_half"]).config_hash
    code = "import sys\nfrom spinphonon.config import load_config\n"
    code += "print(load_config(sys.argv[1]).config_hash)\n"
    src = pathlib.Path(spinphonon.__file__).resolve().parents[1]
    path = os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED="12345")
    done = subprocess.run(
        [sys.executable, "-c", code, str(DECK_PATHS["spin_half"])],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == expected


def test_hash_ignores_key_order():
    reordered = {k: MINIMAL[k] for k in reversed(list(MINIMAL))}
    assert resolve(deep(reordered)).config_hash == resolve(deep(MINIMAL)).config_hash


def test_load_config_roundtrip(tmp_path):
    path = tmp_path / "deck.yaml"
    path.write_text(yaml.safe_dump(MINIMAL))
    cfg = load_config(path)
    assert cfg.temperatures_k == (1.0, 2.0)
    assert [m.omega_cm1 for m in cfg.modes] == [1.0]
    assert dataclasses.is_dataclass(cfg)


def test_load_config_rejects_non_mapping(tmp_path):
    path = tmp_path / "deck.yaml"
    path.write_text("- just\n- a\n- list\n")
    with pytest.raises(DeckValidationError):
        load_config(path)


def test_exact_broadening_resolves(tmp_path):
    deck = deep(MINIMAL)
    deck["numeric"] = {"broadening": {"kind": "exact"}}
    cfg = resolve(deck)
    assert cfg.broadening.kind == "exact"


def _set(path, value):
    """Deck mutation setting the entry at path (keys and indices) to value."""

    def mutate(deck):
        target = deck
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value

    return mutate


MATRIX = ("coupling", "operators", 0, "matrix_cm1", "real")
REAL = "coupling.operators[0].matrix_cm1.real"


@pytest.mark.parametrize(
    "mutate, expected",
    [
        (
            _set(("sweep", "temperatures_k", 0), math.inf),
            "sweep.temperatures_k[0]: inf is not finite",
        ),
        (
            _set(("numeric",), {"broadening": {"width_cm1": math.nan}}),
            "numeric.broadening.width_cm1: nan is not finite",
        ),
        (_set((*MATRIX, 1, 0), math.nan), f"{REAL}[1][0]: nan is not finite"),
        (_set(("bath", "modes_cm1", 0), -math.inf), "bath.modes_cm1[0]: -inf is not finite"),
        (_set((*MATRIX, 1), [0.5]), f"{REAL}[1]: a row of 1 entries"),
        # the entries the schema rejected by type before numbers moved to numpy
        (_set((*MATRIX, 0, 1), True), f"{REAL}[0][1]: True is not of type 'number'"),
        (_set((*MATRIX, 0, 1), "0.5"), f"{REAL}[0][1]: '0.5' is not of type 'number'"),
        (_set((*MATRIX, 0, 1), None), f"{REAL}[0][1]: None is not of type 'number'"),
        (_set((*MATRIX, 0, 1), [0.5]), f"{REAL}[0][1]: [0.5] is not of type 'number'"),
        (
            _set(("bath", "modes_cm1", 0), -3.0),
            "bath.modes_cm1[0]: -3.0 is less than or equal to the minimum of 0",
        ),
        (
            _set(("numeric",), {"regularizer_cm1": -1}),
            "numeric.regularizer_cm1: -1 is less than the minimum of 0",
        ),
        (_set(("bath", "modes_cm1", 0), 10**400), f"bath.modes_cm1[0]: {10**400} is too large"),
    ],
    ids=[
        "inf_temperature",
        "nan_width",
        "nan_matrix_entry",
        "inf_mode",
        "ragged_matrix_row",
        "bool_matrix_entry",
        "string_matrix_entry",
        "null_matrix_entry",
        "list_matrix_entry",
        "negative_mode",
        "negative_regularizer",
        "integer_beyond_float_range",
    ],
)
def test_bad_number_is_diagnosed_with_its_path(mutate, expected):
    deck = deep(MINIMAL)
    mutate(deck)
    deck = yaml.safe_load(yaml.safe_dump(deck))  # .inf and .nan as a deck writes them
    diags = validate_deck(deck)
    assert len(diags) == 1 and diags[0].startswith(expected), diags
    with pytest.raises(DeckValidationError):
        resolve(deck)


def test_wrong_structure_is_diagnosed_not_raised():
    bad = deep(MINIMAL)
    bad["model"] = [1]
    bad["fits"] = [{"quantity": "t1_rate", "fit_model": "arrhenius", "window_k": ["a", 1]}]
    diags = validate_deck(bad)
    assert "model: [1] is not of type 'object'" in diags
    assert "fits[0].window_k[0]: 'a' is not of type 'number'" in diags


FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def hermitian_matrix_decks(draw):
    d = draw(st.integers(2, 6))
    real = [[0.0] * d for _ in range(d)]
    imag = [[0.0] * d for _ in range(d)]
    for r in range(d):
        real[r][r] = draw(FINITE)
        for c in range(r + 1, d):
            real[r][c] = real[c][r] = draw(FINITE)
            imag[r][c] = draw(FINITE)
            imag[c][r] = -imag[r][c]
    deck = deep(MINIMAL)
    deck["model"]["two_j"] = d - 1
    deck["coupling"]["operators"][0]["matrix_cm1"] = {"real": real, "imag": imag}
    return deck


@settings(max_examples=60, deadline=None)
@given(deck=hermitian_matrix_decks(), data=st.data())
def test_finite_matrix_resolves_and_one_bad_entry_is_named(deck, data):
    mat = deck["coupling"]["operators"][0]["matrix_cm1"]
    assert validate_deck(deck) == []
    expected = np.array(mat["real"]) + 1j * np.array(mat["imag"])
    np.testing.assert_array_equal(resolve(deck).coupling_specs[0].matrix, expected)

    d = len(mat["real"])
    part = data.draw(st.sampled_from(("real", "imag")))
    r, c = data.draw(st.integers(0, d - 1)), data.draw(st.integers(0, d - 1))
    mat[part][r][c] = data.draw(st.sampled_from((math.nan, math.inf, -math.inf)))
    diags = [x for x in validate_deck(deck) if "matrix_cm1" in x]
    assert len(diags) == 1
    assert diags[0].startswith(f"coupling.operators[0].matrix_cm1.{part}[{r}][{c}]: ")


# Values a mutation writes into a deck: wrong types, edge numbers, and
# values that are right somewhere else in the schema.
MUTANT_VALUES = (
    None, True, False, 0, 1, 2, 4, -7, 7, 0.5, 2.0, 10**400, math.nan, math.inf,
    "", "x", "both", "mj", "gaussian", "tau_rate",
    [], [2], [2, 0, 1.0], [1, 2, 3, 4], {}, {"a": 1},
)


def _containers(node, out):
    """Every dict and list inside node, node included."""
    if isinstance(node, (dict, list)):
        out.append(node)
        for child in node.values() if isinstance(node, dict) else node:
            _containers(child, out)
    return out


def _mutate(deck, rng):
    """One seeded edit: set a value, delete a key, add an unknown key, or append."""
    target = rng.choice(_containers(deck, []))
    keys = list(target) if isinstance(target, dict) else range(len(target))
    kind = rng.choice(("set", "delete", "unknown", "append"))
    if kind == "set" and keys:
        target[rng.choice(keys)] = copy.deepcopy(rng.choice(MUTANT_VALUES))
    elif kind == "delete" and isinstance(target, dict) and keys:
        del target[rng.choice(keys)]
    elif kind == "unknown" and isinstance(target, dict):
        target[rng.choice(("bananas", "width", "order", "zeta"))] = rng.choice(MUTANT_VALUES)
    elif isinstance(target, list):
        target.append(copy.deepcopy(rng.choice(MUTANT_VALUES)))


def _mutated_decks(n_per_base: int, seed: int):
    bases = [yaml.safe_load(path.read_text()) for path in DECK_PATHS.values()] + [deep(MINIMAL)]
    rng = random.Random(seed)
    for base in bases:
        for _ in range(n_per_base):
            deck = copy.deepcopy(base)
            for _ in range(rng.randint(1, 3)):
                _mutate(deck, rng)
            yield deck


def test_schema_interpreter_matches_jsonschema_on_mutated_decks():
    validator = Draft202012Validator(_schema())
    n_decks = n_invalid = 0
    for deck in _mutated_decks(n_per_base=500, seed=8):
        ours = sorted(_schema_errors(deck, _schema()), key=repr)
        reference = sorted(
            ((tuple(e.absolute_path), e.message) for e in validator.iter_errors(deck)), key=repr
        )
        assert ours == reference, deck
        n_decks += 1
        n_invalid += bool(reference)
    assert n_decks >= 2000 and n_invalid >= n_decks // 2


@pytest.mark.parametrize(
    "path, value, expected",
    [
        (
            ("model", "two_j"),
            0.5,
            ["0.5 is not of type 'integer'", "0.5 is less than the minimum of 1"],
        ),
        (("model", "two_j"), 3.0, []),
        (("model", "two_j"), True, ["True is not of type 'integer'"]),
        (("sweep", "orders"), True, ["True is not valid under any of the given schemas"]),
        (("sweep", "orders"), 4.0, []),
        (("bath", "modes_cm1"), [], ["[] should be non-empty"]),
        (("outputs",), {"b": 1, "a": 2}, [
            "Additional properties are not allowed ('a', 'b' were unexpected)"
        ]),
    ],
)
def test_schema_interpreter_words_and_types(path, value, expected):
    deck = deep(MINIMAL)
    _set(path, value)(deck)
    assert [message for _, message in _schema_errors(deck, _schema())] == expected


def _schema_nodes(node):
    """node and every subschema below it."""
    yield node
    for key, arg in node.items():
        if key in ("properties", "$defs"):
            for sub in arg.values():
                yield from _schema_nodes(sub)
        elif key in ("prefixItems", "oneOf"):
            for sub in arg:
                yield from _schema_nodes(sub)
        elif key == "items":
            yield from _schema_nodes(arg)


def test_every_schema_keyword_is_implemented():
    # the interpreter visits every keyword of a node whatever the value,
    # and raises on one it does not implement
    for node in _schema_nodes(_schema()):
        for value in (None, {}, [], "x", 1):
            list(_schema_errors(value, node))
    with pytest.raises(ValueError, match="'pattern'"):
        list(_schema_errors("x", {"type": "string", "pattern": "^y"}))


def _matrix_deck_text(n_modes: int, seed: int, width: float = math.inf) -> str:
    """A J = 15/2 deck with n_modes random Hermitian matrix couplings, in flow rows.

    Each row is one line, as the benchmark writes it, unless width wraps it.
    """
    rng = np.random.default_rng(seed)
    ops = []
    for _ in range(n_modes):
        a = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
        h = (a + a.conj().T) / 2
        ops.append({"matrix_cm1": {"real": h.real.tolist(), "imag": h.imag.tolist()}})
    deck = deep(MINIMAL)
    deck["model"] = {"two_j": 15, "stevens_terms_cm1": [[2, 0, -1.0]]}
    deck["bath"]["modes_cm1"] = np.sort(rng.uniform(1.0, 300.0, n_modes)).tolist()
    deck["coupling"]["operators"] = ops
    return yaml.safe_dump(deck, default_flow_style=None, sort_keys=False, width=width)


def _same(a, b) -> bool:
    """Equal and of the same type all the way down; NaN equals NaN."""
    if type(a) is not type(b):
        return False
    if isinstance(a, dict):
        return list(a) == list(b) and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, list):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    return a == b or a != a and b != b


# spellings where float() and the stock float constructor could part
# ways, rows that are not all floats, and an empty row
LOADER_SNIPPETS = (
    "a: 1_000.5", "a: .inf", "a: -.inf", "a: .NaN", 'a: !!float "1e5"', "a: 1:30.5",
    "a: [2, 0, -1.0]", "a: []", 'a: [1.0, "2.0"]',
    "a: [1.5, 1_000.5, 1:30.5, .inf, -.inf, .NaN, -0.0, +2.5e+3]",
    "a: [true, 1, 1.0, null, x, 0x10, 1e5]",
    "a:\n  - 1.0\n  - 2.5\n",
)
# the features the event builder leaves to the stock loader, other tags,
# and text the stock loader refuses
LOADER_FEATURES = {
    "scalar_anchor": "a: &x 1.5\nb: *x\n",
    "duplicate_anchor": "a: &x 1.5\nb: &x 2.5\n",
    "sequence_anchor": "a: &r [1.0, 2.0]\nb: *r\n",
    "mapping_anchor": "a: &m {x: 1.0, y: [2]}\nb: *m\n",
    "merge_key": "base: &b {x: 1.0, y: 2}\nderived:\n  <<: *b\n  y: 3\n",
    "set": "a: !!set {x, y}\n",
    "binary": 'a: !!binary "aGVsbG8="\n',
    "sequence_tag_on_a_scalar": "a: !!seq x\n",
    "timestamp": "a: 2001-12-14t21:59:43.10-05:00\nb: 2002-12-14\n",
    "duplicate_key": "a: 1\nb: 2\na: 3.5\n",
    "null_keys": "~: 1\n? null\n: [2.5]\n",
    "complex_key": "? [a, b]\n: c\n",
    "nested_flow": "a: {b: [1.0, {c: [2, 3.5]}, []], d: {}}\n",
    "empty_file": "",
    "two_documents": "a: 1\n---\nb: 2\n",
    "unterminated_flow_sequence": "a: [1.0, 2.0\n",
    "bad_bool": "a: !!bool maybe\n",
    # the stock loader composes the whole document before it constructs
    "bad_bool_then_syntax_error": "a: !!bool maybe\nb: [1\n",
}
# text the float row pass blanks, or must leave to the parser: a row where
# the parser sees no sequence, tags, anchors and keys, spellings on either
# side of the row pattern, and text around rows that the parser refuses
FLOAT_ROW_CASES = {
    "row_in_a_comment": "a: [1.0, 2.0] # [3.0, 4.0]\n# [5.0]\nb: [6.0]\n",
    "row_in_a_double_quoted_scalar": 'a: "[1.0, 2.0]"\nb: [3.0]\n',
    "row_in_a_single_quoted_scalar": "a: '[1.0, 2.0]'\nb: [3.0]\n",
    "row_in_a_block_scalar": "a: |\n  [1.0, 2.0]\n  x\nb: [3.0]\n",
    "row_in_a_plain_scalar": "a: x [1.0, 2.0]\nb: [3.0]\n",
    "row_continuing_a_plain_scalar": "a: x\n  [1.0, 2.0]\nb: [3.0]\n",
    "anchored_row": "a: &r [1.0, 2.0]\nb: [3.0]\n",
    "seq_tagged_row": "a: !!seq [1.0, 2.0]\nb: [3.0]\n",
    "str_tagged_row": "a: !!str [1.0, 2.0]\n",
    "row_as_a_key": "[1.0]: x\n",
    "row_as_an_explicit_key": "? [1.0]\n: x\n",
    "row_as_a_flow_key": "a: {[1.0, 2.0]: x}\n",
    "row_of_an_int_and_a_float": "a: [1, 2.0]\n",
    "signed_dot_float": "a: [-.5, 1.0]\nb: [+.5]\n",
    "underscore": "a: [1_0.5]\n",
    "unsigned_exponent": "a: [1.0e5]\n",
    "spellings": "a: [1.0e+5, .5, 1., -0.0, +2.5E-3, 0.0e-0]\n",
    "no_spaces": "a: [1.0,2.0]\n",
    "inner_spaces": "a: [ 1.0 , 2.0 ]\n",
    "trailing_comma": "a: [1.0, 2.0,]\n",
    "row_split_over_two_lines": "a: [1.0,\n  2.0]\nb: [3.0]\n",
    "nested_rows": "a: [[1.0, 2.0], [3.5], [], [[4.0]]]\n",
    "rows_in_a_flow_mapping": "a: {b: [1.0, 2.0], c: [3.0], d: x}\n",
    "inf_in_a_row": "a: [.inf, 1.0]\n",
    "sexagesimal_in_a_row": "a: [1:30.5, 1.0]\n",
    "row_as_the_document": "[1.0, 2.0]\n",
    "block_sequence_of_rows": "a:\n- [1.0, 2.0]\n- [3.0, 4.0]\n",
    "junk_after_a_row": "a: [1.0, 2.0] x\n",
    "junk_against_a_row": "a: [1.0, 2.0]x\n",
    "unterminated_row_after_a_good_one": "a: [1.0, 2.0]\nb: [3.0, 4.0\n",
    "second_document_after_rows": "a: [1.0]\n---\nb: [2.0]\n",
    "non_ascii_comment": "# é, cm⁻¹ ✓\na: [1.0, 2.0] # ü\nb: [3.0]\n",
    "leading_bom": "\ufeffa: [1.0, 2.0]\n",
    "crlf_line_ends": "a: [1.0, 2.0]\r\nb:\r\n  - [3.0, -4.5e-3]\r\n",
    "lone_surrogate_after_a_row": "a: [1.0]\n# \ud800\n",
    "row_tag_in_a_deck_value": "a: [1.0]\nb: !spinphonon-row 0\n",
    "row_tag_in_a_comment": "a: [1.0] # !spinphonon-row 0\n",
    "row_tag_spelled_with_escapes": "# [1.0]\na: !spinphonon%2Drow 0\n",
    "row_tag_spelled_with_a_handle": "%TAG !r! !spinphonon-\n---\n# [1.0]\na: !r!row 0\n",
    "underscore_after_a_row": "a: [1.0]_1\n",
    "row_after_a_json_key": '{"a":[1.0, 2.0]}\n',
    "row_against_a_plain_key": "{a:[1.0]}\n",
    "row_aliased_twice": "a: &r [1.0, 2.0]\nb: *r\nc: *r\n",
    "row_under_a_duplicate_key": "a: [1.0]\nb: 2\na: [3.0, 4.0]\n",
}
STOCK_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
FLOAT_TAG = "tag:yaml.org,2002:float"
# libyaml, and the pure-Python parser PyYAML falls back to without it
LOADERS = tuple(dict.fromkeys((STOCK_LOADER, yaml.SafeLoader)))


def _outcome(load, text):
    """What load makes of text: its data, or its exception's type and message."""
    try:
        return load(text)
    except Exception as exc:  # YAMLError, or a constructor's own ValueError or KeyError
        return type(exc), str(exc)


@pytest.mark.parametrize(
    "text",
    [*(p.read_text() for p in DECK_PATHS.values()), _matrix_deck_text(20, seed=5),
     _matrix_deck_text(20, seed=5, width=80),
     *LOADER_SNIPPETS, *LOADER_FEATURES.values(), *FLOAT_ROW_CASES.values()],
    ids=[*DECK_PATHS, "matrix_deck_20_modes", "matrix_deck_20_modes_wrapped",
         *LOADER_SNIPPETS, *LOADER_FEATURES, *FLOAT_ROW_CASES],
)
def test_deck_loader_builds_what_the_safe_loader_builds(text, monkeypatch):
    for loader in LOADERS:
        monkeypatch.setattr(config, "_LOADER", loader)
        stock = _outcome(lambda t: yaml.load(t, Loader=loader), text)
        assert _same(_outcome(_parse, text), stock), loader.__name__


@given(st.from_regex(config._ROW_NUMBER, fullmatch=True))
def test_a_row_number_is_a_float_the_safe_loader_reads_as_float_does(number):
    # -.5 would fail here: the resolver makes it a string, float() a number
    loader = STOCK_LOADER("")
    assert loader.resolve(yaml.ScalarNode, number, (True, False)) == FLOAT_TAG
    node = yaml.ScalarNode(FLOAT_TAG, number)
    assert repr(float(number)) == repr(SafeConstructor.construct_yaml_float(loader, node))


def test_the_float_rows_of_a_matrix_deck_make_no_scalar_events(monkeypatch):
    text = _matrix_deck_text(20, seed=8)
    construct, values = SafeConstructor.yaml_constructors[FLOAT_TAG], []

    def counted(loader, node):
        values.append(node.value)
        return construct(loader, node)

    monkeypatch.setitem(SafeConstructor.yaml_constructors, FLOAT_TAG, counted)
    stats = {}
    data = _parse(text, stats)
    # real and imag rows of each mode, then modes_cm1 and temperatures_k
    assert stats["float_rows"] == 20 * 2 * 16 + 2
    # the one float left is in the Stevens term [2, 0, -1.0], not a row of floats
    assert values == ["-1.0"]
    assert _same(data, yaml.load(text, Loader=STOCK_LOADER))


def test_deck_loader_keeps_an_anchored_row_one_object():
    text = "a: &r [1.0, 2.0]\nb: *r\n"
    for load in (lambda t: yaml.load(t, Loader=STOCK_LOADER), _parse):
        data = load(text)
        assert data == {"a": [1.0, 2.0], "b": [1.0, 2.0]}
        assert data["a"] is data["b"]


def test_deck_loader_refuses_a_float_tagged_sequence_as_the_safe_loader_does():
    for load in (lambda t: yaml.load(t, Loader=STOCK_LOADER), _parse):
        with pytest.raises(yaml.constructor.ConstructorError, match="expected a scalar node"):
            load("a: [!!float [1.0], 2.0]")


def test_parse_peak_memory_stays_near_the_size_of_the_data():
    # a composed node tree peaks at about nine times the data it yields
    text = _matrix_deck_text(20, seed=7)
    tracemalloc.start()
    try:
        data = _parse(text)
        size, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(data["coupling"]["operators"]) == 20
    assert peak < 2 * size


@pytest.mark.parametrize("enabled", [True, False], ids=["gc_on", "gc_off"])
@pytest.mark.parametrize(
    "text, raises",
    [
        (yaml.safe_dump(MINIMAL), contextlib.nullcontext()),
        ("model: [1, 2\n", pytest.raises(yaml.YAMLError)),
        (yaml.safe_dump({**MINIMAL, "extra": 1}), pytest.raises(DeckValidationError)),
    ],
    ids=["valid", "syntax_error", "schema_failure"],
)
def test_load_config_leaves_the_callers_collector_as_it_was(tmp_path, enabled, text, raises):
    path = tmp_path / "deck.yaml"
    path.write_text(text)
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        with raises:
            load_config(path)
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


def test_no_cyclic_collection_runs_while_yaml_parses_a_deck(tmp_path, monkeypatch):
    path = tmp_path / "deck.yaml"
    path.write_text(_matrix_deck_text(20, seed=6))
    parsing, starts = [False], []

    def parse(*args, **kwargs):
        parsing[0] = True
        try:
            return _parse(*args, **kwargs)
        finally:
            parsing[0] = False

    def record(phase, info):
        if phase == "start" and parsing[0]:
            starts.append(info["generation"])

    monkeypatch.setattr(config, "_parse", parse)
    # a collection every few new containers, were the collector running
    threshold = gc.get_threshold()
    gc.set_threshold(10, 10, 10)
    gc.callbacks.append(record)
    try:
        cfg = load_config(path)
    finally:
        gc.callbacks.remove(record)
        gc.set_threshold(*threshold)
    assert len(cfg.modes) == 20
    assert starts == []


def _reachable(root) -> list:
    """The objects reachable from root, not descending into code: types,
    modules and functions."""
    seen, todo = {}, [root]
    while todo:
        obj = todo.pop()
        if id(obj) in seen or isinstance(obj, (type, types.ModuleType, types.FunctionType)):
            continue
        seen[id(obj)] = obj
        todo.extend(gc.get_referents(obj))
    return list(seen.values())


def test_a_loaded_config_holds_no_row_of_its_decks_matrices(tmp_path, monkeypatch):
    text = _matrix_deck_text(20, seed=8)
    ops = yaml.safe_load(text)["coupling"]["operators"]
    rows = {tuple(row) for op in ops for part in op["matrix_cm1"].values() for row in part}
    del ops
    assert len(rows) == 20 * 2 * 16
    path = tmp_path / "deck.yaml"
    path.write_text(text)

    def rows_in(objects) -> int:
        return sum(
            type(x) is list and len(x) == 16 and all(type(v) is float for v in x)
            and tuple(x) in rows
            for x in objects
        )

    # the deck's lists are freed before resolve builds the config objects
    alive, model = [], config.SpinModel

    def spy(*args, **kwargs):
        alive.append(rows_in(gc.get_objects()))
        return model(*args, **kwargs)

    monkeypatch.setattr(config, "SpinModel", spy)
    cfg = load_config(path)
    assert alive == [0]
    assert rows_in(_reachable(cfg)) == 0
    ops = cfg.resolved["coupling"]["operators"]
    assert ops == [{"matrix_cm1": {"basis": "mj"}}] * 20
    assert len(cfg.coupling_specs) == 20
