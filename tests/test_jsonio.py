"""The one JSON ingress: every reader gives the same messages for the
same broken document, whether it arrives as text or as bytes; a record's
own error is located at the record; and a rational's exponent is bounded
like an integer's digits."""

import json
import sys
import time
from fractions import Fraction

import pytest

from designbench import casebase, classify, funcstruct, grammar, jsonio, novelty, synth

READERS = [
    funcstruct.parse_structure,
    novelty.parse_knowledge_base,
    novelty.parse_design_instance,
    grammar.parse_grammar,
    casebase.parse_case_base,
    casebase.parse_similarity_spec,
    synth.parse_requirement,
    synth.parse_topology,
    classify.parse_profile,
    classify.parse_matrix,
]

# (name, document, str(SchemaError))
BROKEN = [
    ("empty", "", "$: empty document"),
    ("whitespace only", " \n\t\r\n ", "$: empty document"),
    ("trailing comma", '{"a": 1,}',
     "line 1: not valid JSON: Expecting property name enclosed in double quotes: "
     "line 1 column 9 (char 8)"),
    ("missing comma on line 4", "[\n  1,\n  2\n  3]",
     "line 4: not valid JSON: Expecting ',' delimiter: line 4 column 3 (char 13)"),
    ("extra data", "{} {}", "line 1: not valid JSON: Extra data: line 1 column 4 (char 3)"),
    ("byte order mark", "\ufeff{}",
     "line 1: not valid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig): "
     "line 1 column 1 (char 0)"),
    ("NaN", '{"x": NaN}', "$: not valid JSON: NaN is not a finite number"),
    ("Infinity", "[Infinity]", "$: not valid JSON: Infinity is not a finite number"),
    ("-Infinity", "[-Infinity]", "$: not valid JSON: -Infinity is not a finite number"),
    ("float overflow", '{"x": [1e999]}', "$: not valid JSON: 1e999 is not a finite number"),
    ("negative float overflow", "-1.5e400",
     "$: not valid JSON: -1.5e400 is not a finite number"),
    ("integer too long to convert", '{"x": [' + "7" * 4301 + "]}",
     "$: not valid JSON: an integer has more than 4300 digits"),
    ("negative integer too long to convert", "-" + "7" * 5000,
     "$: not valid JSON: an integer has more than 4300 digits"),
]


@pytest.mark.parametrize("encode", [False, True], ids=["str", "bytes"])
@pytest.mark.parametrize("name,document,message", BROKEN, ids=[row[0] for row in BROKEN])
@pytest.mark.parametrize("reader", READERS, ids=lambda reader: reader.__name__)
def test_ingress_message_is_pinned(reader, name, document, message, encode):
    with pytest.raises(jsonio.SchemaError) as err:
        reader(document.encode("utf-8") if encode else document)
    assert str(err.value) == message


def test_finite_floats_and_large_integers_are_read():
    assert jsonio.load_document(b'[0.1, -2.5e-3, 1e308, 12345678901234567890]') == \
        [0.1, -0.0025, 1e308, 12345678901234567890]
    assert jsonio.load_document("7" * 4300) == int("7" * 4300)


def test_schema_error_is_one_class():
    assert funcstruct.SchemaError is grammar.SchemaError is jsonio.SchemaError


def _grammar(rules=(), axiom_ids=("n1",)):
    return {"vocabulary": {"node_labels": {"a": {}}, "edge_labels": []},
            "rules": list(rules),
            "axiom": {"nodes": [{"id": i, "label": "a"} for i in axiom_ids], "edges": []}}


def _rule(name, anchors=None):
    node = {"id": "x", "label": "a"}
    return {"name": name, "lhs": {"nodes": [node, dict(node, id="y")]},
            "rhs": {"nodes": [node]}, "anchors": anchors or {}}


_CASE = {"id": "c", "solution": {"description": "d"},
         "problem": {"kind": "structure", "vertices": [{"id": "f", "label": "f"}],
                     "terminals": [{"id": "i", "kind": "input", "label": "x"},
                                   {"id": "o", "kind": "output", "label": "y"}],
                     "flows": [{"source": "i", "target": "f", "label": "x"},
                               {"source": "f", "target": "o", "label": "y"}]}}


def _table(names, rows):
    return {"inputs": names, "outputs": ["y"],
            "rows": [{"in": [r >> 1, r & 1], "out": [0]} for r in rows]}


# (reader, document, str(SchemaError)): a record's own check, located at
# the record; one row per jsonio.located call in a reader
LOCATED = [
    (synth.parse_requirement, _table(["a", "a"], range(4)),
     "$.inputs: primary input names must be unique"),
    (synth.parse_requirement, _table(["a", "b"], range(3)), "$: expected 4 rows, got 3"),
    (synth.parse_topology, {"inputs": ["a"], "slots": [], "outputs": ["s0"]},
     "$: a topology needs at least one gate slot"),
    (grammar.parse_grammar, _grammar(axiom_ids=("n1", "n1")), "$.axiom: node ids must be unique"),
    (grammar.parse_grammar, _grammar([_rule("r", {"x": "x", "y": "x"})]),
     "$.rules[0]: rule 'r': anchor map must be injective"),
    (grammar.parse_grammar, _grammar([_rule("r"), _rule("r")]), "$: rule names must be unique"),
    (casebase.parse_case_base, [_CASE, _CASE], "$: case ids must be unique"),
    (casebase.parse_similarity_spec, {"function": "1/2", "flow": "1/2", "structure": "1/2"},
     "$: similarity weights must sum to exactly 1"),
    (classify.parse_profile, {"decomposable": True, "pi": 2, "novelty": "routine"},
     "$: interdependency index must lie in [0, 1]"),
]


@pytest.mark.parametrize("reader,document,message", LOCATED,
                         ids=[row[2].split(": ", 1)[1] for row in LOCATED])
def test_record_error_is_located(reader, document, message):
    with pytest.raises(jsonio.SchemaError) as err:
        reader(json.dumps(document))
    assert str(err.value) == message


_ROW = {"method": "grammar_based", "requires_decomposable": True,
        "interdependencies": "full", "innovation": "full", "creativity": "full"}

# (reader, document, str(SchemaError)): a wrong-typed named field reads
# "'<key>' must be <kind>" at the field, and a wrong-typed document or
# array element "expected <kind>" at itself (a function structure's fields
# too, whose messages predate the field form)
WRONG_TYPES = [
    (funcstruct.parse_structure, dict(_CASE["problem"], vertices=[3]),
     "$.vertices[0]: expected an object"),
    (novelty.parse_knowledge_base, {"variables": {}}, "$.variables: 'variables' must be an array"),
    (novelty.parse_knowledge_base, {"variables": [["x"]]}, "$.variables[0]: expected an object"),
    (novelty.parse_design_instance, {"assignments": [], "feasible": True},
     "$.assignments: 'assignments' must be an object"),
    (novelty.parse_design_instance, [{"assignments": {"x": 1}}], "$: expected an object"),
    (grammar.parse_grammar, _grammar([dict(_rule("r"), name=7)]),
     "$.rules[0].name: 'name' must be a string"),
    (grammar.parse_grammar, dict(_grammar(), vocabulary={"node_labels": {}, "edge_labels": [1]}),
     "$.vocabulary.edge_labels[0]: expected a string"),
    (casebase.parse_case_base, [dict(_CASE, domain=None)],
     "$[0].domain: 'domain' must be a string"),
    (casebase.parse_case_base, [_CASE, "c"], "$[1]: expected an object"),
    (casebase.parse_similarity_spec, [], "$: expected an object"),
    (synth.parse_requirement, dict(_table(["a", "b"], range(4)), rows=[{"in": 0, "out": [0]}]),
     "$.rows[0].in: 'in' must be an array"),
    (synth.parse_requirement, dict(_table(["a", "b"], range(4)), rows=[[0, 0]]),
     "$.rows[0]: expected an object"),
    (synth.parse_topology, {"inputs": ["a"], "slots": [{"arity": True, "from": ["a"]}],
                            "outputs": ["s0"]}, "$.slots[0].arity: 'arity' must be an integer"),
    (synth.parse_topology, {"inputs": ["a"], "slots": [{"from": [0]}], "outputs": ["s0"]},
     "$.slots[0].from[0]: expected a string"),
    (classify.parse_profile, {"decomposable": 1, "novelty": "routine"},
     "$.decomposable: 'decomposable' must be a boolean"),
    (classify.parse_profile, "routine", "$: expected an object"),
    (classify.parse_matrix, [dict(_ROW, requires_decomposable="yes")],
     "$[0].requires_decomposable: 'requires_decomposable' must be a boolean"),
    (classify.parse_matrix, [_ROW, None], "$[1]: expected an object"),
]


@pytest.mark.parametrize("reader,document,message", WRONG_TYPES,
                         ids=[reader.__name__ + ("-field" if "must be" in message else "-element")
                              for reader, _, message in WRONG_TYPES])
def test_a_wrong_type_is_reported_in_one_of_two_forms(reader, document, message):
    with pytest.raises(jsonio.SchemaError) as err:
        reader(json.dumps(document))
    assert str(err.value) == message
    assert err.value.location == message.partition(": ")[0]


# Fraction reads Unicode digits and underscores in an exponent as int
# does; each value here reduces to terms of at most 4,300 digits
@pytest.mark.parametrize("text", ["0.1e4300", "10E-4300", "0.1e+4_300", "10e-٤٣٠٠",
                                  " 7.5e-3 ", "3/10"])
def test_rational_exponent_up_to_the_integer_limit_is_read(text):
    assert jsonio.fraction_from_json(text, "$.w") == Fraction(text)


# the default limit is 4,300 digits; 10 ** 4300 has 4,301
@pytest.mark.parametrize("text", ["1e4299", "1e-4299", "7" * 4300, "3/" + "7" * 4300],
                         ids=["numerator", "denominator", "integer", "quotient"])
def test_rational_of_4300_digits_is_read(text):
    assert jsonio.fraction_from_json(text, "$.w") == Fraction(text)


@pytest.mark.parametrize("text", ["1e4300", "1e-4300", "7" * 4301, "3/" + "7" * 4301],
                         ids=["numerator", "denominator", "integer", "quotient"])
def test_rational_of_4301_digits_is_rejected(text):
    with pytest.raises(jsonio.SchemaError) as err:
        jsonio.fraction_from_json(text, "$.w")
    assert str(err.value) == f"$.w: not a valid rational: {text!r}"


def test_a_limit_of_zero_reads_any_rational():
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        assert jsonio.fraction_from_json("1e-5000", "$.w") == Fraction(1, 10 ** 5000)
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize("text", ["1e4301", "1E-4301", "1e+4_301", "1e٤٣٠١",
                                  "1e" + "9" * 4301],
                         ids=["plain", "negative", "underscore", "arabic-indic", "too-long"])
def test_rational_exponent_past_the_integer_limit_is_rejected(text):
    with pytest.raises(jsonio.SchemaError) as err:
        jsonio.fraction_from_json(text, "$.w")
    assert str(err.value) == f"$.w: not a valid rational: {text!r}"


# Fraction("1e5000000") alone takes seconds: it builds 10 ** 5000000
@pytest.mark.parametrize("reader,document,message", [
    (classify.parse_profile, {"decomposable": True, "pi": "1e5000000", "novelty": "routine"},
     "$.pi: not a valid rational: '1e5000000'"),
    (casebase.parse_similarity_spec, {"function": "1e-5000000", "flow": 0, "structure": 1},
     "$.function: not a valid rational: '1e-5000000'"),
], ids=["profile", "simspec"])
def test_huge_rational_exponent_is_rejected_promptly(reader, document, message):
    start = time.perf_counter()
    with pytest.raises(jsonio.SchemaError) as err:
        reader(json.dumps(document))
    assert str(err.value) == message
    assert time.perf_counter() - start < 0.5
