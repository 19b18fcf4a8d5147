"""The one JSON ingress: every reader gives the same messages for the
same broken document, whether it arrives as text or as bytes."""

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


def test_schema_error_is_one_class():
    assert funcstruct.SchemaError is grammar.SchemaError is jsonio.SchemaError
