"""The CLI's bytes, pinned.

* A golden table of every subcommand over the bundled fixtures in both
  formats: the exit code and the first 16 hex digits of the sha256 of
  stdout, of stderr and, for ``--fs-out``, of the written file.  Fixture
  paths are relative to the repository root, so a message naming a file
  does not depend on where the checkout lives.
* The JSON emitter against ``json.dumps(v, indent=2, sort_keys=True)``,
  and so is the ``grammar-generate`` writer, over the document the CLI
  once built from ``grammar.design_to_dict``.
* argparse usage errors, each parsed twice by the one shared parser.
"""

import hashlib
import json

import pytest
from hypothesis import example, given, settings, strategies as st

from designbench import cli, grammar, jsonio
from conftest import FIXTURES

ROOT = FIXTURES.parent


def _digest(text: str | bytes) -> str:
    data = text.encode("utf-8") if isinstance(text, str) else text
    return hashlib.sha256(data).hexdigest()[:16]


GOLDEN = {
    "metrics fixtures/bridge.fs.json --format text":
        (0, "869ab974205640e6", "e3b0c44298fc1c14"),
    "metrics fixtures/bridge.fs.json --format json":
        (0, "4476d45b8f4be920", "e3b0c44298fc1c14"),
    "metrics fixtures/coffee_maker.fs.json --format text":
        (0, "bfc217f0d0f05dd0", "e3b0c44298fc1c14"),
    "metrics fixtures/coffee_maker.fs.json --format json":
        (0, "a3f9e0a3db035352", "e3b0c44298fc1c14"),
    "metrics fixtures/coil_winder.fs.json --format text":
        (0, "9e5b890cf553d25d", "e3b0c44298fc1c14"),
    "metrics fixtures/coil_winder.fs.json --format json":
        (0, "a7c7f96a14807a51", "e3b0c44298fc1c14"),
    "metrics fixtures/full_subtractor.fs.json --format text":
        (0, "1843140b9b60f995", "e3b0c44298fc1c14"),
    "metrics fixtures/full_subtractor.fs.json --format json":
        (0, "494e3ed9107fe50c", "e3b0c44298fc1c14"),
    "metrics fixtures/rope.fs.json --format text":
        (0, "6c7763af610060e2", "e3b0c44298fc1c14"),
    "metrics fixtures/rope.fs.json --format json":
        (0, "22730e56340e885a", "e3b0c44298fc1c14"),
    "novelty fixtures/helicopter.kb.json fixtures/quadrocopter.design.json --format text":
        (0, "76670cb2c9ad7a74", "e3b0c44298fc1c14"),
    "novelty fixtures/helicopter.kb.json fixtures/quadrocopter.design.json --format json":
        (0, "b4ad729e9d64327e", "e3b0c44298fc1c14"),
    "novelty fixtures/helicopter.kb.json fixtures/radio.design.json --format text":
        (0, "10645410fa46b8fe", "e3b0c44298fc1c14"),
    "novelty fixtures/helicopter.kb.json fixtures/radio.design.json --format json":
        (0, "adfe24568be7329c", "e3b0c44298fc1c14"),
    "novelty fixtures/signal_transmission.kb.json fixtures/quadrocopter.design.json --format text":
        (0, "1deb30364380245c", "e3b0c44298fc1c14"),
    "novelty fixtures/signal_transmission.kb.json fixtures/quadrocopter.design.json --format json":
        (0, "2ead31ceaadc2072", "e3b0c44298fc1c14"),
    "novelty fixtures/signal_transmission.kb.json fixtures/radio.design.json --format text":
        (0, "5e2c44c122cb96ac", "e3b0c44298fc1c14"),
    "novelty fixtures/signal_transmission.kb.json fixtures/radio.design.json --format json":
        (0, "b216b068b9f4f788", "e3b0c44298fc1c14"),
    "grammar-generate fixtures/gearbox.grammar.json --format text":
        (0, "97aa707d24f4f791", "e3b0c44298fc1c14"),
    "grammar-generate fixtures/gearbox.grammar.json --format json":
        (0, "09ffd7e548fb2671", "e3b0c44298fc1c14"),
    "grammar-generate fixtures/shaft.grammar.json --format text":
        (0, "1e5cb361bdb83aa2", "e3b0c44298fc1c14"),
    "grammar-generate fixtures/shaft.grammar.json --format json":
        (0, "2e0db5b2493ca741", "e3b0c44298fc1c14"),
    "grammar-generate fixtures/gearbox.grammar.json --max-depth 4 --format text":
        (0, "a90d93e2e4e74c88", "e3b0c44298fc1c14"),
    "grammar-generate fixtures/gearbox.grammar.json --max-depth 4 --format json":
        (0, "05c7c3d827d0975c", "e3b0c44298fc1c14"),
    "cbr-retrieve fixtures/winder_cases.cases.json fixtures/bridge.fs.json --format text":
        (2, "e3b0c44298fc1c14", "131f4a6ac90a3888"),
    "cbr-retrieve fixtures/winder_cases.cases.json fixtures/bridge.fs.json --format json":
        (2, "e3b0c44298fc1c14", "131f4a6ac90a3888"),
    "cbr-retrieve fixtures/winder_cases.cases.json fixtures/coffee_maker.fs.json --format text":
        (0, "9d656a5a17ab0bec", "e3b0c44298fc1c14"),
    "cbr-retrieve fixtures/winder_cases.cases.json fixtures/coffee_maker.fs.json --format json":
        (0, "e3e0888419c447f6", "e3b0c44298fc1c14"),
    "cbr-retrieve fixtures/winder_cases.cases.json fixtures/coil_winder.fs.json --format text":
        (0, "aa6ddc35dac7ff89", "e3b0c44298fc1c14"),
    "cbr-retrieve fixtures/winder_cases.cases.json fixtures/coil_winder.fs.json --format json":
        (0, "7fa16f81ab0d99e3", "e3b0c44298fc1c14"),
    "cbr-retrieve fixtures/winder_cases.cases.json fixtures/full_subtractor.fs.json --format text":
        (0, "e6f9e11da24f0e1e", "e3b0c44298fc1c14"),
    "cbr-retrieve fixtures/winder_cases.cases.json fixtures/full_subtractor.fs.json --format json":
        (0, "9c9e00c8ad814d9d", "e3b0c44298fc1c14"),
    "cbr-retrieve fixtures/winder_cases.cases.json fixtures/rope.fs.json --format text":
        (2, "e3b0c44298fc1c14", "9923a8a66c337773"),
    "cbr-retrieve fixtures/winder_cases.cases.json fixtures/rope.fs.json --format json":
        (2, "e3b0c44298fc1c14", "9923a8a66c337773"),
    "cbr-retrieve fixtures/winder_cases.cases.json fixtures/coil_winder.fs.json -k 5 --simspec fixtures/default.simspec.json --format text":
        (0, "862f86ae1e1499b4", "e3b0c44298fc1c14"),
    "cbr-retrieve fixtures/winder_cases.cases.json fixtures/coil_winder.fs.json -k 5 --simspec fixtures/default.simspec.json --format json":
        (0, "14582f47afd7c080", "e3b0c44298fc1c14"),
    # k far above the base size ranks every case, as -k 5 does
    "cbr-retrieve fixtures/winder_cases.cases.json fixtures/coil_winder.fs.json -k 1000000000 --format text":
        (0, "862f86ae1e1499b4", "e3b0c44298fc1c14"),
    "cbr-retrieve fixtures/winder_cases.cases.json fixtures/coil_winder.fs.json -k 1000000000 --format json":
        (0, "14582f47afd7c080", "e3b0c44298fc1c14"),
    "synth fixtures/and_gate.req.json --format text":
        (0, "4b9ac7bcafb04333", "e3b0c44298fc1c14"),
    "synth fixtures/and_gate.req.json --format json":
        (0, "ba79ab197b44f0e7", "e3b0c44298fc1c14"),
    "synth fixtures/subtractor.req.json --format text":
        (0, "b4d550ea773895b8", "e3b0c44298fc1c14"),
    "synth fixtures/subtractor.req.json --format json":
        (0, "93a28be6ea042aa3", "e3b0c44298fc1c14"),
    "synth fixtures/subtractor.req.json --max-gates 4 --format text":
        (1, "bf43e7e92f3a9f52", "e3b0c44298fc1c14"),
    "synth fixtures/subtractor.req.json --max-gates 4 --format json":
        (1, "308aed7101c27836", "e3b0c44298fc1c14"),
    "synth fixtures/subtractor.req.json --max-gates 7 --format text":
        (0, "b4d550ea773895b8", "e3b0c44298fc1c14"),
    "synth fixtures/subtractor.req.json --max-gates 7 --format json":
        (0, "93a28be6ea042aa3", "e3b0c44298fc1c14"),
    "synth fixtures/subtractor.req.json --topology fixtures/subtractor.topo.json --format text":
        (0, "7c59bb4d45ba574d", "e3b0c44298fc1c14"),
    "synth fixtures/subtractor.req.json --topology fixtures/subtractor.topo.json --format json":
        (0, "326b5f930c322c13", "e3b0c44298fc1c14"),
    "synth fixtures/and_gate.req.json --topology fixtures/subtractor.topo.json --format text":
        (2, "e3b0c44298fc1c14", "e5b2dadf9f92b306"),
    "synth fixtures/and_gate.req.json --topology fixtures/subtractor.topo.json --format json":
        (2, "e3b0c44298fc1c14", "e5b2dadf9f92b306"),
    "synth fixtures/and_gate.req.json --fs-out OUT --format text":
        (0, "4b9ac7bcafb04333", "e3b0c44298fc1c14", "278fdef6c72d5c81"),
    "synth fixtures/and_gate.req.json --fs-out OUT --format json":
        (0, "ba79ab197b44f0e7", "e3b0c44298fc1c14", "278fdef6c72d5c81"),
    "synth fixtures/subtractor.req.json --topology fixtures/subtractor.topo.json --fs-out OUT --format text":
        (0, "7c59bb4d45ba574d", "e3b0c44298fc1c14", "75b044a045557c9a"),
    "synth fixtures/subtractor.req.json --topology fixtures/subtractor.topo.json --fs-out OUT --format json":
        (0, "326b5f930c322c13", "e3b0c44298fc1c14", "75b044a045557c9a"),
    "classify fixtures/blackbox_routine.profile.json --format text":
        (1, "94db85d6a93b34c3", "e3b0c44298fc1c14"),
    "classify fixtures/blackbox_routine.profile.json --format json":
        (1, "92a03595ea8f2607", "e3b0c44298fc1c14"),
    "classify fixtures/creative.profile.json --format text":
        (1, "3c0f994f27b42787", "e3b0c44298fc1c14"),
    "classify fixtures/creative.profile.json --format json":
        (1, "a6e1f91d8592fa39", "e3b0c44298fc1c14"),
    "classify fixtures/innovative.profile.json --format text":
        (0, "72e34eee5175cc0e", "e3b0c44298fc1c14"),
    "classify fixtures/innovative.profile.json --format json":
        (0, "88d12df88c857d45", "e3b0c44298fc1c14"),
    "classify fixtures/routine.profile.json --format text":
        (0, "7a634fd0138e8497", "e3b0c44298fc1c14"),
    "classify fixtures/routine.profile.json --format json":
        (0, "2b34d409b08ea077", "e3b0c44298fc1c14"),
}

_TOP_USAGE = (
    "usage: designbench [-h]\n"
    "                   {metrics,novelty,grammar-generate,cbr-retrieve,synth,classify}\n"
    "                   ...\n"
)
USAGE = {
    "synth fixtures/and_gate.req.json --bogus":
        (2, _TOP_USAGE + "designbench: error: unrecognized arguments: --bogus\n"),
    "transmogrify":
        (2, _TOP_USAGE + "designbench: error: argument command: invalid choice: 'transmogrify' "
            "(choose from 'metrics', 'novelty', 'grammar-generate', 'cbr-retrieve', "
            "'synth', 'classify')\n"),
    "metrics fixtures/rope.fs.json --format xml":
        (2, "usage: designbench metrics [-h] [--format {text,json}] structure\n"
            "designbench metrics: error: argument --format: invalid choice: 'xml' "
            "(choose from 'text', 'json')\n"),
    "":
        (2, _TOP_USAGE + "designbench: error: the following arguments are required: command\n"),
}


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_golden_output(command, monkeypatch, tmp_path, capsys):
    monkeypatch.chdir(ROOT)
    fs_out = tmp_path / "out.fs.json"
    argv = [str(fs_out) if arg == "OUT" else arg for arg in command.split()]
    code = cli.run(argv)
    captured = capsys.readouterr()
    row = (code, _digest(captured.out), _digest(captured.err))
    if "OUT" in command:
        row += (_digest(fs_out.read_bytes()),)
    assert row == GOLDEN[command]


def test_golden_table_covers_every_fixture_and_format():
    named = {arg for command in GOLDEN for arg in command.split()}
    for path in FIXTURES.glob("*.json"):
        assert f"fixtures/{path.name}" in named
    for command in GOLDEN:
        base = command.rsplit(" --format ", 1)[0]
        assert {f"{base} --format text", f"{base} --format json"} <= set(GOLDEN)


@pytest.mark.parametrize("command", sorted(USAGE))
def test_usage_errors_are_stable(command, monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    monkeypatch.setenv("COLUMNS", "80")
    for _ in range(2):
        code = cli.run(command.split())
        captured = capsys.readouterr()
        assert (code, captured.err) == USAGE[command]
        assert captured.out == ""


_SCALARS = (
    st.none() | st.booleans() | st.integers() | st.integers(min_value=2**64)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from([-0.0, 0.0, 1e16, 1e-7, 2**64 + 1])
    | st.text() | st.text(st.characters(max_codepoint=0x1F))
)
_VALUES = st.recursive(
    _SCALARS,
    lambda inner: (
        st.lists(inner, max_size=4)
        | st.lists(inner, max_size=4).map(tuple)
        | st.dictionaries(st.text(), inner, max_size=4)
    ),
    max_leaves=40,
)


@settings(max_examples=500, deadline=None)
@given(_VALUES)
@example({})
@example(())
@example([[], {}, [[]], {"": [{}]}])
@example({"caf\u00e9 \U0001f600": ["\x00\x1f\"\\", -0.0, 1e16, 1e-7, 2**70, True, None]})
def test_emitter_equals_indented_json_dumps(value):
    assert jsonio.dumps(value) == json.dumps(value, indent=2, sort_keys=True)


def test_emitter_rejects_non_json_values():
    with pytest.raises(TypeError):
        jsonio.dumps({"x": object()})


def _generation_doc(result: grammar.GenerationResult) -> dict:
    return {
        "count": len(result),
        "designs": [
            {
                "design": grammar.design_to_dict(g.design),
                "depth": g.depth,
                "derivation": [s.rule for s in g.derivation.steps],
            }
            for g in result.designs
        ],
    }


def _assert_writer_matches(result: grammar.GenerationResult) -> None:
    expected = json.dumps(_generation_doc(result), indent=2, sort_keys=True)
    assert cli._generation_json(result) == expected


@pytest.mark.parametrize("depth", range(1, 6))
@pytest.mark.parametrize("name", ["shaft", "gearbox"])
def test_generation_writer_on_fixture_grammars(name, depth):
    gram = grammar.parse_grammar((FIXTURES / f"{name}.grammar.json").read_bytes())
    _assert_writer_matches(grammar.generate(gram, depth, 1000))


_NAMES = st.text() | st.text(st.characters(max_codepoint=0x1F))
_NODES = st.builds(grammar.GraphNode, _NAMES, _NAMES,
                   st.lists(st.tuples(st.text(), _VALUES), max_size=3).map(tuple))
_EDGES = st.builds(grammar.GraphEdge, _NAMES, _NAMES, _NAMES)


@st.composite
def _results(draw) -> grammar.GenerationResult:
    # designs draw from one pool of node and edge objects, so that they
    # share objects as a parent and its children do
    nodes = draw(st.lists(_NODES, max_size=6))
    edges = draw(st.lists(_EDGES, max_size=6))
    designs = []
    for _ in range(draw(st.integers(0, 4))):
        design = grammar.Design(
            tuple(draw(st.lists(st.sampled_from(nodes), unique_by=lambda n: n.id)
                       if nodes else st.just([]))),
            tuple(draw(st.lists(st.sampled_from(edges)) if edges else st.just([]))),
        )
        steps = tuple(grammar.DerivationStep(rule, grammar.Match(()))
                      for rule in draw(st.lists(_NAMES, max_size=3)))
        designs.append(grammar.GeneratedDesign(design, grammar.Derivation(steps), b"",
                                               draw(st.integers())))
    return grammar.GenerationResult(tuple(designs))


_BARE = grammar.GraphNode(  # no attributes; id and label need escapes
    "\"\\\n\u00e9\U0001f600", "\x00\x1f")


@settings(max_examples=200, deadline=None)
@given(_results())
@example(grammar.GenerationResult(()))
@example(grammar.GenerationResult((
    grammar.GeneratedDesign(grammar.Design(()), grammar.Derivation(), b"", 0),
    grammar.GeneratedDesign(
        grammar.Design((_BARE,), (grammar.GraphEdge(_BARE.id, _BARE.id, "\t"),)),
        grammar.Derivation((grammar.DerivationStep("r\u2028", grammar.Match(())),)), b"", 1),
)))
def test_generation_writer_equals_indented_json_dumps(result):
    _assert_writer_matches(result)


def test_generation_writer_keys_objects_by_identity():
    # equal nodes whose attribute values 1, 1.0 and True write differently
    nodes = [grammar.GraphNode("x", "a", (("k", value),)) for value in (1, 1.0, True)]
    assert nodes[0] == nodes[1] == nodes[2]
    _assert_writer_matches(grammar.GenerationResult(tuple(
        grammar.GeneratedDesign(grammar.Design((node,)), grammar.Derivation(), b"", 0)
        for node in nodes
    )))
