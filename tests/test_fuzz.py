"""Hostile input through the command line: every fixture role, mutated.

Each example takes one bundled document, applies one to three mutations
(drop an object key or an array item, or put a null, bool, int, float,
string, array or object in place of a value) and runs the subcommand on
it, with its other inputs left valid, in text and in JSON format.
Whatever the mutant, the run must end in exit code 0, 1 or 2; an
exception escaping ``cli.run`` fails the test.  Search sizes are capped
(``--max-depth 2``, ``--max-gates 3``) and the examples are a fixed
sequence, so the test is bounded and repeatable.
"""

import contextlib
import copy
import io
import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from designbench import classify, cli
from conftest import FIXTURES, load_fixture_json

MUTANT = "MUTANT"
_MATRIX = [
    {"method": row.method.value, "requires_decomposable": row.requires_decomposable,
     "interdependencies": row.interdependencies.name.lower(),
     "innovation": row.innovation.name.lower(), "creativity": row.creativity.name.lower()}
    for row in classify.default_matrix()
]

# (role, the document that is mutated, argv with MUTANT in its place)
ROLES = [
    ("structure", "coffee_maker.fs.json", ("metrics", MUTANT)),
    ("kb", "helicopter.kb.json", ("novelty", MUTANT, FIXTURES / "quadrocopter.design.json")),
    ("design", "radio.design.json", ("novelty", FIXTURES / "helicopter.kb.json", MUTANT)),
    ("gearbox", "gearbox.grammar.json",
     ("grammar-generate", MUTANT, "--max-depth", "2", "--max-designs", "20")),
    ("shaft", "shaft.grammar.json",
     ("grammar-generate", MUTANT, "--max-depth", "2", "--max-designs", "20")),
    ("cases", "winder_cases.cases.json",
     ("cbr-retrieve", MUTANT, FIXTURES / "coil_winder.fs.json")),
    ("query", "coil_winder.fs.json",
     ("cbr-retrieve", FIXTURES / "winder_cases.cases.json", MUTANT)),
    ("simspec", "default.simspec.json",
     ("cbr-retrieve", FIXTURES / "winder_cases.cases.json", FIXTURES / "coil_winder.fs.json",
      "--simspec", MUTANT)),
    ("requirement", "subtractor.req.json", ("synth", MUTANT, "--max-gates", "3")),
    ("topology", "subtractor.topo.json",
     ("synth", FIXTURES / "subtractor.req.json", "--topology", MUTANT)),
    ("profile", "innovative.profile.json", ("classify", MUTANT)),
    ("matrix", None, ("classify", FIXTURES / "creative.profile.json", "--matrix", MUTANT)),
]

_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 3),
    st.floats(-2, 3, allow_nan=False, allow_infinity=False), st.text(max_size=3),
)
_VALUES = st.one_of(
    _SCALARS,
    st.lists(_SCALARS, max_size=2),
    st.dictionaries(st.text(max_size=2), _SCALARS, max_size=2),
)


def _paths(doc, path=()):
    yield path
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _paths(value, (*path, key))
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from _paths(value, (*path, i))


@st.composite
def _mutants(draw, doc):
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(doc))))
        if not path:
            doc = draw(_VALUES)
            continue
        *parents, last = path
        owner = doc
        for key in parents:
            owner = owner[key]
        if draw(st.booleans()):
            del owner[last]
        else:
            owner[last] = draw(_VALUES)
    return doc


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("role,fixture,argv", ROLES, ids=[role[0] for role in ROLES])
def test_mutated_input_exits_cleanly(workdir, role, fixture, argv, fmt):
    doc = _MATRIX if fixture is None else load_fixture_json(fixture)
    path = workdir / f"{role}.json"
    args = [str(path) if a == MUTANT else str(a) for a in argv] + ["--format", fmt]

    @settings(max_examples=40, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(_mutants(doc))
    def check(mutant):
        path.write_text(json.dumps(mutant))
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli.run(args)
        assert code in (0, 1, 2)

    check()
