"""The contract the workflow checks, kept in the suite it runs.

* The package keeps one JSON ingress, one indented writer, one memo and
  one reader per file format, and imports nothing outside the standard
  library.
* Each reference oracle in ``tests/oracles.py`` stays independent of the
  library function it checks, and of the library's private names.
* Every demo exits 0, and every command of the README's "Command line"
  block exits with the code the README gives it.
* Large inputs run in a child interpreter, through the CLI or the
  library, within their time limit, and ``synth`` with a high gate bound
  within a memory limit.
* Output does not depend on the interpreter's string hash seed.
* No command leaves cyclic garbage: each request's objects are freed by
  reference counting, and the package never touches the collector.
"""

import ast
import gc
import json
import re
import resource
import shlex
import subprocess
import sys
import types
from collections import Counter

import pytest

import test_cli
from designbench import cli
from conftest import FIXTURES
from test_cli import child_env, run_main
from test_cli_output import GOLDEN

ROOT = FIXTURES.parent
PACKAGE = ROOT / "src" / "designbench"

# (pattern, the one module it may appear in, what to write instead)
FORBIDDEN = [
    (r"json\.loads?\b|JSONDecoder|JSONDecodeError", "jsonio.py",
     "decode documents with designbench.jsonio.load_document"),
    (r"indent=|cached_property", "jsonio.py",
     "write indented JSON with designbench.jsonio.dumps and memoise with jsonio.cached"),
    (r"PatternEdge|label_affinity|_closures|_backward_cover|_reachable_slots|"
     r"\bdef names\b|\.names\(\)|\bdomain_of\b|\bunexpected_names\b|\bnew_names\b|"
     r"\binnovation_index\b|\bcreativity_index\b|_twin_classes|names_and_bits|"
     r"emit_edge_choices|\b_extend\b|\b_backtrack\b|\b_search_assignment\b|"
     r"\bdef supports\b|\.supports\(", None,
     "rule edges are GraphEdge; synth walks fan-in once, in _fan_in, which also gives a "
     "topology's unreachable slots (tests/oracles.py checks it with fan_in), and "
     "Requirement.__post_init__ runs every truth-table check, for parse_requirement too; the "
     "caller-less casebase.label_affinity lives on only as an oracle in tests/oracles.py; "
     "novelty looks names up in KnowledgeBase._by_name, its I and C being "
     "assess(...).innovation and .creativity; canonical_form prunes its search only with "
     "automorphisms read off two equal leaves; and find_matches yields each match as it is "
     "pulled, from the _assignments generator, never through a callback; both synth searches "
     "give a slot its gates through _assign_slot, the fixed-topology one in a loop (the "
     "recursive backtracker is tests/oracles.py's _search_assignment); the topology search "
     "picks output slots by value alone, since a slot equal to its target reads every input "
     "the target depends on (tests/oracles.py's supports serves only the reference search)"),
    (r"\b(kb|design|grammar|case_base|similarity_spec|profile|matrix|requirement|topology)"
     r"_from_dict\b", None,
     "each of these formats has one reader, its parse_* function"),
    (r"\bgc\b", None,
     "free request state by reference counting; never pause, freeze or retune the collector"),
    (r"(expected |' must be )an? (string|array|object|boolean|integer)\b|"
     r"takes an? (string|non-empty array)|must contain strings|needs an array", "jsonio.py",
     "report a value of the wrong JSON type with jsonio.expect (a document, an array "
     "element or a value under a key taken from the data) or jsonio.field (a named "
     "field), never in words of your own; an empty array is '<key>' must not be empty"),
]


@pytest.mark.parametrize("pattern, home, advice", FORBIDDEN,
                         ids=["json-decoder", "indent-and-memo", "deleted-names", "from-dict",
                              "gc", "wrong-type"])
def test_forbidden_name_stays_out_of_the_package(pattern, home, advice):
    hits = [f"{path.name}:{number}: {line.strip()}"
            for path in sorted(PACKAGE.glob("*.py")) if path.name != home
            for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
            if re.search(pattern, line)]
    assert not hits, "\n".join([advice, *hits])


def test_package_imports_only_the_standard_library():
    outside = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_bytes(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            outside += [f"{path.name}:{node.lineno}: import {name}" for name in names
                        if name.partition(".")[0] not in sys.stdlib_module_names]
    assert not outside


ORACLES = ROOT / "tests" / "oracles.py"

# oracle -> the library names it checks, which it must not reach
ORACLE_TARGETS = {
    "find_matches": {"find_matches"},
    "apply": {"apply", "replay"},
    "generate_full_check": {"generate", "find_matches", "apply"},
    "enumerate_designs": {"generate", "find_matches", "apply"},
    "check_structure": {"validate", "degrees", "degree", "interdependency_index"},
    "structure_similarity": {"structure_similarity", "similarity", "interdependency_index",
                             "function_labels", "flow_labels"},
    "reuse": {"reuse", "serves_function"},
    "retrieve": {"retrieve", "similarity", "structure_similarity"},
    "assess": {"assess", "absorb"},
    "absorb": {"assess", "absorb"},
    "first_assignment": {"synthesize_assignment"},
}

# the topology search oracle still takes the library's ref choices, topology builder
# and post-check
SEARCH_INTERNALS = {"_ref_choices", "_slot_sequence_to_topology", "_verify"}


def _oracle_module() -> tuple[dict[str, ast.FunctionDef], set[str]]:
    """``tests/oracles.py``: its module-level functions by name, and the
    names it imports from designbench modules."""
    tree = ast.parse(ORACLES.read_bytes(), str(ORACLES))
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    names = {alias.asname or alias.name for node in tree.body
             if isinstance(node, ast.ImportFrom) and node.module.startswith("designbench.")
             for alias in node.names}
    return functions, names


@pytest.mark.parametrize("oracle", sorted(ORACLE_TARGETS))
def test_oracle_reaches_neither_what_it_checks_nor_a_private_library_name(oracle):
    # every attribute the oracle and the oracle functions it calls read,
    # and every name they use that the module imports from the library;
    # a private one is the library's, since the oracles define no class
    functions, imported = _oracle_module()
    todo, seen, used = [oracle], set(), set()
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        for node in ast.walk(functions[name]):
            if isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.Name) and node.id in functions:
                todo.append(node.id)
            elif isinstance(node, ast.Name) and node.id in imported:
                used.add(node.id)
    private = {name for name in used if name.startswith("_") and not name.startswith("__")}
    assert not used & ORACLE_TARGETS[oracle] and not private, (used, private)


def test_oracles_import_no_private_library_name_but_the_search_internals():
    _, imported = _oracle_module()
    assert {name for name in imported if name.startswith("_")} <= SEARCH_INTERNALS


@pytest.mark.parametrize("demo", sorted(path.name for path in (ROOT / "demos").glob("*.py")))
def test_demo_exits_zero(demo):
    proc = subprocess.run([sys.executable, ROOT / "demos" / demo], capture_output=True,
                          env=child_env(), cwd=ROOT, timeout=60)
    assert proc.returncode == 0, proc.stderr.decode()


def readme_commands():
    """``(argv, exit code)`` for each line of the README's "Command line"
    block: ``designbench ARGS``, then ``# exit N: why`` unless N is 0."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("\n## Command line\n\n```sh\n", 1)[1].split("\n```\n", 1)[0]
    commands = []
    for line in block.splitlines():
        match = re.fullmatch(r"designbench (.+?)(?:\s+# exit (\d): .+)?", line)
        assert match, f"README command line not understood: {line!r}"
        commands.append((shlex.split(match[1]), int(match[2] or 0)))
    return commands


README_COMMANDS = readme_commands()


@pytest.mark.parametrize("argv, code", README_COMMANDS,
                         ids=[" ".join(argv) for argv, _ in README_COMMANDS])
def test_readme_command_exits_with_its_documented_code(argv, code):
    proc = run_main(*argv, cwd=ROOT)
    assert (proc.returncode, proc.stderr.decode()) == (code, "")


def test_a_100000_vertex_chain_validates_and_closed_into_a_ring_is_an_input_error(tmp_path):
    n = 100_000
    doc = {
        "kind": "structure",
        "vertices": [{"id": f"v{i}", "label": "step"} for i in range(n)],
        "terminals": [{"id": "in", "kind": "input", "label": "m"},
                      {"id": "out", "kind": "output", "label": "m"}],
        "flows": [{"source": "in", "target": "v0", "label": "m"}]
        + [{"source": f"v{i}", "target": f"v{i + 1}", "label": "m"} for i in range(n - 1)]
        + [{"source": f"v{n - 1}", "target": "out", "label": "m"}],
    }
    chain, ring = tmp_path / "chain.fs.json", tmp_path / "ring.fs.json"
    chain.write_text(json.dumps(doc))
    doc["flows"].append({"source": f"v{n - 1}", "target": "v0", "label": "m"})
    ring.write_text(json.dumps(doc))
    proc = run_main("metrics", chain, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert b"\nPI = 0\n" in proc.stdout
    proc = run_main("metrics", ring, timeout=120)
    assert (proc.returncode, proc.stdout) == (2, b"")
    assert proc.stderr.decode() == (f"error: {ring}: invalid structure: "
                                    "flows between function vertices form a cycle\n")


def test_novelty_on_100000_variables_answers_within_a_minute(tmp_path):
    # three quarters of the design's names are known, every other one out
    # of its domain, and the last quarter is new
    n = 100_000
    kb, design = tmp_path / "big.kb.json", tmp_path / "big.design.json"
    kb.write_text(json.dumps({"variables": [{"name": f"x{i}", "domain": {"set": [0]}}
                                            for i in range(n)]}))
    assignments = {f"x{i}": i % 2 for i in range(3 * n // 4)}
    assignments.update((f"y{i}", 0) for i in range(n // 4))
    design.write_text(json.dumps({"assignments": assignments, "feasible": True}))
    proc = run_main("novelty", kb, design, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout.startswith(
        b"innovation I = 3/8\ncreativity C = 1/4\ncategory = creative\n")


ABSORB_20000 = """
from designbench.domains import SetDomain
from designbench.novelty import DesignInstance, DesignVariable, KnowledgeBase, absorb, assess
n = 20_000
kb = KnowledgeBase(tuple(DesignVariable(f"x{i}", SetDomain((0,))) for i in range(n)))
design = DesignInstance(tuple((f"x{i}", 1) for i in range(n)), True)
grown = absorb(kb, design)
print(assess(grown, design).category.value, [v.name for v in grown.variables] == [
    v.name for v in kb.variables], grown.variables[-1].domain)
"""


def test_absorb_widening_20000_variables_answers_within_30_seconds():
    proc = subprocess.run([sys.executable, "-c", ABSORB_20000], capture_output=True,
                          env=child_env(), timeout=30)
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout == b"routine True SetDomain(values=(0, 1))\n"


def test_cbr_retrieve_on_3000_cases_answers_within_a_minute(tmp_path):
    cases = json.loads((FIXTURES / "winder_cases.cases.json").read_bytes())
    path = tmp_path / "big.cases.json"
    path.write_text(json.dumps([{**cases[i % len(cases)], "id": f"case{i}"}
                                for i in range(3000)]))
    proc = run_main("cbr-retrieve", path, FIXTURES / "coil_winder.fs.json", "--format",
                    "json", timeout=60)
    assert (proc.returncode, proc.stderr) == (0, b"")
    # the fixture's best case, fruit_peeler, ties with its copies
    ranking = json.loads(proc.stdout)["ranking"]
    assert [entry["score"]["fraction"] for entry in ranking] == ["53211/223720"] * 3


@pytest.mark.parametrize("argv", [
    ("novelty", "fixtures/signal_transmission.kb.json", "fixtures/radio.design.json"),
    ("grammar-generate", "fixtures/gearbox.grammar.json"),
], ids=["novelty", "grammar-generate"])
def test_output_does_not_depend_on_the_hash_seed(argv):
    outputs = []
    for seed in ("0", "1"):
        proc = run_main(*argv, "--format", "json", cwd=ROOT, PYTHONHASHSEED=seed)
        assert (proc.returncode, proc.stderr) == (0, b"")
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]


def test_an_axiom_of_500_interchangeable_pairs_certifies_within_a_minute(tmp_path):
    pairs = 500
    path = tmp_path / "pairs.grammar.json"
    path.write_text(json.dumps({
        "vocabulary": {"node_labels": {"a": {}, "b": {}}, "edge_labels": ["e"]},
        "axiom": {
            "nodes": [{"id": f"{label}{i}", "label": label}
                      for i in range(pairs) for label in "ab"],
            "edges": [{"source": f"a{i}", "target": f"b{i}", "label": "e"}
                      for i in range(pairs)],
        },
        "rules": [],
    }))
    proc = run_main("grammar-generate", path, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout.startswith(b"1 designs (depth <= 3)\n")


def test_a_grammar_with_an_80000_member_set_generates_within_a_second_and_a_half(tmp_path):
    # the shaft grammar, its diameters 80,000 with the two it uses last:
    # every touched section is checked against the set.  Measured on one
    # core of a 2-CPU x86-64 Linux host: 0.22 s looked up by key, 3.4 s
    # scanning the members.
    doc = json.loads((FIXTURES / "shaft.grammar.json").read_bytes())
    doc["vocabulary"]["node_labels"]["section"]["diameter"] = {"set": [*range(3, 80_001), 1, 2]}
    path = tmp_path / "wide.grammar.json"
    path.write_text(json.dumps(doc))
    proc = run_main("grammar-generate", path, "--max-depth", "5", "--max-designs", "1000",
                    timeout=1.5)
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout.startswith(b"401 designs (depth <= 5)\n")


def _address_space_of_2_000_000_kb():
    # as ``ulimit -v 2000000``: soft and hard limit, in the child only
    limit = 2_000_000 * 1024
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


def test_synth_with_a_gate_bound_of_a_million_answers_at_once_in_little_memory():
    proc = run_main("synth", FIXTURES / "and_gate.req.json", "--max-gates", "1000000",
                    timeout=60, preexec_fn=_address_space_of_2_000_000_kb)
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout.startswith(b"SAT: 1 gates\n")


def test_a_symmetric_rule_stops_matching_at_the_design_limit(tmp_path):
    # six anchored ``a`` nodes that gain a ``b``, on sixteen ``a`` nodes:
    # 5,765,760 matches, all giving one child, and the second design ends
    # the run.  On one core of a 2-CPU x86-64 Linux host it takes 0.13 s
    # and 19 MB taking matches as they are found; building them all first
    # took about 38 s and 3.2 GB.
    lhs = [{"id": f"x{i}", "label": "a"} for i in range(6)]
    path = tmp_path / "symmetric.grammar.json"
    path.write_text(json.dumps({
        "vocabulary": {"node_labels": {"a": {}, "b": {}}, "edge_labels": []},
        "axiom": {"nodes": [{"id": f"a{i}", "label": "a"} for i in range(16)], "edges": []},
        "rules": [{"name": "add_b", "lhs": {"nodes": lhs},
                   "rhs": {"nodes": [*lhs, {"id": "y", "label": "b"}]},
                   "anchors": {n["id"]: n["id"] for n in lhs}}],
    }))
    proc = run_main("grammar-generate", path, "--max-depth", "1", "--max-designs", "2",
                    timeout=5, preexec_fn=_address_space_of_2_000_000_kb)
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout.startswith(b"2 designs (depth <= 1)\n")


def _write_table(path, inputs, fn):
    """The one-output table of ``fn`` over ``inputs``, rows in binary order."""
    n = len(inputs)
    path.write_text(json.dumps({"inputs": inputs, "outputs": ["y"], "rows": [
        {"in": bits, "out": [fn(*bits)]}
        for bits in ([r >> (n - 1 - i) & 1 for i in range(n)] for r in range(2 ** n))]}))


def test_a_40_slot_chain_that_cannot_give_its_table_is_unsat_within_seconds(tmp_path):
    # A, then 38 unary slots, then one binary slot on the last and B: every
    # slot carries A or NOT A, so A AND NOT B is out of reach.  Plain
    # backtracking tries all 2^39 prefixes (0.42 s already at 18 slots);
    # with failed live values remembered the search is linear in the chain.
    req, topo = tmp_path / "and_not.req.json", tmp_path / "chain.topo.json"
    _write_table(req, ["A", "B"], lambda a, b: a & (1 - b))
    test_cli.TestSynth.write_chain(topo, 40)
    proc = run_main("synth", req, "--topology", topo, timeout=5,
                    preexec_fn=_address_space_of_2_000_000_kb)
    assert (proc.returncode, proc.stderr) == (1, b"")
    assert proc.stdout == b"UNSAT: no circuit within the given bounds\n"


def test_an_18_wide_fan_gives_its_table_within_seconds(tmp_path):
    # 18 unary slots on A, folded by a chain of 17 binary slots, must give
    # NOT A.  Depth first the search expands 69 states; the live values
    # after the fan take 2^18 tuples, which a breadth-first search would
    # all build.  On one core of a 2-CPU x86-64 Linux host it takes 0.12 s;
    # plain backtracking ran past 25 s.
    req, topo = tmp_path / "not_a.req.json", tmp_path / "fan.topo.json"
    _write_table(req, ["A"], lambda a: 1 - a)
    slots = [["A"]] * 18 + [["s0", "s1"]] + [[f"s{16 + k}", f"s{k}"] for k in range(2, 18)]
    topo.write_text(json.dumps({"inputs": ["A"], "slots": [{"from": refs} for refs in slots],
                                "outputs": [f"s{len(slots) - 1}"]}))
    proc = run_main("synth", req, "--topology", topo, timeout=5,
                    preexec_fn=_address_space_of_2_000_000_kb)
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout.startswith(b"SAT: 35 gates\n")


def _subtractor_with_swapped_outputs(path):
    """The subtractor's table with its two outputs swapped, which the
    subtractor topology cannot realise: its gate search tries every gate."""
    doc = json.loads((FIXTURES / "subtractor.req.json").read_bytes())
    doc["outputs"].reverse()
    for row in doc["rows"]:
        row["out"].reverse()
    path.write_text(json.dumps(doc))


# (command, how to write each file it names under the test's directory)
NO_GARBAGE_EXTRAS = {
    # generation that stops at its design limit with matches left unpulled
    "grammar-generate fixtures/shaft.grammar.json --max-designs 7 --format json": {},
    # canonical_form's individualisation search
    "grammar-generate CYCLES --format json":
        {"CYCLES": lambda path: test_cli.TestGrammarGenerate.write_copies(
            path, "aaa", [(0, 1), (1, 2), (2, 0)], 3)},
    # a gate search that tries every gate, skipping states that failed (exit 1)
    "synth SWAPPED --topology fixtures/subtractor.topo.json --format json":
        {"SWAPPED": _subtractor_with_swapped_outputs},
    # a 2,500-slot chain that the same loop assigns (exit 0)
    "synth fixtures/and_gate.req.json --topology CHAIN --format json":
        {"CHAIN": lambda path: test_cli.TestSynth.write_chain(path, 2500)},
}


def _garbage_names() -> list[str]:
    """What the collector finds now, counted by type, and by qualified
    name for functions, most common first."""
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        gc.collect()
        names = Counter(f"function {obj.__qualname__}" if isinstance(obj, types.FunctionType)
                        else type(obj).__name__ for obj in gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    return [f"{count} x {name}" for name, count in names.most_common()]


@pytest.mark.parametrize("command", sorted(GOLDEN) + list(NO_GARBAGE_EXTRAS))
def test_a_command_leaves_no_cyclic_garbage(command, monkeypatch, tmp_path, capsys):
    # every object a request builds is freed by reference counting when the
    # request ends, so the cycle collector finds nothing
    monkeypatch.chdir(ROOT)
    writers = NO_GARBAGE_EXTRAS.get(command, {})
    for name, write in writers.items():
        write(tmp_path / name)
    argv = [str(tmp_path / arg) if arg in writers or arg == "OUT" else arg
            for arg in command.split()]
    cli.run(argv)  # builds the parser and loads what a first run loads
    capsys.readouterr()
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        cli.run(argv)
        capsys.readouterr()
        if gc.collect():
            cli.run(argv)
            capsys.readouterr()
            pytest.fail("cyclic garbage:\n" + "\n".join(_garbage_names()))
    finally:
        if enabled:
            gc.enable()
