import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from designbench import cli
from designbench import funcstruct as fs
from conftest import FIXTURES


def run_cli(capsys, *argv):
    code = cli.run([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def child_env(**extra):
    """This environment for a child interpreter that imports this checkout."""
    src = str(Path(cli.__file__).resolve().parent.parent)
    return {**os.environ, **extra,
            "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def run_main(*argv, timeout=60, cwd=None, preexec_fn=None, **env):
    """``designbench *argv`` in a child interpreter, with ``env`` added."""
    return subprocess.run([sys.executable, "-m", "designbench.cli", *map(str, argv)],
                          capture_output=True, env=child_env(**env), timeout=timeout,
                          cwd=cwd, preexec_fn=preexec_fn)


class TestMetrics:
    def test_prints_famous_fraction(self, capsys):
        code, out, _ = run_cli(capsys, "metrics", FIXTURES / "full_subtractor.fs.json")
        assert code == 0
        assert "PI = 5/7" in out

    def test_blackbox_metrics(self, capsys):
        code, out, _ = run_cli(capsys, "metrics", FIXTURES / "bridge.fs.json")
        assert code == 0
        assert "decomposable = no" in out
        assert "PI = 1" in out

    def test_json_format(self, capsys):
        code, out, _ = run_cli(capsys, "metrics", FIXTURES / "coil_winder.fs.json",
                               "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["pi"]["fraction"] == "3/7"
        assert doc["vertices"] == 28

    def test_missing_file_is_input_error(self, capsys):
        code, _, err = run_cli(capsys, "metrics", "no/such/file.fs.json")
        assert code == 2
        assert "no/such/file.fs.json" in err

    def test_invalid_blackbox_is_input_error(self, tmp_path, capsys):
        bad = tmp_path / "inputless.fs.json"
        bad.write_text(json.dumps({
            "kind": "blackbox", "label": "x", "inputs": [], "outputs": ["y"],
        }))
        code, _, err = run_cli(capsys, "metrics", bad)
        assert code == 2
        assert "no input flows" in err

    def test_invalid_structure_is_input_error(self, tmp_path, capsys):
        bad = tmp_path / "cyclic.fs.json"
        bad.write_text(json.dumps({
            "kind": "structure",
            "vertices": [{"id": "a", "label": "x"}, {"id": "b", "label": "y"}],
            "terminals": [],
            "flows": [
                {"source": "a", "target": "b", "label": "m"},
                {"source": "b", "target": "a", "label": "m"},
            ],
        }))
        code, _, err = run_cli(capsys, "metrics", bad)
        assert code == 2
        assert "cycle" in err


class TestNovelty:
    def test_quadrocopter_report(self, capsys):
        code, out, _ = run_cli(capsys, "novelty", FIXTURES / "helicopter.kb.json",
                               FIXTURES / "quadrocopter.design.json")
        assert code == 0
        assert "innovation I = 1" in out
        assert "category = innovative" in out

    def test_radio_report_json(self, capsys):
        code, out, _ = run_cli(capsys, "novelty",
                               FIXTURES / "signal_transmission.kb.json",
                               FIXTURES / "radio.design.json", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["creativity"]["fraction"] == "1/3"
        assert doc["category"] == "creative"
        assert doc["new"] == ["medium"]


    def test_non_scalar_set_member_is_input_error(self, tmp_path, capsys):
        kb = json.loads((FIXTURES / "helicopter.kb.json").read_text())
        kb["variables"][1]["domain"]["set"].append([1, 2])
        path = tmp_path / "nested.kb.json"
        path.write_text(json.dumps(kb))
        code, out, err = run_cli(capsys, "novelty", path, FIXTURES / "quadrocopter.design.json")
        assert (code, out) == (2, "")
        assert "$.variables[1].domain.set[1]: set members must be scalars" in err

    # a float could not hold the bound; the interval compares it exactly
    @pytest.mark.parametrize("value, category", [(5, "routine"), (10 ** 400 + 1, "innovative")],
                             ids=["inside", "outside"])
    def test_huge_integer_interval_bound_is_read(self, tmp_path, capsys, value, category):
        kb = tmp_path / "huge.kb.json"
        kb.write_text(json.dumps({"variables": [
            {"name": "x", "domain": {"interval": [-10 ** 400, 10 ** 400]}}]}))
        design = tmp_path / "x.design.json"
        design.write_text(json.dumps({"assignments": {"x": value}, "feasible": True}))
        code, out, err = run_cli(capsys, "novelty", kb, design)
        assert (code, err) == (0, "")
        assert f"category = {category}" in out


    # load_document rejects these before a reader sees the value
    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "1e999"])
    @pytest.mark.parametrize("where", ["design", "kb"])
    def test_non_finite_number_is_input_error(self, tmp_path, capsys, literal, where):
        kb = tmp_path / "x.kb.json"
        kb.write_text(json.dumps({"variables": [
            {"name": "x", "domain": {"interval": [0, "VALUE" if where == "kb" else 9]}}]}))
        design = tmp_path / "x.design.json"
        design.write_text(json.dumps({"assignments": {"x": "VALUE" if where == "design" else 5}}))
        path = kb if where == "kb" else design
        path.write_text(path.read_text().replace('"VALUE"', literal))
        code, out, err = run_cli(capsys, "novelty", kb, design)
        assert (code, out) == (2, "")
        assert err == f"error: {path}: $: not valid JSON: {literal} is not a finite number\n"


class TestGrammarGenerate:
    def test_text_output_counts_designs(self, capsys):
        code, out, _ = run_cli(capsys, "grammar-generate",
                               FIXTURES / "shaft.grammar.json",
                               "--max-depth", "2", "--max-designs", "100")
        assert code == 0
        assert out.startswith("20 designs")
        assert "digraph" in out

    def test_json_output_is_deterministic(self, capsys):
        args = ("grammar-generate", FIXTURES / "shaft.grammar.json",
                "--max-depth", "2", "--format", "json")
        code1, out1, _ = run_cli(capsys, *args)
        code2, out2, _ = run_cli(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2
        assert json.loads(out1)["count"] == 20


    def test_non_scalar_vocabulary_member_is_input_error(self, tmp_path, capsys):
        grammar = json.loads((FIXTURES / "shaft.grammar.json").read_text())
        grammar["vocabulary"]["node_labels"]["end"]["finished"]["set"].append({"a": 1})
        path = tmp_path / "nested.grammar.json"
        path.write_text(json.dumps(grammar))
        code, out, err = run_cli(capsys, "grammar-generate", path, "--max-depth", "1")
        assert (code, out) == (2, "")
        assert ("$.vocabulary.node_labels.end.finished.set[2]: set members must be scalars"
                in err)

    def test_huge_integer_interval_bound_is_read(self, tmp_path, capsys):
        grammar = json.loads((FIXTURES / "shaft.grammar.json").read_text())
        grammar["vocabulary"]["node_labels"]["section"]["diameter"] = \
            {"interval": [1, 10 ** 400]}
        path = tmp_path / "huge.grammar.json"
        path.write_text(json.dumps(grammar))
        code, out, err = run_cli(capsys, "grammar-generate", path, "--max-depth", "2")
        assert (code, err) == (0, "")
        assert out.startswith("20 designs")

    def test_copy_of_undeclared_attribute_is_input_error(self, tmp_path, capsys):
        grammar = json.loads((FIXTURES / "shaft.grammar.json").read_text())
        grammar["rules"][1]["rhs"]["nodes"][0]["attrs"]["diameter"] = \
            {"copy": {"node": "s", "attr": "nope"}}
        path = tmp_path / "copy.grammar.json"
        path.write_text(json.dumps(grammar))
        code, out, err = run_cli(capsys, "grammar-generate", path, "--max-depth", "3")
        assert (code, out) == (2, "")
        assert err == (f"error: {path}: $: rule 'groove_section': RHS node 's': copy "
                       "references undeclared attribute 'nope' of LHS node 's'\n")

    # add_section: LHS s, e; RHS s, s2 (new), e; anchors s -> s, e -> e
    @pytest.mark.parametrize("side, node", [("rhs", 1), ("rhs", 0), ("lhs", 0)],
                             ids=["new-rhs-id", "anchor-target-id", "lhs-id"])
    def test_node_id_repeated_within_a_rule_side_is_input_error(self, tmp_path, capsys,
                                                                 side, node):
        grammar = json.loads((FIXTURES / "shaft.grammar.json").read_text())
        nodes = grammar["rules"][0][side]["nodes"]
        nodes.append(dict(nodes[node]))
        path = tmp_path / "repeat.grammar.json"
        path.write_text(json.dumps(grammar))
        code, out, err = run_cli(capsys, "grammar-generate", path, "--max-depth", "3")
        assert (code, out) == (2, "")
        assert err == (f"error: {path}: $.rules[0]: rule 'add_section': "
                       f"{side.upper()} node id {nodes[node]['id']!r} repeats\n")

    # json.loads reads these as inf and nan, which the JSON output would
    # then print as the non-JSON tokens inf and nan
    @pytest.mark.parametrize("literal", ["Infinity", "-Infinity", "NaN", "1e999"])
    def test_non_finite_number_is_input_error(self, tmp_path, capsys, literal):
        grammar = json.loads((FIXTURES / "shaft.grammar.json").read_text())
        grammar["vocabulary"]["node_labels"]["section"]["length"] = {"type": "float"}
        grammar["axiom"]["nodes"][0]["attrs"]["length"] = "LENGTH"
        path = tmp_path / "infinite.grammar.json"
        path.write_text(json.dumps(grammar).replace('"LENGTH"', literal))
        code, out, err = run_cli(capsys, "grammar-generate", path, "--max-depth", "1",
                                 "--format", "json")
        assert (code, out) == (2, "")
        assert err == f"error: {path}: $: not valid JSON: {literal} is not a finite number\n"

    def test_pattern_too_large_to_match_is_input_error(self, tmp_path, capsys):
        # find_matches extends a partial embedding by one nested generator per
        # pattern node
        nodes = [{"id": f"n{i}", "label": "a"} for i in range(1050)]
        path = tmp_path / "wide.grammar.json"
        path.write_text(json.dumps({
            "vocabulary": {"node_labels": {"a": {}}, "edge_labels": []},
            "axiom": {"nodes": nodes, "edges": []},
            "rules": [{"name": "all", "lhs": {"nodes": nodes, "edges": []},
                       "rhs": {"nodes": nodes, "edges": []},
                       "anchors": {n["id"]: n["id"] for n in nodes}}],
        }))
        code, out, err = run_cli(capsys, "grammar-generate", path, "--format", "json")
        assert (code, out) == (2, "")
        assert err == f"error: {path}: too large to generate from (recursion limit reached)\n"

    @staticmethod
    def write_copies(path, labels, links, copies):
        """A grammar without rules whose axiom is ``copies`` disjoint copies
        of one small graph: node ``j`` of each copy is labelled
        ``labels[j]``, and ``links`` lists its ``(j, k)`` edges."""
        path.write_text(json.dumps({
            "vocabulary": {"node_labels": {label: {} for label in labels},
                           "edge_labels": ["e"]},
            "axiom": {
                "nodes": [{"id": f"n{i}_{j}", "label": label}
                          for i in range(copies) for j, label in enumerate(labels)],
                "edges": [{"source": f"n{i}_{j}", "target": f"n{i}_{k}", "label": "e"}
                          for i in range(copies) for j, k in links],
            },
            "rules": [],
        }))

    @staticmethod
    def run_under_lowered_limit(capsys, path, copies):
        # the limit leaves room for half as many frames as there are copies
        depth, frame = 0, sys._getframe()
        while frame is not None:
            depth, frame = depth + 1, frame.f_back
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + copies // 2)
        try:
            return run_cli(capsys, "grammar-generate", path)
        finally:
            sys.setrecursionlimit(limit)

    def test_axiom_too_symmetric_to_certify_is_input_error(self, tmp_path, capsys):
        # canonical_form's search individualises one of n disjoint directed
        # 3-cycles per level; the limit is lowered so that 200 reach it
        path = tmp_path / "cycles.grammar.json"
        self.write_copies(path, "aaa", [(0, 1), (1, 2), (2, 0)], 200)
        code, out, err = self.run_under_lowered_limit(capsys, path, 200)
        assert (code, out) == (2, "")
        assert err == f"error: {path}: too large to generate from (recursion limit reached)\n"

    def test_interchangeable_pairs_certify_under_the_same_limit(self, tmp_path, capsys):
        # each disjoint a -> b pair holds each colour once, so canonical_form
        # follows one search path without recursing
        path = tmp_path / "pairs.grammar.json"
        self.write_copies(path, "ab", [(0, 1)], 200)
        code, out, err = self.run_under_lowered_limit(capsys, path, 200)
        assert (code, err) == (0, "")
        assert out.startswith("1 design")

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_reader_closing_early_exits_one_without_traceback(self, fmt):
        # 140 kB of text (470 kB of JSON) outgrow the pipe buffer, so the
        # process is still writing when the reader closes its end
        argv = [sys.executable, "-m", "designbench.cli", "grammar-generate",
                str(FIXTURES / "gearbox.grammar.json"), "--max-depth", "5",
                "--max-designs", "1000", "--format", fmt]
        with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              env=child_env()) as proc:
            first = proc.stdout.readline()
            proc.stdout.close()
            err = proc.stderr.read()
            code = proc.wait(timeout=60)
        assert first in (b"211 designs (depth <= 5)\n", b"{\n")
        assert b"Traceback" not in err, err.decode()
        assert code == 1

    def test_non_ascii_rule_name_on_an_ascii_stdout_is_escaped(self, tmp_path):
        doc = json.loads((FIXTURES / "shaft.grammar.json").read_bytes())
        doc["rules"][0]["name"] = "add_s\u00e9ction"
        path = tmp_path / "shaft.grammar.json"
        path.write_text(json.dumps(doc))
        proc = run_main("grammar-generate", path, "--format", "text", PYTHONIOENCODING="ascii")
        assert b"Traceback" not in proc.stderr, proc.stderr.decode()
        assert proc.returncode == 0
        assert b"add_s\\xe9ction" in proc.stdout


class TestCbrRetrieve:
    def test_ranking_text(self, capsys):
        code, out, _ = run_cli(capsys, "cbr-retrieve",
                               FIXTURES / "winder_cases.cases.json",
                               FIXTURES / "coil_winder.fs.json", "-k", "2")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("1. fruit_peeler")

    def test_non_ascii_case_id_on_an_ascii_stdout_is_escaped(self, tmp_path):
        cases = json.loads((FIXTURES / "winder_cases.cases.json").read_bytes())
        cases[0]["id"] = "c\u00e4se"
        path = tmp_path / "cases.cases.json"
        path.write_text(json.dumps(cases))
        proc = run_main("cbr-retrieve", path, FIXTURES / "coil_winder.fs.json", "-k", "4",
                        PYTHONIOENCODING="ascii")
        assert b"Traceback" not in proc.stderr, proc.stderr.decode()
        assert proc.returncode == 0
        assert b". c\\xe4se  score = " in proc.stdout

    def test_explicit_simspec(self, capsys):
        code, out, _ = run_cli(capsys, "cbr-retrieve",
                               FIXTURES / "winder_cases.cases.json",
                               FIXTURES / "coil_winder.fs.json",
                               "-k", "4", "--simspec", FIXTURES / "default.simspec.json",
                               "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert len(doc["ranking"]) == 4

    def test_empty_base_is_input_error(self, tmp_path, capsys):
        empty = tmp_path / "empty.cases.json"
        empty.write_text("[]")
        code, _, err = run_cli(capsys, "cbr-retrieve", empty,
                               FIXTURES / "coil_winder.fs.json")
        assert code == 2
        assert "empty" in err

    def test_invalid_query_is_located_input_error(self, tmp_path, capsys):
        # A self-loop: the query parses but does not validate.  The error
        # names the query file, as ``metrics`` does for the same file.
        loop = tmp_path / "loop.fs.json"
        loop.write_text(json.dumps({
            "kind": "structure",
            "vertices": [{"id": "v", "label": "spin"}],
            "terminals": [{"id": "in", "kind": "input", "label": "e"},
                          {"id": "out", "kind": "output", "label": "e"}],
            "flows": [{"source": "in", "target": "v", "label": "e"},
                      {"source": "v", "target": "v", "label": "e"},
                      {"source": "v", "target": "out", "label": "e"}],
        }))
        expected = f"error: {loop}: invalid structure: flows between function vertices form a cycle\n"
        code, out, err = run_cli(capsys, "cbr-retrieve",
                                 FIXTURES / "winder_cases.cases.json", loop)
        assert (code, out, err) == (2, "", expected)
        code, out, err = run_cli(capsys, "metrics", loop)
        assert (code, out, err) == (2, "", expected)

    @pytest.mark.parametrize("components", [True, 1, None, "ab", {"name": "x"}],
                             ids=["bool", "int", "null", "string", "object"])
    def test_non_array_components_is_input_error(self, tmp_path, capsys, components):
        cases = json.loads((FIXTURES / "winder_cases.cases.json").read_text())
        cases[1]["solution"]["components"] = components
        path = tmp_path / "components.cases.json"
        path.write_text(json.dumps(cases))
        code, out, err = run_cli(capsys, "cbr-retrieve", path, FIXTURES / "coil_winder.fs.json")
        assert (code, out) == (2, "")
        assert err == (f"error: {path}: $[1].solution.components: "
                       "'components' must be an array\n")

    def test_missing_components_means_none(self):
        from designbench import casebase

        cases = json.loads((FIXTURES / "winder_cases.cases.json").read_text())
        del cases[1]["solution"]["components"]
        assert casebase.parse_case_base(json.dumps(cases)).cases[1].solution.components == ()


class TestSynth:
    def test_fixed_topology_synthesis(self, capsys, tmp_path):
        out_path = tmp_path / "subtractor.fs.json"
        code, out, _ = run_cli(capsys, "synth", FIXTURES / "subtractor.req.json",
                               "--topology", FIXTURES / "subtractor.topo.json",
                               "--fs-out", out_path)
        assert code == 0
        assert "SAT: 7 gates" in out
        assert "PI = 5/7" in out
        written = fs.parse_structure(out_path.read_bytes())
        assert fs.interdependency_index(written) == fs.interdependency_index(
            fs.parse_structure((FIXTURES / "full_subtractor.fs.json").read_bytes())
        )

    def test_and_gate_json(self, capsys):
        code, out, _ = run_cli(capsys, "synth", FIXTURES / "and_gate.req.json",
                               "--max-gates", "2", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["result"] == "SAT"
        assert len(doc["circuit"]["slots"]) == 1

    def test_unwritable_fs_out_is_input_error(self, capsys):
        code, _, err = run_cli(capsys, "synth", FIXTURES / "and_gate.req.json",
                               "--max-gates", "1",
                               "--fs-out", "/no/such/dir/out.fs.json")
        assert code == 2
        assert "cannot write" in err

    def test_unsat_exits_one(self, capsys, tmp_path):
        # 3-input parity cannot fit in a single binary gate
        doc = {
            "inputs": ["a", "b", "c"], "outputs": ["y"],
            "rows": [
                {"in": [(r >> 2) & 1, (r >> 1) & 1, r & 1],
                 "out": [((r >> 2) ^ (r >> 1) ^ r) & 1]}
                for r in range(8)
            ],
        }
        req = tmp_path / "parity.req.json"
        req.write_text(json.dumps(doc))
        code, out, _ = run_cli(capsys, "synth", req, "--max-gates", "1")
        assert code == 1
        assert "UNSAT" in out

    @pytest.mark.parametrize("one", [True, 1.0], ids=["bool", "float"])
    def test_non_integer_bits_rejected_with_row(self, capsys, tmp_path, one):
        zero = not one if isinstance(one, bool) else 0
        doc = {"inputs": ["x"], "outputs": ["y"],
               "rows": [{"in": [0], "out": [1]}, {"in": [zero], "out": [one]}]}
        req = tmp_path / "typed.req.json"
        req.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "synth", req, "--max-gates", "1")
        assert code == 2
        assert out == ""
        assert err == f"error: {req}: $.rows[1]: rows must contain bits (0 or 1)\n"

    @pytest.mark.parametrize("inputs, outputs, where, message", [
        (["a", "a"], ["y"], "inputs", "primary input names must be unique"),
        (["s0", "b"], ["y"], "inputs", "illegal primary input name 's0'"),
        (["a", "b"], ["y", "y"], "outputs", "primary output names must be unique"),
    ], ids=["duplicate-input", "slot-like-input", "duplicate-output"])
    @pytest.mark.parametrize("table", [0b1000, 0b1001], ids=["sat", "unsat"])
    def test_bad_names_are_located_input_errors(self, capsys, tmp_path, inputs,
                                                outputs, where, message, table):
        # AND fits one gate and XNOR needs two: the names are rejected
        # whatever the search would answer
        doc = {"inputs": inputs, "outputs": outputs,
               "rows": [{"in": [(r >> 1) & 1, r & 1],
                         "out": [(table >> r) & 1] * len(outputs)} for r in range(4)]}
        req = tmp_path / "named.req.json"
        req.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "synth", req, "--max-gates", "1")
        assert code == 2
        assert out == ""
        assert err == f"error: {req}: $.{where}: {message}\n"

    @pytest.mark.parametrize("arity", [True, 1.0], ids=["bool", "float"])
    def test_non_integer_arity_rejected_with_slot(self, capsys, tmp_path, arity):
        topo = tmp_path / "typed.topo.json"
        topo.write_text(json.dumps({"inputs": ["a", "b"],
                                    "slots": [{"arity": arity, "from": ["a"]}],
                                    "outputs": ["s0"]}))
        code, out, err = run_cli(capsys, "synth", FIXTURES / "and_gate.req.json",
                                 "--topology", topo)
        assert code == 2
        assert out == ""
        assert err == f"error: {topo}: $.slots[0].arity: 'arity' must be an integer\n"

    @pytest.mark.parametrize("slots, outputs, message", [
        ([["A", "B"]], ["s00"], "output must reference a gate slot, got 's00'"),
        ([["A", "B"], ["s\u0660"]], ["s1"], "slot 1: unknown ref 's\u0660'"),
    ], ids=["zero-padded-output", "arabic-indic-slot"])
    def test_non_canonical_slot_refs_are_input_errors(self, capsys, tmp_path, slots,
                                                       outputs, message):
        # both topologies realise AND; they used to exit 0 and echo the
        # ref, while --fs-out wrote s0
        topo = tmp_path / "alias.topo.json"
        topo.write_text(json.dumps({"inputs": ["A", "B"], "outputs": outputs,
                                    "slots": [{"from": refs} for refs in slots]}))
        code, out, err = run_cli(capsys, "synth", FIXTURES / "and_gate.req.json",
                                 "--topology", topo, "--fs-out", tmp_path / "out.fs.json")
        assert code == 2
        assert out == ""
        assert err == f"error: {topo}: $: {message}\n"
        assert not (tmp_path / "out.fs.json").exists()

    @staticmethod
    def write_chain(path, length):
        """A topology over ``A`` and ``B`` of ``length`` slots: slot 0 reads
        ``A``, each later slot the one before it, and the last one ``B`` too."""
        slots = [{"from": ["A"]}] + [{"from": [f"s{j}"]} for j in range(length - 2)]
        slots.append({"from": [f"s{length - 2}", "B"]})
        path.write_text(json.dumps({"inputs": ["A", "B"], "slots": slots,
                                    "outputs": [f"s{length - 1}"]}))

    def test_topology_too_deep_to_assign_is_input_error(self, capsys, tmp_path):
        # the gate-assignment search assigns one slot per call; it used to
        # end in a RecursionError traceback and exit 1
        topo = tmp_path / "chain.topo.json"
        self.write_chain(topo, 100)
        code, out, err = run_cli(capsys, "synth", FIXTURES / "and_gate.req.json",
                                 "--topology", topo)
        assert (code, err) == (0, "")
        assert out.startswith("SAT: 100 gates\n")
        self.write_chain(topo, 2500)
        code, out, err = run_cli(capsys, "synth", FIXTURES / "and_gate.req.json",
                                 "--topology", topo)
        assert (code, out) == (2, "")
        assert err == f"error: {topo}: too large to synthesise (recursion limit reached)\n"


class TestClassify:
    def test_creative_profile_exits_one(self, capsys):
        code, out, _ = run_cli(capsys, "classify", FIXTURES / "creative.profile.json")
        assert code == 1
        assert "no applicable method" in out

    def test_innovative_profile_exits_zero(self, capsys):
        code, out, _ = run_cli(capsys, "classify", FIXTURES / "innovative.profile.json")
        assert code == 0
        assert "analogy_based: limited" in out

    def test_matrix_override(self, capsys, tmp_path):
        matrix = tmp_path / "generous.matrix.json"
        matrix.write_text(json.dumps([
            {"method": "grammar_based", "requires_decomposable": True,
             "interdependencies": "full", "innovation": "full", "creativity": "full"},
        ]))
        code, out, _ = run_cli(capsys, "classify", FIXTURES / "creative.profile.json",
                               "--matrix", matrix)
        assert code == 0
        assert "grammar_based: applicable" in out

    def test_duplicate_matrix_rows_are_input_error(self, capsys, tmp_path):
        row = {"method": "grammar_based", "requires_decomposable": True,
               "interdependencies": "full", "innovation": "full", "creativity": "full"}
        matrix = tmp_path / "twice.matrix.json"
        matrix.write_text(json.dumps([row, row]))
        code, out, err = run_cli(capsys, "classify", FIXTURES / "creative.profile.json",
                                 "--matrix", matrix)
        assert (code, out) == (2, "")
        assert "$[1].method: duplicate method 'grammar_based'" in err

    @pytest.mark.parametrize("level", [[], {}], ids=["array", "object"])
    def test_non_string_capability_level_is_input_error(self, capsys, tmp_path, level):
        rows = [{"method": "grammar_based", "requires_decomposable": True,
                 "interdependencies": "full", "innovation": level, "creativity": "none"}]
        path = tmp_path / "matrix.json"
        path.write_text(json.dumps(rows))
        code, out, err = run_cli(capsys, "classify", FIXTURES / "creative.profile.json",
                                 "--matrix", path)
        assert (code, out) == (2, "")
        assert err == (f"error: {path}: $[0].innovation: "
                       "'innovation' must be one of none/limited/full\n")

    # Fraction reads 10 ** -4300, whose denominator's 4,301 digits no
    # report could print
    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_rational_past_the_digit_limit_is_input_error(self, capsys, tmp_path, fmt):
        path = tmp_path / "tiny.profile.json"
        path.write_text(json.dumps({"decomposable": True, "pi": "1e-4300",
                                    "novelty": "routine"}))
        code, out, err = run_cli(capsys, "classify", path, "--format", fmt)
        assert (code, out) == (2, "")
        assert err == f"error: {path}: $.pi: not a valid rational: '1e-4300'\n"

    def test_json_report(self, capsys):
        code, out, _ = run_cli(capsys, "classify",
                               FIXTURES / "blackbox_routine.profile.json",
                               "--format", "json")
        assert code == 1
        doc = json.loads(out)
        assert doc["applicable"] == []


class TestArgumentHandling:
    def test_unknown_flag_exits_two(self, capsys):
        code = cli.run(["metrics", str(FIXTURES / "rope.fs.json"), "--frobnicate"])
        capsys.readouterr()
        assert code == 2

    def test_unknown_command_exits_two(self, capsys):
        code = cli.run(["transmogrify"])
        capsys.readouterr()
        assert code == 2

    def test_malformed_json_names_file(self, tmp_path, capsys):
        bad = tmp_path / "broken.fs.json"
        bad.write_text("{ not json")
        code, _, err = run_cli(capsys, "metrics", bad)
        assert code == 2
        assert "broken.fs.json" in err

    # Each subcommand with the undecodable file in one input position;
    # the other positions hold valid fixtures.
    @pytest.mark.parametrize("argv", [
        ("metrics", "BAD"),
        ("novelty", FIXTURES / "helicopter.kb.json", "BAD"),
        ("grammar-generate", "BAD"),
        ("cbr-retrieve", FIXTURES / "winder_cases.cases.json", "BAD"),
        ("synth", "BAD", "--max-gates", "1"),
        ("classify", "BAD"),
    ], ids=lambda argv: argv[0])
    def test_non_utf8_input_names_file_and_byte(self, tmp_path, capsys, argv):
        data = b'{"kind": "caf\xe9"}'
        bad = tmp_path / "latin1.json"
        bad.write_bytes(data)
        code, out, err = run_cli(capsys, *(bad if a == "BAD" else a for a in argv))
        assert code == 2
        assert out == ""
        assert err == f"error: {bad}: not valid UTF-8 (byte {data.index(0xE9)})\n"

    @pytest.mark.parametrize("argv", [
        ("metrics", "BAD"),
        ("novelty", FIXTURES / "helicopter.kb.json", "BAD"),
        ("grammar-generate", "BAD"),
        ("cbr-retrieve", FIXTURES / "winder_cases.cases.json", "BAD"),
        ("synth", "BAD", "--max-gates", "1"),
        ("classify", "BAD"),
    ], ids=lambda argv: argv[0])
    def test_deep_nesting_names_file(self, tmp_path, capsys, argv):
        bad = tmp_path / "deep.json"
        bad.write_text("[" * 100000)
        code, out, err = run_cli(capsys, *(bad if a == "BAD" else a for a in argv))
        assert code == 2
        assert out == ""
        assert err == f"error: {bad}: nested too deeply\n"


class TestFixtureHygiene:
    def test_every_structure_fixture_round_trips(self):
        for path in sorted(FIXTURES.glob("*.fs.json")):
            problem = fs.parse_structure(path.read_bytes())
            assert fs.parse_structure(fs.serialize_structure(problem)) == problem

    def test_every_fixture_parses_with_its_own_parser(self):
        from designbench import casebase, classify, grammar, novelty, synth

        parsers = {
            ".fs.json": fs.parse_structure,
            ".kb.json": novelty.parse_knowledge_base,
            ".design.json": novelty.parse_design_instance,
            ".grammar.json": grammar.parse_grammar,
            ".cases.json": casebase.parse_case_base,
            ".simspec.json": casebase.parse_similarity_spec,
            ".req.json": synth.parse_requirement,
            ".topo.json": synth.parse_topology,
            ".profile.json": classify.parse_profile,
        }
        checked = 0
        for path in sorted(FIXTURES.glob("*.json")):
            for suffix, parser in parsers.items():
                if path.name.endswith(suffix):
                    parser(path.read_bytes())
                    checked += 1
                    break
            else:
                raise AssertionError(f"fixture {path.name} has no registered parser")
        assert checked >= 17

    def test_every_fixture_is_valid_json(self):
        for path in sorted(FIXTURES.glob("*.json")):
            json.loads(path.read_text())
