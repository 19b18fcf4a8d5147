import hashlib
import json
import random
import time
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from designbench import grammar as gr
from designbench.domains import SetDomain, TypeDomain
from conftest import load_fixture_bytes
import oracles
from oracles import brute_force_isomorphic, enumerate_designs


@pytest.fixture(scope="module")
def shaft():
    return gr.parse_grammar(load_fixture_bytes("shaft.grammar.json"))


@pytest.fixture(scope="module")
def gearbox():
    return gr.parse_grammar(load_fixture_bytes("gearbox.grammar.json"))


def section(node_id, shape="ungrooved", diameter=1, length=1):
    return gr.GraphNode.make(node_id, "section",
                             {"shape": shape, "diameter": diameter, "length": length})


def shaft_design(*nodes_and_edges):
    nodes, edges = nodes_and_edges
    return gr.Design(tuple(nodes), tuple(edges))


def three_section_shaft():
    end = gr.GraphNode.make("e", "end", {"finished": False})
    nodes = [section("a"), section("b"), section("c"), end]
    edges = [gr.GraphEdge("a", "b", "next"), gr.GraphEdge("b", "c", "next"),
             gr.GraphEdge("c", "e", "next")]
    return gr.Design(tuple(nodes), tuple(edges))


def brute_force_embeddings(rule: gr.Rule, design: gr.Design) -> int:
    """Count injective label/predicate/edge-respecting node embeddings."""
    lhs = rule.lhs
    count = 0
    ids = [n.id for n in design.nodes]
    for perm in permutations(ids, len(lhs.nodes)):
        mapping = dict(zip((n.id for n in lhs.nodes), perm))
        ok = True
        for pattern in lhs.nodes:
            node = design.node(mapping[pattern.id])
            if node.label != pattern.label:
                ok = False
                break
            attrs = node.attr_map()
            if not all(p.attr in attrs and p.holds(attrs[p.attr])
                       for p in pattern.predicates):
                ok = False
                break
        if not ok:
            continue
        for edge in lhs.edges:
            if not any(
                e.source == mapping[edge.source] and e.target == mapping[edge.target]
                and e.label == edge.label
                for e in design.edges
            ):
                ok = False
                break
        if ok:
            count += 1
    return count


class TestFindMatches:
    def test_single_node_lhs_counts_label_occurrences(self, shaft):
        rule = shaft.rule("groove_section")
        matches = list(gr.find_matches(rule, three_section_shaft()))
        assert len(matches) == 3

    def test_absent_label_gives_no_match(self, shaft):
        rule = shaft.rule("groove_section")
        only_end = gr.Design((gr.GraphNode.make("e", "end", {"finished": False}),))
        assert list(gr.find_matches(rule, only_end)) == []

    def test_two_node_chain_in_three_node_chain(self):
        vocab = gr.Vocabulary.make({"part": {}}, ["next"])
        lhs = gr.PatternGraph(
            (gr.PatternNode("x", "part"), gr.PatternNode("y", "part")),
            (gr.GraphEdge("x", "y", "next"),),
        )
        rule = gr.Rule("chain", lhs, gr.RhsGraph((gr.RhsNode.make("x", "part"),
                                                  gr.RhsNode.make("y", "part"))),
                       anchors=(("x", "x"), ("y", "y")))
        design = gr.Design(
            tuple(gr.GraphNode.make(i, "part") for i in "abc"),
            (gr.GraphEdge("a", "b", "next"), gr.GraphEdge("b", "c", "next")),
        )
        matches = list(gr.find_matches(rule, design))
        assert len(matches) == 2
        assert len(matches) == brute_force_embeddings(rule, design)

    def test_match_counts_agree_with_brute_force(self, shaft):
        designs = [g.design for g in gr.generate(shaft, 2, 50).designs]
        for rule in shaft.rules:
            for design in designs:
                assert len(list(gr.find_matches(rule, design))) == \
                    brute_force_embeddings(rule, design)

    def test_matches_are_deterministically_ordered(self, shaft):
        rule = shaft.rule("groove_section")
        design = three_section_shaft()
        assert list(gr.find_matches(rule, design)) == list(gr.find_matches(rule, design))


class TestApply:
    def test_add_section_grows_shaft(self, shaft):
        rule = shaft.rule("add_section")
        match = next(gr.find_matches(rule, shaft.axiom))
        grown = gr.apply(rule, shaft.axiom, match, shaft.vocabulary)
        assert sum(1 for n in grown.nodes if n.label == "section") == 2
        assert not shaft.vocabulary.check_design(grown)

    def test_groove_section_updates_attribute(self, shaft):
        rule = shaft.rule("groove_section")
        match = next(gr.find_matches(rule, shaft.axiom))
        grooved = gr.apply(rule, shaft.axiom, match, shaft.vocabulary)
        assert grooved.node("s1").get("shape") == "grooved"
        assert grooved.node("s1").get("diameter") == 1  # untouched attrs survive

    def test_rule_then_inverse_restores_design(self, shaft):
        vocab = shaft.vocabulary
        groove = shaft.rule("groove_section")
        ungroove = gr.Rule(
            "ungroove_section",
            lhs=gr.PatternGraph((gr.PatternNode(
                "s", "section", (gr.AttrPredicate("shape", "eq", "grooved"),)),)),
            rhs=gr.RhsGraph((gr.RhsNode.make("s", "section", {"shape": "ungrooved"}),)),
            anchors=(("s", "s"),),
        )
        match = next(gr.find_matches(groove, shaft.axiom))
        grooved = gr.apply(groove, shaft.axiom, match, vocab)
        back_match = next(gr.find_matches(ungroove, grooved))
        assert gr.apply(ungroove, grooved, back_match, vocab) == shaft.axiom

    def test_stale_match_rejected(self, shaft):
        groove = shaft.rule("groove_section")
        match = next(gr.find_matches(groove, shaft.axiom))
        grooved = gr.apply(groove, shaft.axiom, match, shaft.vocabulary)
        with pytest.raises(gr.StaleMatchError):
            gr.apply(groove, grooved, match)  # predicate no longer holds

    def test_match_naming_an_lhs_node_twice_rejected(self, shaft):
        # a dict of the pairs keeps the last, which alone would embed
        groove = shaft.rule("groove_section")
        with pytest.raises(gr.StaleMatchError, match="match names an LHS node twice"):
            gr.apply(groove, shaft.axiom, gr.Match((("s", "nope"), ("s", "s1"))))

    def test_dangling_edge_rejected(self):
        vocab = gr.Vocabulary.make({"part": {}}, ["next"])
        delete = gr.Rule(
            "delete_part",
            lhs=gr.PatternGraph((gr.PatternNode("x", "part"),)),
            rhs=gr.RhsGraph(()),
            anchors=(),
        )
        design = gr.Design(
            (gr.GraphNode.make("a", "part"), gr.GraphNode.make("b", "part")),
            (gr.GraphEdge("a", "b", "next"),),
        )
        match = next(gr.find_matches(delete, design))
        with pytest.raises(gr.DanglingEdgeError):
            gr.apply(delete, design, match, vocab)

    def test_node_removal_takes_matched_edges(self):
        vocab = gr.Vocabulary.make({"part": {}}, ["next"])
        contract = gr.Rule(
            "drop_tail",
            lhs=gr.PatternGraph(
                (gr.PatternNode("x", "part"), gr.PatternNode("y", "part")),
                (gr.GraphEdge("x", "y", "next"),),
            ),
            rhs=gr.RhsGraph((gr.RhsNode.make("x", "part"),)),
            anchors=(("x", "x"),),
        )
        design = gr.Design(
            (gr.GraphNode.make("a", "part"), gr.GraphNode.make("b", "part")),
            (gr.GraphEdge("a", "b", "next"),),
        )
        match = next(gr.find_matches(contract, design))
        shrunk = gr.apply(contract, design, match, vocab)
        assert {n.id for n in shrunk.nodes} == {"a"}
        assert shrunk.edges == ()

    def test_matched_edge_between_anchors_is_consumed(self):
        vocab = gr.Vocabulary.make({"part": {}}, ["next"])
        unlink = gr.Rule(
            "unlink",
            lhs=gr.PatternGraph(
                (gr.PatternNode("x", "part"), gr.PatternNode("y", "part")),
                (gr.GraphEdge("x", "y", "next"),),
            ),
            rhs=gr.RhsGraph((gr.RhsNode.make("x", "part"), gr.RhsNode.make("y", "part"))),
            anchors=(("x", "x"), ("y", "y")),
        )
        design = gr.Design(
            (gr.GraphNode.make("a", "part"), gr.GraphNode.make("b", "part")),
            (gr.GraphEdge("a", "b", "next"), gr.GraphEdge("a", "b", "next")),
        )
        match = next(gr.find_matches(unlink, design))
        cut = gr.apply(unlink, design, match, vocab)
        # exactly the matched instance disappears; the parallel one survives
        assert cut.edges == (gr.GraphEdge("a", "b", "next"),)
        assert {n.id for n in cut.nodes} == {"a", "b"}

    def test_copy_expression_moves_attribute(self):
        vocab = gr.Vocabulary.make({"cell": {"v": TypeDomain("int")}}, ["next"])
        rule = gr.Rule(
            "duplicate",
            lhs=gr.PatternGraph((gr.PatternNode("x", "cell"),)),
            rhs=gr.RhsGraph(
                (gr.RhsNode.make("x", "cell"),
                 gr.RhsNode.make("y", "cell", {"v": gr.CopyAttr("x", "v")})),
                (gr.GraphEdge("x", "y", "next"),),
            ),
            anchors=(("x", "x"),),
        )
        design = gr.Design((gr.GraphNode.make("a", "cell", {"v": 41}),))
        match = next(gr.find_matches(rule, design))
        grown = gr.apply(rule, design, match, vocab)
        new_node = next(n for n in grown.nodes if n.id != "a")
        assert new_node.get("v") == 41

    def test_anchored_node_without_updates_is_the_parents_object(self, gearbox):
        rule = gearbox.rule("add_gear_pair")
        design = gr.replay(gearbox, gr.Derivation((gr.DerivationStep(
            "add_gear_pair", next(gr.find_matches(rule, gearbox.axiom))),)))
        match = next(gr.find_matches(rule, design))
        child = gr.apply(rule, design, match, gearbox.vocabulary)
        for _, design_id in match.nodes:
            assert child.node(design_id) is design.node(design_id)
        # every other node of the parent is kept as it was, too
        for node in design.nodes:
            assert child.node(node.id) is node

    @staticmethod
    def set_cell(old, new):
        rule = gr.Rule("set", lhs=gr.PatternGraph((gr.PatternNode("x", "cell"),)),
                       rhs=gr.RhsGraph((gr.RhsNode.make("x", "cell", {"v": new}),)),
                       anchors=(("x", "x"),))
        design = gr.Design((gr.GraphNode.make("a", "cell", {"v": old, "w": "s"}),))
        return design, gr.apply(rule, design, next(gr.find_matches(rule, design)))

    @pytest.mark.parametrize("old, new", [
        (1, 1), ("s", "s"), (True, True), (None, None), (2.5, 2.5), (0.0, 0.0),
    ])
    def test_update_to_the_same_value_keeps_the_node(self, old, new):
        design, child = self.set_cell(old, new)
        assert child.node("a") is design.node("a")

    @pytest.mark.parametrize("old, new", [
        (1, 1.0), (1, True), (1.0, 1), (True, 1), (0, False), (0.0, -0.0), (1, 2),
        ([1], [True]), ({"k": 1}, {"k": 1}),
    ])
    def test_update_to_another_type_or_text_gives_a_new_node(self, old, new):
        design, child = self.set_cell(old, new)
        node = child.node("a")
        assert node is not design.node("a")
        assert node == gr.GraphNode.make("a", "cell", {"v": new, "w": "s"})
        assert type(node.get("v")) is type(new)
        assert node.colour_key == json.dumps(["cell", [["v", new], ["w", "s"]]])

    def test_removed_nodes_id_goes_to_the_first_new_node(self):
        rule = gr.Rule("swap", lhs=gr.PatternGraph((gr.PatternNode("x", "cell"),)),
                       rhs=gr.RhsGraph((gr.RhsNode.make("y", "cell", {"v": 2}),
                                        gr.RhsNode.make("z", "cell", {"v": 3}))))
        design = gr.Design((gr.GraphNode.make("n0", "cell", {"v": 1}),
                            gr.GraphNode.make("n1", "cell", {"v": 1})))
        match = next(gr.find_matches(rule, design))
        child = gr.apply(rule, design, match)
        assert [n.id for n in child.nodes] == ["n1", "n0", "n2"]
        assert child == oracles.apply(rule, design, match)

    def test_relabelled_anchor_gives_a_new_node(self):
        rule = gr.Rule("relabel", lhs=gr.PatternGraph((gr.PatternNode("x", "cell"),)),
                       rhs=gr.RhsGraph((gr.RhsNode.make("x", "other"),)),
                       anchors=(("x", "x"),))
        design = gr.Design((gr.GraphNode.make("a", "cell", {"v": 1}),))
        child = gr.apply(rule, design, next(gr.find_matches(rule, design)))
        assert child.node("a") == gr.GraphNode.make("a", "other", {"v": 1})


# Small grammars over two node kinds for what the bundled grammars never
# do: remove a node (and meet dangling edges), match LHS edges, relabel,
# copy attributes, test ``in`` and ``lt`` predicates.  Mostly valid under
# REWRITE_VOCAB, so that generation runs; a relabel or a copied value may
# still break the vocabulary, and then both sides must raise alike.
REWRITE_VOCAB = gr.Vocabulary.make(
    {"a": {"v": SetDomain((0, 1, 2))},
     "b": {"v": SetDomain((0, 1, 2)), "w": SetDomain(("x", "y"))}},
    ["p", "q"])
REWRITE_PREDICATES = {
    "a": [gr.AttrPredicate("v", "lt", 2), gr.AttrPredicate("v", "in", (0, 2)),
          gr.AttrPredicate("v", "ne", 1)],
    "b": [gr.AttrPredicate("v", "lt", 1), gr.AttrPredicate("w", "in", ("x",)),
          gr.AttrPredicate("v", "eq", 2)],
}


@st.composite
def rewrite_attrs(draw, label, lhs_labels, required, most=None):
    """RHS attributes for a node of ``label``, all of them or at most
    ``most``: literals of the domain or copies of ``v`` (or ``w`` of a
    ``b`` node) from an LHS node."""
    names = ["v", "w"] if label == "b" else ["v"]
    chosen = names if required else draw(st.lists(st.sampled_from(names), unique=True,
                                                  max_size=most))
    attrs = {}
    for name in chosen:
        literals = [0, 1, 2] if name == "v" else ["x", "y"]
        copies = [gr.CopyAttr(lhs_id, name) for lhs_id, lhs_label in lhs_labels.items()
                  if name == "v" or lhs_label == "b"]
        attrs[name] = draw(st.sampled_from(literals + copies))
    return attrs


@st.composite
def rewrite_rules(draw, design, name="r", mode="any"):
    """A rule whose LHS is mostly a piece of ``design``: some of its nodes,
    with predicates, and some of the edges among them.  In ``mode``
    "keep" every LHS node is anchored, so the rule removes no node.  In
    "quiet" it is too, and the rule sets at most one attribute of those
    nodes, changes no label but by the one valid relabel (an ``a`` that
    becomes a ``b`` by setting its ``w``) and adds one to three edges,
    all between matched nodes: such steps stay valid, each makes a new
    design, and many commute, which is where the partial-order
    reduction acts."""
    quiet = mode == "quiet"
    picked = draw(st.lists(st.sampled_from(design.nodes), min_size=1, max_size=3, unique=True))
    lhs_ids = [f"x{i}" for i in range(len(picked))]
    lhs_of = dict(zip([n.id for n in picked], lhs_ids))
    lhs_labels = {i: node.label for i, node in zip(lhs_ids, picked)}
    lhs_edges = [(lhs_of[e.source], lhs_of[e.target], e.label) for e in design.edges
                 if e.source in lhs_of and e.target in lhs_of]
    lhs_edges = draw(st.lists(st.sampled_from(lhs_edges), max_size=2)) if lhs_edges else []
    lhs_edges += draw(st.lists(st.tuples(
        st.sampled_from(lhs_ids), st.sampled_from(lhs_ids), st.sampled_from("pq")), max_size=1))
    lhs = gr.PatternGraph(
        tuple(gr.PatternNode(i, label, tuple(draw(st.lists(
            st.sampled_from(REWRITE_PREDICATES[label]), max_size=1))))
            for i, label in lhs_labels.items()),
        tuple(gr.GraphEdge(*edge) for edge in lhs_edges))
    rhs_nodes, anchors = [], []
    left = 1 if quiet else None  # attributes the anchored nodes may still set
    anchored = lhs_ids if mode != "any" else \
        draw(st.lists(st.sampled_from(lhs_ids), unique=True))
    for lhs_id in anchored:
        rhs_id = draw(st.sampled_from([lhs_id, f"r{lhs_id}"]))
        label = lhs_labels[lhs_id]
        if not quiet:
            label = draw(st.sampled_from([label, "a", "b"]))
            attrs = draw(rewrite_attrs(label, lhs_labels, required=False))
        elif label == "a" and left and draw(st.booleans()):
            label, attrs, left = "b", {"w": draw(st.sampled_from(["x", "y"]))}, 0
        else:
            attrs = draw(rewrite_attrs(label, lhs_labels, required=False, most=left))
            left -= len(attrs)
        rhs_nodes.append(gr.RhsNode.make(rhs_id, label, attrs))
        anchors.append((lhs_id, rhs_id))
    for k in range(draw(st.integers(0, 2))):
        label = draw(st.sampled_from("ab"))
        rhs_nodes.append(gr.RhsNode.make(
            f"y{k}", label, draw(rewrite_attrs(label, lhs_labels, required=True))))
    rhs_nodes = draw(st.permutations(rhs_nodes))
    ends = [rhs for _, rhs in anchors] if quiet else [n.id for n in rhs_nodes]
    rhs_edges = draw(st.lists(st.tuples(
        st.sampled_from(ends), st.sampled_from(ends), st.sampled_from("pq")),
        min_size=int(quiet), max_size=3)) if ends else []
    return gr.Rule(name, lhs, gr.RhsGraph(tuple(rhs_nodes),
                                          tuple(gr.GraphEdge(*e) for e in rhs_edges)),
                   tuple(sorted(anchors)))


@st.composite
def rewrite_designs(draw):
    """Valid designs whose ids include fresh-looking ``n<k>`` ones; a
    ``b`` node may hold its attributes out of key order."""
    ids = draw(st.lists(st.sampled_from(["n0", "n1", "n2", "n3", "d0", "d1"]),
                        min_size=1, max_size=6, unique=True))
    nodes = []
    for i in ids:
        label = draw(st.sampled_from("ab"))
        attrs = (("v", draw(st.sampled_from([0, 1, 2]))),)
        if label == "b":
            attrs += (("w", draw(st.sampled_from(["x", "y"]))),)
            if draw(st.booleans()):
                attrs = attrs[::-1]
        nodes.append(gr.GraphNode(i, label, attrs))
    edges = draw(st.lists(st.tuples(
        st.sampled_from(ids), st.sampled_from(ids), st.sampled_from("pq")), max_size=8))
    return gr.Design(tuple(nodes), tuple(gr.GraphEdge(*e) for e in edges))


def rewrite_outcome(run, rule, design, match, vocab):
    """What a rewrite gives: the result, its node colours and which of its
    nodes are the parent's own objects; or the exception's type and text."""
    try:
        child = run(rule, design, match, vocab)
    except Exception as exc:  # compared, type and message, with the oracle's
        return type(exc), str(exc)
    return (child, [n.colour_key for n in child.nodes],
            [design._by_id.get(n.id) is n for n in child.nodes])


class TestRewriteAgainstOracle:
    """``apply`` reads what its rule compiled once; the oracle works the
    rule's rewrite out on plain dicts."""

    @settings(max_examples=400, deadline=None)
    @given(rewrite_designs(), st.data())
    def test_apply_equals_the_oracle(self, design, data):
        rule = data.draw(rewrite_rules(design))
        matches = list(gr.find_matches(rule, design))
        assert matches == oracles.find_matches(rule, design)
        ids = [n.id for n in design.nodes]
        # stale or malformed matches: any node ids, any edge indices
        matches += data.draw(st.lists(st.builds(
            gr.Match,
            st.lists(st.tuples(st.sampled_from(["x0", "x1", "x2"]), st.sampled_from(ids)),
                     max_size=3).map(tuple),
            st.lists(st.integers(-1, len(design.edges)), max_size=2).map(tuple)),
            max_size=2))
        for match in matches:
            for vocab in (None, REWRITE_VOCAB):
                assert rewrite_outcome(gr.apply, rule, design, match, vocab) == \
                    rewrite_outcome(oracles.apply, rule, design, match, vocab)

    @settings(max_examples=400, deadline=None)
    @given(rewrite_designs(), st.integers(2, 4), st.sampled_from([5, 40, 200]), st.data())
    def test_generate_equals_the_full_check(self, axiom, depth, cap, data):
        # the reduction's skips against an oracle that applies every step,
        # from depth 2, where a design made by a step is expanded: half the
        # grammars mix rules that relabel, copy, consume and add edges, and
        # remove nodes; the other half have three quiet rules
        if data.draw(st.booleans()):
            modes = ["quiet"] * 3
        else:
            modes = data.draw(st.lists(st.sampled_from(["any", "keep"]), min_size=1, max_size=3))
        rules = tuple(data.draw(rewrite_rules(axiom, f"r{i}", mode))
                      for i, mode in enumerate(modes))
        grammar = gr.Grammar(REWRITE_VOCAB, rules, axiom)
        outcomes = []
        for run in (gr.generate, oracles.generate_full_check):
            try:
                outcomes.append(run(grammar, depth, cap))
            except gr.VocabularyError as exc:
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1]


class TestCanonicalForm:
    def test_renamed_designs_share_canonical_form(self, shaft):
        design = three_section_shaft()
        renamed = gr.Design(
            tuple(gr.GraphNode(f"z_{n.id}", n.label, n.attrs) for n in design.nodes),
            tuple(gr.GraphEdge(f"z_{e.source}", f"z_{e.target}", e.label)
                  for e in design.edges),
        )
        assert gr.canonical_form(design) == gr.canonical_form(renamed)

    def test_attribute_difference_changes_form(self):
        plain = gr.Design((section("a"),))
        grooved = gr.Design((section("a", shape="grooved"),))
        assert gr.canonical_form(plain) != gr.canonical_form(grooved)

    def test_agrees_with_brute_force_isomorphism(self, shaft, gearbox):
        pool = [g.design for g in gr.generate(shaft, 2, 50).designs]
        pool += [g.design for g in gr.generate(gearbox, 2, 50).designs]
        small = [d for d in pool if len(d.nodes) <= 8]
        assert len(small) >= 20
        for i, a in enumerate(small):
            for b in small[i:]:
                assert (gr.canonical_form(a) == gr.canonical_form(b)) == \
                    brute_force_isomorphic(a, b)

    def test_symmetric_multigraph_pair(self):
        # two parallel edges vs a single edge: multiplicity must matter
        single = gr.Design(
            (gr.GraphNode.make("a", "part"), gr.GraphNode.make("b", "part")),
            (gr.GraphEdge("a", "b", "next"),),
        )
        double = gr.Design(
            single.nodes, single.edges + (gr.GraphEdge("a", "b", "next"),)
        )
        assert gr.canonical_form(single) != gr.canonical_form(double)


NODE_KINDS = [("a", {}), ("a", {"x": 1}), ("a", {"x": 2.5}), ("b", {}),
              ("b", {"x": "s\u00e9"}), ("b", {"x": None, "y": True})]


@st.composite
def multigraphs(draw):
    """Up to 7 labelled nodes: a component repeated one or more times,
    plus random edges; parallel edges and self-loops included."""
    size = draw(st.integers(0, 7))
    copies = draw(st.integers(1, max(1, 7 // size))) if size else 1
    kinds = draw(st.lists(st.sampled_from(NODE_KINDS), min_size=size, max_size=size))
    inner = draw(st.lists(st.tuples(st.integers(0, size - 1), st.integers(0, size - 1),
                                    st.sampled_from(["p", "q"])),
                          max_size=2 * size)) if size else []
    n = size * copies
    extra = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                                    st.sampled_from(["p", "q"])), max_size=3)) if n else []
    nodes = tuple(gr.GraphNode.make(f"v{c * size + i}", *kinds[i])
                  for c in range(copies) for i in range(size))
    edges = [(c * size + s, c * size + t, label)
             for c in range(copies) for s, t, label in inner]
    edges += extra
    if edges and draw(st.booleans()):
        edges.append(draw(st.sampled_from(edges)))  # a parallel edge
    return gr.Design(nodes, tuple(gr.GraphEdge(f"v{s}", f"v{t}", label)
                                  for s, t, label in edges))


def shuffled(design, rng):
    """The same design with node order, edge order and ids shuffled."""
    ids = [n.id for n in design.nodes]
    fresh = dict(zip(ids, rng.sample([f"w{i}" for i in range(len(ids))], len(ids))))
    nodes = [gr.GraphNode(fresh[n.id], n.label, n.attrs) for n in design.nodes]
    edges = [gr.GraphEdge(fresh[e.source], fresh[e.target], e.label) for e in design.edges]
    rng.shuffle(nodes)
    rng.shuffle(edges)
    return gr.Design(tuple(nodes), tuple(edges))


def mutated(design, rng):
    """One edge relabelled or redirected, or one node's kind changed."""
    nodes, edges = list(design.nodes), list(design.edges)
    if edges and rng.random() < 0.6:
        i = rng.randrange(len(edges))
        edge = edges[i]
        if rng.random() < 0.5:
            edges[i] = gr.GraphEdge(edge.source, edge.target, "q" if edge.label == "p" else "p")
        else:
            edges[i] = gr.GraphEdge(edge.source, rng.choice(nodes).id, edge.label)
    elif nodes:
        i = rng.randrange(len(nodes))
        nodes[i] = gr.GraphNode.make(nodes[i].id, *rng.choice(NODE_KINDS))
    return gr.Design(tuple(nodes), tuple(edges))


def star(leaves):
    hub = gr.GraphNode.make("hub", "shaft", {"role": "input"})
    spokes = tuple(gr.GraphNode.make(f"l{i}", "bearing") for i in range(leaves))
    return gr.Design((hub, *spokes),
                     tuple(gr.GraphEdge(n.id, "hub", "supports") for n in spokes))


def gear_pairs(pairs):
    """Two shafts joined by ``pairs`` meshing 20/40-tooth gear pairs."""
    nodes = [gr.GraphNode.make("in", "shaft", {"role": "input"}),
             gr.GraphNode.make("out", "shaft", {"role": "output"})]
    edges = []
    for i in range(pairs):
        nodes += [gr.GraphNode.make(f"g{i}", "gear", {"teeth": 20}),
                  gr.GraphNode.make(f"h{i}", "gear", {"teeth": 40})]
        edges += [gr.GraphEdge(f"g{i}", "in", "mounted_on"),
                  gr.GraphEdge(f"h{i}", "out", "mounted_on"),
                  gr.GraphEdge(f"g{i}", f"h{i}", "meshes")]
    return gr.Design(tuple(nodes), tuple(edges))


def clique(size):
    """``size`` nodes of one kind, each joined to every other both ways."""
    ids = [f"k{i}" for i in range(size)]
    return gr.Design(tuple(gr.GraphNode.make(i, "a") for i in ids),
                     tuple(gr.GraphEdge(u, v, "p") for u in ids for v in ids if u != v))


def twin_pairs(count):
    """``count`` disjoint pairs ``u <-> v`` of one node kind."""
    nodes, edges = [], []
    for i in range(count):
        nodes += [gr.GraphNode.make(f"u{i}", "a"), gr.GraphNode.make(f"v{i}", "a")]
        edges += [gr.GraphEdge(f"u{i}", f"v{i}", "p"), gr.GraphEdge(f"v{i}", f"u{i}", "p")]
    return gr.Design(tuple(nodes), tuple(edges))


def bipartite_copies(count):
    """``count`` disjoint copies of K2,2, each edge from one side to the other."""
    nodes, edges = [], []
    for i in range(count):
        sources, targets = [f"s{i}_{k}" for k in range(2)], [f"t{i}_{k}" for k in range(2)]
        nodes += [gr.GraphNode.make(x, "a") for x in sources + targets]
        edges += [gr.GraphEdge(u, v, "p") for u in sources for v in targets]
    return gr.Design(tuple(nodes), tuple(edges))


def complete_bipartite(size, both_ways):
    """K(size, size) of one node kind, each edge from one side to the
    other, and with ``both_ways`` back as well."""
    sources, targets = [f"s{i}" for i in range(size)], [f"t{i}" for i in range(size)]
    edges = [gr.GraphEdge(u, v, "p") for u in sources for v in targets]
    if both_ways:
        edges += [gr.GraphEdge(v, u, "p") for u in sources for v in targets]
    return gr.Design(tuple(gr.GraphNode.make(x, "a") for x in sources + targets),
                     tuple(edges))


def cycle_union(lengths, undirected):
    """Disjoint cycles of one node kind.  With two lengths, colour
    refinement cannot tell the cycles apart, so the search tree has
    leaves with different certificates."""
    nodes, edges = [], []
    for length in lengths:
        ids = [f"c{len(nodes) + i}" for i in range(length)]
        nodes += [gr.GraphNode.make(i, "a") for i in ids]
        for i in range(length):
            edges.append(gr.GraphEdge(ids[i], ids[(i + 1) % length], "p"))
            if undirected:
                edges.append(gr.GraphEdge(ids[(i + 1) % length], ids[i], "p"))
    return gr.Design(tuple(nodes), tuple(edges))


def partitions(total, largest):
    if total == 0:
        yield ()
    for part in range(min(total, largest), 0, -1):
        for rest in partitions(total - part, part):
            yield (part, *rest)


def hung_design(kinds, inner, copies, hubs=0, hang=(), extra=()):
    """``copies`` disjoint copies of one component: node ``j`` of each copy
    has kind ``kinds[j]`` and ``inner`` lists its ``(j, k, label)`` edges.
    ``hubs`` nodes of distinct kinds are shared: ``hang`` lists the
    ``(j, hub, label, outward)`` edges joining every copy to them, and
    ``extra`` the ``(kind, hub, label, outward)`` nodes hung on them alone."""
    nodes = [gr.GraphNode.make(f"h{i}", "h", {"i": i}) for i in range(hubs)]
    edges = []

    def join(node_id, hub, label, outward):
        ends = (node_id, f"h{hub}") if outward else (f"h{hub}", node_id)
        edges.append(gr.GraphEdge(*ends, label))

    for c in range(copies):
        nodes += [gr.GraphNode.make(f"c{c}_{j}", *kind) for j, kind in enumerate(kinds)]
        edges += [gr.GraphEdge(f"c{c}_{j}", f"c{c}_{k}", label) for j, k, label in inner]
        for j, hub, label, outward in hang:
            join(f"c{c}_{j}", hub, label, outward)
    for i, (kind, hub, label, outward) in enumerate(extra):
        nodes.append(gr.GraphNode.make(f"x{i}", *kind))
        join(f"x{i}", hub, label, outward)
    return gr.Design(tuple(nodes), tuple(edges))


@st.composite
def interchangeable_copies(draw):
    """Two to four copies of a component whose nodes differ in kind, hung
    on shared hubs, plus extra nodes hung on the hubs alone: no component
    of the non-singleton cells holds one colour twice."""
    picks = draw(st.lists(st.integers(0, len(NODE_KINDS) - 1), min_size=1, max_size=3,
                          unique=True))
    size, hubs = len(picks), draw(st.integers(1, 2))
    label = st.sampled_from(["p", "q"])
    inner = draw(st.lists(st.tuples(st.integers(0, size - 1), st.integers(0, size - 1),
                                    label), max_size=2 * size))
    hang = draw(st.lists(st.tuples(st.integers(0, size - 1), st.integers(0, hubs - 1),
                                   label, st.booleans()), min_size=1, max_size=3))
    extra = draw(st.lists(st.tuples(st.sampled_from(NODE_KINDS), st.integers(0, hubs - 1),
                                    label, st.booleans()), max_size=2))
    # the unpruned oracle visits up to (copies!)^size leaves
    copies = draw(st.integers(2, 4 if size < 3 else 3))
    return hung_design([NODE_KINDS[i] for i in picks], inner, copies, hubs, hang, extra)


def motif_union(rng):
    """One to three motifs of one to four nodes (kinds drawn with
    repeats), each repeated 1-12 times, on up to two shared hubs."""
    hubs = rng.randint(0, 2)
    nodes = [gr.GraphNode.make(f"h{i}", "h", {"i": i}) for i in range(hubs)]
    edges = []
    labels = ["p", "q"]
    for m in range(rng.randint(1, 3)):
        size = rng.randint(1, 4)
        kinds = [rng.choice(NODE_KINDS) for _ in range(size)]
        inner = [(rng.randrange(size), rng.randrange(size), rng.choice(labels))
                 for _ in range(rng.randint(0, 2 * size))]
        hang = [(rng.randrange(size), rng.randrange(hubs), rng.choice(labels),
                 rng.random() < 0.5) for _ in range(rng.randint(1, 3))] if hubs else []
        for c in range(rng.randint(1, 12)):
            ids = [f"m{m}c{c}_{j}" for j in range(size)]
            nodes += [gr.GraphNode.make(i, *kind) for i, kind in zip(ids, kinds)]
            edges += [gr.GraphEdge(ids[j], ids[k], label) for j, k, label in inner]
            for j, hub, label, outward in hang:
                ends = (ids[j], f"h{hub}") if outward else (f"h{hub}", ids[j])
                edges.append(gr.GraphEdge(*ends, label))
    return gr.Design(tuple(nodes), tuple(edges))


def counted(monkeypatch, *names, module=gr):
    """Count the calls of the named functions of ``module``."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        def wrapper(*args, name=name, real=getattr(module, name)):
            calls[name] += 1
            return real(*args)
        monkeypatch.setattr(module, name, wrapper)
    return calls


class TestCanonicalFormPruning:
    """The pruned search against the unpruned oracle, and its budgets."""

    @settings(max_examples=300, deadline=None)
    @given(multigraphs(), st.randoms(use_true_random=False))
    def test_certificate_bytes_equal_the_unpruned_oracle(self, design, rng):
        form = gr.canonical_form(design)
        assert form == oracles.canonical_form(design)
        assert gr.canonical_form(shuffled(design, rng)) == form
        other = shuffled(mutated(design, rng), rng)
        assert (gr.canonical_form(other) == form) == brute_force_isomorphic(design, other)

    @pytest.mark.parametrize("undirected", [False, True], ids=["directed", "undirected"])
    def test_cycle_unions_equal_the_unpruned_oracle(self, undirected):
        rng = random.Random(3)
        for total in range(1, 8):
            for lengths in partitions(total, total):
                design = cycle_union(lengths, undirected)
                form = gr.canonical_form(design)
                assert form == oracles.canonical_form(design), lengths
                assert gr.canonical_form(shuffled(design, rng)) == form, lengths

    def test_twins_need_equal_in_edges(self):
        # u and v have one colour and the same out-edge, but u is fed by a
        # 6-cycle and v by two 3-cycles: not twins, and not automorphic
        nodes = [gr.GraphNode.make(i, "a") for i in ("u", "v", "w")]
        edges = [gr.GraphEdge("u", "w", "p"), gr.GraphEdge("v", "w", "p")]
        for sink, cycles in (("u", [6]), ("v", [3, 3])):
            design = cycle_union(cycles, undirected=False)
            ids = {n.id: f"{sink}{n.id}" for n in design.nodes}
            nodes += [gr.GraphNode.make(ids[n.id], "a") for n in design.nodes]
            edges += [gr.GraphEdge(ids[e.source], ids[e.target], "p") for e in design.edges]
            edges += [gr.GraphEdge(i, sink, "q") for i in ids.values()]
        design = gr.Design(tuple(nodes), tuple(edges))
        form = oracles.canonical_form(design)
        rng = random.Random(5)
        for _ in range(6):
            assert gr.canonical_form(shuffled(design, rng)) == form

    def test_generation_digest_is_pinned(self, shaft, gearbox):
        # sha256 over the concatenated certificates, computed with the
        # unpruned search; pins every byte and the order of both outputs
        digest = hashlib.sha256()
        for grammar in (gearbox, shaft):
            for g in gr.generate(grammar, 6, 1000).designs:
                digest.update(g.canonical)
        assert digest.hexdigest() == \
            "f92d62462eb215fbce9de5205c13354890b2d39ca5373f48ba30489affca77e4"

    @pytest.mark.parametrize("design", [
        star(16),
        gr.Design(tuple(gr.GraphNode.make(f"b{i}", "bearing") for i in range(16))),
        gear_pairs(8),
    ], ids=["star-16", "isolated-16", "gear-pairs-8"])
    def test_symmetric_design_within_budget(self, gearbox, design):
        assert not gearbox.vocabulary.check_design(design)
        start = time.perf_counter()
        form = gr.canonical_form(design)
        assert time.perf_counter() - start < 1.0
        assert gr.canonical_form(shuffled(design, random.Random(7))) == form

    def test_small_symmetric_designs_equal_the_oracle(self):
        for design in (star(6), gear_pairs(3), clique(6), twin_pairs(5), bipartite_copies(2)):
            assert gr.canonical_form(design) == oracles.canonical_form(design)

    def test_symmetric_family_digest_is_pinned(self):
        # sha256 over the concatenated certificates of large symmetric
        # designs that are not component-discrete, so each takes the search
        digest = hashlib.sha256()
        for design in (clique(40), complete_bipartite(20, False), complete_bipartite(20, True),
                       twin_pairs(40), bipartite_copies(20)):
            digest.update(gr.canonical_form(design))
        assert digest.hexdigest() == \
            "8d531ef7962a734ef37670f6b1c92dc0d4ce8d765c329d10c9ed1287a7678cc3"

    @pytest.mark.parametrize("design, refines", [
        (clique(6), 21), (clique(10), 55), (clique(20), 210), (clique(40), 820),
        (complete_bipartite(20, False), 780), (complete_bipartite(20, True), 818),
        (twin_pairs(5), 35), (twin_pairs(10), 120), (twin_pairs(20), 440),
        (twin_pairs(40), 1680),
        (bipartite_copies(2), 19), (bipartite_copies(5), 100), (bipartite_copies(10), 375),
        (bipartite_copies(20), 1450),
    ], ids=["clique-6", "clique-10", "clique-20", "clique-40", "k20-20", "k20-20-both-ways",
            "pairs-5", "pairs-10", "pairs-20", "pairs-40", "k22-copies-2", "k22-copies-5",
            "k22-copies-10", "k22-copies-20"])
    def test_symmetric_search_effort_is_pinned(self, monkeypatch, design, refines):
        # colour refinements per certificate: on a clique of n nodes the
        # pruned search refines n(n+1)/2 times
        calls = counted(monkeypatch, "_refine")
        gr.canonical_form(design)
        assert calls == {"_refine": refines}

    @settings(max_examples=150, deadline=None)
    @given(interchangeable_copies(), st.randoms(use_true_random=False))
    def test_component_discrete_designs_skip_the_search(self, design, rng):
        # one colour refinement each, and no search below it
        with pytest.MonkeyPatch.context() as patch:
            calls = counted(patch, "_refine")
            form = gr.canonical_form(design)
            assert calls == {"_refine": 1}
            again = gr.canonical_form(shuffled(design, rng))
        assert form == again == oracles.canonical_form(design)

    def test_component_sort_equals_the_walk_on_motif_unions(self):
        # unions of repeated coloured motifs on shared hubs, too many copies
        # for the unpruned oracle; motif kinds may repeat, so some designs
        # are not component-discrete and must take the other paths
        rng = random.Random(17)
        walked_count = 0
        for _ in range(400):
            design = motif_union(rng)
            walked = oracles.component_walk_form(design)
            if walked is None:
                continue
            walked_count += 1
            assert gr.canonical_form(design) == walked
            assert gr.canonical_form(shuffled(design, rng)) == walked
        assert walked_count > 200

    def test_component_sort_equals_the_walk_on_generated_designs(self, shaft, gearbox):
        for grammar in (gearbox, shaft):
            for design in gr.generate(grammar, 5, 1000).designs:
                walked = oracles.component_walk_form(design.design)
                assert walked is not None and design.canonical == walked

    A, B = ("a", {}), ("b", {})

    @pytest.mark.parametrize("design", [
        hung_design([A, A], [(0, 1, "p"), (1, 0, "p")], 1, 1, [(0, 0, "q", True),
                                                             (1, 0, "q", True)]),
        hung_design([A, A], [(0, 1, "p"), (1, 0, "p")], 3, 1, [(0, 0, "q", True),
                                                             (1, 0, "q", True)]),
        cycle_union([3, 3], undirected=False),
        cycle_union([3, 2, 2], undirected=False),
        hung_design([A, B, A, B], [(0, 1, "p"), (1, 2, "p"), (2, 3, "p"), (3, 0, "p")], 2),
    ], ids=["adjacent-twins", "adjacent-twins-3", "directed-cycles-3-3",
            "directed-cycles-3-2-2", "colour-twice-2"])
    def test_other_symmetric_designs_take_the_search_path(self, monkeypatch, design):
        calls = counted(monkeypatch, "_refine")
        form = gr.canonical_form(design)
        assert calls["_refine"] > 1
        assert form == oracles.canonical_form(design)
        assert gr.canonical_form(shuffled(design, random.Random(11))) == form


class TestColourKey:
    @pytest.mark.parametrize("value", [
        "plain", "s\u00e9 \u2603 \U0001f600", 'quote " back \\ \n\t\x00', "",
        0, -7, 10**40, 0.5, -0.0, 1e300, 2.5e-8, float("nan"), float("inf"),
        True, False, None,
    ])
    def test_equals_json_dumps(self, value):
        node = gr.GraphNode.make("n", "l\u00e4bel", {"k": value, "\u00fc": 1, "a": "x"})
        assert node.colour_key == \
            json.dumps([node.label, [[k, v] for k, v in node.attrs]], sort_keys=True)

    def test_node_without_attributes(self):
        assert gr.GraphNode.make("n", "end").colour_key == '["end", []]'


# Rules over the labels and edge labels of ``multigraphs``: one and
# several pattern nodes, predicates, parallel pattern edges and a loop.
_A, _B = gr.PatternNode("x", "a"), gr.PatternNode("y", "b")
MATCH_RULES = [
    gr.Rule(name, gr.PatternGraph(nodes, edges), gr.RhsGraph(()))
    for name, nodes, edges in [
        ("one_a", (_A,), ()),
        ("a_with_x_1", (gr.PatternNode("x", "a", (gr.AttrPredicate("x", "eq", 1),)),), ()),
        ("a_to_b", (_A, _B), (gr.GraphEdge("x", "y", "p"),)),
        ("two_a", (_A, gr.PatternNode("y", "a")), ()),
        ("double_a_to_a", (_A, gr.PatternNode("y", "a")),
         (gr.GraphEdge("x", "y", "p"), gr.GraphEdge("x", "y", "p"))),
        ("loop", (_B,), (gr.GraphEdge("y", "y", "q"),)),
        ("path", (_A, _B, gr.PatternNode("z", "a")),
         (gr.GraphEdge("x", "y", "p"), gr.GraphEdge("y", "z", "q"),
          gr.GraphEdge("x", "y", "q"))),
    ]
]


class TestMatchIndexAgainstOracle:
    """``find_matches`` reads the per-design label and edge indices; the
    oracle filters every injective node map and every choice of edges."""

    @pytest.mark.parametrize("name", ["shaft", "gearbox"])
    def test_every_design_up_to_depth_four(self, request, name):
        grammar = request.getfixturevalue(name)
        designs = [g.design for g in gr.generate(grammar, 4, 10_000).designs]
        assert len(designs) > 50
        for design in designs:
            for rule in grammar.rules:
                assert list(gr.find_matches(rule, design)) == oracles.find_matches(rule, design)

    @settings(max_examples=300, deadline=None)
    @given(multigraphs())
    def test_random_designs(self, design):
        for rule in MATCH_RULES:
            assert list(gr.find_matches(rule, design)) == oracles.find_matches(rule, design)


class TestGenerate:
    def test_zero_rules_yields_axiom(self, shaft):
        bare = gr.Grammar(shaft.vocabulary, (), shaft.axiom)
        result = gr.generate(bare, 3, 100)
        assert len(result) == 1
        assert result.designs[0].design == shaft.axiom

    def test_budget_of_one_yields_axiom_only(self, shaft):
        result = gr.generate(shaft, 3, 1)
        assert len(result) == 1
        assert result.designs[0].design == shaft.axiom

    def test_zero_limits_rejected(self, shaft):
        with pytest.raises(ValueError):
            gr.generate(shaft, 0, 10)
        with pytest.raises(ValueError):
            gr.generate(shaft, 3, 0)

    def test_a_symmetric_rule_builds_only_the_match_it_needs(self, monkeypatch):
        # five anchored ``a`` nodes gain a ``b``, on twelve ``a`` nodes:
        # 95,040 matches, all giving one child, and the second design ends
        # the run before a second match is built
        ids = [f"x{i}" for i in range(5)]
        rule = gr.Rule("add_b", gr.PatternGraph(tuple(gr.PatternNode(i, "a") for i in ids)),
                       gr.RhsGraph((*[gr.RhsNode.make(i, "a") for i in ids],
                                    gr.RhsNode.make("y", "b"))),
                       tuple((i, i) for i in ids))
        axiom = gr.Design(tuple(gr.GraphNode.make(f"a{i}", "a") for i in range(12)))
        grammar = gr.Grammar(gr.Vocabulary.make({"a": {}, "b": {}}, []), (rule,), axiom)
        calls = counted(monkeypatch, "Match")
        assert len(gr.generate(grammar, 1, 2)) == 2
        assert calls == {"Match": 1}

    def test_depth_three_design_count_regression(self, shaft):
        # independently confirmed by the brute-force derivation enumerator
        # in test_acceptance (criterion 4)
        assert len(gr.generate(shaft, 3, 10_000)) == 56

    def test_generated_designs_validate_and_replay(self, shaft):
        result = gr.generate(shaft, 3, 10_000)
        for entry in result.designs:
            assert not shaft.vocabulary.check_design(entry.design)
            assert gr.replay(shaft, entry.derivation) == entry.design

    def test_no_duplicate_canonical_forms(self, shaft):
        forms = [g.canonical for g in gr.generate(shaft, 3, 10_000).designs]
        assert len(forms) == len(set(forms))

    def test_generation_is_deterministic(self, gearbox):
        first = gr.generate(gearbox, 2, 200)
        second = gr.generate(gearbox, 2, 200)
        assert [g.canonical for g in first.designs] == [g.canonical for g in second.designs]
        assert [g.design for g in first.designs] == [g.design for g in second.designs]

    def test_matches_brute_force_enumeration_at_depth_two(self, shaft):
        expected = enumerate_designs(shaft, 2)
        got = gr.generate(shaft, 2, 10_000)
        assert len(got) == len(expected)
        for entry in got.designs:
            assert any(brute_force_isomorphic(entry.design, d) for d in expected)


class TestGenerateAgainstFullCheck:
    """``generate`` checks only touched nodes and skips a step that
    commutes with its parent's last step and comes before it; the oracle
    checks every child in full and skips nothing."""

    @pytest.mark.parametrize("depth", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("name", ["shaft", "gearbox"])
    @pytest.mark.parametrize("max_designs", [1000, 37])
    def test_results_equal_the_oracle(self, request, name, depth, max_designs):
        grammar = request.getfixturevalue(name)
        # dataclass equality: designs, derivations with their matches,
        # certificates and depths
        assert gr.generate(grammar, depth, max_designs) == \
            oracles.generate_full_check(grammar, depth, max_designs)

    def test_children_equal_as_designs_but_not_in_colour_are_both_kept(self):
        # 1 == True, so the two children are equal Designs; their colours
        # (and certificates) differ, so neither is a repeat of the other
        vocab = gr.Vocabulary.make({"cell": {"v": SetDomain((0, 1, True))}}, [])
        rules = tuple(
            gr.Rule(f"set_{type(value).__name__}",
                    lhs=gr.PatternGraph((gr.PatternNode(
                        "x", "cell", (gr.AttrPredicate("v", "eq", 0),)),)),
                    rhs=gr.RhsGraph((gr.RhsNode.make("x", "cell", {"v": value}),)),
                    anchors=(("x", "x"),))
            for value in (1, True)
        )
        grammar = gr.Grammar(vocab, rules, gr.Design((gr.GraphNode.make("a", "cell", {"v": 0}),)))
        result = gr.generate(grammar, 1, 10)
        assert len(result) == 3
        assert result == oracles.generate_full_check(grammar, 1, 10)

    @staticmethod
    def swap_cell_grammar():
        # The rule removes the matched cell and adds one that copies 3 out
        # of the source; the new cell gets the removed cell's id "n0", so
        # only an identity comparison sees that it is not the parent's.
        vocab = gr.Vocabulary.make(
            {"cell": {"v": SetDomain((1, 2))}, "source": {"w": SetDomain((1, 2, 3))}}, [])
        axiom = gr.Design((gr.GraphNode.make("n0", "cell", {"v": 1}),
                           gr.GraphNode.make("s", "source", {"w": 3})))
        rule = gr.Rule(
            "swap_cell",
            lhs=gr.PatternGraph((gr.PatternNode("x", "cell"), gr.PatternNode("y", "source"))),
            rhs=gr.RhsGraph((gr.RhsNode.make("y", "source"),
                             gr.RhsNode.make("z", "cell", {"v": gr.CopyAttr("y", "w")}))),
            anchors=(("y", "y"),),
        )
        return gr.Grammar(vocab, (rule,), axiom)

    @staticmethod
    def copy_flag_grammar():
        # The anchored cell's x becomes its flag, True, which equals the old
        # value 1 but is no int; only an identity comparison sees that the
        # rewritten node is not the parent's and checks it.
        vocab = gr.Vocabulary.make(
            {"cell": {"flag": TypeDomain("bool"), "x": TypeDomain("int")}}, [])
        rule = gr.Rule(
            "copy",
            lhs=gr.PatternGraph((gr.PatternNode("a", "cell"),)),
            rhs=gr.RhsGraph((gr.RhsNode.make("a", "cell", {"x": gr.CopyAttr("a", "flag")}),)),
            anchors=(("a", "a"),),
        )
        axiom = gr.Design((gr.GraphNode.make("c", "cell", {"flag": True, "x": 1}),))
        return gr.Grammar(vocab, (rule,), axiom)

    @staticmethod
    def shaft_with(shaft, name):
        if name == "copy_shape_to_diameter":
            # a grooved section gets its shape as diameter, at depth 2
            rule = gr.Rule(
                name,
                lhs=gr.PatternGraph((gr.PatternNode(
                    "s", "section", (gr.AttrPredicate("shape", "eq", "grooved"),)),)),
                rhs=gr.RhsGraph((gr.RhsNode.make(
                    "s", "section", {"diameter": gr.CopyAttr("s", "shape")}),)),
                anchors=(("s", "s"),),
            )
        else:
            # a finished end is relabelled a section and keeps its attribute
            rule = gr.Rule(
                name,
                lhs=gr.PatternGraph((gr.PatternNode(
                    "e", "end", (gr.AttrPredicate("finished", "eq", True),)),)),
                rhs=gr.RhsGraph((gr.RhsNode.make("e", "section"),)),
                anchors=(("e", "e"),),
            )
        return gr.Grammar(shaft.vocabulary, (*shaft.rules, rule), shaft.axiom)

    @pytest.mark.parametrize("name, message", [
        ("copy_shape_to_diameter",
         "result of rule 'copy_shape_to_diameter': node 's1': "
         "value 'grooved' outside domain of 'diameter'"),
        ("end_to_section",
         "result of rule 'end_to_section': node 'e1': missing attribute 'diameter'; "
         "node 'e1': missing attribute 'length'; node 'e1': missing attribute 'shape'; "
         "node 'e1': undeclared attribute 'finished'"),
        ("swap_cell",
         "result of rule 'swap_cell': node 'n0': value 3 outside domain of 'v'"),
        ("copy", "result of rule 'copy': node 'c': value True outside domain of 'x'"),
    ], ids=["copy_shape_to_diameter", "end_to_section", "swap_cell", "copy_flag_to_int"])
    def test_vocabulary_violation_message_equals_the_oracle(self, shaft, name, message):
        if name == "swap_cell":
            grammar = self.swap_cell_grammar()
        elif name == "copy":
            grammar = self.copy_flag_grammar()
        else:
            grammar = self.shaft_with(shaft, name)
        for run in (gr.generate, oracles.generate_full_check):
            with pytest.raises(gr.VocabularyError) as caught:
                run(grammar, 4, 1000)
            assert str(caught.value) == message, run

    @staticmethod
    def conflict_grammar(kind):
        """Two rules where a step of the first, taken after a step of the
        second, comes before that step in the grandparent's order but does
        not commute with it: ``kind`` names what ties the two."""
        def rule(name, lhs, rhs, lhs_edges=(), rhs_edges=()):
            return gr.Rule(name, gr.PatternGraph(tuple(lhs), tuple(lhs_edges)),
                           gr.RhsGraph(tuple(rhs), tuple(rhs_edges)),
                           tuple((n.id, n.id) for n in lhs))

        def on(label, value=None):
            where = () if value is None else (gr.AttrPredicate("v", "eq", value),)
            return gr.PatternNode("x", label, where)

        kinds = gr.Vocabulary.make({"a": {}, "b": {}, "c": {}}, ["p"])
        node, edge = gr.RhsNode.make, gr.GraphEdge("x", "y", "p")
        if kind == "attribute":
            # to_one writes the v that to_two tests
            vocab = gr.Vocabulary.make({"cell": {"v": SetDomain((0, 1, 2))}}, [])
            rules = (rule("to_two", [on("cell", 1)], [node("x", "cell", {"v": 2})]),
                     rule("to_one", [on("cell", 0)], [node("x", "cell", {"v": 1})]))
            axiom = gr.Design((gr.GraphNode.make("s", "cell", {"v": 0}),))
            return gr.Grammar(vocab, rules, axiom)
        if kind == "relabel":
            # a_to_b relabels the node b_to_c matches
            rules = (rule("b_to_c", [on("b")], [node("x", "c")]),
                     rule("a_to_b", [on("a")], [node("x", "b")]))
            return gr.Grammar(kinds, rules, gr.Design((gr.GraphNode.make("s", "a"),)))
        if kind == "created":
            # grow_c matches the node grow_b made
            rules = (rule("grow_c", [on("b")], [node("x", "b"), node("y", "c")]),
                     rule("grow_b", [on("a")], [node("x", "a"), node("y", "b")]))
            return gr.Grammar(kinds, rules, gr.Design((gr.GraphNode.make("s", "a"),)))
        # edge: keep consumes the edge cut consumes, adds it back and a node
        ends = [on("a"), gr.PatternNode("y", "b")]
        rules = (rule("cut", ends, [node("x", "a"), node("y", "b")], [edge]),
                 rule("keep", ends, [node("x", "a"), node("y", "b"), node("z", "c")],
                      [edge], [edge]))
        axiom = gr.Design((gr.GraphNode.make("a", "a"), gr.GraphNode.make("b", "b")),
                          (gr.GraphEdge("a", "b", "p"),))
        return gr.Grammar(kinds, rules, axiom)

    @pytest.mark.parametrize("kind, depth, count", [
        ("attribute", 2, 3), ("relabel", 2, 3), ("created", 3, 7), ("edge", 3, 7),
    ])
    def test_steps_that_do_not_commute_are_both_applied(self, kind, depth, count):
        # each skip would lose a design: the second step's child has no
        # isomorphic design the other order reaches
        grammar = self.conflict_grammar(kind)
        result = gr.generate(grammar, depth, 1000)
        assert len(result) == count
        assert result == oracles.generate_full_check(grammar, depth, 1000)

    @pytest.mark.parametrize(
        "name, checks, forms, refines, searches, rewrites, oracle_rewrites, oracle_forms", [
            ("shaft", 0, 401, 401, 755, 400, 1081, 1082),
            ("gearbox", 0, 256, 256, 309, 255, 548, 549),
        ])
    def test_work_counters_are_pinned(self, request, monkeypatch, name, checks, forms,
                                      refines, searches, rewrites, oracle_rewrites,
                                      oracle_forms):
        # Without the axiom check (done by Grammar), the oracle checks and
        # certifies every child; generate checks none of these valid ones
        # in full, and neither rewrites nor certifies a step that commutes
        # with its parent's last step and comes before it.  No design needs
        # the search (one refinement per certificate): shaft designs refine
        # to discrete colourings, and gearbox ones to component-discrete
        # colourings.  Both match every rule into every design they expand.
        grammar = request.getfixturevalue(name)
        calls = counted(monkeypatch, "canonical_form", "_refine", "find_matches", "apply")
        calls["require_valid"] = 0
        require_valid = gr.Vocabulary.require_valid

        def counted_require_valid(self, design, context):
            calls["require_valid"] += 1
            return require_valid(self, design, context)

        monkeypatch.setattr(gr.Vocabulary, "require_valid", counted_require_valid)
        gr.generate(grammar, 5, 1000)
        assert calls == {"require_valid": checks, "canonical_form": forms,
                         "_refine": refines, "find_matches": searches, "apply": rewrites}
        calls.update(dict.fromkeys(calls, 0))
        oracle_calls = counted(monkeypatch, "find_matches", "apply", module=oracles)
        oracles.generate_full_check(grammar, 5, 1000)
        assert (calls["require_valid"], calls["canonical_form"]) == \
            (oracle_forms - 1, oracle_forms)
        # the oracle matches as often and rewrites at every match, with its
        # own functions
        assert (calls["find_matches"], calls["apply"]) == (0, 0)
        assert oracle_calls == {"find_matches": searches, "apply": oracle_rewrites}

    @pytest.mark.parametrize("name, checks, nodes", [
        ("shaft", 395, 395),
        ("gearbox", 130, 130),
    ])
    def test_new_nodes_made_from_literals_are_not_checked_again(
            self, request, monkeypatch, name, checks, nodes):
        # check_rule has proven valid every node a rule makes from literals
        # alone: shaft's new section, and gearbox's gears and bearing.  So
        # only the other touched nodes reach the vocabulary, and a child
        # with none is not checked (checking them too took 400 checks of
        # 400 nodes for shaft and 468 of 655 for gearbox).
        grammar = request.getfixturevalue(name)
        seen = {"checks": 0, "nodes": 0}
        node_problems = gr.Vocabulary._node_problems

        def counted(self, touched):
            seen["checks"] += 1
            seen["nodes"] += len(touched)
            return node_problems(self, touched)

        monkeypatch.setattr(gr.Vocabulary, "_node_problems", counted)
        gr.generate(grammar, 5, 1000)
        assert seen == {"checks": checks, "nodes": nodes}


class TestDesignToDot:
    def test_node_label_and_attributes_are_split_by_the_dot_line_break(self, gearbox):
        lines = gr.design_to_dot(gearbox.axiom, "axiom").splitlines()
        assert lines[0] == 'digraph "axiom" {'
        # one backslash before the n: Graphviz draws a line break there
        assert lines[1] == '  "sh_in" [label="shaft\\nrole=\'input\'"];'

    def test_non_ascii_text_is_written_as_is(self):
        design = gr.Design((gr.GraphNode.make("w\u00e4lze", "zahnrad", {"z\u00e4hne": 20}),
                            gr.GraphNode.make("b", "lager")),
                           (gr.GraphEdge("w\u00e4lze", "b", "tr\u00e4gt"),))
        assert gr.design_to_dot(design, "entwurf_\u00e4").splitlines() == [
            'digraph "entwurf_\u00e4" {',
            '  "w\u00e4lze" [label="zahnrad\\nz\u00e4hne=20"];',
            '  "b" [label="lager"];',
            '  "w\u00e4lze" -> "b" [label="tr\u00e4gt"];',
            "}",
        ]


class TestVocabulary:
    def test_axiom_outside_vocabulary_rejected(self):
        vocab = gr.Vocabulary.make({"part": {"size": SetDomain((1, 2))}}, [])
        bad_axiom = gr.Design((gr.GraphNode.make("a", "part", {"size": 99}),))
        with pytest.raises(gr.VocabularyError):
            gr.Grammar(vocab, (), bad_axiom)

    def test_rule_with_undeclared_attribute_rejected(self):
        vocab = gr.Vocabulary.make({"part": {}}, [])
        rule = gr.Rule(
            "bad",
            lhs=gr.PatternGraph((gr.PatternNode(
                "x", "part", (gr.AttrPredicate("ghost", "eq", 1),)),)),
            rhs=gr.RhsGraph((gr.RhsNode.make("x", "part"),)),
            anchors=(("x", "x"),),
        )
        axiom = gr.Design((gr.GraphNode.make("a", "part"),))
        with pytest.raises(gr.VocabularyError):
            gr.Grammar(vocab, (rule,), axiom)

    def test_duplicate_rule_names_rejected(self, shaft):
        with pytest.raises(ValueError):
            gr.Grammar(shaft.vocabulary, shaft.rules + (shaft.rules[0],), shaft.axiom)


class TestParseGrammar:
    @staticmethod
    def shaft_with_end_predicate(predicate):
        # the first rule of shaft matches an end node where finished == false
        doc = json.loads(load_fixture_bytes("shaft.grammar.json"))
        doc["rules"][0]["lhs"]["nodes"][1]["where"] = [predicate]
        return json.dumps(doc)

    def test_in_predicate_needs_an_array(self):
        data = self.shaft_with_end_predicate({"attr": "finished", "op": "in", "value": 5})
        with pytest.raises(gr.SchemaError) as caught:
            gr.parse_grammar(data)
        # one location, not the rule's prefixed to the predicate's
        assert str(caught.value) == \
            "$.rules[0].lhs.nodes[1].where[0].value: 'value' must be an array"
        assert caught.value.location == "$.rules[0].lhs.nodes[1].where[0].value"

    def test_bad_anchor_is_located_at_the_rule(self):
        doc = json.loads(load_fixture_bytes("shaft.grammar.json"))
        doc["rules"][0]["anchors"] = {"ghost": "s"}
        with pytest.raises(gr.SchemaError) as caught:
            gr.parse_grammar(json.dumps(doc))
        assert caught.value.location == "$.rules[0]"
        assert "anchor source 'ghost' not in LHS" in str(caught.value)

    def test_in_predicate_over_an_array_matches_like_eq(self, shaft):
        data = self.shaft_with_end_predicate({"attr": "finished", "op": "in", "value": [False]})
        assert [g.canonical for g in gr.generate(gr.parse_grammar(data), 3, 100).designs] == \
            [g.canonical for g in gr.generate(shaft, 3, 100).designs]

    @pytest.mark.parametrize("path, message", [
        pytest.param(path, message, id=".".join(map(str, path)))
        for path, message in [
            (("axiom", "nodes"), "$.axiom.nodes: 'nodes' must be an array"),
            (("axiom", "edges"), "$.axiom.edges: 'edges' must be an array"),
            (("rules",), "$.rules: 'rules' must be an array"),
            (("rules", 0, "lhs", "nodes"), "$.rules[0].lhs.nodes: 'nodes' must be an array"),
            (("rules", 0, "lhs", "edges"), "$.rules[0].lhs.edges: 'edges' must be an array"),
            (("rules", 0, "lhs", "nodes", 1, "where"),
             "$.rules[0].lhs.nodes[1].where: 'where' must be an array"),
            (("rules", 0, "rhs", "nodes"), "$.rules[0].rhs.nodes: 'nodes' must be an array"),
            (("rules", 0, "rhs", "edges"), "$.rules[0].rhs.edges: 'edges' must be an array"),
        ]
    ])
    @pytest.mark.parametrize("value", [3, {"a": 1}, None], ids=["int", "object", "null"])
    def test_non_array_is_a_located_schema_error(self, path, message, value):
        doc = json.loads(load_fixture_bytes("shaft.grammar.json"))
        owner = doc
        for key in path[:-1]:
            owner = owner[key]
        owner[path[-1]] = value
        with pytest.raises(gr.SchemaError) as caught:
            gr.parse_grammar(json.dumps(doc))
        assert str(caught.value) == message

    def test_non_string_anchor_target_is_a_located_schema_error(self):
        doc = json.loads(load_fixture_bytes("shaft.grammar.json"))
        doc["rules"][0]["anchors"]["s"] = ["s"]
        with pytest.raises(gr.SchemaError) as caught:
            gr.parse_grammar(json.dumps(doc))
        assert str(caught.value) == "$.rules[0].anchors.s: expected a string"

    def test_copy_of_undeclared_attribute_is_rejected(self):
        doc = json.loads(load_fixture_bytes("shaft.grammar.json"))
        # groove_section: the section's diameter copies a missing attribute
        doc["rules"][1]["rhs"]["nodes"][0]["attrs"]["diameter"] = \
            {"copy": {"node": "s", "attr": "nope"}}
        with pytest.raises(gr.SchemaError) as caught:
            gr.parse_grammar(json.dumps(doc))
        assert str(caught.value) == (
            "$: rule 'groove_section': RHS node 's': copy references undeclared "
            "attribute 'nope' of LHS node 's'")
