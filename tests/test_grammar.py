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
        matches = gr.find_matches(rule, three_section_shaft())
        assert len(matches) == 3

    def test_absent_label_gives_no_match(self, shaft):
        rule = shaft.rule("groove_section")
        only_end = gr.Design((gr.GraphNode.make("e", "end", {"finished": False}),))
        assert gr.find_matches(rule, only_end) == []

    def test_two_node_chain_in_three_node_chain(self):
        vocab = gr.Vocabulary.make({"part": {}}, ["next"])
        lhs = gr.PatternGraph(
            (gr.PatternNode("x", "part"), gr.PatternNode("y", "part")),
            (gr.PatternEdge("x", "y", "next"),),
        )
        rule = gr.Rule("chain", lhs, gr.RhsGraph((gr.RhsNode.make("x", "part"),
                                                  gr.RhsNode.make("y", "part"))),
                       anchors=(("x", "x"), ("y", "y")))
        design = gr.Design(
            tuple(gr.GraphNode.make(i, "part") for i in "abc"),
            (gr.GraphEdge("a", "b", "next"), gr.GraphEdge("b", "c", "next")),
        )
        matches = gr.find_matches(rule, design)
        assert len(matches) == 2
        assert len(matches) == brute_force_embeddings(rule, design)

    def test_match_counts_agree_with_brute_force(self, shaft):
        designs = [g.design for g in gr.generate(shaft, 2, 50).designs]
        for rule in shaft.rules:
            for design in designs:
                assert len(gr.find_matches(rule, design)) == \
                    brute_force_embeddings(rule, design)

    def test_matches_are_deterministically_ordered(self, shaft):
        rule = shaft.rule("groove_section")
        design = three_section_shaft()
        assert gr.find_matches(rule, design) == gr.find_matches(rule, design)


class TestApply:
    def test_add_section_grows_shaft(self, shaft):
        rule = shaft.rule("add_section")
        match = gr.find_matches(rule, shaft.axiom)[0]
        grown = gr.apply(rule, shaft.axiom, match, shaft.vocabulary)
        assert sum(1 for n in grown.nodes if n.label == "section") == 2
        assert not shaft.vocabulary.check_design(grown)

    def test_groove_section_updates_attribute(self, shaft):
        rule = shaft.rule("groove_section")
        match = gr.find_matches(rule, shaft.axiom)[0]
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
        match = gr.find_matches(groove, shaft.axiom)[0]
        grooved = gr.apply(groove, shaft.axiom, match, vocab)
        back_match = gr.find_matches(ungroove, grooved)[0]
        assert gr.apply(ungroove, grooved, back_match, vocab) == shaft.axiom

    def test_stale_match_rejected(self, shaft):
        groove = shaft.rule("groove_section")
        match = gr.find_matches(groove, shaft.axiom)[0]
        grooved = gr.apply(groove, shaft.axiom, match, shaft.vocabulary)
        with pytest.raises(gr.StaleMatchError):
            gr.apply(groove, grooved, match)  # predicate no longer holds

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
        match = gr.find_matches(delete, design)[0]
        with pytest.raises(gr.DanglingEdgeError):
            gr.apply(delete, design, match, vocab)

    def test_node_removal_takes_matched_edges(self):
        vocab = gr.Vocabulary.make({"part": {}}, ["next"])
        contract = gr.Rule(
            "drop_tail",
            lhs=gr.PatternGraph(
                (gr.PatternNode("x", "part"), gr.PatternNode("y", "part")),
                (gr.PatternEdge("x", "y", "next"),),
            ),
            rhs=gr.RhsGraph((gr.RhsNode.make("x", "part"),)),
            anchors=(("x", "x"),),
        )
        design = gr.Design(
            (gr.GraphNode.make("a", "part"), gr.GraphNode.make("b", "part")),
            (gr.GraphEdge("a", "b", "next"),),
        )
        match = gr.find_matches(contract, design)[0]
        shrunk = gr.apply(contract, design, match, vocab)
        assert shrunk.node_ids() == {"a"}
        assert shrunk.edges == ()

    def test_matched_edge_between_anchors_is_consumed(self):
        vocab = gr.Vocabulary.make({"part": {}}, ["next"])
        unlink = gr.Rule(
            "unlink",
            lhs=gr.PatternGraph(
                (gr.PatternNode("x", "part"), gr.PatternNode("y", "part")),
                (gr.PatternEdge("x", "y", "next"),),
            ),
            rhs=gr.RhsGraph((gr.RhsNode.make("x", "part"), gr.RhsNode.make("y", "part"))),
            anchors=(("x", "x"), ("y", "y")),
        )
        design = gr.Design(
            (gr.GraphNode.make("a", "part"), gr.GraphNode.make("b", "part")),
            (gr.GraphEdge("a", "b", "next"), gr.GraphEdge("a", "b", "next")),
        )
        match = gr.find_matches(unlink, design)[0]
        cut = gr.apply(unlink, design, match, vocab)
        # exactly the matched instance disappears; the parallel one survives
        assert cut.edges == (gr.GraphEdge("a", "b", "next"),)
        assert cut.node_ids() == {"a", "b"}

    def test_copy_expression_moves_attribute(self):
        vocab = gr.Vocabulary.make({"cell": {"v": TypeDomain("int")}}, ["next"])
        rule = gr.Rule(
            "duplicate",
            lhs=gr.PatternGraph((gr.PatternNode("x", "cell"),)),
            rhs=gr.RhsGraph(
                (gr.RhsNode.make("x", "cell"),
                 gr.RhsNode.make("y", "cell", {"v": gr.CopyAttr("x", "v")})),
                (gr.PatternEdge("x", "y", "next"),),
            ),
            anchors=(("x", "x"),),
        )
        design = gr.Design((gr.GraphNode.make("a", "cell", {"v": 41}),))
        match = gr.find_matches(rule, design)[0]
        grown = gr.apply(rule, design, match, vocab)
        new_node = next(n for n in grown.nodes if n.id != "a")
        assert new_node.get("v") == 41

    def test_anchored_node_without_updates_is_the_parents_object(self, gearbox):
        rule = gearbox.rule("add_gear_pair")
        design = gr.replay(gearbox, gr.Derivation((gr.DerivationStep(
            "add_gear_pair", gr.find_matches(rule, gearbox.axiom)[0]),)))
        match = gr.find_matches(rule, design)[0]
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
        return design, gr.apply(rule, design, gr.find_matches(rule, design)[0])

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

    def test_relabelled_anchor_gives_a_new_node(self):
        rule = gr.Rule("relabel", lhs=gr.PatternGraph((gr.PatternNode("x", "cell"),)),
                       rhs=gr.RhsGraph((gr.RhsNode.make("x", "other"),)),
                       anchors=(("x", "x"),))
        design = gr.Design((gr.GraphNode.make("a", "cell", {"v": 1}),))
        child = gr.apply(rule, design, gr.find_matches(rule, design)[0])
        assert child.node("a") == gr.GraphNode.make("a", "other", {"v": 1})


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
            for form in gr.generate(grammar, 6, 1000).canonical_forms():
                digest.update(form)
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
        for design in (star(6), gear_pairs(3)):
            assert gr.canonical_form(design) == oracles.canonical_form(design)


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
        ("a_to_b", (_A, _B), (gr.PatternEdge("x", "y", "p"),)),
        ("two_a", (_A, gr.PatternNode("y", "a")), ()),
        ("double_a_to_a", (_A, gr.PatternNode("y", "a")),
         (gr.PatternEdge("x", "y", "p"), gr.PatternEdge("x", "y", "p"))),
        ("loop", (_B,), (gr.PatternEdge("y", "y", "q"),)),
        ("path", (_A, _B, gr.PatternNode("z", "a")),
         (gr.PatternEdge("x", "y", "p"), gr.PatternEdge("y", "z", "q"),
          gr.PatternEdge("x", "y", "q"))),
    ]
]


class TestMatchIndexAgainstOracle:
    """``find_matches`` reads the per-design label and edge indices; the
    oracle scans every node and groups the edges on each call."""

    @pytest.mark.parametrize("name", ["shaft", "gearbox"])
    def test_every_design_up_to_depth_four(self, request, name):
        grammar = request.getfixturevalue(name)
        designs = [g.design for g in gr.generate(grammar, 4, 10_000).designs]
        assert len(designs) > 50
        for design in designs:
            for rule in grammar.rules:
                assert gr.find_matches(rule, design) == oracles.find_matches(rule, design)

    @settings(max_examples=300, deadline=None)
    @given(multigraphs())
    def test_random_designs(self, design):
        for rule in MATCH_RULES:
            assert gr.find_matches(rule, design) == oracles.find_matches(rule, design)


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
        forms = gr.generate(shaft, 3, 10_000).canonical_forms()
        assert len(forms) == len(set(forms))

    def test_generation_is_deterministic(self, gearbox):
        first = gr.generate(gearbox, 2, 200)
        second = gr.generate(gearbox, 2, 200)
        assert first.canonical_forms() == second.canonical_forms()
        assert [g.design for g in first.designs] == [g.design for g in second.designs]

    def test_matches_brute_force_enumeration_at_depth_two(self, shaft):
        expected = enumerate_designs(shaft, 2)
        got = gr.generate(shaft, 2, 10_000)
        assert len(got) == len(expected)
        for entry in got.designs:
            assert any(brute_force_isomorphic(entry.design, d) for d in expected)


class TestGenerateAgainstFullCheck:
    """``generate`` checks only touched nodes and skips exact repeats;
    the oracle checks every child in full and skips nothing."""

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
    ], ids=["copy_shape_to_diameter", "end_to_section", "swap_cell"])
    def test_vocabulary_violation_message_equals_the_oracle(self, shaft, name, message):
        if name == "swap_cell":
            grammar = self.swap_cell_grammar()
        else:
            grammar = self.shaft_with(shaft, name)
        for run in (gr.generate, oracles.generate_full_check):
            with pytest.raises(gr.VocabularyError) as caught:
                run(grammar, 4, 1000)
            assert str(caught.value) == message, run

    @pytest.mark.parametrize("name, checks, forms, oracle_forms", [
        ("shaft", 0, 401, 1082),
        ("gearbox", 0, 469, 549),
    ])
    def test_work_counters_are_pinned(self, request, monkeypatch, name, checks, forms,
                                      oracle_forms):
        # Without the axiom check (done by Grammar), the oracle checks and
        # certifies every child; generate checks none of these valid ones
        # in full and certifies no exact repeat.
        grammar = request.getfixturevalue(name)
        calls = {"require_valid": 0, "canonical_form": 0}
        require_valid, canonical_form = gr.Vocabulary.require_valid, gr.canonical_form

        def counted_require_valid(self, design, context):
            calls["require_valid"] += 1
            return require_valid(self, design, context)

        def counted_canonical_form(design):
            calls["canonical_form"] += 1
            return canonical_form(design)

        monkeypatch.setattr(gr.Vocabulary, "require_valid", counted_require_valid)
        monkeypatch.setattr(gr, "canonical_form", counted_canonical_form)
        gr.generate(grammar, 5, 1000)
        assert calls == {"require_valid": checks, "canonical_form": forms}
        calls.update(require_valid=0, canonical_form=0)
        oracles.generate_full_check(grammar, 5, 1000)
        assert calls == {"require_valid": oracle_forms - 1, "canonical_form": oracle_forms}


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
            "$.rules[0].lhs.nodes[1].where[0].value: op 'in' needs an array 'value'"
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
        assert gr.generate(gr.parse_grammar(data), 3, 100).canonical_forms() == \
            gr.generate(shaft, 3, 100).canonical_forms()

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
        assert str(caught.value) == "$.rules[0].anchors.s: anchor target must be a string"

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
