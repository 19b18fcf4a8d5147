"""Generating design variants by graph rewriting.

The bundled shaft grammar has two node labels (section, end), two shapes
(grooved, ungrooved) and five rules: grow the shaft by a section, groove
a section, widen it, stretch it, or declare the shaft finished.  Bounded
breadth-first generation explores the variant space deterministically,
deduplicating isomorphic designs by canonical form.
"""

from pathlib import Path

from designbench import grammar as gr

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

shaft = gr.parse_grammar((FIXTURES / "shaft.grammar.json").read_bytes())

print("=== the grammar ===")
print("rules:", ", ".join(rule.name for rule in shaft.rules))
print("axiom:")
print(gr.design_to_dot(shaft.axiom, "axiom"))

print()
print("=== one rewrite, step by step ===")
rule = shaft.rule("add_section")
matches = list(gr.find_matches(rule, shaft.axiom))
print(f"'{rule.name}' matches the axiom {len(matches)} time(s)")
grown = gr.apply(rule, shaft.axiom, matches[0], shaft.vocabulary)
print("after applying it once:")
print(gr.design_to_dot(grown, "two_sections"))

print()
print("=== bounded generation ===")
for depth in (1, 2, 3):
    result = gr.generate(shaft, depth, 10_000)
    print(f"depth {depth}: {len(result)} distinct designs")

result = gr.generate(shaft, 3, 10_000)
deepest = result.designs[-1]
print()
print("every design carries a replayable derivation, e.g.:")
print("  " + (" -> ".join(s.rule for s in deepest.derivation.steps) or "(axiom)"))
assert gr.replay(shaft, deepest.derivation) == deepest.design

print()
print("=== editing the grammar ===")
no_groove = gr.Grammar(shaft.vocabulary,
                       tuple(r for r in shaft.rules if r.name != "groove_section"),
                       shaft.axiom)
print(f"without groove_section, depth 2 yields "
      f"{len(gr.generate(no_groove, 2, 10_000))} designs "
      f"(was {len(gr.generate(shaft, 2, 10_000))})")

gearbox = gr.parse_grammar((FIXTURES / "gearbox.grammar.json").read_bytes())
print(f"the gearbox grammar (shafts, gears, bearings) gives "
      f"{len(gr.generate(gearbox, 2, 10_000))} designs at depth 2")
