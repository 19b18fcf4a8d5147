"""Seeded input generators for the benchmark workloads.

Every generator draws from a ``random.Random`` built from the run's
seed, so one seed always gives the same inputs.  Sizes are drawn by
stratified sampling (one draw per equal-width stratum, then shuffled):
each instance depends on the seed, but the total work of a workload
barely does, which keeps run-to-run spread small.
"""

from __future__ import annotations

import copy
import random

FUNCTION_LABELS = (
    "import human energy", "convert human energy", "transmit torque",
    "change gear ratio", "rotate spool", "wind line", "guide line",
    "import line", "store energy", "regulate release", "transmit rotation",
    "display time", "secure fruit", "rotate fruit", "peel skin",
    "position blade", "swing panel", "latch panel", "seal opening",
    "import wire", "tension wire", "guide wire", "count turns",
    "brake rotation", "cut wire", "export coil", "sense position",
    "convert electrical energy", "cool housing", "filter air",
)

FLOW_LABELS = (
    "human energy", "torque", "rotation", "line", "wound line", "wire",
    "tension setting", "spring energy", "stored energy", "beat", "fruit",
    "skin", "blade force", "close force", "panel motion", "signal",
    "electrical energy", "heat", "air", "count",
)

# Unknown-variable pool for design instances: name -> kind.  Integer
# variables get integer values, categorical ones strings, so a value
# never changes type between two designs of one session.
_POOL_NOUNS = ("motor", "housing", "spool", "gear", "blade", "frame", "lamp",
               "sensor", "spring", "handle")
_POOL_PROPS = (("power_w", "int"), ("mass_g", "int"), ("material", "str"),
               ("finish", "str"), ("count", "int"))
_CATEGORIES = ("steel", "aluminium", "abs", "wood", "brass", "nylon")


def stratified(rng: random.Random, lo: int, hi: int, count: int) -> list[int]:
    """``count`` integers in ``[lo, hi]``, one per equal-width stratum, in
    seeded order."""
    span = hi - lo + 1
    values = [lo + int(span * (i + rng.random()) / count) for i in range(count)]
    rng.shuffle(values)
    return values


def spread_evenly(values: list) -> list:
    """``values`` reordered so that every stretch of the result samples the
    whole range: position k takes the value whose rank matches the rank
    of k's bit-reversed fraction (van der Corput order)."""
    def reversed_fraction(k: int) -> float:
        out, scale = 0.0, 0.5
        while k:
            out += scale * (k & 1)
            k >>= 1
            scale /= 2
        return out

    ranks = sorted(range(len(values)), key=reversed_fraction)
    out = [None] * len(values)
    for rank, k in enumerate(ranks):
        out[k] = values[rank]
    return out


# ---------------------------------------------------------------------------
# Function structures (.fs.json documents as dicts)

def random_dag(rng: random.Random, n_vertices: int, window: int | None = None) -> dict:
    """A valid structure: vertices in topological order, each fed by one or
    two earlier vertices or inputs and feeding a later vertex or an output,
    so every vertex lies on an input->output path.  ``window`` limits how
    far back a flow may reach (None: anywhere)."""
    n_in, n_out = rng.randint(1, 3), rng.randint(1, 3)
    inputs = [(f"in{k}", rng.choice(FLOW_LABELS)) for k in range(n_in)]
    outputs = [(f"out{k}", rng.choice(FLOW_LABELS)) for k in range(n_out)]
    labels = dict(inputs + outputs)
    vertices = [f"v{i}" for i in range(n_vertices)]
    flows: list[tuple[str, str]] = []
    has_succ = [False] * n_vertices
    fed = set()
    for i in range(n_vertices):
        lo = 0 if window is None else max(0, i - window)
        sources = [t for t, _ in inputs] + vertices[lo:i]
        for src in rng.sample(sources, min(len(sources), 2 if rng.random() < 0.3 else 1)):
            flows.append((src, vertices[i]))
            if src.startswith("v"):
                has_succ[int(src[1:])] = True
            else:
                fed.add(src)
    for i in reversed(range(n_vertices)):
        if has_succ[i]:
            continue
        hi = n_vertices if window is None else min(n_vertices, i + 1 + window)
        if i == n_vertices - 1 or rng.random() < 0.5:
            target = rng.choice(outputs)[0]
        else:
            target = vertices[rng.randrange(i + 1, hi)]
        flows.append((vertices[i], target))
        has_succ[i] = True
        fed.add(target)
    for tid, _ in outputs:
        if tid not in fed:
            flows.append((rng.choice(vertices), tid))
    for tid, _ in inputs:
        if tid not in fed:
            flows.append((tid, rng.choice(vertices)))
    return _structure_doc(rng, vertices, inputs, outputs, labels, flows)


def chain(rng: random.Random, n_vertices: int) -> dict:
    """A long processing line with a side input into a seeded one vertex
    in eight, so some vertices have degree three."""
    inputs = [("in0", rng.choice(FLOW_LABELS)), ("in1", rng.choice(FLOW_LABELS))]
    outputs = [("out0", rng.choice(FLOW_LABELS))]
    labels = dict(inputs + outputs)
    vertices = [f"v{i}" for i in range(n_vertices)]
    flows = [("in0", vertices[0])]
    flows += [(vertices[i], vertices[i + 1]) for i in range(n_vertices - 1)]
    flows.append((vertices[-1], "out0"))
    flows += [("in1", vertices[i])
              for i in sorted(rng.sample(range(n_vertices), max(1, n_vertices // 8)))]
    return _structure_doc(rng, vertices, inputs, outputs, labels, flows)


def _structure_doc(rng, vertices, inputs, outputs, terminal_labels, flows) -> dict:
    def flow_label(src: str, dst: str) -> str:
        return terminal_labels.get(src) or terminal_labels.get(dst) or rng.choice(FLOW_LABELS)

    return {
        "kind": "structure",
        "vertices": [{"id": v, "label": rng.choice(FUNCTION_LABELS)} for v in vertices],
        "terminals": [{"id": t, "kind": "input", "label": lbl} for t, lbl in inputs]
        + [{"id": t, "kind": "output", "label": lbl} for t, lbl in outputs],
        "flows": [{"source": s, "target": t, "label": flow_label(s, t)} for s, t in flows],
    }


# ---------------------------------------------------------------------------
# Case base and design instances

def grow_case_base(rng: random.Random, seed_cases: list[dict], count: int) -> list[dict]:
    """``count`` variants of the seed cases with unique ids: some vertex
    labels replaced and 0-6 extra vertices (each number equally often, in
    seeded order) spliced into vertex-to-vertex flows, which keeps every
    vertex on an input->output path."""
    extras = [k % 7 for k in range(count)]
    rng.shuffle(extras)
    out = []
    for k in range(count):
        case = copy.deepcopy(seed_cases[k % len(seed_cases)])
        case["id"] = f"{case['id']}-{k:04d}"
        problem = case["problem"]
        for vertex in rng.sample(problem["vertices"], rng.randint(0, 2)):
            vertex["label"] = rng.choice(FUNCTION_LABELS)
        vertex_ids = {v["id"] for v in problem["vertices"]}
        for extra in range(extras[k]):
            inner = [f for f in problem["flows"]
                     if f["source"] in vertex_ids and f["target"] in vertex_ids]
            if not inner:
                break
            flow = rng.choice(inner)
            new_id = f"x{extra}"
            problem["vertices"].append({"id": new_id, "label": rng.choice(FUNCTION_LABELS)})
            problem["flows"].append({"source": new_id, "target": flow["target"],
                                     "label": rng.choice(FLOW_LABELS)})
            flow["target"] = new_id
            vertex_ids.add(new_id)
        out.append(case)
    return out


def unknown_pool() -> dict[str, str]:
    return {f"{noun}_{prop}": kind for noun in _POOL_NOUNS for prop, kind in _POOL_PROPS}


def design_instance(rng: random.Random, kb_doc: dict, pool: dict[str, str]) -> dict:
    """2-6 assignments; each is a known variable inside its initial domain,
    a known variable outside it, or a variable the knowledge base lacks."""
    known = {v["name"]: v["domain"] for v in kb_doc["variables"]}
    assignments: dict = {}
    for _ in range(rng.randint(2, 6)):
        roll = rng.random()
        if roll < 0.2:
            name = rng.choice(sorted(pool))
            if name in known or name in assignments:
                continue
            if pool[name] == "int":
                assignments[name] = rng.randint(1, 500)
            else:
                assignments[name] = rng.choice(_CATEGORIES)
            continue
        name = rng.choice(sorted(known))
        if name in assignments:
            continue
        assignments[name] = _value_for(rng, known[name], inside=roll < 0.7)
    if not assignments:
        name = sorted(known)[0]
        assignments[name] = _value_for(rng, known[name], inside=True)
    return {"assignments": assignments, "feasible": True}


def _value_for(rng: random.Random, domain: dict, inside: bool):
    if "interval" in domain:
        lo, hi = domain["interval"]
        if inside:
            return round(rng.uniform(lo, hi), 2)
        return round(hi + rng.uniform(0.5, 10.0), 2)
    values = domain["set"]
    if inside:
        return rng.choice(values)
    return max(values) + rng.randint(1, 5)


# ---------------------------------------------------------------------------
# Truth tables and fixed topologies

def table_doc(n_inputs: int, vectors: list[int], names: list[str]) -> dict:
    """A complete truth table; ``vectors[j]`` holds output j packed by row
    (row r has input i equal to bit n-1-i of r)."""
    rows = []
    for r in range(1 << n_inputs):
        rows.append({
            "in": [(r >> (n_inputs - 1 - i)) & 1 for i in range(n_inputs)],
            "out": [(v >> r) & 1 for v in vectors],
        })
    return {"inputs": ["A", "B", "C"][:n_inputs], "outputs": names, "rows": rows}


def random_topology(rng: random.Random, n_inputs: int, n_slots: int, n_outputs: int) -> dict:
    """Random wiring whose slots all reach an output (the last
    ``n_outputs`` slots); draws are repeated until that holds."""
    names = ["A", "B", "C"][:n_inputs]
    while True:
        slots: list[list[str]] = []
        for j in range(n_slots):
            sources = names + [f"s{k}" for k in range(j)]
            arity = 1 if rng.random() < 0.25 else 2
            slots.append([rng.choice(sources) for _ in range(arity)])
        outputs = [f"s{j}" for j in range(n_slots - n_outputs, n_slots)]
        reached = set(outputs)
        for j in reversed(range(n_slots)):
            if f"s{j}" in reached:
                reached.update(slots[j])
        if all(f"s{j}" in reached for j in range(n_slots)):
            return {
                "inputs": names,
                "slots": [{"arity": len(refs), "from": refs} for refs in slots],
                "outputs": outputs,
            }
