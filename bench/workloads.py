"""The three benchmark workloads.

Each workload turns a seed into a fixed request list (``setup``), runs
one request inside the timed region (``run``), and checks a request's
output against the benchmark's own references (``check``).  A pass
replays the whole list from the same starting state, so every pass of a
run must produce the same output bytes.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from fractions import Fraction
from pathlib import Path

import check
import gen

from designbench import casebase, classify, cli, funcstruct, novelty


def _dump(doc) -> bytes:
    return json.dumps(doc, sort_keys=True).encode("utf-8")


class Workload:
    name = ""
    why = ""

    def __init__(self, root: Path, workdir: Path):
        self.fixtures = root / "fixtures"
        self.workdir = workdir / self.name
        self.requests: list[dict] = []

    def setup(self, seed: int) -> None:
        raise NotImplementedError

    def begin_pass(self) -> None:
        pass

    def run(self, request: dict):
        """Timed region.  Returns (exit code, payload)."""
        raise NotImplementedError

    def output(self, request: dict, payload) -> bytes:
        """The request's output bytes, built outside the timed region."""
        return payload

    def check(self, request: dict, code: int, output: bytes) -> list[str]:
        raise NotImplementedError

    def _write(self, name: str, data: bytes) -> Path:
        path = self.workdir / name
        path.write_bytes(data)
        return path


def _run_cli(argv: list[str]) -> tuple[int, bytes]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    return code, (out.getvalue() + err.getvalue()).encode("utf-8")


# ---------------------------------------------------------------------------


class DesignSession(Workload):
    """Library-API design loop: analyse, retrieve, adapt, score, retain."""

    name = "design-session"
    why = ("54 requests a pass: 36 new 4-30-vertex problems, 6 repeats, 12 metrics-only "
           "800-2000-vertex chains and DAGs; retrieve interleaved with retain/absorb that "
           "grow base and KB")

    SEED_CASES = 32
    # The session repeats this pattern six times: 36 new problems, 6
    # repeats, 12 large structures.  New problems get stratified sizes
    # spread evenly over the session.  Large ones come three to a level
    # (LARGE: size and shape, minus a seeded jitter of up to 10
    # vertices), so the tail request (eleventh slowest) is always the
    # middle one of the three smallest, alike in cost.  The seed changes
    # every structure, design and repeat choice, but not the session's
    # shape, which sets the median and tail latency.
    PATTERN = ("new", "new", "large", "new", "repeat", "new", "large", "new", "new")
    ROUNDS = 6
    LARGE = ((800, "chain"), (1200, "dag"), (1600, "chain"), (2000, "chain"))
    SPEC = casebase.SimilaritySpec()
    REQUIREMENTS = (
        casebase.Requirement("has crank", casebase.has_component("crank")),
        casebase.Requirement("three parts", casebase.min_components(3)),
        casebase.Requirement("winds line", casebase.serves_function("wind line")),
    )

    def setup(self, seed: int) -> None:
        rng = random.Random(seed)
        self.workdir.mkdir(parents=True, exist_ok=True)
        seed_cases = json.loads((self.fixtures / "winder_cases.cases.json").read_bytes())
        base_doc = gen.grow_case_base(rng, seed_cases, self.SEED_CASES)
        kb_doc = {"variables": []}
        for name in ("helicopter.kb.json", "signal_transmission.kb.json"):
            kb_doc["variables"] += json.loads((self.fixtures / name).read_bytes())["variables"]
        pool = gen.unknown_pool()

        kinds = list(self.PATTERN) * self.ROUNDS
        sizes = gen.spread_evenly(sorted(gen.stratified(rng, 4, 30, kinds.count("new"))))
        large = [(size - rng.randint(0, 10), shape) for size, shape in self.LARGE
                 for _ in range(kinds.count("large") // len(self.LARGE))]
        rng.shuffle(large)
        requests, queries = [], []
        for i, kind in enumerate(kinds):
            if kind == "repeat":
                request = dict(rng.choice(queries), kind="repeat")
            elif kind == "new":
                fs_doc = gen.random_dag(rng, sizes.pop(0))
                design = gen.design_instance(rng, kb_doc, pool)
                request = {"kind": "new", "fs_doc": fs_doc,
                           "fs": self._write(f"q{i}.fs.json", _dump(fs_doc)),
                           "design_path": self._write(f"q{i}.design.json", _dump(design))}
                queries.append(request)
            else:
                size, shape = large.pop()
                fs_doc = (gen.chain(rng, size) if shape == "chain"
                          else gen.random_dag(rng, size, window=8))
                request = {"kind": "large", "fs_doc": fs_doc,
                           "fs": self._write(f"q{i}.fs.json", _dump(fs_doc))}
            requests.append(request)
        for i, request in enumerate(requests):
            request["id"] = i
            request["fs_bytes"] = request["fs"].read_bytes()
            if request["kind"] != "large":
                request["design_bytes"] = request["design_path"].read_bytes()
                request["assignments"] = json.loads(request["design_bytes"])["assignments"]
        self.requests = requests

        self.kb_doc = kb_doc
        self.base0 = casebase.parse_case_base(
            self._write("base.cases.json", _dump(base_doc)).read_bytes())
        self.kb0 = novelty.parse_knowledge_base(
            self._write("seed.kb.json", _dump(kb_doc)).read_bytes())
        self.begin_pass()
        self.run(requests[0])
        self.begin_pass()

    def begin_pass(self) -> None:
        self.base, self.kb = self.base0, self.kb0
        self.mirror = check.KnowledgeMirror(self.kb_doc)
        self.case_ids = [c.id for c in self.base0.cases]

    def run(self, request: dict):
        problem = funcstruct.parse_structure(request["fs_bytes"])
        report = funcstruct.validate(problem)
        if not report.ok:
            return 2, {"violations": [v.message for v in report.violations]}
        pi = funcstruct.interdependency_index(problem)
        if request["kind"] == "large":
            return 0, {"pi": pi, "vertices": len(problem.vertices)}
        ranking = casebase.retrieve(self.base, self.SPEC, problem, 3)
        best = self.base.case(ranking.ranked[0][0])
        draft = casebase.reuse(best, problem)
        revised = casebase.revise(draft, self.REQUIREMENTS)
        design = novelty.parse_design_instance(request["design_bytes"])
        scores = novelty.assess(self.kb, design)
        methods = classify.recommend(classify.ProblemProfile(True, pi, scores.category))
        case_id = f"query-{request['id']:03d}"
        self.base = casebase.retain(self.base, casebase.Case(
            case_id, problem, casebase.Solution(draft.description, draft.components())))
        self.kb = novelty.absorb(self.kb, design)
        return (0 if methods.applicable() else 1), {
            "pi": pi, "ranking": ranking.ranked, "draft": draft, "revised": revised,
            "scores": scores, "methods": methods, "retained": case_id,
            "base_size": len(self.base), "kb_size": len(self.kb.variables),
        }

    def output(self, request: dict, payload) -> bytes:
        if "ranking" not in payload:
            return _dump({k: str(v) for k, v in payload.items()})
        scores = payload["scores"]
        return _dump({
            "pi": str(payload["pi"]),
            "ranking": [[cid, str(score)] for cid, score in payload["ranking"]],
            "mappings": [[m.component.name, m.subfunction, str(m.affinity)]
                         for m in payload["draft"].mappings],
            "gaps": list(payload["draft"].gaps),
            "open_tasks": list(payload["revised"].open_tasks),
            "innovation": str(scores.innovation), "creativity": str(scores.creativity),
            "category": scores.category.value, "unexpected": list(scores.unexpected),
            "new": list(scores.new),
            "applicable": [m.value for m in payload["methods"].applicable()],
            "retained": payload["retained"], "base_size": payload["base_size"],
            "kb_size": payload["kb_size"],
        })

    def check(self, request: dict, code: int, output: bytes) -> list[str]:
        doc = json.loads(output)
        problems = []
        if Fraction(doc["pi"]) != check.pi_of(request["fs_doc"]):
            problems.append(f"PI {doc['pi']} != {check.pi_of(request['fs_doc'])}")
        if request["kind"] == "large":
            if code != 0 or int(doc["vertices"]) != len(request["fs_doc"]["vertices"]):
                problems.append(f"metrics request: exit {code}, {doc}")
            return problems

        ranking = doc["ranking"]
        if len(ranking) != min(3, len(self.case_ids)):
            problems.append(f"{len(ranking)} cases retrieved")
        keys = [(-Fraction(score), cid) for cid, score in ranking]
        if keys != sorted(keys) or any(not 0 <= -k[0] <= 1 for k in keys):
            problems.append(f"ranking not ordered or out of [0, 1]: {ranking}")
        if any(cid not in self.case_ids for cid, _ in ranking):
            problems.append(f"ranking names unknown cases: {ranking}")
        if request["kind"] == "repeat" and Fraction(ranking[0][1]) != 1:
            problems.append(f"a repeated problem must find its retained copy at 1: {ranking}")
        labels = {v["label"] for v in request["fs_doc"]["vertices"]}
        if any(sub is not None and sub not in labels for _, sub, _ in doc["mappings"]):
            problems.append("reuse mapped a component onto an unknown subfunction")

        expected = self.mirror.assess(request["assignments"])
        for key, value in expected.items():
            if doc[key] != value:
                problems.append(f"{key}: {doc[key]!r} != {value!r}")
        applicable = check.APPLICABLE[expected["category"]]
        if doc["applicable"] != applicable or code != (0 if applicable else 1):
            problems.append(f"methods {doc['applicable']} (exit {code}), expected {applicable}")

        self.mirror.absorb(request["assignments"])
        self.case_ids.append(doc["retained"])
        if doc["base_size"] != len(self.case_ids) or doc["kb_size"] != len(self.mirror.domains):
            problems.append("retain or absorb lost or duplicated an entry")
        return problems


# ---------------------------------------------------------------------------


class GrammarGenerate(Workload):
    """``designbench grammar-generate`` on the bundled grammars."""

    name = "grammar-generate"
    why = ("38 CLI requests a pass over gearbox and shaft at depth 3-5, seeded order and "
           "depth-3 max-designs; canonical form (gearbox), rewriting (shaft) and JSON emit")

    # (grammar, depth, requests per pass), cheapest class first.  The
    # counts put the median request inside the gearbox depth-3 class and
    # the tail one (eleventh slowest) inside the gearbox depth-4 class,
    # never on a boundary between two classes.  Only depth-3 requests get
    # a seeded max-designs (20-1000); deeper ones keep 1000, which none of
    # them reaches, so the classes that set the tail do the same work for
    # every seed.  Depth 6 (0.7-4.2 s a request) is left out so that a
    # pass stays near 3 s and each request is replayed about ten times.
    MIX = (("shaft", 3, 12), ("gearbox", 3, 10), ("shaft", 4, 3), ("gearbox", 4, 10),
           ("shaft", 5, 2), ("gearbox", 5, 1))

    def setup(self, seed: int) -> None:
        rng = random.Random(seed)
        self.workdir.mkdir(parents=True, exist_ok=True)
        paths, self.vocab = {}, {}
        for grammar in ("gearbox", "shaft"):
            data = (self.fixtures / f"{grammar}.grammar.json").read_bytes()
            paths[grammar] = self._write(f"{grammar}.grammar.json", data)
            self.vocab[grammar] = json.loads(data)["vocabulary"]
        requests = []
        for grammar, depth, count in self.MIX:
            caps = gen.stratified(rng, 20, 1000, count) if depth == 3 else [1000] * count
            for cap in caps:
                requests.append({"grammar": grammar, "depth": depth, "max_designs": cap,
                                 "argv": ["grammar-generate", str(paths[grammar]),
                                          "--max-depth", str(depth),
                                          "--max-designs", str(cap), "--format", "json"]})
        rng.shuffle(requests)
        self.requests = requests
        _run_cli(["grammar-generate", str(paths["shaft"]), "--max-depth", "2",
                  "--format", "json"])

    def run(self, request: dict):
        return _run_cli(request["argv"])

    def check(self, request: dict, code: int, output: bytes) -> list[str]:
        if code != 0:
            return [f"exit {code}: {output[:200]!r}"]
        doc = json.loads(output)
        designs = doc["designs"]
        problems = []
        if doc["count"] != len(designs) or not 1 <= len(designs) <= request["max_designs"]:
            problems.append(f"count {doc['count']} for {len(designs)} designs, "
                            f"max {request['max_designs']}")
        vocab = self.vocab[request["grammar"]]
        for entry in designs:
            if not entry["depth"] == len(entry["derivation"]) <= request["depth"]:
                problems.append(f"depth {entry['depth']} with {len(entry['derivation'])} steps")
            problems += _vocabulary_problems(vocab, entry["design"])
        duplicates = check.duplicate_designs([entry["design"] for entry in designs])
        if duplicates:
            problems.append(f"isomorphic designs at indices {duplicates[:5]}")
        return problems[:5]


def _vocabulary_problems(vocab: dict, design: dict) -> list[str]:
    problems = []
    ids = {n["id"] for n in design["nodes"]}
    for node in design["nodes"]:
        schema = vocab["node_labels"].get(node["label"])
        if schema is None or set(node["attrs"]) != set(schema) or any(
                value not in schema[attr]["set"] for attr, value in node["attrs"].items()):
            problems.append(f"node {node} breaks the vocabulary")
    for edge in design["edges"]:
        if edge["label"] not in vocab["edge_labels"] or not {edge["source"], edge["target"]} <= ids:
            problems.append(f"edge {edge} breaks the vocabulary")
    return problems


# ---------------------------------------------------------------------------


class SynthSearch(Workload):
    """``designbench synth`` by topology search and on fixed topologies."""

    name = "synth-search"
    why = ("197 CLI requests a pass: subtractor at 4 gates (UNSAT) and on its topology, 185 "
           "one-output and 4 two-output 2-3-gate 3-input tables by minimum size, 6 random topologies")

    # One-output tables per pass by fewest gates (5: more than 4) out of
    # the 256 three-input functions: every function of the cheap classes
    # and of the UNSAT class, so that the median and tail requests come
    # from the same population for every seed, and a seeded 2 of the 73
    # 4-gate ones.  Searches for 4-gate functions take from 16 to 140 ms
    # each, so more of them made the pass time follow the seed.
    SINGLES = {1: 16, 2: 43, 3: 112, 4: 2, 5: 12}
    # Two-output tables per pass by fewest gates for the pair.  Pairs
    # needing 4 gates are left out: their search time differs eightfold
    # between tables, so two of them made the pass time follow the seed.
    # The subtractor is the costly two-output search.
    PAIRS = {2: 2, 3: 2}
    MAX_GATES = 4
    TOPOLOGIES = 6

    def setup(self, seed: int) -> None:
        rng = random.Random(seed)
        self.workdir.mkdir(parents=True, exist_ok=True)
        single, pair = check.min_gate_tables(3, self.MAX_GATES)
        inputs = {sum(_bits(r)[i] << r for r in range(8)) for i in range(3)}
        requests = []

        def add(table: dict, argv: list[str], expect: int, gates: int | None = None,
                topology: dict | None = None):
            path = self._write(f"r{len(requests)}.req.json", _dump(table))
            requests.append({"table": table, "argv": ["synth", str(path), *argv,
                                                      "--format", "json"],
                             "expect": expect, "gates": gates, "topology": topology})

        subtractor = json.loads((self.fixtures / "subtractor.req.json").read_bytes())
        vectors = [sum(row["out"][j] << _row(row["in"]) for row in subtractor["rows"])
                   for j in range(2)]
        sub_min = pair.get((min(vectors), max(vectors)))
        add(subtractor, ["--max-gates", str(self.MAX_GATES)], 1 if sub_min is None else 0, sub_min)
        topo = json.loads((self.fixtures / "subtractor.topo.json").read_bytes())
        topo_path = self._write("subtractor.topo.json", _dump(topo))
        add(subtractor, ["--topology", str(topo_path)],
            0 if check.assignment_exists(topo, subtractor) else 1, topology=topo)

        by_size: dict[int, list[int]] = {}
        for f in range(256):
            by_size.setdefault(single.get(f, 5), []).append(f)
        for size, count in self.SINGLES.items():
            for f in rng.sample(by_size[size], count):
                self._add_search(add, gen.table_doc(3, [f], ["Y"]), size)
        for size, count in self.PAIRS.items():
            found = 0
            while found < count:
                f, g = rng.randrange(256), rng.randrange(256)
                if f == g or f in inputs or g in inputs:
                    continue
                if pair.get((min(f, g), max(f, g)), 5) != size:
                    continue
                self._add_search(add, gen.table_doc(3, [f, g], ["X", "Y"]), size)
                found += 1
        for k in range(self.TOPOLOGIES):
            n_out = 1 + k % 2
            topology = gen.random_topology(rng, 3, rng.randint(2 + n_out, 5), n_out)
            if k < self.TOPOLOGIES // 2:
                gates = [rng.choice(("IDENTITY", "NOT") if s["arity"] == 1 else ("AND", "OR", "XOR"))
                         for s in topology["slots"]]
                circuit = dict(topology, slots=[dict(s, gate=g)
                                                for s, g in zip(topology["slots"], gates)])
                vecs = [sum(check.evaluate_circuit(circuit, _bits(r))[j] << r for r in range(8))
                        for j in range(n_out)]
            else:
                vecs = [rng.randrange(256) for _ in range(n_out)]
            table = gen.table_doc(3, vecs, ["X", "Y"][:n_out])
            path = self._write(f"t{k}.topo.json", _dump(topology))
            add(table, ["--topology", str(path)],
                0 if check.assignment_exists(topology, table) else 1, topology=topology)
        rng.shuffle(requests)
        self.requests = requests
        warm = self._write("warm.req.json", (self.fixtures / "and_gate.req.json").read_bytes())
        _run_cli(["synth", str(warm), "--max-gates", "2", "--format", "json"])

    def _add_search(self, add, table: dict, size: int) -> None:
        """A topology search at MAX_GATES for a table needing ``size`` gates
        (MAX_GATES + 1: more): SAT with exactly that many gates, or UNSAT."""
        if size <= self.MAX_GATES:
            add(table, ["--max-gates", str(self.MAX_GATES)], 0, size)
        else:
            add(table, ["--max-gates", str(self.MAX_GATES)], 1)

    def run(self, request: dict):
        return _run_cli(request["argv"])

    def check(self, request: dict, code: int, output: bytes) -> list[str]:
        if code != request["expect"]:
            return [f"exit {code}, expected {request['expect']}: {output[:200]!r}"]
        doc = json.loads(output)
        if code == 1:
            return [] if doc == {"result": "UNSAT"} else [f"UNSAT output {doc}"]
        circuit = doc["circuit"]
        problems = check.circuit_problems(circuit, request["table"])
        if request["gates"] is not None and len(circuit["slots"]) != request["gates"]:
            problems.append(f"{len(circuit['slots'])} gates, expected {request['gates']}")
        if request["topology"] is not None:
            wiring = [s["from"] for s in circuit["slots"]], circuit["outputs"]
            given = [s["from"] for s in request["topology"]["slots"]], request["topology"]["outputs"]
            if wiring != given:
                problems.append("circuit does not use the given topology")
        if Fraction(doc["pi"]["fraction"]) != check.circuit_pi(circuit):
            problems.append(f"PI {doc['pi']['fraction']} != {check.circuit_pi(circuit)}")
        return problems


def _row(bits: list[int]) -> int:
    return sum(b << (len(bits) - 1 - i) for i, b in enumerate(bits))


def _bits(row: int) -> list[int]:
    return [(row >> (2 - i)) & 1 for i in range(3)]


WORKLOADS = {w.name: w for w in (DesignSession, GrammarGenerate, SynthSearch)}
