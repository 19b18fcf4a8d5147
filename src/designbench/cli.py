"""Command-line front end: files in, reports out.

Exit codes: 0 on success, 1 when the run succeeded but the domain answer
is negative (UNSAT, no applicable method), 2 on input errors (unreadable
files, schema violations, bad flags).  JSON output is deterministic:
identical inputs give byte-identical reports, written by
:func:`jsonio.dumps`.

The argument parser is built on the first ``run`` and reused.
``grammar-generate --format json`` builds no document at all: it writes
the text straight from the designs.  A child design holds its parent's
untouched nodes and edges as the very same objects, and every node and
edge sits at one indentation, so each object is formatted once per
request and its text reused wherever it appears.  The texts are keyed by
object identity, not equality: nodes that differ only in an attribute
valued ``1``, ``1.0`` or ``True`` are equal but write three different
texts.

When the reader of standard output goes away early (``designbench ... |
head -1``), ``main`` exits 1 without a traceback: it catches the
``BrokenPipeError`` and points standard output at ``os.devnull``, so
that the interpreter's flush at exit cannot raise it again (the recipe
in Python's ``signal`` documentation).  ``run`` leaves the error to its
caller.  ``main`` also writes a character that standard output's
encoding cannot hold (a non-ASCII rule name or case id under
``PYTHONIOENCODING=ascii``) as a backslash escape; JSON is ASCII already.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Optional, Sequence

from . import casebase, classify, funcstruct, grammar, novelty, synth
from .jsonio import SchemaError, append_json, dumps


class _InputError(Exception):
    pass


def _read(path: str) -> bytes:
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise _InputError(f"{path}: cannot read file ({exc.strerror or exc})") from exc


def _load(path: str, parser):
    try:
        return parser(_read(path))
    except UnicodeDecodeError as exc:
        raise _InputError(f"{path}: not valid UTF-8 (byte {exc.start})") from exc
    except RecursionError as exc:
        raise _InputError(f"{path}: nested too deeply") from exc
    except SchemaError as exc:
        raise _InputError(f"{path}: {exc}") from exc


def _json_list(texts: list[str], newline: str) -> str:
    if not texts:
        return "[]"
    inner = newline + "  "
    return "[" + inner + ("," + inner).join(texts) + newline + "]"


def _node_json(node: grammar.GraphNode) -> str:
    pieces = ['{\n            "attrs": ']
    append_json(dict(node.attrs), "", "\n            ", pieces)
    pieces.append(f',\n            "id": {encode_basestring_ascii(node.id)}'
                  f',\n            "label": {encode_basestring_ascii(node.label)}\n          }}')
    return "".join(pieces)


def _edge_json(edge: grammar.GraphEdge) -> str:
    return (f'{{\n            "label": {encode_basestring_ascii(edge.label)}'
            f',\n            "source": {encode_basestring_ascii(edge.source)}'
            f',\n            "target": {encode_basestring_ascii(edge.target)}\n          }}')


def _generation_json(result: grammar.GenerationResult) -> str:
    """``dumps`` of ``{"count": ..., "designs": [{"depth": ...,
    "derivation": [rule names], "design": design_to_dict(...)}, ...]}``."""
    texts: dict[int, str] = {}  # by id(); ``result`` keeps each object alive

    def entries(items: tuple, write) -> str:
        return _json_list([texts.get(id(item)) or texts.setdefault(id(item), write(item))
                           for item in items], "\n        ")

    designs = [
        f'{{\n      "depth": {int.__repr__(g.depth)},\n      "derivation": '
        + _json_list([encode_basestring_ascii(s.rule) for s in g.derivation.steps], "\n      ")
        + ',\n      "design": {\n        "edges": ' + entries(g.design.edges, _edge_json)
        + ',\n        "nodes": ' + entries(g.design.nodes, _node_json) + "\n      }\n    }"
        for g in result.designs
    ]
    return (f'{{\n  "count": {len(result)},\n  "designs": '
            + _json_list(designs, "\n  ") + "\n}")


def _fraction_doc(value: Fraction) -> dict:
    return {"fraction": str(value), "decimal": float(value)}


# ---------------------------------------------------------------------------
# Subcommands

def _require_valid(path: str, report: funcstruct.ValidationReport) -> None:
    if not report.ok:
        messages = "; ".join(v.message for v in report.violations)
        raise _InputError(f"{path}: invalid structure: {messages}")


def _cmd_metrics(args) -> int:
    problem = _load(args.structure, funcstruct.parse_structure)
    if isinstance(problem, funcstruct.FunctionStructure):
        _require_valid(args.structure, funcstruct.validate(problem))
    else:
        _require_valid(args.structure, funcstruct.validate_blackbox(problem))
    pi = funcstruct.interdependency_index(problem)
    decomposable = funcstruct.is_decomposable(problem)
    busy = int(pi * len(problem.vertices)) if decomposable else 0
    if args.format == "json":
        doc = {
            "kind": "structure" if decomposable else "blackbox",
            "decomposable": decomposable,
            "pi": _fraction_doc(pi),
        }
        if decomposable:
            doc["vertices"] = len(problem.vertices)
            doc["busy_vertices"] = busy
        print(dumps(doc))
        return 0
    print(f"decomposable = {'yes' if decomposable else 'no'}")
    if decomposable:
        print(f"vertices = {len(problem.vertices)} ({busy} with degree > 2)")
    print(f"PI = {pi}")
    print(f"PI (decimal) = {float(pi):.6f}")
    return 0


def _cmd_novelty(args) -> int:
    kb = _load(args.kb, novelty.parse_knowledge_base)
    design = _load(args.design, novelty.parse_design_instance)
    if design.feasible is None:
        raise _InputError(f"{args.design}: missing 'feasible' verdict")
    report = novelty.assess(kb, design)
    if args.format == "json":
        print(dumps({
            "innovation": _fraction_doc(report.innovation),
            "creativity": _fraction_doc(report.creativity),
            "category": report.category.value,
            "unexpected": list(report.unexpected),
            "new": list(report.new),
        }))
        return 0
    print(f"innovation I = {report.innovation}")
    print(f"creativity C = {report.creativity}")
    print(f"category = {report.category.value}")
    if report.unexpected:
        print("unexpected values: " + ", ".join(report.unexpected))
    if report.new:
        print("new variables: " + ", ".join(report.new))
    return 0


def _cmd_grammar_generate(args) -> int:
    gram = _load(args.grammar, grammar.parse_grammar)
    try:
        result = grammar.generate(gram, args.max_depth, args.max_designs)
    except ValueError as exc:
        raise _InputError(str(exc)) from exc
    except RecursionError as exc:
        raise _InputError(f"{args.grammar}: too large to generate from "
                          "(recursion limit reached)") from exc
    if args.format == "json":
        print(_generation_json(result))
        return 0
    print(f"{len(result)} designs (depth <= {args.max_depth})")
    for i, g in enumerate(result.designs):
        steps = " -> ".join(s.rule for s in g.derivation.steps) or "(axiom)"
        print(f"-- design {i}: {steps}")
        print(grammar.design_to_dot(g.design, f"design_{i}"))
    return 0


def _cmd_cbr_retrieve(args) -> int:
    base = _load(args.base, casebase.parse_case_base)
    query = _load(args.query, funcstruct.parse_structure)
    if not isinstance(query, funcstruct.FunctionStructure):
        raise _InputError(f"{args.query}: the query must be a function structure")
    _require_valid(args.query, funcstruct.validate(query))
    spec = casebase.SimilaritySpec()
    if args.simspec:
        spec = _load(args.simspec, casebase.parse_similarity_spec)
    try:
        result = casebase.retrieve(base, spec, query, args.k)
    except (casebase.EmptyCaseBaseError, ValueError) as exc:
        raise _InputError(str(exc)) from exc
    if args.format == "json":
        print(dumps({
            "ranking": [
                {"case": cid, "score": _fraction_doc(score)}
                for cid, score in result.ranked
            ]
        }))
        return 0
    for rank, (cid, score) in enumerate(result.ranked, start=1):
        print(f"{rank}. {cid}  score = {score} ({float(score):.4f})")
    return 0


def _cmd_synth(args) -> int:
    requirement = _load(args.requirement, synth.parse_requirement)
    try:
        if args.topology:
            topology = _load(args.topology, synth.parse_topology)
            circuit = synth.synthesize_assignment(topology, requirement)
        else:
            circuit = synth.synthesize_topology(requirement, args.max_gates)
    except ValueError as exc:  # the topology's mismatch with the table, or a bad --max-gates
        raise _InputError(f"{args.topology}: {exc}" if args.topology else str(exc)) from exc
    except RecursionError as exc:
        raise _InputError(f"{args.topology or args.requirement}: too large to synthesise "
                          "(recursion limit reached)") from exc
    if circuit is None:
        if args.format == "json":
            print(dumps({"result": "UNSAT"}))
        else:
            print("UNSAT: no circuit within the given bounds")
        return 1
    structure = synth.to_function_structure(circuit, requirement.outputs)
    if args.fs_out:
        try:
            Path(args.fs_out).write_bytes(funcstruct.serialize_structure(structure))
        except OSError as exc:
            raise _InputError(
                f"{args.fs_out}: cannot write file ({exc.strerror or exc})"
            ) from exc
    if args.format == "json":
        print(dumps({
            "result": "SAT",
            "circuit": synth.circuit_to_dict(circuit),
            "pi": _fraction_doc(funcstruct.interdependency_index(structure)),
        }))
        return 0
    print(f"SAT: {len(circuit.gates)} gates")
    for j, (slot, gate) in enumerate(zip(circuit.topology.slots, circuit.gates)):
        print(f"  s{j} = {gate.name}({', '.join(slot.refs)})")
    print("outputs: " + ", ".join(
        f"{name} = {ref}" for name, ref in zip(requirement.outputs, circuit.topology.outputs)
    ))
    print(f"PI = {funcstruct.interdependency_index(structure)}")
    return 0


def _cmd_classify(args) -> int:
    profile = _load(args.profile, classify.parse_profile)
    matrix = None
    if args.matrix:
        matrix = _load(args.matrix, classify.parse_matrix)
    report = classify.recommend(profile, matrix)
    if args.format == "json":
        print(dumps(classify.report_to_dict(report)))
    else:
        for entry in report.entries:
            print(f"{entry.method.value}: {entry.verdict.value}")
            print(f"  {entry.rationale}")
        if not report.applicable():
            print("no applicable method")
    return 0 if report.applicable() else 1


# ---------------------------------------------------------------------------

@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser of the process: ``parse_args`` leaves it unchanged
    and gives every call a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="designbench",
        description="Model design problems, score them, and run the synthesis engines.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("metrics", help="interdependency index of a .fs.json problem")
    p.add_argument("structure")
    add_format(p)
    p.set_defaults(run=_cmd_metrics)

    p = sub.add_parser("novelty", help="innovation/creativity of a design vs a KB")
    p.add_argument("kb")
    p.add_argument("design")
    add_format(p)
    p.set_defaults(run=_cmd_novelty)

    p = sub.add_parser("grammar-generate", help="bounded generation from a .grammar.json")
    p.add_argument("grammar")
    p.add_argument("--max-depth", type=int, default=3)
    p.add_argument("--max-designs", type=int, default=100)
    add_format(p)
    p.set_defaults(run=_cmd_grammar_generate)

    p = sub.add_parser("cbr-retrieve", help="rank a case base against a query structure")
    p.add_argument("base")
    p.add_argument("query")
    p.add_argument("-k", type=int, default=3)
    p.add_argument("--simspec")
    add_format(p)
    p.set_defaults(run=_cmd_cbr_retrieve)

    p = sub.add_parser("synth", help="synthesise a circuit for a .req.json truth table")
    p.add_argument("requirement")
    p.add_argument("--topology")
    p.add_argument("--max-gates", type=int, default=5)
    p.add_argument("--fs-out", help="also write the circuit as a .fs.json structure")
    add_format(p)
    p.set_defaults(run=_cmd_synth)

    p = sub.add_parser("classify", help="recommend methods for a .profile.json")
    p.add_argument("profile")
    p.add_argument("--matrix")
    add_format(p)
    p.set_defaults(run=_cmd_classify)

    return parser


def run(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad usage; keep that contract but stay callable.
        return int(exc.code or 0)
    try:
        return args.run(args)
    except _InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.stdout.reconfigure(errors="backslashreplace")
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        sys.exit(1)
    sys.exit(code)


if __name__ == "__main__":
    main()
