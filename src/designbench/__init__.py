"""designbench: engines for modelling and solving product-design problems.

Modules:

* :mod:`designbench.funcstruct` - black boxes, function-structure DAGs,
  interdependency index.
* :mod:`designbench.novelty` - knowledge bases, innovation/creativity
  indices, routine/innovative/creative assessment.
* :mod:`designbench.grammar` - attributed graph grammars with bounded,
  deterministic generation.
* :mod:`designbench.casebase` - case-based design: retrieve, reuse,
  revise, retain.
* :mod:`designbench.synth` - exact Boolean circuit synthesis against
  truth tables.
* :mod:`designbench.classify` - method recommendation from a problem
  profile.
* :mod:`designbench.jsonio` - the one JSON reader every ``parse_*``
  function goes through, the one JSON writer, the shared memo
  descriptor, and ``SchemaError``.
* :mod:`designbench.cli` - the ``designbench`` command.
"""

from . import casebase, classify, domains, funcstruct, grammar, jsonio, novelty, synth

__all__ = [
    "casebase",
    "classify",
    "domains",
    "funcstruct",
    "grammar",
    "jsonio",
    "novelty",
    "synth",
]

__version__ = "0.1.0"
