"""dlq: description-logic knowledge bases, a tableau reasoner, certain-answer
query evaluation with type inference, and a small ontology-typed expression
language, behind one command-line tool."""

from .model import (
    And,
    Atomic,
    Axiom,
    BOTTOM,
    Bottom,
    Concept,
    ConceptAssertion,
    Equivalent,
    Exists,
    Forall,
    Interpretation,
    Iri,
    KnowledgeBase,
    Nominal,
    Not,
    Or,
    Role,
    RoleAssertion,
    Signature,
    SubClass,
    TOP,
    Top,
    nnf,
    signature,
)
from .kbtext import ParseError, parse_concept, parse_kb, print_concept, print_kb
from .reasoner import Reasoner, SatResult

__version__ = "0.1.0"
