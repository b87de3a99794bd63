"""Acceptance suite: one test per criterion, each printing a pass/fail line
(run with ``pytest tests/test_acceptance.py -s`` to see them) and enforcing
its time budget.
"""

from __future__ import annotations

import contextlib
import pathlib
import random
import time

import pytest

from dlq.algebra import eval_algebraic
from dlq.cli import main as cli_main
from dlq.inference import (
    SpliceMismatch,
    Valid,
    infer_query,
    resolve_references,
    validate_query,
)
from dlq.interpretation import (
    bounded_model_search,
    denotational_eval,
    extension,
    verify_model,
)
from dlq.model import And, Atomic, Not, Role
from dlq.query import Var, parse_query
from dlq.reasoner import Reasoner
from support import _random_simple_concept, generated_instances, iri, random_kb

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"
KB = str(FIXTURES / "university.kb")
KB_EXT = str(FIXTURES / "university_extended.kb")
PROGRAM = str(FIXTURES / "university.dlq")


@contextlib.contextmanager
def criterion(number: int, description: str, budget_s: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        elapsed = time.perf_counter() - start
        print(f"criterion {number} FAIL ({elapsed:.1f}s): {description}", flush=True)
        raise
    elapsed = time.perf_counter() - start
    if elapsed >= budget_s:
        print(f"criterion {number} FAIL ({elapsed:.1f}s over {budget_s:.0f}s budget): "
              f"{description}", flush=True)
        pytest.fail(f"criterion {number} exceeded its {budget_s}s budget: {elapsed:.1f}s")
    print(f"criterion {number} PASS ({elapsed:.1f}s): {description}", flush=True)


def test_criterion_1_figure_1_entailments(university_kb, uc, uobj):
    checks = [
        (lambda r: r.entails_subsumption(uc(":ResearchAssistant"), uc(":Employee")), True),
        (lambda r: r.is_satisfiable(uc(":Person and :Organization")).satisfiable, False),
        (lambda r: r.entails_subsumption(uc(":Chair"), uc(":Person")), True),
        (lambda r: r.entails_subsumption(uc("inv(:headOf) some :Chair"),
                                         uc(":Department")), True),
        (lambda r: r.entails_instance(uobj("bob"), uc(":Person")), True),
        (lambda r: r.entails_instance(uobj("bob"), uc(":Chair")), False),
        (lambda r: r.is_consistent(), True),
    ]
    with criterion(1, "Figure-1 entailment suite, each check under 2s", 2 * len(checks)):
        for check, expected in checks:
            fresh = Reasoner(university_kb)
            started = time.perf_counter()
            assert check(fresh) is expected
            assert time.perf_counter() - started < 2.0


def test_criterion_2_inference_golden(university_kb, university, uc):
    with criterion(2, "query concept inference reproduces the worked example", 2.0):
        sq = parse_query(
            "SELECT ?x ?y WHERE { ?y :worksFor ?x . ?x a :ResearchGroup }",
            university_kb.prefixes)
        phi = resolve_references(infer_query(sq.body))
        expected = {
            Var("x"): uc("inv(:worksFor) some (:worksFor some Thing) and :ResearchGroup"),
            Var("y"): uc(":worksFor some (inv(:worksFor) some Thing and :ResearchGroup)"),
        }
        for var, concept in expected.items():
            assert phi[var] == concept
            assert university.entails_subsumption(phi[var], concept)
            assert university.entails_subsumption(concept, phi[var])


def test_criterion_3_validation_matrix(university_kb, university, uc):
    with criterion(3, "strict/non-strict validation matrix, all four outcomes", 5.0):
        sq = parse_query("SELECT ?x WHERE { $t :worksFor ?x . ?x a :ResearchGroup }",
                         university_kb.prefixes)
        nonstrict_employee = validate_query(
            university, sq, {"t": uc(":Employee")}, "nonstrict")
        assert isinstance(nonstrict_employee, Valid)
        nonstrict_org = validate_query(
            university, sq, {"t": uc(":Organization")}, "nonstrict")
        assert isinstance(nonstrict_org, SpliceMismatch)
        strict_employee = validate_query(
            university, sq, {"t": uc(":Employee")}, "strict")
        assert isinstance(strict_employee, SpliceMismatch)
        strict_ra = validate_query(
            university, sq, {"t": uc(":ResearchAssistant")}, "strict")
        assert isinstance(strict_ra, Valid)
        assert strict_ra.variable_concepts[Var("x")] == \
            uc("inv(:worksFor) some :ResearchAssistant and :ResearchGroup")


def test_criterion_4_ported_program(capsys):
    with criterion(4, "ported two-function program: typechecks, [] then [rg1]", 5.0):
        assert cli_main(["lang", "check", PROGRAM, "--kb", KB]) == 0
        assert cli_main(["lang", "run", PROGRAM, "--kb", KB]) == 0
        assert cli_main(["lang", "run", PROGRAM, "--kb", KB_EXT]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out[-2] == "[]"
        assert out[-1] == "[:rg1]"


def test_criterion_5_oracle_equivalence():
    instances = generated_instances(200)
    with criterion(5, "bottom-up evaluation equals the brute-force oracle, "
                      "200 random instances", 120.0):
        for kb, q in instances:
            session = Reasoner(kb)
            assert eval_algebraic(session, q) == denotational_eval(session, q)


def test_criterion_6_inference_soundness():
    instances = generated_instances(200)
    with criterion(6, "every returned binding inhabits its inferred concept, "
                      "200 random instances", 120.0):
        for kb, q in instances:
            session = Reasoner(kb)
            phi = resolve_references(infer_query(q))
            for mu in eval_algebraic(session, q):
                for var, obj in mu.bindings:
                    if var in phi:
                        assert session.entails_instance(obj, phi[var])


def test_criterion_7_reasoner_properties():
    atoms = [Atomic(iri(n)) for n in "ABC"]
    roles = [Role(iri("r")), Role(iri("s"))]
    with criterion(7, "witnesses verify, bounded models confirmed, coherence "
                      "and monotonicity", 120.0):
        rng = random.Random(501)
        verified = 0
        attempts = 0
        while verified < 200 and attempts < 600:
            attempts += 1
            kb = random_kb(rng)
            session = Reasoner(kb)
            concept = _random_simple_concept(rng, atoms, roles, 2)
            result = session.is_satisfiable(concept)
            if result.satisfiable:
                assert verify_model(result.witness, kb)
                assert extension(concept, result.witness)
                verified += 1
        assert verified >= 200

        rng = random.Random(502)
        confirmed = 0
        attempts = 0
        while confirmed < 200 and attempts < 600:
            attempts += 1
            kb = random_kb(rng)
            concept = Atomic(iri(rng.choice("ABC")))
            if bounded_model_search(kb, concept, 3) is not None:
                assert Reasoner(kb).is_satisfiable(concept).satisfiable
                confirmed += 1
        assert confirmed >= 200

        rng = random.Random(503)
        for _ in range(50):
            kb = random_kb(rng)
            session = Reasoner(kb)
            c = _random_simple_concept(rng, atoms, roles, 2)
            d = _random_simple_concept(rng, atoms, roles, 2)
            assert session.entails_subsumption(c, d) == \
                (not session.is_satisfiable(And((c, Not(d)))).satisfiable)

        rng = random.Random(504)
        for _ in range(50):
            kb = random_kb(rng)
            session = Reasoner(kb)
            c = _random_simple_concept(rng, atoms, roles, 2)
            d = _random_simple_concept(rng, atoms, roles, 2)
            if session.entails_subsumption(c, d):
                from dlq.model import SubClass
                grown = kb.extended(SubClass(
                    _random_simple_concept(rng, atoms, roles, 1),
                    _random_simple_concept(rng, atoms, roles, 1)))
                assert Reasoner(grown).entails_subsumption(c, d)


def test_criterion_8_error_corpus(capsys):
    corpus = [
        ("e_sat.dlq", "check", 1, "E-SAT"),
        ("e_sub.dlq", "check", 1, "E-SUB"),
        ("e_access.dlq", "check", 1, "E-ACCESS"),
        ("e_syntax.dlq", "check", 2, "E-SYNTAX"),
    ]
    with criterion(8, "error corpus: static categories at check time, empty "
                      "results run clean", 10.0):
        for name, action, expected_code, category in corpus:
            path = str(FIXTURES / "errors" / name)
            code = cli_main(["lang", action, path, "--kb", KB])
            captured = capsys.readouterr()
            assert code == expected_code, name
            assert captured.err.splitlines()[0].startswith(f"ERROR {category} "), name
        code = cli_main(["lang", "run", str(FIXTURES / "errors" / "e_empty.dlq"),
                         "--kb", KB])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out.strip() == "[]"
        assert captured.err == ""
