from __future__ import annotations

import json
import pathlib
import re

import pytest

from dlq.cli import main
from dlq.kbtext import parse_kb, shorten
from dlq.lang import ListVal, evaluate, parse_program
from dlq.model import signature
from dlq.reasoner import Reasoner

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"
KB = str(FIXTURES / "university.kb")
KB_EXT = str(FIXTURES / "university_extended.kb")
PROGRAM = str(FIXTURES / "university.dlq")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestReason:
    def test_subsumption_true(self, capsys):
        code, out, _ = run(capsys, "reason", "sub", ":ResearchAssistant",
                           ":Employee", "--kb", KB)
        assert (code, out.strip()) == (0, "true")

    def test_disjoint_intersection_unsatisfiable(self, capsys):
        code, out, _ = run(capsys, "reason", "sat", ":Person and :Organization",
                           "--kb", KB)
        assert (code, out.strip()) == (0, "false")

    def test_trivial_subsumption(self, capsys):
        code, out, _ = run(capsys, "reason", "sub", "Thing", "Thing", "--kb", KB)
        assert (code, out.strip()) == (0, "true")

    def test_instance_and_role(self, capsys):
        code, out, _ = run(capsys, "reason", "instance", ":bob", ":Person", "--kb", KB)
        assert (code, out.strip()) == (0, "true")
        code, out, _ = run(capsys, "reason", "role", ":bob", ":worksFor",
                           ":softlang", "--kb", KB)
        assert (code, out.strip()) == (0, "true")

    def test_show_model(self, capsys):
        code, out, _ = run(capsys, "reason", "sat", ":Chair", "--kb", KB,
                           "--show-model")
        assert code == 0
        first, _, rest = out.partition("\n")
        assert first == "true"
        model = json.loads(rest)
        kb = parse_kb(pathlib.Path(KB).read_text(encoding="utf-8"))
        assert set(model["objects"]) == {shorten(o, kb.prefixes)
                                         for o in signature(kb).objects}
        assert model["concepts"][":Chair"]
        assert set(model["objects"].values()) <= set(model["domain"])

    def test_show_model_json_carries_the_same_model(self, capsys):
        _, text, _ = run(capsys, "reason", "sat", ":Chair", "--kb", KB, "--show-model")
        code, out, err = run(capsys, "reason", "sat", ":Chair", "--kb", KB,
                             "--show-model", "--output", "json")
        assert (code, err) == (0, "")
        assert json.loads(out) == {"result": True,
                                   "model": json.loads(text.partition("\n")[2])}

    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "reason", "sub", ":Chair", ":Person",
                           "--kb", KB, "--output", "json")
        assert code == 0
        assert json.loads(out) == {"result": True}

    @pytest.mark.parametrize("obj, err", [
        ("{:alice}", "ERROR E-SYNTAX 1:1\nexpected an IRI or prefixed name, found '{'\n"),
        (":alice and :bob",
         "ERROR E-SYNTAX 1:8\ntrailing input after object name, found 'and'\n"),
    ])
    def test_object_argument_must_be_a_name(self, capsys, obj, err):
        assert run(capsys, "reason", "instance", obj, ":Person", "--kb", KB) == (2, "", err)

    @pytest.mark.parametrize("argv", [
        ["reason", "sub", ":Chair", ":Person"],
        ["query", "run", "SELECT ?x WHERE { ?x a :Person }"],
    ])
    def test_mode_flag_is_a_usage_error_outside_lang(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--kb", KB, "--mode", "tbox-only"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --mode" in capsys.readouterr().err

    def test_concept_parse_error_exits_2(self, capsys):
        code, _, err = run(capsys, "reason", "sat", ":Person and", "--kb", KB)
        assert code == 2
        assert err.startswith("ERROR E-SYNTAX")

    def test_missing_kb_exits_4(self, capsys):
        code, _, err = run(capsys, "reason", "sat", "Thing", "--kb", "no-such.kb")
        assert code == 4
        assert "no-such.kb" in err


class TestNesting:
    CHAINS = {
        "not": lambda d: "not " * (d - 1) + ":B",
        "some": lambda d: ":r some " * (d - 1) + ":B",
        "and": lambda d: " and ".join([":B"] * d),
    }

    def _kb(self, tmp_path, line):
        path = tmp_path / "nested.kb"
        path.write_text(f"prefix : <http://example.org/t#>\n{line}\n")
        return str(path)

    def test_kb_nested_past_the_parser_stack_is_a_syntax_error(self, capsys, tmp_path):
        line = ":A SubClassOf " + "(" * 1500 + ":B" + ")" * 1500
        code, out, err = run(capsys, "reason", "sat", ":A", "--kb",
                             self._kb(tmp_path, line))
        header, message = err.splitlines()
        where = re.fullmatch(r"ERROR E-SYNTAX 2:(\d+)", header)
        assert (code, out) == (2, "")
        assert where is not None and line[int(where.group(1)) - 1] == "("
        assert message == "concept nested too deeply, found '('"

    @pytest.mark.parametrize("chain", sorted(CHAINS))
    def test_concepts_at_the_depth_limit_are_reasoned_over(self, capsys, tmp_path, chain):
        line = ":A SubClassOf " + self.CHAINS[chain](100)
        code, out, err = run(capsys, "reason", "sat", ":A", "--kb",
                             self._kb(tmp_path, line))
        assert (code, out.strip(), err) == (0, "true", "")

    @pytest.mark.parametrize("chain", sorted(CHAINS))
    def test_concepts_past_the_depth_limit_are_syntax_errors(self, capsys, tmp_path, chain):
        line = ":A SubClassOf " + self.CHAINS[chain](101)
        code, out, err = run(capsys, "reason", "sat", ":A", "--kb",
                             self._kb(tmp_path, line))
        assert (code, out) == (2, "")
        assert err == "ERROR E-SYNTAX 2:15\nconcept nested more than 100 levels deep\n"

    def test_reasoning_out_of_stack_is_not_a_program_fault(self, capsys, monkeypatch):
        def too_deep(self, c):
            raise RecursionError("maximum recursion depth exceeded")

        monkeypatch.setattr(Reasoner, "is_satisfiable", too_deep)
        code, out, err = run(capsys, "reason", "sat", ":Chair", "--kb", KB)
        assert (code, out) == (4, "")
        assert err == "error: input nested too deeply for the Python stack\n"


class TestQuery:
    WORKS = "SELECT ?x ?y WHERE { ?y :worksFor ?x . ?x a :ResearchGroup }"

    def test_type_prints_both_concepts(self, capsys):
        code, out, _ = run(capsys, "query", "type", self.WORKS, "--kb", KB)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines == [
            "?x: inv(:worksFor) some :worksFor some Thing and :ResearchGroup",
            "?y: :worksFor some (inv(:worksFor) some Thing and :ResearchGroup)",
        ]

    def test_run_prints_the_single_row(self, capsys):
        code, out, _ = run(capsys, "query", "run", self.WORKS, "--kb", KB)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].split() == ["?x", "?y"]
        assert lines[1].split() == [":softlang", ":bob"]

    def test_run_json_shape(self, capsys):
        code, out, _ = run(capsys, "query", "run", self.WORKS, "--kb", KB,
                           "--output", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["vars"] == ["x", "y"]
        assert len(payload["solutions"]) == 1
        assert payload["solutions"][0]["y"].endswith("#bob")

    # The failure texts of a query that validation rejects, from ``type``
    # (splices at their declared concepts) and ``run`` (at the nominal of
    # their IRI).  A program's checker words them alike, with its concepts
    # in backquotes (TestProgramScenarios, TestErrorCorpus).
    SPLICED = "SELECT ?x WHERE { $t :worksFor ?x . ?x a :ResearchGroup }"
    INFERRED = "inferred :worksFor some (inv(:worksFor) some Thing and :ResearchGroup)\n"
    FAILURES = [
        pytest.param(
            "SELECT ?x WHERE { ?x a [:Person and :Organization] }", [], [],
            "ERROR E-SAT 1:1\n"
            "variable ?x can never match: :Person and :Organization is unsatisfiable\n",
            "ERROR E-SAT 1:1\n"
            "variable ?x can never match: :Person and :Organization is unsatisfiable\n",
            id="unsatisfiable"),
        pytest.param(
            SPLICED, ["--strict", "--splice", "t=:Employee"],
            ["--strict", "--splice", "t=:alice"],
            "ERROR E-SUB 1:1\nsplice $t: :Employee is not subsumed by " + INFERRED,
            "ERROR E-SUB 1:1\nsplice $t: {:alice} is not subsumed by " + INFERRED,
            id="strict-splice"),
        pytest.param(
            SPLICED, ["--splice", "t=:Organization"], ["--splice", "t=:softlang"],
            "ERROR E-SAT 1:1\nsplice $t: :Organization cannot overlap " + INFERRED,
            "ERROR E-SAT 1:1\nsplice $t: {:softlang} cannot overlap " + INFERRED,
            id="nonstrict-splice"),
    ]

    @pytest.mark.parametrize("query, type_args, run_args, type_err, run_err", FAILURES)
    def test_validation_failures_are_worded_in_full(self, capsys, query, type_args,
                                                    run_args, type_err, run_err):
        assert run(capsys, "query", "type", query, "--kb", KB, *type_args) == (
            1, "", type_err)
        assert run(capsys, "query", "run", query, "--kb", KB, *run_args) == (
            1, "", run_err)

    @pytest.mark.parametrize("query, splice", [
        ("SELECT ?t WHERE { ?t a :Person . $t :worksFor ?t }", "t"),
        ("SELECT ?x WHERE { $org :worksFor ?x }", "org"),
    ], ids=["beside-its-variable", "alone"])
    def test_unsatisfiable_splice_type_names_the_splice(self, capsys, query, splice):
        assert run(capsys, "query", "type", query, "--kb", KB,
                   "--splice", f"{splice}=:Person and :Organization") == (
            1, "", "ERROR E-SAT 1:1\n"
            f"splice ${splice} can never match: :Person and :Organization "
            "is unsatisfiable\n")

    def test_unsatisfiable_query_exits_1_with_e_sat(self, capsys):
        code, _, err = run(capsys, "query", "type",
                           "SELECT ?x WHERE { ?x a [:Person and :Organization] }",
                           "--kb", KB)
        assert code == 1
        assert err.startswith("ERROR E-SAT 1:1")

    def test_select_variable_only_under_minus_exits_1_with_e_sat(self, capsys):
        query = "SELECT ?y WHERE { ?x a :Person MINUS { ?y a :Chair } }"
        assert run(capsys, "query", "type", query, "--kb", KB) == (
            1, "", "ERROR E-SAT 1:1\n"
            "SELECT variable ?y occurs only under MINUS and has no inferred type\n")

    def test_syntax_error_exits_2(self, capsys):
        code, _, err = run(capsys, "query", "type",
                           "SELECT ?x WHERE { ?x a :Person", "--kb", KB)
        assert code == 2
        assert err.startswith("ERROR E-SYNTAX")

    def test_empty_result_is_success(self, capsys):
        code, out, _ = run(capsys, "query", "run",
                           "SELECT ?x WHERE { ?x a :Department }", "--kb", KB)
        assert code == 0
        assert out.strip().splitlines() == ["?x"]

    def test_run_also_validates_first(self, capsys):
        code, _, err = run(capsys, "query", "run",
                           "SELECT ?x WHERE { ?x a [:Person and :Organization] }",
                           "--kb", KB)
        assert code == 1
        assert err.startswith("ERROR E-SAT")

    def test_typed_splice(self, capsys):
        query = "SELECT ?x WHERE { $t :worksFor ?x . ?x a :ResearchGroup }"
        code, out, _ = run(capsys, "query", "type", query, "--kb", KB,
                           "--splice", "t=:Employee")
        assert code == 0
        assert "$t:" in out
        code, _, err = run(capsys, "query", "type", query, "--kb", KB,
                           "--splice", "t=:Organization")
        assert code == 1
        assert err.startswith("ERROR E-SAT")
        code, _, err = run(capsys, "query", "type", query, "--kb", KB,
                           "--strict", "--splice", "t=:Employee")
        assert code == 1
        assert err.startswith("ERROR E-SUB")

    def test_type_json_with_splice(self, capsys):
        # The splice $t is reported under "splices" only, apart from ?t.
        query = "SELECT ?t WHERE { $t :worksFor ?t . ?t a :ResearchGroup }"
        code, out, _ = run(capsys, "query", "type", query, "--kb", KB,
                           "--splice", "t=:Employee", "--output", "json")
        assert code == 0
        assert out == (
            '{"variables": {"t": "inv(:worksFor) some :worksFor some Thing and '
            ':ResearchGroup"}, "splices": {"t": ":worksFor some (inv(:worksFor) '
            'some Thing and :ResearchGroup)"}}\n')

    def test_run_with_splice_value(self, capsys):
        query = "SELECT ?rg WHERE { ?rg a :ResearchGroup . ?rg :subOrganizationOf $org }"
        code, out, _ = run(capsys, "query", "run", query, "--kb", KB_EXT,
                           "--splice", "org=:csdept")
        assert code == 0
        assert ":rg1" in out

    def test_run_and_a_program_answer_a_spliced_query_alike(self, capsys, tmp_path):
        query = "SELECT ?rg WHERE { ?rg a :ResearchGroup . ?rg :subOrganizationOf $org }"
        code, out, _ = run(capsys, "query", "run", query, "--kb", KB_EXT,
                           "--splice", "org=:csdept", "--output", "json")
        assert code == 0
        from_cli = [row["rg"] for row in json.loads(out)["solutions"]]
        path = tmp_path / "groups.dlq"
        path.write_text(
            "prefix : <http://swat.cse.lehigh.edu/onto/univ-bench.owl#>\n"
            "def groups(org: `:Organization`): List[`:ResearchGroup`] =\n"
            f'  query "{query}"\n'
            "main = groups(iri(:csdept))\n")
        code, out, _ = run(capsys, "lang", "run", str(path), "--kb", KB_EXT,
                           "--output", "json")
        assert code == 0
        assert json.loads(out) == from_cli
        assert len(from_cli) == 1 and from_cli[0].endswith("#rg1")

    def test_missing_splice_is_a_usage_error(self, capsys):
        query = "SELECT ?rg WHERE { ?rg :subOrganizationOf $org }"
        code, _, err = run(capsys, "query", "run", query, "--kb", KB)
        assert code == 2
        assert "$org" in err

    @pytest.mark.parametrize("action, splice, message", [
        ("type", "typo=:Nonsense", "unknown --splice for: $typo"),
        ("run", "typo=notaniri", "unknown --splice for: $typo"),
        ("type", "foo", "--splice expects name=VALUE, got 'foo'"),
        ("run", "foo", "--splice expects name=VALUE, got 'foo'"),
    ])
    def test_bad_splice_argument_is_a_usage_error(self, capsys, action, splice, message):
        query = "SELECT ?x WHERE { ?x a :Person }"
        assert run(capsys, "query", action, query, "--kb", KB, "--splice", splice) == (
            2, "", f"ERROR E-SYNTAX 1:1\n{message}\n")

    @pytest.mark.parametrize("action, first, second", [
        ("type", ":Employee", ":Person"), ("run", ":csdept", ":softlang")])
    def test_repeated_splice_is_a_usage_error(self, capsys, action, first, second):
        query = "SELECT ?rg WHERE { ?rg :subOrganizationOf $org }"
        code, out, err = run(capsys, "query", action, query, "--kb", KB_EXT,
                             "--splice", f"org={first}", "--splice", f"org={second}")
        assert (code, out) == (2, "")
        assert err == "ERROR E-SYNTAX 1:1\nrepeated --splice for: $org\n"


class TestLang:
    def test_check_reports_per_definition_ok(self, capsys):
        code, out, _ = run(capsys, "lang", "check", PROGRAM, "--kb", KB)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("OK researchGroups")
        assert lines[1].startswith("OK supervises")
        assert lines[-1] == "OK main"

    def test_check_json_lists_the_definitions(self, capsys):
        assert run(capsys, "lang", "check", PROGRAM, "--kb", KB, "--output", "json") == (
            0, '{"ok": true, "definitions": ["researchGroups", "supervises"]}\n', "")

    def test_missing_program_exits_4(self, capsys, tmp_path):
        path = str(tmp_path / "no-such.dlq")
        assert run(capsys, "lang", "run", path, "--kb", KB) == (
            4, "", f"error: cannot read program file {path!r}: No such file or directory\n")

    def test_run_empty_on_base_kb(self, capsys):
        code, out, _ = run(capsys, "lang", "run", PROGRAM, "--kb", KB)
        assert (code, out.strip()) == (0, "[]")

    def test_run_finds_rg1_on_extended_kb(self, capsys):
        code, out, _ = run(capsys, "lang", "run", PROGRAM, "--kb", KB_EXT)
        assert (code, out.strip()) == (0, "[:rg1]")
        code, out, _ = run(capsys, "lang", "run", PROGRAM, "--kb", KB_EXT,
                           "--output", "json")
        assert code == 0
        assert json.loads(out) == [
            "http://swat.cse.lehigh.edu/onto/univ-bench.owl#rg1"]

    def test_tbox_only_mode_flag(self, capsys):
        code, _, err = run(capsys, "lang", "check", PROGRAM, "--kb", KB,
                           "--mode", "tbox-only")
        # iri(:alice) types as Thing without the A-Box: the call is rejected.
        assert code == 1
        assert err.startswith("ERROR E-SUB")

    def test_runtime_error_exits_3(self, capsys, tmp_path):
        bad = tmp_path / "head_empty.dlq"
        bad.write_text(
            "prefix : <http://swat.cse.lehigh.edu/onto/univ-bench.owl#>\n"
            "main = head(nil[`:Person`])\n")
        code, _, err = run(capsys, "lang", "run", str(bad), "--kb", KB)
        assert code == 3
        assert err.startswith("ERROR E-RUNTIME")

    def test_runaway_recursion_is_a_runtime_fault(self, capsys, tmp_path):
        bad = tmp_path / "loop.dlq"
        bad.write_text(
            "prefix : <http://swat.cse.lehigh.edu/onto/univ-bench.owl#>\n"
            "def loop(p: `:Person`): `:Person` = loop(p)\n"
            "main = loop(iri(:alice))\n")
        code, _, err = run(capsys, "lang", "run", str(bad), "--kb", KB)
        assert code == 3
        assert err.startswith("ERROR E-RUNTIME 3:8\n")
        assert "recursion" in err


class TestProgramScenarios:
    """Failure scenarios of ``lang check`` and ``lang run`` that the error
    corpus does not reach, pinned by exit code, stdout and stderr."""

    RA = "`inv(:worksFor) some :worksFor some Thing`"
    RB = "`:worksFor some inv(:worksFor) some Thing`"
    BOOL = "main = nonEmpty(iri(:softlang).`inv(:worksFor)`)"
    TUPLE = 'main = head(query "SELECT ?x ?y WHERE { ?y :worksFor ?x }")'
    CASES = [
        pytest.param(
            "check",
            "main = if nonEmpty(nil[`:Person`]) then iri(:alice) else nil[`:Person`]",
            1, "", "ERROR E-SUB 2:8\n"
            "branches have incompatible shapes: `{:alice}` vs List[`:Person`]\n",
            id="lub-concept-vs-list"),
        pytest.param(
            "check",
            "main = if nonEmpty(nil[`:Person`])\n"
            '  then head(query "SELECT ?x ?y WHERE { ?y :worksFor ?x }") else iri(:alice)',
            1, "", "ERROR E-SUB 2:8\n"
            f"branches have incompatible shapes: ({RA}, {RB}) vs `{{:alice}}`\n",
            id="lub-tuple-vs-concept"),
        pytest.param(
            "check",
            "def staff(org: `:Person`): List[`:Person`] =\n"
            '  strictquery "SELECT ?x WHERE { ?x :worksFor $org }"\n'
            "main = staff(iri(:alice))",
            1, "", f"ERROR E-SUB 3:3\nsplice $org: `:Person` is not subsumed by inferred {RA}\n",
            id="strict-splice"),
        pytest.param(
            "check",
            "def staff(o: `:Organization`): List[`:Person`] =\n"
            '  query "SELECT ?x WHERE { $o :worksFor ?x }"\n'
            "main = staff(iri(:softlang))",
            1, "", f"ERROR E-SAT 3:3\nsplice $o: `:Organization` cannot overlap inferred {RB}\n",
            id="nonstrict-splice"),
        pytest.param(
            "check",
            "def staff(o: `:Person and :Organization`): List[`:Person`] =\n"
            '  query "SELECT ?x WHERE { $o :worksFor ?x }"\n'
            "main = iri(:bob)",
            1, "", "ERROR E-SAT 3:3\n"
            "splice $o can never match: `:Person and :Organization` is unsatisfiable\n",
            id="unsatisfiable-splice"),
        pytest.param(
            "check",
            'main = query "SELECT ?y WHERE { ?x a :Person MINUS { ?y a :Chair } }"',
            1, "", "ERROR E-SAT 2:8\n"
            "SELECT variable ?y occurs only under MINUS and has no inferred type\n",
            id="select-only-under-minus"),
        pytest.param(
            "check", "main = iri(:alice).1",
            1, "", "ERROR E-SUB 2:19\ntuple index on `{:alice}`\n",
            id="index-on-non-tuple"),
        pytest.param(
            "check", 'main = head(query "SELECT ?x ?y WHERE { ?y :worksFor ?x }").3',
            1, "", f"ERROR E-SUB 2:60\nindex .3 out of range for ({RA}, {RB})\n",
            id="index-out-of-range"),
        pytest.param(
            "check", "main = head(iri(:alice))",
            1, "", "ERROR E-SUB 2:13\nexpected a list, got `{:alice}`\n",
            id="head-of-non-list"),
        pytest.param(
            "run",
            'main = query "SELECT ?x ?y WHERE { ?x a :Person OPTIONAL { ?x :worksFor ?y } }"',
            3, "", "ERROR E-RUNTIME 2:8\nvariable ?y is unbound in a solution\n",
            id="unbound-optional"),
        pytest.param(
            "check", "main = iri(:softlang) : `:Person`",
            1, "", "ERROR E-SUB 2:8\n:softlang is not provably an instance of `:Person`\n",
            id="unproven-ascription"),
        pytest.param(
            "check", "main = match nil[`:Person`] { case _ => iri(:bob) }",
            1, "", "ERROR E-SUB 2:14\n"
            "match subject must have a concept type, got List[`:Person`]\n",
            id="match-on-a-list"),
        pytest.param(
            "check", "prefix ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#>\n"
            "def f(p: `ub:Person`): `ub:Person` = p\nmain = f(iri(ub:bob))",
            0, "OK f(`:Person`): `:Person`\nOK main\n", "",
            id="named-prefix-alias"),
        pytest.param("run", "main = (iri(:bob))", 0, ":bob\n", "",
                     id="parenthesised-term"),
        pytest.param("run", BOOL, 0, "true\n", "", id="bool-main"),
        pytest.param("run --output json", BOOL, 0, "true\n", "", id="bool-main-json"),
        pytest.param("run", TUPLE, 0, "(:softlang, :bob)\n", "", id="tuple-main"),
        pytest.param("run --output json", TUPLE, 0,
                     '["http://swat.cse.lehigh.edu/onto/univ-bench.owl#softlang", '
                     '"http://swat.cse.lehigh.edu/onto/univ-bench.owl#bob"]\n', "",
                     id="tuple-main-json"),
        pytest.param("run", "main = iri(:softlang).`inv(:worksFor)`", 0, "[:bob]\n", "",
                     id="inverse-projection"),
    ]

    @pytest.mark.parametrize("action, source, code, out, err", CASES)
    def test_scenario(self, capsys, tmp_path, action, source, code, out, err):
        path = tmp_path / "scenario.dlq"
        path.write_text(
            "prefix : <http://swat.cse.lehigh.edu/onto/univ-bench.owl#>\n" + source + "\n")
        assert run(capsys, "lang", *action.split(), str(path), "--kb", KB) == (
            code, out, err)


class TestErrorCorpus:
    # Each id keeps the program's category; the case pins the whole stderr.
    CASES = [
        pytest.param("e_sat.dlq", "check", 1, "ERROR E-SAT 6:3\n"
                     "variable ?x can never match: `:Person and :Organization` "
                     "is unsatisfiable\n", id="e_sat.dlq-check-1-E-SAT"),
        pytest.param("e_sub.dlq", "check", 1, "ERROR E-SUB 8:18\n"
                     "argument 'org' of 'researchGroups': `:Person` is not a subtype "
                     "of `:Organization`\n", id="e_sub.dlq-check-1-E-SUB"),
        pytest.param("e_access.dlq", "check", 1, "ERROR E-ACCESS 6:6\n"
                     "role :worksFor is not known to exist for `:Organization`\n",
                     id="e_access.dlq-check-1-E-ACCESS"),
        pytest.param("e_syntax.dlq", "check", 2, "ERROR E-SYNTAX 5:40\n"
                     "expected '}', found end of input\n",
                     id="e_syntax.dlq-check-2-E-SYNTAX"),
    ]

    @pytest.mark.parametrize("name,action,expected_code,stderr", CASES)
    def test_static_failures(self, capsys, name, action, expected_code, stderr):
        path = str(FIXTURES / "errors" / name)
        assert run(capsys, "lang", action, path, "--kb", KB) == (expected_code, "", stderr)

    def test_empty_result_runs_clean(self, capsys):
        path = str(FIXTURES / "errors" / "e_empty.dlq")
        code, out, err = run(capsys, "lang", "run", path, "--kb", KB)
        assert (code, out.strip(), err) == (0, "[]", "")


class TestFailureScenarios:
    """Each failure scenario as the checker reports it and as an unchecked
    run returns it; README.md shows the same table."""

    MATRIX = [("e_access.dlq", 1, "ERROR E-ACCESS 6:6"),
              ("e_sat.dlq", 1, "ERROR E-SAT 6:3"),
              ("e_sub.dlq", 1, "ERROR E-SUB 8:18"),
              ("e_empty.dlq", 0, "OK")]

    @pytest.mark.parametrize("kb", [KB, KB_EXT])
    @pytest.mark.parametrize("name,expected_code,report", MATRIX)
    def test_checked_report_and_unchecked_value(self, capsys, kb, name,
                                                expected_code, report):
        path = FIXTURES / "errors" / name
        code, out, err = run(capsys, "lang", "check", str(path), "--kb", kb)
        verdict = err.splitlines()[0] if err else out.split(" ")[0]
        assert (code, verdict) == (expected_code, report)
        session = Reasoner(parse_kb(pathlib.Path(kb).read_text()))
        assert evaluate(session, parse_program(path.read_text())) == ListVal(())
