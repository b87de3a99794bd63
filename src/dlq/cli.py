"""Command-line front end.

Subcommands::

    dlq reason sat CONCEPT --kb FILE [--show-model]
    dlq reason sub C D --kb FILE
    dlq reason instance OBJ C --kb FILE
    dlq reason role SUBJ ROLE OBJ --kb FILE
    dlq query type QUERY --kb FILE [--strict] [--splice name=CONCEPT ...]
    dlq query run QUERY --kb FILE [--strict] [--splice name=IRI ...]
    dlq lang check PROGRAM --kb FILE [--mode full|tbox-only]
    dlq lang run PROGRAM --kb FILE [--mode full|tbox-only]

Concepts, roles and IRIs on the command line are written in the
knowledge-base text syntax and resolved against the KB's prefix table.
Exit codes: 0 success (including empty results), 1 type or validation
failure, 2 syntax error, 3 runtime fault, 4 environment problems such as
a missing KB file.  Errors print ``ERROR <category> <line>:<col>`` on the
first line, then prose.
"""

from __future__ import annotations

import argparse
import json
import sys

from .algebra import run_select, table_to_json
from .inference import Valid, validate_query, validation_failure
from .kbtext import (
    ParseError,
    parse_concept,
    parse_kb,
    parse_name,
    parse_role,
    print_concept,
    shorten,
)
from .lang import (
    EvalError,
    IriVal,
    BoolVal,
    ListVal,
    TupleVal,
    LangTypeError,
    Value,
    evaluate,
    parse_program,
    typecheck,
    type_name,
)
from .model import Interpretation, Nominal
from .query import Var, parse_query
from .reasoner import Reasoner

__all__ = ["main"]


class _Environment(Exception):
    pass


def _read(path: str, what: str) -> str:
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise _Environment(f"cannot read {what} file {path!r}: {exc.strerror}") from exc


def _splice_pairs(pairs: list[str]) -> list[tuple[str, str]]:
    out = []
    for pair in pairs:
        name, eq, value = pair.partition("=")
        if not eq or not name or not value:
            raise ParseError(1, 1, f"--splice expects name=VALUE, got {pair!r}")
        out.append((name, value))
    return out


def _model_summary(interp: Interpretation, prefixes) -> dict:
    return {
        "domain": sorted(interp.domain),
        "concepts": {
            shorten(iri, prefixes): sorted(ext)
            for iri, ext in sorted(interp.concept_ext.items(), key=lambda kv: kv[0].value)
            if ext
        },
        "roles": {
            shorten(iri, prefixes): sorted(map(list, pairs))
            for iri, pairs in sorted(interp.role_ext.items(), key=lambda kv: kv[0].value)
            if pairs
        },
        "objects": {
            shorten(obj, prefixes): elem
            for obj, elem in sorted(interp.object_map.items(), key=lambda kv: kv[0].value)
        },
    }


# --- dlq reason -------------------------------------------------------------


def _cmd_reason(args, r: Reasoner) -> int:
    p = r.kb.prefixes
    show_model = None
    if args.check == "sat":
        result = r.is_satisfiable(parse_concept(args.concept, p))
        answer = result.satisfiable
        if args.show_model and result.witness is not None:
            show_model = _model_summary(result.witness, p)
    elif args.check == "sub":
        answer = r.entails_subsumption(parse_concept(args.sub, p),
                                       parse_concept(args.sup, p))
    elif args.check == "instance":
        answer = r.entails_instance(parse_name(args.obj, p),
                                    parse_concept(args.concept, p))
    else:
        answer = r.entails_role(parse_name(args.subject, p),
                                parse_role(args.role, p),
                                parse_name(args.obj, p))
    if args.output == "json":
        payload: dict = {"result": answer}
        if show_model is not None:
            payload["model"] = show_model
        print(json.dumps(payload))
    else:
        print("true" if answer else "false")
        if show_model is not None:
            print(json.dumps(show_model, indent=2))
    return 0


# --- dlq query --------------------------------------------------------------


def _render_table(table, prefixes) -> str:
    headers = ["?" + v.name for v in table.columns]
    rows = [[shorten(cell, prefixes) if cell is not None else "-" for cell in row]
            for row in table.rows]
    widths = [max(len(h), *(len(r[i]) for r in rows)) if rows else len(h)
              for i, h in enumerate(headers)]
    lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip()]
    for row in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    return "\n".join(lines)


def _cmd_query(args, r: Reasoner) -> int:
    p = r.kb.prefixes
    sq = parse_query(args.query, p)
    mode = "strict" if args.strict else "nonstrict"
    pairs = _splice_pairs(args.splice or [])
    given = dict(pairs)
    names = [name for name, _ in pairs]
    for problem, bad in (("missing", [s for s in sq.splices if s not in given]),
                         ("unknown", [s for s in given if s not in sq.splices]),
                         ("repeated", [s for s in given if names.count(s) > 1])):
        if bad:
            raise ParseError(1, 1, f"{problem} --splice for: "
                             + ", ".join(f"${s}" for s in bad))

    if args.action == "type":
        splice_types = {name: parse_concept(text, p) for name, text in given.items()}
    else:
        # run: spliced values are IRIs; they validate at their nominal types.
        values = {name: parse_name(text, p) for name, text in given.items()}
        splice_types = {name: Nominal(iri) for name, iri in values.items()}
    outcome = validate_query(r, sq, splice_types, mode)
    if not isinstance(outcome, Valid):
        category, message = validation_failure(outcome, lambda c: print_concept(c, p))
        raise LangTypeError(category, (1, 1), message)
    if args.action == "run":
        table = run_select(r, sq, values)
        print(table_to_json(table) if args.output == "json" else _render_table(table, p))
        return 0
    variables = {
        v.name: print_concept(c, p)
        for v, c in sorted(outcome.variable_concepts.items(), key=lambda kv: kv[0].name)
        if isinstance(v, Var)
    }
    splices = {s: print_concept(outcome.splice_concepts[s], p) for s in sq.splices}
    if args.output == "json":
        print(json.dumps({"variables": variables, "splices": splices}))
    else:
        print("\n".join([f"?{v}: {c}" for v, c in variables.items()]
                        + [f"${s}: {c}" for s, c in splices.items()]))
    return 0


# --- dlq lang ---------------------------------------------------------------


def _value_to_json(v: Value):
    if isinstance(v, IriVal):
        return v.iri.value
    if isinstance(v, BoolVal):
        return v.value
    assert isinstance(v, (ListVal, TupleVal))
    return [_value_to_json(i) for i in v.items]


def _render_value(v: Value, prefixes) -> str:
    if isinstance(v, IriVal):
        return shorten(v.iri, prefixes)
    if isinstance(v, BoolVal):
        return "true" if v.value else "false"
    if isinstance(v, ListVal):
        return "[" + ", ".join(_render_value(i, prefixes) for i in v.items) + "]"
    assert isinstance(v, TupleVal)
    return "(" + ", ".join(_render_value(i, prefixes) for i in v.items) + ")"


def _cmd_lang(args, r: Reasoner) -> int:
    program = parse_program(_read(args.program, "program"))
    p = r.kb.prefixes
    mode = "tbox_only" if args.mode == "tbox-only" else "full"
    typecheck(r, program, mode)

    if args.action == "check":
        if args.output == "json":
            print(json.dumps({"ok": True,
                              "definitions": list(program.definitions)}))
        else:
            for name in program.definitions:
                d = program.definitions[name]
                params = ", ".join(type_name(t, p) for _, t in d.params)
                print(f"OK {name}({params}): {type_name(d.return_type, p)}")
            print("OK main")
        return 0

    try:
        value = evaluate(r, program)
    except RecursionError:
        # Recursion in programs is permitted and unchecked; a runaway one
        # is a runtime fault of the program.
        raise EvalError(program.main.pos, "recursion depth exceeded") from None
    if args.output == "json":
        print(json.dumps(_value_to_json(value)))
    else:
        print(_render_value(value, p))
    return 0


# --- argument parsing ---------------------------------------------------------


def _common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--kb", required=True, help="knowledge base file (.kb)")
    parser.add_argument("--output", choices=["text", "json"], default="text")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dlq",
        description="Reason over DL knowledge bases, type and run queries, "
                    "check and run programs.")
    commands = parser.add_subparsers(dest="command", required=True)

    reason = commands.add_parser("reason", help="entailment checks")
    checks = reason.add_subparsers(dest="check", required=True)
    sat = checks.add_parser("sat", help="concept satisfiability")
    sat.add_argument("concept")
    sat.add_argument("--show-model", action="store_true")
    _common(sat)
    sub = checks.add_parser("sub", help="subsumption")
    sub.add_argument("sub")
    sub.add_argument("sup")
    _common(sub)
    inst = checks.add_parser("instance", help="instance entailment")
    inst.add_argument("obj")
    inst.add_argument("concept")
    _common(inst)
    role = checks.add_parser("role", help="role entailment")
    role.add_argument("subject")
    role.add_argument("role")
    role.add_argument("obj")
    _common(role)

    query = commands.add_parser("query", help="type or run a query")
    actions = query.add_subparsers(dest="action", required=True)
    for action in ("type", "run"):
        q = actions.add_parser(action)
        q.add_argument("query")
        q.add_argument("--strict", action="store_true")
        q.add_argument("--splice", action="append", metavar="NAME=VALUE",
                       help="declared concept (type) or IRI value (run) per splice")
        _common(q)

    lang = commands.add_parser("lang", help="check or run a program")
    actions = lang.add_subparsers(dest="action", required=True)
    for action in ("check", "run"):
        l = actions.add_parser(action)
        l.add_argument("program")
        l.add_argument("--mode", choices=["full", "tbox-only"], default="full",
                       help="whether assertional data is used at check time")
        _common(l)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    command = {"reason": _cmd_reason, "query": _cmd_query, "lang": _cmd_lang}[args.command]
    try:
        return command(args, Reasoner(parse_kb(_read(args.kb, "KB"))))
    except ParseError as exc:
        category, pos, message, code = "E-SYNTAX", (exc.line, exc.column), exc.message, 2
    except LangTypeError as exc:
        category, pos, message, code = exc.category, exc.pos, exc.message, 1
    except EvalError as exc:
        category, pos, message, code = "E-RUNTIME", exc.pos, exc.message, 3
    except RecursionError:
        # Input the parsers accepted but that nests too deeply to reason
        # over: a limit of the Python stack, not a fault of the input.
        print("error: input nested too deeply for the Python stack", file=sys.stderr)
        return 4
    except _Environment as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    print(f"ERROR {category} {pos[0]}:{pos[1]}\n{message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
