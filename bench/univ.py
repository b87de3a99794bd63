"""Seeded LUBM-style inputs for the benchmark, and the answers expected of them.

The shapes follow the UBA generator of LUBM (Guo, Pan and Heflin, "LUBM: A
benchmark for OWL knowledge base systems", J. Web Semantics 2005): one
namespace per department, members named by class and index, departments
holding research groups, professors and graduate students.  Nothing here
imports ``dlq``: the program under test receives only the generated text,
and every expected answer is derived from the construction itself (the
asserted facts plus the told hierarchy), never from the reasoner.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

UB = "http://swat.cse.lehigh.edu/onto/univ-bench.owl#"
PREFIX = f"prefix : <{UB}>"

# The schema of fixtures/university.kb, the T-Box the worked example runs on.
FIXTURE_TBOX = (
    ":Person and :Organization SubClassOf Nothing",
    ":Employee EquivalentTo :Person and :worksFor some :Organization",
    ":Professor SubClassOf :Employee",
    ":Chair SubClassOf :Professor",
    ":headOf some :Department and :Person EquivalentTo :Chair",
    ":ResearchAssistant SubClassOf :Person and :worksFor some :ResearchGroup",
    ":Department SubClassOf :Organization",
    ":ResearchGroup SubClassOf :Organization",
    ":worksFor some Thing SubClassOf :Person",
    ":subOrganizationOf some Thing SubClassOf :Organization",
    "Thing SubClassOf :headOf only :Department",
)
FIXTURE_ABOX = (
    ":alice Type :Chair",
    ":bob Fact :worksFor :softlang",
    ":softlang Type :ResearchGroup",
)
EXTENDED_ABOX = FIXTURE_ABOX + (
    ":alice Fact :headOf :csdept",
    ":csdept Type :Department",
    ":rg1 Type :ResearchGroup",
    ":rg1 Fact :subOrganizationOf :csdept",
)


def kb_text(*sections: tuple[str, ...]) -> str:
    return "\n".join((PREFIX,) + tuple(line for s in sections for line in s)) + "\n"


# --- abox-answer: a generated university ------------------------------------

_SUPER = {  # told atomic hierarchy of FIXTURE_TBOX, child -> parents
    "Chair": ("Professor",),
    "Professor": ("Employee",),
    "Employee": ("Person",),
    "ResearchAssistant": ("Person", "Employee"),  # Employee via worksFor some RG
    "Department": ("Organization",),
    "ResearchGroup": ("Organization",),
}


def _ancestors(cls: str) -> set[str]:
    out = {cls}
    for parent in _SUPER.get(cls, ()):
        out |= _ancestors(parent)
    return out


@dataclass
class University:
    """Named objects with their told class (None when known only through a
    role assertion) and the asserted role edges, all as full IRIs."""

    prefixes: dict[str, str] = field(default_factory=dict)
    told: dict[str, str | None] = field(default_factory=dict)
    edges: set[tuple[str, str, str]] = field(default_factory=set)

    def add(self, iri: str, cls: str | None) -> str:
        self.told[iri] = cls
        return iri

    def fact(self, s: str, role: str, o: str) -> None:
        self.edges.add((s, role, o))

    def text(self) -> str:
        lines = [f"prefix {a}: <{ns}>" for a, ns in self.prefixes.items()]
        lines += list(FIXTURE_TBOX)
        for iri, cls in self.told.items():
            if cls is not None:
                lines.append(f"{self.name(iri)} Type :{cls}")
        for s, role, o in sorted(self.edges):
            lines.append(f"{self.name(s)} Fact :{role} {self.name(o)}")
        return "\n".join(lines) + "\n"

    def name(self, iri: str) -> str:
        for alias, ns in self.prefixes.items():
            if iri.startswith(ns) and len(iri) > len(ns):
                return f"{alias}:{iri[len(ns):]}"
        return f"<{iri}>"

    # -- the oracle: certain memberships and edges of FIXTURE_TBOX ----------

    def pairs(self, role: str) -> set[tuple[str, str]]:
        return {(s, o) for s, r, o in self.edges if r == role}

    def members(self, cls: str) -> set[str]:
        """Objects entailed to be in ``cls``: told classes closed upwards,
        the domain axioms of worksFor/subOrganizationOf, the range axiom of
        headOf, and the two definitions (Employee, Chair)."""
        told = {o: _ancestors(c) if c else set() for o, c in self.told.items()}
        for s, r, o in self.edges:
            if r == "worksFor":
                told[s].add("Person")
            elif r == "subOrganizationOf":
                told[s].add("Organization")
            elif r == "headOf":
                told[o] |= _ancestors("Department")
        for s, r, o in self.edges:
            if r == "worksFor" and "Organization" in told[o]:
                told[s] |= _ancestors("Employee")
        for s, r, o in self.edges:
            if r == "headOf" and "Person" in told[s] and "Department" in told[o]:
                told[s] |= _ancestors("Chair")
        return {o for o, classes in told.items() if cls in classes}


# (associate professors, research groups, graduate students) per department
SHAPE = ((1, 2, 3), (0, 1, 0))


def generate_university(seed: int, role_only: int = 2, shape=SHAPE) -> University:
    """Departments of the given shape; 11 named objects by default.  The
    department namespaces sort the objects department by department, class
    by class, as LUBM names them.  The first ``role_only`` graduate
    students, in that order, carry no type assertion and are known only
    through their ``:worksFor`` edge.

    The seed numbers the university.  The shape (classes, edges, the order
    of the objects) is the same for every seed, because a refutation's cost
    depends on where an object sorts: runs on two seeds do the same work."""
    university = random.Random(seed).randrange(1000)
    u = University()
    u.prefixes[""] = UB
    groups: list[str] = []
    students: list[str] = []
    for k, (n_assoc, n_groups, n_students) in enumerate(shape):
        ns = f"http://www.Department{k}.University{university}.edu/"
        u.prefixes[f"d{k}"] = ns
        dept = u.add(ns.rstrip("/"), "Department")
        chair = u.add(ns + "FullProfessor0", "Chair" if k else "Professor")
        u.fact(chair, "headOf", dept)
        for i in range(n_assoc):
            u.fact(u.add(ns + f"AssociateProfessor{i}", "Professor"), "worksFor", dept)
        for g in range(n_groups):
            group = u.add(ns + f"ResearchGroup{g}", "ResearchGroup")
            u.fact(group, "subOrganizationOf", dept)
            groups.append(group)
        students += [ns + f"GraduateStudent{i}" for i in range(n_students)]
    untyped = students[:role_only]
    for i, iri in enumerate(students):
        u.add(iri, None if iri in untyped else "ResearchAssistant")
        u.fact(iri, "worksFor", groups[i % len(groups)])
    return u


@dataclass(frozen=True)
class Op:
    """One request: ``kind`` names how it is run, ``text`` is what the
    program receives, ``expected`` what it must answer."""

    kind: str
    text: str
    expected: object
    args: tuple = ()


def _select(var_names: str, where: str, rows) -> Op:
    """A query whose answer is ``rows``, deduplicated and in result-table
    order: sorted by cell text, absent cells first."""
    table = sorted((list(r) for r in set(rows)),
                   key=lambda row: [(c is not None, c or "") for c in row])
    return Op("select", f"SELECT {var_names} WHERE {{ {where} }}", table)


PROGRAM = """\
def researchGroups(org: `:Organization`): List[`:ResearchGroup`] =
  query "SELECT ?rg WHERE { ?rg a :ResearchGroup . ?rg :subOrganizationOf $org }"

def supervises(chair: `:Chair`): List[`:ResearchGroup`] =
  let deps = chair.`:headOf` in
  if nonEmpty(deps) then researchGroups(head(deps)) else nil[`:ResearchGroup`]
"""


def abox_stream(u: University) -> list[Op]:
    """One session's requests, each asked once: retrieval of every class,
    role patterns with each person and each organisation as the constant,
    the worked-example join, UNION/MINUS/OPTIONAL and a spliced program.
    Patterns with different constants ask for different entailments, so
    most ops pay for tableau runs of their own; the later compound ones
    are largely answered by the session's memo, as in a real session."""
    n = u.name
    groups = sorted(u.members("ResearchGroup"))
    depts = sorted(u.members("Department"))
    orgs = sorted(u.members("Organization"))
    people = sorted(u.members("Person"))
    works = u.pairs("worksFor")
    suborg = u.pairs("subOrganizationOf")
    heads = u.pairs("headOf")
    employee, chair = u.members("Employee"), u.members("Chair")
    professor = u.members("Professor")

    def works_for(x):
        return [(s,) for s, o in works if o == x]

    def parts(x):
        return [(s,) for s, o in suborg if o == x and s in groups]

    d, head = depts[0], sorted(chair)[0]
    headed = [o for s, o in heads if s == head]
    classes = ("Employee", "ResearchGroup", "Chair", "Person", "Organization",
               "Professor", "Department", "ResearchAssistant")
    return [
        *(_select("?x", f"?x a :{c}", [(x,) for x in u.members(c)]) for c in classes),
        *(_select("?x", f"{n(p)} :worksFor ?x", [(o,) for s, o in works if s == p])
          for p in people),
        *(_select("?x", f"?x :worksFor {n(o)}", works_for(o)) for o in orgs),
        *(_select("?g", f"?g :subOrganizationOf {n(x)}", parts(x)) for x in depts),
        *(_select("?x", f"?x :headOf {n(x)}", [(s,) for s, o in heads if o == x])
          for x in depts),
        _select("?x ?y", "?y :worksFor ?x . ?x a :ResearchGroup",
                [(o, s) for s, o in works if o in groups]),
        _select("?x", f"{{ ?x a :Chair }} UNION {{ ?x :worksFor {n(d)} }}",
                [(x,) for x in chair] + works_for(d)),
        _select("?x", "?x a :Employee MINUS { ?x a :Professor }",
                [(x,) for x in employee - professor]),
        # OPTIONAL keeps every left answer, plus the joins that bind ?g.
        _select("?x ?g", "?x a :Employee OPTIONAL { ?x :worksFor ?g . ?g a :ResearchGroup }",
                [(x, None) for x in employee]
                + [(s, o) for s, o in works if s in employee and o in groups]),
        Op("program", f"{PREFIX}\n{PROGRAM}\nmain = supervises(iri(<{head}>))\n",
           sorted(s for x in headed for (s,) in parts(x))),
    ]


# --- tbox-typing: a univ-bench-sized schema ---------------------------------

UNIV_BENCH_TBOX = FIXTURE_TBOX + (
    ":University SubClassOf :Organization",
    ":Faculty SubClassOf :Employee",
    ":Professor SubClassOf :Faculty",
    ":FullProfessor SubClassOf :Professor",
    ":AssociateProfessor SubClassOf :Professor",
    ":AssistantProfessor SubClassOf :Professor",
    ":Lecturer SubClassOf :Faculty",
    ":AdministrativeStaff SubClassOf :Employee",
    ":ClericalStaff SubClassOf :AdministrativeStaff",
    ":Student EquivalentTo :Person and :takesCourse some :Course",
    ":GraduateStudent SubClassOf :Person and :takesCourse some :GraduateCourse",
    ":GraduateCourse SubClassOf :Course",
    ":UndergraduateStudent SubClassOf :Student",
    ":TeachingAssistant EquivalentTo :Person and :teachingAssistantOf some :Course",
    ":Course and :Person SubClassOf Nothing",
    ":Course and :Organization SubClassOf Nothing",
    ":teacherOf some Thing SubClassOf :Faculty",
    "Thing SubClassOf :teacherOf only :Course",
    ":takesCourse some Thing SubClassOf :Person",
    "Thing SubClassOf :takesCourse only :Course",
    ":memberOf some Thing SubClassOf :Person",
    ":Student and :worksFor some :ResearchGroup SubClassOf :ResearchAssistant",
)

# Every entailed atomic subsumption of UNIV_BENCH_TBOX, worked out by hand:
# class -> all its named superclasses (itself included).
_PERSON, _EMP, _FAC = ("Person",), ("Employee", "Person"), ("Faculty", "Employee", "Person")
_PROF = ("Professor",) + _FAC
UNIV_BENCH_SUPERS = {
    "Person": _PERSON,
    "Organization": ("Organization",),
    "Employee": _EMP,
    "Faculty": _FAC,
    "Professor": _PROF,
    "Chair": ("Chair",) + _PROF,
    "FullProfessor": ("FullProfessor",) + _PROF,
    "AssociateProfessor": ("AssociateProfessor",) + _PROF,
    "AssistantProfessor": ("AssistantProfessor",) + _PROF,
    "Lecturer": ("Lecturer",) + _FAC,
    "AdministrativeStaff": ("AdministrativeStaff",) + _EMP,
    "ClericalStaff": ("ClericalStaff", "AdministrativeStaff") + _EMP,
    "ResearchAssistant": ("ResearchAssistant",) + _EMP,
    "Department": ("Department", "Organization"),
    "ResearchGroup": ("ResearchGroup", "Organization"),
    "University": ("University", "Organization"),
    "Student": ("Student",) + _PERSON,
    "GraduateStudent": ("GraduateStudent", "Student") + _PERSON,
    "UndergraduateStudent": ("UndergraduateStudent", "Student") + _PERSON,
    "TeachingAssistant": ("TeachingAssistant",) + _PERSON,
    "Course": ("Course",),
    "GraduateCourse": ("GraduateCourse", "Course"),
}

# (concept, satisfiable?)
SAT_CASES = (
    (":Chair", True),
    (":GraduateStudent and :TeachingAssistant", True),
    (":ClericalStaff and :takesCourse some :GraduateCourse", True),
    (":AssistantProfessor and :headOf some :Department", True),
    (":Lecturer and :memberOf some :ResearchGroup", True),
    (":Person and :Organization", False),
    (":Course and :Student", False),
    (":Lecturer and :worksFor only not :Organization", False),
    (":Faculty and not :Employee", False),
    (":Student and :worksFor some :ResearchGroup and not :Employee", False),
    (":Department and :teacherOf some Thing", False),
    (":TeachingAssistant and :Course", False),
)

WORKS = "SELECT ?x ?y WHERE { ?y :worksFor ?x . ?x a :ResearchGroup }"
# (query, variables typed by infer_query) for splice-free queries.
INFER_CASES = (
    (WORKS, ("x", "y")),
    ("SELECT ?x WHERE { ?x a :Student MINUS { ?x a :GraduateStudent } }", ("x",)),
    ("SELECT ?x ?c WHERE { ?x a :TeachingAssistant . ?x :teachingAssistantOf ?c }",
     ("c", "x")),
    ("SELECT ?x WHERE { { ?x a :Lecturer } UNION { ?x :teacherOf ?c } }", ("c", "x")),
    ("SELECT ?x ?g WHERE { ?x a :Employee OPTIONAL { ?x :worksFor ?g } }", ("g", "x")),
)
# (query, splice types, mode, outcome kind)
VALIDATE_CASES = (
    (WORKS, {}, "nonstrict", "Valid"),
    ("SELECT ?x WHERE { $t :worksFor ?x . ?x a :ResearchGroup }",
     {"t": ":Employee"}, "nonstrict", "Valid"),
    ("SELECT ?x WHERE { $t :worksFor ?x . ?x a :ResearchGroup }",
     {"t": ":Employee"}, "strict", "SpliceMismatch"),
    ("SELECT ?x WHERE { $t :worksFor ?x . ?x a :ResearchGroup }",
     {"t": ":ResearchAssistant"}, "strict", "Valid"),
    ("SELECT ?x WHERE { $t :worksFor ?x . ?x a :ResearchGroup }",
     {"t": ":Organization"}, "nonstrict", "SpliceMismatch"),
    ("SELECT ?x WHERE { ?x a :Person . ?x a :Organization }", {}, "nonstrict",
     "Unsatisfiable"),
    ("SELECT ?y WHERE { ?x a :Course MINUS { ?y a :Person } }", {}, "nonstrict",
     "UntypedSelectVar"),
    ("SELECT ?x WHERE { ?x :takesCourse $c }", {"c": ":Department"}, "nonstrict",
     "SpliceMismatch"),
    ("SELECT ?x WHERE { ?x :takesCourse $c }", {"c": ":GraduateCourse"}, "nonstrict",
     "Valid"),
    ("SELECT ?x WHERE { ?x :takesCourse $c }", {"c": ":GraduateCourse"}, "strict",
     "SpliceMismatch"),
    ("SELECT ?p WHERE { ?p :teacherOf ?c . ?c a :Department }", {}, "nonstrict",
     "Unsatisfiable"),
    ("SELECT ?x ?c WHERE { ?x a :GraduateStudent . ?x :takesCourse ?c }", {}, "strict",
     "Valid"),
)

FIXTURE_PROGRAM = f"{PREFIX}\n\n{PROGRAM}\nmain = supervises(iri(:alice))\n"
# (program, mode, outcome: "ok" or the error category)
TYPECHECK_CASES = (
    (FIXTURE_PROGRAM, "full", "ok"),
    (FIXTURE_PROGRAM, "tbox_only", "E-SUB"),
    (f"{PREFIX}\n{PROGRAM}\ndef broken(p: `:Person`): List[`:ResearchGroup`] =\n"
     "  researchGroups(p)\n\nmain = broken(iri(:alice))\n", "full", "E-SUB"),
    (f"{PREFIX}\ndef employers(org: `:Organization`): List[`Thing`] =\n"
     "  org.`:worksFor`\n\nmain = employers(iri(:softlang))\n", "full", "E-ACCESS"),
    (f"{PREFIX}\ndef impossible(): List[`:Person`] =\n"
     "  query \"SELECT ?x WHERE { ?x a [:Person and :Organization] }\"\n\n"
     "main = impossible()\n", "full", "E-SAT"),
    (f"{PREFIX}\ndef staff(g: `:ResearchGroup`): List[`:Person`] =\n"
     "  query \"SELECT ?p WHERE { ?p :worksFor $g }\"\n\n"
     "main = staff(iri(:softlang))\n", "full", "ok"),
)


def tbox_stream(rng: random.Random) -> list[Op]:
    """One session's static checks: every hand-written sat, typing,
    validation and program case, and 32 subsumptions (four entailed),
    kind by kind, then the first of each kind again, which the session's
    memo answers.  The seed orders the cases within each kind; which
    subsumptions are asked is fixed, so every seed asks for the same work."""
    classes = sorted(UNIV_BENCH_SUPERS)
    fixed = random.Random(0)
    true_pairs = fixed.sample(
        [(c, d) for c in classes for d in UNIV_BENCH_SUPERS[c] if c != d], 4)
    false_pairs = fixed.sample(
        [(c, d) for c in classes for d in classes if d not in UNIV_BENCH_SUPERS[c]], 28)
    kinds = [
        [Op("sat", c, v) for c, v in SAT_CASES],
        [Op("sub", f":{c} SubClassOf :{d}", d in UNIV_BENCH_SUPERS[c])
         for c, d in true_pairs + false_pairs],
        [Op("infer", q, v) for q, v in INFER_CASES],
        [Op("validate", q, k, (tuple(s.items()), m)) for q, s, m, k in VALIDATE_CASES],
        [Op("typecheck", p, k, (m,)) for p, m, k in TYPECHECK_CASES],
    ]
    kinds = [rng.sample(ops, len(ops)) for ops in kinds]
    return [op for ops in kinds for op in ops] + [ops[0] for ops in kinds]


# --- cli-oneshot: the fixture files, one dlq process per op -----------------

CLI_FILES = {
    "university.kb": kb_text(FIXTURE_TBOX, FIXTURE_ABOX),
    "university_extended.kb": kb_text(FIXTURE_TBOX, EXTENDED_ABOX),
    "university.dlq": FIXTURE_PROGRAM,
}
_KB, _EXT = ("--kb", "university.kb"), ("--kb", "university_extended.kb")
_SPLICED = "SELECT ?x WHERE { $t :worksFor ?x . ?x a :ResearchGroup }"
_GROUPS = "SELECT ?rg WHERE { ?rg a :ResearchGroup . ?rg :subOrganizationOf $org }"
# kind -> [(argv, exit code, stdout)].  A stdout of MODEL means "true" and a
# witness model, whose element numbering the tableau is free to choose.
MODEL = "<model>"
CLI_CASES = {
    "sat": [
        (("reason", "sat", ":Chair", "--show-model") + _KB, 0, MODEL),
        (("reason", "sat", ":Employee and :worksFor some :ResearchGroup",
          "--show-model") + _KB, 0, MODEL),
        (("reason", "sat", ":Person and :Organization", "--show-model") + _KB,
         0, "false\n"),
    ],
    "sub": [
        (("reason", "sub", ":ResearchAssistant", ":Employee") + _KB, 0, "true\n"),
        (("reason", "sub", ":Chair", ":Person") + _KB, 0, "true\n"),
        (("reason", "sub", ":Employee", ":Chair") + _KB, 0, "false\n"),
    ],
    "instance": [
        (("reason", "instance", ":bob", ":Employee") + _KB, 0, "true\n"),
        (("reason", "instance", ":alice", ":Employee") + _KB, 0, "true\n"),
        (("reason", "instance", ":softlang", ":Person") + _KB, 0, "false\n"),
    ],
    "role": [
        (("reason", "role", ":bob", ":worksFor", ":softlang") + _KB, 0, "true\n"),
        (("reason", "role", ":alice", ":worksFor", ":softlang") + _KB, 0, "false\n"),
        (("reason", "role", ":alice", ":headOf", ":csdept") + _EXT, 0, "true\n"),
    ],
    "query-type": [
        (("query", "type", WORKS) + _KB, 0,
         "?x: inv(:worksFor) some :worksFor some Thing and :ResearchGroup\n"
         "?y: :worksFor some (inv(:worksFor) some Thing and :ResearchGroup)\n"),
        (("query", "type", _SPLICED, "--splice", "t=:Employee") + _KB, 0,
         "?x: inv(:worksFor) some :worksFor some Thing and :ResearchGroup\n"
         "$t: :worksFor some (inv(:worksFor) some Thing and :ResearchGroup)\n"),
        (("query", "type", _SPLICED, "--strict", "--splice", "t=:Employee") + _KB,
         1, ""),
    ],
    "query-run": [
        (("query", "run", WORKS) + _KB, 0, "?x         ?y\n:softlang  :bob\n"),
        (("query", "run", _GROUPS, "--splice", "org=:csdept") + _EXT, 0,
         "?rg\n:rg1\n"),
        (("query", "run", "SELECT ?x WHERE { ?x a :Department }") + _KB, 0, "?x\n"),
    ],
    "lang-check": [
        (("lang", "check", "university.dlq") + _KB, 0,
         "OK researchGroups(`:Organization`): List[`:ResearchGroup`]\n"
         "OK supervises(`:Chair`): List[`:ResearchGroup`]\nOK main\n"),
        (("lang", "check", "university.dlq", "--mode", "tbox-only") + _KB, 1, ""),
    ],
    "lang-run": [
        (("lang", "run", "university.dlq") + _EXT, 0, "[:rg1]\n"),
        (("lang", "run", "university.dlq") + _KB, 0, "[]\n"),
    ],
}


def cli_stream(rng: random.Random) -> list[Op]:
    """Every case once, in the seed's order."""
    ops = [Op(kind, " ".join(argv), (code, out), argv)
           for kind, cases in CLI_CASES.items() for argv, code, out in cases]
    return rng.sample(ops, len(ops))
