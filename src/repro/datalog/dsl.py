"""The embedded Datalog DSL: Carac's user-facing API, in Python.

The paper's running example (Fig. 1a) declares relations and variables on a
``Program`` object and writes rules with ``:-``.  The Python equivalent::

    from repro import Program

    program = Program("cspa")
    VaFlow, VAlias, MAlias, Assign, Derefr = program.relations(
        "VaFlow", "VAlias", "MAlias", "Assign", "Derefr", arity=2
    )
    v0, v1, v2, v3 = program.variables("v0", "v1", "v2", "v3")

    VaFlow(v1, v2) <= MAlias(v3, v2) & Assign(v1, v3)
    VaFlow(v1, v2) <= VaFlow(v3, v2) & VaFlow(v1, v3)
    ...
    Assign.add_fact(1, 2)
    result = program.database().query("VaFlow")   # a QueryResult

``head <= body`` registers the rule with the program immediately (rules are
values too, mirroring Carac's first-class constraints: ``program.rule(head,
[a, b, c])`` is the explicit form).  ``&`` chains body literals, ``~atom``
negates, and :func:`repro.datalog.literals.let` / arithmetic on variables
provide the built-ins used by the microbenchmark programs.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

if TYPE_CHECKING:  # execution layers sit above the DSL; import only for types
    from repro.api.database import Database
    from repro.core.config import EngineConfig
    from repro.engine.engine import ExecutionEngine
    from repro.incremental.session import IncrementalSession

from repro.datalog.literals import (
    Assignment,
    Atom,
    Comparison,
    Conjunction,
    Literal,
    PendingRule,
)
from repro.datalog.program import DatalogProgram
from repro.datalog.rules import Fact, Rule
from repro.datalog.terms import Variable


class DSLAtom(Atom):
    """An atom created through the DSL; ``<=`` registers the rule immediately."""

    _program: "Program"

    def __init__(self, program: "Program", relation: str, terms: Tuple[Any, ...],
                 negated: bool = False) -> None:
        super().__init__(relation, terms, negated)
        object.__setattr__(self, "_program", program)

    def negate(self) -> "DSLAtom":
        return DSLAtom(self._program, self.relation, self.terms, not self.negated)

    def __le__(self, body: Any) -> Rule:  # type: ignore[override]
        conjunction = Conjunction.coerce(body)
        return self._program.rule(self, list(conjunction.literals))


class RelationHandle:
    """A named relation bound to a :class:`Program`.

    Calling the handle with terms produces an atom; ``add_fact`` inserts a
    ground tuple into the program's extensional data for this relation.
    """

    def __init__(self, program: "Program", name: str, arity: Optional[int] = None,
                 columns: Optional[Sequence[str]] = None) -> None:
        self._program = program
        self.name = name
        if columns is not None:
            columns = tuple(columns)
            if arity is None:
                arity = len(columns)
        self.arity = arity
        self.columns = columns

    def __call__(self, *terms: Any) -> DSLAtom:
        if self.arity is None:
            self.arity = len(terms)
            self._program.datalog.declare_relation(self.name, self.arity)
        elif len(terms) != self.arity:
            raise ValueError(
                f"relation {self.name!r} has arity {self.arity}, got {len(terms)} terms"
            )
        return DSLAtom(self._program, self.name, tuple(terms))

    def add_fact(self, *values: Any) -> Fact:
        """Add a single ground fact to this relation."""
        if self.arity is None:
            self.arity = len(values)
        return self._program.datalog.add_fact(self.name, values)

    def add_facts(self, rows: Iterable[Sequence[Any]]) -> int:
        """Bulk-add ground facts; returns the number inserted."""
        count = 0
        for row in rows:
            self.add_fact(*row)
            count += 1
        return count

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"RelationHandle({self.name!r}, arity={self.arity})"


class Program:
    """User-facing Datalog program builder (and, lazily, runner).

    The class intentionally mixes declaration and execution convenience:
    ``solve()`` instantiates an execution engine from :mod:`repro.engine`
    with the supplied (or default) configuration, evaluates the program to
    fixpoint, and returns the requested relation.  All heavy lifting lives in
    the engine; this object only holds the AST.
    """

    def __init__(self, name: str = "program") -> None:
        self.datalog = DatalogProgram(name)
        self._relation_handles: Dict[str, RelationHandle] = {}
        self._variable_counter = 0

    # -- declaration ----------------------------------------------------------

    def relation(self, name: str, arity: Optional[int] = None,
                 columns: Optional[Sequence[str]] = None) -> RelationHandle:
        """Declare (or fetch) a relation handle by name.

        ``columns`` optionally names the relation's columns (implying the
        arity); the names flow into every ``QueryResult`` schema for this
        relation (``.to_dicts()`` / ``.to_columns()`` keys).
        """
        handle = self._relation_handles.get(name)
        if handle is None:
            handle = RelationHandle(self, name, arity, columns)
            if handle.arity is not None:
                self.datalog.declare_relation(name, handle.arity, handle.columns)
            self._relation_handles[name] = handle
        else:
            if arity is not None and handle.arity is None:
                handle.arity = arity
                self.datalog.declare_relation(name, arity)
            if columns is not None:
                handle.columns = tuple(columns)
                if handle.arity is None:
                    handle.arity = len(handle.columns)
                self.datalog.declare_relation(
                    name, handle.arity, handle.columns
                )
        return handle

    def relations(self, *names: str, arity: Optional[int] = None) -> List[RelationHandle]:
        """Declare several relations at once (all with the same arity)."""
        return [self.relation(name, arity) for name in names]

    def variable(self, name: Optional[str] = None) -> Variable:
        """Create a fresh logic variable."""
        if name is None:
            self._variable_counter += 1
            name = f"_v{self._variable_counter}"
        return Variable(name)

    def variables(self, *names: str) -> List[Variable]:
        return [self.variable(name) for name in names]

    def rule(self, head: Atom, body: Sequence[Literal], name: str = "") -> Rule:
        """Register a rule explicitly (the ``<=`` operator calls this)."""
        plain_head = Atom(head.relation, head.terms)
        plain_body: List[Literal] = []
        for literal in body:
            if isinstance(literal, DSLAtom):
                plain_body.append(Atom(literal.relation, literal.terms, literal.negated))
            else:
                plain_body.append(literal)
        return self.datalog.add_rule(plain_head, plain_body, name)

    def fact(self, relation: str, *values: Any) -> Fact:
        """Add a ground fact by relation name."""
        return self.datalog.add_fact(relation, values)

    # -- execution (lazy import of the engine to avoid layering cycles) -------

    def database(self, config: Optional["EngineConfig"] = None) -> "Database":
        """Open a :class:`repro.Database` over this program.

        The single entry point of the public API: ``program.database()``,
        then ``.connect()`` for stateful connections or ``.query()`` for
        one-shot reads returning :class:`~repro.api.result.QueryResult`
        objects.
        """
        from repro.api.database import Database

        return Database(self.datalog, config)

    def engine(self, config: Optional["EngineConfig"] = None) -> "ExecutionEngine":
        """Build (but do not run) an execution engine for this program."""
        from repro.engine import ExecutionEngine

        return ExecutionEngine(self.datalog, config)

    def session(self, config: Optional["EngineConfig"] = None) -> "IncrementalSession":
        """Build a long-lived :class:`repro.incremental.IncrementalSession`.

        The session snapshots the program as currently declared; facts added
        through the DSL afterwards do not reach it — use the session's
        ``insert_facts`` / ``retract_facts`` instead.  Most callers want
        :meth:`database` and ``connect()`` instead, whose connections wrap a
        session and return :class:`~repro.api.result.QueryResult` objects.
        """
        from repro.incremental import IncrementalSession

        return IncrementalSession(self.datalog, config)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Program({self.datalog!r})"
