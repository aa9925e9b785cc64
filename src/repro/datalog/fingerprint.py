"""Stable structural fingerprints of Datalog programs.

Durability checkpoints and traces name the program they belong to, and a
checkpoint must never be installed under a change to the *logic* of the
program (its declarations and rules).  ``repr`` of the AST is unsuitable as
that name: it is a debug aid with no stability contract, and Python's
per-process hash randomisation rules out ``hash``.  This module
canonicalises the AST into a deterministic byte string and hashes it with
SHA-256, so the fingerprint is stable across processes and Python versions.

Facts are *not* part of the fingerprint — the whole point of an incremental
session is that the fact base changes while the program stands still;
fact-dependent validity is the storage layer's per-relation generation
counters (:meth:`repro.relational.storage.StorageManager.generation`).
"""

from __future__ import annotations

import hashlib
from typing import Any, Iterable, List

from repro.datalog.literals import Assignment, Atom, Comparison, Literal
from repro.datalog.program import DatalogProgram
from repro.datalog.rules import Rule
from repro.datalog.terms import (
    Aggregate,
    BinaryExpression,
    Constant,
    Term,
    Variable,
)


def _canonical_value(value: Any) -> str:
    """A type-tagged rendering of a constant value (1 != "1" != 1.0)."""
    if isinstance(value, bool):  # bool before int: True is an int
        return f"b:{value}"
    if isinstance(value, int):
        return f"i:{value}"
    if isinstance(value, float):
        return f"f:{value!r}"
    if isinstance(value, str):
        return f"s:{value!r}"
    if isinstance(value, tuple):
        return "t:(" + ",".join(_canonical_value(v) for v in value) + ")"
    return f"o:{type(value).__name__}:{value!r}"


def _canonical_term(term: Term) -> str:
    if isinstance(term, Variable):
        return f"V({term.name})"
    if isinstance(term, Constant):
        return f"C({_canonical_value(term.value)})"
    if isinstance(term, BinaryExpression):
        return (
            f"E({term.op},{_canonical_term(term.left)},{_canonical_term(term.right)})"
        )
    if isinstance(term, Aggregate):
        return f"G({term.func},{_canonical_term(term.target)})"
    raise TypeError(f"cannot fingerprint term {term!r}")


def _canonical_literal(literal: Literal) -> str:
    if isinstance(literal, Atom):
        sign = "!" if literal.negated else ""
        args = ",".join(_canonical_term(t) for t in literal.terms)
        return f"{sign}{literal.relation}({args})"
    if isinstance(literal, Comparison):
        return (
            f"cmp({literal.op},{_canonical_term(literal.left)},"
            f"{_canonical_term(literal.right)})"
        )
    if isinstance(literal, Assignment):
        return (
            f"asn({_canonical_term(literal.target)},"
            f"{_canonical_term(literal.expression)})"
        )
    raise TypeError(f"cannot fingerprint literal {literal!r}")


def canonical_rule(rule: Rule) -> str:
    """A deterministic one-line rendering of one rule (order-preserving)."""
    body = ",".join(_canonical_literal(l) for l in rule.body)
    return f"{_canonical_literal(rule.head)}:-{body}"


def canonical_program(program: DatalogProgram) -> str:
    """The canonical text the fingerprint hashes.

    Rule order is preserved (it is semantically irrelevant but performance
    relevant, and the session's AOT decisions depend on it); declarations are
    sorted by name so dict insertion order cannot leak into the key.
    """
    lines: List[str] = [f"program:{program.name}"]
    for name in sorted(program.relations):
        decl = program.relations[name]
        lines.append(f"rel:{name}/{decl.arity}")
    for rule in program.rules:
        lines.append("rule:" + canonical_rule(rule))
    return "\n".join(lines)


def fingerprint_program(program: DatalogProgram) -> str:
    """SHA-256 hex digest of the program's canonical form."""
    text = canonical_program(program)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def fingerprint_rules(rules: Iterable[Rule]) -> str:
    """Fingerprint of a bare rule sequence (used by plan-level caches)."""
    text = "\n".join(canonical_rule(rule) for rule in rules)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
