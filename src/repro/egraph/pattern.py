"""Pattern language and e-matching for rewrite rules.

Patterns are written as s-expressions; ``?x`` is a pattern variable::

    (sin (~ ?x))            matches sin of a negated subterm
    (+ (* (sin ?x) (sin ?x)) (* (cos ?x) (cos ?x)))   the Pythagorean LHS

Matching is the standard backtracking e-matching procedure: a pattern
node matches an e-class if any e-node in the class has the same operator
and every child pattern matches the corresponding child class.  As in
egg, each pattern is compiled once (:func:`compile_pattern`) into a
matcher -- generated Python source, like the expression JIT -- that
walks an operator index of the graph (:meth:`EGraph.op_index`), so a
rule visits only the classes that hold its head operator; each right
side is compiled the same way into a builder (:func:`compile_builder`).
"""

from __future__ import annotations

import functools
import sys
from collections.abc import Callable, Iterable
from dataclasses import dataclass

from .egraph import EGraph, OpIndex

__all__ = [
    "Pattern", "PatVar", "PatNode", "parse_pattern", "Rewrite",
    "CompiledPattern", "compile_pattern", "compile_builder",
    "match_in_class", "instantiate",
]


@dataclass(frozen=True)
class PatVar:
    """A pattern variable, written ``?name``."""

    name: str


@dataclass(frozen=True)
class PatNode:
    """A concrete operator pattern with child patterns.

    Leaves use ``payload``: ``("const", 2.0)``, ``("var", "x")``, or
    ``("pi", None)``.
    """

    op: str
    payload: object = None
    children: tuple["Pattern", ...] = ()


Pattern = PatVar | PatNode


def parse_pattern(text: str) -> Pattern:
    """Parse an s-expression pattern string."""
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    pos = 0

    def parse() -> Pattern:
        nonlocal pos
        tok = tokens[pos]
        pos += 1
        if tok == "(":
            op = tokens[pos]
            pos += 1
            children = []
            while tokens[pos] != ")":
                children.append(parse())
            pos += 1
            return PatNode(op=op, children=tuple(children))
        if tok == ")":
            raise ValueError("unexpected ')' in pattern")
        if tok.startswith("?"):
            return PatVar(tok[1:])
        if tok == "pi":
            return PatNode(op="pi")
        try:
            return PatNode(op="const", payload=float(tok))
        except ValueError:
            return PatNode(op="var", payload=tok)

    result = parse()
    if pos != len(tokens):
        raise ValueError("trailing tokens in pattern")
    return result


def match_in_class(
    egraph: EGraph, pattern: Pattern, cid: int,
    limit: int | None = None,
) -> list[dict[str, int]]:
    """All substitutions under which ``pattern`` matches e-class ``cid``,
    at most ``limit`` complete matches."""
    found = compile_pattern(pattern).search(
        egraph, egraph.op_index(), sys.maxsize if limit is None else limit,
        roots=(egraph.find(cid),),
    )
    return [subst for _, subst in found]


class CompiledPattern:
    """A pattern compiled to nested loops over an :data:`OpIndex`.

    The generated ``match(r, out, stop)`` enumerates the matches rooted
    at class ``r`` depth first, in pattern preorder: one loop per
    pattern node over the index's nodes with that operator, each
    pattern variable bound to a local on its first occurrence and
    compared on later ones.  Matches come out in e-class node order,
    as a recursive backtracking matcher produces them.  Operators have
    fixed arity: a node's children are unpacked positionally.
    """

    __slots__ = ("head", "source", "_ops", "_consts", "_factory")

    def __init__(self, pattern: Pattern):
        #: the root operator; ``None`` for a bare variable, which
        #: matches every class
        self.head = None if isinstance(pattern, PatVar) else pattern.op
        self.source, self._ops, self._consts = _matcher_source(pattern)
        self._factory = _load(self.source)

    def search(
        self, egraph: EGraph, index: OpIndex, limit: int,
        roots: Iterable[int] | None = None,
    ) -> list[tuple[int, dict[str, int]]]:
        """``(class id, substitution)`` for every match rooted at one of
        ``roots`` (default: every class holding the head operator), at
        most ``limit`` complete matches per class."""
        tables = [index.get(op) for op in self._ops]
        if None in tables:
            return []  # an operator of the pattern occurs nowhere
        match = self._factory(*self._consts, *tables)
        if roots is None:
            roots = egraph.classes if self.head is None else index[self.head]
        out: list[tuple[int, dict[str, int]]] = []
        for cid in roots:
            match(cid, out, len(out) + limit)
        return out


@functools.cache
def compile_pattern(pattern: Pattern) -> CompiledPattern:
    """The matcher for ``pattern``, compiled once per process."""
    return CompiledPattern(pattern)


def _matcher_source(pattern: Pattern) -> tuple[str, list[str], list]:
    """Source of ``factory(K..., T...) -> match`` for ``pattern``, the
    operator of each index table ``T<k>`` and the value of each literal
    ``K<k>``."""
    ops: list[str] = []
    consts: list = []
    bound: dict[str, str] = {}
    body: list[str] = []
    indent = 2
    fresh = 0

    def line(text: str) -> None:
        body.append("    " * indent + text)

    # Pattern preorder: a node's children go to the front of the queue.
    todo: list[tuple[Pattern, str]] = [(pattern, "r")]
    while todo:
        pat, cls = todo.pop(0)
        if isinstance(pat, PatVar):
            if pat.name not in bound:
                bound[pat.name] = cls
                continue
            line(f"if {cls} == {bound[pat.name]}:")
        else:
            if pat.op not in ops:
                ops.append(pat.op)
            table = f"T{ops.index(pat.op)}"
            if pat.children:
                names = [f"c{fresh + k}" for k in range(len(pat.children))]
                fresh += len(names)
                line(f"for {_tuple(names)} in {table}.get({cls}, ()):")
                todo[:0] = zip(pat.children, names)
            elif pat.op in ("const", "var"):
                consts.append(pat.payload)
                line(f"for v{fresh} in {table}.get({cls}, ()):")
                indent += 1
                line(f"if v{fresh} == K{len(consts) - 1}:")
                fresh += 1
            else:
                line(f"for _ in {table}.get({cls}, ()):")
        indent += 1
    subst = ", ".join(f"{name!r}: {local}" for name, local in bound.items())
    line(f"out.append((r, {{{subst}}}))")
    line("if len(out) >= stop:")
    line("    return")
    params = [f"K{k}" for k in range(len(consts))]
    params += [f"T{k}" for k in range(len(ops))]
    source = "\n".join([
        f"def factory({', '.join(params)}):",
        "    def match(r, out, stop):",
        *body,
        "    return match",
        "",
    ])
    return source, ops, consts


@functools.cache
def compile_builder(pattern: Pattern) -> Callable[..., int]:
    """``build(add, find, subst) -> class id`` for ``pattern``: adds its
    nodes under ``subst`` through ``add``, children first, and returns
    the root's canonical class.  Compiled once per process."""
    consts: list = []
    body: list[str] = []

    def emit(pat: Pattern) -> str:
        if isinstance(pat, PatVar):
            return f"s[{pat.name!r}]"
        args = _tuple([emit(c) for c in pat.children])
        payload = "None"
        if pat.payload is not None:
            consts.append(pat.payload)
            payload = f"K{len(consts) - 1}"
        body.append(f"        t{len(body)} = add({pat.op!r}, {payload}, ({args}))")
        return f"t{len(body) - 1}"

    result = emit(pattern)
    source = "\n".join([
        f"def factory({', '.join(f'K{k}' for k in range(len(consts)))}):",
        "    def build(add, find, s):",
        *body,
        f"        return find({result})",
        "    return build",
        "",
    ])
    return _load(source)(*consts)


def instantiate(
    egraph: EGraph, pattern: Pattern, subst: dict[str, int]
) -> int:
    """Build the pattern in the e-graph under a substitution."""
    return compile_builder(pattern)(egraph.add, egraph.find, subst)


def _tuple(names: list[str]) -> str:
    """The items of a tuple display or target, with the trailing comma a
    one-element tuple needs."""
    return ", ".join(names) + ("," if len(names) == 1 else "")


def _load(source: str):
    """The ``factory`` function that generated ``source`` defines."""
    namespace: dict = {}
    exec(compile(source, "<pattern>", "exec"), namespace)
    return namespace["factory"]


class Rewrite:
    """A directed rewrite rule ``lhs => rhs``."""

    __slots__ = ("name", "lhs", "rhs", "matcher", "builder")

    def __init__(self, name: str, lhs: str | Pattern, rhs: str | Pattern):
        self.name = name
        self.lhs = parse_pattern(lhs) if isinstance(lhs, str) else lhs
        self.rhs = parse_pattern(rhs) if isinstance(rhs, str) else rhs
        self.matcher = compile_pattern(self.lhs)
        self.builder = compile_builder(self.rhs)

    def search(
        self, egraph: EGraph, limit_per_class: int = 32,
        index: OpIndex | None = None,
    ) -> list[tuple[int, dict[str, int]]]:
        """Find (matched class id, substitution) pairs across the graph.

        ``limit_per_class`` caps the complete matches kept per class, the
        first ones in match order.  Partial matches are not truncated
        (the interpreted matcher this replaced also cut every
        intermediate list of partial matches at the limit).  ``index``
        is the search phase's :meth:`EGraph.op_index`; one is built when
        it is not given.
        """
        if index is None:
            index = egraph.op_index()
        return self.matcher.search(egraph, index, limit_per_class)

    def apply(
        self, egraph: EGraph, matches: list[tuple[int, dict[str, int]]]
    ) -> int:
        """Union each matched class with the instantiated RHS (built by
        the compiled :func:`compile_builder`)."""
        changed = 0
        build, add, find = self.builder, egraph.add, egraph.find
        for cid, subst in matches:
            rhs_id = build(add, find, subst)
            root = find(cid)
            if rhs_id != root:
                egraph.union(rhs_id, root)
                changed += 1
        return changed

    def __repr__(self) -> str:
        return f"Rewrite({self.name})"


def bidirectional(name: str, lhs: str, rhs: str) -> list[Rewrite]:
    """A pair of rewrites for ``lhs <=> rhs``."""
    return [Rewrite(name, lhs, rhs), Rewrite(f"{name}-rev", rhs, lhs)]
