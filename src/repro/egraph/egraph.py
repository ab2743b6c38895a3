"""An e-graph with hash-consing, union-find, and congruence rebuilding.

This is a from-scratch implementation of the data structure used by the
EGG library (Willsey et al., POPL 2021) that OpenQudit builds on for its
expression optimizer (paper section III-C).  It follows egg's deferred
rebuilding design: unions enqueue the merged class on a worklist and
congruence closure is restored in a single :meth:`EGraph.rebuild` pass.

An e-node is a tuple ``(op, payload, children)`` where ``children`` are
e-class ids; ``payload`` carries the constant value or variable name for
leaves.  A constant-folding analysis runs alongside: whenever every child
of an e-node has a known numeric value, the parent class is assigned the
folded value and a literal e-node is injected so that extraction can pick
the cheap constant form.

Each e-class keeps its nodes in insertion order (a dict used as an
ordered set).  A ``set`` would iterate in an order that follows string
hashing, which Python randomizes per process, so match order, union
order and extraction tie-breaks -- and with them the simplified
expression -- would change with ``PYTHONHASHSEED``.
"""

from __future__ import annotations

import math
from collections.abc import Iterable

from ..symbolic import expr as E
from ..symbolic.expr import Expr

__all__ = ["ENode", "EClass", "EGraph", "OpIndex"]

ENode = tuple  # (op: str, payload: float | str | None, children: tuple[int, ...])

#: ``index[op][cid]``: the nodes with operator ``op`` in canonical class
#: ``cid``, each as its canonical children tuple -- or, for a leaf, its
#: payload.  Classes and nodes appear in insertion order.
OpIndex = dict[str, dict[int, list]]


class EClass:
    """An equivalence class of e-nodes."""

    __slots__ = ("id", "nodes", "parents", "const")

    def __init__(self, cid: int):
        self.id = cid
        self.nodes: dict[ENode, None] = {}  # ordered set
        # (parent enode as last canonicalized, parent class id)
        self.parents: list[tuple[ENode, int]] = []
        self.const: float | None = None

    def __repr__(self) -> str:
        return f"EClass({self.id}, nodes={len(self.nodes)}, const={self.const})"


class EGraph:
    """The e-graph.  See module docstring."""

    def __init__(self, constant_folding: bool = True):
        self._parent: list[int] = []
        self.memo: dict[ENode, int] = {}
        self.classes: dict[int, EClass] = {}
        self._worklist: list[int] = []
        self.constant_folding = constant_folding
        self._n_unions = 0

    # ------------------------------------------------------------------
    # Union-find
    # ------------------------------------------------------------------
    def find(self, cid: int) -> int:
        parent = self._parent
        root = cid
        while parent[root] != root:
            root = parent[root]
        while parent[cid] != root:
            parent[cid], cid = root, parent[cid]
        return root

    def _new_class(self) -> EClass:
        cid = len(self._parent)
        self._parent.append(cid)
        cls = EClass(cid)
        self.classes[cid] = cls
        return cls

    # ------------------------------------------------------------------
    # Adding
    # ------------------------------------------------------------------
    def canonicalize(self, node: ENode) -> ENode:
        op, payload, children = node
        return (op, payload, tuple(map(self.find, children)))

    def add(self, op: str, payload=None, children: Iterable[int] = ()) -> int:
        """Add an e-node, returning its (canonical) e-class id."""
        node = (op, payload, tuple(map(self.find, children)))
        existing = self.memo.get(node)
        if existing is not None:
            return self.find(existing)
        cls = self._new_class()
        cls.nodes[node] = None
        self.memo[node] = cls.id
        for child in node[2]:
            self.classes[self.find(child)].parents.append((node, cls.id))
        if self.constant_folding:
            self._maybe_fold(cls, node)
        return cls.id

    def add_expr(self, expr: Expr) -> int:
        """Add a symbolic expression tree, returning its root class id."""
        memo: dict[int, int] = {}
        for node in E.postorder(expr):
            if node.op == "const":
                memo[id(node)] = self.add("const", node.value)
            elif node.op == "var":
                memo[id(node)] = self.add("var", node.name)
            elif node.op == "pi":
                memo[id(node)] = self.add("pi")
            else:
                memo[id(node)] = self.add(
                    node.op, None, (memo[id(c)] for c in node.children)
                )
        return memo[id(expr)]

    # ------------------------------------------------------------------
    # Union and rebuilding
    # ------------------------------------------------------------------
    def union(self, a: int, b: int) -> int:
        """Merge two e-classes; returns the surviving canonical id."""
        a, b = self.find(a), self.find(b)
        if a == b:
            return a
        # Keep the class with more parents as the root (union by size).
        if len(self.classes[a].parents) < len(self.classes[b].parents):
            a, b = b, a
        self._parent[b] = a
        ca, cb = self.classes[a], self.classes.pop(b)
        ca.nodes.update(cb.nodes)
        ca.parents.extend(cb.parents)
        if cb.const is not None:
            if ca.const is None:
                ca.const = cb.const
                self._inject_const(ca)
        self._worklist.append(a)
        self._n_unions += 1
        return a

    def rebuild(self) -> None:
        """Restore the congruence and hashcons invariants."""
        while self._worklist:
            todo = {self.find(c) for c in self._worklist}
            self._worklist.clear()
            for cid in todo:
                self._repair(cid)

    def _repair(self, cid: int) -> None:
        cls = self.classes.get(self.find(cid))
        if cls is None:
            return
        # Re-canonicalize parent e-nodes; congruent parents get unioned.
        new_parents: dict[ENode, int] = {}
        for pnode, pclass in cls.parents:
            self.memo.pop(pnode, None)
            canon = self.canonicalize(pnode)
            pclass = self.find(pclass)
            prev = new_parents.get(canon)
            if prev is not None:
                pclass = self.union(prev, pclass)
            other = self.memo.get(canon)
            if other is not None and self.find(other) != pclass:
                pclass = self.union(other, pclass)
            self.memo[canon] = pclass
            new_parents[canon] = pclass
        cls = self.classes.get(self.find(cid))
        if cls is not None:
            cls.parents = [(n, self.find(c)) for n, c in new_parents.items()]
            cls.nodes = dict.fromkeys(self.canonicalize(n) for n in cls.nodes)

    # ------------------------------------------------------------------
    # Constant folding analysis
    # ------------------------------------------------------------------
    def _maybe_fold(self, cls: EClass, node: ENode) -> None:
        value = self._fold(node)
        if value is None:
            return
        cls.const = value
        self._inject_const(cls)

    def _fold(self, node: ENode) -> float | None:
        op, payload, children = node
        if op == "const":
            return payload
        if op == "pi":
            return math.pi
        if op == "var":
            return None
        args = []
        for c in children:
            v = self.classes[self.find(c)].const
            if v is None:
                return None
            args.append(v)
        try:
            if op == "+":
                v = args[0] + args[1]
            elif op == "-":
                v = args[0] - args[1]
            elif op == "~":
                v = -args[0]
            elif op == "*":
                v = args[0] * args[1]
            elif op == "/":
                v = args[0] / args[1]
            elif op == "pow":
                v = args[0] ** args[1]
            elif op == "sin":
                v = math.sin(args[0])
            elif op == "cos":
                v = math.cos(args[0])
            elif op == "exp":
                v = math.exp(args[0])
            elif op == "ln":
                v = math.log(args[0])
            elif op == "sqrt":
                v = math.sqrt(args[0])
            else:
                return None
        except (ValueError, OverflowError, ZeroDivisionError):
            return None
        if not math.isfinite(v):
            return None
        return v

    def _inject_const(self, cls: EClass) -> None:
        """Add a literal e-node carrying the class's folded value."""
        if cls.const is None or cls.const == math.pi:
            # pi already has a zero-cost leaf; don't replace it with a
            # 15-digit literal.
            return
        node = ("const", cls.const, ())
        existing = self.memo.get(node)
        if existing is not None:
            root = self.find(existing)
            if root != cls.id:
                self.union(root, cls.id)
            return
        cls.nodes[node] = None
        self.memo[node] = cls.id

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def num_classes(self) -> int:
        return len(self.classes)

    @property
    def num_nodes(self) -> int:
        return sum(len(c.nodes) for c in self.classes.values())

    @property
    def num_unions(self) -> int:
        return self._n_unions

    def eclasses(self) -> list[EClass]:
        """Snapshot of the canonical e-classes."""
        return list(self.classes.values())

    def op_index(self) -> OpIndex:
        """Index the nodes by operator for one search phase.

        The index is a snapshot: build it after :meth:`rebuild` and
        before the next change to the graph.
        """
        find = self.find
        index: OpIndex = {}
        for cid, cls in self.classes.items():
            for op, payload, children in cls.nodes:
                per_class = index.get(op)
                if per_class is None:
                    per_class = index[op] = {}
                entries = per_class.get(cid)
                if entries is None:
                    entries = per_class[cid] = []
                entries.append(
                    tuple(map(find, children)) if children else payload
                )
        return index

    def __repr__(self) -> str:
        return (
            f"<EGraph classes={self.num_classes} nodes={self.num_nodes} "
            f"unions={self._n_unions}>"
        )
