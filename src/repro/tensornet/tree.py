"""Binary contraction trees with the fusion optimization pass.

A contraction path is materialized into a binary tree whose leaves are
gate tensors and whose internal nodes are pairwise contractions (paper
section IV-A).  Two optimizations run on the tree:

* **trace pre-application** — a leaf with a repeated index has the trace
  applied symbolically to its QGL expression, so the bytecode needs no
  trace capability;
* **transpose fusion** — when a leaf's first consumer needs its data in
  a permuted layout, the leaf's ``WRITE`` carries that layout and the
  runtime ``TRANSPOSE`` disappears: the TNVM stores the gate's
  canonical entries straight at their permuted positions, so the gate
  expression itself is simplified and compiled once, whatever layouts
  its leaves are written in (the compiler's pass,
  :mod:`repro.tensornet.compiler`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .network import TensorNetwork, TNTensor

__all__ = ["TreeNode", "ContractionTree", "build_contraction_tree"]


@dataclass
class TreeNode:
    """A node of the contraction tree."""

    node_id: int
    indices: tuple[int, ...]
    params: tuple[int, ...]  # sorted circuit-parameter indices
    # Leaf payload:
    tensor: TNTensor | None = None
    # Internal payload:
    left: TreeNode | None = None
    right: TreeNode | None = None
    contracted: tuple[int, ...] = ()

    @property
    def is_leaf(self) -> bool:
        return self.tensor is not None

    def size(self, index_dims: dict[int, int]) -> int:
        return math.prod(index_dims[i] for i in self.indices)


@dataclass
class ContractionTree:
    """The materialized tree plus network metadata."""

    root: TreeNode
    network: TensorNetwork
    nodes: list[TreeNode] = field(default_factory=list)

    def leaves(self) -> list[TreeNode]:
        return [n for n in self.nodes if n.is_leaf]

    def internal(self) -> list[TreeNode]:
        return [n for n in self.nodes if not n.is_leaf]

    def constant_nodes(self) -> list[TreeNode]:
        """Nodes whose subtree depends on no circuit parameter."""
        return [n for n in self.nodes if not n.params]


def build_contraction_tree(
    network: TensorNetwork, path: list[tuple[int, int]]
) -> ContractionTree:
    """Materialize a pairwise path into a binary contraction tree.

    Leaf index order matches the gate tensor; an internal node's index
    order is (left free..., right free...), which is exactly the layout
    the TTGT matmul of its children produces.
    """
    nodes: list[TreeNode] = []
    open_set = set(network.open_indices)

    def new_leaf(tensor: TNTensor) -> TreeNode:
        tensor = _pretrace_if_needed(tensor)
        node = TreeNode(
            node_id=len(nodes),
            indices=tensor.indices,
            params=tensor.param_indices,
            tensor=tensor,
        )
        nodes.append(node)
        return node

    working = [new_leaf(t) for t in network.tensors]

    for i, j in path:
        a = working[i]
        b = working[j]
        shared = [
            idx for idx in a.indices if idx in set(b.indices)
        ]
        summed = tuple(idx for idx in shared if idx not in open_set)
        a_free = tuple(idx for idx in a.indices if idx not in summed)
        b_free = tuple(idx for idx in b.indices if idx not in summed)
        node = TreeNode(
            node_id=len(nodes),
            indices=a_free + b_free,
            params=tuple(sorted(set(a.params) | set(b.params))),
            left=a,
            right=b,
            contracted=summed,
        )
        nodes.append(node)
        for k in sorted((i, j), reverse=True):
            del working[k]
        working.append(node)

    if len(working) != 1:
        raise ValueError(
            f"path did not reduce the network to one tensor "
            f"({len(working)} remain)"
        )
    return ContractionTree(root=working[0], network=network, nodes=nodes)


def _pretrace_if_needed(tensor: TNTensor) -> TNTensor:
    """Apply trace symbolically when a leaf repeats an index.

    This happens for networks with immediately-closed loops (e.g. a
    cost-function network tracing ``U†·U(θ)``); the leaf expression is
    replaced by its pre-traced form so the bytecode never traces.
    """
    counts: dict[int, int] = {}
    for idx in tensor.indices:
        counts[idx] = counts.get(idx, 0) + 1
    repeated = [idx for idx, c in counts.items() if c > 1]
    if not repeated:
        return tensor
    k = len(tensor.indices) // 2
    outs, ins = tensor.indices[:k], tensor.indices[k:]
    pairs = []
    for idx in repeated:
        pairs.append((outs.index(idx), ins.index(idx)))
    traced_expr = tensor.expression.partial_trace_expr(pairs)
    kept = tuple(
        idx for idx in tensor.indices if counts[idx] == 1
    )
    return TNTensor(
        tensor_id=tensor.tensor_id,
        expression=traced_expr,
        slots=tensor.slots,
        indices=kept,
        location=tensor.location,
    )
