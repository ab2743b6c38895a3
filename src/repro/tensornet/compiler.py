"""The AOT compiler: tensor network -> contraction tree -> bytecode.

``compile_network`` is the paper's ahead-of-time pipeline (section IV-A):

1. solve the contraction-ordering problem (optimal DP for <= 7 tensors,
   greedy heuristic above);
2. materialize the path as a binary contraction tree, pre-applying any
   traces symbolically at the leaves;
3. run the fusion pass — a leaf whose consumer needs its data in a
   permuted layout keeps its library gate expression, and its WRITE
   carries the layout, so the TNVM stores the gate's entries straight
   at their permuted positions and no runtime ``TRANSPOSE`` remains;
4. analyze parameter dependencies and serialize the tree into two-
   section bytecode, scheduling each contraction with the
   transpose-transpose-GEMM-transpose (TTGT) strategy.
"""

from __future__ import annotations

import math

from .. import telemetry
from ..jit.cache import canonical_key
from ..symbolic.matrix import ExpressionMatrix
from .bytecode import BufferSpec, Instruction, Program
from .contract import OutputContract, specialize_network
from .network import TensorNetwork
from .path import find_contraction_path
from .tree import ContractionTree, TreeNode, build_contraction_tree

__all__ = ["compile_network", "plan_contraction"]


def plan_contraction(
    network: TensorNetwork, path_strategy: str = "auto"
) -> ContractionTree:
    """Solve the ordering problem and materialize the tree."""
    tensor_sets = [frozenset(t.indices) for t in network.tensors]
    path = find_contraction_path(
        tensor_sets,
        network.index_dims,
        set(network.open_indices),
        strategy=path_strategy,
    )
    return build_contraction_tree(network, path)


def compile_network(
    network: TensorNetwork,
    fusion: bool = True,
    hoist_constants: bool = True,
    path_strategy: str = "auto",
    contract: OutputContract | None = None,
    verify: bool | None = None,
) -> Program:
    """Compile a tensor network into TNVM bytecode.

    ``contract`` selects the output contract (default: full unitary).
    Column-based contracts specialize the network first — open input
    legs are fixed at the column's basis digits — so the emitted
    bytecode propagates ``(D,)`` vectors through the dynamic section
    and ``program.output_shape`` is ``(D, 1)``.

    The keyword flags exist for the ablation benchmarks:

    ``fusion=False``
        disables transpose fusion — leaf permutations become runtime
        ``TRANSPOSE`` instructions instead of WRITE layouts;
    ``hoist_constants=False``
        disables the constant section — parameter-free subtrees are
        recomputed on every evaluation;
    ``path_strategy``
        ``"auto"`` (paper hybrid), ``"optimal"``, ``"greedy"``, or
        ``"sequential"`` (gate-order folding, no pathfinding).

    ``verify=True`` (or the ``REPRO_VERIFY=1`` environment switch)
    runs the :mod:`repro.analysis` bytecode verifier over the emitted
    program and raises
    :class:`~repro.analysis.VerificationError` if the compiler
    produced inconsistent bytecode; ``verify=False`` overrides the
    environment.
    """
    if not network.tensors:
        raise ValueError("cannot compile an empty tensor network")
    contract = OutputContract.coerce(contract)
    tracer = telemetry.tracer()
    with tracer.span(
        "compile_network", category="compile",
        tensors=len(network.tensors), contract=contract.describe(),
    ):
        network = specialize_network(network, contract)
        with tracer.span("pathfind", category="pathfind",
                         strategy=path_strategy):
            tree = plan_contraction(network, path_strategy)
        with tracer.span("codegen", category="compile"):
            program = _CodeGen(
                tree, fusion=fusion, hoist=hoist_constants
            ).generate()
    program.contract = contract.program_key()
    telemetry.metrics().counter("compile.networks").add()
    from ..analysis import maybe_verify_program

    maybe_verify_program(
        program, verify=verify, subject="compiled program"
    )
    return program


class _CodeGen:
    def __init__(
        self,
        tree: ContractionTree,
        fusion: bool = True,
        hoist: bool = True,
    ):
        self.tree = tree
        self.fusion = fusion
        self.hoist = hoist
        self.network = tree.network
        self.dims = tree.network.index_dims
        self.program = Program(
            num_params=self.network.num_params,
            radices=self.network.radices,
        )
        self._expr_ids: dict[tuple, int] = {}
        #: node_id -> buffer id currently holding the node's data
        self._node_buf: dict[int, int] = {}
        #: leaf node_id -> the (shape, perm) layout its WRITE stores in
        self._layouts: dict[int, tuple[tuple[int, ...], tuple[int, ...]]] = {}

    # ------------------------------------------------------------------
    def generate(self) -> Program:
        root = self.tree.root
        target = self.network.open_out + self.network.open_in
        # Contract-specialized networks have no open inputs: the
        # output degenerates from (D, D) to a (D, 1) column.
        dim_out = math.prod(
            self.dims[i] for i in self.network.open_out
        )
        dim_in = math.prod(self.dims[i] for i in self.network.open_in)
        if root.is_leaf:
            # A single-gate circuit: fuse the final permutation too.
            self._prepare_child(root, target)
        self._fuse_or_mark_transposes(root)
        self._emit_node(root)

        # Bring the root into (outputs..., inputs...) order.
        root_buf = self._node_buf[root.node_id]
        if root.indices != target:
            perm = tuple(root.indices.index(i) for i in target)
            out_buf = self._new_buffer(
                dim_out * dim_in,
                root.params,
                constant=self._is_const(root.params),
            )
            self._append(
                root.params,
                Instruction(
                    opcode="TRANSPOSE",
                    a_buf=root_buf,
                    out_buf=out_buf,
                    shape=self._shape_of(root.indices),
                    perm=perm,
                    params=root.params,
                ),
            )
            root_buf = out_buf
        self.program.output_buffer = root_buf
        self.program.output_shape = (dim_out, dim_in)
        self.program.validate()
        return self.program

    # ------------------------------------------------------------------
    # Fusion pass: leaf permutations become WRITE layouts.
    # ------------------------------------------------------------------
    def _fuse_or_mark_transposes(self, node: TreeNode) -> None:
        """Pre-walk deciding target layouts; leaves get fused in place."""
        if node.is_leaf:
            return
        a, b = node.left, node.right
        summed = set(node.contracted)
        contracted_order = [i for i in a.indices if i in summed]
        a_free = [i for i in a.indices if i not in summed]
        b_free = [i for i in b.indices if i not in summed]
        self._prepare_child(a, tuple(a_free + contracted_order))
        self._prepare_child(b, tuple(contracted_order + b_free))
        self._fuse_or_mark_transposes(a)
        self._fuse_or_mark_transposes(b)

    def _prepare_child(
        self, child: TreeNode, target: tuple[int, ...]
    ) -> None:
        if child.indices == target:
            return
        if child.is_leaf and self.fusion:
            # FUSION: the leaf keeps its gate expression, and its WRITE
            # stores the entries in the permuted layout the consumer
            # reads; no runtime TRANSPOSE, and no permuted copy of the
            # expression to simplify and compile.
            perm = tuple(child.indices.index(i) for i in target)
            self._layouts[child.node_id] = (
                self._shape_of(child.indices), perm
            )
            child.indices = target

    # ------------------------------------------------------------------
    # Emission
    # ------------------------------------------------------------------
    def _emit_node(self, node: TreeNode) -> int:
        done = self._node_buf.get(node.node_id)
        if done is not None:
            return done
        if node.is_leaf:
            buf = self._emit_leaf(node)
        else:
            buf = self._emit_contraction(node)
        self._node_buf[node.node_id] = buf
        return buf

    def _emit_leaf(self, node: TreeNode) -> int:
        tensor = node.tensor
        expr = tensor.expression
        # Bind constant slots into the expression at compile time; a
        # fully-constant gate moves to the constant section entirely.
        const_bindings = {
            expr.params[s]: tensor.slots[s].value
            for s in range(len(tensor.slots))
            if tensor.slots[s].kind == "const"
        }
        if const_bindings:
            expr = expr.bind(const_bindings)
        slots = tuple(
            slot.index for slot in tensor.slots if slot.kind == "param"
        )
        if len(slots) != expr.num_params:
            raise AssertionError(
                "slot/parameter mismatch after constant binding"
            )
        expr_id = self._intern_expression(expr)
        size = math.prod(self.dims[i] for i in node.indices)
        buf = self._new_buffer(size, node.params, constant=self._is_const(node.params))
        shape, perm = self._layouts.get(node.node_id, ((), ()))
        self._append(
            node.params,
            Instruction(
                opcode="WRITE",
                expr_id=expr_id,
                slots=slots,
                out_buf=buf,
                shape=shape,
                perm=perm,
                params=node.params,
            ),
        )
        return buf

    def _emit_contraction(self, node: TreeNode) -> int:
        a, b = node.left, node.right
        a_buf = self._emit_node(a)
        b_buf = self._emit_node(b)
        summed = set(node.contracted)
        contracted_order = [i for i in a.indices if i in summed]
        a_free = [i for i in a.indices if i not in summed]
        b_free = [i for i in b.indices if i not in summed]
        m = math.prod(self.dims[i] for i in a_free)
        k = math.prod(self.dims[i] for i in contracted_order)
        n = math.prod(self.dims[i] for i in b_free)

        a_target = tuple(a_free + contracted_order)
        b_target = tuple(contracted_order + b_free)
        a_buf = self._ensure_layout(a, a_buf, a_target)
        b_buf = self._ensure_layout(b, b_buf, b_target)

        out = self._new_buffer(m * n, node.params, constant=self._is_const(node.params))
        if not contracted_order:
            # Pure outer product: KRON of the flattened operands gives
            # the concatenated-index row-major layout directly.
            instr = Instruction(
                opcode="KRON",
                a_buf=a_buf,
                b_buf=b_buf,
                out_buf=out,
                a_shape=(m, 1),
                b_shape=(n, 1),
                params=node.params,
            )
        else:
            instr = Instruction(
                opcode="MATMUL",
                a_buf=a_buf,
                b_buf=b_buf,
                out_buf=out,
                a_shape=(m, k),
                b_shape=(k, n),
                params=node.params,
            )
        self._append(node.params, instr)
        return out

    def _ensure_layout(
        self, child: TreeNode, buf: int, target: tuple[int, ...]
    ) -> int:
        """Emit a TTGT transpose unless the layout already matches.

        The pre-pass gave fused leaves their WRITE layouts, so this
        only fires for internal intermediates whose natural
        (a_free..., b_free...) order differs from what the parent
        contraction needs.
        """
        if child.indices == target:
            return buf
        perm = tuple(child.indices.index(i) for i in target)
        size = math.prod(self.dims[i] for i in child.indices)
        out = self._new_buffer(
            size, child.params, constant=self._is_const(child.params)
        )
        self._append(
            child.params,
            Instruction(
                opcode="TRANSPOSE",
                a_buf=buf,
                out_buf=out,
                shape=self._shape_of(child.indices),
                perm=perm,
                params=child.params,
            ),
        )
        # Record the new canonical layout for this node's data.
        child.indices = target
        self._node_buf[child.node_id] = out
        return out

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _shape_of(self, indices: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(self.dims[i] for i in indices)

    def _new_buffer(
        self, size: int, params: tuple[int, ...], constant: bool
    ) -> int:
        buf = BufferSpec(
            buffer_id=len(self.program.buffers),
            size=size,
            params=tuple(params),
            constant=constant,
        )
        self.program.buffers.append(buf)
        return buf.buffer_id

    def _is_const(self, params: tuple[int, ...]) -> bool:
        """Does this data belong in the constant section?"""
        return self.hoist and not params

    def _append(self, params: tuple[int, ...], instr: Instruction) -> None:
        if self._is_const(params):
            self.program.const_section.append(instr)
        else:
            self.program.dynamic_section.append(instr)

    def _intern_expression(self, expr: ExpressionMatrix) -> int:
        key = canonical_key(expr, grad=False, simplify=False)
        cached = self._expr_ids.get(key)
        if cached is not None:
            return cached
        expr_id = len(self.program.expressions)
        self.program.expressions.append(expr)
        self._expr_ids[key] = expr_id
        return expr_id
