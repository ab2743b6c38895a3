"""Unit tests for the expression code generator."""

import numpy as np
import pytest

from repro.circuit import gates
from repro.jit.codegen import (
    compile_writer,
    generate_inline_write,
    generate_source,
)
from repro.jit.compiled import CompiledExpression
from repro.symbolic import expr as E

X = E.var("t0_param")


def simple_entries():
    # out[0,0] = cos(p); out[0,1] = 0; out[1,0] = sin(p); out[1,1] = 1
    p = E.var("p")
    return [
        ((0, 0), E.cos(p), E.ZERO),
        ((0, 1), E.ZERO, E.ZERO),
        ((1, 0), E.sin(p), E.ZERO),
        ((1, 1), E.ONE, E.ZERO),
    ]


class TestSourceGeneration:
    def test_constant_dynamic_split(self):
        src, n_dyn, n_const, _cost = generate_source(
            simple_entries(), [], ("p",)
        )
        assert n_dyn == 2
        assert n_const == 2
        assert "def qgl_write(params, out, grad=None):" in src
        assert "def qgl_write_constants_out(out):" in src
        assert "def qgl_write_constants_grad(grad):" in src

    def test_param_unpacking_only_used(self):
        entries = [((0, 0), E.sin(E.var("b")), E.ZERO)]
        src, *_ = generate_source(entries, [], ("a", "b"))
        assert "p1 = params[1]" in src
        assert "p0 = params[0]" not in src

    def test_shared_subexpression_emitted_once(self):
        p = E.var("p")
        s = E.sin(p)
        entries = [
            ((0, 0), s, E.ZERO),
            ((0, 1), s * s, E.ZERO),
        ]
        src, *_ = generate_source(entries, [], ("p",))
        assert src.count("sin(") == 1

    def test_complex_entry_uses_complex(self):
        p = E.var("p")
        entries = [((0, 0), E.cos(p), E.sin(p))]
        src, *_ = generate_source(entries, [], ("p",))
        assert "complex(" in src

    def test_real_entry_skips_complex(self):
        entries = [((0, 0), E.cos(E.var("p")), E.ZERO)]
        src, *_ = generate_source(entries, [], ("p",))
        assert "complex(" not in src

    def test_gradient_entries(self):
        p = E.var("p")
        grads = [((0, 0, 0), -(E.sin(p)), E.ZERO)]
        src, *_ = generate_source(
            [((0, 0), E.cos(p), E.ZERO)], grads, ("p",)
        )
        assert "grad[0, 0, 0]" in src

    def test_empty_function_bodies_valid(self):
        src, *_ = generate_source([], [], ())
        compile(src, "<test>", "exec")


class TestCompiledWriter:
    def test_write_and_constants(self):
        result = compile_writer(simple_entries(), [], ("p",))
        out = np.zeros((2, 2), dtype=np.complex128)
        result.write_constants(out)
        result.write((0.7,), out)
        expected = np.array(
            [[np.cos(0.7), 0], [np.sin(0.7), 1]], dtype=complex
        )
        assert np.allclose(out, expected)

    def test_counts(self):
        result = compile_writer(simple_entries(), [], ("p",))
        assert result.num_dynamic_entries == 2
        assert result.num_constant_entries == 2
        assert result.total_cost > 0

    def test_pi_constant_available(self):
        entries = [((0, 0), E.PI, E.ZERO)]
        result = compile_writer(entries, [], ())
        out = np.zeros((1, 1), dtype=np.complex128)
        result.write_constants(out)
        assert out[0, 0] == np.pi

    def test_source_is_reexecutable(self):
        result = compile_writer(simple_entries(), [], ("p",))
        namespace = {"sin": np.sin, "cos": np.cos, "pi": np.pi}
        exec(result.source, namespace)
        assert "qgl_write" in namespace


class TestOneEmitter:
    """The standalone writers and the megakernel emit a gate body
    through one function, so they cannot drift apart."""

    @pytest.mark.parametrize("batched", [False, True])
    def test_writer_body_is_the_inline_write(self, batched):
        compiled = CompiledExpression(gates.u3().matrix, grad=True)
        u_entries, g_entries = compiled.entries
        params = compiled.matrix.params
        inline = generate_inline_write(
            u_entries,
            g_entries,
            {name: f"p{k}" for k, name in enumerate(params)},
            "out",
            "grad",
            temp_prefix="t",
            indent="    ",
            batched=batched,
        )
        source, *_ = generate_source(
            u_entries, g_entries, params, "w", batched=batched
        )
        writer = source.split("\n\n")[0].splitlines()
        assert writer[0] == "def w(params, out, grad=None):"
        unpack = [f"    p{k} = params[{k}]" for k in range(len(params))]
        assert writer[1:] == unpack + inline.hot_lines
        # Complex stores: over a batch axis, each part through a
        # ``.real``/``.imag`` view bound once per call; else
        # ``complex(re, im)``.
        lines = inline.hot_lines
        views = [
            "    out_re = out.real",
            "    out_im = out.imag",
            "    grad_re = grad.real",
            "    grad_im = grad.imag",
        ]
        if batched:
            assert [line for line in lines if "= out." in line
                    or "= grad." in line] == views
            assert any(line.startswith("    out_im[") for line in lines)
            assert not any("complex(" in line or "1j" in line
                           for line in lines)
        else:
            assert any("complex(" in line for line in lines)
            assert not any(line in views for line in lines)

    def test_batched_split_stores(self):
        """Split stores write each part of every entry; an entry whose
        imaginary part is zero keeps the zero its target starts with."""
        compiled = CompiledExpression(gates.u3().matrix, grad=True)
        rows = np.random.default_rng(3).uniform(-np.pi, np.pi, (3, 5))
        out = np.zeros((2, 2, 5), dtype=np.complex128)
        grad = np.zeros((3, 2, 2, 5), dtype=np.complex128)
        compiled.write_constants(out, grad)
        compiled.write_batched(rows, out, grad)
        scalar = [compiled.unitary_and_grad(rows[:, b]) for b in range(5)]
        # numpy's vector sin/cos may differ from math's in the last bit
        for got, want in ((out, [u for u, _ in scalar]),
                          (grad, [g for _, g in scalar])):
            np.testing.assert_allclose(
                got, np.stack(want, axis=-1), rtol=0, atol=1e-15
            )
        # U3's (0, 0) entry is cos(theta / 2): no imaginary store
        assert "out_im[0, 0]" not in compiled._writer(True).source
        assert not out[0, 0].imag.any()
