"""Tests for the equality-saturation runner and its safeguards."""

import dataclasses

from repro import telemetry
from repro.circuit import gates
from repro.egraph import EGraph, Runner, RunnerLimits, simplify_all
from repro.egraph.pattern import Rewrite
from repro.symbolic import expr as E


class TestRunner:
    def test_saturates_on_trivial_graph(self):
        eg = EGraph()
        eg.add_expr(E.var("x"))
        report = Runner().run(eg)
        assert report.stop_reason == "saturated"
        assert report.iterations >= 1

    def test_iteration_limit(self):
        # Associativity alone never saturates a long sum chain quickly.
        eg = EGraph()
        x = E.var("x")
        chain = x
        for k in range(8):
            chain = E.Expr("+", (chain, E.var(f"y{k}")))
        eg.add_expr(chain)
        limits = RunnerLimits(iterations=2, nodes=10**6)
        report = Runner(limits=limits).run(eg)
        assert report.iterations <= 2

    def test_node_limit_stops_blowup(self):
        eg = EGraph()
        x = E.var("x")
        expr = x
        for k in range(6):
            expr = E.Expr(
                "*", (expr, E.Expr("+", (E.var(f"a{k}"), E.var(f"b{k}"))))
            )
        eg.add_expr(expr)
        limits = RunnerLimits(iterations=50, nodes=300)
        report = Runner(limits=limits).run(eg)
        assert report.stop_reason in ("node-limit", "saturated")
        if report.stop_reason == "node-limit":
            # the limit is a post-iteration check, allow one overshoot
            assert report.final_nodes >= 300

    def test_rule_hit_accounting(self):
        eg = EGraph()
        eg.add_expr(E.Expr("sin", (E.Expr("~", (E.var("x"),)),)))
        rules = [Rewrite("sin-neg", "(sin (~ ?x))", "(~ (sin ?x))")]
        report = Runner(rules=rules).run(eg)
        assert report.rule_hits.get("sin-neg", 0) >= 1

    def test_report_counts(self):
        eg = EGraph()
        eg.add_expr(E.sin(E.var("x")) + E.cos(E.var("x")))
        report = Runner().run(eg)
        assert report.final_classes == eg.num_classes
        assert report.final_nodes == eg.num_nodes
        assert report.unions == eg.num_unions


class TestLimits:
    def test_no_wall_clock_limit(self):
        # A simplified expression must depend only on its input, never
        # on how fast the host ran the saturation.
        names = {f.name for f in dataclasses.fields(RunnerLimits)}
        assert names == {"iterations", "nodes", "matches_per_rule"}


class TestStopMetrics:
    def gate_roots(self, matrix):
        roots = []
        for mat in [matrix, *matrix.gradient()]:
            for _, elem in mat.elements():
                roots += [elem.re, elem.im]
        return roots

    def test_u3_with_gradients_stops_at_the_iteration_limit(self):
        roots = self.gate_roots(gates.u3().matrix)
        registry = telemetry.metrics()
        before = registry.snapshot()
        simplify_all(roots)
        delta = telemetry.delta(before, registry.snapshot())
        stops = {k: v for k, v in delta.items()
                 if k.startswith("compile.egraph_stop.")}
        assert stops == {"compile.egraph_stop.iteration-limit": 1}
        # about 1,200 nodes in 130 classes after eight iterations
        assert delta["compile.egraph_nodes"]["count"] == 1
        assert delta["compile.egraph_nodes"]["sum"] > 1000

    def test_saturated_and_node_limit_stops_are_counted(self):
        registry = telemetry.metrics()
        before = registry.snapshot()
        simplify_all([E.var("x")])
        expr = E.var("x")
        for k in range(6):
            expr = E.Expr(
                "*", (expr, E.Expr("+", (E.var(f"a{k}"), E.var(f"b{k}"))))
            )
        simplify_all([expr], limits=RunnerLimits(iterations=50, nodes=300))
        delta = telemetry.delta(before, registry.snapshot())
        assert delta["compile.egraph_stop.saturated"] == 1
        assert delta["compile.egraph_stop.node-limit"] == 1
        assert delta["compile.egraph_nodes"]["count"] == 2
