"""The compiled matchers against the recursive e-matcher they replaced.

``reference_match`` is the interpreted backtracking matcher the e-graph
used before patterns were compiled.  On real gate e-graphs, at several
stages of saturation, every default rule's compiled search must return
the same ``(class id, substitution)`` list, in the same order.
"""

import pytest

from repro.circuit import gates
from repro.egraph import EGraph, Runner, RunnerLimits, default_rules
from repro.egraph.pattern import (
    PatVar,
    compile_pattern,
    match_in_class,
    parse_pattern,
)
from repro.symbolic import expr as E

#: Large enough that neither matcher ever truncates.
NO_LIMIT = 10**6


def reference_match(egraph, pattern, cid, subst, out):
    """Append every extension of ``subst`` matching ``pattern`` at
    class ``cid`` to ``out``, in node order, children left to right."""
    if isinstance(pattern, PatVar):
        bound = subst.get(pattern.name)
        if bound is None:
            new = dict(subst)
            new[pattern.name] = cid
            out.append(new)
        elif egraph.find(bound) == cid:
            out.append(dict(subst))
        return
    cls = egraph.classes.get(cid)
    if cls is None:
        return
    for node in list(cls.nodes):
        op, payload, children = node
        if op != pattern.op:
            continue
        if pattern.op in ("const", "var") and payload != pattern.payload:
            continue
        if len(children) != len(pattern.children):
            continue
        partials = [dict(subst)]
        for pat_child, child_cid in zip(pattern.children, children):
            next_partials = []
            for p in partials:
                reference_match(
                    egraph, pat_child, egraph.find(child_cid), p,
                    next_partials,
                )
            partials = next_partials
            if not partials:
                break
        out.extend(partials)


def reference_search(egraph, pattern):
    found = []
    for cls in egraph.eclasses():
        cid = egraph.find(cls.id)
        if cid != cls.id:
            continue
        subs = []
        reference_match(egraph, pattern, cid, {}, subs)
        found.extend((cid, s) for s in subs)
    return found


def gate_graph(gate, grad, iterations):
    matrix = gate.matrix
    roots = []
    for _, elem in matrix.elements():
        roots += [elem.re, elem.im]
    for gmat in matrix.gradient() if grad else []:
        for _, elem in gmat.elements():
            roots += [elem.re, elem.im]
    egraph = EGraph()
    for root in roots:
        egraph.add_expr(root)
    egraph.rebuild()
    if iterations:
        Runner(limits=RunnerLimits(iterations=iterations)).run(egraph)
    return egraph


GATES = {
    "U3-grad": (gates.u3, True),
    "CX": (gates.cx, False),
    "P3": (gates.qutrit_phase, True),
    "CSUM3": (gates.csum, False),
}
RULES = default_rules()


@pytest.fixture(scope="module", params=[0, 1, 3], ids=lambda k: f"iter{k}")
def graphs(request):
    return {
        name: gate_graph(factory(), grad, request.param)
        for name, (factory, grad) in GATES.items()
    }


@pytest.mark.parametrize("gate", GATES)
def test_compiled_search_equals_reference(graphs, gate):
    egraph = graphs[gate]
    index = egraph.op_index()
    total = 0
    for rule in RULES:
        expected = reference_search(egraph, rule.lhs)
        got = rule.search(egraph, limit_per_class=NO_LIMIT, index=index)
        assert got == expected, rule.name
        assert [list(s) for _, s in got] == [list(s) for _, s in expected]
        total += len(got)
    # Constant gates (CX, CSUM3) hold only literals: no rule applies.
    factory, _ = GATES[gate]
    assert (total > 0) == (factory().matrix.num_params > 0)


def test_search_builds_its_own_index():
    egraph = gate_graph(gates.u3(), False, 1)
    for rule in RULES:
        assert rule.search(egraph, limit_per_class=NO_LIMIT) == (
            reference_search(egraph, rule.lhs)
        )


class TestLimit:
    def graph(self):
        # One class holding many products: x*y == y*x == ... after a
        # few commutativity/associativity rounds.
        return gate_graph(gates.u3(), True, 3)

    def test_limit_counts_complete_matches_per_class(self):
        egraph = self.graph()
        rule = next(r for r in RULES if r.name == "comm-mul")
        full = rule.search(egraph, limit_per_class=NO_LIMIT)
        per_class = {}
        for cid, _ in full:
            per_class[cid] = per_class.get(cid, 0) + 1
        assert max(per_class.values()) > 2
        capped = rule.search(egraph, limit_per_class=2)
        expected = []
        seen = {}
        for cid, subst in full:
            if seen.get(cid, 0) < 2:
                expected.append((cid, subst))
                seen[cid] = seen.get(cid, 0) + 1
        assert capped == expected

    def test_match_in_class_limit(self):
        egraph = self.graph()
        pattern = parse_pattern("(* ?a ?b)")
        cid = max(
            egraph.classes,
            key=lambda c: len(match_in_class(egraph, pattern, c)),
        )
        everything = match_in_class(egraph, pattern, cid)
        assert len(everything) > 3
        assert match_in_class(egraph, pattern, cid, limit=3) == everything[:3]


class TestGeneratedMatcher:
    def test_compiled_once_per_pattern(self):
        assert compile_pattern(parse_pattern("(sin (~ ?x))")) is (
            compile_pattern(parse_pattern("(sin (~ ?x))"))
        )

    def test_bare_variable_matches_every_class(self):
        eg = EGraph()
        eg.add_expr(E.sin(E.var("a")) + E.var("b"))
        found = compile_pattern(PatVar("x")).search(
            eg, eg.op_index(), NO_LIMIT
        )
        assert found == [(cid, {"x": cid}) for cid in eg.classes]

    @pytest.mark.parametrize("text", ["pi", "(* ?a pi)", "(+ x ?y)", "2"])
    def test_leaf_patterns(self, text):
        eg = EGraph(constant_folding=False)
        eg.add_expr(E.Expr("*", (E.var("q"), E.PI)))
        eg.add_expr(E.Expr("+", (E.var("x"), E.const(2.0))))
        eg.rebuild()
        pattern = parse_pattern(text)
        got = compile_pattern(pattern).search(eg, eg.op_index(), NO_LIMIT)
        assert got
        assert got == reference_search(eg, pattern)
