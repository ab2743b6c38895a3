"""Soundness tests for every rewrite rule in the default set.

Each rule's LHS and RHS are instantiated with fresh variables and
evaluated on random bindings: a rewrite is sound iff both sides agree
numerically wherever both are defined.
"""

import itertools
import math

import numpy as np
import pytest

from repro.egraph.pattern import Pattern, PatVar
from repro.egraph.rules import WIDENS_DEFINEDNESS, default_rules
from repro.symbolic import expr as E


def pattern_to_expr(p: Pattern) -> E.Expr:
    if isinstance(p, PatVar):
        return E.var(p.name)
    if p.op == "const":
        return E.const(p.payload)
    if p.op == "pi":
        return E.PI
    if p.op == "var":
        return E.var(p.payload)
    children = [pattern_to_expr(c) for c in p.children]
    # Bypass smart-constructor folding so the literal rule shape is kept.
    return E.Expr(p.op, tuple(children))


def pattern_vars(p: Pattern) -> set[str]:
    if isinstance(p, PatVar):
        return {p.name}
    out: set[str] = set()
    for c in p.children:
        out |= pattern_vars(c)
    return out


ALL_RULES = default_rules()


@pytest.mark.parametrize(
    "rule", ALL_RULES, ids=[r.name for r in ALL_RULES]
)
def test_rule_is_numerically_sound(rule):
    lhs = pattern_to_expr(rule.lhs)
    rhs = pattern_to_expr(rule.rhs)
    names = sorted(pattern_vars(rule.lhs) | pattern_vars(rule.rhs))
    rng = np.random.default_rng(hash(rule.name) % 2**32)
    checked = 0
    for _ in range(40):
        env = {n: float(rng.uniform(0.1, 2.5)) for n in names}
        try:
            lv = E.evaluate(lhs, env)
            rv = E.evaluate(rhs, env)
        except (ValueError, ZeroDivisionError, OverflowError):
            continue  # outside the common domain; rules are
            # sound-modulo-definedness
        checked += 1
        assert math.isclose(lv, rv, rel_tol=1e-9, abs_tol=1e-9), (
            f"rule {rule.name} unsound at {env}: {lv} != {rv}"
        )
    assert checked >= 10, f"rule {rule.name} was never evaluable"


def test_rule_names_unique():
    names = [r.name for r in ALL_RULES]
    assert len(names) == len(set(names))


def test_rule_count_is_substantial():
    # The curated set covers arithmetic, power, trig and exp families.
    assert len(ALL_RULES) >= 50


#: Values every variable of a rule takes in every combination: the
#: points where division, ``ln``, ``sqrt`` and ``pow`` are undefined or
#: leave the reals.
SPECIAL_VALUES = (0.0, 1.0, -1.0, 2.0, -0.5)


def real_value(expr, env):
    """The value of ``expr`` at ``env``, or ``None`` where it is
    undefined: a math domain error, a non-finite value, or a complex one
    (``**`` of a negative base returns a complex number)."""
    try:
        value = E.evaluate(expr, env)
    except (ValueError, ZeroDivisionError, OverflowError, TypeError):
        return None
    if isinstance(value, complex) or not math.isfinite(value):
        return None
    return value


def domain_points(names, seed):
    rng = np.random.default_rng(seed)
    for _ in range(200):
        yield {n: float(rng.uniform(-2 * math.pi, 2 * math.pi)) for n in names}
    for values in itertools.product(SPECIAL_VALUES, repeat=len(names)):
        yield dict(zip(names, values))


def widens_definedness(rule):
    """Check ``rule`` on [-2pi, 2pi] and the special values: the right
    side is defined wherever the left side is, and agrees with it there.
    Returns whether the right side is also defined somewhere the left
    side is not."""
    lhs = pattern_to_expr(rule.lhs)
    rhs = pattern_to_expr(rule.rhs)
    names = sorted(pattern_vars(rule.lhs) | pattern_vars(rule.rhs))
    widens = False
    for env in domain_points(names, sum(map(ord, rule.name))):
        lv, rv = real_value(lhs, env), real_value(rhs, env)
        if lv is None:
            widens = widens or rv is not None
        else:
            assert rv is not None, f"rule {rule.name} undefined at {env}"
            assert math.isclose(lv, rv, rel_tol=1e-9, abs_tol=1e-9), (
                f"rule {rule.name} unsound at {env}: {lv} != {rv}"
            )
    return widens


@pytest.mark.parametrize(
    "rule", ALL_RULES, ids=[r.name for r in ALL_RULES]
)
def test_rule_is_sound_over_the_whole_domain(rule):
    if widens_definedness(rule):
        assert rule.name in WIDENS_DEFINEDNESS, (
            f"rule {rule.name}: the right side is defined where the left "
            "side is not; list it in WIDENS_DEFINEDNESS if that is intended"
        )
    else:
        assert rule.name not in WIDENS_DEFINEDNESS, (
            f"rule {rule.name} is in WIDENS_DEFINEDNESS but never widens"
        )


def test_widening_allow_list_names_real_rules():
    assert WIDENS_DEFINEDNESS <= {r.name for r in ALL_RULES}
