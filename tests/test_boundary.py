"""The element encoding and field membership have one owner, `exactnum`.

No other module of the package imports its encoding internals, reads the
private members of a `CycloNum` or `CycloField`, or builds a `CycloNum` from
a raw tag or numerators.  Nor does one lift a value into a field by itself
(a call of `embed_lift`; `exactnum.in_field` is the rule), compute lcm(2, N)
(which roots of unity a field holds is `exactnum.unity_order`), or define a
second rule of either kind (`as_scalar`, `_root_in_field`).  The check reads
the source with `ast`.
"""
import ast
from pathlib import Path

import pytest

import galois_scope
from galois_scope.exactnum import CycloField, CycloNum

PACKAGE = Path(galois_scope.__file__).parent
ENCODING_NAMES = {"_ZERO_TAG", "_canon_tag", "_dense"}
# every private member, methods (_parts, _reduce, _zeta_vec, _monomial, ...)
# and slots (_tag, _num, _den, ...) alike
PRIVATE_MEMBERS = {name for cls in (CycloNum, CycloField)
                   for name in [*vars(cls), *cls.__slots__]
                   if name.startswith("_") and not name.startswith("__")}
MEMBERSHIP_RULES = {"as_scalar", "_root_in_field"}


def violations(source: str) -> list[str]:
    """Each use of exactnum's encoding internals in source, as 'line: what'."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "exactnum":
            found += [f"{node.lineno}: imports {a.name}" for a in node.names
                      if a.name in ENCODING_NAMES]
        elif isinstance(node, ast.Attribute) and node.attr in ENCODING_NAMES | PRIVATE_MEMBERS:
            found.append(f"{node.lineno}: reads .{node.attr}")
        elif isinstance(node, ast.Call):
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            if name == "CycloNum" and (len(node.args) > 1 or node.keywords):
                found.append(f"{node.lineno}: builds a CycloNum from its parts")
            elif name == "embed_lift":
                found.append(f"{node.lineno}: calls embed_lift")
            elif name == "lcm" and any(isinstance(a, ast.Constant) and a.value == 2
                                       for a in node.args):
                found.append(f"{node.lineno}: computes lcm(2, ...)")
        elif isinstance(node, ast.FunctionDef) and node.name in MEMBERSHIP_RULES:
            found.append(f"{node.lineno}: defines {node.name}")
    return found


def test_checker_finds_each_kind_of_use():
    source = """
from .exactnum import CycloNum, _canon_tag, _dense, cyclo_field
c._parts()
field._reduce(v)
K._zeta_vec(3)
K._monomial(v)
x._tag
CycloNum(K, tag=(1, 0))
exactnum.CycloNum(K, num=(1, 2), den=3)
"""
    assert len(violations(source)) == 9
    assert violations("from .exactnum import CycloNum, cyclo_field\nx.tag\nK.zeta(3)\n") == []


def test_checker_finds_each_second_membership_rule():
    source = """
embed_lift(x, K)
exactnum.embed_lift(x, K)
math.lcm(2, N)
lcm(N, 2)
def as_scalar(field, value): pass
def _root_in_field(field, m, j): pass
"""
    assert len(violations(source)) == 6
    assert violations("in_field(K, x)\nmath.lcm(3, N)\nunity_order(K)\n") == []


@pytest.mark.parametrize("path", sorted(p for p in PACKAGE.glob("*.py") if p.name != "exactnum.py"),
                         ids=lambda p: p.name)
def test_only_exactnum_touches_the_element_encoding(path):
    assert violations(path.read_text()) == []
