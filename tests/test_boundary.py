"""The element encoding and field membership have one owner, `exactnum`.

No other module of the package imports its encoding internals, reads the
private members of a `CycloNum` or `CycloField`, or builds a `CycloNum` from
a raw tag or numerators.  Nor does one lift a value into a field by itself
(a call of `embed_lift`; `exactnum.in_field` is the rule), compute lcm(2, N)
(which roots of unity a field holds is `exactnum.unity_order`), or define a
second rule of either kind (`as_scalar`, `_root_in_field`).  No module
imports a process or thread pool either (`concurrent`, `multiprocessing`):
the package runs in the calling process, since ROADMAP rules out
multi-backend runs.  A homology's rank-one reading and its eigenbasis have
one owner, `projlin`: no other module imports `_rank_one` or `_eigenbasis`,
so every caller reads a homology through `projlin.homology_eigenbasis` and
its siblings.  In the theorem modules (`galois`, `fixlocus`, `planecurves`)
every theorem-level error goes through `galois._fault`, which makes it an
input error on a certified singular X, except the three checks that hold on
any X.  The clock has one owner, `errors`: no other module imports `time` or
`contextvars`, and no function of the kernels (`groebner`, `exactnum`) takes
a `deadline`, so a budget reaches them only through the run context.  The
value form has one owner too: `polyring` imports nothing from `operator` and,
of exactnum's private names, only `_integral` and `_value_ops`, which give
its substitution kernel and polar chain all their arithmetic, the integer
case included.  `quotients`, the scaling of a homology's eigenbasis, is
defined in `exactnum` alone, as `projlin` may not read a `CycloNum`'s
numerators or tag.  The checks read the source with `ast`.
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
PARALLEL_MODULES = {"concurrent", "multiprocessing"}
HOMOLOGY_INTERNALS = {"_rank_one", "_eigenbasis"}
CLOCK_MODULES = {"time", "contextvars"}
KERNEL_MODULES = ("groebner.py", "exactnum.py")
VALUE_FORM_ENTRIES = {"_integral", "_value_ops"}
SCALING_HELPER = "quotients"
THEOREM_MODULES = ("galois.py", "fixlocus.py", "planecurves.py")
THEOREM_FAULTS = {"ConsistencyError", "BoundViolation"}
# the function and message start of each check that holds on any X, smooth
# or not, and so stays an internal fault: a forged witness whose order and
# kind disagree, a power of a verified automorphism that fails to verify,
# and a p-torsion count that is not a p-power
ANY_X_CHECKS = {
    ("certificate_from_automorphism", "detected "),
    ("power_criterion", "power of a verified automorphism failed to verify"),
    ("abelian_constraint_check", "p-torsion subgroup size is not a p-power"),
}


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


def parallel_imports(source: str) -> list[str]:
    """Each import of a process or thread pool module in source, at any
    depth (a lazy import inside a function too), as 'line: imports name'."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module or ""]
        else:
            continue
        found += [f"{node.lineno}: imports {name}" for name in names
                  if name.split(".")[0] in PARALLEL_MODULES]
    return found


def test_checker_finds_each_parallel_import():
    source = """
import concurrent.futures
import os, multiprocessing
from concurrent.futures import ProcessPoolExecutor
def run():
    from multiprocessing.pool import Pool
"""
    assert len(parallel_imports(source)) == 4
    assert parallel_imports("import os\nfrom .concurrent import x\nfrom json import loads\n") == []


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_package_runs_in_one_process(path):
    assert parallel_imports(path.read_text()) == []


def homology_internal_imports(source: str) -> list[str]:
    """Each import of projlin's rank-one reading or eigenbasis builder in
    source, at any depth, as 'line: imports name'."""
    return [f"{node.lineno}: imports {a.name}" for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "projlin"
            for a in node.names if a.name in HOMOLOGY_INTERNALS]


def test_checker_finds_each_homology_internal_import():
    source = """
from .projlin import ProjMatrix, _rank_one
from galois_scope.projlin import _eigenbasis
def verify():
    from .projlin import _rank_one as read
"""
    assert len(homology_internal_imports(source)) == 3
    assert homology_internal_imports(
        "from .projlin import homology_eigenbasis\nfrom .polyring import _eigenbasis\n") == []


@pytest.mark.parametrize("path", sorted(p for p in PACKAGE.glob("*.py") if p.name != "projlin.py"),
                         ids=lambda p: p.name)
def test_only_projlin_reads_a_homology(path):
    assert homology_internal_imports(path.read_text()) == []


def _called(node: ast.Call):
    return getattr(node.func, "id", getattr(node.func, "attr", None))


def _message_start(node: ast.Call) -> str:
    """The literal text an error message starts with, or ''."""
    first = node.args[0] if node.args else None
    if isinstance(first, ast.JoinedStr) and first.values:
        first = first.values[0]
    return first.value if isinstance(first, ast.Constant) and isinstance(first.value, str) else ""


def unrouted_faults(source: str) -> list[str]:
    """Each ConsistencyError or BoundViolation built in source that is not
    the argument of a `_fault` call and is not one of ANY_X_CHECKS, as
    'line: Name in function'."""
    tree = ast.parse(source)
    calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)]
    routed = {id(arg) for node in calls if _called(node) == "_fault" for arg in node.args}
    owner = {}  # the innermost function around each node: ast.walk visits outer ones first
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner.update((id(node), fn.name) for node in ast.walk(fn))
    found = []
    for node in calls:
        fn = owner.get(id(node))
        if _called(node) in THEOREM_FAULTS and id(node) not in routed and not any(
                fn == name and _message_start(node).startswith(start)
                for name, start in ANY_X_CHECKS):
            found.append(f"{node.lineno}: {_called(node)} in {fn}")
    return found


def test_checker_finds_each_unrouted_fault():
    source = """
def quotient_genus(X, G):
    raise ConsistencyError(f"quotient genus {q} is not a non-negative integer")
def count(X):
    raise errors.BoundViolation("too many points")
def late(X):
    error = ConsistencyError("built first, raised later")
    raise error
def power_criterion(X, w, k):
    raise ConsistencyError("p-torsion subgroup size is not a p-power")
def abelian_constraint_check(X, G):
    def inner():
        raise ConsistencyError("p-torsion subgroup size is not a p-power")
"""
    assert unrouted_faults(source) == [
        "3: ConsistencyError in quotient_genus", "5: BoundViolation in count",
        "7: ConsistencyError in late", "10: ConsistencyError in power_criterion",
        "13: ConsistencyError in inner"]
    routed = """
def quotient_genus(X, G):
    raise _fault(X, ConsistencyError(f"quotient genus {q} is not a non-negative integer"))
def certificate_from_automorphism(X, w):
    raise ConsistencyError(f"detected {kind} shape but the witness has projective order 4")
def power_criterion(X, w, k):
    raise ConsistencyError("power of a verified automorphism failed to verify")
def abelian_constraint_check(X, G):
    raise ConsistencyError("p-torsion subgroup size is not a p-power")
def parse(text):
    raise ParseError("not a theorem-level check")
"""
    assert unrouted_faults(routed) == []


@pytest.mark.parametrize("name", THEOREM_MODULES)
def test_theorem_checks_go_through_fault(name):
    assert unrouted_faults((PACKAGE / name).read_text()) == []


def clock_uses(source: str, kernel: bool) -> list[str]:
    """Each import of a clock module (`time`, `contextvars`) in source, at any
    depth, and in a kernel module each function parameter named `deadline`,
    as 'line: what'."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [f"{node.lineno}: imports {a.name}" for a in node.names
                      if a.name.split(".")[0] in CLOCK_MODULES]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            if (node.module or "").split(".")[0] in CLOCK_MODULES:
                found.append(f"{node.lineno}: imports {node.module}")
        elif kernel and isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            params = [*node.args.posonlyargs, *node.args.args, *node.args.kwonlyargs]
            found += [f"{node.lineno}: {node.name} takes deadline"
                      for a in params if a.arg == "deadline"]
    return found


def test_checker_finds_each_clock_use():
    source = """
import time
import os, contextvars
from time import monotonic
def normal_form(work, basis, guard, deadline=None):
    from contextvars import ContextVar
class Pass:
    def run(self, *, deadline):
        pass
"""
    assert clock_uses(source, kernel=True) == [
        "2: imports time", "3: imports contextvars", "4: imports time",
        "5: normal_form takes deadline", "6: imports contextvars", "8: run takes deadline"]
    assert len(clock_uses(source, kernel=False)) == 4
    clean = "from .errors import check\nimport timeit\ndef normal_form(work, guard):\n    check()\n"
    assert clock_uses(clean, kernel=True) == []
    assert clock_uses("def is_smooth(X, deadline=None):\n    pass\n", kernel=False) == []


@pytest.mark.parametrize("path", sorted(p for p in PACKAGE.glob("*.py") if p.name != "errors.py"),
                         ids=lambda p: p.name)
def test_only_errors_owns_the_clock(path):
    assert clock_uses(path.read_text(), kernel=path.name in KERNEL_MODULES) == []


def value_arithmetic(source: str) -> list[str]:
    """Each import of `operator`, at any depth, and each private name other
    than VALUE_FORM_ENTRIES imported from exactnum, as 'line: imports name'."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [f"{node.lineno}: imports {a.name}" for a in node.names
                      if a.name == "operator"]
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if module == "operator" and not node.level:
                found += [f"{node.lineno}: imports {a.name}" for a in node.names]
            elif module.split(".")[-1] == "exactnum":
                found += [f"{node.lineno}: imports {a.name}" for a in node.names
                          if a.name.startswith("_") and a.name not in VALUE_FORM_ENTRIES]
    return found


def test_checker_finds_each_second_value_arithmetic():
    source = """
import operator
from operator import mul, add
from .exactnum import CycloNum, _integral, _value_ops, _pack, _vector
def chain():
    from galois_scope.exactnum import _unpack
"""
    assert value_arithmetic(source) == [
        "2: imports operator", "3: imports mul", "3: imports add", "4: imports _pack",
        "4: imports _vector", "6: imports _unpack"]
    assert value_arithmetic("from .exactnum import CycloNum, _integral, _value_ops\n") == []


def test_polyring_takes_its_value_arithmetic_from_value_ops():
    assert value_arithmetic((PACKAGE / "polyring.py").read_text()) == []


def test_scaling_helper_lives_in_exactnum():
    """One definition of `quotients`, in exactnum, and projlin imports it."""
    defined = [path.name for path in sorted(PACKAGE.glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.FunctionDef) and node.name == SCALING_HELPER]
    assert defined == ["exactnum.py"]
    imports = [a.name for node in ast.walk(ast.parse((PACKAGE / "projlin.py").read_text()))
               if isinstance(node, ast.ImportFrom) and node.module == "exactnum"
               for a in node.names]
    assert SCALING_HELPER in imports
