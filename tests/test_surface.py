"""Every definition in the package is reached by shipped code, and every
local a function assigns is read.

Walks src/burchlab with ast and collects each top-level function and class
and each non-dunder method of a top-level class.  Each must be reached
from code that ships: src/, scripts/ or perfbench/ (its test modules
aside).  The roots are those files' code outside every package definition;
a definition is reached when a root or a reached definition references it
outside its own lines, so two definitions that only reference each other
are not.  A test reference does not count; code only the tests run lives
under tests/support.  References are the names and attributes the code
loads, read from the ast, so words in docstrings and comments do not
count.  Methods of one class hierarchy that share a name
count as one definition.  A name that definitions in unrelated classes
share needs a reference that resolves to the definition's class (through
self, cls, super() or the class name) or an entry in SHARED_NAME_CALLERS
naming a shipped function that reaches it.

Every definition of tests/support is reached from a test the same way,
so the support package keeps no check that nothing runs.

The second check walks every function body of the package and of
tests/support: a name it stores (assignment, unpacking, loop or with
target) must be loaded somewhere in the function or in a function nested
in it.  Names starting with _ are exempt, so an unpacking can discard a
value as _.

The third check keeps keyed sums in one place: outside an allowlist of
scalar kernels, no function of the package or of tests/support writes the
cancel-and-drop loop that matrices.add_into holds.

The fourth check keeps the package's own imports at module top: no
function body of the package or of tests/support imports from burchlab.

The fifth check keeps the choice of minimal generators of I in one place:
only burch.py (burch_data) and pipeline.py (RingContext.build) name
minimal_generators; every resolution of R takes the job's list.

The sixth check keeps the dg checks in one place: a dg algebra is a dg
module over itself, so only taylor.DgModule defines check_unit and
check_leibniz, and no class defines the associativity and commutativity
checks that only the tests run (tests/support/checks.py).  It also keeps
one product path per structure: each structure defines its rule on keys
(product_terms, action_terms), and only taylor.DgModule.action_basis
boxes it, so no class keeps a second product beside the rule: no method
calls a rule, or the rule on keys a rule maps to positions, inside a loop,
on self or an attribute of it or through a local bound to one, since
taylor.bilinear alone extends a rule to elements.  An allowlist names the
loops kept for speed, each with its measured reason.

The seventh check keeps adjunction in one place: the Tate closure and the
semifree module both extend tate.AdjunctionEngine, so only it defines
_refresh, and only its kill_homology loop calls check_adjunction.

The eighth check keeps the bar's operations in one place: in bar.py only
BarComplex._block_image calls .op(, so every block's image is computed
once per assembly and no second path calls op on a block again.

The ninth check keeps the certified-cycle loop in one place: in the
package only pipeline._certified_cycles calls splitting_check and
project_to_minimal, so both theorems certify their cycles the same way.

The tenth check keeps the report timing in one place: only
cli.run_command writes "timingSeconds" (as a dict key or an item store).

The eleventh check keeps the assembly of keyed differentials in one place:
only complexes.keyed_complex, Contraction.truncated (which cuts a complex
it already has) and the resolution over R (which grows its matrices degree
by degree from kernels) construct a GradedFreeComplex or its subclass
resolve.Resolution.

The twelfth check keeps strand ranks over R in one place: only
complexes.Strands.rank calls linalg.rank_of, so the bar's checks and
homology over R read one rank cache.

The thirteenth check keeps imports live: every name a module-level import
binds in src/burchlab/*.py or tests/support/*.py is read in that module,
so a move leaves no import behind, and so is every name one binds in
tests/*.py or scripts/*.py.  The package's __init__.py is exempt; its
imports are the package's re-exports.

The fourteenth check keeps the growing of resolutions for the pipelines
in one place: in pipeline.py only dg_pair calls build_semifree_resolution
or acyclic_closure, so the A-infinity pair takes its X and Y from it.

The fifteenth check keeps the strands of syzygies in one place: no
function of krank.py or cycles.py constructs a Strand or calls .span(, so
the k-rank and the projection read the strands and echelons that the
resolution over R built when it picked the syzygy's generators.
"""

from __future__ import annotations

import ast
import re
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "burchlab"
SUPPORT = ROOT / "tests" / "support"
SHIPPED = ("src", "scripts", "perfbench")

# Definitions whose bare name an unrelated definition shares (outside their
# own class hierarchy), so that a reference through an object of unknown
# type does not tell which one it reaches.  Each names a shipped function
# that reaches it, which the scan checks to reference the name.
SHARED_NAME_CALLERS = {
    "ainfty.py: AInfAlgebra.op": "bar.py: BarComplex._block_image",
    "ainfty.py: AInfModule.op": "bar.py: BarComplex._block_image",
    "taylor.py: DgModule.op": "bar.py: BarComplex._block_image",
    "complexes.py: GradedFreeComplex.check_dd_zero": "dgmodule.py: taylor_module_fast_path",
    "complexes.py: Strands.check_dd_zero": "bar.py: BarComplex.__init__",
    "groebner.py: RTable.socle": "groebner.py: Strand.socle",
    "groebner.py: Strand.socle": "krank.py: syzygy_krank",
    "groebner.py: Strand.position": "complexes.py: Strands.generator_columns",
    "tate.py: AdjunctionEngine.position": "scripts/complex_fingerprints.py: keys_record",
    "jobs.py: JobSpec.to_dict": "cli.py: main",
    "krank.py: KRankReport.to_dict": "pipeline.py: resolve_report",
    "linalg.py: SparseEchelon.rank": "linalg.py: rank_of",
    "matrices.py: FreeModuleElement.degree": "resolve.py: resolve_over_R",
    "ring.py: Polynomial.degree": "burch.py: check_in_square",
    "matrices.py: PolyMatrix.is_zero": "complexes.py: GradedFreeComplex.check_dd_zero",
    "resolve.py: ModulePresentation.is_zero": "jobs.py: JobSpec.presentation",
}


def _span(node) -> tuple:
    first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
    return first, node.end_lineno


def _definitions(tree):
    """(qualified name, bare name, class or None, span) per top-level
    function and class and per non-dunder method of a top-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.name, None, _span(node)
        if not isinstance(node, ast.ClassDef):
            continue
        for item in node.body:
            if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not (item.name.startswith("__") and item.name.endswith("__"))):
                yield f"{node.name}.{item.name}", item.name, node.name, _span(item)


def _references(tree, family) -> list:
    """(name, line, owner, function) per name the code loads, as a name or
    as an attribute.  owner is the class family an attribute resolves to
    (through self, cls, super() or a package class), else None; function
    is the qualified name of the enclosing function, or ''."""
    out = []

    def visit(node, cls, qual):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, child.name if isinstance(child, ast.ClassDef) else cls,
                      qual + [child.name])
                continue
            fn = ".".join(qual)
            if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load):
                out.append((child.id, child.lineno, None, fn))
            elif isinstance(child, ast.Attribute) and isinstance(child.ctx, ast.Load):
                value, owner = child.value, None
                if isinstance(value, ast.Name) and value.id in ("self", "cls"):
                    owner = cls
                elif isinstance(value, ast.Name):
                    owner = value.id
                elif (isinstance(value, ast.Call) and isinstance(value.func, ast.Name)
                        and value.func.id == "super"):
                    owner = cls
                out.append((child.attr, child.lineno, family(owner), fn))
            visit(child, cls, qual)

    visit(tree, None, [])
    return out


def _unreached(package: dict, sources: dict, shared_callers: dict) -> tuple:
    """(unreached, stale) over package {file name: source} and sources
    {label: source}, which holds the package's files under their names.

    Roots are the code outside every package definition: the files of
    sources that are not the package's, and the module-level statements of
    the package's own.  A reference belongs to the innermost package
    definition whose lines hold it (a dunder method's to its class), and
    counts once that definition is reached.  A definition is reached by a
    counted reference outside its own lines; the scan repeats until nothing
    more is reached, so definitions that reference only each other stay
    unreached.  Methods of one class hierarchy that share a name count as
    one.  A name that unrelated definitions share needs a reference that
    resolves to the definition's hierarchy, or an entry in shared_callers
    whose caller references the name; stale lists the entries that are not
    needed or whose caller does not reach it."""
    trees = {label: ast.parse(source) for label, source in sources.items()}
    parent = {}
    for label in package:
        for node in trees[label].body:
            if isinstance(node, ast.ClassDef):
                parent.setdefault(node.name, node.name)
                for base in node.bases:
                    if isinstance(base, ast.Name):
                        parent.setdefault(base.id, base.id)

    def family(name):
        if name not in parent:
            return None
        while parent[name] != name:
            name = parent[name]
        return name

    for label in package:
        for node in trees[label].body:
            if isinstance(node, ast.ClassDef):
                for base in node.bases:
                    if isinstance(base, ast.Name):
                        parent[family(node.name)] = family(base.id)

    defs = [(f"{label}: {qual}", label, name, family(cls) if cls else (label, name), span)
            for label in package for qual, name, cls, span in _definitions(trees[label])]
    groups = defaultdict(set)
    for _, _, name, group, _ in defs:
        groups[name].add(group)
    holder = {}
    for key, label, _, _, (first, last) in sorted(defs, key=lambda d: d[4][0] - d[4][1]):
        holder.update(((label, line), key) for line in range(first, last + 1))
    refs = defaultdict(list)
    for label, tree in trees.items():
        for name, line, owner, fn in _references(tree, family):
            refs[name].append((label, line, owner, fn, holder.get((label, line))))

    def reach(key, label, name, group, span, reached) -> str:
        """How counted references reach a definition: 'name', 'owner',
        'caller', or '' when they do not."""
        first, last = span
        live = [r for r in refs[name] if (r[4] is None or r[4] in reached)
                and (r[0] != label or not first <= r[1] <= last)]
        if len(groups[name]) == 1:
            return "name" if live else ""
        if any(r[2] == group for r in live):
            return "owner"
        caller = shared_callers.get(key, "")
        return "caller" if any(f"{r[0]}: {r[3]}" == caller and r[2] is None for r in live) else ""

    reached, verdicts = None, {}
    while reached != {key for key, how in verdicts.items() if how}:
        reached = {key for key, how in verdicts.items() if how}
        verdicts = {key: reach(key, label, name, group, span, reached)
                    for key, label, name, group, span in defs}
    unreached = [key for key, how in verdicts.items() if not how]
    needed = {key for key, _, name, _, _ in defs
              if len(groups[name]) > 1 and verdicts[key] != "owner"}
    stale = sorted(key for key in shared_callers if key not in needed or key in unreached)
    return unreached, stale


def test_every_definition_is_reached_from_shipped_code():
    package = {path.name: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))}
    # perfbench's own test module (test_perfbench.py) does not ship
    shipped = {str(path.relative_to(ROOT)): path.read_text(encoding="utf-8")
               for top in SHIPPED for path in sorted((ROOT / top).rglob("*.py"))
               if path.parent != PACKAGE and not path.name.startswith("test_")}
    unreached, stale = _unreached(package, {**package, **shipped}, SHARED_NAME_CALLERS)
    assert not unreached, ("reached by no shipped code; move it under tests/support "
                           "or delete it:\n" + "\n".join(unreached))
    assert not stale, "SHARED_NAME_CALLERS entries not needed or not held:\n" + "\n".join(stale)


def test_every_support_definition_is_reached_from_a_test():
    support = {path.name: path.read_text(encoding="utf-8") for path in sorted(SUPPORT.glob("*.py"))}
    tests = {str(path.relative_to(ROOT)): path.read_text(encoding="utf-8")
             for path in sorted((ROOT / "tests").glob("*.py"))}
    unreached, _ = _unreached(support, {**support, **tests}, {})
    assert not unreached, "reached by no test; delete it:\n" + "\n".join(unreached)


def test_the_shipped_scan_sees_a_test_only_definition():
    package = {"m.py": ("class Contraction:\n"
                        "    def verify(self):\n        pass\n"
                        "    def truncated(self):\n        return self\n"
                        "class BurchData:\n    def verify(self):\n        return self.verify\n"
                        "def check_minimality(structure):\n    return check_minimality\n"
                        "def minimalize(cx):\n    return Contraction().truncated()\n"
                        "def stasheff_check(structure):\n    return _slot_tuples(structure)\n"
                        "def _slot_tuples(structure):\n    return stasheff_check(structure)\n")}
    shipped = dict(package, **{"cli.py": ('"""check_minimality runs in the tests."""\n'
                                          "def main(ctx):\n"
                                          "    ctx.data.verify()\n"
                                          "    return minimalize(ctx), BurchData\n")})
    callers = {"m.py: BurchData.verify": "cli.py: main"}
    assert _unreached(package, shipped, callers) == (
        ["m.py: Contraction.verify", "m.py: check_minimality", "m.py: stasheff_check",
         "m.py: _slot_tuples"], [])
    # a caller that does not reference the name, and an entry nothing needs
    callers = {"m.py: BurchData.verify": "m.py: minimalize", "m.py: minimalize": "cli.py: main"}
    assert _unreached(package, shipped, callers) == (
        ["m.py: Contraction.verify", "m.py: BurchData.verify", "m.py: check_minimality",
         "m.py: stasheff_check", "m.py: _slot_tuples"],
        ["m.py: BurchData.verify", "m.py: minimalize"])
    # a root that only a dead function references reaches nothing
    package["m.py"] += "def unused():\n    return main_helper()\ndef main_helper():\n    pass\n"
    shipped["m.py"] = package["m.py"]
    assert _unreached(package, shipped, {})[0][-2:] == ["m.py: unused", "m.py: main_helper"]


def _dead_locals(fn) -> list:
    """Locals of fn, outside nested functions, stored but never read in fn
    or in a closure of it; names starting with _ are exempt."""
    stored, loaded = {}, set()

    def visit(node, own):
        for child in ast.iter_child_nodes(node):
            nested = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda,
                                        ast.ClassDef))
            if isinstance(child, (ast.Global, ast.Nonlocal)) and own:
                loaded.update(child.names)
            if isinstance(child, ast.Name):
                if isinstance(child.ctx, ast.Load):
                    loaded.add(child.id)
                elif own and not child.id.startswith("_"):
                    stored.setdefault(child.id, child.lineno)
            if isinstance(child, ast.AugAssign) and isinstance(child.target, ast.Name):
                loaded.add(child.target.id)
            visit(child, own and not nested)

    visit(fn, True)
    return [name for name in stored if name not in loaded]


def _scanned() -> list:
    """(label, source) per module of the package and of the tests' support
    package (labelled support/<name>), the modules the code checks walk."""
    return ([(path.name, path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))]
            + [(f"support/{path.name}", path.read_text(encoding="utf-8"))
               for path in sorted(SUPPORT.glob("*.py"))])


def test_no_function_assigns_a_local_it_never_reads():
    dead = []
    for label, source in _scanned():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                dead += [f"{label}: {node.name}: {name}" for name in _dead_locals(node)]
    assert not dead, "locals assigned but never read:\n" + "\n".join(dead)


# -- keyed sums go through matrices.add_into ----------------------------------

# Functions that may keep their own cancel-and-drop loop, each with its reason.
# Every other function adds a Polynomial into a keyed dict with add_into.
CANCEL_AND_DROP_ALLOWED = {
    "matrices.py: add_into": "the one accumulator of Polynomial-valued keyed sums",
    "ring.py: Polynomial.__add__": "scalar coefficients per monomial, the ring's own kernel",
    "ring.py: Polynomial.__sub__": "scalar coefficients per monomial, the ring's own kernel",
    "ring.py: Polynomial.__mul__": "scalar coefficients per monomial, the ring's own kernel",
    "groebner.py: module_groebner": "scalar coefficients of flat (position, monomial) terms",
    "groebner.py: RTable._combine": "scalar coefficients per standard monomial, a hot loop",
    "groebner.py: Strand.vector": "scalar strand coordinates; a shared helper cost 9% on bar-deep",
    "linalg.py: vec_axpy": "scalar vector coordinates, the echelon's inner loop",
}


def _is_cancel_and_drop(node) -> bool:
    """An `if` whose body stores acc[key] = s and whose else calls acc.pop(key, None)."""
    if not isinstance(node, ast.If):
        return False
    stores = {(ast.dump(t.value), ast.dump(t.slice))
              for stmt in node.body if isinstance(stmt, ast.Assign)
              for t in stmt.targets if isinstance(t, ast.Subscript)}
    for stmt in node.orelse:
        call = stmt.value if isinstance(stmt, ast.Expr) else None
        if (isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)
                and call.func.attr == "pop" and len(call.args) == 2
                and isinstance(call.args[1], ast.Constant) and call.args[1].value is None
                and (ast.dump(call.func.value), ast.dump(call.args[0])) in stores):
            return True
    return False


def _cancel_and_drop_functions() -> set:
    """'file: Qualified.name' of each function with the idiom in its own body
    (a nested function reports under its own name)."""
    found = set()

    def visit(node, label, qual):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, label, qual + [child.name])
                continue
            if _is_cancel_and_drop(child) and qual:
                found.add(f"{label}: {'.'.join(qual)}")
            visit(child, label, qual)

    for label, source in _scanned():
        visit(ast.parse(source), label, [])
    return found


def test_keyed_sums_go_through_add_into():
    found = _cancel_and_drop_functions()
    stray = sorted(found - set(CANCEL_AND_DROP_ALLOWED))
    assert not stray, ("a hand-written cancel-and-drop loop; use matrices.add_into:\n"
                       + "\n".join(stray))
    stale = sorted(set(CANCEL_AND_DROP_ALLOWED) - found)
    assert not stale, "allowed but no longer holds the loop:\n" + "\n".join(stale)


def test_the_idiom_check_sees_a_hand_loop():
    tree = ast.parse("if s:\n    acc[i] = s\nelse:\n    acc.pop(i, None)\n")
    assert _is_cancel_and_drop(tree.body[0])
    tree = ast.parse("if s:\n    acc[i] = s\nelse:\n    other.pop(i, None)\n")
    assert not _is_cancel_and_drop(tree.body[0])


# -- package imports at module top ----------------------------------------------


def _local_package_imports(source: str, filename: str) -> list:
    """'file: function: from module' for each import from the package
    (relative, or absolute from burchlab) inside a function body."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for imp in ast.walk(node):
                if isinstance(imp, ast.ImportFrom) and (
                        imp.level or (imp.module or "").split(".")[0] == "burchlab"):
                    found.append(f"{filename}: {node.name}: from "
                                 f"{'.' * imp.level}{imp.module or ''}")
    return found


def test_no_function_imports_from_the_package():
    local = []
    for label, source in _scanned():
        local += _local_package_imports(source, label)
    assert not local, "a function-local package import; move it to module top:\n" + "\n".join(local)


def test_the_import_check_sees_a_local_import():
    assert _local_package_imports("def f():\n    from .burch import g\n    return g\n", "m.py") \
        == ["m.py: f: from .burch"]
    assert _local_package_imports("from .burch import g\n\ndef f():\n    return g\n", "m.py") == []


def test_only_burch_and_pipeline_choose_minimal_generators_of_i():
    naming = sorted(path.name for path in PACKAGE.glob("*.py")
                    if re.search(r"\bminimal_generators\b", path.read_text(encoding="utf-8")))
    assert naming == ["burch.py", "pipeline.py"]


# -- one set of dg checks -------------------------------------------------------

# the package runs the first two; the tests' support package holds the others
DG_CHECKS = ("check_unit", "check_leibniz", "check_associative", "check_commutative")


def _class_attribute_names(item) -> list:
    """Names a class-body statement defines: a method, or assignment targets."""
    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return [item.name]
    targets = item.targets if isinstance(item, ast.Assign) else \
        [item.target] if isinstance(item, ast.AnnAssign) else []
    return [t.id for t in targets if isinstance(t, ast.Name)]


def _dg_check_definitions(source: str, filename: str, names=DG_CHECKS) -> list:
    """'file: Class.name' for each class in source that defines one of names."""
    return [f"{filename}: {node.name}.{name}"
            for node in ast.walk(ast.parse(source)) if isinstance(node, ast.ClassDef)
            for item in node.body for name in _class_attribute_names(item) if name in names]


def test_only_dg_module_defines_the_dg_checks():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        found += _dg_check_definitions(path.read_text(encoding="utf-8"), path.name)
    assert sorted(found) == ["taylor.py: DgModule.check_leibniz", "taylor.py: DgModule.check_unit"]


def test_the_dg_check_scan_sees_a_duplicate():
    planted = ("class DgModule:\n    def check_unit(self):\n        pass\n"
               "class DgAlgebra(DgModule):\n    def check_unit(self):\n        pass\n")
    assert _dg_check_definitions(planted, "m.py") == ["m.py: DgModule.check_unit",
                                                       "m.py: DgAlgebra.check_unit"]


BOXED_PRODUCTS = ("product_basis", "action_basis")


def test_only_dg_module_and_dg_algebra_box_the_rule():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        found += _dg_check_definitions(path.read_text(encoding="utf-8"), path.name,
                                       BOXED_PRODUCTS)
    assert found == ["taylor.py: DgModule.action_basis"]


def test_the_boxed_product_scan_sees_a_duplicate():
    planted = ("class DgAlgebra:\n    def product_basis(self):\n        pass\n"
               "class TateAlgebra(DgAlgebra):\n    def product_basis(self):\n        pass\n"
               "class SemifreeDgModule:\n    action_basis = None\n")
    assert _dg_check_definitions(planted, "m.py", BOXED_PRODUCTS) == [
        "m.py: DgAlgebra.product_basis", "m.py: TateAlgebra.product_basis",
        "m.py: SemifreeDgModule.action_basis"]


RULES = ("product_terms", "action_terms")
LOOPS = (ast.For, ast.AsyncFor, ast.While, ast.ListComp, ast.SetComp, ast.DictComp,
         ast.GeneratorExp)


def _on_self(node) -> bool:
    """node is self or an attribute read off it (self.algebra)."""
    while isinstance(node, ast.Attribute):
        node = node.value
    return isinstance(node, ast.Name) and node.id == "self"


def _aliases(fn) -> dict:
    """{local name: method} for each local fn binds to a method read off self
    or an attribute of it (times = self.action_terms)."""
    return {t.id: a.value.attr for a in ast.walk(fn)
            if isinstance(a, ast.Assign) and isinstance(a.value, ast.Attribute)
            and _on_self(a.value.value) for t in a.targets if isinstance(t, ast.Name)}


def _self_calls(node, aliases=None) -> set:
    """Names of the methods node calls on self or on an attribute of it
    (self.algebra.product_terms), directly or through a local in aliases."""
    aliases = aliases or {}
    names = set()
    for call in ast.walk(node):
        if isinstance(call, ast.Call):
            f = call.func
            if isinstance(f, ast.Attribute) and _on_self(f.value):
                names.add(f.attr)
            elif isinstance(f, ast.Name) and f.id in aliases:
                names.add(aliases[f.id])
    return names


def _element_products(source: str, filename: str) -> list:
    """'file: Qual.name' per function that calls a product inside a loop:
    an element-level product beside the rule.

    The products are the rules (RULES), each method a rule of its own class
    calls on self (the rule on keys it maps to positions, as
    TateAlgebra.mul_keys) and, in turn, each method found.  A call counts
    on self, on an attribute of self (self.algebra.product_terms) and
    through a local bound to either (times = self.action_terms).  A method
    that passes a rule to taylor.bilinear calls no product.
    """
    products = set(RULES)
    for cls in ast.walk(ast.parse(source)):
        if isinstance(cls, ast.ClassDef):
            own = {item.name: item for item in cls.body if isinstance(item, ast.FunctionDef)}
            for rule in own.keys() & products:
                products |= _self_calls(own[rule]) & own.keys()

    def hit(fn):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return False
        aliases = _aliases(fn)
        return any(isinstance(node, LOOPS) and _self_calls(node, aliases) & products
                   for node in ast.walk(fn))

    found = []
    while new := [f for f in _functions_with(source, filename, hit) if f not in found]:
        found += new
        products |= {f.rsplit(".", 1)[-1] for f in new}
    return found


# Functions that may call a rule inside a loop, each with its measured reason.
# Every other element-level product goes through taylor.bilinear.
ELEMENT_PRODUCTS_ALLOWED = {
    "taylor.py: DgModule.check_unit":
        "sums the rule's integer terms; checking through element products made "
        "the corpus 24% slower",
    "taylor.py: DgModule.check_leibniz":
        "sums the rule's integer terms; checking through element products made "
        "the corpus 24% slower",
    "dgmodule.py: SemifreeDgModule._key_image":
        "b_i * d(g_t) by its own loop; through taylor.bilinear theorem-a ran about "
        "8% slower in-process",
}


def test_no_class_multiplies_elements_beside_its_rule():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        found += _element_products(path.read_text(encoding="utf-8"), path.name)
    stray = sorted(set(found) - set(ELEMENT_PRODUCTS_ALLOWED))
    assert not stray, "element-level products beside the rule:\n" + "\n".join(stray)
    stale = sorted(set(ELEMENT_PRODUCTS_ALLOWED) - set(found))
    assert not stale, "allowed but no longer calls a rule in a loop:\n" + "\n".join(stale)


def test_the_element_product_scan_sees_a_second_product():
    planted = ("class TateAlgebra(DgAlgebra):\n"
               "    def mul_keys(self, da, k1, db, k2):\n        return ()\n"
               "    def product_terms(self, da, ia, db, ib):\n"
               "        return self.mul_keys(da, ia, db, ib)\n"
               "    def mul_key_elt(self, k1, elt):\n"
               "        return [self.mul_keys(0, k1, 0, k2) for k2 in elt]\n"
               "    def mul_elt_elt(self, e1, e2):\n"
               "        for k1 in e1:\n            self.mul_key_elt(k1, e2)\n"
               "    def _key_image(self, d, key):\n"
               "        for k in key:\n            bilinear(self.mul_keys, 0, k, 0, k)\n"
               "class Square(TaylorComplex):\n"
               "    def square(self, elt):\n"
               "        while elt:\n            self.product_terms(0, elt.pop(), 0, 0)\n")
    assert _element_products(planted, "m.py") == [
        "m.py: TateAlgebra.mul_key_elt", "m.py: Square.square", "m.py: TateAlgebra.mul_elt_elt"]


def test_the_element_product_scan_sees_an_attribute_and_an_alias():
    planted = ("class DgModule:\n"
               "    def action_terms(self, dx, ix, ny, iy):\n        return ()\n"
               "    def check_unit(self, basis):\n"
               "        times = self.action_terms\n"
               "        return [times(0, 0, 0, i) for i in basis]\n"
               "    def unit(self, i):\n"
               "        times = self.action_terms\n"
               "        return bilinear(times, 0, i, 0, i)\n"
               "class SemifreeDgModule(DgModule):\n"
               "    def _key_image(self, n, key):\n"
               "        for i in key:\n"
               "            self.algebra.product_terms(0, i, 0, 0)\n"
               "    def action_terms(self, dx, ix, ny, iy):\n"
               "        return self.algebra.product_terms(dx, ix, ny, iy)\n")
    assert _element_products(planted, "m.py") == [
        "m.py: DgModule.check_unit", "m.py: SemifreeDgModule._key_image"]


# -- one adjunction engine -------------------------------------------------------


def _adjunction_sites(source: str, filename: str) -> tuple:
    """('file: Class._refresh' per class defining _refresh, 'file: Qual.name'
    per function calling check_adjunction, plainly or as an attribute)."""
    refreshes, callers = [], []

    def visit(node, qual):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = ".".join(qual + [child.name])
                if isinstance(child, ast.ClassDef):
                    refreshes.extend(f"{filename}: {name}._refresh" for item in child.body
                                     if isinstance(item, ast.FunctionDef)
                                     and item.name == "_refresh")
                elif any(isinstance(c, ast.Call)
                         and "check_adjunction" in (getattr(c.func, "attr", None),
                                                    getattr(c.func, "id", None))
                         for c in ast.walk(child)):
                    callers.append(f"{filename}: {name}")
                visit(child, qual + [child.name])

    visit(ast.parse(source), [])
    return refreshes, callers


def test_one_engine_refreshes_and_checks_adjunction():
    refreshes, callers = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        found = _adjunction_sites(path.read_text(encoding="utf-8"), path.name)
        refreshes += found[0]
        callers += found[1]
    assert refreshes == ["tate.py: AdjunctionEngine._refresh"]
    assert callers == ["tate.py: AdjunctionEngine.kill_homology"]


def test_the_adjunction_scan_sees_a_duplicate():
    planted = ("class Engine:\n    def _refresh(self):\n        pass\n"
               "class Module(Engine):\n    def _refresh(self):\n        pass\n"
               "def build(Y, cycles):\n    cycles.check_adjunction(Y.complex)\n"
               "def rebuild(cx, Y, spans):\n    check_adjunction(cx, Y.complex, 1, spans)\n")
    assert _adjunction_sites(planted, "m.py") == (
        ["m.py: Engine._refresh", "m.py: Module._refresh"], ["m.py: build", "m.py: rebuild"])


# -- one op path in the bar complex ----------------------------------------------


def _functions_with(source: str, filename: str, hit) -> list:
    """'file: Qual.name' per function with a node of its body (nested
    functions included) for which hit(node) holds."""
    found = []

    def visit(node, qual):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = ".".join(qual + [child.name])
                if not isinstance(child, ast.ClassDef) and any(map(hit, ast.walk(child))):
                    found.append(f"{filename}: {name}")
                visit(child, qual + [child.name])

    visit(ast.parse(source), [])
    return found


def _callers(source: str, filename: str, names) -> list:
    """'file: Qual.name' per function calling a function or an attribute
    whose name is in names."""
    def hit(node):
        return isinstance(node, ast.Call) and (
            getattr(node.func, "attr", None) or getattr(node.func, "id", None)) in names

    return _functions_with(source, filename, hit)


def test_only_the_block_image_calls_op_in_the_bar():
    path = PACKAGE / "bar.py"
    assert _callers(path.read_text(encoding="utf-8"), path.name, {"op"}) == [
        "bar.py: BarComplex._block_image"]


def test_the_op_scan_sees_a_duplicate():
    planted = ("class Bar:\n    def _block_image(self, on_y, block):\n"
               "        return self.mod.op(len(block), block)\n"
               "    def differential_of_word(self, w):\n"
               "        return (self.alg if len(w) > 1 else self.mod).op(1, w[-1:])\n")
    assert _callers(planted, "m.py", {"op"}) == ["m.py: Bar._block_image",
                                                 "m.py: Bar.differential_of_word"]


# -- one certified-cycle loop ------------------------------------------------------

CYCLE_CERTIFICATES = {"splitting_check", "project_to_minimal"}


def test_only_the_shared_cycle_loop_certifies_cycles():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        found += _callers(path.read_text(encoding="utf-8"), path.name, CYCLE_CERTIFICATES)
    assert found == ["pipeline.py: _certified_cycles"]


def test_the_certificate_scan_sees_a_duplicate():
    planted = ("def _certified_cycles(ctx, bar, qs, family):\n"
               "    return [splitting_check(r.rho, d, bd) for r in family()]\n"
               "def verify_golod(ctx):\n"
               "    return cycles.project_to_minimal(ctr, recs, I, q)\n"
               "def bar_report(ctx):\n"
               "    return bar.ranks\n")
    assert _callers(planted, "m.py", CYCLE_CERTIFICATES) == [
        "m.py: _certified_cycles", "m.py: verify_golod"]


# -- one report timer ----------------------------------------------------------------


def _timing_writers(source: str, filename: str) -> list:
    """'file: Qual.name' per function that writes "timingSeconds", as a key
    of a dict display or as the item of a subscript store."""
    def is_timing(node):
        return isinstance(node, ast.Constant) and node.value == "timingSeconds"

    def hit(node):
        if isinstance(node, ast.Dict):
            return any(k is not None and is_timing(k) for k in node.keys)
        return (isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store)
                and is_timing(node.slice))

    return _functions_with(source, filename, hit)


def test_only_run_command_writes_the_timing():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        found += _timing_writers(path.read_text(encoding="utf-8"), path.name)
    assert found == ["cli.py: run_command"]


def test_the_timing_scan_sees_a_duplicate():
    planted = ("TIMING_KEYS = {'timingSeconds'}\n"
               "def run_command(command, spec):\n"
               "    body['timingSeconds'] = 0.0\n"
               "def bar_report(ctx):\n"
               "    return {'ranks': [], 'timingSeconds': 0.0}\n"
               "def strip_timing(obj):\n"
               "    return {k: v for k, v in obj.items() if k not in TIMING_KEYS}\n")
    assert _timing_writers(planted, "m.py") == ["m.py: run_command", "m.py: bar_report"]


# -- one keyed-complex builder -------------------------------------------------------

COMPLEX_BUILDERS = ["complexes.py: keyed_complex", "contraction.py: Contraction.truncated",
                    "resolve.py: resolve_over_R"]
# GradedFreeComplex and its subclass resolve.Resolution
COMPLEX_CLASSES = {"GradedFreeComplex", "Resolution"}


def test_only_the_keyed_builder_and_the_resolutions_construct_a_complex():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        found += _callers(path.read_text(encoding="utf-8"), path.name, COMPLEX_CLASSES)
    assert found == COMPLEX_BUILDERS


def test_the_complex_scan_sees_a_duplicate():
    planted = ("def keyed_complex(ring, basis, internal_degree, image):\n"
               "    return GradedFreeComplex(ring, {}, {})\n"
               "class BarComplex:\n"
               "    def _assemble(self):\n"
               "        return complexes.GradedFreeComplex(self.ring, {}, {})\n"
               "def minimal_degrees(cx) -> GradedFreeComplex:\n"
               "    return cx.degrees\n"
               "def resolve_again(ring, degrees):\n"
               "    return Resolution(ring, degrees, {})\n")
    assert _callers(planted, "m.py", COMPLEX_CLASSES) == [
        "m.py: keyed_complex", "m.py: BarComplex._assemble", "m.py: resolve_again"]


# -- one home for strand ranks over R ----------------------------------------------


def test_only_strands_ranks_strands():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        found += _callers(path.read_text(encoding="utf-8"), path.name, {"rank_of"})
    assert found == ["complexes.py: Strands.rank"]


def test_the_rank_scan_sees_a_duplicate():
    planted = ("class GradedFreeComplex:\n"
               "    def _strand_rank(self, n, d):\n"
               "        return rank_of(self.strand_columns(n, d), self.ring.p)\n"
               "class Strands:\n"
               "    def rank(self, n, d):\n"
               "        return linalg.rank_of(self.columns(n, d), self.cx.ring.p)\n")
    assert _callers(planted, "m.py", {"rank_of"}) == [
        "m.py: GradedFreeComplex._strand_rank", "m.py: Strands.rank"]


# -- every import is read --------------------------------------------------------------


def _unread_imports(source: str, filename: str) -> list:
    """'file: name' per name a module-level import binds (from __future__
    aside) that no expression of the module reads."""
    tree = ast.parse(source)
    bound = [(alias.asname or alias.name).split(".")[0]
             for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))
             and getattr(node, "module", None) != "__future__" for alias in node.names]
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [f"{filename}: {name}" for name in bound if name not in read]


def test_every_module_import_is_read():
    unread = []
    for label, source in _scanned():
        if label != "__init__.py":
            unread += _unread_imports(source, label)
    assert not unread, "imported but never read:\n" + "\n".join(unread)


def test_every_test_and_script_import_is_read():
    unread = []
    for folder in ("tests", "scripts"):
        for path in sorted((ROOT / folder).glob("*.py")):
            unread += _unread_imports(path.read_text(encoding="utf-8"), f"{folder}/{path.name}")
    assert not unread, "imported but never read:\n" + "\n".join(unread)


def test_the_import_scan_sees_a_stale_import():
    planted = ("from __future__ import annotations\n"
               "import os.path\n"
               "from .linalg import rank_of\n"
               "from .groebner import Ideal, Strand as S\n"
               "def f(x: Ideal) -> S:\n"
               "    return os.path.join(x)\n")
    assert _unread_imports(planted, "m.py") == ["m.py: rank_of"]


# -- one dg-pair builder ----------------------------------------------------------------

RESOLUTION_BUILDERS = {"build_semifree_resolution", "acyclic_closure"}


def test_only_dg_pair_grows_resolutions_in_the_pipeline():
    path = PACKAGE / "pipeline.py"
    assert _callers(path.read_text(encoding="utf-8"), path.name, RESOLUTION_BUILDERS) == [
        "pipeline.py: dg_pair"]


def test_the_resolution_scan_sees_a_duplicate():
    planted = ("def dg_pair(ctx, pres, cap, algebra='taylor'):\n"
               "    X = acyclic_closure(ctx.ring, ctx.minimal_gens, through=cap)\n"
               "    return X, build_semifree_resolution(pres, X, up_to=cap)\n"
               "def ainf_pair(ctx, pres, caps):\n"
               "    X = TaylorComplex(ctx.ring, taylor_generators(ctx))\n"
               "    return X, dgmodule.build_semifree_resolution(pres, X, up_to=caps.hom_degree)\n"
               "def bar_report(ctx, pres, caps, regime):\n"
               "    return dg_pair(ctx, pres, cap=caps.hom_degree)\n")
    assert _callers(planted, "m.py", RESOLUTION_BUILDERS) == ["m.py: dg_pair",
                                                              "m.py: ainf_pair"]


# -- one strand pass per syzygy ----------------------------------------------------------


def _strand_builders(source: str, filename: str) -> list:
    """'file: Qual.name' per function that constructs a Strand or calls
    .span(, plainly or as an attribute."""
    def hit(node):
        if not isinstance(node, ast.Call):
            return False
        name = getattr(node.func, "attr", None) or getattr(node.func, "id", None)
        return name == "Strand" or (name == "span" and isinstance(node.func, ast.Attribute))

    return _functions_with(source, filename, hit)


def test_the_k_rank_and_the_projection_build_no_strand():
    found = []
    for name in ("krank.py", "cycles.py"):
        found += _strand_builders((PACKAGE / name).read_text(encoding="utf-8"), name)
    assert found == []


def test_the_strand_scan_sees_a_rebuilt_strand():
    planted = ("def krank_image(matrix, quotient):\n"
               "    strand = Strand(quotient.table(), matrix.row_degrees, 0)\n"
               "    return strand.socle()\n"
               "def project_to_minimal(ctr, cycles, quotient, q):\n"
               "    return [strand.span(kergens, 1) for strand in cycles]\n"
               "def theorem_verdicts(res, up_to):\n"
               "    return groebner.Strand, res.kranks[:up_to]\n"
               "def span(rows):\n"
               "    return rows\n"
               "def rows(res):\n"
               "    return span(res)\n")
    assert _strand_builders(planted, "m.py") == ["m.py: krank_image", "m.py: project_to_minimal"]
