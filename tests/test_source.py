"""Source-level guards on the package itself and on the walker source it
generates at run time, which the scans of the package files cannot see."""

import ast
import hashlib
import re
from pathlib import Path

import qleech
import qleech.lattices as lattices
from qleech.lorentz import leech_gram

PACKAGE = Path(qleech.__file__).parent


def package_sources():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    return [(path.name, path.read_text(encoding="utf-8")) for path in sources]


def walker_sources():
    # the phases generated for the E8 and Leech tables, with one cut and
    # with the cascade
    found = []
    for name, gram in (("e8", lattices.e8_gram()), ("leech", leech_gram())):
        rows, step, _ = lattices._fincke_pohst_tables(*lattices._lll(gram)[:2])
        for max_norm in (2, 4):
            cuts = lattices._cut_levels(gram.dim, max_norm)
            for p, source in enumerate(lattices._walker_sources(rows, step, cuts)):
                found.append((f"{name} norm {max_norm} phase {p}", source))
    return found


def assert_statements(sources):
    return [
        f"{name}:{node.lineno}"
        for name, source in sources
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Assert)
    ]


def float_uses(sources):
    return [
        f"{name}:{node.lineno}"
        for name, source in sources
        for node in ast.walk(ast.parse(source))
        if (isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)))
        or (isinstance(node, ast.Name) and node.id == "float")
    ]


def imports_of(modules, sources):
    return [
        f"{name}:{node.lineno}"
        for name, source in sources
        for node in ast.walk(ast.parse(source))
        if (isinstance(node, ast.Import) and any(a.name in modules for a in node.names))
        or (isinstance(node, ast.ImportFrom) and node.module in modules)
    ]


def type_error_handlers(sources):
    return [
        f"{name}:{node.lineno}"
        for name, source in sources
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ExceptHandler)
        and node.type is not None
        and any(
            isinstance(n, ast.Name) and n.id == "TypeError"
            for n in (node.type.elts if isinstance(node.type, ast.Tuple) else [node.type])
        )
    ]


def test_no_assert_statements_in_package():
    # `python -O` strips asserts; invariants must raise named errors instead
    assert assert_statements(package_sources()) == []
    assert assert_statements(walker_sources()) == []


def test_no_floats_in_package():
    # exact arithmetic only: no float or complex literal, no float() call
    assert float_uses(package_sources()) == []
    assert float_uses(walker_sources()) == []


def test_no_dataclasses_typing_or_inspect_in_package():
    # every CLI process would pay for their import: the records derive from
    # qleech._Value, and annotations take their names from collections.abc
    assert imports_of({"dataclasses", "typing", "inspect"}, package_sources()) == []


def test_no_fractions_in_package():
    # one integer elimination core: rational arithmetic lives only in the
    # test oracles
    assert imports_of({"fractions"}, package_sources()) == []


def test_integer_rule_has_one_home():
    # every integer input goes through qleech._integers: one handler turns
    # operator.index's TypeError into ValueError("... must be integers")
    handlers = type_error_handlers(package_sources())
    assert [h.split(":")[0] for h in handlers] == ["__init__.py"], handlers


def test_walker_source_depends_only_on_its_tables():
    # the steps are written in as literals, the budget is not: the scale
    # is applied where short_vectors reads the norms, outside the walker
    for gram in (lattices.e8_gram(), leech_gram()):
        rows, step, scale = lattices._fincke_pohst_tables(*lattices._lll(gram)[:2])
        cuts = lattices._cut_levels(gram.dim, 4)
        sources = lattices._walker_sources(rows, step, cuts)
        copies = ([list(row) for row in rows], list(step), cuts)
        assert lattices._walker_sources(*copies) == sources
        literals = {
            node.value
            for source in sources
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Constant)
        }
        assert set(step) <= literals
        assert not literals & {max_norm * scale for max_norm in (2, 4, 6)}


# sha256 of the walker source, its phases joined in order; Leech's norms 4
# and 6 share one schedule of cuts, and so one source
WALKER_DIGESTS = {
    ("leech", 2): "66a83cfa02465aaf25fd152cc70db33d66172de6452ecb537daacf6e4d152abe",
    ("leech", 4): "2137cf09508073842943bd5ef6f2515b21b515c81350b846af31255300448315",
    ("leech", 6): "2137cf09508073842943bd5ef6f2515b21b515c81350b846af31255300448315",
    ("e8", 8): "c51b7f8d88f0129b90626d036e6a44aeaf63e2658cf2b6c4d840daf854712971",
}


def test_walker_source_is_pinned():
    grams = {"leech": leech_gram(), "e8": lattices.e8_gram()}
    for (name, max_norm), digest in WALKER_DIGESTS.items():
        rows, step, _ = lattices._fincke_pohst_tables(*lattices._lll(grams[name])[:2])
        cuts = lattices._cut_levels(grams[name].dim, max_norm)
        sources = lattices._walker_sources(rows, step, cuts)
        assert len(sources) == len(cuts) + 1
        assert hashlib.sha256("".join(sources).encode()).hexdigest() == digest, (name, max_norm)


def test_walker_nodes_have_one_shape():
    # every node refreshes its partial sums into s<k>_<i> locals and then
    # enters its child's loop, whose range, the +-v clamp included, is
    # written in the `for` header and empty at a dead end: no phase skips a
    # node with `continue`, keeps a centre in a c<i> local or names lo or
    # hi.  Every phase, the last one too, ends at a cut: its only `if` is
    # the first sighting of a key, and no phase reads a norm (divmod, used)
    # or raises
    grams = {"leech": leech_gram(), "e8": lattices.e8_gram()}
    for name, max_norm in (("leech", 2), ("leech", 4), ("leech", 6), ("e8", 8)):
        rows, step, _ = lattices._fincke_pohst_tables(*lattices._lll(grams[name])[:2])
        cuts = lattices._cut_levels(grams[name].dim, max_norm)
        for p, source in enumerate(lattices._walker_sources(rows, step, cuts)):
            where = (name, max_norm, p)
            nodes = list(ast.walk(ast.parse(source)))
            assert not any(isinstance(node, (ast.Continue, ast.Raise)) for node in nodes), where
            names = {node.id for node in nodes if isinstance(node, ast.Name)}
            assert not any(re.fullmatch(r"c\d+", v) for v in names), where
            assert not names & {"lo", "hi", "divmod", "used", "ConstructionError"}, where
            for node in nodes:
                if isinstance(node, ast.For):
                    # R<i+1> is the budget left above level i
                    header = rf"range\(-.* if R{int(node.target.id[1:]) + 1} < budget else 0, .* \+ 1\)"
                    assert re.fullmatch(header, ast.unparse(node.iter)), where
            ifs = [ast.unparse(node.test) for node in nodes if isinstance(node, ast.If)]
            assert ifs == ["seen is None"], where


def test_walker_namespace_holds_only_isqrt():
    # the phases need nothing but isqrt besides the builtins: the scale
    # check and its ConstructionError live in short_vectors
    rows, step, _ = lattices._fincke_pohst_tables(*lattices._lll(leech_gram())[:2])
    cuts = lattices._cut_levels(24, 4)
    phases = lattices._walker(rows, step, cuts)
    namespace = phases[0].__globals__
    assert all(phase.__globals__ is namespace for phase in phases)
    assert set(namespace) == {"__builtins__", "isqrt", *(f"_p{p}" for p in range(len(cuts) + 1))}


REPO = Path(__file__).resolve().parents[1]


def public_definitions(tree):
    """(name, node) for each public module-level name of a module and each
    public non-dunder method or property of its classes."""
    for node in tree.body:
        names = []
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        for name in names:
            yield name, node
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, ast.FunctionDef):
                    yield member.name, member


def name_uses(tree):
    """(name, line) for each name, attribute and imported name in tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.name, node.lineno


def test_public_names_have_callers():
    # the public surface holds only what the package, the acceptance gate,
    # the benchmark and the entry point use: a public name that only unit
    # tests reach is dead code
    package = sorted(PACKAGE.glob("*.py"))
    callers = [*package, REPO / "tests" / "test_acceptance.py", *sorted((REPO / "bench").glob("*.py"))]
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in callers}
    uses = [(path, name, line) for path, tree in trees.items() for name, line in name_uses(tree)]
    entry_points = set(re.findall(r"\w+", (REPO / "pyproject.toml").read_text(encoding="utf-8")))
    unused = []
    for path in package:
        for name, node in public_definitions(trees[path]):
            if name.startswith("_") or name in entry_points:
                continue
            inside = range(node.lineno, node.end_lineno + 1)
            if not any(n == name and (p != path or line not in inside) for p, n, line in uses):
                unused.append(f"{path.name}:{node.lineno} {name}")
    assert unused == []
