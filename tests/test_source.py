"""Source-level guards on the package itself and on the walker source it
generates at run time, which the scans of the package files cannot see."""

import ast
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
    # the links generated for the E8 and Leech tables
    found = []
    for name, gram in (("e8", lattices.e8_gram()), ("leech", leech_gram())):
        tables = lattices._fincke_pohst_tables(lattices.lll(gram).gram.entries)
        for k, source in enumerate(lattices._walker_links(*tables)):
            found.append((f"{name} link {k}", source))
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


def test_no_assert_statements_in_package():
    # `python -O` strips asserts; invariants must raise named errors instead
    assert assert_statements(package_sources()) == []
    assert assert_statements(walker_sources()) == []


def test_no_floats_in_package():
    # exact arithmetic only: no float or complex literal, no float() call
    assert float_uses(package_sources()) == []
    assert float_uses(walker_sources()) == []


def test_walker_source_depends_only_on_its_tables():
    for gram in (lattices.e8_gram(), leech_gram()):
        rows, step, scale = lattices._fincke_pohst_tables(lattices.lll(gram).gram.entries)
        links = lattices._walker_links(rows, step, scale)
        copies = ([list(row) for row in rows], list(step), scale)
        assert lattices._walker_links(*copies) == links
        literals = {
            node.value
            for source in links
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Constant)
        }
        assert scale in literals
        assert not literals & {max_norm * scale for max_norm in (2, 4, 6)}
