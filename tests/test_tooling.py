"""The traced benchmark launcher still finds every name it wraps, the
package imports no source of randomness, no warnings, no name it leaves
unused and no code generator, re-exports no test oracle, and verify builds
its Gaussians in one place, states the window rule in one, walks the
structure grid in one, tallies its reports in one and reads an ideal's
one-box steps off the exported layout, and no module reaches around a
memo."""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_traced(tmp_path, cli_args):
    """Run perfbench/traced.py on one kyoung invocation; its layers by name."""
    out = tmp_path / "trace.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    argv = [sys.executable, str(ROOT / "perfbench" / "traced.py"), str(out), *cli_args]
    proc = subprocess.run(argv, cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(out.read_text())["layers"]


def test_traced_launcher_runs_and_reads_gaussian_cache(tmp_path):
    layers = run_traced(tmp_path, ["rankgen", "--m", "3", "--n", "3", "--k", "4"])
    assert "cache_size" in layers["qpoly.gaussian"]


QSERIES_IDLE = {"qpoly.gaussian", "qpoly.predicates", "qpoly.series"}


@pytest.mark.parametrize(
    "cli_args, expected, idle",
    [
        (
            ["verify", "sieved", "--m", "2:6", "--a", "2:9", "--b", "3:10", "--k", "3:12"],
            {"verify"},
            QSERIES_IDLE,
        ),
        (
            ["verify", "conjecture-gen", "--m", "2:4", "--a", "2:6", "--b", "3:7", "--n", "1:6"],
            {"verify"},
            QSERIES_IDLE,
        ),
        (
            ["rankgen", "--m", "3", "--n", "3", "--k", "4"],
            {"qpoly.gaussian", "qpoly.series", "qpoly.add"},
            set(),
        ),
    ],
    ids=["sieved", "conjecture-gen", "rankgen"],
)
def test_traced_launcher_times_the_qseries_layers(tmp_path, cli_args, expected, idle):
    # sieved reads the residue totals of qpoly.gaussian_residues and
    # conjecture-gen the series of a qpoly.LimitColumn, neither of them a
    # span: their time is verify's.  Neither builds a Gaussian nor calls a
    # predicate or a series: sieved's cyclotomic clause is that a window's
    # residue sums are equal, and window_failures calls no is_unimodal.
    # rankgen reaches qpoly.series through rank_gen_Lk, which reads one
    # Gaussian and adds two QPolys (QPoly.__add__)
    layers = run_traced(tmp_path, cli_args)
    assert expected <= set(layers)
    assert all(layers[name]["calls"] > 0 for name in expected)
    assert all(layers.get(name, {}).get("calls", 0) == 0 for name in idle)


def test_traced_launcher_times_the_structure_layers(tmp_path):
    # the enumeration, the lattice operations, the diagram build, the k-skew
    # readers and the covers are wrapped by attribute:
    # ideals.enumerate_ideal/gamma_set, ideals.meet/join/complement_dual,
    # lattice.build_ideal, partitions.k_skew/k_conjugate and
    # lattice.covers/covers_oracle/check_rectangle_translation must all still
    # exist under those names, or the launcher fails, and the two k-skew
    # readers keep the lru cache whose size the launcher reports.  Duality
    # rotates and combines members through the unchecked *_parts functions,
    # so the validating lattice operations are never called
    cli_args = ["verify", "structure", "--m-max", "2", "--n-max", "3", "--k-max", "3"]
    layers = run_traced(tmp_path, [*cli_args, "--degree-max", "4"])
    cached = {"partitions.k_skew", "partitions.k_conjugate"}
    expected = {"ideals.enumerate_ideal", "lattice.build_ideal", "lattice.covers"}
    assert expected | cached <= set(layers)
    assert all(layers[name]["calls"] > 0 for name in expected | cached)
    assert all(layers[name]["cache_size"] > 0 for name in cached)
    assert "ideals.lattice_ops" not in layers


def test_traced_launcher_times_the_ideal_json_writer(tmp_path):
    # cli streams the export through lattice.write_json and write_dot, which
    # no span wraps, so their time is cli's self time: neither verify.render
    # nor the HasseDiagram methods traced.py binds (lattice.render) is called
    from kyoung import lattice

    cli_args = ["ideal", "--m", "3", "--n", "4", "--k", "4", "--out", "F"]
    diagram = lattice.build_ideal((3, 3, 3, 3), 4)
    json_text = json.dumps(diagram.to_json_dict(), indent=2) + "\n"
    for out, flags, text in (("F", [], json_text), ("G", ["--dot"], diagram.to_dot())):
        layers = run_traced(tmp_path, [*cli_args[:-1], out, *flags])
        assert (tmp_path / out).read_text() == text
        assert layers["cli"]["calls"] == 1
        assert "verify.render" not in layers and "lattice.render" not in layers


def test_traced_launcher_times_the_report_writer(tmp_path):
    # a sweep with --out reaches render only through export
    cli_args = ["verify", "sieved", "--m", "2", "--a", "2", "--b", "4", "--k", "3", "--out", "F"]
    layers = run_traced(tmp_path, cli_args)
    assert (tmp_path / "F").exists()
    assert layers["verify.render"]["calls"] > 0


def test_no_module_imports_random():
    # no randomness affects any report (README), so the package draws none;
    # nor does it warn: a rule it breaks raises, and an empty answer is one
    for path in sorted((ROOT / "src" / "kyoung").rglob("*.py")):
        imported = set()
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                imported.update(alias.name.partition(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.partition(".")[0])
        assert not {"random", "warnings"} & imported, path


@pytest.mark.parametrize("tree", ["src", "tests", "sweeps", "perfbench"])
def test_every_file_parses_as_python_3_10(tree):
    # the grammar only: a library API newer than 3.10 still parses
    paths = sorted((ROOT / tree).rglob("*.py"))
    assert paths
    for path in paths:
        ast.parse(path.read_text(), str(path), feature_version=(3, 10))


def test_no_module_imports_a_name_it_never_uses():
    # a deletion can leave an import behind; __init__.py imports to re-export
    for path in sorted((ROOT / "src" / "kyoung").rglob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        imported = {
            (alias.asname or alias.name).partition(".")[0]  # import a.b binds a
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for alias in node.names
        }
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        assert imported <= used, (path.name, sorted(imported - used))


def test_verify_fills_residues_only_for_the_sieved_tally():
    # the level-k stratum comes from qpoly.window_sum, whose closed form
    # rank_gen_gamma is the tests' oracle; sieved reads both of its halves
    # off one tally of the residue totals of [x choose m-1]_q, filled in one
    # place; the window checks read one LimitColumn per m, and
    # structure-gamma and structure-decomposition one per window; and
    # verify builds no Gaussian
    path = ROOT / "src" / "kyoung" / "verify.py"
    tree = ast.parse(path.read_text(), str(path))
    nodes = list(ast.walk(tree))
    names = {node.id for node in nodes if isinstance(node, ast.Name)}
    names.update(node.attr for node in nodes if isinstance(node, ast.Attribute))
    names.update(node.name for node in nodes if isinstance(node, ast.alias))
    assert not {"rank_gen_gamma", "gaussian", "sieved_sums"} & names
    calls = {
        name: [
            (f.name, [ast.unparse(arg) for arg in node.args])
            for f in ast.walk(tree)
            if isinstance(f, ast.FunctionDef)
            for node in ast.walk(f)
            if isinstance(node, ast.Call) and ast.unparse(node.func) == f"qpoly.{name}"
        ]
        for name in ("gaussian_residues", "LimitColumn")
    }
    assert calls == {
        "gaussian_residues": [("_sieved_cells", ["m_val", "top"])],
        "LimitColumn": [
            ("_conjecture_u_cells", ["m"]),
            ("_conjecture_gen_cells", ["m_val"]),
            ("_gamma_cells", ["spec.m"]),
            ("_decomposition_cells", ["spec.m"]),
        ],
    }
    (tally,) = [
        node.value
        for node in nodes
        if isinstance(node, ast.Assign) and [ast.unparse(t) for t in node.targets] == ["tally"]
    ]
    assert ast.unparse(tally.generators[0].iter) == "residues"


def test_one_series_decides_and_writes_every_window():
    # window_failures, which decides a window's cells, and window_sum, which
    # writes a failing cell's coefficients, read one difference series off
    # a LimitColumn; the product formula is left to rank_gen_Lk and to the
    # closed forms the tests and perfbench/traced.py read; and the window
    # checks hand window_sum the column they share and all of a window's
    # failing n in one call
    source = ROOT / "src" / "kyoung"
    tree = ast.parse((source / "qpoly.py").read_text())
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    names.update(node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef))
    assert "_window_series" not in names

    def callers(tree, name):
        return {
            f.name
            for f in ast.walk(tree)
            if isinstance(f, ast.FunctionDef)
            for node in ast.walk(f)
            if isinstance(node, ast.Call) and ast.unparse(node.func) == name
        }

    assert callers(tree, "gaussian") == {"rank_gen_Lk", "rank_gen_gamma", "conjecture_sum"}
    assert callers(tree, "_window_differences") == {"window_failures", "window_sum"}
    tree = ast.parse((source / "verify.py").read_text())
    functions = [f for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)]
    (cells,) = [f for f in functions if f.name == "_window_cells"]
    calls = [
        [ast.unparse(arg) for arg in node.args]
        for node in ast.walk(cells)
        if isinstance(node, ast.Call) and ast.unparse(node.func) == "qpoly.window_sum"
    ]
    assert calls == [["column", "a", "b", "failures"]]


def test_every_window_is_read_through_a_column():
    # m has one source: window_sum and window_failures read it off the
    # column, so every production call hands them a LimitColumn first,
    # either built at the call or a parameter annotated as one
    readers = ("window_sum", "window_failures")
    calls = []
    for path in sorted((ROOT / "src" / "kyoung").glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for f in ast.walk(tree):
            if not isinstance(f, ast.FunctionDef):
                continue
            columns = {
                arg.arg
                for arg in f.args.args
                if arg.annotation is not None
                and ast.unparse(arg.annotation) in ("LimitColumn", "qpoly.LimitColumn")
            }
            for node in ast.walk(f):
                if not isinstance(node, ast.Call):
                    continue
                name = ast.unparse(node.func).removeprefix("qpoly.")
                if name not in readers:
                    continue
                first = node.args[0] if node.args else None
                built = isinstance(first, ast.Call) and ast.unparse(first.func) in (
                    "LimitColumn", "qpoly.LimitColumn"
                )
                held = isinstance(first, ast.Name) and first.id in columns
                assert built or held, (path.name, f.name, ast.unparse(node))
                calls.append((f.name, name))
    assert sorted(calls) == [
        ("_decomposition_cells", "window_sum"),
        ("_gamma_cells", "window_sum"),
        ("_window_cells", "window_failures"),
        ("_window_cells", "window_sum"),
    ]


ORACLES = (
    "conjecture_sum",
    "cyclotomic_check",
    "cyclotomic_polynomial",
    "vanishes_mod_cyclotomic",
    "sieved_sums",
    "rank_gen_gamma",
    "is_unimodal",
)


def test_the_test_oracles_are_not_reexported():
    # no production route reaches them, so kyoung's top level does not bind
    # them; kyoung.qpoly still does, where the tests and perfbench/traced.py
    # read them
    import kyoung
    from kyoung import qpoly

    assert [name for name in ORACLES if hasattr(kyoung, name)] == []
    assert all(callable(getattr(qpoly, name, None)) for name in ORACLES)


# The module-level functions and classes of src/kyoung that nothing else in
# the package refers to, each with the reason it stays: kyoung/__init__.py
# re-exports it as library API, or perfbench/traced.py binds it to time a
# layer, or both (ROADMAP items 8 and 17).
UNCALLED = {
    "ideals.complement_dual": "library API; traced.py's ideals.lattice_ops span",
    "ideals.join": "library API; traced.py's ideals.lattice_ops span",
    "ideals.meet": "library API; traced.py's ideals.lattice_ops span",
    "lattice.check_rectangle_translation": "library API; traced.py's lattice.covers span",
    "lattice.leq": "library API, which C08 reads; traced.py's lattice.leq span",
    "partitions.residue": "library API",
    "partitions.skew_shape": "library API",
    "qpoly.cyclotomic_check": "test oracle; traced.py's qpoly.series span",
    "qpoly.is_unimodal": "test oracle; traced.py's qpoly.predicates span",
    "qpoly.rank_gen_gamma": "test oracle; traced.py's qpoly.series span",
    "verify.run_check": "library API; traced.py's verify span",
}


def test_every_production_route_has_a_caller():
    # a module-level function or class that no other code in src/kyoung
    # refers to is a dead route, unless UNCALLED names it; its own body and
    # kyoung/__init__.py's import are no reference.  A name is referred to
    # as module.name, or bare in its own module or one that imports it by
    # `from .module import name`
    source = ROOT / "src" / "kyoung"
    trees = {path.stem: ast.parse(path.read_text(), str(path)) for path in source.glob("*.py")}
    exported = {
        f"{node.module}.{alias.name}"
        for node in ast.walk(trees.pop("__init__"))
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    defined, referred = set(), set()
    for stem, tree in trees.items():
        bound = {
            alias.asname or alias.name: f"{node.module}.{alias.name}"
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names
        }
        for statement in tree.body:
            own = None
            if isinstance(statement, (ast.FunctionDef, ast.ClassDef)):
                own = f"{stem}.{statement.name}"
                defined.add(own)
            for node in ast.walk(statement):
                if isinstance(node, ast.Name):
                    name = bound.get(node.id, f"{stem}.{node.id}")
                elif (
                    isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id in trees
                ):
                    name = f"{node.value.id}.{node.attr}"
                else:
                    continue
                if name != own:
                    referred.add(name)
    assert sorted(defined - referred) == sorted(UNCALLED)
    # each reason holds: the name is re-exported or traced.py binds it
    traced = ast.parse((ROOT / "perfbench" / "traced.py").read_text())
    bound_by_tracer = {
        ast.unparse(node) for node in ast.walk(traced) if isinstance(node, ast.Attribute)
    }
    for name, reason in UNCALLED.items():
        assert ("library API" in reason) == (name in exported), name
        assert ("traced.py" in reason) == (name in bound_by_tracer), name


def memo_bypasses(source):
    """(line, name) for each read of a memo's __wrapped__ or cache_clear in
    source, as an attribute or as the name getattr is given."""
    return [
        (node.lineno, name)
        for node in ast.walk(ast.parse(source))
        for name in [
            node.attr if isinstance(node, ast.Attribute)
            else node.value if isinstance(node, ast.Constant)
            else None
        ]
        if name in ("__wrapped__", "cache_clear")
    ]


def test_no_module_reaches_around_a_memo():
    # the memoised k_skew, k_conjugate, lattice._covers and gaussian are
    # called through their memos: no module of the package reads a memo's
    # __wrapped__ or empties it with cache_clear, so the structure walk
    # builds each k-skew through the memo that perfbench/traced.py counts
    found = {
        path.name: memo_bypasses(path.read_text())
        for path in sorted((ROOT / "src" / "kyoung").rglob("*.py"))
    }
    assert {name: lines for name, lines in found.items() if lines} == {}
    bypass = "x = k_skew.__wrapped__(p, k)\ngetattr(k_conjugate, 'cache_clear')()\n"
    assert memo_bypasses(bypass) == [(1, "__wrapped__"), (2, "cache_clear")]


def test_only_the_window_readers_read_a_column():
    # a column is read only through window_sum and window_failures, which
    # judge m and the window first: LimitColumn has no public read, and only
    # _window_differences, which both of them call, calls _read
    from kyoung.qpoly import LimitColumn

    assert not hasattr(LimitColumn, "read") and hasattr(LimitColumn, "_read")
    callers = []
    for path in sorted((ROOT / "src" / "kyoung").rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        callers += [
            (path.name, f.name)
            for f in ast.walk(tree)
            if isinstance(f, ast.FunctionDef)
            for node in ast.walk(f)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "_read"
        ]
    assert callers == [("qpoly.py", "_window_differences")]


def test_only_the_export_and_the_ideal_view_build_a_layout():
    # the box side of structure-subposet and structure-duality is the
    # IdealLayout that `kyoung ideal` writes: only cli, which writes it, and
    # verify's _IdealView construct one, and the one-box step rule lives in
    # IdealLayout alone, so no function of verify splices a part into a
    # partition, as in b[:i] + (b[i] + 1,) + b[i + 1:]
    builders, splicers = [], []
    for path in sorted((ROOT / "src" / "kyoung").rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for top in tree.body:
            where = (path.name, getattr(top, "name", None))  # a def or a class, if named
            for node in ast.walk(top):
                if isinstance(node, ast.Call) and ast.unparse(node.func).endswith("IdealLayout"):
                    builders.append(where)
                sides = (node.left, node.right) if isinstance(node, ast.BinOp) else ()
                if any(isinstance(x, ast.Tuple) for x in sides) and any(
                    isinstance(x, ast.Subscript) and isinstance(x.slice, ast.Slice) for x in sides
                ):
                    splicers.append(where)
    assert builders == [("cli.py", "_main"), ("verify.py", "_IdealView")]
    assert ("ideals.py", "IdealLayout") in splicers
    assert [top for name, top in splicers if name in ("ideals.py", "verify.py")] == ["IdealLayout"]


def test_qualifies_alone_states_the_window_rule():
    # conjecture-u, conjecture-gen and both halves of sieved claim a window
    # when verify.qualifies admits it, and the tally keeps the x that
    # qualifies(x, x, m) admits: a residue mod m only picks a residue total,
    # never decides a claim, and only qualifies asks whether an endpoint is
    # prime to m
    path = ROOT / "src" / "kyoung" / "verify.py"
    tree = ast.parse(path.read_text(), str(path))
    residues = {
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod)
        and ast.unparse(node.right) in ("m", "m_val")
    }
    indices = {
        node
        for sub in ast.walk(tree)
        if isinstance(sub, ast.Subscript)
        for node in ast.walk(sub.slice)
    }
    assert sorted(ast.unparse(node) for node in residues - indices) == []
    owners = [
        f.name
        for f in ast.walk(tree)
        if isinstance(f, ast.FunctionDef)
        for node in ast.walk(f)
        if isinstance(node, ast.Call) and ast.unparse(node.func) in ("gcd", "math.gcd")
    ]
    assert set(owners) == {"qualifies"}


def test_only_sweep_tallies_a_report():
    # every check's cells go through verify.VerificationReport._add, the one
    # function that writes a report's counts or adds to its counterexamples,
    # called by _sweep and by the structure walk; the report's constructor
    # only starts each of them empty
    path = ROOT / "src" / "kyoung" / "verify.py"
    tallied = {"grid", "passed", "failed", "skipped", "counterexamples"}

    def writers(node, owner):
        """(owner, how, value) for each write to a tallied field: owner is
        the qualified name of the function or class that writes it."""
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name if owner == "<module>" else f"{owner}.{node.name}"
        targets = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        attributes = [t for target in targets for t in ast.walk(target)]
        if any(isinstance(t, ast.Attribute) and t.attr in tallied for t in attributes):
            value = node.value and ast.unparse(node.value)
            yield owner, type(node).__name__, value
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if ast.unparse(node.func.value).endswith(".counterexamples"):
                yield owner, "Call", ast.unparse(node)
        for child in ast.iter_child_nodes(node):
            yield from writers(child, owner)

    tree = ast.parse(path.read_text(), str(path))
    found = set(writers(tree, "<module>"))
    init = "VerificationReport.__init__"
    assert {owner for owner, _, _ in found} == {"VerificationReport._add", init}
    starts = [(how, value) for owner, how, value in found if owner == init]
    assert starts and all(how in ("Assign", "AnnAssign") for how, _ in starts), starts
    assert {value for _, value in starts} <= {"0", "[]"}, starts


def test_the_cli_imports_no_code_generator():
    # each kyoung run pays its import before its first cell, so the package
    # imports no dataclasses and no inspect, nor the ast, dis and tokenize
    # these load; -S keeps site, which may load some of them, out of it
    code = "import sys, kyoung.cli; print(*sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    argv = [sys.executable, "-S", "-c", code]
    proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert "kyoung.verify" in loaded
    assert not {"dataclasses", "inspect", "ast", "dis", "tokenize"} & loaded


def test_cells_follow_one_protocol():
    # a cell is a Pass, Skip or Note or a counterexample dict, never an
    # (ok, counterexample) tuple; _sweep reads nothing but the cells, and
    # notes reach it as Note cells, not through a list a generator appends to.
    # No generator raises: a check's input is judged before _sweep starts
    path = ROOT / "src" / "kyoung" / "verify.py"
    tree = ast.parse(path.read_text(), str(path))

    def outcomes(node):
        if isinstance(node, ast.IfExp):
            yield from outcomes(node.body)
            yield from outcomes(node.orelse)
        else:
            yield node

    yields = [node for node in ast.walk(tree) if isinstance(node, ast.Yield)]
    assert yields
    for node in yields:
        assert not any(isinstance(v, ast.Tuple) for v in outcomes(node.value)), ast.unparse(node)

    functions = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]
    (sweep,) = [f for f in functions if f.name == "_sweep"]
    args = sweep.args
    assert [a.arg for a in args.posonlyargs + args.args] == ["check", "status", "cells"]
    assert not (args.vararg or args.kwonlyargs or args.kwarg)

    generators = [
        f for f in functions if any(isinstance(n, (ast.Yield, ast.YieldFrom)) for n in ast.walk(f))
    ]
    assert len(generators) > 10
    for f in generators:
        params = {a.arg for a in f.args.args}
        lists = [a.arg for a in f.args.args if a.annotation and "list" in ast.unparse(a.annotation)]
        appended = [
            ast.unparse(n)
            for n in ast.walk(f)
            if isinstance(n, ast.Call)
            and isinstance(n.func, ast.Attribute)
            and n.func.attr in ("append", "extend")
            and ast.unparse(n.func.value) in params
        ]
        assert not lists and not appended, (f.name, lists, appended)
        assert not any(isinstance(n, ast.Raise) for n in ast.walk(f)), f.name


PER_IDEAL_FAMILIES = [
    "_subposet_cells", "_counts_cells", "_duality_cells", "_gamma_cells", "_decomposition_cells"
]
CONTAINERS = {"dict", "set", "list", "Counter", "defaultdict", "OrderedDict", "deque"}


def per_ideal_walk(source):
    """The families of verify's per-ideal table, what lets any of them walk
    a grid or keep a dict or set from one ideal to the next, and the
    functions that read _grid_cells or build an _IdealView."""
    tree = ast.parse(source)
    functions = {f.name: f for f in tree.body if isinstance(f, ast.FunctionDef)}
    (table,) = [
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign)
        and [ast.unparse(t) for t in node.targets] == ["_PER_IDEAL_FAMILIES"]
    ]
    families = [ast.unparse(entry.elts[1]) for entry in table.elts]

    def container(value):
        if isinstance(value, ast.Call):
            return ast.unparse(value.func).rpartition(".")[2] in CONTAINERS
        return isinstance(value, (ast.Dict, ast.Set, ast.List, ast.DictComp, ast.SetComp, ast.ListComp))

    # module-level names bound to a container a call could keep state in
    held = {
        target.id
        for node in tree.body
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and container(node.value)
        for target in getattr(node, "targets", [getattr(node, "target", None)])
        if isinstance(target, ast.Name)
    }
    found = []
    for name in families:
        f = functions[name]
        args = f.args
        takes = [ast.unparse(a.annotation) for a in args.posonlyargs + args.args if a.annotation]
        if takes != ["_IdealView"] or len(args.args) != 1 or args.defaults or f.decorator_list:
            found.append((name, "signature"))
        if args.vararg or args.kwonlyargs or args.kwarg:
            found.append((name, "signature"))
        for node in ast.walk(f):
            if isinstance(node, (ast.Global, ast.Nonlocal)):
                found.append((name, ast.unparse(node)))
            elif isinstance(node, ast.Name) and node.id in held | {"_grid_cells"}:
                found.append((name, node.id))
    # nor state kept on a family's own attributes
    found += [
        (node.value.id, ast.unparse(node))
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in families
    ]
    readers = sorted(
        {
            f.name
            for f in ast.walk(tree)
            if isinstance(f, ast.FunctionDef)
            for node in ast.walk(f)
            if isinstance(node, ast.Name) and node.id == "_grid_cells"
            or isinstance(node, ast.Call) and ast.unparse(node.func) == "_IdealView"
        }
    )
    return families, found, readers


def test_each_per_ideal_family_is_a_function_of_one_ideal():
    # subposet, counts, duality, gamma and decomposition each take one view
    # of one ideal and keep no dict or set across calls, so each runs on any
    # one ideal; _each_ideal alone walks the grid, which it states once, and
    # alone builds the views, one per ideal
    source = (ROOT / "src" / "kyoung" / "verify.py").read_text()
    assert per_ideal_walk(source) == (PER_IDEAL_FAMILIES, [], ["_each_ideal"])


GAMMA = "def _gamma_cells(view: _IdealView) -> Iterator[SweepCell]:\n"


@pytest.mark.parametrize(
    "stateful",
    [
        # the level below kept in a module-level dict, one set per n
        "previous: dict[int, set[Parts]] = {}\n\n\n"
        + GAMMA + "    smaller = previous.setdefault(view.spec.n, set())\n",
        # ... in a default argument
        GAMMA.replace("view: _IdealView", "view: _IdealView, previous: dict = {}"),
        # ... on the function itself
        GAMMA + "    smaller = _gamma_cells.previous.get(view.spec.n)\n",
        # ... or with the grid walked in the family again
        GAMMA + "    for spec in _grid_cells(_Grid(*view.spec, 0)):\n        pass\n",
    ],
    ids=["module-dict", "default-argument", "function-attribute", "grid-walk"],
)
def test_the_per_ideal_pin_catches_a_gamma_that_keeps_state(stateful):
    source = (ROOT / "src" / "kyoung" / "verify.py").read_text()
    assert source.count(GAMMA) == 1
    families, found, _ = per_ideal_walk(source.replace(GAMMA, stateful))
    assert families == PER_IDEAL_FAMILIES
    assert [name for name, _ in found] == ["_gamma_cells"], found


def test_the_k_rules_are_stated_once():
    # k >= 1 and k-boundedness are raised from one f-string each, in
    # partitions.require_k_bounded, which every k-Young entry point calls.
    # So are the sweeps' rules on m: sieved's m >= 2 and conjecture-gen's
    # m >= 1 in verify._require_m, conjecture-u's prime m in
    # verify._require_prime, which the sweep parsers and the verify_* call.
    # So are the library's rules: the width 1 <= m <= k and n >= 1 in
    # partitions.require_rectangle, the window in qpoly._check_window, the
    # covering direction in lattice._require_direction
    sources = [path.read_text() for path in sorted((ROOT / "src" / "kyoung").rglob("*.py"))]
    fstrings = [
        ast.unparse(node)
        for source in sources
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.JoinedStr)
    ]
    rules = (
        "is not {_echo(k)}-bounded",
        "k must be positive",
        "m must be at least {least}",
        "m must be prime",
        "need 1 <= m <= k: m=",
        "need n >= 1: n=",
        "need 1 <= m <= a < b: m=",
        "need x >= b - m + 1: m=",
        "direction must be 'up' or 'down'",
    )
    for rule in rules:
        assert len([text for text in fstrings if rule in text]) == 1, rule
    # the texts these rules replaced are gone
    retired = (
        "need k >= m",
        "m and n must be positive",
        "width must be in 1..k",
        "need 1 <= m < k",
        "need m <= a < b",
    )
    for text in retired:
        assert not any(text in source for source in sources), text


def test_only_the_checks_table_judges_a_check_name():
    # the verify subcommand takes any check name and leaves it to
    # verify._parse_params, so a name is judged alike on the CLI and in a sweep file
    tree = ast.parse((ROOT / "src" / "kyoung" / "cli.py").read_text())
    calls = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and getattr(node.func, "attr", None) == "add_argument"
        and [ast.literal_eval(arg) for arg in node.args[:1]] == ["check"]
    ]
    assert len(calls) == 1
    assert "choices" not in {keyword.arg for keyword in calls[0].keywords}


def test_sweep_params_are_parsed_only_by_the_checks_table():
    # every param value is parsed once, through its _CHECKS entry, before any
    # sweep runs: no runner lambda, nor any other function, parses a value
    parsers = {"_param_range", "_param_int", "_prime_values", "_m_range"}

    def references(node, owner):
        if isinstance(node, ast.FunctionDef):
            owner = node.name
        elif isinstance(node, ast.Assign) and [ast.unparse(t) for t in node.targets] == ["_CHECKS"]:
            owner = "_CHECKS"
        elif isinstance(node, ast.Lambda):
            owner = f"a lambda in {owner}"
        name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
        if name in parsers:
            yield owner, name
        for child in ast.iter_child_nodes(node):
            yield from references(child, owner)

    found = set()
    for path in sorted((ROOT / "src" / "kyoung").rglob("*.py")):
        found |= set(references(ast.parse(path.read_text(), str(path)), "<module>"))
    assert {owner for owner, _ in found} <= parsers | {"_CHECKS"}, sorted(found)
    assert {name for owner, name in found if owner == "_CHECKS"} == parsers


def test_the_cli_states_no_sweep_rule():
    # verify._CHECKS alone knows the checks and their params, and verify the
    # sweep-file grammar: outside docstrings no string constant of cli.py is a
    # check or a param name, and the package reports unknown config keys from
    # one f-string
    from kyoung.verify import _CHECKS

    names = set(_CHECKS) | {param for _, spec in _CHECKS.values() for param in spec}
    tree = ast.parse((ROOT / "src" / "kyoung" / "cli.py").read_text())
    docstrings = {
        id(node.body[0].value)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.FunctionDef, ast.ClassDef))
        and ast.get_docstring(node) is not None
    }
    constants = {
        node.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
        and id(node) not in docstrings
    }
    assert not constants & names, sorted(constants & names)
    fstrings = [
        ast.unparse(node)
        for path in sorted((ROOT / "src" / "kyoung").rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.JoinedStr) and "unknown sweep config keys" in ast.unparse(node)
    ]
    assert len(fstrings) == 1, fstrings


def test_target_grids_parse_as_sweep_entries():
    # sweeps/check_targets.py runs the targets (minutes, up to about 750 MiB)
    # and tests/test_verify.py the goldens; here every entry only has to
    # load, each param value parsed, and have a recorded digest
    from kyoung.verify import SweepConfig

    entries = json.loads((ROOT / "sweeps" / "targets.json").read_text())["sweeps"]
    configs = [SweepConfig.from_json_dict(entry) for entry in entries]
    assert [c.check for c in configs] == ["structure", "conjecture-u", "conjecture-gen", "sieved"]
    assert len({c.out for c in configs}) == len(configs)
    digests = json.loads((ROOT / "sweeps" / "digests.json").read_text())
    assert set(digests) == {c.check for c in configs} | {"ideal"}
    goldens = json.loads((ROOT / "sweeps" / "goldens.json").read_text())
    assert "structure-5-10-9-12" in goldens
    for name, entry in goldens.items():
        assert re.fullmatch("[0-9a-f]{64}", entry.pop("digest")), name
        SweepConfig.from_json_dict(entry)


def test_one_function_digests_a_report():
    # sweeps/check_targets.report_digest is the one report digest outside
    # perfbench/, which keeps its own as the benchmark's outside check: no
    # other function under tests/ or sweeps/ calls both json.dumps and
    # sha256, and CI holds no digest inline
    def scopes(node):
        """The names node calls outside its functions, after each function's."""
        calls, stack = set(), list(ast.iter_child_nodes(node))
        while stack:
            child = stack.pop()
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from scopes(child)
                continue
            if isinstance(child, ast.Call):
                calls.add(getattr(child.func, "attr", getattr(child.func, "id", None)))
            stack.extend(ast.iter_child_nodes(child))
        yield getattr(node, "name", "<module>"), calls

    found = [
        (path.relative_to(ROOT).as_posix(), name)
        for path in sorted([*(ROOT / "tests").rglob("*.py"), *(ROOT / "sweeps").rglob("*.py")])
        for name, calls in scopes(ast.parse(path.read_text(), str(path)))
        if {"dumps", "sha256"} <= calls
    ]
    assert found == [("sweeps/check_targets.py", "report_digest")]
    ci = (ROOT / ".github" / "workflows" / "tier1.yml").read_text()
    assert not re.search("[0-9a-f]{64}", ci) and "sha256" not in ci


def test_check_targets_records_nothing_when_a_run_fails(tmp_path, monkeypatch, capsys):
    # a run that exits non-zero with no report reads FAILED, no entry reads
    # recorded, and sweeps/digests.json is left as it was
    import check_targets

    for name in ("targets.json", "digests.json"):
        (tmp_path / name).write_text((ROOT / "sweeps" / name).read_text())
    before = (tmp_path / "digests.json").read_text()

    def run(argv, cwd):
        if argv[0] == "ideal":
            return 0, 0.0, 1.0, "0" * 64
        entry = json.loads(Path(argv[2]).read_text())["sweeps"][0]
        if entry["check"] == "sieved":
            return 1, 0.0, 1.0, ""
        Path(cwd, entry["out"]).write_text(json.dumps({"check": entry["check"], "elapsed_ms": 1}))
        return 0, 0.0, 1.0, ""

    monkeypatch.setattr(check_targets, "HERE", tmp_path)
    monkeypatch.setattr(check_targets, "run", run)
    assert check_targets.main(["--record"]) == 1
    *lines, last = capsys.readouterr().out.splitlines()
    verdicts = [line.rpartition(", ")[2].split()[0] for line in lines]
    assert verdicts == ["digest", "digest", "digest", "FAILED", "digest"]
    assert last == "recorded nothing: a run failed"
    assert (tmp_path / "digests.json").read_text() == before
