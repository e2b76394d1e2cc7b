"""Checks on the benchmark tooling that reads the package from outside."""

import ast
import dataclasses
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

from hardyqkd import cli
from hardyqkd.solvers import LPProblem, SDPProblem

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    # its dataclasses resolve their module through sys.modules
    monkeypatch.setitem(sys.modules, spec.name, tracing)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_traced_name_exists(monkeypatch):
    # the tracer looks each name up with vars(owner)[attr]; a name deleted
    # from the package would only fail a traced benchmark run
    tracing = load_tracing(monkeypatch)
    table = tracing._patch_table()
    assert table
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _, _ in table if attr not in vars(owner)]
    assert not missing


def test_traced_keyrate_run_reads_every_layer(monkeypatch, tmp_path):
    # the recorders read what the traced calls return (a relaxation's rows,
    # the independence check's kept rows); a change there would only fail a
    # traced benchmark run
    tracing = load_tracing(monkeypatch)
    tracer = tracing.Tracer()
    with tracing.patched(tracer):
        assert cli.main(["keyrate", "--eta-grid", "3", "--grid-res", "3", "--level", "1",
                         "--out", str(tmp_path)]) == 0
    metrics = tracing.layer_metrics(tracer.spans)
    zero = [name for name in ("npa.build.calls", "npa.build.rows_p50", "sdp.schur_m_p50",
                              "lp.solve.calls", "analysis.to_csv.s", "svgplot.to_svg.s")
            if not metrics[name][0] > 0]
    assert not zero


ROOT = TRACING.parents[1]


def _definitions(node):
    """(name, node) for what a top-level statement defines: a function, a
    class with the methods and plain assignments of its body (dunders run
    implicitly) or the plain names a module-level assignment binds."""
    if isinstance(node, ast.ClassDef):
        return [(node.name, node)] + [
            (name, item) for item in node.body if isinstance(item, (ast.FunctionDef, ast.Assign))
            for name, _ in _definitions(item) if not name.startswith("__")]
    if isinstance(node, ast.FunctionDef):
        return [(node.name, node)]
    targets = node.targets if isinstance(node, ast.Assign) \
        else [node.target] if isinstance(node, ast.AnnAssign) else []
    return [(target.id, node) for target in targets if isinstance(target, ast.Name)]


def test_definitions_include_class_body_assignments():
    # a property bound by assignment is API as much as a method is; an
    # annotated field is the class's data, not a definition of its own
    node = ast.parse("class C:\n    x: int\n    y = property(len)\n    __slots__ = ()\n"
                     "    def f(self): pass\n").body[0]
    assert [name for name, _ in _definitions(node)] == ["C", "y", "f"]


def test_every_package_definition_is_used_outside_tests():
    # a top-level function, class, method or constant that only the tests
    # name is API kept for the tests alone; such checks belong in tests/
    sources = {path: path.read_text().splitlines()
               for folder in ("src", "scripts", "bench")
               for path in sorted((ROOT / folder).rglob("*.py"))}
    unused = []
    for path in sorted((ROOT / "src" / "hardyqkd").rglob("*.py")):
        for node in ast.parse(path.read_text()).body:
            for name, owner in _definitions(node):
                own = range(owner.lineno - 1, owner.end_lineno)
                word = re.compile(rf"\b{re.escape(name)}\b")
                if not any(word.search(line) for other, lines in sources.items()
                           for k, line in enumerate(lines) if other != path or k not in own):
                    unused.append(f"{path.relative_to(ROOT)}:{name}")
    assert not unused


def test_one_lp_solve_call_site_outside_the_solvers():
    # every LP of the pipeline goes through one sweep, which calls the
    # module-level name that the tracer patches
    sites = [f"{path.relative_to(ROOT)}:{k + 1}"
             for path in sorted((ROOT / "src" / "hardyqkd").rglob("*.py"))
             if "solvers" not in path.relative_to(ROOT / "src" / "hardyqkd").parts
             for k, line in enumerate(path.read_text().splitlines())
             if re.search(r"\blp_solve\(", line)]
    assert len(sites) == 1, sites


def test_solver_problems_take_one_form():
    # each solver states one form: max c'x over independent rows for the LP,
    # min <C, X> for the SDP; an objective-sense or row-handling option
    # would be a new field of the problem
    assert [f.name for f in dataclasses.fields(LPProblem)] == ["c", "a_eq", "b_eq"]
    assert [f.name for f in dataclasses.fields(SDPProblem)] == ["c", "constraints", "b"]


def test_one_sdp_solve_batch_call_site_outside_the_solvers():
    # every SDP job reaches a bound through `bound_functionals`, so a second
    # route from a solve to a bound (a polish, a penalty retry) shows here
    sites = [f"{path.relative_to(ROOT)}:{k + 1}"
             for path in sorted((ROOT / "src" / "hardyqkd").rglob("*.py"))
             if "solvers" not in path.relative_to(ROOT / "src" / "hardyqkd").parts
             for k, line in enumerate(path.read_text().splitlines())
             if re.search(r"\bsdp_solve_batch\(", line)]
    assert len(sites) == 1, sites


def test_protocol_demo_script_runs():
    # the one script that calls the analysis API directly, not through the CLI
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    run = subprocess.run([sys.executable, str(ROOT / "scripts" / "run_protocol_demo.py")],
                         env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    assert "key rate (basic)    = " in run.stdout
    assert "key rate (dropping) = " in run.stdout
    # both rates are of the nominal eta, and say so
    assert run.stdout.count("at nominal eta = 0.99 (not from the estimate)") == 2


def test_npa_does_not_import_protocol():
    # the relaxations take plain arrays; a settings distribution is the
    # protocol layer's, and `analysis` joins the two
    tree = ast.parse((ROOT / "src" / "hardyqkd" / "npa.py").read_text())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            # npa.py sits in the package itself: "." is hardyqkd
            module = ".".join(filter(None, ["hardyqkd" if node.level else "", node.module]))
            imported += [module] + [f"{module}.{alias.name}" for alias in node.names]
    assert not [name for name in imported if name.split(".")[:2] == ["hardyqkd", "protocol"]]


def test_package_imports_only_numpy_and_the_standard_library():
    # the toolkit adds no dependency: numpy is its one third-party import,
    # and scipy may serve only as an optional test oracle
    allowed = set(sys.stdlib_module_names) | {"numpy", "hardyqkd"}
    imported = []
    for path in sorted((ROOT / "src" / "hardyqkd").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported += [(path.name, alias.name) for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                # a relative import ("from .x import y") is the package itself
                imported.append((path.name, node.module))
    assert imported
    assert not [(file, name) for file, name in imported if name.split(".")[0] not in allowed]


def test_flag_table_matches_the_command_bodies():
    # a command reads exactly the config fields whose flag lists it: the
    # CLI rejects every other flag, so a field read but not listed would be
    # unreachable from the command line, and one listed but not read ignored
    tree = ast.parse((ROOT / "src" / "hardyqkd" / "cli.py").read_text())
    reads = {node.name: {"dist" if attr.attr == "parse_dist" else attr.attr
                         for attr in ast.walk(node) if isinstance(attr, ast.Attribute)
                         and isinstance(attr.value, ast.Name) and attr.value.id == "cfg"}
             for node in tree.body
             if isinstance(node, ast.FunctionDef) and node.name.startswith("cmd_")}
    fields = dataclasses.fields(cli.RunConfig)[1:]
    assert {command for f in fields for command in f.metadata["commands"]} <= set(cli._COMMANDS)
    assert reads == {
        function.__name__: {f.name for f in fields if command in f.metadata["commands"]}
        for command, function in cli._COMMANDS.items()}


def test_readme_synopsis_lists_every_flag_with_its_commands():
    readme = (ROOT / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```")[1]
    for action in cli.build_parser()._actions:
        for option in action.option_strings:
            assert re.search(rf"(?<![\w-]){re.escape(option)}(?![\w-])", block), option
    listed = {match[1]: set(match[2].split(", "))
              for match in re.finditer(r"^(--[\w-]+) \S+ +(.+)$", block, re.MULTILINE)}
    assert listed == {"--" + f.name.replace("_", "-"): set(f.metadata["commands"])
                      for f in dataclasses.fields(cli.RunConfig)[1:]}


def test_cli_writes_files_only_through_write():
    # one writer renames every output into place whole; a second route to
    # a file could leave a truncated output behind
    path = ROOT / "src" / "hardyqkd" / "cli.py"
    writer = next(node for node in ast.parse(path.read_text()).body
                  if isinstance(node, ast.FunctionDef) and node.name == "_write")
    own = range(writer.lineno - 1, writer.end_lineno)
    sites = [f"cli.py:{k + 1}" for k, line in enumerate(path.read_text().splitlines())
             if k not in own and re.search(r"\b(write_bytes|write_text|open)\(", line)]
    assert not sites
