"""Checks on the benchmark tooling that reads the package from outside."""

import ast
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def test_every_traced_name_exists(monkeypatch):
    # the tracer looks each name up with vars(owner)[attr]; a name deleted
    # from the package would only fail a traced benchmark run
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    # its dataclasses resolve their module through sys.modules
    monkeypatch.setitem(sys.modules, spec.name, tracing)
    spec.loader.exec_module(tracing)
    table = tracing._patch_table()
    assert table
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _, _ in table if attr not in vars(owner)]
    assert not missing


ROOT = TRACING.parents[1]


def _defined_names(node):
    """The names a top-level statement defines: a function, a class or the
    plain names a module-level assignment binds."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    targets = node.targets if isinstance(node, ast.Assign) \
        else [node.target] if isinstance(node, ast.AnnAssign) else []
    return [target.id for target in targets if isinstance(target, ast.Name)]


def test_every_package_definition_is_used_outside_tests():
    # a top-level function, class or constant that only the tests name is
    # API kept for the tests alone; such checks belong in tests/oracles.py
    sources = {path: path.read_text().splitlines()
               for folder in ("src", "scripts", "bench")
               for path in sorted((ROOT / folder).rglob("*.py"))}
    unused = []
    for path in sorted((ROOT / "src" / "hardyqkd").rglob("*.py")):
        for node in ast.parse(path.read_text()).body:
            own = range(node.lineno - 1, node.end_lineno)
            for name in _defined_names(node):
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
