"""Internal checks survive ``python -O``, nothing caches outside an instance,
and the untimed ``verify`` output stays what it was."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import partsem
from untimed_digest import untimed_digest

PACKAGE = Path(partsem.__file__).resolve().parent


def _package_trees():
    for path in sorted(PACKAGE.glob("*.py")):
        yield path, ast.parse(path.read_text(), filename=str(path))


def test_library_has_no_assert_statements():
    found = [
        f"{path.name}:{node.lineno}"
        for path, tree in _package_trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_library_has_no_module_level_caches():
    found = [
        f"{path.name}:{node.lineno}"
        for path, tree in _package_trees()
        for node in ast.walk(tree)
        if (isinstance(node, ast.Name) and node.id in ("lru_cache", "cache"))
        or (isinstance(node, ast.Attribute) and node.attr in ("lru_cache", "cache"))
    ]
    assert found == []


def test_library_reads_nonzero_positions_directly():
    """``x.nonzero()[0]`` on the 1-D masks, not the ``np.flatnonzero`` wrapper."""
    found = [
        f"{path.name}:{node.lineno}"
        for path, tree in _package_trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "flatnonzero"
    ]
    assert found == []


def test_verify_runs_under_optimize_flag():
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    done = subprocess.run(
        [sys.executable, "-O", "-m", "partsem.cli", "verify", "--max-n", "2"],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("seed,digest", [
    (7, "29a09fcf611d2607"),
    (11, "8b59d2c932c780c3"),
    (12, "e71a8e9efa07e5f2"),
    (13, "51f557e15f08a559"),
])
def test_untimed_verify_output_is_pinned(seed, digest):
    """The n <= 3 report of each seed with its timings removed, as a digest.
    Each seed draws other random index semigroups, so each pins other
    catalog entries."""
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    done = subprocess.run(
        [sys.executable, "-m", "partsem.cli", "verify", "--max-n", "3", "--seed", str(seed),
         "--format", "machine"],
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert done.returncode == 0, done.stderr
    assert untimed_digest(done.stdout.splitlines())[1] == digest


def _calls(function, names):
    return [
        f"{function.name}:{node.lineno}"
        for node in ast.walk(function)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in names
    ]


def test_run_command_alone_writes_output_and_picks_the_exit_code():
    """Every ``_cmd_*`` function of cli.py returns its lines and its error;
    none prints, names standard output or error, writes a file or returns
    an exit code.  ``run_command`` is the one function that writes."""
    functions = [node for node in ast.walk(ast.parse((PACKAGE / "cli.py").read_text()))
                 if isinstance(node, ast.FunctionDef)]
    writers = sorted(
        function.name
        for function in functions
        if any((isinstance(node, ast.Name) and node.id == "print")
               or (isinstance(node, ast.Attribute)
                   and node.attr in ("stdout", "stderr", "write_text"))
               for node in ast.walk(function))
    )
    assert writers == ["run_command"]
    commands = [function for function in functions if function.name.startswith("_cmd_")]
    assert len(commands) == 6
    int_returns = [
        f"{function.name}:{node.lineno}"
        for function in commands
        for node in ast.walk(function)
        if isinstance(node, ast.Return)
        and isinstance(node.value, ast.Constant) and type(node.value.value) is int
    ]
    assert int_returns == []


def test_greens_witnesses_are_not_validated_by_composing_maps():
    """Green's checkers, factor searches, builders and the witness replay
    work on table positions or image tuples; only the T(X, P) and T(X)
    specializations compose maps or recompute characters.  A name is
    refused, not only a call, so no function hands ``compose`` on."""
    tree = ast.parse((PACKAGE / "greens.py").read_text())
    exempt = {"txp_green", "full_tx_green"}
    functions = {
        node.name: node
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef)
        and node.name not in exempt
        and not node.name.startswith("_txp_")
    }
    named = {"l_related", "r_related", "d_related", "j_related", "principal_leq_oracle",
             "build_left_factor", "build_right_factor", "build_d_middle", "build_j_factors",
             "verify_witness"}
    assert named <= functions.keys()
    found = [
        f"{name}:{node.lineno}"
        for name, function in functions.items()
        for node in ast.walk(function)
        if isinstance(node, ast.Name) and node.id in ("compose", "character")
    ]
    assert found == []


def _failure_branches(function):
    """The nodes of every ``if`` body in ``function`` that ends by raising."""
    return {
        id(node)
        for branch in ast.walk(function)
        if isinstance(branch, ast.If) and isinstance(branch.body[-1], ast.Raise)
        for statement in branch.body
        for node in ast.walk(statement)
    }


def test_one_function_validates_every_built_map():
    """The witness builders of ``greens`` and ``regularity`` share one
    lookup of a built map in the member index and one ``InternalError``:
    ``ensemble._built_member`` is the one function that says "fails
    validation", and each builder core calls it."""
    saying = [
        f"{path.name}:{node.name}"
        for path, tree in _package_trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef)
        and any(isinstance(s, ast.Constant) and "fails validation" in str(s.value)
                for s in ast.walk(node))
    ]
    assert saying == ["ensemble.py:_built_member"]
    cores = {
        "greens.py": {"_left_factor", "_right_factor", "_d_middle", "_j_factors"},
        "regularity.py": {"_member_inner_inverse"},
    }
    for module, names in cores.items():
        calling = {
            function.name
            for function in ast.walk(ast.parse((PACKAGE / module).read_text()))
            if isinstance(function, ast.FunctionDef) and _calls(function, ("_built_member",))
        }
        assert calling == names, module


def test_inverse_builders_are_validated_on_image_tuples():
    """The inner and unit inverse builders and their one validation check
    their result on image tuples: no member table, ``compose``,
    ``character`` or ``is_unit_bijection``, and a ``FiniteMap`` is built
    only on the way to a validation error."""
    named = {
        "regularity.py": {"build_inner_inverse", "_member_inner_inverse", "_witness_position"},
        "unit_regularity.py": {"build_unit_inverse"},
    }
    found, seen = [], set()
    for module, names in named.items():
        for function in ast.walk(ast.parse((PACKAGE / module).read_text())):
            if isinstance(function, ast.FunctionDef) and function.name in names:
                name = function.name
                seen.add(name)
                found += _calls(function, ("compose", "character", "is_unit_bijection"))
                found += [
                    f"{name}:{node.lineno}"
                    for node in ast.walk(function)
                    if isinstance(node, ast.Attribute) and node.attr == "table"
                ]
                failing = _failure_branches(function)
                found += [
                    f"{name}:{node.lineno}"
                    for node in ast.walk(function)
                    if isinstance(node, ast.Call)
                    and getattr(node.func, "id", None) == "FiniteMap"
                    and id(node) not in failing
                ]
    assert seen == set().union(*named.values())
    assert found == []


def test_regularity_criteria_read_characters_from_enumeration():
    """The regularity, unit-regularity and idempotency criteria take chi(f)
    from the position enumeration recorded, not from ``character(f, p)``."""
    named = {
        "regularity.py": {"_unit_candidates", "_witness_lists", "_witnesses",
                          "_witness_position", "is_idempotent_characterized",
                          "_idempotent_verdicts"},
        "unit_regularity.py": {"unit_regular_witnesses", "build_unit_inverse"},
    }
    seen, found = set(), []
    for module, names in named.items():
        for node in ast.walk(ast.parse((PACKAGE / module).read_text())):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name in names:
                seen.add(node.name)
                found += [
                    f"{node.name}:{call.lineno}"
                    for call in ast.walk(node)
                    if isinstance(call, ast.Call)
                    and isinstance(call.func, ast.Name)
                    and call.func.id == "character"
                ]
    assert seen == set().union(*named.values())
    assert found == []


def test_criteria_read_block_facts_not_block_maps():
    """The regularity and unit-regularity modules and ``is_unit_bijection``
    read a member's block facts from its geometry (or test f itself); none
    of them builds block maps or takes a collapse/defect count."""
    scopes = [
        ast.parse((PACKAGE / "regularity.py").read_text()),
        ast.parse((PACKAGE / "unit_regularity.py").read_text()),
    ] + [
        node
        for node in ast.walk(ast.parse((PACKAGE / "partition_action.py").read_text()))
        if isinstance(node, ast.FunctionDef) and node.name == "is_unit_bijection"
    ]
    assert len(scopes) == 3
    found = [
        f"{call.func.id}:{call.lineno}"
        for scope in scopes
        for call in ast.walk(scope)
        if isinstance(call, ast.Call)
        and isinstance(call.func, ast.Name)
        and call.func.id in ("block_maps", "collapse_defect")
    ]
    assert found == []


def test_only_the_suite_runner_loops_over_the_catalog():
    """Suite bodies state their checks; one runner, ``run_all``, loops over
    ``catalog.entries``, a registered ``_Suite`` times its body and the
    record it makes with ``_record`` is the one ``SuiteRecord`` built, and
    no suite body reads the clock, the catalog-independent one included."""
    tree = ast.parse((PACKAGE / "harness.py").read_text())
    found = {"entries": [], "SuiteRecord": [], "perf_counter": []}
    for statement in tree.body:
        owner = getattr(statement, "name", None)
        for node in ast.walk(statement):
            if isinstance(node, ast.Attribute) and node.attr in ("entries", "perf_counter"):
                found[node.attr].append(owner)
            elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "SuiteRecord":
                found["SuiteRecord"].append(owner)
    assert set(found["entries"]) == {"run_all"}
    assert set(found["SuiteRecord"]) == {"_record"}
    assert set(found["perf_counter"]) == {"_Suite", "_record"}
