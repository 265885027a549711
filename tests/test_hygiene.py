"""Source hygiene of the relclass package, checked on its syntax trees.

Each module-level function has one home, and every class, function, method
or class-level alias is used: its name is referenced outside its own
definition.  A function or method counts as used only when src/, the
acceptance gate tests/test_acceptance.py or perfbench/ references it, so
code that unit tests alone reach does not stay; classes and aliases may be
referenced anywhere in src/, tests/ or perfbench/.  A reference is a name,
an attribute, an imported name, or a dotted identifier string such as the
"FIdeal.principal_gen" span targets of perfbench/spans.py; a bare string
such as a report key or a local name is not.  Dunder names are used
implicitly and are exempt.
Every parameter other than self/cls is read in its function's body.
"""

import ast
import importlib
import importlib.util
import os
import re
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "relclass"
DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)+")


def _trees(*paths):
    """(path, syntax tree) of each Python file under the given directories or
    of the given files, relative to the repository root."""
    for d in paths:
        root = ROOT / d
        for path in [root] if root.is_file() else sorted(root.rglob("*.py")):
            yield path, ast.parse(path.read_text(), filename=str(path))


def _references(tree):
    """(name, line) of every reference in the tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.name, node.lineno
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if DOTTED.fullmatch(node.value):
                for part in node.value.split("."):
                    yield part, node.lineno


def test_no_function_defined_in_two_modules():
    homes = defaultdict(list)
    for path, tree in _trees("src/relclass"):
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                homes[node.name].append(path.name)
    assert {name: mods for name, mods in homes.items() if len(mods) > 1} == {}


def _definitions(tree, kinds):
    """(name, node) of each definition of the given node kinds.  An ast.Assign
    defines the names that a class body binds, such as an alias `b = a`."""
    for node in ast.walk(tree):
        if isinstance(node, kinds) and not isinstance(node, ast.Assign):
            yield node.name, node
        elif isinstance(node, ast.ClassDef) and ast.Assign in kinds:
            for stmt in node.body:
                if isinstance(stmt, ast.Assign):
                    for target in stmt.targets:
                        if isinstance(target, ast.Name):
                            yield target.id, stmt


def _unreferenced(kinds, readers=("src", "tests", "perfbench")):
    """Definitions of the given node kinds in src/relclass that nothing in
    the readers, outside their own body, references."""
    kinds = kinds if isinstance(kinds, tuple) else (kinds,)
    refs = defaultdict(list)  # name -> [(path, line)]
    for path, tree in _trees(*readers):
        for name, line in _references(tree):
            refs[name].append((path, line))
    unused = []
    for path, tree in _trees("src/relclass"):
        for name, node in _definitions(tree, kinds):
            if name.startswith("__") and name.endswith("__"):
                continue
            own = range(node.lineno, node.end_lineno + 1)
            if not any(p != path or line not in own for p, line in refs[name]):
                unused.append(f"{path.name}:{node.lineno} {name}")
    return unused


# Constructions of the paper that no command runs and the unit tests check:
# decompose_ideal writes a module as a * (o alpha) * N_i^-1 against the class
# representatives, and prescribe_genus finds a form with prescribed genus
# characters.  Their helpers count as used through them.
PAPER_CONSTRUCTIONS = ("decompose_ideal", "prescribe_genus")


def test_every_function_is_referenced():
    """Only the CLI, the acceptance gate and the benchmark keep a function:
    one that unit tests alone call belongs in tests/oracles.py or nowhere."""
    readers = ("src", "tests/test_acceptance.py", "perfbench")
    unused = _unreferenced((ast.FunctionDef, ast.AsyncFunctionDef), readers)
    assert [u for u in unused if u.split()[-1] not in PAPER_CONSTRUCTIONS] == []


def test_every_class_is_referenced():
    assert _unreferenced(ast.ClassDef) == []


def test_every_class_level_alias_is_referenced():
    assert _unreferenced(ast.Assign) == []


def _span_targets() -> dict[str, list[str]]:
    spec = importlib.util.spec_from_file_location("spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.TARGETS


def test_every_span_target_resolves():
    """perfbench/spans.py wraps each name of TARGETS on its relclass module,
    a method in its own class's namespace; a target that no longer resolves
    breaks every traced benchmark run."""
    missing = []
    for layer, quals in _span_targets().items():
        module = importlib.import_module(f"relclass.{layer}")
        for qual in quals:
            owner, _, name = qual.rpartition(".")
            if owner:
                found = name in vars(getattr(module, owner, object))
            else:
                found = callable(getattr(module, name, None))
            if not found:
                missing.append(f"{layer}.{qual}")
    assert missing == []


# traced by perfbench/spans.py with no caller; the benchmark change that
# re-points the span table retires it
SPAN_ONLY = ("forms.weakly_equivalent",)


def test_every_span_target_has_a_caller():
    """The span table keeps no code alive: each function or method it traces
    is referenced, outside its own definition, in src/relclass or in the
    acceptance gate, so perfbench/ alone does not count."""
    refs = defaultdict(list)
    for path, tree in _trees("src/relclass", "tests/test_acceptance.py"):
        for name, line in _references(tree):
            refs[name].append((path, line))
    uncalled = []
    for layer, quals in _span_targets().items():
        path = PACKAGE / f"{layer}.py"
        module = ast.parse(path.read_text())
        classes = {n.name: n for n in module.body if isinstance(n, ast.ClassDef)}
        for qual in quals:
            owner, _, name = qual.rpartition(".")
            body = classes[owner].body if owner else module.body
            node = next((n for n in body if isinstance(n, ast.FunctionDef) and n.name == name), None)
            # a name the module imports (forms.lower_bound_t) has no body there
            own = range(node.lineno, node.end_lineno + 1) if node else range(0)
            if not any(p != path or line not in own for p, line in refs[name]):
                uncalled.append(f"{layer}.{qual}")
    assert [u for u in uncalled if u not in SPAN_ONLY] == []


def test_every_parameter_is_read():
    unread = []
    for path, tree in _trees("src/relclass"):
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            a = node.args
            params = a.posonlyargs + a.args + a.kwonlyargs + [p for p in (a.vararg, a.kwarg) if p]
            read = {n.id for stmt in node.body for n in ast.walk(stmt) if isinstance(n, ast.Name)}
            for p in params:
                if p.arg not in ("self", "cls") and p.arg not in read:
                    unread.append(f"{path.name}:{node.lineno} {node.name}({p.arg})")
    assert unread == []


def test_no_denominator_read_through_element_views():
    """Base-field elements carry one integer denominator, `den`; the Fraction
    views `.a` and `.b` are for reports, not for finding denominators."""
    reads = []
    for path, tree in _trees("src/relclass"):
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and node.attr == "denominator"
                and isinstance(node.value, ast.Attribute)
                and node.value.attr in ("a", "b")
            ):
                reads.append(f"{path.name}:{node.lineno}")
    assert reads == []


def test_no_module_sets_the_global_mpmath_precision():
    """Precision is chosen where a computation needs it (mpmath.workprec),
    never for the whole process."""
    sets = []
    for path, tree in _trees("src/relclass"):
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            else:
                continue
            for t in targets:
                if ast.unparse(t) in ("mpmath.mp.prec", "mpmath.mp.dps", "mp.prec", "mp.dps"):
                    sets.append(f"{path.name}:{node.lineno}")
    assert sets == []


# the modules a command loads only when it runs them
LAYERS = (
    "csv",
    "mpmath",
    "relclass.bounds",
    "relclass.cascade",
    "relclass.cm",
    "relclass.constructions",
    "relclass.corpus",
    "relclass.dseries",
    "relclass.forms",
    "relclass.hecke",
    "relclass.lattice",
)


def _run_and_list_layers(code: str, layers=LAYERS) -> tuple[str, list[str]]:
    """Run code in a fresh interpreter: (its stdout, which of the layers it
    left in sys.modules)."""
    probe = f"{code}\nimport sys\nprint(sorted({set(layers)!r} & set(sys.modules)), file=sys.stderr)"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    return out.stdout, ast.literal_eval(out.stderr.strip().splitlines()[-1])


RUN_CLI = "from relclass.cli import main\nmain({!r})"


def test_cli_import_loads_no_numeric_layer():
    """field needs neither CM fields nor forms nor the numeric layer, and the
    box counts (import relclass.bounds) load no other layer: neither the
    cascade, mpmath or the eigenvalue tables, nor the CM fields or the LLL
    and short-vector enumeration of lattice."""
    assert _run_and_list_layers("import relclass.cli")[1] == []
    report, layers = _run_and_list_layers(RUN_CLI.format(["field", "--n", "2", "--m", "5"]))
    assert '"dF": 5' in report and layers == []
    assert _run_and_list_layers("import relclass.bounds")[1] == ["relclass.bounds"]


def test_only_bound_loads_mpmath_and_hecke(tmp_path):
    """verify with every check runs no mpmath, no eigenvalue table and no
    form code; bound on a parity-applicable row loads mpmath and hecke, so
    the check can fail.  On these rows bound loads no lattice code: over Q
    the class numbers come from imagquad's reduced forms, and imagquad
    imports nothing from the package."""
    corpus = tmp_path / "two.txt"
    # a q50 row, and a quartic row with reldisc 1764 > 4^2, so lemma41 runs on both
    corpus.write_text("1,-,-1947,0,8,3\n2,2,-21,0,8,4\n")
    report, layers = _run_and_list_layers(RUN_CLI.format(["verify", "--corpus", str(corpus)]))
    assert report.count('"lemma41"') == 2 and report.count('"status": "ok"') == 2
    assert report.count('"genus"') == 2
    assert layers == ["relclass.bounds", "relclass.cm", "relclass.corpus", "relclass.dseries", "relclass.lattice"]
    argv = ["bound", "--corpus", str(corpus), "--pmax", "100", "--lambda-grid", "1e29,1e30,1e31"]
    report, layers = _run_and_list_layers(RUN_CLI.format(argv))
    assert '"C": "1e-29"' in report
    assert layers == [
        "mpmath",
        "relclass.bounds",
        "relclass.cascade",
        "relclass.cm",
        "relclass.corpus",
        "relclass.dseries",
        "relclass.hecke",
    ]


def test_classify_loads_only_cm_and_forms():
    """classify compiles neither the constructions that only the gate and the
    unit tests run, nor the corpus commands, nor the bound cascade, and csv
    only under --csv."""
    argv = ["classify", "--n", "1", "--delta-a", "-23"]
    report, layers = _run_and_list_layers(RUN_CLI.format(argv))
    assert '"h_K": 3' in report and layers == ["relclass.cm", "relclass.forms", "relclass.lattice"]
    report, layers = _run_and_list_layers(RUN_CLI.format(argv + ["--csv"]))
    assert report.startswith("bijection_ok,") and layers == ["csv", "relclass.cm", "relclass.forms", "relclass.lattice"]


def test_code_no_command_runs_lives_in_its_own_module():
    """The gate-only constructions live in constructions, the D/B/G/E/F
    constants in cascade, the line scan of verify in dseries, and the
    corpus commands in corpus, so the modules classify and verify import do
    not compile them (one home per function is checked above).  No module
    imports relclass.cli: under `python -m relclass.cli` the CLI runs as
    __main__, and such an import would compile it a second time.
    perfbench/setup_probe.py reads corpora through relclass.cli.load_corpus."""
    homes = {
        path.stem: {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
        for path, tree in _trees("src/relclass")
    }
    assert {"minimal_lines", "prescribe_genus", "represent_search", "decompose_ideal"} <= homes["constructions"]
    assert {"d_constants_lambda", "b_constants", "g_constants", "f2_uniform", "e_constants"} <= homes["cascade"]
    assert {"line_norms", "on_line", "norm_class_reps"} <= homes["dseries"]
    assert {"run_corpus", "cmd_verify", "cmd_bound"} <= homes["corpus"]
    cli_imports = []
    for path, tree in _trees("src/relclass"):
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                base = "relclass." * bool(node.level) + (node.module or "")
                names = [base] + [f"{base.rstrip('.')}.{alias.name}" for alias in node.names]
            else:
                continue
            if "relclass.cli" in names:
                cli_imports.append(f"{path.name}:{node.lineno}")
    assert cli_imports == []
    assert callable(getattr(importlib.import_module("relclass.cli"), "load_corpus", None))


def test_verify_loads_imagquad_only_where_it_counts(tmp_path):
    """imagquad's reduced forms count the classes of K over Q, and of the
    imaginary quadratic subfields of a biquadratic K for Kuroda's formula,
    which stops the class-group closure: verify over Q(sqrt 2) with rational
    delta compiles them, and with delta not rational it does not."""
    corpus = tmp_path / "quartic.txt"
    corpus.write_text("2,2,-21,0,8,4\n")
    argv = ["verify", "--corpus", str(corpus)]
    report, layers = _run_and_list_layers(RUN_CLI.format(argv), ("relclass.imagquad", "relclass.cm"))
    assert report.count('"status": "ok"') == 1 and layers == ["relclass.cm", "relclass.imagquad"]
    corpus.write_text("2,2,-3,1,2,2\n")
    report, layers = _run_and_list_layers(RUN_CLI.format(argv), ("relclass.imagquad", "relclass.cm"))
    assert report.count('"status": "ok"') == 1 and layers == ["relclass.cm"]
    corpus.write_text("1,-,-1947,0,8,3\n")
    layers = _run_and_list_layers(RUN_CLI.format(argv), ("relclass.imagquad",))[1]
    assert layers == ["relclass.imagquad"]


def test_bound_loads_no_numeric_layer_before_a_row_passes_parity(tmp_path):
    """The parity test reads the base field alone, so rows whose base field
    fails it build no CM field: a corpus of them compiles of the package only
    the CLI, the base field and the corpus commands, and neither cm nor
    bounds nor the numeric layer."""
    corpus = tmp_path / "parity.txt"
    # Q(sqrt 2) and Q(sqrt 5): s is odd in the 37-splitting of both
    corpus.write_text("2,2,-21,0\n2,5,-11,0\n")
    argv = ["bound", "--corpus", str(corpus), "--pmax", "100", "--lambda-grid", "1e29,1e30,1e31"]
    modules = [f"relclass.{path.stem}" for path in PACKAGE.glob("*.py") if path.stem != "__init__"]
    report, loaded = _run_and_list_layers(RUN_CLI.format(argv), LAYERS + tuple(modules))
    assert report.count('"status": "ParityFails: ') == 2
    assert loaded == [
        "relclass.cli",
        "relclass.corpus",
        "relclass.errors",
        "relclass.field",
        "relclass.formats",
        "relclass.intmat",
    ]


def test_no_module_imports_dataclasses():
    """Records are NamedTuples or __slots__ classes: importing dataclasses
    would load inspect, ast and tokenize into every command."""
    found = []
    for path, tree in _trees("src/relclass"):
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            if any(m.split(".")[0] == "dataclasses" for m in modules):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_lattice_enumeration_uses_no_floats():
    """LLL and short-vector enumeration decide on exact integers: no float
    seed, no rounding of a float square root."""
    calls = []
    tree = ast.parse((PACKAGE / "lattice.py").read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            f = node.func
            name = f.id if isinstance(f, ast.Name) else f.attr if isinstance(f, ast.Attribute) else None
            if name in ("float", "sqrt", "ceil", "floor"):
                calls.append(f"lattice.py:{node.lineno} {name}")
    assert calls == []
