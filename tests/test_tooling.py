"""Source-tree rules that no single module test covers."""

import argparse
import ast
import importlib
import importlib.util
import os
import pathlib
import re
import subprocess
import sys
from collections import Counter

import pytest

import trafficfuse
from trafficfuse.ensrf import FilterConfig
from trafficfuse.harness import ExperimentConfig, Pipeline, load_config
from trafficfuse.model import ModelConfig
from trafficfuse.train import INFER_ROWS

PACKAGE = pathlib.Path(trafficfuse.__file__).parent
ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = ROOT / "demos"


def test_package_has_no_assert_statements():
    # invariants must hold under python -O, which strips assert statements
    sources = sorted(PACKAGE.rglob("*.py"))
    assert sources, "package sources not found"
    found = []
    for path in sources:
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in the package: {found}"


# calls that write a file: csv.writer, numpy's savers, pathlib's writers;
# open and os.open count unless their mode is a literal read-only one
_WRITERS = {"writer", "DictWriter", "save", "savez", "savez_compressed", "savetxt", "tofile", "write_text", "write_bytes"}


def _open_mode(call: ast.Call):
    return call.args[1] if len(call.args) > 1 else next((k.value for k in call.keywords if k.arg == "mode"), None)


def _writes_a_file(call: ast.Call) -> bool:
    name = getattr(call.func, "attr", getattr(call.func, "id", None))
    if name in _WRITERS:
        return True
    if name != "open":
        return False
    mode = _open_mode(call)
    return mode is not None and not (isinstance(mode, ast.Constant) and set(str(mode.value)) <= set("rbt"))


def test_only_util_writes_files():
    # every file goes through util's atomic writer, so a failed write leaves
    # the previous file, never a truncated one
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        if path.name != "util.py":
            tree = ast.parse(path.read_text(), filename=str(path))
            found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                      if isinstance(node, ast.Call) and _writes_a_file(node)]
    assert not found, f"files written outside util: {found}"


def _text_open_without_encoding(call: ast.Call) -> bool:
    # the builtin open; os.open returns a descriptor, not a text file
    if not (isinstance(call.func, ast.Name) and call.func.id == "open"):
        return False
    mode = _open_mode(call)
    binary = isinstance(mode, ast.Constant) and "b" in str(mode.value)
    return not binary and not any(k.arg == "encoding" for k in call.keywords)


def test_every_text_open_names_its_encoding():
    # util's writers encode UTF-8 whatever the locale, so a reader that
    # took the locale's codec could fail on a file the package wrote
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and _text_open_without_encoding(node)]
    assert not found, f"text-mode open without an encoding: {found}"


_EDGE_ARRAYS = {"edge_from", "edge_to", "edges"}
_SORTS = {"lexsort", "argsort", "sort", "sorted"}


def _name(node: ast.AST):
    return getattr(node, "attr", getattr(node, "id", None))


def _edge_sorts(tree: ast.AST) -> list:
    """Lines of the sort calls over the edge arrays or over a name bound to
    one, by assignment (src = net.edge_from) or as a function's argument."""
    params = {f.name: [a.arg for a in f.args.args] for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)}
    edge_names = set(_EDGE_ARRAYS)
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                unpacked = isinstance(target, ast.Tuple) and isinstance(node.value, ast.Tuple)
                pairs = zip(target.elts, node.value.elts) if unpacked else [(target, node.value)]
                edge_names |= {t.id for t, v in pairs if isinstance(t, ast.Name) and _name(v) in edge_names}
        elif isinstance(node, ast.Call) and _name(node.func) in params:
            edge_names |= {p for p, arg in zip(params[_name(node.func)], node.args) if _name(arg) in edge_names}
    return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call) and _name(node.func) in _SORTS
            and edge_names & {_name(n) for n in ast.walk(node)}]


def test_only_the_network_orders_its_edges():
    # RoadNetwork sorts its edges by (from, to) once, so every sum over
    # them runs in ascending neighbour id; a second ordering elsewhere
    # would let two consumers disagree about it
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        if path.name != "network.py":
            found += [f"{path.name}:{line}" for line in _edge_sorts(ast.parse(path.read_text(), filename=str(path)))]
    assert not found, f"edge arrays sorted outside network: {found}"


# read only from outside src/: tests/test_acceptance.py imports all of
# these but network.save_network, which writes perfbench's workload networks
_REFERENCED_FROM_OUTSIDE = {"ctm.density_from_speed", "harness.pool_windows", "harness.run_pipeline",
                            "network.save_network", "observability.gramian", "observability.lyapunov_gramian"}


def test_every_src_definition_is_referenced_from_src():
    # a top-level function or class that no code in src/ names is code a run
    # never calls. The scan is by name: a Name or an attribute anywhere in
    # src/ outside the definition itself counts, imports and __all__ do not.
    # So ctm.demand and ctm.supply pass by sharing FdArrays' method names.
    trees = {p.stem: ast.parse(p.read_text(), filename=str(p)) for p in sorted(PACKAGE.glob("*.py"))}
    defined = [(stem, node.name) for stem, tree in trees.items() for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
    named_by: dict = {}
    for stem, tree in trees.items():
        for top in tree.body:
            owner = (stem, getattr(top, "name", None))
            for node in ast.walk(top):
                if isinstance(node, (ast.Name, ast.Attribute)):
                    named_by.setdefault(_name(node), set()).add(owner)
    unreferenced = {f"{stem}.{name}" for stem, name in defined if not named_by.get(name, set()) - {(stem, name)}}
    assert unreferenced == _REFERENCED_FROM_OUTSIDE


def test_only_the_linear_system_scans_a():
    # LinearSystem finds A's nonzeros once, in row-major order; a scan of A
    # anywhere else in observability repeats an N x N pass on every call
    tree = ast.parse((PACKAGE / "observability.py").read_text())
    owned = {id(node) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef) and cls.name == "LinearSystem"
             for node in ast.walk(cls)}
    found = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Call) and _name(node.func) in {"nonzero", "flatnonzero", "argwhere"}
             and id(node) not in owned and any(_name(n) == "a" for arg in node.args for n in ast.walk(arg))]
    assert not found, f"A scanned for nonzeros outside LinearSystem, observability.py lines {found}"


def _loaded_after(imports: str, prefixes: tuple) -> list:
    """The sys.modules keys starting with one of prefixes after a fresh
    interpreter runs `import <imports>`."""
    code = f"import sys, {imports}\nprint(' '.join(m for m in sys.modules if m.startswith({prefixes!r})))"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (str(PACKAGE.parent), os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def test_leaf_modules_do_not_load_the_stack():
    # the network, simulator and observability modules stand alone; a
    # package-level import that pulls in scipy, the autodiff tape or the
    # pipeline would make every script that reads one network pay for all
    loaded = _loaded_after(
        "trafficfuse.network, trafficfuse.ctm, trafficfuse.observability",
        ("scipy", "trafficfuse.autodiff", "trafficfuse.harness"),
    )
    assert loaded == [], f"loaded by the leaf modules: {loaded}"


def test_cli_does_not_load_scipy():
    # scipy.special alone costs a CLI process about 0.3 s and 25 MB; the
    # run path needs only numpy and the standard library
    loaded = _loaded_after("trafficfuse.cli", ("scipy",))
    assert loaded == [], f"loaded by trafficfuse.cli: {loaded}"


def _bound_names(node) -> list:
    """The names a module-level import statement binds."""
    if isinstance(node, ast.Import):
        return [a.asname or a.name.split(".")[0] for a in node.names]
    if isinstance(node, ast.ImportFrom) and node.module != "__future__":
        return [a.asname or a.name for a in node.names]
    return []


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_level_imports_are_used(path):
    # an import nothing references still costs every process that loads
    # the module; a name re-exported through __all__ counts as used
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    mod = importlib.import_module("trafficfuse" if path.stem == "__init__" else f"trafficfuse.{path.stem}")
    used |= set(getattr(mod, "__all__", ()))
    unused = [name for node in tree.body for name in _bound_names(node) if name not in used]
    assert not unused, f"{path.name} imports names it never uses: {unused}"


@pytest.mark.parametrize("module", sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__"))
def test_public_names_resolve(module):
    mod = importlib.import_module(f"trafficfuse.{module}")
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert not missing, f"trafficfuse.{module}.__all__ names that do not resolve: {missing}"


def _load_benchmark_spans():
    # loaded by path and only read: the benchmark's files are not part of
    # the package, and the test must not change them
    path = ROOT / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("benchmark_spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_spans_resolve_and_record_the_filter(monkeypatch, tmp_path):
    # the spans rebind public names; a refactor that renames one, or stops
    # calling it through the rebound name, would silently zero its metrics
    spans = _load_benchmark_spans()
    targets = [(spans._resolve(path), attr) for path, attr, _, _ in spans.TARGETS]
    targets.append((importlib.import_module("trafficfuse.ensrf"), "diffuse"))
    for owner, attr in targets:
        assert callable(getattr(owner, attr, None)), f"{owner.__name__}.{attr} does not resolve"
        monkeypatch.setattr(owner, attr, getattr(owner, attr))  # restored after the test
    rec = spans.Recorder()
    spans.install(rec)
    model = ModelConfig(n_features=22, embed_dim=8, spatial_layers=1, temporal_blocks=1,
                        heads=2, history=4, horizon=1, ffn_width=16)
    cfg = ExperimentConfig(twin="chain", days=2, forecast_days=1, model=model,
                           filter=FilterConfig(n_members=8), train_steps=2, train_batch=4, seed=3)
    pipe = Pipeline(cfg)
    pipe.calibrate()
    pipe.write_observability(str(tmp_path))
    calls = Counter(span["name"] for span in rec.spans)
    for name in ("ensrf.forecast_step", "ensrf.analysis_step", "propagation.diffuse", "propagation.blend"):
        assert calls[name] >= 1, f"no {name} span recorded in calibrate"

    def stage(span):  # the innermost pipeline stage around a span
        while not span["name"].startswith("harness."):
            span = rec.spans[span["parent"]]
        return span["name"]

    # training and inference share train.forward; its spans must still
    # tell the taped training steps from the no-tape passes
    forwards = Counter((stage(span), span["name"]) for span in rec.spans if span["name"].startswith("model.forward"))
    assert forwards[("harness.fit", "model.forward_tape")] == 2, forwards
    assert forwards[("harness.fit", "model.forward_notape")] >= 1, forwards
    assert forwards[("harness.forecasts", "model.forward_tape")] == 0, forwards
    # one no-tape forward per batch of the row budget, so a loop that
    # stopped calling train.forward would show here, not as zero metrics
    anchors = pipe.truth.n_bins - model.history
    per_batch = max(1, INFER_ROWS // (model.history * pipe.net.n_segments))
    assert forwards[("harness.forecasts", "model.forward_notape")] == -(-anchors // per_batch), forwards

    # the observability layers are timed inside the one analyze call
    analyses = [k for k, span in enumerate(rec.spans) if span["name"] == "observability.analyze"]
    assert len(analyses) == 1, analyses
    inside = Counter(span["name"] for span in rec.spans if span["parent"] == analyses[0])
    for name in ("observability.rank", "observability.linearize", "observability.spectral_radius"):
        assert inside[name] == 2, inside  # one per regime


def test_config_fields_are_pinned():
    # Every field is one more configuration that tests must cover. A new
    # field needs two existing callers that need different values; a value
    # every caller shares is a constant next to the code that reads it.
    pinned = {
        ExperimentConfig: {"twin", "network_path", "days", "forecast_days", "bin_seconds", "demand_peak",
                           "cameras_calibration", "cameras_validation", "model", "train_steps", "train_batch",
                           "filter", "interval", "seed"},
        ModelConfig: {"n_features", "embed_dim", "spatial_layers", "temporal_blocks", "heads", "history",
                      "horizon", "ffn_width"},
        FilterConfig: {"n_members", "sigma_0", "sigma_y", "lambda_base", "lambda_glob", "q_base", "q_hour",
                       "q_day", "q_regime", "global_gain_scale", "max_global_obs", "init_base_sd", "init_glob_sd"},
    }
    # 33 settable fields: 12 + 8 + 13, not counting the two sections
    for cls, names in pinned.items():
        assert set(cls.__dataclass_fields__) == names, cls.__name__


def _defaulted_parameters(body, prefix: str, in_class: bool = False) -> dict:
    """{qualified name: parameter names with a default} over the public
    functions and methods in body, a public class's dunders included."""
    found = {}
    for node in body:
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            found.update(_defaulted_parameters(node.body, f"{prefix}{node.name}.", in_class=True))
        elif isinstance(node, ast.FunctionDef):
            dunder = in_class and node.name.startswith("__") and node.name.endswith("__")
            if node.name.startswith("_") and not dunder:
                continue
            args = node.args
            positional = args.posonlyargs + args.args
            names = [a.arg for a in positional[len(positional) - len(args.defaults):]]
            names += [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
            if names:
                found[prefix + node.name] = set(names)
    return found


def test_function_defaults_are_pinned():
    # Every parameter with a default is one more configuration that tests
    # must cover. A default stays only where a caller outside the unit tests
    # omits it (in src/, perfbench/, demos/, tests/test_acceptance.py or
    # tests/conftest.py); a value every such caller passes is a parameter
    # without a default, and a value they all share is a constant next to
    # the code that reads it. Each entry names a caller that omits it.
    pinned = {
        # src/ omits these, e.g. model.forward's Tensor(bins), .mean() and
        # affine(y, w_k); the unit tests' oracles compose them
        "autodiff.Tensor.__init__": {"requires_grad"},
        "autodiff.Tensor.sum": {"axis", "keepdims"},
        "autodiff.Tensor.mean": {"axis", "keepdims"},
        "autodiff.affine": {"b"},
        "cli.main": {"argv"},  # the module's __main__ block
        # perfbench/op.py and perfbench/run.py omit these
        "ctm.default_fd_params": {"bin_seconds"},
        "observability.linearize": {"beta", "bin_seconds"},
        "observability.analyze": {"beta", "bin_seconds"},
        # src/ omits these (Pipeline.simulate, init_ensemble and
        # Pipeline.transition), and tests/test_acceptance.py sets them
        "ctm.simulate": {"initial"},
        "ensrf.CalibrationEnsemble.__init__": {"confidence"},
        "propagation.build_transition": {"gamma_pd", "s"},
        # Pipeline.metrics calls evaluate with and without a band, and the
        # no-tape passes call forward with carry, training without
        "harness.evaluate": {"lo", "hi"},
        "model.forward": {"carry"},
        "harness.run_pipeline": {"out_dir"},  # tests/test_acceptance.py omits it
        # Pipeline omits the boundary arrays, which no run has yet
        "features.build_tensor": {"boundary_in", "boundary_out"},
        "train.build_windows": {"boundary_in", "boundary_out"},
    }
    assert sum(map(len, pinned.values())) == 24
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        found.update(_defaulted_parameters(ast.parse(path.read_text(), filename=str(path)).body, f"{path.stem}."))
    assert found == pinned


def test_config_and_report_codecs_are_pinned():
    # Configs and reports are written with dataclasses.asdict. A to_dict or
    # from_dict beyond these is a second codec for something asdict writes.
    found = {
        f"{path.stem}.{cls.name}.{fn.name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for cls in ast.walk(ast.parse(path.read_text(), filename=str(path))) if isinstance(cls, ast.ClassDef)
        for fn in cls.body if isinstance(fn, ast.FunctionDef) and fn.name in ("to_dict", "from_dict")
    }
    assert found == {"harness.ExperimentConfig.to_dict", "harness.ExperimentConfig.from_dict",
                     "harness.MetricsReport.to_dict"}


def test_cli_flags_are_pinned():
    # a run is set in its config, the seed included; the flags only say
    # where the config is and where the artifacts go
    from trafficfuse import cli

    parser = cli.build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert set(commands.choices) == set(cli._COMMANDS)
    for name, sub in commands.choices.items():
        flags = {s for a in sub._actions for s in a.option_strings} - {"-h", "--help"}
        assert flags == {"--config", "--out"}, name


def test_readme_configs_load(tmp_path):
    # every config README shows must load, so the documented schema cannot drift
    blocks = re.findall(r"```json\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    configs = []
    for k, block in enumerate(blocks):
        path = tmp_path / f"readme_{k}.json"
        path.write_text(block)
        configs.append(load_config(str(path)))
    assert configs, "no JSON config block in README.md"
    assert configs[0] == ExperimentConfig(days=14, forecast_days=7, train_steps=800, seed=0)


def test_readme_command_line_names_every_stage_command():
    # the commands README lists under "Command line", after the run line,
    # are the CLI's subcommands other than run, in the same order
    from trafficfuse import cli

    line = re.search(r"^trafficfuse (\w+(?: \| \w+)*)$", (ROOT / "README.md").read_text(), re.M)
    assert line, "README.md has no command line"
    listed = line.group(1).split(" | ")
    assert listed == [name for name in cli._COMMANDS if name != "run"]


def test_demo_imports_resolve():
    # covers full_experiment.py too, which is too slow to run here
    demos = sorted(DEMOS.glob("*.py"))
    assert demos, "demos not found"
    missing = []
    for path in demos:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("trafficfuse"):
                module = importlib.import_module(node.module)
                missing += [f"{path.name}: {node.module}.{a.name}" for a in node.names if not hasattr(module, a.name)]
    assert not missing, f"demo imports that do not resolve: {missing}"


@pytest.mark.parametrize(
    "demo", ["simulate_corridor", "kernel_and_observability", "probe_features_training", "calibrate_with_cameras"]
)
def test_demo_runs(demo, tmp_path):
    proc = subprocess.run(
        [sys.executable, str(DEMOS / f"{demo}.py")], cwd=tmp_path, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip(), f"{demo} printed nothing"


def test_readme_module_table_names_every_module():
    # the "How the pieces fit" table has one row per package module, each
    # row starting with the module name at the left margin
    text = (ROOT / "README.md").read_text()
    table = re.search(r"## How the pieces fit\n\n```\n(.*?)```", text, re.S)
    assert table, "README.md has no module table"
    rows = re.findall(r"^(\w+) ", table.group(1), re.M)
    modules = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")
    assert sorted(rows) == modules


def test_readme_artifact_table_names_every_written_file(tmp_path):
    # the artifact table under "Command line" lists each file write_artifacts
    # returns, so a writer that adds or drops a file must update README
    text = (ROOT / "README.md").read_text()
    rows = re.findall(r"^\| (`.*?) \|", text, re.M)
    assert rows, "README.md has no artifact table"
    documented = [name for row in rows for name in re.findall(r"`([^`]+)`", row)]
    model = ModelConfig(n_features=22, embed_dim=8, spatial_layers=1, temporal_blocks=1,
                        heads=2, history=4, horizon=1, ffn_width=16)
    cfg = ExperimentConfig(twin="chain", days=2, forecast_days=1, model=model,
                           filter=FilterConfig(n_members=8), train_steps=2, train_batch=4, seed=3)
    paths = Pipeline(cfg).write_artifacts(str(tmp_path))
    assert sorted(documented) == sorted(os.path.basename(p) for p in paths.values())
