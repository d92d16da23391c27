"""Source-tree rules that no single module test covers."""

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
    assert forwards[("harness.forecasts", "model.forward_notape")] >= 1, forwards
    assert forwards[("harness.forecasts", "model.forward_tape")] == 0, forwards

    # the observability layers are timed inside the one analyze call
    analyses = [k for k, span in enumerate(rec.spans) if span["name"] == "observability.analyze"]
    assert len(analyses) == 1, analyses
    inside = Counter(span["name"] for span in rec.spans if span["parent"] == analyses[0])
    for name in ("observability.rank", "observability.linearize", "observability.spectral_radius"):
        assert inside[name] == 2, inside  # one per regime


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
    # the stage commands README lists under "Command line" are the CLI's
    # subcommands other than run, in the same order
    from trafficfuse import cli

    line = re.search(r"^trafficfuse (\w+(?: \| \w+)+)$", (ROOT / "README.md").read_text(), re.M)
    assert line, "README.md has no stage command line"
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
