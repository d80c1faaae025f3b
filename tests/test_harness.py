import json
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import yaml

import saddlekit as sk
from saddlekit.harness import (
    config_from_dict,
    doa_scan,
    emit_table,
    load_config,
    run_experiment,
    run_invariant_checks,
)
from saddlekit import cli, harness


def _tiny_config(**over):
    base = {
        "problem": {"name": "three_hole"},
        "method": "imf",
        "label": "tiny",
        "seed": 3,
        "search": {
            "alpha": 2.0, "beta": 0.0, "grad_tol": 1e-11, "eig_tol": 1e-12,
            "max_outer_iters": 10,
            "subsolve": {"grad_tol": 1e-13, "max_inner_iters": 400, "box_radius": 0.25},
        },
        "start": {"circle": {"center": [0.0, -0.31582], "radius": 0.2, "count": 2}},
    }
    base.update(over)
    return base


def test_config_from_dict_validation():
    with pytest.raises(ValueError):
        config_from_dict({"method": "imf", "start": {"point": [0, 0]}})  # no problem
    with pytest.raises(ValueError):
        config_from_dict({"problem": "three_hole", "method": "dimer",
                          "start": {"point": [0, 0]}})
    with pytest.raises(ValueError):
        config_from_dict({"problem": "three_hole", "bogus": 1,
                          "start": {"point": [0, 0]}})
    # exactly one start kind, each with only its own keys
    circle = {"center": [0.0, 0.0], "radius": 0.2}
    for start, named in (
        ({}, "got \\[\\]"),
        ({"point": [0, 0], "circle": circle}, "'circle', 'point'"),
        ({"line": {}}, "'line'"),
        ({"circle": {**circle, "cnt": 3}}, "'cnt'"),
        ({"sphere_cap": {"center": [1, 0, 0], "radius": 0.1}}, "'radius'"),
        ({"perturbed_minimum": {"amplitude": 0.05, "relax_tol": 1e-8}}, "'relax_tol'"),
        # no point to run, where an empty run list would read all_converged
        ({"circle": {**circle, "count": 0}}, "circle start count must be at least 1, got 0"),
        ({"sphere_cap": {"center": [1, 0, 0], "geodesic_distance": 0.1, "count": 0}},
         "sphere_cap start count must be at least 1"),
        ({"perturbed_minimum": {"count": -1}}, "perturbed_minimum start count must be at least 1"),
    ):
        with pytest.raises(ValueError, match=named):
            config_from_dict(_tiny_config(start=start))
    cfg = config_from_dict(_tiny_config())
    assert cfg.problem == "three_hole"
    assert cfg.search["alpha"] == 2.0


@pytest.mark.parametrize("over, named", [
    ({"method": "newton", "newton": {"step_limit": 5.0}}, "unknown newton keys: \\['step_limit'\\]"),
    ({"search": {"subsolve": {"method": "ncg"}}}, "unknown search.subsolve keys: \\['method'\\]"),
    ({"search": {"alpha": 2.0, "beta": 0.0, "reference": [0, 0]}}, "unknown search keys"),
    ({"method": "gad", "gad": {"dt": 0.01, "steps": 10}}, "unknown gad keys"),
    ({"method": "gad", "gad": {"dt": 0.01, "reversal": 2.0}}, "unknown gad keys: \\['reversal'\\]"),
])
def test_stale_section_keys_fail_at_load(tmp_path, over, named):
    # a key of an older config fails by name before any output is written
    raw = _tiny_config(**over)
    with pytest.raises(ValueError, match=named):
        config_from_dict(raw)
    path = tmp_path / "stale.yaml"
    path.write_text(yaml.safe_dump(raw))
    with pytest.raises(ValueError, match=named):
        cli.main(["run", str(path), "-o", str(tmp_path / "out")])
    assert not (tmp_path / "out").exists()


def test_load_config_yaml(tmp_path):
    path = tmp_path / "exp.yaml"
    path.write_text(yaml.safe_dump(_tiny_config()))
    cfg = load_config(path)
    assert cfg.label == "tiny"
    assert cfg.seed == 3


def test_run_experiment_outputs(tmp_path):
    cfg = config_from_dict(_tiny_config())
    summary = run_experiment(cfg, tmp_path)
    assert summary["all_converged"]
    assert len(summary["runs"]) == 2
    for k, r in enumerate(summary["runs"]):
        assert (tmp_path / f"tiny_run{k}.csv").exists()
        assert r["status"] == "converged"
        assert r["terminal_index"] == 1
        # auto-referencing labels errors against the nearest known saddle
        assert r["errors"][-1] < 1e-9
    data = json.loads((tmp_path / "tiny_summary.json").read_text())
    assert data["seed"] == 3
    assert data["all_converged"]


def test_run_experiment_reproducible(tmp_path):
    cfg = config_from_dict(_tiny_config())
    run_experiment(cfg, tmp_path / "a")
    run_experiment(cfg, tmp_path / "b")
    for k in range(2):
        assert ((tmp_path / "a" / f"tiny_run{k}.csv").read_bytes()
                == (tmp_path / "b" / f"tiny_run{k}.csv").read_bytes())


@pytest.mark.parametrize("reference", [[0.0, -0.3], None], ids=["point", "null"])
def test_run_experiment_measures_to_configured_reference(tmp_path, reference):
    summary = run_experiment(config_from_dict(_tiny_config(reference=reference)), tmp_path)
    for k, r in enumerate(summary["runs"]):
        xs = np.loadtxt(tmp_path / f"tiny_run{k}.csv", delimiter=",", skiprows=1,
                        usecols=(5, 6), ndmin=2)
        expected = [] if reference is None else list(np.linalg.norm(xs - reference, axis=1))
        assert r["errors"] == pytest.approx(expected, rel=1e-15)


@pytest.mark.parametrize("reference", [[7.0], [0.0, -0.3, 0.0], "Auto"],
                         ids=["length1", "length3", "string"])
def test_run_experiment_refuses_a_reference_of_another_shape(monkeypatch, tmp_path, reference):
    # refused before any search runs or any output is written
    monkeypatch.setattr(harness, "run_search", lambda *a: pytest.fail("search ran"))
    error = ValueError if isinstance(reference, str) else sk.DimensionError
    with pytest.raises(error, match=r"points? of shape \(2,\)"):
        run_experiment(config_from_dict(_tiny_config(reference=reference)), tmp_path / "out")
    assert not (tmp_path / "out").exists()


README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_block(lang):
    """The README's one fenced code block in ``lang``."""
    block, = re.findall(rf"```{lang}\n(.*?)```", README.read_text(), re.S)
    return block


def test_readme_library_example_runs(capsys):
    exec(compile(_readme_block("python"), str(README), "exec"), {})
    assert capsys.readouterr().out.startswith("converged ")


def test_readme_config_example_runs(tmp_path):
    cfg = config_from_dict(yaml.safe_load(_readme_block("yaml")))
    summary = run_experiment(cfg, tmp_path)
    assert summary["all_converged"]
    assert summary["runs"][0]["errors"][-1] < 1e-9


def test_run_experiment_gad(tmp_path):
    cfg = config_from_dict({
        "problem": "double_well",
        "method": "gad",
        "label": "flow",
        "gad": {"dt": 0.01, "max_steps": 20000, "tol": 1e-9},
        "start": {"point": [0.1, 0.1]},
    })
    summary = run_experiment(cfg, tmp_path)
    assert summary["all_converged"]
    assert (tmp_path / "flow_run0.csv").exists()


def test_run_experiment_newton(tmp_path):
    cfg = config_from_dict({
        "problem": "three_hole",
        "method": "newton",
        "label": "nwt",
        "newton": {"tol": 1e-10},
        "start": {"point": [0.0, -0.3]},
    })
    summary = run_experiment(cfg, tmp_path)
    assert summary["runs"][0]["terminal_index"] == 1


@pytest.mark.parametrize("method", ["imf", "gad", "newton"])
def test_every_method_writes_one_record_format(tmp_path, capsys, method):
    # the three methods return one record type: the same files, CSV header
    # and run-entry keys, and the CLI reads every entry the same way
    cfg_path = tmp_path / "exp.yaml"
    cfg_path.write_text(yaml.safe_dump(_tiny_config(
        method=method, label="c", start={"point": [0.05, -0.25]},
        gad={"v0": [1.0, 0.0], "dt": 0.01, "max_steps": 20000, "tol": 1e-9},
        newton={"tol": 1e-10})))
    out = tmp_path / "out"
    assert cli.main(["run", str(cfg_path), "-o", str(out)]) == 0
    summary = json.loads((out / "c_summary.json").read_text())
    run = summary["runs"][0]
    assert sorted(p.name for p in out.iterdir()) == ["c_run0.csv", "c_summary.json"]
    assert (out / "c_run0.csv").read_text().splitlines()[0] == (
        "iter,error,grad_norm,lambda1,inner_iters,x0,x1")
    assert list(run) == ["run", "start", "status", "message", "iterations", "terminal_index",
                         "terminal_x", "terminal_grad_norm", "errors", "estimated_order",
                         "csv", "converged"]
    assert (run["status"], run["message"], run["terminal_index"], run["converged"]) == (
        "converged", "", 1, True)
    assert run["errors"][-1] < 1e-8 and len(run["errors"]) == run["iterations"] + 1
    assert capsys.readouterr().out.splitlines()[0] == (
        f"run 0: converged in {run['iterations']} iterations")


@pytest.mark.parametrize("over, named", [
    ({"search": {"alpha": 0.2, "beta": 0.2}}, "alpha \\+ beta = 0.4 must exceed 1"),
    ({"search": {"subsolve": {"box_radius": -1}}}, "box_radius must be positive"),
    ({"start": {"circle": {"center": [0.0, 0.0, 0.0], "radius": 0.2}}},
     "circle starts require a 2-d center"),
    ({"start": {"perturbed_minimum": {"amplitude": 0.05}}},
     "three_hole has no built-in geometry to relax"),
], ids=["coefficients", "box_radius", "circle_center", "perturbed_minimum"])
def test_a_bad_setting_or_start_writes_nothing(tmp_path, over, named):
    # the settings are checked and the starts built before the output
    # directory is created
    with pytest.raises(ValueError, match=named):
        run_experiment(config_from_dict(_tiny_config(**over)), tmp_path / "out")
    assert not (tmp_path / "out").exists()


def test_gad_v0_of_zero_norm_is_refused_before_any_output(tmp_path):
    cfg = config_from_dict({
        "problem": "three_hole", "method": "gad", "gad": {"v0": [0, 0], "dt": 0.01},
        "start": {"point": [0.1, -0.2]},
    })
    with pytest.raises(ValueError, match="v0"):
        run_experiment(cfg, tmp_path / "out")
    assert not (tmp_path / "out").exists()


def _measured(errors):
    """A 1-d record whose errors after the start are ``errors``."""
    rec = sk.ConvergenceRecord()
    for k, e in enumerate([1.0, *errors]):
        rec.add(k, [e], None, 0.0, None, 0)
    return rec.measure([0.0])


def test_emit_table_roundtrip(tmp_path):
    records = [("a", _measured([1e-1, 1e-3, 1e-7])), ("b", _measured([2e-1, 5e-4]))]
    md = emit_table(records, tmp_path / "t.md", fmt="markdown")
    text = Path(md).read_text()
    assert "| iter | a | b |" in text
    assert "1.000e-01" in text
    emit_table(records, tmp_path / "t.csv", fmt="csv")
    assert (tmp_path / "t.csv").read_text().startswith("iter,a,b")
    jpath = emit_table(records, tmp_path / "t.json", fmt="json")
    back = json.loads(Path(jpath).read_text())
    assert back == {"a": [1e-1, 1e-3, 1e-7], "b": [2e-1, 5e-4]}
    with pytest.raises(ValueError):
        emit_table(records, tmp_path / "t.x", fmt="latex")
    assert not (tmp_path / "t.x").exists()


def test_emit_table_empty(tmp_path):
    path = emit_table([], tmp_path / "empty.csv", fmt="csv")
    assert Path(path).read_text() == "iter\n"


def test_doa_single_cell_at_saddle(three_hole):
    sp = three_hole.stationary_points[0][0]
    region = ((sp[0], sp[0]), (sp[1], sp[1]))
    for method in ("imf", "newton"):
        grid = doa_scan("three_hole", method, region, 1, workers=1)
        assert grid.labels[0, 0] == 0
        assert grid.labeled_cells() == 1


def test_doa_refuses_an_unknown_method_before_starting_a_pool(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was started")

    monkeypatch.setattr(harness, "ProcessPoolExecutor", no_pool)
    with pytest.raises(ValueError, match="doa supports imf\\|newton, got 'gad'"):
        doa_scan("three_hole", "gad", ((-0.2, 0.2), (-0.5, -0.1)), 2, workers=2)


def test_doa_small_grid_matches_direct_runs(three_hole):
    region = ((-0.3, 0.3), (-0.6, 0.2))
    grid = doa_scan("three_hole", "imf", region, 4, workers=1)
    assert grid.labeled_cells() >= 12  # region hugs the lower saddle
    # spot-check cells against direct searches
    from saddlekit.harness import _doa_cell

    xs = np.linspace(*region[0], 4)
    ys = np.linspace(*region[1], 4)
    rng = np.random.default_rng(0)
    cells = {(0, 0), (3, 3)} | {tuple(rng.integers(0, 4, 2)) for _ in range(8)}
    for (i, j) in cells:
        label, _ = _doa_cell(("three_hole", {}, "imf", (xs[i], ys[j]), 200, 0.25, 1e-3))
        assert label == grid.labels[i, j]


def test_doa_connectivity_helper():
    from saddlekit.harness import DoaGrid

    labels = np.array([[0, 0, -1], [-1, 0, -1], [1, -1, 0]])
    grid = DoaGrid(region=((0, 1), (0, 1)), n=3, method="imf",
                   saddles=[[0.0, 0.0], [1.0, 1.0]], labels=labels,
                   iterations=np.zeros((3, 3), dtype=int))
    assert not grid.basin_is_connected(0)  # the corner 0 is detached
    assert grid.basin_is_connected(1)
    assert grid.labeled_cells() == 5


def test_invariant_checks_fast():
    results = run_invariant_checks(include_cluster=False)
    assert all(ok for _, ok, _ in results)
    assert len(results) >= 20


# -- CLI ----------------------------------------------------------------------


def test_cli_run_and_check(tmp_path):
    cfg_path = tmp_path / "exp.yaml"
    cfg_path.write_text(yaml.safe_dump(_tiny_config()))
    out = tmp_path / "out"
    assert cli.main(["run", str(cfg_path), "-o", str(out)]) == 0
    assert (out / "tiny_summary.json").exists()
    assert cli.main(["check", "--skip-cluster"]) == 0


def test_cli_doa(tmp_path):
    cfg_path = tmp_path / "doa.yaml"
    cfg_path.write_text(yaml.safe_dump({
        "problem": "three_hole", "method": "newton",
        "region": [[-0.2, 0.2], [-0.5, -0.1]], "n": 3, "workers": 1,
        "label": "minidoa",
    }))
    out = tmp_path / "out"
    assert cli.main(["doa", str(cfg_path), "-o", str(out)]) == 0
    labels = np.loadtxt(out / "minidoa.csv", delimiter=",", dtype=int, ndmin=2)
    assert labels.shape == (3, 3)


def test_cli_doa_rejects_unknown_keys(tmp_path):
    cfg_path = tmp_path / "doa.yaml"
    cfg_path.write_text(yaml.safe_dump({"problem": "three_hole", "n": 2, "budjet": 5}))
    with pytest.raises(ValueError, match="budjet"):
        cli.main(["doa", str(cfg_path), "-o", str(tmp_path / "out")])
    cfg_path.write_text("- three_hole\n")
    with pytest.raises(ValueError, match="mapping"):
        cli.main(["doa", str(cfg_path), "-o", str(tmp_path / "out")])


def test_benchmark_traced_names_resolve(monkeypatch):
    # the benchmark's traced run rebinds these library names; importing its
    # workloads also builds the search configs they run, and the benchmark
    # builds records and configs through the API used below
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import measure
    import tracing
    import workloads

    for owner, attr, _, _ in tracing.targets(workloads):
        assert hasattr(owner, attr), f"{owner!r} has no attribute {attr!r}"
    assert hasattr(harness, "run_search")
    rec = measure.failed_record(np.zeros(2), "RuntimeError: boom")
    assert (rec.status, rec.message, rec.iterations) == ("failed", "RuntimeError: boom", 0)
    assert replace(workloads.MORSE_CONFIG, convex_inner_cap=20).convex_inner_cap == 20
