import argparse
import dataclasses
import os
import re
import subprocess
import sys

import pytest

from epiplan import ConfigError, sim
from epiplan.cli import build_parser, dispatch, emit_results
from epiplan.config import RunConfig, config_hash, parse_config_text, resolved_text
from epiplan.model import EpidemicModel
from epiplan.plan import BACKENDS, PlannerConfig

README = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                      "README.md")
SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")


def test_runtime_imports_no_third_party_module_but_numpy():
    # A fresh interpreter, so no test module has imported anything before it;
    # modules loaded at start-up and private helpers (_name, __mp_main__) are
    # not counted.
    code = ("import sys\n"
            "before = set(sys.modules)\n"
            "import epiplan.cli\n"
            "from epiplan.model import EpidemicModel\n"
            "from epiplan.rules import AmbiguityConfig\n"
            "from epiplan.seir import EpidemicParams\n"
            "EpidemicModel(EpidemicParams(N=40), 2, AmbiguityConfig()).compile_all()\n"
            "added = {m.split('.')[0] for m in set(sys.modules) - before}\n"
            "print(sorted(m for m in added - set(sys.stdlib_module_names)\n"
            "             if not m.startswith('_')))\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "['epiplan', 'numpy']"


# What resolved.cfg holds for the defaults: every key, in this order, written
# in this form.  A change here changes every config hash.
DEFAULT_RESOLVED = """\
N = 1000
mu = 10.0
beta = 0.025
alpha0 = 0.9
l_C = 0.5
l_D = 0.3333333333333333
Q = 2.0
k_R = 500.0
W = 1000.0
L = 5
M = 5
lambda = 0.95
T = 12
Y = 10
delta = 0.05
k = 1000.0
backend = drmdp-enumerate
niter = 50
seed = 0
inner_method = parametric
early_stop = true
robust_budget = 0.5
radius = 0.5
perturb_direction = high-infective
nseeds = 10
p_S1_list = 0.6,0.7
p_E1 = 0.1
sweep_param = Q
sweep_values = 0.5,2.0,50.0
threads = 1
"""


class TestParseConfig:
    def test_default_resolved_text_is_golden(self):
        assert resolved_text(RunConfig()) == DEFAULT_RESOLVED

    def test_planner_section_is_frozen(self):
        cfg = RunConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.planner.seed = 1

    def test_empty_gives_defaults(self):
        cfg = parse_config_text("")
        assert cfg == RunConfig()
        echoed = resolved_text(cfg)
        # every key is listed, including untouched defaults
        assert "lambda = 0.95" in echoed
        assert "Y = 10" in echoed
        assert "backend = drmdp-enumerate" in echoed

    def test_basic_assignments(self):
        cfg = parse_config_text("Y = 30\nN = 300\nlambda = 0.9\n# comment\n")
        assert cfg.Y == 30
        assert cfg.params.N == 300
        assert cfg.params.lam == 0.9

    def test_range_error_names_key(self):
        with pytest.raises(ConfigError) as err:
            parse_config_text("lambda = 1.5")
        assert "lambda" in str(err.value)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError) as err:
            parse_config_text("gamma = 2\n")
        assert "gamma" in str(err.value)
        assert ":1:" in str(err.value)

    def test_mccormick_lower_one_rejected(self):
        # The key set the envelopes' lower action bound to 1 while level 0
        # stayed feasible, so the McCormick "upper bound" could fall below
        # enumeration; it was removed.
        with pytest.raises(ConfigError) as err:
            parse_config_text("mccormick_lower_one = true\n")
        assert "unknown key 'mccormick_lower_one'" in str(err.value)

    def test_malformed_line(self):
        with pytest.raises(ConfigError) as err:
            parse_config_text("Y 30\n")
        assert ":1:" in str(err.value)

    def test_duplicate_key(self):
        with pytest.raises(ConfigError):
            parse_config_text("Y = 3\nY = 4\n")

    def test_lists_and_bools(self):
        cfg = parse_config_text(
            "p_S1_list = 0.6, 0.7\nearly_stop = false\nsweep_values = 1,2,3\n")
        assert cfg.p_S1_list == (0.6, 0.7)
        assert cfg.planner.early_stop is False
        assert cfg.sweep_values == (1.0, 2.0, 3.0)

    @pytest.mark.parametrize("text, key", [
        ("k = nan", "'k'"),
        ("l_C = nan", "'l_C'"),
        ("W = inf", "'W'"),
        ("sweep_values = 1, nan", "'sweep_values'"),
    ])
    def test_non_finite_float_rejected(self, text, key):
        with pytest.raises(ConfigError) as err:
            parse_config_text("Y = 5\n" + text + "\n")
        assert str(err.value).startswith("<config>:2: ")
        assert key in str(err.value)
        assert "not finite" in str(err.value)

    @pytest.mark.parametrize("text, word", [
        ("radius = 3", "radius"),
        ("perturb_direction = sideways", "direction"),
    ])
    def test_bad_perturbation_rejected(self, text, word):
        with pytest.raises(ConfigError) as err:
            parse_config_text(text + "\n")
        assert word in str(err.value)

    def test_bad_backend(self):
        # drmdp-unary is an oracle in epiplan.backup, not a back-end.
        for name in ("magic", "drmdp-unary"):
            with pytest.raises(ConfigError, match=name):
                parse_config_text(f"backend = {name}\n")

    @pytest.mark.parametrize("text", [
        "",
        f"l_D = {1 / 3!r}\nQ = {0.1 + 0.2!r}\nW = 1e-300\nmu = 12345.678901234567\n"
        f"p_S1_list = {1 / 3!r}, {0.1 + 0.2!r}\nsweep_values = 0.1, {2 / 3!r}, 1e20\n"
        "early_stop = no\nbackend = robust\nN = 7\nlambda = 0.9\n",
    ], ids=["defaults", "awkward-floats"])
    def test_resolved_text_round_trips(self, text):
        cfg = parse_config_text(text)
        assert parse_config_text(resolved_text(cfg)) == cfg

    def test_hash_sees_the_last_float_digit(self):
        a = parse_config_text("l_D = 0.3333333333333333\n")
        b = parse_config_text("l_D = 0.3333333333333\n")
        assert config_hash(a) != config_hash(b)

    def test_hash_changes_iff_config_changes(self):
        a = parse_config_text("Y = 5\n")
        b = parse_config_text("Y = 5\n")
        c = parse_config_text("Y = 6\n")
        assert config_hash(a) == config_hash(b)
        assert config_hash(a) != config_hash(c)


class TestEmitResults:
    def test_files_and_manifest(self, tmp_path):
        cfg = RunConfig()
        rows = [{"a": 1, "b": 2.5}, {"a": 2, "b": -0.125}]
        files = emit_results({"demo": (["a", "b"], rows)}, str(tmp_path), cfg, [0, 1])
        names = {os.path.basename(f) for f in files}
        assert names == {"demo.csv", "resolved.cfg", "manifest.txt"}
        demo = (tmp_path / "demo.csv").read_text()
        assert demo.splitlines()[0] == "a,b"
        manifest = (tmp_path / "manifest.txt").read_text()
        assert f"config_hash {config_hash(cfg)}" in manifest
        assert "seeds 0,1" in manifest

    def test_empty_table_header_only(self, tmp_path):
        emit_results({"empty": (["x"], [])}, str(tmp_path), RunConfig(), [])
        assert (tmp_path / "empty.csv").read_text().strip() == "x"

    def test_rerun_byte_identical(self, tmp_path):
        cfg = RunConfig()
        rows = [{"x": 0.1}, {"x": 2.0 / 3.0}]
        emit_results({"t": (["x"], rows)}, str(tmp_path / "a"), cfg, [3])
        emit_results({"t": (["x"], rows)}, str(tmp_path / "b"), cfg, [3])
        assert (tmp_path / "a" / "t.csv").read_bytes() == \
               (tmp_path / "b" / "t.csv").read_bytes()


def write_cfg(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return str(path)


TOY = """
N = 10
Y = 2
T = 3
L = 1
M = 1
Q = 0.5
k_R = 0.5
W = 2.0
niter = 5
nseeds = 2
p_S1_list = 0.5
p_E1 = 0.5
"""


class TestDispatch:
    @pytest.mark.parametrize("command", ["frobnicate", "selftest"])
    def test_unknown_subcommand_usage(self, capsys, command):
        assert dispatch([command]) == 1
        assert "invalid choice" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["missing", "directory", "undecodable"])
    def test_unreadable_config_exits_1(self, tmp_path, capsys, kind):
        path = tmp_path / "run.cfg"
        if kind == "directory":
            path.mkdir()
        elif kind == "undecodable":
            path.write_bytes(b"\xff\xfeY = 2\n")
        out = tmp_path / "out"
        assert dispatch(["--config", str(path), "--out", str(out), "solve"]) == 1
        assert f"{path}: cannot read config: " in capsys.readouterr().err
        assert not out.exists()

    def test_bad_config_exit_code(self, tmp_path):
        path = write_cfg(tmp_path, "lambda = 7\n")
        assert dispatch(["--config", path, "--out", str(tmp_path), "solve"]) == 1

    @pytest.mark.parametrize("line", ["k = nan", "l_C = nan"])
    def test_non_finite_config_exits_1_before_compiling(self, tmp_path, capsys, line):
        path = write_cfg(tmp_path, TOY + line + "\n")
        out = tmp_path / "out"
        assert dispatch(["--config", path, "--out", str(out), "solve"]) == 1
        err = capsys.readouterr().err
        assert f"{path}:" in err and repr(line.split()[0]) in err
        assert not out.exists()

    @pytest.mark.parametrize("key", ["p_S1_list", "sweep_values"])
    def test_empty_list_key_exits_1(self, tmp_path, capsys, key):
        path = write_cfg(tmp_path, f"Y = 2\n{key} =\n")
        assert dispatch(["--config", path, "--out", str(tmp_path / "o"), "solve"]) == 1
        assert f"{path}:2: bad value for '{key}': " in capsys.readouterr().err

    def test_negative_seed_key_exits_1(self, tmp_path, capsys):
        path = write_cfg(tmp_path, TOY + "seed = -1\n")
        out = tmp_path / "out"
        assert dispatch(["--config", path, "--out", str(out), "solve"]) == 1
        assert "seed must be >= 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["-3", "7"])
    def test_robust_budget_out_of_range_exits_1(self, tmp_path, capsys, value):
        path = write_cfg(tmp_path, TOY + f"robust_budget = {value}\n")
        out = tmp_path / "out"
        assert dispatch(["--config", path, "--out", str(out), "solve"]) == 1
        err = capsys.readouterr().err
        assert f"{path}: robust_budget must be in [0, 2], got {float(value)}" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["solve", "simulate", "compare"])
    def test_negative_seed_override_exits_1(self, tmp_path, capsys, command):
        path = write_cfg(tmp_path, TOY)
        out = tmp_path / "out"
        assert dispatch(["--config", path, "--out", str(out), "--seed", "-1",
                         command]) == 1
        assert "seed must be >= 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("below", ["", "sub"])
    def test_out_naming_a_file_exits_1(self, tmp_path, capsys, below):
        path = write_cfg(tmp_path, TOY)
        target = tmp_path / "plain.txt"
        target.write_text("keep\n")
        out = os.path.join(str(target), below) if below else str(target)
        assert dispatch(["--config", path, "--out", out, "solve"]) == 1
        assert f"{target} is not a directory" in capsys.readouterr().err
        assert target.read_text() == "keep\n"

    def test_solve_and_artifacts(self, tmp_path):
        path = write_cfg(tmp_path, TOY)
        out = str(tmp_path / "out")
        assert dispatch(["--config", path, "--out", out, "solve"]) == 0
        assert os.path.exists(os.path.join(out, "values.csv"))
        assert os.path.exists(os.path.join(out, "resolved.cfg"))
        assert os.path.exists(os.path.join(out, "manifest.txt"))

    def test_solve_dp_variant(self, tmp_path):
        path = write_cfg(tmp_path, TOY)
        out = str(tmp_path / "out")
        assert dispatch(["--config", path, "--out", out, "solve", "--dp"]) == 0

    def test_solve_dp_compiles_on_the_configured_threads(self, tmp_path, monkeypatch):
        # solve --dp compiles every state up front with --threads workers, as
        # compile does; the pool's rows are the serial ones bit for bit, so
        # values.csv is byte-identical.
        path = write_cfg(tmp_path, TOY)
        seen = []
        compile_all = EpidemicModel.compile_all

        def recording_compile_all(model, workers=1):
            seen.append(workers)
            compile_all(model, workers)

        monkeypatch.setattr(EpidemicModel, "compile_all", recording_compile_all)
        values = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads-{threads}"
            assert dispatch(["--config", path, "--out", str(out), "--threads", threads,
                             "solve", "--dp"]) == 0
            values.append((out / "values.csv").read_bytes())
        assert seen == [1, 1, 2, 1]       # the CLI's call, then backward_dp's
        assert values[0] == values[1]

    def test_compile_then_solve_reuses_cache(self, tmp_path):
        path = write_cfg(tmp_path, TOY)
        out = str(tmp_path / "out")
        assert dispatch(["--config", path, "--out", out, "compile"]) == 0
        kernel_files = [f for f in os.listdir(out) if f.startswith("kernels_")]
        assert kernel_files
        assert dispatch(["--config", path, "--out", out, "solve"]) == 0

    def test_truncated_cache_exits_1(self, tmp_path, capsys):
        path = write_cfg(tmp_path, TOY)
        out = tmp_path / "out"
        assert dispatch(["--config", path, "--out", str(out), "compile"]) == 0
        kernels = next(out.glob("kernels_*.npy"))
        data = kernels.read_bytes()
        kernels.write_bytes(data[: len(data) // 2])
        capsys.readouterr()
        assert dispatch(["--config", path, "--out", str(out), "solve"]) == 1
        assert str(kernels) in capsys.readouterr().err

    def test_stale_csv_cache_is_ignored(self, tmp_path, monkeypatch):
        # Caches were once CSV files; one left in --out is neither read nor
        # touched, and the run compiles what it needs.
        path = write_cfg(tmp_path, TOY)
        out = tmp_path / "out"
        out.mkdir()
        cfg = parse_config_text(TOY)
        key = EpidemicModel(cfg.params, cfg.Y, cfg.ambiguity).key()
        stale, text = out / f"kernels_{key}.csv", "state,y_V,y_R,successor,prob\n0,0,0,0,1.0\n"
        stale.write_text(text)
        loaded, compiled = [], []
        load_cache, compile_state = EpidemicModel.load_cache, EpidemicModel.compile_state

        def recording_load_cache(model, outdir):
            hit = load_cache(model, outdir)
            loaded.append(hit)
            return hit

        def recording_compile_state(model, idx):
            compiled.append(idx)
            compile_state(model, idx)

        monkeypatch.setattr(EpidemicModel, "load_cache", recording_load_cache)
        monkeypatch.setattr(EpidemicModel, "compile_state", recording_compile_state)
        assert dispatch(["--config", path, "--out", str(out), "solve"]) == 0
        assert loaded == [False] and compiled
        assert stale.read_text() == text

    def test_simulate(self, tmp_path):
        path = write_cfg(tmp_path, TOY)
        out = str(tmp_path / "sim")
        assert dispatch(["--config", path, "--out", out, "simulate"]) == 0
        body = open(os.path.join(out, "episodes.csv")).read()
        assert body.splitlines()[0] == ("backend,kernel,p_S1,seed,stage,y_V,y_R,"
                                        "reward,pct_infective,pct_recovered,"
                                        "total_reward")

    def test_compare_smoke(self, tmp_path):
        path = write_cfg(tmp_path, TOY)
        out = str(tmp_path / "cmp")
        assert dispatch(["--config", path, "--out", out, "compare"]) == 0
        assert os.path.exists(os.path.join(out, "comparison_summary.csv"))

    def test_compare_loads_the_kernel_cache(self, tmp_path, monkeypatch):
        path = write_cfg(tmp_path, TOY)
        out = str(tmp_path / "out")
        assert dispatch(["--config", path, "--out", out, "compile"]) == 0
        loaded = []
        load_cache = EpidemicModel.load_cache

        def recording_load_cache(model, outdir):
            hit = load_cache(model, outdir)
            loaded.append((outdir, hit))
            return hit

        monkeypatch.setattr(EpidemicModel, "load_cache", recording_load_cache)
        assert dispatch(["--config", path, "--out", out, "compare"]) == 0
        assert loaded == [(out, True)]

    def test_bad_sweep_value_exits_1_before_compiling(self, tmp_path, capsys,
                                                       monkeypatch):
        path = write_cfg(tmp_path, TOY + "sweep_param = alpha0\nsweep_values = 0.5, 1.5\n")
        out = tmp_path / "out"
        compiled = []
        monkeypatch.setattr(EpidemicModel, "compile_state",
                            lambda model, idx: compiled.append(idx))
        assert dispatch(["--config", path, "--out", str(out), "sensitivity"]) == 1
        err = capsys.readouterr().err
        assert f"{path}: " in err and "sweep_values" in err
        assert "alpha0 must be in [0, 1]" in err
        assert not compiled and not out.exists()

    def test_sensitivity_smoke(self, tmp_path):
        path = write_cfg(tmp_path, TOY + "sweep_param = W\nsweep_values = 1, 4\n")
        out = str(tmp_path / "sens")
        assert dispatch(["--config", path, "--out", out, "sensitivity"]) == 0
        assert os.path.exists(os.path.join(out, "sensitivity.csv"))

    @pytest.mark.parametrize("command, backends", [
        ("compare", ["drmdp-enumerate", "nominal", "robust"]),
        ("sensitivity", ["nominal", "nominal"]),
    ])
    def test_sweeps_plan_with_the_run_planner_keys(self, tmp_path, monkeypatch,
                                                   command, backends):
        planner = ("backend = nominal\nrobust_budget = 0.25\nearly_stop = false\n"
                   "inner_method = lp\nseed = 3\nsweep_param = W\n"
                   "sweep_values = 1, 4\n")
        path = write_cfg(tmp_path, TOY + planner)
        seen = []
        rtdp = sim.rtdp

        def recording_rtdp(model, init, cfg):
            seen.append(cfg)
            return rtdp(model, init, cfg)

        monkeypatch.setattr(sim, "rtdp", recording_rtdp)
        assert dispatch(["--config", path, "--out", str(tmp_path / "o"), command]) == 0
        assert seen == [PlannerConfig(backend=b, niter=5, seed=3, inner_method="lp",
                                      early_stop=False, robust_budget=0.25)
                        for b in backends]

    def test_cli_overrides(self, tmp_path, capsys):
        path = write_cfg(tmp_path, TOY)
        out = str(tmp_path / "ovr")
        assert dispatch(["--config", path, "--out", out, "--backend", "nominal",
                         "--seed", "3", "--Y", "4", "--threads", "2", "solve"]) == 0
        # The file's keys and the four overrides (Y over the file's), every
        # other key at its default, in the order and form of DEFAULT_RESOLVED.
        expected = DEFAULT_RESOLVED
        for line in ["N = 10", "Y = 4", "T = 3", "L = 1", "M = 1", "Q = 0.5",
                     "k_R = 0.5", "W = 2.0", "niter = 5", "nseeds = 2",
                     "p_S1_list = 0.5", "p_E1 = 0.5", "backend = nominal",
                     "seed = 3", "threads = 2"]:
            key = line.split(" = ")[0]
            expected, n = re.subn(rf"^{key} = .*$", line, expected, flags=re.M)
            assert n == 1
        assert open(os.path.join(out, "resolved.cfg")).read() == expected
        capsys.readouterr()
        bad = str(tmp_path / "bad")
        assert dispatch(["--config", path, "--out", bad, "--backend", "magic",
                         "solve"]) == 1
        err = capsys.readouterr().err
        assert "<cli>:" in err and "'magic'" in err
        assert not os.path.exists(bad)

    def test_determinism_end_to_end(self, tmp_path):
        path = write_cfg(tmp_path, TOY)
        out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
        assert dispatch(["--config", path, "--out", out_a, "simulate"]) == 0
        assert dispatch(["--config", path, "--out", out_b, "simulate"]) == 0
        a = open(os.path.join(out_a, "episodes.csv"), "rb").read()
        b = open(os.path.join(out_b, "episodes.csv"), "rb").read()
        assert a == b


def test_readme_backend_table_lists_every_backend():
    text = open(README).read()
    table = re.search(r"## Planner backends\n+((?:\|.*\n)+)", text).group(1)
    documented = re.findall(r"^\| `([^`]+)` \|", table, re.M)
    assert documented == list(BACKENDS)


def test_readme_command_line_lists_every_subcommand():
    text = open(README).read()
    block = re.search(r"## Command line\n.*?```\n(.*?)```", text, re.S).group(1)
    documented = [line.split("#")[0].split()[-1]
                  for line in block.splitlines() if line.startswith("epiplan ")]
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    assert documented == list(sub.choices)
