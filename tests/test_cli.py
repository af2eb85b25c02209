import os

import pytest

from epiplan import ConfigError
from epiplan.cli import dispatch, emit_results
from epiplan.config import RunConfig, config_hash, parse_config_text, resolved_text


class TestParseConfig:
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
        assert cfg.N == 300
        assert cfg.lam == 0.9

    def test_range_error_names_key(self):
        with pytest.raises(ConfigError) as err:
            parse_config_text("lambda = 1.5")
        assert "lambda" in str(err.value)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError) as err:
            parse_config_text("gamma = 2\n")
        assert "gamma" in str(err.value)
        assert ":1:" in str(err.value)

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
        assert cfg.early_stop is False
        assert cfg.sweep_values == (1.0, 2.0, 3.0)

    def test_bad_backend(self):
        with pytest.raises(ConfigError):
            parse_config_text("backend = magic\n")

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
    def test_unknown_subcommand_usage(self, capsys):
        assert dispatch(["frobnicate"]) == 1

    def test_bad_config_exit_code(self, tmp_path):
        path = write_cfg(tmp_path, "lambda = 7\n")
        assert dispatch(["--config", path, "--out", str(tmp_path), "solve"]) == 1

    def test_selftest_passes(self, tmp_path):
        assert dispatch(["--out", str(tmp_path), "selftest"]) == 0

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
        kernels = next(out.glob("kernels_*.csv"))
        lines = kernels.read_text().splitlines(keepends=True)
        kernels.write_text("".join(lines[: len(lines) // 2]))
        capsys.readouterr()
        assert dispatch(["--config", path, "--out", str(out), "solve"]) == 1
        assert str(kernels) in capsys.readouterr().err

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

    def test_sensitivity_smoke(self, tmp_path):
        path = write_cfg(tmp_path, TOY + "sweep_param = W\nsweep_values = 1, 4\n")
        out = str(tmp_path / "sens")
        assert dispatch(["--config", path, "--out", out, "sensitivity"]) == 0
        assert os.path.exists(os.path.join(out, "sensitivity.csv"))

    def test_bench_smoke(self, tmp_path):
        path = write_cfg(tmp_path, TOY)
        out = str(tmp_path / "bench")
        assert dispatch(["--config", path, "--out", out, "bench"]) == 0
        assert os.path.exists(os.path.join(out, "bench.csv"))

    def test_cli_overrides(self, tmp_path):
        path = write_cfg(tmp_path, TOY)
        out = str(tmp_path / "ovr")
        assert dispatch(["--config", path, "--out", out, "--backend", "nominal",
                         "--seed", "3", "solve"]) == 0
        resolved = open(os.path.join(out, "resolved.cfg")).read()
        assert "backend = nominal" in resolved
        assert "seed = 3" in resolved

    def test_determinism_end_to_end(self, tmp_path):
        path = write_cfg(tmp_path, TOY)
        out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
        assert dispatch(["--config", path, "--out", out_a, "simulate"]) == 0
        assert dispatch(["--config", path, "--out", out_b, "simulate"]) == 0
        a = open(os.path.join(out_a, "episodes.csv"), "rb").read()
        b = open(os.path.join(out_b, "episodes.csv"), "rb").read()
        assert a == b
