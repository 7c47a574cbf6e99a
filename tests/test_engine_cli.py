import dataclasses
import gc
import json
import re
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from stepwise.cli import main
from stepwise.config import ConfigError, EngineConfig, build_config, load_config_file
from stepwise.engine import prove_theorem, write_report
from stepwise.prover import MAX_ATOM_LIMIT, ToyProver, load_theory
from stepwise.protocol import ProverServer

README = Path(__file__).resolve().parents[1] / "README.md"

THEORY = """theory clidemo
axiom f1: p
axiom f2: p -> q
theorem t1: q
  proof
    apply [f2]
    apply [f1]
  qed
theorem t2: p -> p
  proof
    intro
    assumption
  qed
end
"""


@pytest.fixture
def theory_file(tmp_path):
    path = tmp_path / "demo.thy"
    path.write_text(THEORY)
    return path


@pytest.fixture
def prover_endpoint():
    """host:port of a reference server running in a thread."""
    tcp = ProverServer(trace=False).tcp_server(port=0)
    threading.Thread(target=tcp.serve_forever, daemon=True).start()
    yield f"127.0.0.1:{tcp.server_address[1]}"
    tcp.shutdown()
    tcp.server_close()


# -- configuration precedence -----------------------------------------------------

def test_defaults_match_module_declarations():
    config = EngineConfig()
    assert config.alpha == 1.0
    assert config.top_k == 5
    assert config.candidates_per_state == 128
    assert config.temperature == 1.0
    assert config.top_p == 0.95
    assert config.max_tokens == 2048
    assert config.time_limit_s == 7200.0  # 120 minutes
    assert config.premise_pool_size == 128
    assert config.top_matches == 3
    assert config.max_edit_distance == 3
    assert config.revision_budget == 256
    assert config.hammer_states == 16
    assert config.hammer_premise_limit == 2048
    assert config.hammer_timeout_s == 60.0
    assert config.mesh_weight == 0.5
    assert config.revision_enabled and config.filtering_enabled
    assert config.atom_limit == 16


def test_config_file_overrides_defaults(tmp_path):
    path = tmp_path / "engine.cfg"
    path.write_text("alpha = 0.5\ntop_k = 2\nrevision_enabled = false\n# comment\n")
    values = load_config_file(path)
    config = build_config(values, {})
    assert config.alpha == 0.5 and config.top_k == 2
    assert config.revision_enabled is False


def test_flags_override_config_file(tmp_path):
    path = tmp_path / "engine.cfg"
    path.write_text("alpha = 0.5\nseed = 9\n")
    config = build_config(load_config_file(path), {"alpha": 2.0, "seed": None})
    assert config.alpha == 2.0  # flag wins
    assert config.seed == 9     # unset flag leaves the file value


def test_config_atom_limit_outside_range_rejected():
    with pytest.raises(ConfigError, match="atom_limit"):
        build_config({"atom_limit": MAX_ATOM_LIMIT + 1}, {})
    assert build_config({}, {"atom_limit": MAX_ATOM_LIMIT}).atom_limit == MAX_ATOM_LIMIT


def test_cli_import_leaves_numpy_unloaded():
    # numpy is a test-only dependency; the package must not pull it in
    code = "import sys, stepwise.cli; sys.exit('numpy' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code]).returncode == 0


def test_cli_import_defers_http_and_thread_pool_modules():
    # the HTTP generator imports these only when it runs; nothing uses a pool
    code = ("import sys, stepwise.cli; "
            "sys.exit(any(m in sys.modules for m in "
            "('urllib.request', 'http.client', 'concurrent.futures')))")
    assert subprocess.run([sys.executable, "-c", code]).returncode == 0


def test_unknown_config_key_rejected(tmp_path):
    path = tmp_path / "engine.cfg"
    path.write_text("not_a_field = 1\n")
    with pytest.raises(ConfigError):
        load_config_file(path)


def test_tactic_set_parses_csv(tmp_path):
    path = tmp_path / "engine.cfg"
    path.write_text("tactic_set = apply, intro , assumption\n")
    config = build_config(load_config_file(path), {})
    assert config.tactic_set == ("apply", "intro", "assumption")


# one config-file line per field: the text and the value it must yield
FIELD_SAMPLES = {
    "seed": ("7", 7),
    "alpha": ("0.25", 0.25),
    "top_k": ("3", 3),
    "candidates_per_state": ("32", 32),
    "max_iterations": ("9", 9),
    "time_limit_s": ("12.5", 12.5),
    "node_budget": ("77", 77),
    "revision_enabled": ("false", False),
    "filtering_enabled": ("off", False),
    "atom_limit": ("12", 12),
    "step_timeout_ms": ("500", 500),
    "generator": ("http", "http"),
    "temperature": ("0.3", 0.3),
    "top_p": ("0.5", 0.5),
    "max_tokens": ("64", 64),
    "endpoint": ("http://localhost:8000/v1/completions", "http://localhost:8000/v1/completions"),
    "tactic_set": ("intro, simp", ("intro", "simp")),
    "premise_pool_size": ("16", 16),
    "top_matches": ("2", 2),
    "max_edit_distance": ("1", 1),
    "revision_budget": ("10", 10),
    "repair_rounds": ("2", 2),
    "fallback_enabled": ("no", False),
    "hammer_states": ("4", 4),
    "hammer_premise_limit": ("100", 100),
    "hammer_timeout_s": ("1.5", 1.5),
    "mesh_weight": ("0.75", 0.75),
    "hammer_depth": ("2", 2),
    "backend": ("remote", "remote"),
    "backend_endpoint": ("localhost:9171", "localhost:9171"),
}


def test_field_samples_cover_every_config_field():
    assert list(FIELD_SAMPLES) == [f.name for f in dataclasses.fields(EngineConfig)]


@pytest.mark.parametrize("name", list(FIELD_SAMPLES))
def test_config_file_sets_each_field(tmp_path, name):
    text, expected = FIELD_SAMPLES[name]
    path = tmp_path / "engine.cfg"
    path.write_text(f"{name} = {text}\n")
    config = build_config(load_config_file(path), {})
    assert getattr(config, name) == expected
    assert getattr(config, name) != getattr(EngineConfig(), name)


def test_config_file_none_unsets_an_optional_string(tmp_path):
    path = tmp_path / "engine.cfg"
    path.write_text("backend_endpoint = localhost:1\nbackend_endpoint = none\n")
    assert build_config(load_config_file(path), {}).backend_endpoint is None


def test_config_file_jobs_key_is_unknown(tmp_path):
    path = tmp_path / "engine.cfg"
    path.write_text("jobs = 2\n")
    with pytest.raises(ConfigError, match="unknown config key 'jobs'"):
        load_config_file(path)


INVALID_VALUES = [
    ("top_k", 0), ("alpha", -0.5), ("top_p", 0.0),
    ("top_p", 1.5), ("top_matches", 0), ("hammer_states", 0),
    ("mesh_weight", -0.1), ("mesh_weight", 1.5), ("atom_limit", -1),
    ("atom_limit", MAX_ATOM_LIMIT + 1),
    # a zero budget is not "no budget": the prover reads 0 as its 10 s default
    ("step_timeout_ms", 0), ("step_timeout_ms", -1),
    # each of these would let the search or the hammer skip its work silently
    ("repair_rounds", -1), ("candidates_per_state", 0), ("hammer_timeout_s", -1),
    ("hammer_timeout_s", 0), ("hammer_timeout_s", 0.0005), ("hammer_depth", -1),
    ("hammer_premise_limit", -1),
]


def test_least_valid_search_and_hammer_budgets_are_accepted():
    config = EngineConfig(repair_rounds=0, candidates_per_state=1, hammer_timeout_s=0.001,
                          hammer_depth=0, hammer_premise_limit=0)
    assert (config.repair_rounds, config.candidates_per_state) == (0, 1)
    assert (config.hammer_depth, config.hammer_premise_limit) == (0, 0)


@pytest.mark.parametrize("name,value", INVALID_VALUES)
def test_invalid_config_value_is_rejected_before_any_theorem(
        name, value, theory_file, tmp_path, capsys):
    with pytest.raises(ConfigError, match=name):
        EngineConfig(**{name: value})
    with pytest.raises(ConfigError, match=name):
        build_config({}, {name: value})
    path = tmp_path / "engine.cfg"
    path.write_text(f"{name} = {value}\n")
    out = tmp_path / "reports"
    code = main(["prove", "--theory", str(theory_file), "--config", str(path),
                 "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.count("error:") == 1 and len(captured.err.splitlines()) == 1
    assert name in captured.err
    assert not out.exists()


@pytest.mark.parametrize("args,named", [
    (["--config", "seed = abc"], ("seed", "'abc'")),
    (["--config", "mesh_weight = half"], ("mesh_weight", "'half'")),
    (["--backend", "remote", "--endpoint", "localhost:abc"], ("'localhost:abc'",)),
    (["--backend", "remote", "--endpoint", "localhost:99999"], ("'localhost:99999'",)),
], ids=["int_field", "float_field", "port_not_a_number", "port_out_of_range"])
def test_unparsable_config_value_is_one_error_line(args, named, theory_file, tmp_path, capsys):
    if args[0] == "--config":
        path = tmp_path / "engine.cfg"
        path.write_text(args[1] + "\n")
        args = ["--config", str(path)]
    out = tmp_path / "reports"
    code = main(["prove", "--theory", str(theory_file), *args, "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error:") and len(captured.err.splitlines()) == 1
    assert all(text in captured.err for text in named)
    assert not out.exists()


def test_readme_config_keys_equal_engine_config_fields():
    text = README.read_text()
    section = text.split("### Configuration file", 1)[1].split("\n## ", 1)[0]
    keys = re.findall(r"^- `(\w+)`", section, re.MULTILINE)
    assert len(keys) == len(set(keys))
    assert set(keys) == {f.name for f in dataclasses.fields(EngineConfig)}


def test_prove_theorem_pipeline_report_shape():
    theory = load_theory(THEORY)
    result = prove_theorem(theory, "t1", EngineConfig(seed=4), backend=ToyProver())
    assert result.proved
    report = result.report
    assert report["theory"] == "clidemo" and report["theorem"] == "t1"
    assert report["ground_truth_length"] == 2
    assert set(report["stats"]) >= {"iterations", "nodes_created", "generator_calls",
                                    "revisions_tried", "wall_time",
                                    "nodes_filtered_dup", "nodes_filtered_cex"}
    assert set(report["filtering"]) == {"duplicates_rejected",
                                        "counterexamples_rejected", "unknown_oracle"}


def test_prove_theorem_closes_the_backend_it_makes(prover_endpoint):
    config = EngineConfig(seed=4, backend="remote", backend_endpoint=prover_endpoint)
    assert prove_theorem(load_theory(THEORY), "t1", config).proved
    gc.collect()  # an unclosed client socket would warn here


def test_write_report_atomic(tmp_path):
    path = write_report({"theory": "t", "theorem": "x", "proved": True}, tmp_path)
    assert path.exists()
    assert not list(tmp_path.glob("*.tmp"))
    assert json.loads(path.read_text())["proved"] is True


# -- CLI ----------------------------------------------------------------------------

def test_cli_unknown_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as err:
        main(["prove", "--bogus-flag"])
    assert err.value.code == 2
    assert "usage" in capsys.readouterr().err.lower()


def test_cli_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as err:
        main(["dance"])
    assert err.value.code == 2


def test_cli_prove_single_theorem(theory_file, tmp_path, capsys):
    out = tmp_path / "reports"
    code = main(["prove", "--theory", str(theory_file), "--theorem", "t1",
                 "--seed", "7", "--out", str(out)])
    assert code == 0
    assert "PROVED" in capsys.readouterr().out
    report = json.loads((out / "clidemo.t1.json").read_text())
    assert report["proved"] is True and report["seed"] == 7


def test_cli_prove_all_theorems(theory_file, tmp_path):
    out = tmp_path / "reports"
    code = main(["prove", "--theory", str(theory_file), "--out", str(out)])
    assert code == 0
    assert {p.name for p in out.glob("*.json")} == {"clidemo.t1.json", "clidemo.t2.json"}


def test_cli_prove_remote_closes_its_one_connection(theory_file, tmp_path, capsys,
                                                    prover_endpoint):
    out = tmp_path / "reports"
    code = main(["prove", "--theory", str(theory_file), "--backend", "remote",
                 "--endpoint", prover_endpoint, "--out", str(out)])
    # an unclosed client socket warns when collected, which fails the test
    gc.collect()
    assert code == 0
    assert "PROVED" in capsys.readouterr().out
    assert {p.name for p in out.glob("*.json")} == {"clidemo.t1.json", "clidemo.t2.json"}


def test_cli_prove_missing_theory_file(tmp_path):
    assert main(["prove", "--theory", str(tmp_path / "nope.thy")]) == 1


def test_cli_prove_unknown_theorem_is_engine_error(theory_file, tmp_path, capsys):
    code = main(["prove", "--theory", str(theory_file), "--theorem", "zz",
                 "--out", str(tmp_path / "r")])
    assert code == 1
    assert "ERROR" in capsys.readouterr().err


def test_cli_extract(theory_file, tmp_path, capsys):
    out = tmp_path / "pairs.jsonl"
    code = main(["extract", "--theory", str(theory_file), "--out", str(out)])
    assert code == 0
    assert len(out.read_text().splitlines()) == 4  # proofs of length 2 + 2
    assert "wrote 4 pairs" in capsys.readouterr().out


def test_cli_eval_over_reports(theory_file, tmp_path, capsys):
    reports = tmp_path / "reports"
    main(["prove", "--theory", str(theory_file), "--out", str(reports)])
    capsys.readouterr()  # discard the prove output
    csv_dir = tmp_path / "csv"
    code = main(["eval", "--reports", str(reports), "--theory", str(theory_file),
                 "--csv-dir", str(csv_dir)])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["coverage"]["percent"] == 100.0
    assert (csv_dir / "success_by_split.csv").exists()
    assert payload["similarity"]


def test_cli_eval_completion(theory_file, capsys):
    code = main(["eval", "--completion", "--theory", str(theory_file),
                 "--fractions", "0.0,1.0", "--seed", "3"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    points = payload["completion"]["points"]
    assert points[-1] == {"sigma": 1.0, "rate": 1.0}
    assert "aes_literal" in payload["completion"]
    assert "aes_saved" in payload["completion"]


def test_cli_eval_nothing_requested_exits_2():
    assert main(["eval"]) == 2


def test_cli_bench_writes_artifacts(tmp_path, capsys, monkeypatch):
    import stepwise.bench as bench_mod

    small = {k: 2 for k in bench_mod.FAMILY_SIZES}
    monkeypatch.setattr(bench_mod, "FAMILY_SIZES", small)
    out = tmp_path / "bench"
    code = main(["bench", "--seed", "5", "--out", str(out)])
    assert code == 0
    assert (out / "table.txt").exists() and (out / "table.csv").exists()
    assert list((out / "corpus").glob("*.thy"))
    assert list((out / "reports").glob("*.json"))
    stdout = capsys.readouterr().out
    assert "TOTAL full" in stdout
