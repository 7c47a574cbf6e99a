import json
import subprocess
import sys

import pytest

from stepwise.cli import main
from stepwise.engine import (
    ConfigError,
    EngineConfig,
    build_config,
    load_config_file,
    prove_theorem,
    write_report,
)
from stepwise.prover import MAX_ATOM_LIMIT, ToyProver, load_theory

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


# -- configuration precedence -----------------------------------------------------

def test_defaults_match_module_declarations():
    config = EngineConfig()
    assert config.alpha == 1.0
    assert config.top_k == 5
    assert config.candidates_per_state == 128
    assert config.n_candidates == 128
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
    # the HTTP generator and --jobs import these only when they run
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


def test_cli_prove_jobs_parallel(theory_file, tmp_path):
    out = tmp_path / "reports"
    code = main(["prove", "--theory", str(theory_file), "--jobs", "2",
                 "--out", str(out)])
    assert code == 0
    assert len(list(out.glob("*.json"))) == 2


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
