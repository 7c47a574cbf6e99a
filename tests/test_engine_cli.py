import ast
import dataclasses
import gc
import json
import math
import re
import socket
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from stepwise.cli import build_parser, main
from stepwise.config import ConfigError, EngineConfig, build_config, load_config_file
from stepwise.engine import prove_theorem, write_report
from stepwise.prover import MAX_ATOM_LIMIT, ToyProver, load_theory, render_theory
from stepwise.protocol import PROTOCOL_VERSION, tcp_server

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
    tcp = tcp_server()
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
    assert config.repair_rounds == 1 and config.filtering_enabled
    assert config.atom_limit == 16


def test_config_file_overrides_defaults(tmp_path):
    path = tmp_path / "engine.cfg"
    path.write_text("alpha = 0.5\ntop_k = 2\nrepair_rounds = 0\n# comment\n")
    values = load_config_file(path)
    config = build_config(values, {})
    assert config.alpha == 0.5 and config.top_k == 2
    assert config.repair_rounds == 0


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


def _unused_imports(source: str) -> list[str]:
    """The names a module imports and never reads: not in its code, not in
    a quoted annotation and not in ``__all__``."""
    tree = ast.parse(source)
    imported, used = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= set(ast.literal_eval(node.value))
        annotations = [getattr(node, "annotation", None), getattr(node, "returns", None)]
        for quoted in [a for a in annotations if isinstance(a, ast.AST)]:
            for part in ast.walk(quoted):
                if isinstance(part, ast.Constant) and isinstance(part.value, str):
                    used |= {n.id for n in ast.walk(ast.parse(part.value, mode="eval"))
                             if isinstance(n, ast.Name)}
    return sorted(imported - used)


def test_no_module_imports_a_name_it_never_uses():
    assert _unused_imports("import os, subprocess\nos.getcwd()\n") == ["subprocess"]
    assert _unused_imports("from x import A, B\ndef f() -> 'A | None': pass\n") == ["B"]
    package = Path(__file__).resolve().parents[1] / "src" / "stepwise"
    unused = {path.name: _unused_imports(path.read_text()) for path in package.glob("*.py")}
    assert {name: names for name, names in unused.items() if names} == {}


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
    "filtering_enabled": ("off", False),
    "atom_limit": ("12", 12),
    "step_timeout_ms": ("500", 500),
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
    "hammer_states": ("4", 4),
    "hammer_premise_limit": ("100", 100),
    "hammer_timeout_s": ("1.5", 1.5),
    "mesh_weight": ("0.75", 0.75),
    "hammer_depth": ("2", 2),
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
    ("top_p", 1.5), ("top_matches", 0), ("hammer_states", -1),
    ("mesh_weight", -0.1), ("mesh_weight", 1.5), ("atom_limit", -1),
    ("atom_limit", MAX_ATOM_LIMIT + 1),
    # a zero budget is not "no budget": the prover reads 0 as its 10 s default
    ("step_timeout_ms", 0), ("step_timeout_ms", -1),
    # each of these would let the search or the hammer skip its work silently
    ("repair_rounds", -1), ("candidates_per_state", 0), ("hammer_timeout_s", -1),
    ("hammer_timeout_s", 0), ("hammer_timeout_s", 0.0005), ("hammer_depth", -1),
    ("hammer_premise_limit", -1), ("revision_budget", -1),
    ("max_edit_distance", -1), ("premise_pool_size", -5),
    ("max_iterations", -1), ("time_limit_s", -1.0), ("node_budget", -3),
    # NaN passes every comparison: no search, "cannot convert float NaN",
    # a failed log_prob or NaN scores; an infinite budget is not whole ms
    ("time_limit_s", math.nan), ("time_limit_s", -math.inf), ("hammer_timeout_s", math.nan),
    ("hammer_timeout_s", math.inf), ("temperature", math.nan), ("temperature", math.inf),
    ("alpha", math.nan), ("alpha", math.inf), ("top_p", math.nan), ("mesh_weight", math.nan),
    # tactic repair would build steps no prover parses, such as ``t00 [f]``
    ("tactic_set", ("intro", "t00")),
    # completion APIs accept a temperature in [0, 2]; 2000 overflowed the
    # mock's perturbation, and a budget below one token asks for nothing
    ("temperature", -0.5), ("temperature", 2000.0), ("max_tokens", 0),
]


def test_least_valid_search_and_hammer_budgets_are_accepted():
    config = EngineConfig(repair_rounds=0, candidates_per_state=1, hammer_timeout_s=0.001,
                          hammer_depth=0, hammer_premise_limit=0, revision_budget=0,
                          max_edit_distance=0, premise_pool_size=0,
                          max_iterations=0, time_limit_s=0.0, node_budget=0,
                          temperature=0.0, max_tokens=1, hammer_states=0)
    assert (config.repair_rounds, config.candidates_per_state, config.revision_budget) \
        == (0, 1, 0)
    assert (config.hammer_depth, config.hammer_premise_limit) == (0, 0)
    assert (config.max_edit_distance, config.premise_pool_size) == (0, 0)
    assert (config.max_iterations, config.time_limit_s, config.node_budget) == (0, 0.0, 0)
    assert (config.temperature, config.max_tokens) == (0.0, 1)
    assert config.hammer_states == 0  # the fallback's off switch
    assert EngineConfig(temperature=2.0).temperature == 2.0


def test_negative_max_iterations_flag_is_one_error_line(theory_file, tmp_path, capsys):
    out = tmp_path / "reports"
    code = main(["prove", "--theory", str(theory_file), "--max-iterations", "-1",
                 "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error:") and len(captured.err.splitlines()) == 1
    assert "max_iterations" in captured.err
    assert not out.exists()


def test_infinite_time_limit_means_no_limit(theory_file, tmp_path, capsys):
    assert EngineConfig(time_limit_s=math.inf).time_limit_s == math.inf
    out = tmp_path / "reports"
    code = main(["prove", "--theory", str(theory_file), "--theorem", "t1",
                 "--time-limit", "inf", "--out", str(out)])
    assert code == 0
    assert "PROVED" in capsys.readouterr().out
    report = json.loads((out / "clidemo.t1.json").read_text())
    assert report["proved"] is True and report["via"] == "search"
    assert report["stats"]["iterations"] >= 1


def test_each_engine_flag_sets_the_config_field_its_dest_names():
    prove = build_parser()._subparsers._group_actions[0].choices["prove"]
    engine = next(g for g in prove._action_groups if g.title == "engine")
    dests = {a.dest for a in engine._group_actions} - {"config"}
    assert len(dests) == 12
    assert dests <= {f.name for f in dataclasses.fields(EngineConfig)}


def test_renamed_flags_override_the_config_file(tmp_path):
    from stepwise.cli import _engine_config

    path = tmp_path / "engine.cfg"
    path.write_text("candidates_per_state = 9\ntime_limit_s = 9\nhammer_states = 9\n")
    args = build_parser().parse_args([
        "prove", "--theory", "t.thy", "--config", str(path), "--candidates", "7",
        "--time-limit", "3", "--hammer-timeout", "2", "--endpoint", "h:1"])
    config = _engine_config(args)
    assert (config.candidates_per_state, config.time_limit_s) == (7, 3.0)
    assert (config.hammer_timeout_s, config.backend_endpoint) == (2.0, "h:1")
    assert config.hammer_states == 9 and config.endpoint is None


def test_hammer_states_zero_flag_switches_the_fallback_off(theory_file, tmp_path, capsys):
    from stepwise.cli import _engine_config

    args = build_parser().parse_args(["prove", "--theory", "t.thy", "--hammer-states", "0"])
    assert _engine_config(args).hammer_states == 0
    out = tmp_path / "reports"
    code = main(["prove", "--theory", str(theory_file), "--theorem", "t1",
                 "--max-iterations", "0", "--hammer-states", "0", "--out", str(out)])
    assert code == 0 and "FAILED" in capsys.readouterr().out
    report = json.loads((out / "clidemo.t1.json").read_text())
    assert report["via"] is None and "fallback_attempts" not in report


def test_prove_closes_a_theorem_that_is_already_true(tmp_path, capsys):
    path = tmp_path / "top.thy"
    path.write_text("theory T\ntheorem t: true\nend\n")
    code = main(["prove", "--theory", str(path), "--out", str(tmp_path / "reports")])
    assert code == 0
    assert capsys.readouterr().out.startswith("T.t: PROVED")


@pytest.mark.parametrize("name,value", INVALID_VALUES)
def test_invalid_config_value_is_rejected_before_any_theorem(
        name, value, theory_file, tmp_path, capsys):
    with pytest.raises(ConfigError, match=name):
        EngineConfig(**{name: value})
    with pytest.raises(ConfigError, match=name):
        build_config({}, {name: value})
    path = tmp_path / "engine.cfg"
    text = ", ".join(value) if isinstance(value, tuple) else value
    path.write_text(f"{name} = {text}\n")
    out = tmp_path / "reports"
    code = main(["prove", "--theory", str(theory_file), "--config", str(path),
                 "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.count("error:") == 1 and len(captured.err.splitlines()) == 1
    assert name in captured.err
    assert not out.exists()


def test_an_unknown_tactic_in_tactic_set_is_named_in_one_error_line(
        theory_file, tmp_path, capsys):
    path = tmp_path / "engine.cfg"
    path.write_text("tactic_set = intro, t00, t01\n")
    code = main(["prove", "--theory", str(theory_file), "--config", str(path),
                 "--out", str(tmp_path / "reports")])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == "error: tactic_set names unknown tactic 't00'\n"


@pytest.mark.parametrize("line", ["backend = remote", "generator = http"])
def test_a_backend_or_generator_key_is_an_unknown_config_key(line, theory_file, tmp_path,
                                                             capsys):
    """An endpoint picks the backend and the generator; no key restates it."""
    path = tmp_path / "engine.cfg"
    path.write_text(line + "\n")
    code = main(["prove", "--theory", str(theory_file), "--config", str(path),
                 "--out", str(tmp_path / "reports")])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == f"error: unknown config key {line.split()[0]!r}\n"


@pytest.mark.parametrize("flag", [["--backend", "remote"], ["--generator", "http"]])
def test_backend_and_generator_flags_are_usage_errors(flag, theory_file, capsys):
    with pytest.raises(SystemExit) as err:
        main(["prove", "--theory", str(theory_file), *flag])
    assert err.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_an_endpoint_nothing_listens_on_is_one_error_line(theory_file, tmp_path, capsys):
    """``--endpoint`` alone selects the remote prover, so a closed port is
    an error before any theorem, not an in-process run."""
    with socket.socket() as closed:  # bound and not listening: connections are refused
        closed.bind(("127.0.0.1", 0))
        out = tmp_path / "reports"
        code = main(["prove", "--theory", str(theory_file),
                     "--endpoint", f"localhost:{closed.getsockname()[1]}", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("error:") and len(captured.err.splitlines()) == 1
    assert not out.exists()


def test_make_backend_asks_the_server_its_version(prover_endpoint):
    backend = EngineConfig(backend_endpoint=prover_endpoint).make_backend()
    try:
        assert list(backend.stats()["commands"]) == ["init"]
    finally:
        backend.close()


INIT_12 = {"id": 1, "ok": True,
           "payload": {"protocol": 12, "server": "stepwise-toy-prover", "commands": []}}


@pytest.mark.parametrize("reply, named", [
    (json.dumps(INIT_12).encode() + b"\n", "protocol 12,"),
    (b"!!not json!!\n", "protocol none (malformed response line"),
    (b'{"id": 1, "ok": false, "error": {"category": "prover_error", "detail": "no"}}\n',
     "protocol none (prover_error: no)"),
], ids=["version_12", "not_json", "error_reply"])
def test_a_server_of_another_protocol_version_is_one_error_line(
        theory_file, tmp_path, capsys, reply, named):
    """A version-12 server would free only each theorem's root, and keep its
    children until the connection ends; the CLI stops before any theorem,
    naming both versions, and closes the connection. So it does when the
    server fails the handshake."""
    from test_protocol import _GarbageServer

    server = _GarbageServer(reply)
    out = tmp_path / "reports"
    try:
        code = main(["prove", "--theory", str(theory_file),
                     "--endpoint", f"127.0.0.1:{server.port}", "--out", str(out)])
    finally:
        server.close()
    gc.collect()  # an unclosed client socket would warn here
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("error:") and len(captured.err.splitlines()) == 1
    assert named in captured.err and f"this client protocol {PROTOCOL_VERSION}" in captured.err
    assert not out.exists()


def test_a_revision_enabled_key_is_an_unknown_config_key(theory_file, tmp_path, capsys):
    path = tmp_path / "engine.cfg"
    path.write_text("revision_enabled = false\n")
    code = main(["prove", "--theory", str(theory_file), "--config", str(path),
                 "--out", str(tmp_path / "reports")])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == "error: unknown config key 'revision_enabled'\n"


def test_no_revision_flag_equals_zero_repair_rounds_on_the_bench_corpus(tmp_path, capsys):
    """``--no-revision`` stores 0 into ``repair_rounds``: on every seed-0
    bench theory, under the bench's budgets, the flag and a config file
    with ``repair_rounds = 0`` write the same report, wall time left out."""
    from stepwise.bench import bench_engine_config, generate_corpus
    from stepwise.prover import render_theory

    bench, default = bench_engine_config(0), EngineConfig()
    budgets = "".join(f"{f.name} = {getattr(bench, f.name)}\n"
                      for f in dataclasses.fields(EngineConfig)
                      if getattr(bench, f.name) != getattr(default, f.name))
    (tmp_path / "flag.cfg").write_text(budgets)
    (tmp_path / "file.cfg").write_text(budgets + "repair_rounds = 0\n")
    arms = {"flag": ["--no-revision"], "file": []}
    corpus = generate_corpus(0)
    for theory in corpus:
        path = tmp_path / f"{theory.name}.thy"
        path.write_text(render_theory(theory))
        for arm, extra in arms.items():
            assert main(["prove", "--theory", str(path), "--out", str(tmp_path / arm),
                         "--config", str(tmp_path / f"{arm}.cfg"), *extra]) == 0
    capsys.readouterr()

    def timeless(path):
        report = json.loads(path.read_text())
        del report["stats"]["wall_time"]
        return report

    flag_reports = sorted((tmp_path / "flag").glob("*.json"))
    assert len(flag_reports) == len(corpus)
    for path in flag_reports:
        assert timeless(path) == timeless(tmp_path / "file" / path.name), path.name
    assert any(timeless(path)["proved"] for path in flag_reports)
    assert all(timeless(path)["stats"]["revisions_tried"] == 0 for path in flag_reports)


@pytest.mark.parametrize("args,named", [
    (["--config", "seed = abc"], ("seed", "'abc'")),
    (["--config", "mesh_weight = half"], ("mesh_weight", "'half'")),
    (["--endpoint", "localhost:abc"], ("'localhost:abc'",)),
    (["--endpoint", "localhost:99999"], ("'localhost:99999'",)),
    (["--endpoint", "localhost"], ("'localhost'", "host:port")),
], ids=["int_field", "float_field", "port_not_a_number", "port_out_of_range", "no_port"])
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


@pytest.mark.parametrize("port", ["99999", "-1"])
def test_serve_port_out_of_range_is_one_error_line(port, capsys):
    code = main(["serve", "--port", port])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error:") and len(captured.err.splitlines()) == 1
    assert port in captured.err


def test_readme_config_keys_equal_engine_config_fields():
    text = README.read_text()
    section = text.split("### Configuration file", 1)[1].split("\n## ", 1)[0]
    keys = re.findall(r"^- `(\w+)`", section, re.MULTILINE)
    assert len(keys) == len(set(keys))
    assert set(keys) == {f.name for f in dataclasses.fields(EngineConfig)}


def test_readme_config_defaults_and_least_values_match_the_code():
    """Each ``(default)`` reads back through the config file's parser as the
    field's default, and a field states "must be >= N" exactly when N is its
    least value in the code."""
    from stepwise.config import _MINIMUMS, _coerce

    section = README.read_text().split("### Configuration file", 1)[1].split("\n## ", 1)[0]
    items = re.findall(r"^- `(\w+)` \(([^)]*)\) - (.*?)(?=^- |^$|\Z)", section,
                       re.MULTILINE | re.DOTALL)
    assert {name for name, _, _ in items} == {f.name for f in dataclasses.fields(EngineConfig)}
    for name, default, text in items:
        value = _coerce(name, "" if default == "empty" else default)
        assert value == getattr(EngineConfig(), name), name
        stated = re.findall(r"must\s+be\s+>=\s+(\d+(?:\.\d+)?)", text)
        assert stated == ([str(_MINIMUMS[name])] if name in _MINIMUMS else []), name


def test_prove_theorem_pipeline_report_shape():
    theory = load_theory(THEORY)
    result = prove_theorem(theory, "t1", EngineConfig(seed=4), backend=ToyProver())
    assert result.proved
    report = result.report
    assert report["theory"] == "clidemo" and report["theorem"] == "t1"
    assert report["ground_truth_length"] == 2
    assert set(report["stats"]) == {"iterations", "nodes_created", "generator_calls",
                                    "revisions_tried", "wall_time"}
    assert set(report["filtering"]) == {"duplicates_rejected",
                                        "counterexamples_rejected", "unknown_oracle"}


def test_prove_theorem_closes_the_backend_it_makes(prover_endpoint):
    config = EngineConfig(seed=4, backend_endpoint=prover_endpoint)
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
    code = main(["prove", "--theory", str(theory_file), "--endpoint", prover_endpoint,
                 "--out", str(out)])
    # an unclosed client socket warns when collected, which fails the test
    gc.collect()
    assert code == 0
    assert "PROVED" in capsys.readouterr().out
    assert {p.name for p in out.glob("*.json")} == {"clidemo.t1.json", "clidemo.t2.json"}


def test_cli_prove_writes_nothing_outside_out_for_a_path_like_theory_name(tmp_path, capsys):
    """Reports are named after the theory, so ``theory ../escaped`` must
    not put one beside ``--out``: the header is a parse error."""
    source = tmp_path / "in" / "escaped.thy"
    source.parent.mkdir()
    source.write_text(THEORY.replace("theory clidemo", "theory ../escaped"))
    code = main(["prove", "--theory", str(source), "--out", str(tmp_path / "out" / "reports")])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("error:") and "invalid theory name" in captured.err
    assert [p for p in tmp_path.rglob("*") if p.is_file()] == [source]


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


def test_cli_eval_scores_only_the_given_theory(tmp_path, capsys):
    """Every bench theorem is named ``goal``: a report of another theory
    must not be scored against this theory's ground truth."""
    from stepwise.bench import bench_engine_config, generate_corpus

    config = bench_engine_config(0)
    by_name = {t.name: t for t in generate_corpus(0)}
    reports = tmp_path / "reports"
    for name in ("case_000", "taut_027", "chain_s000"):
        result = prove_theorem(by_name[name], "goal", config)
        assert result.proved, name
        write_report(result.report, reports)
    theory_file = tmp_path / "case_000.thy"
    theory_file.write_text(render_theory(by_name["case_000"]))
    code = main(["eval", "--reports", str(reports), "--theory", str(theory_file)])
    assert code == 0
    sims = json.loads(capsys.readouterr().out)["similarity"]
    assert [s["theorem"] for s in sims] == ["case_000.goal"]


def _setting(field, value):
    return lambda text: json.dumps({**json.loads(text), field: value})


# bool("false") is True, a bool is an int, a table cannot sort an int
# group among strings, a record is named "theory.theorem" and a negative
# length skews coverage, so each field's type (and the length's sign) is checked
WRONG_TYPES = [("proved", "false"), ("proved", 1), ("proved", None),
               ("ground_truth_length", True), ("ground_truth_length", "2"),
               ("ground_truth_length", 2.0), ("ground_truth_length", -1),
               ("steps", "apply [f2]"), ("steps", [1, 2]),
               ("split", 5), ("session", ["a"]),
               ("theory", None), ("theory", 7), ("theorem", ["x"]), ("theorem", None)]


@pytest.mark.parametrize("mangle", [
    lambda text: text[:len(text) // 2],
    lambda text: json.dumps({k: v for k, v in json.loads(text).items() if k != "theory"}),
    *(_setting(field, value) for field, value in WRONG_TYPES),
], ids=["truncated", "no_theory", *(f"{field}={value!r}" for field, value in WRONG_TYPES)])
def test_cli_eval_malformed_report_is_one_error_line_naming_the_file(
        mangle, theory_file, tmp_path, capsys):
    reports = tmp_path / "reports"
    main(["prove", "--theory", str(theory_file), "--out", str(reports)])
    capsys.readouterr()
    bad = sorted(reports.glob("*.json"))[0]
    bad.write_text(mangle(bad.read_text()))
    code = main(["eval", "--reports", str(reports)])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("error:") and len(captured.err.splitlines()) == 1
    assert str(bad) in captured.err


def test_cli_eval_reports_path_that_is_not_a_directory_is_one_error_line(tmp_path, capsys):
    missing = tmp_path / "no" / "such" / "dir"
    (tmp_path / "file.json").write_text("{}")
    for path in (missing, tmp_path / "file.json"):
        code = main(["eval", "--reports", str(path)])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == f"error: --reports {str(path)!r} is not a directory\n"


def test_cli_eval_empty_reports_directory_gives_empty_tables(tmp_path, capsys):
    assert main(["eval", "--reports", str(tmp_path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {"coverage": {"lines": 0, "percent": 0.0}, "success_by_length": [],
                       "success_by_session": [], "success_by_split": []}


def test_cli_eval_completion(theory_file, capsys):
    code = main(["eval", "--completion", "--theory", str(theory_file),
                 "--fractions", "0.0,1.0", "--seed", "3"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    points = payload["completion"]["points"]
    assert points[-1] == {"sigma": 1.0, "rate": 1.0}
    assert "aes_literal" in payload["completion"]
    assert "aes_saved" in payload["completion"]


@pytest.mark.parametrize("fractions,message", [
    ("abc", "could not convert"), ("0.5,0.25", "strictly ascending"),
    ("0.0,1.5", "lie in [0, 1]"), (",", "at least one")],
    ids=["not_a_number", "descending", "out_of_range", "empty"])
def test_cli_eval_bad_fractions_are_one_error_line_before_any_proof(
        fractions, message, theory_file, capsys, monkeypatch):
    import stepwise.cli as cli

    def no_proof(*args, **kwargs):
        raise AssertionError("a proof ran before --fractions was checked")

    monkeypatch.setattr(cli, "prove_theorem", no_proof)
    code = main(["eval", "--completion", "--theory", str(theory_file),
                 "--fractions", fractions])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("error:") and len(captured.err.splitlines()) == 1
    assert "--fractions" in captured.err and message in captured.err


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
