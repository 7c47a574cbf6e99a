"""Engine assembly: one flat configuration feeding every module, with
defaults < config file < command-line flags precedence, plus the per-theorem
prove pipeline (search, then hammer fallback)."""

from __future__ import annotations

import dataclasses
import json
import os
from dataclasses import dataclass
from pathlib import Path

from .core import Theory
from .generator import GeneratorConfig, HttpGenerator, MockGenerator
from .hammer import HammerFallbackConfig, hammer_fallback
from .prover import MAX_ATOM_LIMIT, ToyProver
from .protocol import RemoteProver
from .revision import RevisionConfig, tactic_frequencies
from .search import SearchConfig, SearchOutcome, best_first_search, frontier_summary


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class EngineConfig:
    # search
    seed: int = 0
    alpha: float = 1.0
    top_k: int = 5
    candidates_per_state: int = 128
    max_iterations: int = 100
    time_limit_s: float = 7200.0
    node_budget: int = 10_000
    revision_enabled: bool = True
    filtering_enabled: bool = True
    atom_limit: int = 16
    step_timeout_ms: int = 10_000
    # generator
    generator: str = "mock"  # mock | http
    n_candidates: int = 128
    temperature: float = 1.0
    top_p: float = 0.95
    max_tokens: int = 2048
    endpoint: str | None = None
    # revision
    tactic_set: tuple[str, ...] = ()  # empty: derive from the theory's proofs
    premise_pool_size: int = 128
    top_matches: int = 3
    max_edit_distance: int = 3
    revision_budget: int = 256
    repair_rounds: int = 1
    # hammer fallback
    fallback_enabled: bool = True
    hammer_states: int = 16
    hammer_premise_limit: int = 2048
    hammer_timeout_s: float = 60.0
    mesh_weight: float = 0.5
    hammer_depth: int = 4
    # wiring
    backend: str = "in_process"  # in_process | remote
    backend_endpoint: str | None = None
    jobs: int = 1

    # -- derived module configs ------------------------------------------------

    def search_config(self) -> SearchConfig:
        return SearchConfig(
            alpha=self.alpha, top_k=self.top_k,
            candidates_per_state=self.candidates_per_state,
            max_iterations=self.max_iterations, time_limit_s=self.time_limit_s,
            node_budget=self.node_budget, revision_enabled=self.revision_enabled,
            filtering_enabled=self.filtering_enabled,
            atom_limit=self.atom_limit, step_timeout_ms=self.step_timeout_ms)

    def generator_config(self) -> GeneratorConfig:
        return GeneratorConfig(
            n_candidates=self.n_candidates, temperature=self.temperature,
            top_p=self.top_p, max_tokens=self.max_tokens, seed=self.seed,
            endpoint=self.endpoint)

    def revision_config(self, theory: Theory | None = None) -> RevisionConfig:
        tactic_set = self.tactic_set
        if not tactic_set:
            tactic_set = tactic_frequencies(theory) if theory is not None else None
        return RevisionConfig(
            tactic_set=tactic_set or RevisionConfig.tactic_set,
            premise_pool_size=self.premise_pool_size, top_matches=self.top_matches,
            max_edit_distance=self.max_edit_distance, budget=self.revision_budget,
            repair_rounds=self.repair_rounds)

    def fallback_config(self) -> HammerFallbackConfig:
        return HammerFallbackConfig(
            m_states=self.hammer_states, premise_limit=self.hammer_premise_limit,
            per_state_timeout_s=self.hammer_timeout_s, mesh_weight=self.mesh_weight,
            max_depth=self.hammer_depth)

    def make_backend(self):
        if self.backend == "in_process":
            return ToyProver()
        if self.backend == "remote":
            endpoint = self.backend_endpoint
            if not endpoint or ":" not in endpoint:
                raise ConfigError("remote backend needs --endpoint host:port")
            host, port = endpoint.rsplit(":", 1)
            return RemoteProver.connect_tcp(host, int(port))
        raise ConfigError(f"unknown backend {self.backend!r}")

    def make_generator(self):
        config = self.generator_config()
        if self.generator == "mock":
            return MockGenerator(config)
        if self.generator == "http":
            return HttpGenerator(config)
        raise ConfigError(f"unknown generator {self.generator!r}")


_FIELDS = {f.name: f for f in dataclasses.fields(EngineConfig)}


def _coerce(name: str, value: str):
    field = _FIELDS.get(name)
    if field is None:
        raise ConfigError(f"unknown config key {name!r}")
    text = value.strip()
    if field.type in ("int", int):
        return int(text)
    if field.type in ("float", float):
        return float(text)
    if field.type in ("bool", bool):
        if text.lower() in ("true", "1", "yes", "on"):
            return True
        if text.lower() in ("false", "0", "no", "off"):
            return False
        raise ConfigError(f"{name} expects a boolean, got {text!r}")
    if field.type == "tuple[str, ...]":
        return tuple(t.strip() for t in text.split(",") if t.strip())
    if text.lower() in ("none", ""):
        return None
    return text


def load_config_file(path) -> dict:
    """Flat ``key = value`` document mirroring EngineConfig field names;
    blank lines and # comments ignored."""
    values: dict = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key = value")
        key, value = line.split("=", 1)
        values[key.strip()] = _coerce(key.strip(), value)
    return values


def build_config(file_values: dict | None = None, flag_values: dict | None = None) -> EngineConfig:
    """Precedence: defaults, then the config file, then explicit flags."""
    merged: dict = {}
    for source in (file_values or {}), (flag_values or {}):
        for key, value in source.items():
            if value is None:
                continue
            if key not in _FIELDS:
                raise ConfigError(f"unknown config key {key!r}")
            merged[key] = value
    config = EngineConfig(**merged)
    if not 0 <= config.atom_limit <= MAX_ATOM_LIMIT:
        raise ConfigError(f"atom_limit must be in 0..{MAX_ATOM_LIMIT}, got {config.atom_limit}")
    return config


# ---------------------------------------------------------------------------
# Per-theorem pipeline
# ---------------------------------------------------------------------------

@dataclass
class ProveResult:
    theory: str
    theorem: str
    proved: bool
    via: str | None  # search | fallback | None
    steps: tuple | None
    outcome: SearchOutcome
    report: dict


def prove_theorem(theory: Theory, theorem_id: str, config: EngineConfig,
                  backend=None, generator=None,
                  prefix_steps: tuple = ()) -> ProveResult:
    """Search, then the hammer fallback if the search failed; every backend
    session and snapshot the two opened is released before returning.
    ``prefix_steps`` are replayed first (``ReplayError`` if one fails)."""
    backend = backend if backend is not None else config.make_backend()
    generator = generator if generator is not None else config.make_generator()
    outcome = best_first_search(
        theory, theorem_id, backend, generator,
        config.search_config(), config.revision_config(theory),
        prefix_steps=tuple(prefix_steps))
    via: str | None = "search" if outcome.proved else None
    steps = outcome.steps if outcome.proved else None
    fallback_attempts: list | None = None
    if outcome.failed and config.fallback_enabled:
        fallback_attempts = []
        fallback_steps = hammer_fallback(outcome, backend, config.fallback_config(),
                                         attempts=fallback_attempts)
        if fallback_steps is not None:
            via = "fallback"
            steps = tuple(fallback_steps)
    backend.release(outcome.opened)
    proved = steps is not None
    entry = theory.entry(theorem_id)
    report = {
        "theory": theory.name,
        "theorem": theorem_id,
        "proved": proved,
        "via": via,
        "steps": [s.text() for s in steps] if steps is not None else None,
        "ground_truth_length": len(entry.proof) if entry and entry.proof else 0,
        "seed": config.seed,
        "stats": dict(outcome.stats.__dict__),
        "filtering": dict(outcome.filter_stats.__dict__),
    }
    if not outcome.proved:
        report["frontier"] = frontier_summary(outcome)
    if fallback_attempts is not None:
        report["fallback_attempts"] = fallback_attempts
    return ProveResult(theory.name, theorem_id, proved, via, steps, outcome, report)


def write_report(report: dict, directory, filename: str | None = None) -> Path:
    """Atomic per-theorem report write (temp file plus rename)."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    name = filename or f"{report['theory']}.{report['theorem']}.json"
    target = directory / name
    tmp = directory / (name + ".tmp")
    tmp.write_text(json.dumps(report, indent=2, sort_keys=True, ensure_ascii=False) + "\n")
    os.replace(tmp, target)
    return target
