"""The engine's one configuration: every module reads ``EngineConfig``, which
is checked once when it is built. Sources merge as defaults < config file <
command-line flags."""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from pathlib import Path

from .prover import MAX_ATOM_LIMIT, ToyProver
from .protocol import RemoteProver


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

    def __post_init__(self):
        if self.top_k < 1:
            raise ConfigError("top_k must be >= 1")
        if self.candidates_per_state < 1:
            raise ConfigError(f"candidates_per_state must be >= 1, got {self.candidates_per_state}")
        if self.repair_rounds < 0:
            raise ConfigError(f"repair_rounds must be >= 0, got {self.repair_rounds}")
        if self.alpha < 0:
            raise ConfigError("alpha must be >= 0")
        if not 0 < self.top_p <= 1:
            raise ConfigError("top_p must be in (0, 1]")
        if self.top_matches < 1:
            raise ConfigError("top_matches must be >= 1")
        if self.hammer_states < 1:
            raise ConfigError("hammer_states must be >= 1")
        # the server's bounds: a negative premise limit would cut the pool's last facts
        if self.hammer_depth < 0:
            raise ConfigError(f"hammer_depth must be >= 0, got {self.hammer_depth}")
        if self.hammer_premise_limit < 0:
            raise ConfigError(
                f"hammer_premise_limit must be >= 0, got {self.hammer_premise_limit}")
        if self.hammer_timeout_s < 0.001:  # the hammer's budget is whole ms
            raise ConfigError(f"hammer_timeout_s must be >= 0.001, got {self.hammer_timeout_s}")
        if not 0 <= self.mesh_weight <= 1:
            raise ConfigError("mesh_weight must be in [0, 1]")
        if self.step_timeout_ms < 1:
            raise ConfigError(f"step_timeout_ms must be >= 1, got {self.step_timeout_ms}")
        if not 0 <= self.atom_limit <= MAX_ATOM_LIMIT:
            raise ConfigError(f"atom_limit must be in 0..{MAX_ATOM_LIMIT}, got {self.atom_limit}")

    def make_backend(self):
        if self.backend == "in_process":
            return ToyProver()
        if self.backend == "remote":
            endpoint = self.backend_endpoint
            if not endpoint or ":" not in endpoint:
                raise ConfigError("remote backend needs --endpoint host:port")
            host, port = endpoint.rsplit(":", 1)
            if not (port.isdecimal() and int(port) <= 65535):
                raise ConfigError(f"endpoint {endpoint!r} needs a port in 0..65535, got {port!r}")
            return RemoteProver.connect_tcp(host, int(port))
        raise ConfigError(f"unknown backend {self.backend!r}")

    def make_generator(self):
        from .generator import HttpGenerator, MockGenerator  # it imports this module

        if self.generator == "mock":
            return MockGenerator(self)
        if self.generator == "http":
            return HttpGenerator(self)
        raise ConfigError(f"unknown generator {self.generator!r}")


_FIELDS = {f.name: f for f in dataclasses.fields(EngineConfig)}


def _coerce(name: str, value: str):
    field = _FIELDS.get(name)
    if field is None:
        raise ConfigError(f"unknown config key {name!r}")
    text = value.strip()
    for kind in (int, float):
        if field.type in (kind.__name__, kind):
            try:
                return kind(text)
            except ValueError:
                raise ConfigError(f"{name} expects {kind.__name__}, got {text!r}") from None
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
    return EngineConfig(**merged)
