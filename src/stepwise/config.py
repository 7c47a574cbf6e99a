"""The engine's one configuration: every module reads ``EngineConfig``, which
is checked once when it is built. Sources merge as defaults < config file <
command-line flags."""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from pathlib import Path

from .core import TACTICS
from .prover import (DEFAULT_ATOM_LIMIT, DEFAULT_STEP_BUDGET_MS, MAX_ATOM_LIMIT, ProverError,
                     ToyProver)
from .protocol import PROTOCOL_VERSION, RemoteProver


class ConfigError(ValueError):
    pass


class GeneratorError(Exception):
    """A failed generation. It lives beside the generator factory, so that the
    CLI catches it without importing the generator module."""


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
    filtering_enabled: bool = True
    atom_limit: int = DEFAULT_ATOM_LIMIT
    step_timeout_ms: int = DEFAULT_STEP_BUDGET_MS
    # generator: the HTTP one when an endpoint is set, else the mock
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
    # hammer fallback: hammer_states = 0 switches it off
    hammer_states: int = 16
    hammer_premise_limit: int = 2048
    hammer_timeout_s: float = 60.0
    mesh_weight: float = 0.5
    hammer_depth: int = 4
    # wiring: a remote prover at host:port when set, else an in-process one
    backend_endpoint: str | None = None

    def __post_init__(self):
        for name, spec in _FIELDS.items():  # NaN passes every comparison below
            value = getattr(self, name)
            if spec.type == "float" and not math.isfinite(value):
                if name != "time_limit_s" or value != math.inf:  # inf: no time limit
                    raise ConfigError(f"{name} must be finite, got {value}")
        for name, least in _MINIMUMS.items():
            if getattr(self, name) < least:
                raise ConfigError(f"{name} must be >= {least}, got {getattr(self, name)}")
        unknown = [t for t in self.tactic_set if t not in TACTICS]
        if unknown:  # tactic repair would build steps no prover can parse
            raise ConfigError(f"tactic_set names unknown tactic {unknown[0]!r}")
        if not 0 < self.top_p <= 1:
            raise ConfigError("top_p must be in (0, 1]")
        if not 0 <= self.temperature <= 2:  # the range completion APIs accept
            raise ConfigError(f"temperature must be in [0, 2], got {self.temperature}")
        if not 0 <= self.mesh_weight <= 1:
            raise ConfigError("mesh_weight must be in [0, 1]")
        if not 0 <= self.atom_limit <= MAX_ATOM_LIMIT:
            raise ConfigError(f"atom_limit must be in 0..{MAX_ATOM_LIMIT}, got {self.atom_limit}")

    def make_backend(self):
        endpoint = self.backend_endpoint
        if endpoint is None:
            return ToyProver()
        host, sep, port = endpoint.rpartition(":")
        if not (sep and port.isdecimal() and int(port) <= 65535):
            raise ConfigError(f"endpoint {endpoint!r} needs host:port with a port in 0..65535")
        remote = RemoteProver.connect_tcp(host, int(port))
        try:  # a server before protocol 13 would keep each theorem's children
            version = remote.init().get("protocol")
        except ProverError as e:  # any failed handshake is this one error
            version = f"none ({e})"
        if version != PROTOCOL_VERSION:
            remote.close()
            raise ConfigError(f"the server at {endpoint} speaks protocol {version}, "
                              f"this client protocol {PROTOCOL_VERSION}")
        return remote

    def make_generator(self):
        from .generator import HttpGenerator, MockGenerator  # it imports this module

        return (MockGenerator if self.endpoint is None else HttpGenerator)(self)


_FIELDS = {f.name: f for f in dataclasses.fields(EngineConfig)}

# each field's least value: below it a budget, pool or bound would turn its
# part of the engine off silently, or cut a ranked list short; the hammer's
# budget is whole ms, and a zero step budget reads as the prover's default
_MINIMUMS = {
    "alpha": 0, "top_k": 1, "max_iterations": 0, "time_limit_s": 0, "node_budget": 0,
    "step_timeout_ms": 1, "candidates_per_state": 1, "max_tokens": 1,
    "premise_pool_size": 0, "top_matches": 1, "max_edit_distance": 0, "revision_budget": 0,
    "repair_rounds": 0, "hammer_states": 0, "hammer_premise_limit": 0,
    "hammer_timeout_s": 0.001, "hammer_depth": 0,
}


def _coerce(name: str, value: str):
    field = _FIELDS.get(name)
    if field is None:
        raise ConfigError(f"unknown config key {name!r}")
    text = value.strip()
    for kind in (int, float):
        if field.type == kind.__name__:  # every annotation is a string here
            try:
                return kind(text)
            except ValueError:
                raise ConfigError(f"{name} expects {kind.__name__}, got {text!r}") from None
    if field.type == "bool":
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
