"""Config file loading and flag/env/file precedence.

Settings resolve as CLI flag > environment variable > config file > default.
The config file is a JSON object with the keys endpoint, api_key, model,
memory_length, aggregator (kind string or {kind, params}) and budget; a file
with any other key is refused. Aggregator parameters go only in the nested
form, for example {"aggregator": {"kind": "truncate", "params": {"budget": 16}}};
a file that still holds the removed flat keys separator or truncate_budget is
told so.
"""

from __future__ import annotations

import json
import os
from typing import Optional

from .aggregation import Aggregator, aggregator_from_spec
from .errors import ConfigurationError, InvalidParameterError

_FILE_KEYS = ("endpoint", "api_key", "model", "memory_length", "aggregator", "budget")
# Removed flat keys: each one's aggregator kind and parameter name.
_REMOVED_KEYS = {"separator": ("concat", "separator"), "truncate_budget": ("truncate", "budget")}


def load_config_file(path: Optional[str]) -> dict:
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as handle:
            config = json.load(handle)
    except OSError as exc:
        raise ConfigurationError(f"cannot read config file {path}: {exc}") from exc
    except ValueError as exc:
        raise ConfigurationError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(config, dict):
        raise ConfigurationError(f"config file {path} must hold a JSON object")
    for key, (kind, param) in _REMOVED_KEYS.items():
        if key in config:
            nested = json.dumps({"aggregator": {"kind": kind, "params": {param: config[key]}}})
            raise ConfigurationError(f"config file {path}: the key {key!r} is no longer read; "
                                     f"write {nested} instead")
    for key in config:
        if key not in _FILE_KEYS:
            raise ConfigurationError(f"config file {path}: unknown key {key!r}; "
                                     f"the keys read are {', '.join(_FILE_KEYS)}")
    return config


def setting(cli_value, env_key: Optional[str], file_config: dict, file_key: str,
            default=None, env=os.environ):
    if cli_value is not None:
        return cli_value
    if env_key is not None and env_key in env:
        return env[env_key]
    if file_key in file_config:
        return file_config[file_key]
    return default


def int_setting(cli_value, file_config: dict, file_key: str, default: int) -> int:
    """A whole-number setting; a config file value must be a JSON integer, not a bool."""
    value = setting(cli_value, None, file_config, file_key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigurationError(f"config key {file_key!r} must be an integer, got {json.dumps(value)}")
    return value


def aggregator_from_config(kind: Optional[str], file_config: dict, client=None) -> Aggregator:
    """Aggregator from the resolved kind plus kind-specific file settings."""
    spec = setting(kind, None, file_config, "aggregator", "concat")
    if isinstance(spec, dict):
        resolved_kind = spec.get("kind")
        params = spec.get("params") or {}
    else:
        resolved_kind = spec
        params = {}
    try:
        return aggregator_from_spec(resolved_kind, params, client=client)
    except InvalidParameterError as exc:
        raise ConfigurationError(str(exc)) from exc
