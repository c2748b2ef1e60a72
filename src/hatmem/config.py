"""Config file loading and flag/env/file precedence.

Settings resolve as CLI flag > environment variable > config file > default.
The config file is a JSON object; each value is type-checked when the file is
read, and a file with any other key is refused. The keys read are:

* endpoint, api_key, model: strings;
* memory_length, budget: integers (true and false do not count);
* aggregator: a kind string, or an object whose only keys are kind and
  params.

Aggregator parameters go only in the nested form, for example
{"aggregator": {"kind": "truncate", "params": {"budget": 16}}}.
"""

from __future__ import annotations

import json
import os
from typing import Optional

from .aggregation import Aggregator, ConcatAggregator, aggregator_from_spec
from .errors import ConfigurationError, InvalidParameterError
from .llm import is_int

_STRING = ("a string", lambda v: isinstance(v, str))
_INTEGER = ("an integer", is_int)
_AGGREGATOR = ("a kind string or an object with only the keys kind and params",
               lambda v: isinstance(v, str) or isinstance(v, dict) and set(v) <= {"kind", "params"})
# Each key the file may hold: what its value must be, and the test for it.
_FILE_KEYS = {"endpoint": _STRING, "api_key": _STRING, "model": _STRING,
              "memory_length": _INTEGER, "aggregator": _AGGREGATOR, "budget": _INTEGER}


def load_config_file(path: Optional[str]) -> dict:
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as handle:
            config = json.load(handle)
    except OSError as exc:
        raise ConfigurationError(f"cannot read config file {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        raise ConfigurationError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(config, dict):
        raise ConfigurationError(f"config file {path} must hold a JSON object")
    for key, value in config.items():
        if key not in _FILE_KEYS:
            raise ConfigurationError(f"config file {path}: unknown key {key!r}; "
                                     f"the keys read are {', '.join(_FILE_KEYS)}")
        expected, accepts = _FILE_KEYS[key]
        if not accepts(value):
            raise ConfigurationError(f"config key {key!r} must be {expected}, got {json.dumps(value)}")
    return config


def setting(cli_value, env_key: Optional[str], file_config: dict, file_key: str, default=None):
    if cli_value is not None:
        return cli_value
    if env_key is not None and env_key in os.environ:
        return os.environ[env_key]
    if file_key in file_config:
        return file_config[file_key]
    return default


def aggregator_from_config(kind: Optional[str], file_config: dict, client=None) -> Aggregator:
    """Aggregator from the resolved kind plus kind-specific file settings."""
    spec = setting(kind, None, file_config, "aggregator", ConcatAggregator.kind)
    if isinstance(spec, str):
        spec = {"kind": spec}
    try:
        return aggregator_from_spec(spec.get("kind"), spec.get("params"), client=client)
    except InvalidParameterError as exc:
        raise ConfigurationError(str(exc)) from exc
