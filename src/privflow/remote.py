"""The remote reasoning backend: a chat-completion client with
schema-validated responses, bounded retries, and auditable prompt
templates.

``reasoner.make_reasoner`` imports this module only when the remote
backend is chosen, so a scan with the scripted oracle never loads it.
Each task is sent as its fields in JSON (``reasoner.task_fields``: a
record as an object of its fields, in order) inside the prompt file named
after the task (``ClassifyPrivileged`` -> ``classify_privileged.md``).
"""

from __future__ import annotations

import json
import os
import threading
import time
from pathlib import Path

from .model import Record
from .reasoner import (
    AUTHZ_SUBTYPES,
    TASKS,
    Action,
    AssessSufficiency,
    BackendUnavailable,
    CheckClass,
    ClassifyCheck,
    ClassifyPrivileged,
    ConfirmUserSource,
    NextSearchAction,
    PrivilegedClass,
    SchemaViolation,
    Sufficiency,
    UserSource,
    _check_vocabulary,
    split_identifier,
    task_fields,
)

PROMPTS_DIR = Path(__file__).parent / "prompts"
TEMPERATURE = 0.2
API_KEY_ENV = "PRIVFLOW_API_KEY"
ATTEMPTS = 3
TIMEOUT_S = 60.0
#: seconds slept before the second ask; the wait grows linearly per ask
RETRY_BACKOFF_S = 0.5


class RemoteConfig(Record):
    """Where the chat-completion backend is and which model answers."""

    __slots__ = ("endpoint", "model")


class RemoteReasoner:
    """Chat-completion backend. Responses must match a per-task JSON schema;
    a malformed reply is asked again, up to ``ATTEMPTS`` asks, then raised
    as SchemaViolation. Requests are serialized per scan."""

    name = "remote"

    def __init__(self, config: RemoteConfig, transport=None):
        self.config = config
        self._transport = transport or _requests_transport
        self._lock = threading.Lock()
        self._system = _load_prompt("system.md")

    def reason(self, task):
        task_name = type(task).__name__
        if type(task) not in TASKS:
            raise TypeError(f"unsupported task {task_name}")
        task_json = json.dumps({**task_fields(task), "task": task_name}, indent=2)
        prompt = _load_prompt("_".join(split_identifier(task_name)) + ".md").replace("{task_json}", task_json)
        last_error = "no attempts made"
        with self._lock:
            for attempt in range(ATTEMPTS):
                if attempt:
                    time.sleep(RETRY_BACKOFF_S * attempt)
                reply = self._complete(prompt)
                try:
                    return _parse_verdict(task, reply)
                except (ValueError, KeyError, TypeError) as exc:
                    last_error = str(exc)
        raise SchemaViolation(f"{task_name}: {last_error}")

    def _complete(self, prompt: str) -> str:
        api_key = os.environ.get(API_KEY_ENV, "")
        payload = {
            "model": self.config.model,
            "temperature": TEMPERATURE,
            "messages": [
                {"role": "system", "content": self._system},
                {"role": "user", "content": prompt},
            ],
        }
        headers = {"Content-Type": "application/json"}
        if api_key:
            headers["Authorization"] = f"Bearer {api_key}"
        status, body = self._transport(self.config.endpoint, headers, payload, TIMEOUT_S)
        if status != 200:
            raise BackendUnavailable(f"backend returned HTTP {status}")
        try:
            content = body["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError):
            raise BackendUnavailable("backend response is not a chat completion")
        if not isinstance(content, str):
            raise BackendUnavailable("backend chat completion carries no text content")
        return content


def from_environment() -> RemoteReasoner:
    """The remote backend configured by ``PRIVFLOW_ENDPOINT`` and
    ``PRIVFLOW_MODEL``; BackendUnavailable when either is unset."""
    endpoint = os.environ.get("PRIVFLOW_ENDPOINT", "")
    model = os.environ.get("PRIVFLOW_MODEL", "")
    if not endpoint or not model:
        raise BackendUnavailable("remote reasoner needs PRIVFLOW_ENDPOINT and PRIVFLOW_MODEL")
    return RemoteReasoner(RemoteConfig(endpoint=endpoint, model=model))


def _requests_transport(url: str, headers: dict, payload: dict, timeout: float):
    import requests

    try:
        resp = requests.post(url, headers=headers, json=payload, timeout=timeout)
    except requests.RequestException as exc:
        raise BackendUnavailable(str(exc))
    try:
        return resp.status_code, resp.json()
    except ValueError:
        return resp.status_code, {}


def _load_prompt(name: str) -> str:
    return (PROMPTS_DIR / name).read_text(encoding="utf-8")


def _extract_json(reply: str) -> dict:
    """The reply's JSON object, from its first ``{`` to its last ``}``: what
    parses from there is an object, or raises."""
    start = reply.find("{")
    end = reply.rfind("}")
    if start < 0 or end <= start:
        raise ValueError("reply contains no JSON object")
    return json.loads(reply[start : end + 1])


def _require_str(data: dict, key: str) -> str:
    value = data.get(key)
    if not isinstance(value, str) or not value:
        raise ValueError(f"field {key!r} must be a non-empty string")
    return value


def _parse_verdict(task, reply: str):
    data = _extract_json(reply)
    rationale = _require_str(data, "rationale")
    if isinstance(task, ClassifyPrivileged):
        category = _require_str(data, "category")
        return PrivilegedClass(None if category == "none" else category, rationale)
    if isinstance(task, ClassifyCheck):
        classification = _require_str(data, "classification")
        subtype = _require_str(data, "subtype")
        _check_vocabulary("subtype", subtype, AUTHZ_SUBTYPES)  # before a non-authz one is dropped
        return CheckClass(classification, subtype if classification == "authz" else "none", rationale)
    if isinstance(task, AssessSufficiency):
        return Sufficiency(_require_str(data, "verdict"), rationale)
    if isinstance(task, ConfirmUserSource):
        value = data.get("is_user_source")
        if not isinstance(value, bool):
            raise ValueError("field 'is_user_source' must be a boolean")
        return UserSource(value, rationale)
    if isinstance(task, NextSearchAction):
        queries = data.get("queries")
        if not isinstance(queries, list):
            raise ValueError("field 'queries' must be a list")
        plan = []
        for entry in queries:
            if not isinstance(entry, dict):
                raise ValueError("each entry of 'queries' must be an object")
            args = entry.get("args", {})
            if not isinstance(args, dict):
                raise ValueError("field 'args' must be an object")
            plan.append(Action(_require_str(entry, "tool"), args, rationale))
        return tuple(plan)
    raise TypeError(f"unsupported task {type(task).__name__}")
