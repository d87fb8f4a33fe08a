"""Pluggable semantic-judgment backends.

Two backends answer the same closed set of reasoning tasks:

* ``ScriptedOracle``: a deterministic, rules-driven stand-in used by the
  whole offline test suite. Identical (rules, task) input produces a
  byte-identical verdict.
* ``remote.RemoteReasoner``: a chat-completion client with
  schema-validated responses, bounded retries, and auditable prompt
  templates. ``make_reasoner`` imports ``privflow.remote`` only when it is
  chosen.

Tasks carry only serialized text and facts, never live object references:
they are hashable records (``model.Record``), equal only to a task of their
own type with equal fields, and equal tasks ask the same question. ``Memo`` relies on that: wrapped around one backend for one scan,
it asks each distinct task once and answers equal tasks with the stored
verdict, so a remote backend answers a repeated task the same way (at a
nonzero temperature, two asks could give two answers) and is paid once.
``Memo`` also answers the three tasks whose one sound answer the program
fixes, so no backend is asked them: a flow with no guard has the empty
constraint, a sink with no authorization check is ``unprotected`` or
``missing_authz``, and an endpoint path a gateway route prefix covers is a
user source. ``Memo`` is the one place a scan's trace records a task, and
the trace names it by ``task_digest``.
"""

from __future__ import annotations

import hashlib
import json
import re
from functools import cache, cached_property, singledispatchmethod
from pathlib import Path
from typing import NamedTuple

from . import constraints as _constraints
from .model import Record, is_wildcard_segment
from .search import identifiers

RULES_RESOURCE = Path(__file__).parent / "rules" / "oracle.rules.json"

# The verdict vocabularies; each verdict checks its fields against them.
PRIVILEGED_CATEGORIES = ("sensitive-resource", "security-critical-action", "protected-state")
CHECK_CLASSIFICATIONS = ("authn", "authz", "none")
AUTHZ_SUBTYPES = ("role", "permission", "ownership", "none")
SUFFICIENCY_VERDICTS = ("protected", "unprotected", "missing_authz", "insufficient_authz")


class RulesError(Exception):
    def __init__(self, rules_field: str, reason: str):
        self.field = rules_field
        self.reason = reason
        super().__init__(f"{rules_field}: {reason}")


class BackendUnavailable(Exception):
    pass


class SchemaViolation(Exception):
    pass


# --- tasks ---------------------------------------------------------------------


class ClassifyPrivileged(Record):
    """Is this function a privileged operation, and of which category?"""

    __slots__ = ("element", "name", "source", "context")
    _defaults = {"context": ()}


class ClassifyCheck(Record):
    """Is this decorator check or inline guard an authN or authZ check?
    ``attachment`` is ``decorator`` or ``inline``."""

    __slots__ = ("element", "name", "source", "attachment", "context")
    _defaults = {"attachment": "inline", "context": ()}


class CheckDescriptor(Record):
    """A located check as an ``AssessSufficiency`` task shows it."""

    __slots__ = ("classification", "subtype", "name", "source")


class AssessSufficiency(Record):
    """Do the located checks (``CheckDescriptor``s) suffice for this
    privileged operation?"""

    __slots__ = ("privop_name", "privop_source", "privop_category", "checks", "contexts")
    _defaults = {"contexts": ()}


class GuardDescriptor(Record):
    """A guard's source with its identifiers' declared types, as
    ``(name, type)`` pairs."""

    __slots__ = ("source", "var_types")
    _defaults = {"var_types": ()}


class ExtractConstraints(Record):
    """Translate a flow's guards (``GuardDescriptor``s) into a path
    constraint."""

    __slots__ = ("guards",)


class ConfirmUserSource(Record):
    """Is this entry-service source reachable through a gateway route?"""

    __slots__ = ("identifier", "route_prefixes")


class NextSearchAction(Record):
    """Which searches to run in this round of the privileged-operation
    loop: ``executed`` holds the query keys of the earlier rounds and
    ``added_ops`` the operations the previous round added, as
    ``service:callee``. The verdict is the round's plan, a tuple of
    ``Action``s run in order; an empty plan finishes the loop."""

    __slots__ = ("round", "services", "executed", "added_ops", "tools")


#: Every task a backend answers; the remote prompt for one is the file named
#: after it (``ClassifyPrivileged`` -> ``classify_privileged.md``).
TASKS = (ClassifyPrivileged, ClassifyCheck, AssessSufficiency, ExtractConstraints, ConfirmUserSource, NextSearchAction)


def task_fields(value):
    """A task as JSON-ready data: each record (the task, its descriptors) an
    object of its fields in order, each tuple a list."""
    if isinstance(value, Record):
        return {name: task_fields(getattr(value, name)) for name in value._fields}
    if isinstance(value, tuple):
        return [task_fields(item) for item in value]
    return value


def task_digest(task) -> str:
    """The sha256 of a task's canonical JSON: its fields and its kind as
    ``task``, keys sorted, no whitespace."""
    text = json.dumps({**task_fields(task), "task": type(task).__name__}, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# --- verdicts ------------------------------------------------------------------


def _check_vocabulary(field: str, value, allowed: tuple) -> None:
    if value not in allowed:
        raise ValueError(f"field {field!r} must be one of {allowed}, got {value!r}")


class PrivilegedClass(Record):
    """Verdict of ``ClassifyPrivileged``: a category, or None."""

    __slots__ = ("category", "rationale")

    def __init__(self, category: str | None, rationale: str) -> None:
        _check_vocabulary("category", category, PRIVILEGED_CATEGORIES + (None,))
        self.category = category  # one of PRIVILEGED_CATEGORIES, or None
        self.rationale = rationale


class CheckClass(Record):
    """Verdict of ``ClassifyCheck``: the check's class and authZ subtype."""

    __slots__ = ("classification", "authz_subtype", "rationale")

    def __init__(self, classification: str, authz_subtype: str, rationale: str) -> None:
        _check_vocabulary("classification", classification, CHECK_CLASSIFICATIONS)
        _check_vocabulary("authz_subtype", authz_subtype, AUTHZ_SUBTYPES)
        if (classification == "authz") == (authz_subtype == "none"):
            raise ValueError("authz checks need a subtype; other checks carry none")
        self.classification = classification  # one of CHECK_CLASSIFICATIONS
        self.authz_subtype = authz_subtype  # one of AUTHZ_SUBTYPES; "none" exactly when not authz
        self.rationale = rationale


class Sufficiency(Record):
    """Verdict of ``AssessSufficiency``."""

    __slots__ = ("verdict", "rationale")

    def __init__(self, verdict: str, rationale: str) -> None:
        _check_vocabulary("verdict", verdict, SUFFICIENCY_VERDICTS)
        self.verdict = verdict  # one of SUFFICIENCY_VERDICTS
        self.rationale = rationale


class ConstraintExtraction(NamedTuple):
    """Verdict of ``ExtractConstraints``."""

    constraint: object | None  # constraints.PathConstraint; None when skipped
    rationale: str


class UserSource(NamedTuple):
    """Verdict of ``ConfirmUserSource``."""

    is_user_source: bool
    rationale: str


class Action(NamedTuple):
    """One query of a ``NextSearchAction`` plan: a tool and its arguments."""

    tool: str  # one of the task's tools; any other burns its step
    args: dict
    rationale: str


# --- rules ----------------------------------------------------------------------


#: The rules file's sections and their keys, each key an OracleRules field.
_RULES_SECTIONS = {
    "privileged": ("action_verbs", "protected_state_nouns", "resource_nouns", "critical_action_patterns"),
    "checks": ("authn_patterns", "authz_patterns", "role_keywords", "permission_keywords", "ownership_comparisons"),
    "sufficiency": ("ownership_nouns",),
}


class OracleRules(Record):
    """The scripted oracle's keyword and pattern lists, one field per key of
    ``_RULES_SECTIONS``, in order. Its patterns are compiled on first use
    and kept in the instance's ``__dict__``; ``load_rules`` compiles them
    when it loads the rules."""

    _fields = tuple(key for keys in _RULES_SECTIONS.values() for key in keys)

    @cached_property
    def critical_rx(self) -> tuple[re.Pattern, ...]:
        return tuple(re.compile(p, re.IGNORECASE) for p in self.critical_action_patterns)

    @cached_property
    def ownership_rx(self) -> tuple[re.Pattern, ...]:
        return tuple(re.compile(p) for p in self.ownership_comparisons)


def load_rules(file: str | Path | None = None) -> OracleRules:
    """Load and validate oracle rules. Without a file, the rules that ship
    with the package, loaded once per process: every caller shares that
    object, so it must not be changed."""
    if file is None:
        return _shipped_rules()
    path = Path(file)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise RulesError("file", f"{path} does not exist")
    except json.JSONDecodeError as exc:
        raise RulesError("file", f"invalid JSON: {exc}")
    if not isinstance(raw, dict):
        raise RulesError("file", "top level must be a JSON object")

    kwargs: dict[str, tuple[str, ...]] = {}
    for section, keys in _RULES_SECTIONS.items():
        entries = raw.get(section, {})
        if not isinstance(entries, dict):
            raise RulesError(section, "must be a JSON object")
        for key in keys:
            values = entries.get(key)
            rules_field = f"{section}.{key}"
            if not isinstance(values, list) or not values:
                raise RulesError(rules_field, "must be a non-empty list")
            if not all(isinstance(v, str) and v for v in values):
                raise RulesError(rules_field, "entries must be non-empty strings")
            kwargs[key] = tuple(values)
    rules = OracleRules(**kwargs)
    for rules_field, compiled in (
        ("privileged.critical_action_patterns", "critical_rx"),
        ("checks.ownership_comparisons", "ownership_rx"),
    ):
        try:
            getattr(rules, compiled)
        except re.error as exc:
            raise RulesError(rules_field, f"pattern {exc.pattern!r} does not compile: {exc}")
    return rules


@cache
def _shipped_rules() -> OracleRules:
    return load_rules(RULES_RESOURCE)


# --- scripted oracle --------------------------------------------------------------


_IDENT_RE = re.compile(r"[A-Za-z_]\w*")
#: A camelCase word break: before an uppercase letter that follows a
#: lowercase letter or a digit, or that ends an uppercase run and starts a
#: lowercase word (``HTTP|Order``).
_CAMEL_RE = re.compile(r"(?<=[a-z0-9])(?=[A-Z])|(?<=[A-Z])(?=[A-Z][a-z])")


def split_identifier(name: str) -> list[str]:
    """snake_case and camelCase identifier tokens, lowercased:
    ``cancelHTTPOrder`` is ``cancel``, ``http``, ``order``."""
    parts: list[str] = []
    for chunk in name.split("_"):
        if chunk:
            parts.extend(p.lower() for p in _CAMEL_RE.split(chunk) if p)
    return parts


class ScriptedOracle:
    """Deterministic keyword- and pattern-driven reasoner."""

    name = "scripted"

    def __init__(self, rules: OracleRules | None = None):
        self.rules = rules or load_rules()

    @singledispatchmethod
    def reason(self, task):
        raise TypeError(f"unsupported task {type(task).__name__}")

    # ClassifyPrivileged: a name pairing an action verb with a protected-state
    # or resource noun, or matching a critical-action pattern, is privileged.
    @reason.register
    def _classify_privileged(self, task: ClassifyPrivileged) -> PrivilegedClass:
        name = task.name or _first_identifier(task.source)
        tokens = set(split_identifier(name))
        for rx in self.rules.critical_rx:
            if rx.search(name):
                return PrivilegedClass(
                    "security-critical-action",
                    f"name '{name}' matches critical-action pattern '{rx.pattern}'",
                )
        verbs = tokens & set(self.rules.action_verbs)
        if verbs:
            protected = tokens & set(self.rules.protected_state_nouns)
            if protected:
                return PrivilegedClass(
                    "protected-state",
                    f"name '{name}' pairs action '{sorted(verbs)[0]}' with protected state '{sorted(protected)[0]}'",
                )
            resources = tokens & set(self.rules.resource_nouns)
            if resources:
                return PrivilegedClass(
                    "sensitive-resource",
                    f"name '{name}' pairs action '{sorted(verbs)[0]}' with resource '{sorted(resources)[0]}'",
                )
        return PrivilegedClass(None, f"name '{name}' matches no privileged-operation pattern")

    # Priority: ownership comparisons, then name-level signals (a check's
    # own name is the strongest cue), then body/context-level authorization
    # keywords; body-level authentication cues (session/token reads appear
    # in nearly every check) come last.
    @reason.register
    def _classify_check(self, task: ClassifyCheck) -> CheckClass:
        name = task.name
        source = task.source
        corpus = " ".join((name, source) + task.context).lower()

        for rx in self.rules.ownership_rx:
            if rx.search(source) or any(rx.search(c) for c in task.context):
                return CheckClass("authz", "ownership", f"matches ownership comparison '{rx.pattern}'")

        def hit(patterns: tuple[str, ...], haystack: str) -> str | None:
            for p in patterns:
                if p.lower() in haystack:
                    return p
            return None

        name_l = name.lower()
        ladder = (
            (self.rules.authz_patterns, name_l, "authz", None),
            (self.rules.authn_patterns, name_l, "authn", "none"),
            (self.rules.role_keywords, name_l, "authz", "role"),
            (self.rules.permission_keywords, name_l, "authz", "permission"),
            (self.rules.authz_patterns, corpus, "authz", None),
            (self.rules.role_keywords, corpus, "authz", "role"),
            (self.rules.permission_keywords, corpus, "authz", "permission"),
            (self.rules.authn_patterns, corpus, "authn", "none"),
        )
        for patterns, haystack, classification, subtype in ladder:
            pat = hit(patterns, haystack)
            if pat is None:
                continue
            if classification == "authn":
                return CheckClass("authn", "none", f"matches authentication pattern '{pat}'")
            resolved = subtype or self._authz_subtype(corpus)
            return CheckClass("authz", resolved, f"matches authorization pattern '{pat}'")
        return CheckClass("none", "none", "no authentication or authorization pattern matched")

    def _authz_subtype(self, corpus: str) -> str:
        for kw in self.rules.role_keywords:
            if kw.lower() in corpus:
                return "role"
        for kw in self.rules.permission_keywords:
            if kw.lower() in corpus:
                return "permission"
        return "permission"

    # AssessSufficiency: an operation touching a named role/resource argument
    # is protected only by an authz check that references that argument (or
    # proves ownership); authn alone never suffices.
    @reason.register
    def _assess(self, task: AssessSufficiency) -> Sufficiency:
        sensitive = self._sensitive_arguments(task.privop_source)
        authz = [c for c in task.checks if c.classification == "authz"]
        authn = [c for c in task.checks if c.classification == "authn"]
        check_text = " ".join(c.source for c in authz) + " " + " ".join(task.contexts)
        has_ownership = any(c.subtype == "ownership" for c in authz) or any(
            rx.search(check_text) for rx in self.rules.ownership_rx
        )

        ownership_note = self._ownership_note(task.privop_source, has_ownership)
        if not task.checks:
            return Sufficiency(
                "unprotected",
                f"no authentication or authorization checks guard '{task.privop_name}'" + ownership_note,
            )
        if not authz:
            return Sufficiency(
                "missing_authz",
                f"only authentication ({', '.join(c.name or c.source for c in authn)}) guards "
                f"'{task.privop_name}'; no authorization check found" + ownership_note,
            )
        if sensitive:
            for arg in sensitive:
                rx = re.compile(rf"\b{re.escape(arg)}\b")
                for c in authz:
                    if rx.search(c.source):
                        return Sufficiency(
                            "protected",
                            f"authorization check '{c.name or 'inline'}' references sensitive argument '{arg}'",
                        )
            if has_ownership:
                return Sufficiency(
                    "protected",
                    f"authorization establishes resource ownership for '{task.privop_name}'",
                )
            args = ", ".join(sorted(sensitive))
            return Sufficiency(
                "insufficient_authz",
                f"authorization check never references sensitive argument(s) {args} of "
                f"'{task.privop_name}'; a general permission is not eligibility for the specific value"
                + ownership_note,
            )
        return Sufficiency(
            "protected",
            f"authorization check '{authz[0].name or 'inline'}' guards '{task.privop_name}'",
        )

    def _sensitive_arguments(self, privop_source: str) -> list[str]:
        paren = privop_source.find("(")
        arg_text = privop_source[paren + 1 :] if paren >= 0 else privop_source
        idents = identifiers(arg_text)
        nouns = set(self.rules.protected_state_nouns) | set(self.rules.resource_nouns)
        out: list[str] = []
        for ident in idents:
            if ident in out:
                continue
            if set(split_identifier(ident)) & nouns:
                out.append(ident)
        return out

    def _ownership_note(self, privop_source: str, has_ownership: bool) -> str:
        if has_ownership:
            return ""
        tokens: set[str] = set()
        for ident in _IDENT_RE.findall(privop_source):
            tokens.update(split_identifier(ident))
        owned = sorted(tokens & set(self.rules.ownership_nouns))
        if owned:
            return f"; missing ownership check for resource '{owned[0]}'"
        return ""

    @reason.register
    def _extract(self, task: ExtractConstraints) -> ConstraintExtraction:
        return ConstraintExtraction(*_constraints.translate_guards(task.guards))

    @reason.register
    def _confirm_user_source(self, task: ConfirmUserSource) -> UserSource:
        ident = task.identifier
        if not ident.startswith("/"):
            return UserSource(False, f"'{ident}' is not a gateway-routed path")
        prefix = covering_prefix(task)
        if prefix is not None:
            return UserSource(True, f"'{ident}' is routed by gateway prefix '{prefix}'")
        return UserSource(False, f"no gateway route prefix covers '{ident}'")

    # NextSearchAction: one verb query and one noun query per service, the
    # same plan every round; the loop stops after a round that adds nothing.
    @reason.register
    def _next_action(self, task: NextSearchAction) -> tuple[Action, ...]:
        verbs = "|".join(self.rules.action_verbs)
        nouns = "|".join(sorted(set(self.rules.protected_state_nouns) | set(self.rules.resource_nouns)))
        plan: list[Action] = []
        for service in task.services:
            for pattern in (f"(?i)({verbs}).*", f"(?i).*({nouns}).*"):
                args = {"service": service, "pattern": pattern, "mode": "regex"}
                plan.append(Action("q_name", args, f"round {task.round}: propose {_query_key('q_name', args)}"))
        return tuple(plan)


def _query_key(tool: str, args: dict) -> str:
    return f"{tool}:" + ",".join(f"{k}={args[k]}" for k in sorted(args))


def _first_identifier(source: str) -> str:
    m = _IDENT_RE.search(source)
    return m.group(0) if m else ""


def covering_prefix(task: ConfirmUserSource) -> str | None:
    """The first of the task's route prefixes that covers its identifier
    segment by segment, or None; an endpoint segment written ``{x}`` or
    ``:x`` covers any prefix segment. Only an endpoint path (``/...``) can
    be covered (a ``consume`` source never is)."""
    if not task.identifier.startswith("/"):
        return None
    segs = [s for s in task.identifier.split("/") if s]
    for prefix in task.route_prefixes:
        p_segs = [s for s in prefix.split("/") if s]
        if len(segs) >= len(p_segs) and all(s == p or is_wildcard_segment(s) for s, p in zip(segs, p_segs)):
            return prefix
    return None


# --- memo ------------------------------------------------------------------------


class Memo:
    """Per-scan verdict memo in front of one backend: each distinct task
    reaches the backend once, and an equal task gets the stored verdict.
    The key is the task alone, since one memo serves one backend. A task
    whose ask raised stores nothing, so it is asked again next time.

    Three tasks never reach the backend, since the program leaves them one
    sound answer: an ``ExtractConstraints`` with no guard (the empty
    conjunction), an ``AssessSufficiency`` with no authorization check
    (``unprotected`` with no check, ``missing_authz`` with authentication
    only: "protected" would drop a flow nothing authorizes) and a
    ``ConfirmUserSource`` whose endpoint path a route prefix covers (a user
    source: "no" would drop a flow the manifest exposes). The scripted
    oracle's code answers them, with the backend's rules when it is a
    ``ScriptedOracle`` and the shipped rules otherwise, so the verdict and
    its rationale are the scripted ones. A ``NextSearchAction`` carries its
    round, so each round's plan reaches the backend once.

    Each lookup gives ``tracer`` (a ``pipeline.Tracer``) one record of the
    task, before any answer: ``reason`` when the backend is asked,
    ``decided`` when the program answers and ``memo_hit`` when the verdict
    is stored. The tracer meters the ``reason`` records, so the record
    that exhausts the budget asks the backend nothing."""

    def __init__(self, backend, tracer=None):
        self.backend = backend
        self.name = getattr(backend, "name", type(backend).__name__)
        self._verdicts: dict = {}
        self._scripted = ScriptedOracle(backend.rules if isinstance(backend, ScriptedOracle) else None)
        self._record = tracer.record if tracer is not None else lambda *record: None

    def reason(self, task):
        verdict = self._verdicts.get(task)
        if verdict is not None:
            self._record("memo_hit", task, 1)
            return verdict
        decided = (
            type(task) is ExtractConstraints and not task.guards
            or type(task) is AssessSufficiency and not any(c.classification == "authz" for c in task.checks)
            or type(task) is ConfirmUserSource and covering_prefix(task) is not None
        )
        self._record("decided" if decided else "reason", task, 1)
        verdict = self._verdicts[task] = (self._scripted if decided else self.backend).reason(task)
        return verdict


def make_reasoner(kind: str, rules: OracleRules | None = None):
    if kind == "scripted":
        return ScriptedOracle(rules)
    if kind == "remote":
        from .remote import from_environment  # loaded only when chosen

        return from_environment()
    raise ValueError(f"unknown reasoner kind {kind!r}")
