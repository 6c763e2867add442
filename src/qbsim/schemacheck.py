"""Published JSON schemas compiled once into plain Python checks.

`compile_schema` turns a schema dict into a function that returns every
violation of an instance as `(json_path, message)` pairs, with the path
and message texts of jsonschema's Draft 2020-12 validator. Each keyword
compiles to a boolean predicate beside its error-collecting check: the
predicate runs first, and the check's walk, which renders paths and
messages, runs only when the predicate fails. It covers
exactly the keywords qbsim's config and report schemas use; any other
keyword raises at compile time, so a schema edit cannot silently weaken
the check. Draft 2020-12 semantics kept: a bool is neither an integer
nor a number, `3.0` is an integer, `enum`/`const` tell `True` from `1`,
and `properties` constrains only the keys that are present. A path is
carried as `(parent, key)` links and rendered only when an error occurs.
"""

from __future__ import annotations

import numbers
import re

from .errors import QbsimError

_IGNORED = frozenset({"$schema", "title"})
_PLAIN_KEY = re.compile("^[a-zA-Z][a-zA-Z0-9_]*$")

# exact-type tests first: JSON values are plain ints, floats, strs and
# dicts, and the `numbers.Number` ABC check is slow
_TYPES = {
    "object": lambda v: type(v) is dict or isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: type(v) is str or isinstance(v, str),
    "boolean": lambda v: isinstance(v, bool),
    "null": lambda v: v is None,
    "integer": lambda v: (type(v) is int or isinstance(v, int) and not isinstance(v, bool)
                          or isinstance(v, float) and v.is_integer()),
    "number": lambda v: (type(v) is int or type(v) is float
                         or isinstance(v, numbers.Number) and not isinstance(v, bool)),
}
_is_number = _TYPES["number"]


class SchemaCompileError(QbsimError):
    """A schema uses a keyword this compiler does not implement."""


def _json_path(path) -> str:
    """jsonschema's `json_path` text of a `(parent, key)` link chain."""
    keys = []
    while path is not None:
        path, key = path
        keys.append(key)
    out = "$"
    for key in reversed(keys):
        if isinstance(key, int):
            out += f"[{key}]"
        elif _PLAIN_KEY.match(key):
            out += "." + key
        else:
            out += "['" + key.replace("\\", "\\\\").replace("'", r"\'") + "']"
    return out


def _same(a, b) -> bool:
    """JSON equality: `True` is not `1`, containers compare element-wise."""
    if isinstance(a, str) or isinstance(b, str):
        return a == b
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(map(_same, a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_same(v, b[k]) for k, v in a.items())
    if isinstance(a, bool) or isinstance(b, bool):
        return a is b
    return a == b


def _leaf(ok, message):
    """`ok` as the predicate, and a check that records `message(value)`
    where `ok(value)` is false."""
    def check(v, path, errors):
        if not ok(v):
            errors.append((_json_path(path), message(v)))
    return ok, check


def _type(types, schema):
    names = [types] if isinstance(types, str) else types
    tests = [_TYPES[name] for name in names]
    expected = ", ".join(map(repr, names))
    return _leaf(tests[0] if len(tests) == 1 else lambda v: any(test(v) for test in tests),
                 lambda v: f"{v!r} is not of type {expected}")


def _required(names, schema):
    wanted = frozenset(names)

    def holds(v):
        return not isinstance(v, dict) or wanted <= v.keys()

    def check(v, path, errors):
        if not holds(v):
            errors.extend((_json_path(path), f"{name!r} is a required property")
                          for name in names if name not in v)
    return holds, check


def _properties(props, schema):
    compiled = [(key, *_compile(sub)) for key, sub in props.items()]

    def holds(v):
        if isinstance(v, dict):
            for key, sub_holds, _ in compiled:
                if key in v and not sub_holds(v[key]):
                    return False
        return True

    def check(v, path, errors):
        if isinstance(v, dict):
            for key, _, sub in compiled:
                if key in v:
                    sub(v[key], (path, key), errors)
    return holds, check


def _additional(extra, schema):
    known = schema.get("properties", {})
    if extra is False:
        def message(v):
            keys = sorted(k for k in v if k not in known)
            verb = "was" if len(keys) == 1 else "were"
            listed = ", ".join(map(repr, keys))
            return f"Additional properties are not allowed ({listed} {verb} unexpected)"
        return _leaf(lambda v: not isinstance(v, dict) or v.keys() <= known.keys(), message)
    sub_holds, sub = _compile(extra)

    def holds(v):
        return not isinstance(v, dict) or all(
            sub_holds(item) for key, item in v.items() if key not in known)

    def check(v, path, errors):
        if isinstance(v, dict):
            for key, item in v.items():
                if key not in known:
                    sub(item, (path, key), errors)
    return holds, check


def _items(items, schema):
    sub_holds, sub = _compile(items)
    start = len(schema.get("prefixItems", ()))  # `items` takes the rest

    def check(v, path, errors):
        if isinstance(v, list):
            for index in range(start, len(v)):
                sub(v[index], (path, index), errors)
    if start:
        return lambda v: not isinstance(v, list) or all(map(sub_holds, v[start:])), check
    return lambda v: not isinstance(v, list) or all(map(sub_holds, v)), check


def _prefix_items(subs, schema):
    compiled = [_compile(sub) for sub in subs]
    tests = [sub_holds for sub_holds, _ in compiled]

    def holds(v):
        if isinstance(v, list):
            for item, test in zip(v, tests):
                if not test(item):
                    return False
        return True

    def check(v, path, errors):
        if isinstance(v, list):
            for index, (item, (_, sub)) in enumerate(zip(v, compiled)):
                sub(item, (path, index), errors)
    return holds, check


def _pattern(text, schema):
    search = re.compile(text).search
    return _leaf(lambda v: not isinstance(v, str) or search(v) is not None,
                 lambda v: f"{v!r} does not match {text!r}")


def _enum(values, schema):
    strings = frozenset(x for x in values if isinstance(x, str))
    # a str equals exactly the str values; anything else takes `_same`
    return _leaf(lambda v: v in strings if type(v) is str else any(_same(v, x) for x in values),
                 lambda v: f"{v!r} is not one of {values!r}")


def _if(condition, schema):
    (test_holds, test), (then_holds, then) = _compile(condition), _compile(schema.get("then", {}))

    def check(v, path, errors):
        failed = []
        test(v, None, failed)
        if not failed:
            then(v, path, errors)
    return lambda v: not test_holds(v) or then_holds(v), check


_KEYWORDS = {
    "type": _type, "required": _required, "properties": _properties,
    "additionalProperties": _additional, "items": _items, "pattern": _pattern,
    "enum": _enum,
    "const": lambda value, schema: _leaf(lambda v: _same(v, value),
                                         lambda v: f"{value!r} was expected"),
    "minimum": lambda bound, schema: _leaf(
        lambda v: v >= bound if type(v) is int else not _is_number(v) or v >= bound,
        lambda v: f"{v!r} is less than the minimum of {bound!r}"),
    "maximum": lambda bound, schema: _leaf(
        lambda v: v <= bound if type(v) is int else not _is_number(v) or v <= bound,
        lambda v: f"{v!r} is greater than the maximum of {bound!r}"),
    "prefixItems": _prefix_items,
    "minItems": lambda bound, schema: _leaf(
        lambda v: not isinstance(v, list) or len(v) >= bound,
        lambda v: f"{v!r} {'should be non-empty' if bound == 1 else 'is too short'}"),
    "maxItems": lambda bound, schema: _leaf(
        lambda v: not isinstance(v, list) or len(v) <= bound,
        lambda v: f"{v!r} {'is expected to be empty' if bound == 0 else 'is too long'}"),
    "allOf": lambda subs, schema: _both([_compile(sub) for sub in subs]),
    "if": _if,
    "then": None,  # compiled by `if`
}


def _compile(schema: dict):
    """`(holds, check)` of a schema: `holds(v)` is true exactly when `v`
    is valid; `check(v, path, errors)` appends every violation."""
    if not isinstance(schema, dict):
        raise SchemaCompileError(f"a schema must be an object here, got {schema!r}")
    unknown = sorted(schema.keys() - _KEYWORDS.keys() - _IGNORED)
    if unknown:
        raise SchemaCompileError(f"unsupported schema keywords: {unknown}")
    holds, check = _both([_KEYWORDS[key](value, schema) for key, value in schema.items()
                          if _KEYWORDS.get(key) is not None])
    # one call for the report's most common shapes, when the value has
    # the exact Python type: a count or seq, and a broadcast entry
    kind, rest, generic = schema.get("type"), schema.keys() - _IGNORED - {"type"}, holds
    if kind == "integer" and rest == {"minimum"}:
        bound = schema["minimum"]
        holds = lambda v: v >= bound if type(v) is int else generic(v)
    elif kind == "array" and rest == {"minItems", "maxItems", "prefixItems"}:
        low, high = schema["minItems"], schema["maxItems"]
        items = _prefix_items(schema["prefixItems"], schema)[0]
        holds = lambda v: low <= len(v) <= high and items(v) if type(v) is list else generic(v)
    return holds, check


def _both(compiled):
    """One `(holds, check)` that takes `compiled`'s pairs in order."""
    if len(compiled) == 1:
        return compiled[0]
    tests = [holds for holds, _ in compiled]
    checks = [check for _, check in compiled]
    if len(tests) == 2:
        first, second = tests
        holds = lambda v: first(v) and second(v)
    elif len(tests) == 3:
        first, second, third = tests
        holds = lambda v: first(v) and second(v) and third(v)
    else:
        def holds(v):
            for test in tests:
                if not test(v):
                    return False
            return True

    def check(v, path, errors):
        for sub in checks:
            sub(v, path, errors)
    return holds, check


def compile_schema(schema: dict):
    """A function from an instance to its `(json_path, message)` violations,
    in jsonschema's order; an empty list means the instance is valid."""
    holds, check = _compile(schema)

    def violations(instance) -> list[tuple[str, str]]:
        if holds(instance):
            return []
        errors = []
        check(instance, None, errors)
        return errors
    return violations
