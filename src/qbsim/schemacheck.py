"""Published JSON schemas compiled once into plain Python checks.

`compile_schema` turns a schema dict into a function that returns every
violation of an instance as `(json_path, message)` pairs, with the path
and message texts of jsonschema's Draft 2020-12 validator. Each keyword
compiles to one function of a value: it returns nothing when the value
is valid, and otherwise its violations as `(path, message)` pairs, the
path a tuple of keys and indices relative to that value. A parent puts
its key or index in front of a child's paths only when the child reports
something, so a valid instance costs one walk and builds no path. It
covers exactly the keywords qbsim's config and report schemas use; any
other keyword raises at compile time, so a schema edit cannot silently
weaken the check. Draft 2020-12 semantics kept: a bool is neither an
integer nor a number, `3.0` is an integer, `enum`/`const` tell `True`
from `1`, and `properties` constrains only the keys that are present.
"""

from __future__ import annotations

import numbers
import re

from .errors import QbsimError

_IGNORED = frozenset({"$schema", "title"})
_PLAIN_KEY = re.compile("^[a-zA-Z][a-zA-Z0-9_]*$")

# each type's exact Python class, tested first because JSON values are
# plain ints, floats, strs and dicts, and its full test
_TYPES = {
    "object": (dict, lambda v: isinstance(v, dict)),
    "array": (list, lambda v: isinstance(v, list)),
    "string": (str, lambda v: isinstance(v, str)),
    "boolean": (bool, lambda v: isinstance(v, bool)),
    "null": (type(None), lambda v: v is None),
    "integer": (int, lambda v: (isinstance(v, int) and not isinstance(v, bool)
                                or isinstance(v, float) and v.is_integer())),
    # the `numbers.Number` ABC check is slow
    "number": (float, lambda v: (type(v) is int or type(v) is float
                                 or isinstance(v, numbers.Number) and not isinstance(v, bool))),
}
_is_number = _TYPES["number"][1]


class SchemaCompileError(QbsimError):
    """A schema uses a keyword this compiler does not implement."""


def _json_path(keys) -> str:
    """jsonschema's `json_path` text of a tuple of keys and indices."""
    out = "$"
    for key in keys:
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


def _under(key, errors):
    """A child's `errors` with `key` put in front of each path."""
    return [((key, *path), message) for path, message in errors]


def _type(types, schema):
    names = [types] if isinstance(types, str) else types
    expected = ", ".join(map(repr, names))
    if len(names) == 1:
        exact, test = _TYPES[names[0]]
        return lambda v: (None if type(v) is exact or test(v)
                          else [((), f"{v!r} is not of type {expected}")])
    tests = [_TYPES[name][1] for name in names]
    return lambda v: (None if any(test(v) for test in tests)
                      else [((), f"{v!r} is not of type {expected}")])


def _required(names, schema):
    wanted = frozenset(names)
    return lambda v: (None if not isinstance(v, dict) or wanted <= v.keys()
                      else [((), f"{name!r} is a required property")
                            for name in names if name not in v])


def _properties(props, schema):
    compiled = [(key, _compile(sub)) for key, sub in props.items()]

    def check(v):
        if isinstance(v, dict):
            errors = None
            for key, sub in compiled:
                if key in v:
                    found = sub(v[key])
                    if found:
                        errors = (errors or []) + _under(key, found)
            return errors
    return check


def _additional(extra, schema):
    known = schema.get("properties", {})
    if extra is False:
        def closed(v):
            if isinstance(v, dict) and not v.keys() <= known.keys():
                keys = sorted(k for k in v if k not in known)
                verb = "was" if len(keys) == 1 else "were"
                listed = ", ".join(map(repr, keys))
                return [((), f"Additional properties are not allowed ({listed} {verb} unexpected)")]
        return closed
    sub = _compile(extra)

    def check(v):
        if isinstance(v, dict):
            errors = None
            for key, item in v.items():
                if key not in known:
                    found = sub(item)
                    if found:
                        errors = (errors or []) + _under(key, found)
            return errors
    return check


def _items(items, schema):
    sub = _compile(items)
    start = len(schema.get("prefixItems", ()))  # `items` takes the rest

    def check(v):
        if isinstance(v, list):
            found = list(map(sub, v[start:] if start else v))
            if any(found):
                return [error for index, errors in enumerate(found, start) if errors
                        for error in _under(index, errors)]
    return check


def _prefix_items(subs, schema):
    compiled = [_compile(sub) for sub in subs]

    def check(v):
        if isinstance(v, list):
            errors = None
            for index, (item, sub) in enumerate(zip(v, compiled)):
                found = sub(item)
                if found:
                    errors = (errors or []) + _under(index, found)
            return errors
    return check


def _pattern(text, schema):
    search = re.compile(text).search
    return lambda v: (None if not isinstance(v, str) or search(v) is not None
                      else [((), f"{v!r} does not match {text!r}")])


def _enum(values, schema):
    strings = frozenset(x for x in values if isinstance(x, str))
    # a str equals exactly the str values; anything else takes `_same`
    return lambda v: (None if (v in strings if type(v) is str else any(_same(v, x) for x in values))
                      else [((), f"{v!r} is not one of {values!r}")])


def _if(condition, schema):
    test, then = _compile(condition), _compile(schema.get("then", {}))
    return lambda v: None if test(v) else then(v)


_KEYWORDS = {
    "type": _type, "required": _required, "properties": _properties,
    "additionalProperties": _additional, "items": _items, "pattern": _pattern,
    "enum": _enum,
    "const": lambda value, schema: lambda v: (None if _same(v, value)
                                              else [((), f"{value!r} was expected")]),
    "minimum": lambda bound, schema: lambda v: (
        None if (v >= bound if type(v) is int else not _is_number(v) or v >= bound)
        else [((), f"{v!r} is less than the minimum of {bound!r}")]),
    "maximum": lambda bound, schema: lambda v: (
        None if (v <= bound if type(v) is int else not _is_number(v) or v <= bound)
        else [((), f"{v!r} is greater than the maximum of {bound!r}")]),
    "prefixItems": _prefix_items,
    "minItems": lambda bound, schema: lambda v: (
        None if not isinstance(v, list) or len(v) >= bound
        else [((), f"{v!r} {'should be non-empty' if bound == 1 else 'is too short'}")]),
    "maxItems": lambda bound, schema: lambda v: (
        None if not isinstance(v, list) or len(v) <= bound
        else [((), f"{v!r} {'is expected to be empty' if bound == 0 else 'is too long'}")]),
    "allOf": lambda subs, schema: _all([_compile(sub) for sub in subs]),
    "if": _if,
    "then": None,  # compiled by `if`
}


def _compile(schema: dict):
    """A schema's check: value -> nothing when it is valid, else its
    `(path, message)` violations, paths relative to the value."""
    if not isinstance(schema, dict):
        raise SchemaCompileError(f"a schema must be an object here, got {schema!r}")
    unknown = sorted(schema.keys() - _KEYWORDS.keys() - _IGNORED)
    if unknown:
        raise SchemaCompileError(f"unsupported schema keywords: {unknown}")
    check = _all([_KEYWORDS[key](value, schema) for key, value in schema.items()
                  if _KEYWORDS.get(key) is not None])
    # one call for the report's most common shapes, when the value has
    # the exact Python type: a count or seq, and a broadcast entry
    kind, rest, generic = schema.get("type"), schema.keys() - _IGNORED - {"type"}, check
    if kind == "integer" and rest == {"minimum"}:
        bound = schema["minimum"]
        check = lambda v: None if type(v) is int and v >= bound else generic(v)
    elif kind == "array" and rest == {"minItems", "maxItems", "prefixItems"}:
        low, high = schema["minItems"], schema["maxItems"]
        subs = [_compile(sub) for sub in schema["prefixItems"]]

        def check(v):
            if type(v) is list and low <= len(v) <= high:
                for sub, item in zip(subs, v):
                    if sub(item):
                        return generic(v)
                return None
            return generic(v)
    return check


def _all(checks):
    """One check that runs `checks` in order and joins what they report."""
    if not checks:
        return lambda v: None
    if len(checks) == 1:
        return checks[0]
    first, rest = checks[0], _all(checks[1:])

    def check(v):
        head, tail = first(v), rest(v)
        if head or tail:
            return [*(head or ()), *(tail or ())]
    return check


def compile_schema(schema: dict):
    """A function from an instance to its `(json_path, message)` violations,
    in jsonschema's order; an empty list means the instance is valid."""
    check = _compile(schema)
    return lambda instance: [(_json_path(path), message)
                             for path, message in check(instance) or ()]
