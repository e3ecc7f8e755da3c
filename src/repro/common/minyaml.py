"""A from-scratch YAML-subset parser and emitter.

The Popper convention leans heavily on YAML documents: ``.popper.yml``
configuration, ``.travis.yml`` CI specifications, Ansible-style ``setup.yml``
playbooks and ``vars.yml`` parameter files.  Rather than depending on an
external YAML library, this module implements the subset those documents
actually use, from scratch:

* block mappings and block sequences, arbitrarily nested by indentation
* inline (flow) lists ``[a, b, c]`` and mappings ``{a: 1, b: 2}``
* plain / single-quoted / double-quoted scalars
* ints, floats, booleans (``true/false/yes/no/on/off``), ``null``/``~``
* ``#`` comments (full-line and trailing)
* literal block scalars (``|`` and ``|-``)
* multi-document streams separated by ``---``

The emitter (:func:`dumps`) produces canonical block-style output that the
parser round-trips, a property exercised by hypothesis tests.
"""

from __future__ import annotations

from typing import Any

from repro.common.errors import YamlError

__all__ = ["loads", "load_all", "dumps", "load_file", "dump_file"]


_BOOL_TRUE = {"true", "yes", "on"}
_BOOL_FALSE = {"false", "no", "off"}
_NULL = {"null", "~", ""}


# ---------------------------------------------------------------------------
# Scanning helpers
# ---------------------------------------------------------------------------

class _Line:
    """One significant (non-blank, non-comment) line of the document."""

    __slots__ = ("indent", "content", "number")

    def __init__(self, indent: int, content: str, number: int) -> None:
        self.indent = indent
        self.content = content
        self.number = number

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"_Line({self.indent}, {self.content!r}, line={self.number})"


def _strip_comment(text: str) -> str:
    """Remove a trailing ``#`` comment, respecting quoted strings."""
    quote: str | None = None
    for i, ch in enumerate(text):
        if quote:
            if ch == quote:
                quote = None
        elif ch in ("'", '"'):
            quote = ch
        elif ch == "#" and (i == 0 or text[i - 1] in " \t"):
            return text[:i].rstrip()
    return text.rstrip()


def _scan(source: str) -> list[_Line]:
    lines: list[_Line] = []
    raw_lines = source.splitlines()
    i = 0
    while i < len(raw_lines):
        raw = raw_lines[i]
        stripped_full = raw.strip()
        if not stripped_full or stripped_full.startswith("#"):
            i += 1
            continue
        if "\t" in raw[: len(raw) - len(raw.lstrip())]:
            raise YamlError("tabs are not allowed in indentation", i + 1)
        indent = len(raw) - len(raw.lstrip(" "))
        content = _strip_comment(raw.strip())
        if not content:
            i += 1
            continue
        # Literal block scalar: swallow the indented block verbatim.
        if content.endswith("|") or content.endswith("|-"):
            chomp = content.endswith("|-")
            head = content[: -2 if chomp else -1].rstrip()
            block_lines: list[str] = []
            j = i + 1
            block_indent: int | None = None
            while j < len(raw_lines):
                cand = raw_lines[j]
                if not cand.strip():
                    block_lines.append("")
                    j += 1
                    continue
                cind = len(cand) - len(cand.lstrip(" "))
                if cind <= indent:
                    break
                if block_indent is None:
                    block_indent = cind
                block_lines.append(cand[block_indent:])
                j += 1
            while block_lines and not block_lines[-1]:
                block_lines.pop()
            text = "\n".join(block_lines)
            if not chomp:
                text += "\n"
            # Hex-encode the block so later tokenization (strip, colon
            # splitting) can never mangle its contents.
            marker = "\x00LITERAL\x00" + text.encode("utf-8").hex()
            lines.append(_Line(indent, head + " " + marker, i + 1))
            i = j
            continue
        lines.append(_Line(indent, content, i + 1))
        i += 1
    return lines


# ---------------------------------------------------------------------------
# Scalar parsing
# ---------------------------------------------------------------------------

def _parse_scalar(token: str, line: int) -> Any:
    if "\x00LITERAL\x00" in token:
        encoded = token[token.index("\x00LITERAL\x00") + len("\x00LITERAL\x00") :]
        return bytes.fromhex(encoded.strip()).decode("utf-8")
    token = token.strip()
    if token.startswith("'") :
        if len(token) < 2 or not token.endswith("'"):
            raise YamlError(f"unterminated single-quoted string: {token!r}", line)
        return token[1:-1].replace("''", "'")
    if token.startswith('"'):
        if len(token) < 2 or not token.endswith('"'):
            raise YamlError(f"unterminated double-quoted string: {token!r}", line)
        body = token[1:-1]
        out: list[str] = []
        i = 0
        escapes = {"n": "\n", "t": "\t", '"': '"', "\\": "\\", "0": "\0", "r": "\r"}
        while i < len(body):
            ch = body[i]
            if ch == "\\":
                if i + 1 >= len(body):
                    raise YamlError("dangling escape in double-quoted string", line)
                nxt = body[i + 1]
                if nxt not in escapes:
                    raise YamlError(f"unknown escape \\{nxt}", line)
                out.append(escapes[nxt])
                i += 2
            else:
                out.append(ch)
                i += 1
        return "".join(out)
    if token.startswith("[") or token.startswith("{"):
        return _parse_flow(token, line)
    low = token.lower()
    if low in _BOOL_TRUE:
        return True
    if low in _BOOL_FALSE:
        return False
    if low in _NULL:
        return None
    try:
        return int(token, 0) if not token.lstrip("+-").startswith("0x") else int(token, 16)
    except ValueError:
        pass
    try:
        return float(token)
    except ValueError:
        pass
    return token


def _split_flow_items(body: str, line: int) -> list[str]:
    """Split the inside of a flow collection on top-level commas."""
    items: list[str] = []
    depth = 0
    quote: str | None = None
    cur: list[str] = []
    for ch in body:
        if quote:
            cur.append(ch)
            if ch == quote:
                quote = None
            continue
        if ch in ("'", '"'):
            quote = ch
            cur.append(ch)
        elif ch in "[{":
            depth += 1
            cur.append(ch)
        elif ch in "]}":
            depth -= 1
            if depth < 0:
                raise YamlError("unbalanced brackets in flow collection", line)
            cur.append(ch)
        elif ch == "," and depth == 0:
            items.append("".join(cur).strip())
            cur = []
        else:
            cur.append(ch)
    if quote:
        raise YamlError("unterminated quote in flow collection", line)
    if depth != 0:
        raise YamlError("unbalanced brackets in flow collection", line)
    tail = "".join(cur).strip()
    if tail:
        items.append(tail)
    return items


def _parse_flow(token: str, line: int) -> Any:
    token = token.strip()
    if token.startswith("["):
        if not token.endswith("]"):
            raise YamlError(f"unterminated flow list: {token!r}", line)
        body = token[1:-1].strip()
        if not body:
            return []
        return [_parse_scalar(item, line) for item in _split_flow_items(body, line)]
    if token.startswith("{"):
        if not token.endswith("}"):
            raise YamlError(f"unterminated flow mapping: {token!r}", line)
        body = token[1:-1].strip()
        out: dict[str, Any] = {}
        if not body:
            return out
        for item in _split_flow_items(body, line):
            key, sep, value = item.partition(":")
            if not sep:
                raise YamlError(f"flow mapping entry missing ':': {item!r}", line)
            out[str(_parse_scalar(key, line))] = _parse_scalar(value, line)
        return out
    raise YamlError(f"not a flow collection: {token!r}", line)


def _split_key(content: str, line: int) -> tuple[str, str] | None:
    """Split ``key: value`` on the first top-level colon; None if not a pair."""
    quote: str | None = None
    depth = 0
    for i, ch in enumerate(content):
        if quote:
            if ch == quote:
                quote = None
        elif ch in ("'", '"'):
            quote = ch
        elif ch in "[{":
            depth += 1
        elif ch in "]}":
            depth -= 1
        elif ch == ":" and depth == 0:
            if i + 1 == len(content) or content[i + 1] in " \t":
                return content[:i].strip(), content[i + 1 :].strip()
    return None


# ---------------------------------------------------------------------------
# Block parsing
# ---------------------------------------------------------------------------

class _Parser:
    def __init__(self, lines: list[_Line]) -> None:
        self.lines = lines
        self.pos = 0

    def peek(self) -> _Line | None:
        return self.lines[self.pos] if self.pos < len(self.lines) else None

    def parse_node(self, indent: int) -> Any:
        line = self.peek()
        if line is None:
            return None
        if line.content.startswith("- ") or line.content == "-":
            return self.parse_sequence(line.indent)
        if _split_key(line.content, line.number) is None:
            # A bare scalar or flow-collection document ("{}", "[1, 2]", "42").
            self.pos += 1
            return _parse_scalar(line.content, line.number)
        return self.parse_mapping(line.indent)

    def parse_sequence(self, indent: int) -> list[Any]:
        items: list[Any] = []
        while True:
            line = self.peek()
            if line is None or line.indent != indent:
                if line is not None and line.indent > indent:
                    raise YamlError("bad indentation in sequence", line.number)
                break
            if not (line.content.startswith("- ") or line.content == "-"):
                break
            rest = line.content[2:].strip() if line.content != "-" else ""
            if rest.startswith("- ") or rest == "-":
                # "- - x" nests a sequence on the same line; re-scope the
                # remainder as a virtual line two columns deeper.
                self.lines[self.pos] = _Line(indent + 2, rest, line.number)
                items.append(self.parse_sequence(indent + 2))
                continue
            self.pos += 1
            if not rest:
                nxt = self.peek()
                if nxt is not None and nxt.indent > indent:
                    items.append(self.parse_node(nxt.indent))
                else:
                    items.append(None)
                continue
            pair = _split_key(rest, line.number)
            if pair is not None:
                # "- key: value" starts an inline mapping item; subsequent
                # keys of the same item are indented past the dash.
                mapping = self._sequence_item_mapping(pair, indent, line.number)
                items.append(mapping)
            else:
                items.append(_parse_scalar(rest, line.number))
        return items

    def _sequence_item_mapping(
        self, first: tuple[str, str], dash_indent: int, number: int
    ) -> dict[str, Any]:
        key, value = first
        mapping: dict[str, Any] = {}
        self._insert_pair(mapping, key, value, dash_indent + 2, number)
        while True:
            line = self.peek()
            if line is None or line.indent <= dash_indent:
                break
            pair = _split_key(line.content, line.number)
            if pair is None:
                raise YamlError(
                    f"expected 'key: value' in mapping, got {line.content!r}",
                    line.number,
                )
            self.pos += 1
            self._insert_pair(mapping, pair[0], pair[1], line.indent, line.number)
        return mapping

    def parse_mapping(self, indent: int) -> dict[str, Any]:
        mapping: dict[str, Any] = {}
        while True:
            line = self.peek()
            if line is None or line.indent != indent:
                if line is not None and line.indent > indent:
                    raise YamlError("bad indentation in mapping", line.number)
                break
            if line.content.startswith("- ") or line.content == "-":
                break
            pair = _split_key(line.content, line.number)
            if pair is None:
                raise YamlError(
                    f"expected 'key: value', got {line.content!r}", line.number
                )
            self.pos += 1
            self._insert_pair(mapping, pair[0], pair[1], indent, line.number)
        return mapping

    def _insert_pair(
        self, mapping: dict[str, Any], key: str, value: str, indent: int, number: int
    ) -> None:
        key_obj = _parse_scalar(key, number)
        key_str = str(key_obj)
        if key_str in mapping:
            raise YamlError(f"duplicate mapping key: {key_str!r}", number)
        if value:
            mapping[key_str] = _parse_scalar(value, number)
            return
        nxt = self.peek()
        if nxt is not None and nxt.indent > indent:
            mapping[key_str] = self.parse_node(nxt.indent)
        elif (
            nxt is not None
            and nxt.indent == indent
            and (nxt.content.startswith("- ") or nxt.content == "-")
        ):
            # Sequences are commonly indented at the same level as their key.
            mapping[key_str] = self.parse_sequence(indent)
        else:
            mapping[key_str] = None


# ---------------------------------------------------------------------------
# Public API
# ---------------------------------------------------------------------------

def load_all(source: str) -> list[Any]:
    """Parse a (possibly multi-document) YAML stream into Python objects."""
    documents: list[Any] = []
    chunks: list[list[str]] = [[]]
    for raw in source.splitlines():
        if raw.strip() == "---":
            chunks.append([])
        elif raw.strip() == "...":
            chunks.append([])
        else:
            chunks[-1].append(raw)
    for chunk in chunks:
        text = "\n".join(chunk)
        lines = _scan(text)
        if not lines:
            continue
        parser = _Parser(lines)
        doc = parser.parse_node(lines[0].indent)
        leftover = parser.peek()
        if leftover is not None:
            raise YamlError(
                f"trailing content: {leftover.content!r}", leftover.number
            )
        documents.append(doc)
    return documents


def loads(source: str) -> Any:
    """Parse a single YAML document; returns ``None`` for an empty stream."""
    docs = load_all(source)
    if not docs:
        return None
    if len(docs) > 1:
        raise YamlError(f"expected a single document, found {len(docs)}")
    return docs[0]


def load_file(path: Any) -> Any:
    """Parse the YAML document stored at *path*."""
    with open(path, "r", encoding="utf-8") as handle:
        return loads(handle.read())


# ---------------------------------------------------------------------------
# Emitter
# ---------------------------------------------------------------------------

_PLAIN_SAFE = set(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
    "_-./+*=<>()%@^$;!?& "
)


def _format_scalar(value: Any) -> str:
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return repr(value)
    text = str(value)
    if text == "":
        return "''"
    needs_quote = (
        any(ch not in _PLAIN_SAFE for ch in text)
        or text != text.strip()
        or text.lower() in _BOOL_TRUE | _BOOL_FALSE | _NULL
        or _looks_numeric(text)
        or text[0] in "-[]{}#'\"|"
        or ": " in text
        or text.endswith(":")
    )
    if not needs_quote:
        return text
    if "\n" in text or '"' in text or "\\" in text:
        escaped = (
            text.replace("\\", "\\\\")
            .replace('"', '\\"')
            .replace("\n", "\\n")
            .replace("\t", "\\t")
            .replace("\r", "\\r")
        )
        return f'"{escaped}"'
    return "'" + text.replace("'", "''") + "'"


def _looks_numeric(text: str) -> bool:
    try:
        int(text, 0)
        return True
    except ValueError:
        pass
    try:
        float(text)
        return True
    except ValueError:
        return False


def _dump_node(value: Any, indent: int, out: list[str]) -> None:
    pad = " " * indent
    if isinstance(value, dict):
        if not value:
            out.append(pad + "{}")
            return
        for key, item in value.items():
            key_text = _format_scalar(key)
            if isinstance(item, (dict, list)) and item:
                out.append(f"{pad}{key_text}:")
                _dump_node(item, indent + 2, out)
            elif isinstance(item, dict):
                out.append(f"{pad}{key_text}: {{}}")
            elif isinstance(item, list):
                out.append(f"{pad}{key_text}: []")
            else:
                out.append(f"{pad}{key_text}: {_format_scalar(item)}")
    elif isinstance(value, list):
        if not value:
            out.append(pad + "[]")
            return
        for item in value:
            if isinstance(item, dict) and item:
                lines: list[str] = []
                _dump_node(item, indent + 2, lines)
                first = lines[0]
                out.append(f"{pad}- {first[indent + 2:]}")
                out.extend(lines[1:])
            elif isinstance(item, list) and item:
                lines = []
                _dump_node(item, indent + 2, lines)
                first = lines[0]
                out.append(f"{pad}- {first[indent + 2:]}")
                out.extend(lines[1:])
            elif isinstance(item, dict):
                out.append(f"{pad}- {{}}")
            elif isinstance(item, list):
                out.append(f"{pad}- []")
            else:
                out.append(f"{pad}- {_format_scalar(item)}")
    else:
        out.append(pad + _format_scalar(value))


def dumps(value: Any) -> str:
    """Serialize *value* (dicts/lists/scalars) to canonical block YAML."""
    out: list[str] = []
    _dump_node(value, 0, out)
    return "\n".join(out) + "\n"


def dump_file(value: Any, path: Any) -> None:
    """Serialize *value* to the file at *path*."""
    from repro.common.fsutil import atomic_write

    atomic_write(path, dumps(value).encode("utf-8"), crash_label="yaml.dump")
