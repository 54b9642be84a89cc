"""Tokenizer for the scripting language: one compiled pattern with one
alternative per token kind, tried in order at each position.

`//` line comments normally vanish, but macro bodies are terminated by one,
so `tokenize(..., keep_comments=True)` keeps them as tokens (kind "comment")
for the parser's macro pass.  A numeric literal immediately followed by a
lone `i` is an imaginary literal.  Maximal munch on numbers makes `1./2` the
real 0.5 while `u./v` stays an elementwise division.  Digits are decimal
digits (`\\d`), so `2²` stops at the `²`, which no token may start.
"""

import re
from bisect import bisect_right
from dataclasses import dataclass, field

from ..errors import FemError


class LexError(FemError):
    def __init__(self, message, line, col):
        super().__init__(f"lex error at {line}:{col}: {message}")
        self.line = line
        self.col = col


@dataclass(frozen=True)
class Token:
    kind: str          # kw id int real imag str op punct comment macro eof
    text: str
    value: object = None
    line: int = field(default=0, compare=False)
    col: int = field(default=0, compare=False)

    def __repr__(self):
        return f"{self.kind}:{self.text}"


KEYWORDS = {
    "int", "real", "complex", "string", "bool", "mesh", "fespace", "matrix",
    "varf", "problem", "solve", "border", "func", "macro",
    "if", "else", "for", "while", "break", "continue", "return",
    "load", "ofstream", "ifstream",
}

# longest first
OPERATORS = [
    "<<", ">>", "<=", ">=", "==", "!=", "+=", "-=", "*=", "/=", "++", "--",
    "&&", "||", ".*", "./",
    "'", "^", "+", "-", "*", "/", "<", ">", "=", "&", "|", "!", ":", "%",
]

_ESCAPES = {"n": "\n", "t": "\t", "r": "\r", "\\": "\\", '"': '"', "0": "\0"}

# `\w` is `str.isalnum()` or `_`; an identifier starts with a letter or `_`,
# which `[^\W\d]` admits along with other non-decimal numerals, refused below
_TOKEN = re.compile("|".join(f"(?P<{kind}>{pattern})" for kind, pattern in [
    ("space", r"[ \t\r\n]+"),
    ("comment", r"//[^\n]*"),
    ("block", r"/\*.*?\*/"),
    ("open_block", r"/\*"),
    ("str", r'"(?:[^"\\]|\\.)*"'),
    ("open_str", r'"'),
    ("number", r"(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?(?:i(?!\w))?"),
    ("id", r"[^\W\d]\w*"),
    ("op", "|".join(map(re.escape, OPERATORS))),
    ("punct", r"[()\[\]{},;.]"),
    ("other", r"."),
]), re.DOTALL)


def tokenize(source, keep_comments=False):
    """Token list for the source text, ending with an "eof" token; comments
    stripped unless kept."""
    line_starts = [0] + [m.end() for m in re.finditer("\n", source)]

    def where(pos):
        line = bisect_right(line_starts, pos)
        return line, pos - line_starts[line - 1] + 1

    out = []
    for m in _TOKEN.finditer(source):
        kind, text = m.lastgroup, m.group()
        if kind == "space" or kind == "block" or kind == "comment" and not keep_comments:
            continue
        line, col = where(m.start())
        value = None
        if kind == "number":
            if text[-1] == "i":
                kind, text, value = "imag", text[:-1], float(text[:-1])
            elif any(c in text for c in ".eE"):
                kind, value = "real", float(text)
            else:
                kind, value = "int", int(text)
        elif kind == "str":
            text = value = re.sub(r"\\(.)", lambda e: _ESCAPES.get(e[1], e[1]),
                                  text[1:-1], flags=re.DOTALL)
        elif kind == "comment":
            text = text[2:]
        elif kind == "id" and (text[0].isalpha() or text[0] == "_"):
            kind = "kw" if text in KEYWORDS else "id"
        elif kind not in ("op", "punct"):
            message = {"open_block": "unterminated block comment",
                       "open_str": "unterminated string"}.get(kind)
            raise LexError(message or f"unexpected character {text[0]!r}", line, col)
        out.append(Token(kind, text, value, line, col))
    out.append(Token("eof", "", None, *where(len(source))))
    return out
