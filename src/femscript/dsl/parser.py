"""Recursive-descent parser, in two passes over the lexer's token list.

The macro pass (`expand_macros`) drops comments, turns each `macro name(params)
body //` definition into one token of kind "macro" that carries its
`MacroDef`, and replaces each use of a macro with its body, argument tokens
substituted for parameter names.  Expansion is textual and follows the C
preprocessor's rules: arguments expand before substitution, and a macro
does not expand inside its own expansion, so a recursive macro leaves its
name as a plain identifier instead of expanding forever.  A function-like
macro name that no `(` follows is left as it is.  A body token takes the
position of its use, as C's `__LINE__` does, so an error in it names the use.
The parser then reads the expanded list as if the user had written the
substituted text.
Statements end with `;`, tolerated as missing directly before a `}`.
"""

from ..errors import FemError
from . import astnodes as A
from .lexer import Token, tokenize


class ParseError(FemError):
    def __init__(self, message, tok=None):
        if tok is not None:
            message = f"parse error at {tok.line}:{tok.col}: {message}"
        super().__init__(message)
        self.token = tok


TYPE_BASES = {"int", "real", "complex", "string", "bool", "mesh", "matrix",
              "ofstream", "ifstream"}

ASSIGN_OPS = {"=", "+=", "-=", "*=", "/="}

# a limit on input, far beyond real scripts: a macro that doubles its
# argument substitutes more tokens than this when nested 16 deep
MAX_EXPANDED_TOKENS = 250_000


def _punct(tok, text):
    return tok.kind == "punct" and tok.text == text


def expand_macros(tokens, macros):
    """The token list the parser reads, from `tokenize(..., keep_comments=True)`;
    `macros` collects the definitions by name, in source order."""
    todo = [(tok, frozenset()) for tok in reversed(_definitions(tokens))]
    return [tok for tok, _ in _expand(todo, macros, [MAX_EXPANDED_TOKENS])]


def _definitions(tokens):
    """`tokens` without comments, each definition made one "macro" token."""
    out, i = [], 0
    while i < len(tokens):
        tok = tokens[i]
        i += 1
        if tok.kind == "kw" and tok.text == "macro":
            name = tokens[i]
            if name.kind != "id":
                raise ParseError(f"expected identifier, found {name.text!r}", name)
            params, i = _params(tokens, i + 1)
            end = i
            while tokens[end].kind != "comment":
                if tokens[end].kind == "eof":
                    raise ParseError("macro body must end with //", tokens[end])
                end += 1
            node = A.MacroDef(name.text, params, tuple(tokens[i:end]), line=tok.line)
            out.append(Token("macro", name.text, node, tok.line, tok.col))
            i = end + 1
        elif tok.kind != "comment":
            out.append(tok)
    return out


def _params(tokens, i):
    """The parameter names of a definition whose body would start at
    tokens[i], and where the body starts.  A leading parenthesized group is
    a parameter list only when it holds nothing but comma-separated
    identifiers; anything else (e.g. `macro Pi2 (2*pi)//`) already belongs
    to the body."""
    if not _punct(tokens[i], "("):
        return None, i
    if _punct(tokens[i + 1], ")"):
        return (), i + 2
    names, j = [], i + 1
    while tokens[j].kind == "id":
        names.append(tokens[j].text)
        if _punct(tokens[j + 1], ")"):
            return tuple(names), j + 2
        if not _punct(tokens[j + 1], ","):
            break
        j += 2
    return None, i


def _expand(todo, macros, budget, use=None):
    """Expand `todo`, a stack of (token, hide set) pairs whose next token is
    last, into a list of pairs.  A token is never expanded by a macro in its
    hide set, and every token of an expansion of M hides M, so each step of
    a chain of expansions hides one more macro and the chain ends.  Past
    `budget[0]` substituted tokens, the outermost `use` takes the error."""
    out = []
    while todo:
        tok, hide = todo.pop()
        if tok.kind == "macro":
            macros[tok.text] = tok.value
        macro = macros.get(tok.text) if tok.kind == "id" and tok.text not in hide else None
        args = _arguments(tok, macro, todo) if macro else None
        if args is None:
            out.append((tok, hide))
            continue
        outer = use or tok
        hide = hide | {tok.text}
        args = [[(t, h | hide) for t, h in _expand(arg[::-1], macros, budget, outer)]
                for arg in args]
        body = expand_macro(macro, args)
        budget[0] -= len(body)
        if budget[0] < 0:
            raise ParseError(f"macro expansion exceeds {MAX_EXPANDED_TOKENS} tokens", outer)
        # the body's own tokens come back bare, the arguments' as pairs
        todo.extend((Token(x.kind, x.text, x.value, tok.line, tok.col), hide)
                    if isinstance(x, Token) else x for x in reversed(body))
    return out


def _arguments(name, macro, todo):
    """The argument lists, each a list of pairs, of the use of `macro` at the
    token `name`, taken off `todo`; None, with nothing taken, when `macro`
    has parameters and no `(` follows."""
    if macro.params is None:
        return []
    if not (todo and _punct(todo[-1][0], "(")):
        return None if macro.params else []
    todo.pop()
    if not macro.params:        # defined with empty parentheses
        closing = todo.pop()[0] if todo else name
        if not _punct(closing, ")"):
            raise ParseError("macro call takes no arguments", closing)
        return []
    args, depth = [[]], 1
    while True:
        if not todo:
            raise ParseError("unterminated macro argument list", name)
        pair = todo.pop()
        tok = pair[0]
        if tok.kind == "punct":
            depth += (tok.text in "([{") - (tok.text in ")]}")
            if depth == 0:
                break
            if depth == 1 and tok.text == ",":
                args.append([])
                continue
        args[-1].append(pair)
    if len(args) != len(macro.params):
        raise ParseError(f"macro {macro.name} takes {len(macro.params)} arguments, "
                         f"got {len(args)}", name)
    return args


def expand_macro(macro, args):
    """Pure textual substitution of parameter tokens by argument tokens."""
    if macro.params and len(args) != len(macro.params):
        raise ParseError(f"macro {macro.name} takes {len(macro.params)} arguments")
    table = dict(zip(macro.params or (), args))
    out = []
    for tok in macro.body:
        if tok.kind == "id" and tok.text in table:
            out.extend(table[tok.text])
        else:
            out.append(tok)
    return out


class Parser:
    def __init__(self, source):
        self.macros = {}
        self.tokens = expand_macros(tokenize(source, keep_comments=True), self.macros)
        self.pos = 0
        self.fespaces = set()

    # -- helpers -----------------------------------------------------------

    def peek(self):
        return self.tokens[self.pos]

    def peek2(self):
        return self.tokens[min(self.pos + 1, len(self.tokens) - 1)]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += tok.kind != "eof"       # the final eof is never passed
        return tok

    def expect(self, kind, text=None):
        tok = self.next()
        if tok.kind != kind or (text is not None and tok.text != text):
            want = text if text is not None else kind
            raise ParseError(f"expected {want!r}, found {tok.text!r}", tok)
        return tok

    def expect_op(self, text):
        return self.expect("op", text)

    def expect_punct(self, text):
        return self.expect("punct", text)

    def at(self, kind, text=None):
        tok = self.peek()
        return tok.kind == kind and (text is None or tok.text == text)

    def accept(self, kind, text=None):
        if self.at(kind, text):
            return self.next()
        return None

    def expect_ident(self):
        tok = self.next()
        if tok.kind != "id":
            raise ParseError(f"expected identifier, found {tok.text!r}", tok)
        return tok

    def end_statement(self):
        if self.accept("punct", ";"):
            return
        tok = self.peek()
        if tok.kind == "eof" or (tok.kind == "punct" and tok.text == "}"):
            return
        raise ParseError(f"expected ';', found {tok.text!r}", tok)

    def _comma_list(self, item, close=None):
        """Comma-separated items parsed by `item`, as a tuple.  With a closing
        punctuation `close` the list may be empty and `close` is consumed;
        without one it holds at least one item."""
        items = []
        if close is None or not self.at("punct", close):
            items.append(item())
            while self.accept("punct", ","):
                items.append(item())
        if close is not None:
            self.expect_punct(close)
        return tuple(items)

    def _named_tail(self):
        """The `, name=value ...)` that closes a header, as a tuple of Args."""
        named = []
        while self.accept("punct", ","):
            named.append(self.argument())
        self.expect_punct(")")
        return tuple(named)

    def _statements(self, in_block):
        """Statements up to the end of input, or up to and including the `}`
        of a block.  Empty statements are skipped, and the list that
        `func f=..., g=...;` gives is flattened."""
        body = []
        while True:
            tok = self.peek()
            if tok.kind == "eof":
                if in_block:
                    raise ParseError("unterminated block", tok)
                return tuple(body)
            if in_block and tok.kind == "punct" and tok.text == "}":
                self.next()
                return tuple(body)
            stmt = self.statement()
            if isinstance(stmt, list):
                body.extend(stmt)
            elif stmt is not None:
                body.append(stmt)

    # -- entry ----------------------------------------------------------------

    def parse_program(self):
        return A.Program(self._statements(in_block=False))

    # -- statements -------------------------------------------------------------

    def statement(self):
        tok = self.peek()
        if tok.kind == "macro":
            return self.next().value
        if tok.kind == "punct" and tok.text == ";":
            self.next()
            return None
        if tok.kind == "punct" and tok.text == "{":
            return self.block()
        if tok.kind == "kw":
            kw = tok.text
            if kw in TYPE_BASES:
                return self.declaration()
            if kw == "fespace":
                return self.fespace_decl()
            if kw == "border":
                return self.border_def()
            if kw == "func":
                return self.func_def()
            if kw == "varf":
                return self.varf_def()
            if kw in ("solve", "problem"):
                return self.problem_def()
            if kw == "if":
                return self.if_stmt()
            if kw == "for":
                return self.for_stmt()
            if kw == "while":
                return self.while_stmt()
            if kw in ("break", "continue"):
                line = self.next().line
                self.end_statement()
                return (A.Break if kw == "break" else A.Continue)(line=line)
            if kw == "return":
                line = self.next().line
                value = None
                if not self.at("punct", ";"):
                    value = self.expression()
                self.end_statement()
                return A.Return(value, line=line)
            if kw == "load":
                line = self.next().line
                mod = self.expect("str")
                self.end_statement()
                return A.LoadStmt(mod.value, line=line)
            raise ParseError(f"unexpected keyword {kw!r}", tok)
        if tok.kind == "id" and tok.text in self.fespaces:
            nxt = self.peek2()
            if nxt.kind == "id" or (nxt.kind == "op" and nxt.text == "<"):
                return self.fe_decl()
        expr = self.expression()
        line = getattr(expr, "line", 0)
        self.end_statement()
        return A.ExprStmt(expr, line=line)

    def block(self):
        line = self.expect_punct("{").line
        return A.Block(self._statements(in_block=True), line=line)

    def _type_suffix(self, base):
        dims = 0
        subtype = None
        if base in ("int", "real", "complex") and self.at("punct", "["):
            self.next()
            self.expect("kw", "int")
            if self.accept("punct", ","):
                self.expect("kw", "int")
                dims = 2
            else:
                dims = 1
            self.expect_punct("]")
        return dims, self._subtype()

    def _subtype(self):
        if not self.accept("op", "<"):
            return None
        subtype = self.next().text
        self.expect_op(">")
        return subtype

    def declaration(self):
        decl = self.declaration_no_semi()
        self.end_statement()
        return decl

    def declaration_no_semi(self):
        tok = self.next()
        dims, subtype = self._type_suffix(tok.text)
        return A.Decl(tok.text, dims, subtype, self._comma_list(self.declarator), line=tok.line)

    def declarator(self):
        name = self.expect_ident().text
        sizes = ()
        init = None
        if self.accept("punct", "("):
            sizes = self._comma_list(self.expression, ")")
        elif self.accept("op", "="):
            init = self.expression()
        return A.Declarator(name, sizes, init)

    def fespace_decl(self):
        line = self.next().line
        name = self.expect_ident().text
        self.expect_punct("(")
        mesh = self.expression()
        self.expect_punct(",")
        elem = self.expression()
        named = self._named_tail()
        self.end_statement()
        self.fespaces.add(name)
        return A.FespaceDecl(name, mesh, elem, named, line=line)

    def fe_decl(self):
        tok = self.next()
        subtype = self._subtype()
        decls = self._comma_list(self.declarator)
        self.end_statement()
        return A.FeDecl(tok.text, subtype, decls, line=tok.line)

    def border_def(self):
        line = self.next().line
        name = self.expect_ident().text
        self.expect_punct("(")
        param = self.expect_ident().text
        self.expect_op("=")
        t0 = self.expression()
        self.expect_punct(",")
        t1 = self.expression()
        self.expect_punct(")")
        block = self.block()
        self.accept("punct", ";")
        return A.BorderDef(name, param, t0, t1, block.body, line=line)

    def func_def(self):
        line = self.next().line
        tok = self.peek()
        if tok.kind == "kw" and tok.text in TYPE_BASES:
            ret = self.next().text
            name = self.expect_ident().text
            self.expect_punct("(")
            params = self._comma_list(self._func_param, ")")
            body = self.block()
            self.accept("punct", ";")
            return A.FuncDef(name, ret, params, body, line=line)

        def analytic():
            name = self.expect_ident().text
            self.expect_op("=")
            return A.FuncDef(name, None, None, self.expression(), line=line)
        defs = self._comma_list(analytic)
        self.end_statement()
        return defs[0] if len(defs) == 1 else list(defs)

    def _func_param(self):
        base = self.next()
        if base.kind != "kw" or base.text not in TYPE_BASES:
            raise ParseError(f"expected parameter type, found {base.text!r}", base)
        dims, _ = self._type_suffix(base.text)
        name = self.expect_ident().text
        return (base.text, dims, name)

    def _form_header(self):
        name = self.expect_ident().text
        self.expect_punct("(")
        unknown = self.expect_ident().text
        self.expect_punct(",")
        test = self.expect_ident().text
        named = self._named_tail()
        self.expect_op("=")
        body = self.expression()
        self.end_statement()
        return name, unknown, test, named, body

    def varf_def(self):
        line = self.next().line
        name, unknown, test, named, body = self._form_header()
        return A.VarfDef(name, unknown, test, named, body, line=line)

    def problem_def(self):
        tok = self.next()
        name, unknown, test, named, body = self._form_header()
        return A.ProblemDef(tok.text, name, unknown, test, named, body, line=tok.line)

    def body_statement(self):
        stmt = self.statement()
        if isinstance(stmt, list):
            return A.Block(tuple(stmt))
        return stmt

    def if_stmt(self):
        line = self.next().line
        self.expect_punct("(")
        cond = self.expression()
        self.expect_punct(")")
        then = self.body_statement()
        orelse = None
        if self.at("kw", "else"):
            self.next()
            orelse = self.body_statement()
        return A.If(cond, then, orelse, line=line)

    def for_stmt(self):
        line = self.next().line
        self.expect_punct("(")
        if self.at("punct", ";"):
            raise ParseError("for-loop clauses are required", self.peek())
        tok = self.peek()
        if tok.kind == "kw" and tok.text in TYPE_BASES:
            init = self.declaration_no_semi()
        elif tok.kind == "id" and tok.text in self.fespaces and self.peek2().kind == "id":
            raise ParseError("declare FE functions outside for-loop heads", tok)
        else:
            init = A.ExprStmt(self.expression(), line=tok.line)
        self.expect_punct(";")
        if self.at("punct", ";"):
            raise ParseError("for-loop condition is required", self.peek())
        cond = self.expression()
        self.expect_punct(";")
        if self.at("punct", ")"):
            raise ParseError("for-loop change clause is required", self.peek())
        change = self.expression()
        self.expect_punct(")")
        body = self.body_statement()
        return A.For(init, cond, change, body, line=line)

    def while_stmt(self):
        line = self.next().line
        self.expect_punct("(")
        cond = self.expression()
        self.expect_punct(")")
        body = self.body_statement()
        return A.While(cond, body, line=line)

    # -- expressions -----------------------------------------------------------

    def argument(self):
        tok = self.peek()
        if tok.kind == "id":
            nxt = self.peek2()
            if nxt.kind == "op" and nxt.text == "=":
                self.next()
                self.next()
                return A.Arg(self.expression(), name=tok.text)
        return A.Arg(self.expression())

    def expression(self):
        return self.assignment()

    def assignment(self):
        left = self.range_expr()
        tok = self.peek()
        if tok.kind == "op" and tok.text in ASSIGN_OPS:
            self.next()
            value = self.assignment()
            return A.Assign(tok.text, left, value, line=tok.line)
        return left

    def range_expr(self):
        start = self.or_expr()
        if self.at("op", ":"):
            line = self.next().line
            second = self.or_expr()
            if self.at("op", ":"):
                self.next()
                stop = self.or_expr()
                return A.Range(start, second, stop, line=line)
            return A.Range(start, None, second, line=line)
        return start

    def _binary_left(self, ops, sub):
        left = sub()
        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.text in ops:
                self.next()
                left = A.Binary(tok.text, left, sub(), line=tok.line)
            else:
                return left

    def or_expr(self):
        return self._binary_left({"|", "||"}, self.and_expr)

    def and_expr(self):
        return self._binary_left({"&", "&&"}, self.eq_expr)

    def eq_expr(self):
        return self._binary_left({"==", "!="}, self.rel_expr)

    def rel_expr(self):
        return self._binary_left({"<", ">", "<=", ">="}, self.shift_expr)

    def shift_expr(self):
        return self._binary_left({"<<", ">>"}, self.add_expr)

    def add_expr(self):
        return self._binary_left({"+", "-"}, self.mul_expr)

    def mul_expr(self):
        return self._binary_left({"*", "/", ".*", "./", "%"}, self.unary)

    def unary(self):
        tok = self.peek()
        if tok.kind == "op" and tok.text in ("-", "+", "!"):
            self.next()
            return A.Unary(tok.text, self.unary(), line=tok.line)
        if tok.kind == "op" and tok.text in ("++", "--"):
            self.next()
            return A.IncDec(tok.text, self.unary(), prefix=True, line=tok.line)
        return self.power()

    def power(self):
        base = self.postfix()
        if self.at("op", "^"):
            line = self.next().line
            return A.Binary("^", base, self.unary(), line=line)
        return base

    def postfix(self):
        node = self.primary()
        while True:
            tok = self.peek()
            if tok.kind == "punct" and tok.text == "(":
                self.next()
                node = A.Call(node, self._comma_list(self.argument, ")"), line=tok.line)
            elif tok.kind == "punct" and tok.text == "[":
                self.next()
                node = A.Index(node, self._comma_list(self.expression, "]"), line=tok.line)
            elif tok.kind == "punct" and tok.text == ".":
                self.next()
                name = self.expect_ident().text
                node = A.Member(node, name, line=tok.line)
            elif tok.kind == "op" and tok.text == "'":
                self.next()
                node = A.Transpose(node, line=tok.line)
            elif tok.kind == "op" and tok.text in ("++", "--"):
                self.next()
                node = A.IncDec(tok.text, node, prefix=False, line=tok.line)
            else:
                return node

    def primary(self):
        if self.peek().kind == "kw" and self.peek().text in ("real", "int", "complex") \
                and self.peek2().text == "(":
            tok = self.next()  # conversion / part extraction call
            return A.Ident(tok.text, line=tok.line)
        tok = self.next()
        if tok.kind == "int" or tok.kind == "real":
            return A.Num(tok.value, line=tok.line)
        if tok.kind == "imag":
            return A.Imag(tok.value, line=tok.line)
        if tok.kind == "str":
            return A.Str(tok.value, line=tok.line)
        if tok.kind == "id":
            return A.Ident(tok.text, line=tok.line)
        if tok.kind == "punct" and tok.text == "(":
            expr = self.expression()
            self.expect_punct(")")
            return expr
        if tok.kind == "punct" and tok.text == "[":
            return A.ListExpr(self._comma_list(self.expression, "]"), line=tok.line)
        raise ParseError(f"unexpected token {tok.text!r}", tok)


def parse(source) -> A.Program:
    """Parse source text into a Program."""
    return Parser(source).parse_program()
